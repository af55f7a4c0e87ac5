"""Weighted quadratic form over the simplex: evaluation, support reduction,
and the exact global maximum via clique-restricted stationary-point solves.

The objective is f(x) = sum over edges uv of w(uv) x_u x_v, maximized over
nonnegative x summing to 1.  A maximizer always exists whose support induces
a clique: repeatedly shifting all mass of one of two non-adjacent positive
coordinates onto the other (the one with the larger weighted neighbor sum)
never decreases f and strictly shrinks the support.  The global maximum is
therefore the best value over per-clique stationary solutions, which this
module computes in exact rational arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb, lcm
from operator import add, mul

from .cliques import edge_clique_number  # noqa: F401 -- perfbench/tracer.py wraps this name here
from .cliques import CliqueSet, _iter_clique_tuples, edge_clique_numbers, max_clique_size
from .graphs import Graph, write_graph6
from .linsolve import solve_linear_system
from .weights import InvariantViolation, scaled_weights

STATUS_INTERIOR = "interior-solution"
STATUS_NO_POSITIVE = "no-positive-solution"
STATUS_SINGULAR = "singular-skipped"

DEFAULT_CANDIDATE_CAP = 250_000
GRID_POINT_CAP = 5_000_000


def _as_exact(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed in exact computations")
    return Fraction(value)


class WeightScheme(namedtuple("WeightScheme", "mode c")):
    """Edge weighting: clique-number weights, or one constant for every edge."""

    __slots__ = ()

    def __new__(cls, mode: str, c: Fraction = Fraction(1)) -> WeightScheme:
        if mode not in ("clique", "constant"):
            raise ValueError(f"unknown weight mode {mode!r}")
        c = _as_exact(c)
        if mode == "constant" and c <= 0:
            raise ValueError("constant weight must be positive")
        return tuple.__new__(cls, (mode, c))

    @staticmethod
    def clique_weighted() -> "WeightScheme":
        return WeightScheme("clique")

    @staticmethod
    def constant(c) -> "WeightScheme":
        return WeightScheme("constant", c)


class SimplexPoint(tuple):
    """Exact barycentric coordinates: nonnegative rationals summing to 1.

    The zero-length point is allowed as the single (vacuous) point used for
    graphs with no vertices.
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable[Fraction]) -> SimplexPoint:
        self = super().__new__(cls, [_as_exact(c) for c in coords])
        den, nums = _common_denominator(self)
        if any(num < 0 for num in nums):
            raise ValueError("simplex coordinates must be nonnegative")
        if self and sum(nums) != den:
            raise ValueError(f"simplex coordinates must sum to 1, got {sum(self)}")
        return self

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"SimplexPoint(coords={tuple(self)!r})"

    @staticmethod
    def uniform(n: int) -> "SimplexPoint":
        if n < 1:
            raise ValueError("uniform point needs at least one coordinate")
        return SimplexPoint((Fraction(1, n),) * n)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self) if c > 0)

    def support_mask(self) -> int:
        m = 0
        for i, c in enumerate(self):
            if c > 0:
                m |= 1 << i
        return m


@lru_cache(maxsize=128)
def _edge_weights(g: Graph, scheme: WeightScheme) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(scale, ((u, v, a), ...)): edge uv (u < v, lexicographic) has weight a/scale.

    ``scale`` is the lcm of the denominators of the weights present, which
    keeps the integers small; cached per graph+scheme.
    """
    if scheme.mode == "constant":
        return scheme.c.denominator, tuple((u, v, scheme.c.numerator) for u, v in g.edges())
    rs = edge_clique_numbers(g.adj)
    scale, table = scaled_weights(rs)
    return scale, tuple((u, v, table[r]) for (u, v), r in zip(g.edges(), rs))


def weight_map(g: Graph, scheme: WeightScheme) -> dict[tuple[int, int], Fraction]:
    """Edge weights keyed by (u, v) with u < v."""
    scale, edges = _edge_weights(g, scheme)
    return {(u, v): Fraction(a, scale) for u, v, a in edges}


def _weight_matrix(n: int, edges) -> list[list[int]]:
    """n x n symmetric matrix of the scaled weights a, zero off the edges.

    Vertices without an edge all share one zero row, which nothing writes
    to, so a sparse graph on many vertices does not hold n^2 list slots.
    """
    zero = [0] * n
    mat = [zero] * n
    for u, v, a in edges:
        if mat[u] is zero:
            mat[u] = [0] * n
        if mat[v] is zero:
            mat[v] = [0] * n
        mat[u][v] = mat[v][u] = a
    return mat


def _common_denominator(coords: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, X): D is the lcm of the coordinates' denominators, X[i] = D * coords[i]."""
    den = lcm(*[c.denominator for c in coords])
    return den, [c.numerator * (den // c.denominator) for c in coords]


def _scaled_point(g: Graph, x: SimplexPoint) -> tuple[int, list[int]]:
    if len(x) != g.n:
        raise ValueError(f"point has {len(x)} coordinates, graph has {g.n} vertices")
    return _common_denominator(x)


def _form(edges, xs: Sequence[int]) -> int:
    """Sum of a * X_u * X_v over the scaled edges: f = _form / (scale * D^2)."""
    total = 0
    for u, v, a in edges:
        xu = xs[u]
        if xu:
            total += a * xu * xs[v]
    return total


def _side(mat: Sequence[Sequence[int]], xs: Sequence[int], i: int) -> int:
    """Scaled weighted neighbor sum at i: s_i = _side / (scale * D)."""
    return sum(map(mul, mat[i], xs))


def objective_value(g: Graph, scheme: WeightScheme, x: SimplexPoint) -> Fraction:
    """Exact value of the weighted quadratic form at x."""
    den, xs = _scaled_point(g, x)
    scale, edges = _edge_weights(g, scheme)
    return Fraction(_form(edges, xs), scale * den * den)


def side_sum(g: Graph, scheme: WeightScheme, x: SimplexPoint, i: int) -> Fraction:
    """Weighted neighbor sum at vertex i: the gradient component of f along x_i."""
    if not 0 <= i < g.n:
        raise IndexError(f"vertex {i} out of range for n={g.n}")
    den, xs = _scaled_point(g, x)
    scale, edges = _edge_weights(g, scheme)
    return Fraction(_side(_weight_matrix(g.n, edges), xs, i), scale * den)


class ReductionStep(namedtuple("ReductionStep", "i j s_i s_j f_before f_after point_after")):
    """One mass shift: coordinate j is zeroed, its mass moves onto i.

    The pair is non-adjacent with both coordinates positive beforehand, and
    s_i >= s_j, so f_after - f_before = x_j (s_i - s_j) >= 0.
    """

    __slots__ = ()


class ReductionTrace(tuple):
    """The steps of one support reduction, in order."""

    __slots__ = ()

    def __new__(cls, steps: Iterable[ReductionStep] = ()) -> ReductionTrace:
        return super().__new__(cls, steps)

    @property
    def steps(self) -> tuple[ReductionStep, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"ReductionTrace(steps={tuple(self)!r})"


def _first_nonadjacent_positive_pair(adj: Sequence[int], pos: int) -> tuple[int, int] | None:
    m = pos
    while m:
        a = (m & -m).bit_length() - 1
        m &= m - 1
        others = m & ~adj[a]  # m holds only bits above a
        if others:
            return a, (others & -others).bit_length() - 1
    return None


def support_reduce(g: Graph, scheme: WeightScheme, x: SimplexPoint) -> tuple[SimplexPoint, ReductionTrace]:
    """Shift mass between non-adjacent positive pairs until the support is a clique.

    Pairs are chosen lexicographically; mass moves onto the endpoint with the
    larger weighted neighbor sum (ties toward the smaller index).  Each step
    recomputes f from scratch, so the recorded before/after values are honest
    evaluations rather than applications of the shift identity; a step whose
    f decreases contradicts that identity and raises InvariantViolation.
    """
    den, xs = _scaled_point(g, x)
    scale, edges = _edge_weights(g, scheme)
    mat = _weight_matrix(g.n, edges)
    s_den = scale * den
    f_den = s_den * den
    coords = list(x)
    pos = x.support_mask()
    point = x
    form_before = _form(edges, xs)
    steps: list[ReductionStep] = []
    while True:
        pair = _first_nonadjacent_positive_pair(g.adj, pos)
        if pair is None:
            break
        a, b = pair
        s_a = _side(mat, xs, a)
        s_b = _side(mat, xs, b)
        if s_a >= s_b:
            i, j, s_i, s_j = a, b, s_a, s_b
        else:
            i, j, s_i, s_j = b, a, s_b, s_a
        # D stays the common denominator: the shift only adds two numerators
        xs[i] += xs[j]
        xs[j] = 0
        form_after = _form(edges, xs)
        if form_after < form_before:
            raise InvariantViolation(
                f"support reduction step {len(steps) + 1} ({j}->{i}) decreased f "
                f"on graph {write_graph6(g)}")
        coords[i] = Fraction(xs[i], den)
        coords[j] = Fraction(0)
        pos &= ~(1 << j)
        point = SimplexPoint(coords)
        steps.append(ReductionStep(i, j, Fraction(s_i, s_den), Fraction(s_j, s_den),
                                   Fraction(form_before, f_den), Fraction(form_after, f_den),
                                   point))
        form_before = form_after
    return point, ReductionTrace(steps)


class CliqueCandidate(namedtuple("CliqueCandidate", "clique status value")):
    """One ledger row: a clique, its solve status, and its interior value or None."""

    __slots__ = ()


class LagrangianOutcome(namedtuple("LagrangianOutcome", "maximum support witness candidates")):
    """Exact simplex maximum with a witnessing point and the candidate ledger."""

    __slots__ = ()

    def __repr__(self) -> str:
        return (f"LagrangianOutcome(maximum={self.maximum!r}, support={self.support!r}, "
                f"witness={self.witness!r})")


def _clique_stationary(scale: int, mat: Sequence[Sequence[int]], clique: tuple[int, ...]):
    """Stationary point of f restricted to a clique's face, with w_ij = mat[i][j] / scale.

    Solves { sum_{j in S, j != i} w_ij x_j = lambda for i in S; sum x_i = 1 }
    on integer rows: each gradient row times ``scale``, in the unknowns x and
    mu = scale * lambda.  With all coordinates positive the common gradient
    value lambda satisfies f = lambda/2, because sum_i x_i s_i counts every
    edge twice.
    """
    k = len(clique)
    rows = []
    for i in clique:
        weights = mat[i]
        row = [weights[j] for j in clique]
        row.append(-1)
        rows.append(row)
    rows.append([1] * k + [0])
    sol = solve_linear_system(rows, [0] * k + [1])
    if sol is None:
        return STATUS_SINGULAR, None, None
    xs = sol[:k]
    if all(xv.numerator > 0 for xv in xs):
        return STATUS_INTERIOR, sol[k] / (2 * scale), xs
    return STATUS_NO_POSITIVE, None, None


def lagrangian_maximum(g: Graph, scheme: WeightScheme) -> LagrangianOutcome:
    """Exact global maximum of f over the simplex.

    Every clique is a candidate support (a maximizer with clique support
    always exists); each candidate contributes its interior stationary value.
    Singular stationary systems are skipped: any value attained on a
    positive-dimensional critical family is also attained in the closure at a
    point supported on a strictly smaller clique, which is enumerated
    separately.  Ties keep the first candidate in enumeration order.  Refuses,
    before any solve, when the graph has more than DEFAULT_CANDIDATE_CAP
    cliques.

    A clique's system reads only its upper-triangle weights in clique order,
    and the weights take few distinct values, so each distinct system is
    solved once per call and its result reused for every later clique with
    the same weights (K_17's 131,071 cliques need 17 solves).

    Under clique weights the maximum M must satisfy U <= M <= 1/4, where
    U = total weight / n^2 is f at the uniform point, or InvariantViolation
    is raised; a constant scheme has no 1/4 bound and is not checked.
    """
    if g.n == 0:
        return LagrangianOutcome(Fraction(0), CliqueSet(()), SimplexPoint(()), ())
    cap = DEFAULT_CANDIDATE_CAP
    cliques = list(islice(_iter_clique_tuples(g.adj, (1 << g.n) - 1, ()), cap + 1))
    if len(cliques) > cap:
        raise ValueError(f"candidate cliques exceed the cap of {cap}")
    scale, edges = _edge_weights(g, scheme)
    mat = _weight_matrix(g.n, edges)
    candidates: list[CliqueCandidate] = []
    best_value: Fraction | None = None
    best_clique: tuple[int, ...] = ()
    best_coords: list[Fraction] = []
    solved: dict[tuple[int, ...], tuple] = {}
    for clique in cliques:
        # from a list, not a generator: tuple() of a generator starts at 10
        # slots and resizes, so freed keys of every other length pile up in
        # the interpreter's per-length tuple free lists (0.3 MB on the
        # benchmark's dense graphs)
        key = tuple([mat[i][j] for i, j in combinations(clique, 2)])
        result = solved.get(key)
        if result is None:
            result = solved[key] = _clique_stationary(scale, mat, clique)
        status, value, coords = result
        candidates.append(CliqueCandidate(CliqueSet(clique), status, value))
        if value is not None and (best_value is None or value > best_value):
            best_value, best_clique, best_coords = value, clique, coords
    maximum = best_value if best_value is not None else Fraction(0)
    if scheme.mode == "clique":
        uniform = Fraction(sum(a for _, _, a in edges), scale * g.n * g.n)
        if not uniform <= maximum <= Fraction(1, 4):
            raise InvariantViolation(
                f"simplex-maximum chain broken on {write_graph6(g)}: "
                f"{uniform} <= {maximum} <= 1/4 fails")
    witness = [Fraction(0)] * g.n
    for vert, xv in zip(best_clique, best_coords):
        witness[vert] = xv
    return LagrangianOutcome(
        maximum,
        CliqueSet(best_clique),
        SimplexPoint(tuple(witness)),
        tuple(candidates),
    )


def motzkin_straus_value(g: Graph) -> Fraction:
    """Closed-form simplex maximum (1 - 1/omega)/2 of the unweighted form."""
    omega = max_clique_size(g)
    if omega <= 1:
        return Fraction(0)
    return Fraction(omega - 1, 2 * omega)


def _best_last_pair(s_y: int, s_z: int, a: int, rem: int) -> int:
    """Max over c in 0..rem of h(c) = c*s_y + (rem-c)*s_z + a*c*(rem-c), for a >= 0.

    h(c) = rem*s_z + b*c - a*c^2 with b = s_y - s_z + a*rem is concave, so its
    integer maximum sits at floor(b / 2a) or the next integer, clamped to
    [0, rem]; with a = 0 it is linear and the maximum is at an endpoint.
    """
    best = rem * (s_y if s_y > s_z else s_z)
    if a:
        b = s_y - s_z + a * rem
        for c in (b // (2 * a), b // (2 * a) + 1):
            if 0 < c < rem:
                h = rem * s_z + (b - a * c) * c
                if h > best:
                    best = h
    return best


def grid_oracle(g: Graph, scheme: WeightScheme, resolution: int) -> Fraction:
    """Exact maximum of f over simplex points with coordinates k/resolution.

    A lower-bound oracle for lagrangian_maximum that shares none of its code
    path.  On integer points X summing to ``resolution`` it maximizes the
    scaled form sum a*X_u*X_v by a depth-first walk over the positive
    coordinates of vertices 0..n-3, in increasing vertex order, carrying the
    form and every vertex's weighted neighbor sum; at each node the remaining
    mass goes to the last two vertices in closed form (_best_last_pair).  The
    walk is at most min(resolution, n-2) deep.  Refuses when the number of
    grid points exceeds GRID_POINT_CAP.
    """
    if resolution < 1:
        raise ValueError(f"grid resolution must be >= 1, got {resolution}")
    n = g.n
    if n == 0:
        return Fraction(0)
    count = comb(resolution + n - 1, n - 1)
    cap = GRID_POINT_CAP
    if count > cap:
        raise ValueError(f"{count} grid points exceed the cap of {cap}")
    if resolution == 1:
        # every point is a vertex, where f is 0; this also keeps the n x n
        # matrix below from being built for the up to GRID_POINT_CAP vertices
        # that the cap allows at resolution 1
        return Fraction(0)
    scale, scaled = _edge_weights(g, scheme)
    if not scaled:
        return Fraction(0)
    mat = _weight_matrix(n, scaled)
    y, z = n - 2, n - 1
    a_yz = mat[y][z]

    def walk(start: int, rem: int, form: int, sides: list[int]) -> int:
        # sides[w] is the weighted neighbor sum at w of the mass placed so far
        s_y, s_z = sides[y], sides[z]
        best = form + _best_last_pair(s_y, s_z, a_yz, rem)
        if start == y:
            return best
        # all of rem on one walk vertex: a leaf, so no recursion for it
        best = max(best, form + rem * max(sides[start:y]))
        for v in range(start, y - 1):
            row = mat[v]
            cur = sides
            for c in range(1, rem):
                cur = list(map(add, cur, row))
                best = max(best, walk(v + 1, rem - c, form + c * sides[v], cur))
        # children of the last walk vertex read only the last pair's sums
        s_x, a_xy, a_xz = sides[y - 1], mat[y - 1][y], mat[y - 1][z]
        for c in range(1, rem):
            best = max(best, form + c * s_x
                       + _best_last_pair(s_y + c * a_xy, s_z + c * a_xz, a_yz, rem - c))
        return best

    best = walk(0, resolution, 0, [0] * n)
    return Fraction(best, scale * resolution * resolution)
