"""Shared brute-force oracles and graph corpora for the test suite."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import lcm
from typing import Iterator

import pytest

import turanweights.lagrangian as lagrangian_mod
import turanweights.sweep as sweep_mod
from turanweights import Graph, SplitMix64, graph_from_mask, mask_pairs, weight_report
from turanweights.cliques import CliqueSet, edge_clique_numbers, enumerate_cliques, max_clique_size
from turanweights.graphs import turan_part_sizes
from turanweights.lagrangian import (
    CliqueCandidate,
    LagrangianOutcome,
    SimplexPoint,
    WeightScheme,
    _clique_stationary,
    _edge_weights,
    _weight_matrix,
)


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, by adjacency mask order."""
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_mask(n, mask)


def reference_sweep_shard(args: tuple[int, int, int, int]) -> tuple[int, int, int, list[int], int | None]:
    """Check the masks in [lo, hi) of the n-vertex sweep one by one: rebuild
    each graph and run edge_clique_numbers on it.  Returns (checked, tight,
    max_total_scaled, tight masks up to tight_cap, first violating mask or
    None), stopping at the first violation.  Reads sweep.scaled_weights at
    call time, so a test that patches the table patches both."""
    n, lo, hi, tight_cap = args
    pairs = mask_pairs(n)
    scale, table = sweep_mod.scaled_weights(range(2, n + 1))
    bound4 = n * n * scale
    tight = 0
    max_total = 0
    tight_masks: list[int] = []
    for mask in range(lo, hi):
        adj = [0] * n
        mm = mask
        while mm:
            b = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            u, v = pairs[b]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        total = 0
        for r in edge_clique_numbers(adj):
            total += table[r]
        quad = 4 * total
        if quad > bound4:
            return mask - lo, tight, max_total, tight_masks, mask
        if quad == bound4:
            tight += 1
            if len(tight_masks) < tight_cap:
                tight_masks.append(mask)
        if total > max_total:
            max_total = total
    return hi - lo, tight, max_total, tight_masks, None


def mask_of(vertices) -> int:
    """The bitmask of a vertex collection."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def write_edge_list(g: Graph) -> str:
    """The plain edge-list text of g: "n m", then one "u v" line per edge."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def reference_turan_graph(n: int, r: int) -> Graph:
    """T(n, r) pair by pair: u and v are adjacent when their parts differ.
    The parts are the consecutive runs of turan_part_sizes, largest first."""
    part = []
    for idx, s in enumerate(turan_part_sizes(n, r)):
        part.extend([idx] * s)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if part[u] != part[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def motzkin_straus_value(g: Graph) -> Fraction:
    """Closed-form simplex maximum (1 - 1/omega)/2 of the unweighted form."""
    omega = max_clique_size(g)
    if omega <= 1:
        return Fraction(0)
    return Fraction(omega - 1, 2 * omega)


def support_of(x) -> tuple[int, ...]:
    """The indices of the positive coordinates of a simplex point."""
    return tuple(i for i, c in enumerate(x) if c > 0)


def is_clique_mask(g: Graph, mask: int) -> bool:
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        if (g.adj[v] | 1 << v) & mask != mask:
            return False
    return True


def brute_clique_masks(g: Graph) -> list[int]:
    """All nonempty cliques as vertex masks, by exhaustive subset check."""
    return [mask for mask in range(1, 1 << g.n) if is_clique_mask(g, mask)]


def brute_max_clique(g: Graph) -> int:
    best = 0
    for mask in brute_clique_masks(g):
        size = mask.bit_count()
        if size > best:
            best = size
    return best


def brute_edge_clique_number(g: Graph, u: int, v: int) -> int:
    need = (1 << u) | (1 << v)
    best = 0
    for mask in brute_clique_masks(g):
        if mask & need == need:
            best = max(best, mask.bit_count())
    return best


def brute_edge_clique_numbers(g: Graph) -> list[int]:
    """brute_edge_clique_number of every edge, in g.edges() order, from one clique list."""
    cliques = brute_clique_masks(g)
    return [max(m.bit_count() for m in cliques if m >> u & m >> v & 1) for u, v in g.edges()]


def naive_solve(rows, rhs):
    """Plain Fraction Gaussian elimination, used only as an oracle."""
    k = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(k):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                for c in range(col, k + 1):
                    m[r][c] -= f * m[col][c]
    return [m[i][k] / m[i][i] for i in range(k)]


def _solve_clique_stationary(wdict: dict[tuple[int, int], Fraction], clique: tuple[int, ...]):
    """lagrangian._clique_stationary for weights given as {(u, v): w}, u < v."""
    scale = lcm(*[w.denominator for w in wdict.values()])
    n = 1 + max(clique + tuple(v for _, v in wdict))
    mat = _weight_matrix(n, [(u, v, int(w * scale)) for (u, v), w in wdict.items()])
    return _clique_stationary(scale, mat, clique)


def ref_weights(g: Graph, scheme: WeightScheme) -> dict[tuple[int, int], Fraction]:
    """{(u, v): w} in Fractions, from weight_report or the scheme's constant."""
    if scheme.mode == "constant":
        return {e: scheme.c for e in g.edges()}
    return {(rec.u, rec.v): rec.w for rec in weight_report(g).records}


def ref_side(wdict: dict[tuple[int, int], Fraction], coords, i: int) -> Fraction:
    """Weighted neighbor sum at vertex i, summed over the weight dict."""
    total = Fraction(0)
    for (u, v), w in wdict.items():
        if u == i:
            total += w * coords[v]
        elif v == i:
            total += w * coords[u]
    return total


def compositions(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """All n-part compositions of ``total`` (stars and bars), lexicographic."""
    if n == 1:
        yield (total,)
        return
    for bars in combinations(range(total + n - 1), n - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(total + n - 2 - prev)
        yield tuple(parts)


def brute_grid_maximum(g: Graph, scheme: WeightScheme, resolution: int) -> Fraction:
    """grid_oracle by evaluating the scaled form at every grid point."""
    if g.n == 0:
        return Fraction(0)
    scale, edges = _edge_weights(g, scheme)
    best = max(sum(a * t[u] * t[v] for u, v, a in edges)
               for t in compositions(g.n, resolution))
    return Fraction(best, scale * resolution * resolution)


def reference_plain(value):
    """JSON form of a library value, field for field, as the command line
    once built it for ``json.dumps(..., sort_keys=True, indent=2)``.

    Rationals become p/q strings, simplex points their coordinate lists,
    clique sets their vertex lists, records (tuples with ``_fields``) dicts
    keyed by field name, and other tuples lists.  Dicts and lists are
    rebuilt from their items' forms, so an envelope that holds library
    values converts whole.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (CliqueSet, SimplexPoint)):
        return [reference_plain(v) for v in value]
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):
            return {name: reference_plain(v) for name, v in zip(value._fields, value)}
        return [reference_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: reference_plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [reference_plain(v) for v in value]
    return value


def reference_lagrangian_maximum(g: Graph, scheme: WeightScheme) -> LagrangianOutcome:
    """lagrangian_maximum as one loop over the enumerated cliques: each
    clique's key is its upper-triangle weights in row order, built whole, and
    every candidate's value is compared with the best, memo hit or not.
    Skips the chain check."""
    if g.n == 0:
        return LagrangianOutcome(Fraction(0), CliqueSet(()), SimplexPoint(()), ())
    cap = lagrangian_mod.DEFAULT_CANDIDATE_CAP
    cliques = list(islice(enumerate_cliques(g), cap + 1))
    if len(cliques) > cap:
        raise ValueError(f"candidate cliques exceed the cap of {cap}")
    scale, edges = lagrangian_mod._edge_weights(g, scheme)
    mat = _weight_matrix(g.n, edges)
    candidates = []
    best_value, best_clique, best_coords = None, (), []
    solved = {}
    for clique in cliques:
        key = tuple([mat[i][j] for i, j in combinations(clique, 2)])
        result = solved.get(key)
        if result is None:
            result = solved[key] = _clique_stationary(scale, mat, clique)
        status, value, coords = result
        candidates.append(CliqueCandidate(CliqueSet(clique), status, value))
        if value is not None and (best_value is None or value > best_value):
            best_value, best_clique, best_coords = value, clique, coords
    witness = [Fraction(0)] * g.n
    for vert, xv in zip(best_clique, best_coords):
        witness[vert] = xv
    return LagrangianOutcome(best_value if best_value is not None else Fraction(0),
                             CliqueSet(best_clique), SimplexPoint(tuple(witness)),
                             tuple(candidates))


def random_rational_point(n: int, seed: int) -> tuple[Fraction, ...]:
    """Deterministic random simplex point with denominator-bounded coordinates."""
    rng = SplitMix64(seed)
    while True:
        nums = [rng.below(1000) for _ in range(n)]
        total = sum(nums)
        if total:
            return tuple(Fraction(k, total) for k in nums)


@pytest.fixture
def k4_minus_edge() -> Graph:
    """K4 with the edge (2,3) removed; two triangles sharing edge (0,1)."""
    from turanweights import from_edge_list

    return from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
