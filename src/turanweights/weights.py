"""Clique-dependent edge weights and exact verification of the n^2/4 bound.

Every edge gets weight r/(2(r-1)) where r is the size of the largest clique
containing it; the total over all edges never exceeds n^2/4.  All arithmetic
is exact: Fractions, or integers over a common denominator; no floating point
enters this module.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cliques import edge_clique_number  # noqa: F401 -- perfbench/tracer.py wraps this name here
from .cliques import edge_clique_numbers, max_clique_size
from .graphs import Graph, write_graph6

# The campaigns' default caps: sweep's n and tight examples, and the largest
# n at which fuzz also checks the simplex-maximum chain.  They live here, not
# in sweep, so that every command's parser reads them without compiling sweep.
DEFAULT_SWEEP_CAP = 7
DEFAULT_TIGHT_CAP = 10
DEFAULT_LAGRANGIAN_CAP = 12


class InvariantViolation(Exception):
    """A proven mathematical invariant failed; always an implementation bug."""


class TheoremViolation(InvariantViolation):
    """Total edge weight exceeded n^2/4.  Carries the offending report."""

    def __init__(self, message: str, report: "WeightReport | None" = None) -> None:
        super().__init__(message)
        self.report = report


class CorollaryViolation(InvariantViolation):
    """A K_{r+1}-free graph exceeded the (1 - 1/r) n^2/2 edge bound."""


class EdgeWeightRecord(namedtuple("EdgeWeightRecord", "u v r w")):
    """Edge (u, v), u < v, its clique number r and its weight w."""

    __slots__ = ()


class WeightReport(namedtuple("WeightReport", "graph rs total bound slack")):
    """Clique number of each edge, in Graph.edges() order, with the exact
    bound comparison; per-edge records are built only when asked for."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def tight(self) -> bool:
        return self.slack == 0

    @property
    def records(self) -> tuple[EdgeWeightRecord, ...]:
        weights = {r: edge_weight(r) for r in set(self.rs)}
        return tuple(EdgeWeightRecord(u, v, r, weights[r])
                     for (u, v), r in zip(self.graph.edges(), self.rs))


def edge_weight(r: int) -> Fraction:
    """Weight r/(2(r-1)) of an edge whose largest clique has size r.

    Strictly decreasing in r, with values in (1/2, 1].
    """
    if r < 2:
        raise ValueError(f"edge clique number must be >= 2, got {r}")
    return Fraction(r, 2 * (r - 1))


def scaled_weights(rs: Iterable[int]) -> tuple[int, list[int]]:
    """(scale, T) for the clique numbers ``rs``: ``scale`` is the lcm of the
    denominators of their weights and T[r] = scale * edge_weight(r), an exact
    integer, for each r in ``rs`` (0 at every other index)."""
    weights = {r: edge_weight(r) for r in set(rs)}
    scale = lcm(*[w.denominator for w in weights.values()])
    table = [0] * (max(weights, default=1) + 1)
    for r, w in weights.items():
        table[r] = w.numerator * (scale // w.denominator)
    return scale, table


@lru_cache(maxsize=1)
def clique_numbers(g: Graph) -> tuple[int, ...]:
    """``edge_clique_numbers(g.adj)`` as a tuple, kept for the last graph only:
    a fuzz draw reads them twice, in weight_report and then in the clique
    scheme's weight table, and no caller goes back to an earlier graph."""
    return tuple(edge_clique_numbers(g.adj))


def weight_report(g: Graph) -> WeightReport:
    """Edge clique numbers of g and their total weight against n^2/4.

    This is where the theorem is checked: a total above the bound raises
    TheoremViolation naming the graph in graph6.
    """
    rs = clique_numbers(g)
    scale, table = scaled_weights(rs)
    num, square = sum(map(table.__getitem__, rs)), g.n * g.n
    gap = square * scale - 4 * num  # the slack n^2/4 - num/scale, times 4 * scale
    total, bound = Fraction(num, scale), Fraction(square, 4)
    report = WeightReport(g, rs, total, bound, Fraction(gap, 4 * scale))
    if gap < 0:
        raise TheoremViolation(
            f"total weight {total} exceeds bound {bound} on graph {write_graph6(g)}", report)
    return report


def turan_edge_bound(n: int, r: int) -> Fraction:
    """(1 - 1/r) n^2/2, Turan's bound on the edges of a K_{r+1}-free graph
    on n vertices; the Turan graph T(n, r) attains it when r divides n."""
    return (1 - Fraction(1, r)) * Fraction(n * n, 2)


def turan_bound_check(g: Graph, r: int) -> bool:
    """Edge-count bound e(G) <= turan_edge_bound(n, r) for K_{r+1}-free graphs.

    Precondition (checked): the graph has no clique of size r+1.
    """
    if r < 2:
        raise ValueError(f"clique bound must be >= 2, got {r}")
    omega = max_clique_size(g)
    if omega > r:
        raise ValueError(f"graph contains a clique of size {omega} > {r}")
    return g.edge_count() <= turan_edge_bound(g.n, r)
