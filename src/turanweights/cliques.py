"""Exact maximum-clique search and clique enumeration over bitset graphs."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .graphs import Graph


class CliqueSet(tuple):
    """Vertices of one clique, sorted ascending."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int]) -> CliqueSet:
        self = super().__new__(cls, vertices)
        if list(self) != sorted(set(self)):
            raise ValueError("clique vertices must be sorted and distinct")
        return self

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"CliqueSet(vertices={tuple(self)!r})"


def _color_order(adj: Sequence[int], cand: int) -> list[tuple[int, int]]:
    """Greedy coloring of the subgraph induced on ``cand``.

    Returns (vertex, color) pairs grouped by ascending color class; the color
    of a vertex bounds the size of any clique it can extend.
    """
    order: list[tuple[int, int]] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            avail &= ~adj[v]
            rest ^= 1 << v
            order.append((v, color))
    return order


def _expand(adj: Sequence[int], size: int, cand: int, best: int) -> int:
    # Tomita-style branch and bound: process candidates in decreasing color
    # order; size + color is an upper bound for the whole remaining subtree.
    for v, color in reversed(_color_order(adj, cand)):
        if size + color <= best:
            return best
        sub = cand & adj[v]
        if sub:
            best = _expand(adj, size + 1, sub, best)
        elif size + 1 > best:
            best = size + 1
        cand &= ~(1 << v)
    return best


# Vertex sets up to this size go to the popcount search, larger ones to the
# coloring search; README gives the timings behind the crossover.
POPCOUNT_MAX = 14


def _popcount_search(adj: Sequence[int], cand: int, size: int, best: int) -> int:
    # branch and bound pruned by size + |cand|, without coloring's setup cost
    if size > best:
        best = size
    while cand:
        if size + cand.bit_count() <= best:
            break
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        best = _popcount_search(adj, cand & adj[v], size + 1, best)
    return best


def _clique_number(adj: Sequence[int], cand: int) -> int:
    """Clique number of the subgraph induced on the vertex set ``cand``."""
    if cand.bit_count() <= POPCOUNT_MAX:
        return _popcount_search(adj, cand, 0, 0)
    return _expand(adj, 0, cand, 0)


def max_clique_size(g: Graph) -> int:
    """Exact clique number; 0 for the null graph, 1 for nonempty edgeless graphs."""
    return _clique_number(g.adj, (1 << g.n) - 1)


def edge_clique_numbers(adj: Sequence[int]) -> list[int]:
    """Size of the largest clique containing each edge u < v, in lexicographic
    edge order: the order of Graph.edges() and of the sweep's mask bits."""
    out = []
    for u, row in enumerate(adj):
        above = row >> (u + 1) << (u + 1)
        while above:
            low = above & -above
            above ^= low
            common = row & adj[low.bit_length() - 1]
            c = common.bit_count()
            # no call: a common neighbourhood of at most one vertex is its own clique
            out.append(2 + (c if c <= 1 else _clique_number(adj, common)))
    return out


def edge_clique_number(g: Graph, u: int, v: int) -> int:
    """Size of the largest clique containing the edge (u, v); always >= 2."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    return 2 + _clique_number(g.adj, g.adj[u] & g.adj[v])


def _iter_clique_tuples(adj: Sequence[int], cand: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        cur = prefix + (v,)
        yield cur
        yield from _iter_clique_tuples(adj, cand & adj[v], cur)


def enumerate_cliques(g: Graph) -> Iterator[CliqueSet]:
    """Every nonempty clique exactly once, lexicographic by sorted vertex list.

    Cliques are grown by recursive extension over candidates above the last
    vertex, so each clique is formed (and emitted) exactly once.
    """
    for tup in _iter_clique_tuples(g.adj, (1 << g.n) - 1, ()):
        yield CliqueSet(tup)

