"""Seeded input generation for the benchmark, independent of turanweights.

The benchmark writes its own graph6 files so that a change to the package's
generators or codec cannot change what a workload feeds the CLI.  Graphs are
lists of adjacency bitmasks: bit v of ``adj[u]`` is set when uv is an edge.
"""

from __future__ import annotations

from fractions import Fraction

MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 (Steele, Lea and Vigna) with its published constants."""

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) for 0 < bound <= 2^64, by rejection."""
        limit = (1 << 64) - (1 << 64) % bound
        while True:
            u = self.next64()
            if u < limit:
                return u % bound

    def fork(self) -> "SplitMix64":
        """An independent stream, so one input's draws never shift another's."""
        return SplitMix64(self.next64())


def gnp(n: int, p: Fraction, rng: SplitMix64) -> list[int]:
    """G(n,p) with exact rational p; pairs drawn in lexicographic order."""
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.below(p.denominator) < p.numerator:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def gnm(n: int, m: int, rng: SplitMix64) -> list[int]:
    """Uniform graph with exactly m edges: a partial Fisher-Yates shuffle of
    the lexicographic pair list picks the edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    adj = [0] * n
    for k in range(m):
        j = k + rng.below(len(pairs) - k)
        pairs[k], pairs[j] = pairs[j], pairs[k]
        u, v = pairs[k]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def turan(n: int, r: int) -> list[int]:
    """Complete r-partite graph on n vertices; vertex v lies in part v % r."""
    return [sum(1 << v for v in range(n) if v % r != u % r) for u in range(n)]


def graph6(adj: list[int]) -> str:
    """graph6 line: size header, then the upper triangle by columns, 6 bits a byte."""
    n = len(adj)
    if n > 62:
        # n <= 258047 takes '~' and three 6-bit groups
        out = [chr(126)] + [chr(((n >> k) & 63) + 63) for k in (12, 6, 0)]
    else:
        out = [chr(n + 63)]
    bits = [adj[v] >> u & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        word = 0
        for b in bits[k:k + 6]:
            word = word << 1 | b
        out.append(chr(word + 63))
    return "".join(out)


def is_clique(adj: list[int], vertices: list[int]) -> bool:
    return all(adj[u] >> v & 1 for i, u in enumerate(vertices) for v in vertices[i + 1:])


def clique_count(adj: list[int]) -> int:
    """Number of non-empty cliques, each counted once from its highest vertex."""

    def grow(cand: int) -> int:
        total = 0
        while cand:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            total += 1 + grow(cand & adj[v])
        return total

    return grow((1 << len(adj)) - 1)


def simplex_start(n: int, rng: SplitMix64) -> list[Fraction]:
    """A rational point inside the simplex with every coordinate positive."""
    weights = [1 + rng.below(97) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]
