"""Immutable bitset graphs, standard generators, and text formats (graph6, edge list)."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

GRAPH6_MAX_N = 68719476735  # largest vertex count the size header can carry (2^36 - 1)
# largest edge-list header accepted: the most vertices any command takes
# (oracle --grid 1); larger headers are refused before anything is allocated
EDGE_LIST_MAX_N = 5_000_000


class Graph6Error(ValueError):
    """Malformed graph6 input."""


class Graph(namedtuple("Graph", "n adj")):
    """Undirected simple graph on vertices 0..n-1.

    ``adj[v]`` is the neighbor set of ``v`` as a bitmask.  Instances are
    immutable and safe to share across threads.
    """

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]) -> Graph:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        for v, row in enumerate(adj):
            # a negative row has bits at every position, so this rejects it too
            if row >> n:
                raise ValueError(f"adjacency of vertex {v} references vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(adj):
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return tuple.__new__(cls, (n, adj))

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: ({u},{v}) with n={self.n}")
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                yield u, v


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from (possibly duplicated or reversed) index pairs."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << max(n, 0)) - 1  # a negative n is left for Graph to reject
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def turan_part_sizes(n: int, r: int) -> list[int]:
    """Sizes of the r near-equal parts, largest first."""
    if r < 1:
        raise ValueError(f"part count must be >= 1, got {r}")
    q, rem = divmod(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def turan_graph(n: int, r: int) -> Graph:
    """Complete multipartite graph with r parts of sizes as equal as possible."""
    sizes = turan_part_sizes(n, r)
    part = []
    for idx, s in enumerate(sizes):
        part.extend([idx] * s)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if part[u] != part[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# --- deterministic randomness ------------------------------------------------
#
# splitmix64 (Steele, Lea & Vigna); fixed published constants so that any
# implementation in any language reproduces identical G(n,p) draws.

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator; the repo's only source of randomness."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Exact uniform integer in [0, bound), by rejection on 64-bit words."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        words = max(1, (bound.bit_length() + 63) // 64)
        span = 1 << (64 * words)
        limit = span - span % bound
        while True:
            u = 0
            for _ in range(words):
                u = (u << 64) | self.next64()
            if u < limit:
                return u % bound

    def bernoulli(self, p: Fraction) -> bool:
        """Exact Bernoulli(p) draw; consumes one below() call."""
        return self.below(p.denominator) < p.numerator


def random_gnp(n: int, p: Fraction | int, seed: int) -> Graph:
    """G(n,p) with exact inclusion probability p, reproducible from the seed.

    Pairs are visited in lexicographic order (0,1),(0,2),...,(n-2,n-1); each
    consumes one Bernoulli draw from a SplitMix64 stream seeded with ``seed``.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0,1], got {p}")
    rng = SplitMix64(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.bernoulli(p):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# --- graph6 ------------------------------------------------------------------
#
# Printable encoding of the upper adjacency triangle in column order
# (0,1),(0,2),(1,2),(0,3),... packed 6 bits per character, offset by 63.


def _encode_size(n: int) -> str:
    if n < 0 or n > GRAPH6_MAX_N:
        raise Graph6Error(f"vertex count {n} outside graph6 range")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        bits = 18
        prefix = chr(126)
    else:
        bits = 36
        prefix = chr(126) + chr(126)
    return prefix + "".join(chr(((n >> k) & 63) + 63) for k in range(bits - 6, -1, -6))


def _decode_size(text: str) -> tuple[int, int]:
    """Return (n, index of first data character)."""
    if not text:
        raise Graph6Error("empty graph6 string")
    vals = [ord(c) - 63 for c in text]
    if any(v < 0 or v > 63 for v in vals):
        raise Graph6Error("character out of graph6 range (63..126)")
    if vals[0] != 63:
        return vals[0], 1
    if len(vals) < 2:
        raise Graph6Error("truncated graph6 size header")
    if vals[1] != 63:
        if len(vals) < 4:
            raise Graph6Error("truncated graph6 size header")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        return n, 4
    if len(vals) < 8:
        raise Graph6Error("truncated graph6 size header")
    n = 0
    for v in vals[2:8]:
        n = (n << 6) | v
    return n, 8


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (an optional '>>graph6<<' prefix is tolerated)."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    n, start = _decode_size(line)
    nbits = n * (n - 1) // 2
    data = line[start:]
    need = (nbits + 5) // 6
    if len(data) != need:
        raise Graph6Error(f"expected {need} data characters for n={n}, got {len(data)}")
    adj = [0] * n
    bits = 0
    bitbuf = 0
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if bits == 0:
                bitbuf = ord(data[pos]) - 63
                bits = 6
                pos += 1
            bits -= 1
            if bitbuf >> bits & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    if bits and bitbuf & ((1 << bits) - 1):
        raise Graph6Error("nonzero padding bits")
    return Graph(n, tuple(adj))


def write_graph6(g: Graph) -> str:
    out = [_encode_size(g.n)]
    bitbuf = 0
    bits = 0
    for v in range(1, g.n):
        row = g.adj[v]
        for u in range(v):
            bitbuf = (bitbuf << 1) | (row >> u & 1)
            bits += 1
            if bits == 6:
                out.append(chr(bitbuf + 63))
                bitbuf = 0
                bits = 0
    if bits:
        out.append(chr((bitbuf << (6 - bits)) + 63))
    return "".join(out)


# --- edge list text ----------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain format: first line "n m", then m lines "u v".

    Tokens may be separated by any whitespace; duplicate and reversed pairs
    are tolerated.  A header with more than EDGE_LIST_MAX_N vertices is
    refused.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge list needs a leading 'n m' header")
    try:
        nums = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"non-integer token in edge list: {exc}") from None
    n, m = nums[0], nums[1]
    if n > EDGE_LIST_MAX_N:
        raise ValueError("input too large to hold in memory")
    if len(nums) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges ({2 * m} endpoints), got {(len(nums) - 2)} tokens")
    pairs = [(nums[2 + 2 * i], nums[3 + 2 * i]) for i in range(m)]
    return from_edge_list(n, pairs)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def mask_of(vertices: Sequence[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m
