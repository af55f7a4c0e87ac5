"""Immutable bitset graphs, standard generators, and text formats (graph6, edge list)."""

from __future__ import annotations

from binascii import b2a_base64
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction

GRAPH6_MAX_N = 68719476735  # largest vertex count the size header can carry (2^36 - 1)
# largest edge-list header accepted: the most vertices any command takes
# (oracle --grid 1); larger headers are refused before anything is allocated
EDGE_LIST_MAX_N = 5_000_000


def _as_exact(value) -> Fraction:
    """``value`` as a Fraction; text reads as p, p/q or a decimal.  An exponent is
    refused, as Fraction would compute 10**exp before anything could check its
    size, and a float is refused, never rounded to its binary value."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed in exact computations")
    if not isinstance(value, str):
        return Fraction(value)
    if "e" not in value and "E" not in value:
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"invalid rational {value!r}; expected p or p/q")


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
        return sum(map(int.bit_count, self.adj)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                yield u, v


def _built(n: int, rows: Iterable[int]) -> Graph:
    """The graph on rows a builder made valid by construction: only n is checked."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    return tuple.__new__(Graph, (n, tuple(rows)))


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
    return _built(n, adj)


def empty_graph(n: int) -> Graph:
    return _built(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << max(n, 0)) - 1  # a negative n is left for _built to reject
    return _built(n, [full ^ (1 << v) for v in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return _built(n, [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)])


def turan_part_sizes(n: int, r: int) -> list[int]:
    """Sizes of the r near-equal parts, largest first."""
    if r < 1:
        raise ValueError(f"part count must be >= 1, got {r}")
    q, rem = divmod(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def turan_graph(n: int, r: int) -> Graph:
    """Complete multipartite graph with r parts of sizes as equal as possible:
    each row is every vertex outside the row's part (a negative n has none)."""
    full = (1 << max(n, 0)) - 1
    adj: list[int] = []
    for size in turan_part_sizes(n, r):
        if size > 0:
            adj += [full ^ (((1 << size) - 1) << len(adj))] * size
    return _built(n, adj)


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
        return next(self.draws(bound))

    def draws(self, bound: int) -> Iterator[int]:
        """Endless below(bound) draws from this stream, each one what a below()
        call made at that point returns, with the word count and rejection
        limit computed once."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        words = max(1, (bound.bit_length() + 63) // 64)
        span = 1 << (64 * words)
        limit = span - span % bound
        next64 = self.next64
        while True:
            u = next64()
            for _ in range(words - 1):
                u = (u << 64) | next64()
            if u < limit:
                yield u % bound

    def bernoulli(self, p: Fraction) -> bool:
        """Exact Bernoulli(p) draw; consumes one below() call."""
        return self.below(p.denominator) < p.numerator


def random_gnp(n: int, p: Fraction | int, seed: int) -> Graph:
    """G(n,p) with exact inclusion probability p, reproducible from the seed.

    Pairs are visited in lexicographic order (0,1),(0,2),...,(n-2,n-1); each
    consumes one Bernoulli draw from a SplitMix64 stream seeded with ``seed``.
    """
    p = _as_exact(p)
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0,1], got {p}")
    draws, num = SplitMix64(seed).draws(p.denominator), p.numerator
    adj = [0] * n
    for u in range(n):
        bit, row = 1 << u, 0
        # zip stops at the last pair before it takes a draw for the next row
        for v, x in zip(range(u + 1, n), draws):
            if x < num:  # the draw bernoulli(p) makes
                row |= 1 << v
                adj[v] |= bit
        adj[u] |= row
    return _built(n, adj)


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
    """Return (n, index of first data character).

    Every character of ``text`` is range-checked, not only the header's.
    """
    if not text:
        raise Graph6Error("empty graph6 string")
    if min(text) < "?" or max(text) > "~":
        raise Graph6Error("character out of graph6 range (63..126)")
    if text[0] != "~":
        return ord(text[0]) - 63, 1
    # "~" then 3 characters, or "~~" then 6
    head, start = (2, 8) if text[1:2] == "~" else (1, 4)
    if len(text) < start:
        raise Graph6Error("truncated graph6 size header")
    n = 0
    for c in text[head:start]:
        n = n << 6 | ord(c) - 63
    return n, start


def _graph6_data(text: str) -> tuple[int, str]:
    """The vertex count and data characters of one graph6 line, after every
    check the format makes: an optional '>>graph6<<' prefix, the character
    range, the size header, the data length, and zero padding bits in the
    last data character."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    n, start = _decode_size(line)
    nbits = n * (n - 1) // 2
    data = line[start:]
    need = (nbits + 5) // 6
    if len(data) != need:
        raise Graph6Error(f"expected {need} data characters for n={n}, got {len(data)}")
    # the last character's low -nbits % 6 bits pad the triangle to whole characters
    if data and (ord(data[-1]) - 63) & ((1 << -nbits % 6) - 1):
        raise Graph6Error("nonzero padding bits")
    return n, data


# data character -> the number of set bits among the 6 it encodes
_SET_BITS = bytes(int.bit_count(b - 63) if 63 <= b <= 126 else 0 for b in range(256))


def graph6_edges(text: str) -> int:
    """The edge count of one graph6 line, checked as parse_graph6 checks it,
    without building the graph: the set bits of its data characters."""
    return sum(_graph6_data(text)[1].encode().translate(_SET_BITS))


# data character -> its 6 bits reversed, as two octal digits: read in reverse
# character order, the digits spell one integer whose bit k is pair k
_REVERSED_OCTAL = {63 + v: f"{int(f'{v:06b}'[::-1], 2):02o}" for v in range(64)}
_WINDOW_BYTES = 1 << 13


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (an optional '>>graph6<<' prefix is tolerated).

    Column v of the upper triangle, the pairs (0,v), ..., (v-1,v), is a run
    of v consecutive bits of the data, so it is read as one slice: v's lower
    neighbours.  The rows built from the columns are symmetric and loop-free
    by construction, so the graph is not re-checked.
    """
    n, data = _graph6_data(text)
    nbits = n * (n - 1) // 2
    stream = int(data[::-1].translate(_REVERSED_OCTAL) or "0", 8)
    # columns are cut from a window of at most 8 * _WINDOW_BYTES + n bits,
    # refilled from the stream's bytes: a shift costs the width it shifts, so
    # shifting the whole stream once per column would cost n times its width
    packed = stream.to_bytes((nbits + 7) // 8, "little")
    adj = [0] * n
    window = width = pos = 0
    for v in range(1, n):
        while width < v:
            window |= int.from_bytes(packed[pos:pos + _WINDOW_BYTES], "little") << width
            pos += _WINDOW_BYTES
            width += 8 * _WINDOW_BYTES
        low = window & ((1 << v) - 1)
        window >>= v
        width -= v
        adj[v] = low
        bit = 1 << v
        while low:
            u = low.bit_length() - 1
            low ^= 1 << u
            adj[u] |= bit
    return _built(n, adj)


# base64 digit -> the graph6 character of the same 6-bit value
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


def write_graph6(g: Graph) -> str:
    """One graph6 line.  Column v, the pairs (0,v), ..., (v-1,v), is v's lower
    neighbours from bit 0 up: a reversed binary string.  The joined columns,
    zero-padded to whole 3-byte groups, pack into bytes whose base64 digits
    are graph6's 6-bit groups."""
    adj = g.adj
    bits = "".join([f"{adj[v] & ((1 << v) - 1):0{v}b}"[::-1] for v in range(1, g.n)])
    pad = -len(bits) % 24
    packed = int(bits + "0" * pad or "0", 2).to_bytes((len(bits) + pad) // 8, "big")
    data = b2a_base64(packed, newline=False)[:(len(bits) + 5) // 6]
    return _encode_size(g.n) + data.translate(_BASE64_TO_GRAPH6).decode()


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
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    if len(nums) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges ({2 * m} endpoints), got {(len(nums) - 2)} tokens")
    pairs = [(nums[2 + 2 * i], nums[3 + 2 * i]) for i in range(m)]
    return from_edge_list(n, pairs)
