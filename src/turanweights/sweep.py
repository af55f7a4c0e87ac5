"""Exhaustive and randomized verification campaigns over graph families."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice

from .graphs import (Graph, SplitMix64, _built, from_edge_list, random_gnp, turan_graph,
                     write_graph6)
from .weights import (
    DEFAULT_LAGRANGIAN_CAP,
    DEFAULT_SWEEP_CAP,
    DEFAULT_TIGHT_CAP,
    CorollaryViolation,
    InvariantViolation,
    scaled_weights,
    turan_bound_check,
    turan_edge_bound,
    weight_report,
)

# n = 10 would need 2^36 seen flags (64 GB), one per graph on 9 vertices
SWEEP_MAX_N = 9
# the largest n the edge-bound campaign takes: it holds T(n, r)'s edges as
# tuples, about 120 bytes each, up to C(n, 2) of them
CAMPAIGN_MAX_N = 2_000


class SweepStats(namedtuple("SweepStats", "n graphs_checked violations min_slack tight_count "
                                          "tight_examples max_total_weight")):
    """Exact aggregate of one verification campaign.

    For the edge-bound campaign (turan_bound_campaign) the totals are edge
    counts and the slack is against (1 - 1/r) n^2/2 instead of edge weights
    against n^2/4; all other fields keep their meaning.
    """

    __slots__ = ()


# one part of a campaign: (graphs checked, tight count, max total, tight graphs)
Part = tuple[int, int, Fraction, Iterable[Graph]]


def mask_pairs(n: int) -> list[tuple[int, int]]:
    """Bit position -> vertex pair, lexicographic: bit 0 is (0,1), bit 1 is (0,2), ..."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _mask_rows(n: int, mask: int) -> list[int]:
    """Adjacency rows of the graph on n vertices whose edges are the set bits of mask."""
    pairs = mask_pairs(n)
    adj = [0] * n
    while mask:
        b = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        u, v = pairs[b]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def graph_from_mask(n: int, mask: int) -> Graph:
    bits = len(mask_pairs(n))
    if not 0 <= mask < 1 << bits:
        raise ValueError(f"mask {mask} is out of range for n={n}: need 0 <= mask < 2^{bits}")
    return _built(n, _mask_rows(n, mask))


def _clique_table(adj: list[int]) -> list[int]:
    """om[T] = clique number of the subgraph induced on the vertex set T, for every T.

    With v the lowest vertex of T, a largest clique of T either misses v or
    is v plus a clique of T's neighbours of v; both sets lie in T - v, a
    smaller number than T, so their entries are already filled.
    """
    om = [0] * (1 << len(adj))
    for t in range(1, len(om)):
        low = t & -t
        without = om[t ^ low]
        through = 1 + om[t & adj[low.bit_length() - 1]]
        om[t] = without if without > through else through
    return om


def _bit_table(images: list[int]) -> list[int]:
    """t[x] = OR of images[b] over the set bits b of x, for every x < 2^len(images)."""
    t = [0] * (1 << len(images))
    for x in range(1, len(t)):
        low = x & -x
        t[x] = t[x ^ low] | images[low.bit_length() - 1]
    return t


def _plain_changes(k: int) -> list[int]:
    """Positions i of the adjacent swaps (i, i+1) that step through all k! orders
    of k items, each order once (Steinhaus-Johnson-Trotter).

    Between two swaps of the k-1 older items the newest item sweeps from one
    end to the other; while it sits at the left end the older items occupy
    positions 1..k-1, so their swap moves one place right.
    """
    if k < 2:
        return []
    out: list[int] = []
    for step, inner in enumerate([*_plain_changes(k - 1), None]):
        out.extend(range(k - 2, -1, -1) if step % 2 == 0 else range(k - 1))
        if inner is not None:
            out.append(inner + (step % 2 == 0))
    return out


def classes(k: int) -> Iterator[list[int]]:
    """The isomorphism classes of the graphs on k vertices, as lists of masks
    over mask_pairs(k), each list led by its least member, in ascending order
    of least member.

    Masks are taken in ascending order, and each one not yet seen is the
    least member of a new class.  The class is closed by walking the k!
    relabelings of that mask one adjacent transposition at a time, in
    plain-changes order; each transposition is a bit permutation of the mask,
    applied as two table lookups (low and high half of the bits).  The seen
    flags take one byte per mask: 32 KB at k = 6, 2 MB at k = 7, 256 MB at k = 8.
    """
    pairs = mask_pairs(k)
    index = {p: b for b, p in enumerate(pairs)}
    half = (len(pairs) + 1) // 2
    low = (1 << half) - 1
    swaps = []
    for i in range(k - 1):
        swap = {i: i + 1, i + 1: i}
        images = [1 << index[tuple(sorted((swap.get(u, u), swap.get(v, v))))] for u, v in pairs]
        swaps.append((_bit_table(images[:half]), _bit_table(images[half:])))
    walk = [swaps[i] for i in _plain_changes(k)]
    seen = bytearray(1 << len(pairs))
    rep = 0
    while rep >= 0:
        seen[rep] = 1
        members = [rep]
        x = rep
        for lo, hi in walk:
            x = lo[x & low] | hi[x >> half]
            if not seen[x]:
                seen[x] = 1
                members.append(x)
        yield members
        rep = seen.find(0, rep + 1)


class _Blocks:
    """The vertex-0 block check of the n-vertex sweep, with its per-n tables.

    Vertex 0's pairs are the low n-1 mask bits, so a mask is (high << (n-1)) | N:
    ``high`` is, in mask_pairs(n-1) order, a graph H on vertices 1..n-1
    (numbered 0..n-2 here) and N is vertex 0's neighbourhood.  For each H the
    check tabulates the clique number om of every vertex set of H once; then
    an edge (0, v) has clique number 2 + om[N & N_H(v)], and an H-edge uv with
    common neighbourhood c has 2 + om[c], one more when both ends are in N and
    N holds a largest clique of c.
    """

    def __init__(self, n: int):
        self.scale, self.table = scaled_weights(range(2, n + 1))
        self.bound4 = n * n * self.scale  # slack >= 0  iff  4 * total_scaled <= bound4
        self.k = k = max(n - 1, 0)
        self.pairs = mask_pairs(k)
        # per neighbourhood N: its vertices, and the bits of the H-pairs inside it
        self.members = [[v for v in range(k) if nbhd >> v & 1] for nbhd in range(1 << k)]
        self.inner_pairs = [[b for b, (u, v) in enumerate(self.pairs) if nbhd >> u & nbhd >> v & 1]
                            for nbhd in range(1 << k)]

    def check(self, high: int) -> tuple[int, int, list[int], int | None]:
        """Check the masks (high << k) | N for every N, ascending; return (tight
        count, max_total_scaled, the tight masks in ascending order, first
        violating mask or None), stopping at the first mask over the bound."""
        table, bound4, members, inner_pairs = self.table, self.bound4, self.members, self.inner_pairs
        first = high << self.k
        adj = _mask_rows(self.k, high)
        om = _clique_table(adj)
        # spoke[S]: weight of an edge (0, v) with common neighbourhood S; S never
        # holds v, so it is never all of H and the last entry is never read
        spoke = [table[2 + x] for x in om[:-1]]
        base = 0
        # H-edge bit -> (common neighbourhood c, om[c], weight change at r + 1);
        # c misses u, v and vertex 0, so r + 1 <= n stays inside the table
        gains: list[tuple[int, int, int] | None] = [None] * len(self.pairs)
        for b, (u, v) in enumerate(self.pairs):
            if high >> b & 1:
                common = adj[u] & adj[v]
                r = 2 + om[common]
                base += table[r]
                gains[b] = (common, om[common], table[r + 1] - table[r])
        max_total = 0
        tight_masks: list[int] = []
        for nbhd in range(1 << self.k):
            total = base
            for v in members[nbhd]:
                total += spoke[nbhd & adj[v]]
            for b in inner_pairs[nbhd]:
                gain = gains[b]
                if gain is not None and om[gain[0] & nbhd] == gain[1]:
                    total += gain[2]
            quad = 4 * total
            if quad > bound4:
                return len(tight_masks), max_total, tight_masks, first + nbhd
            if quad == bound4:
                tight_masks.append(first + nbhd)
            if total > max_total:
                max_total = total
        return len(tight_masks), max_total, tight_masks, None


def sweep_all_graphs(n: int, cap: int = DEFAULT_SWEEP_CAP,
                     tight_cap: int = DEFAULT_TIGHT_CAP) -> SweepStats:
    """Verify the weight bound on every labeled graph on n vertices.

    Relabeling the graph H on vertices 1..n-1 relabels vertex 0's
    neighbourhood with it, so the blocks of isomorphic H hold the same
    totals.  The sweep checks one block per class of H, the block of the
    class's least member, as classes() closes the class, and counts its
    tight graphs once per member.  The first violating mask is in the block
    of the least violating class's least member, which that block's check
    returns.  The tight graphs are a lazy stream: the members of the tight
    classes, collected during the walk and sorted once, each block
    rechecked; _tally reads only as far as the tight-example cap.
    """
    if n > cap:
        raise ValueError(f"n={n} exceeds the sweep cap of {cap}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if tight_cap < 0:
        raise ValueError(f"tight-example cap must be nonnegative, got {tight_cap}")
    if n > SWEEP_MAX_N:
        raise ValueError(
            f"n={n} exceeds {SWEEP_MAX_N}, the largest n the labeled sweep runs: its class "
            f"walk would mark 2^{(n - 1) * (n - 2) // 2} seen flags, one per labeled graph "
            f"on {n - 1} vertices; larger n needs a sweep over isomorphism classes")
    blocks = _Blocks(n)
    checked = tight = max_total = 0
    tight_highs: list[int] = []
    for members in classes(blocks.k):
        class_tight, class_max, _, violation = blocks.check(members[0])
        if violation is not None:
            # weight_report raises when the rational path sees the violation too
            g = graph_from_mask(n, violation)
            weight_report(g)
            raise InvariantViolation(
                f"sweep total disagrees with weight_report on graph {write_graph6(g)}")
        checked += len(members)
        if class_tight:
            tight += class_tight * len(members)
            tight_highs += members
        max_total = max(max_total, class_max)
    tight_highs.sort()
    tight_graphs = (graph_from_mask(n, m) for high in tight_highs for m in blocks.check(high)[2])
    part = (checked << blocks.k, tight, Fraction(max_total, blocks.scale), tight_graphs)
    return _tally(n, Fraction(n * n, 4), [part], tight_cap)


def _tally(n: int, bound: Fraction, parts: Iterable[Part], tight_cap: int) -> SweepStats:
    """Merge (checked, tight, max_total, tight_graphs) parts, in order, into campaign stats.

    Every graph of a campaign is measured against the one ``bound``, so the
    minimum slack is ``bound - max_total``.  This is the one place the
    tight-example cap applies: tight graphs are read from the parts'
    iterables only up to it, so a lazy producer makes none past the cap.
    """
    checked = tight = 0
    max_total = Fraction(0)
    examples: list[Graph] = []
    for part_checked, part_tight, part_max, part_graphs in parts:
        checked += part_checked
        tight += part_tight
        max_total = max(max_total, part_max)
        examples.extend(islice(part_graphs, min(part_tight, tight_cap - len(examples))))
    return SweepStats(
        n=n,
        graphs_checked=checked,
        violations=0,
        min_slack=bound - max_total,
        tight_count=tight,
        tight_examples=tuple(write_graph6(g) for g in examples),
        max_total_weight=max_total,
    )


def fuzz_random(n: int, p: Fraction | int, count: int, seed: int,
                lagrangian_cap: int = DEFAULT_LAGRANGIAN_CAP) -> SweepStats:
    """Verify the weight bound on ``count`` seeded G(n,p) draws.

    Per-graph seeds come from one SplitMix64 stream seeded with ``seed``, so
    the whole campaign is reproducible.  The weight bound is checked at every
    n; when n <= lagrangian_cap the exact simplex maximum is also computed,
    and lagrangian_maximum checks the chain total/n^2 <= max f <= 1/4.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    master = SplitMix64(seed)
    chain = n <= lagrangian_cap
    if chain:  # only the chain check calls lagrangian, so only it compiles the module
        from .lagrangian import WeightScheme, lagrangian_maximum

    def draws() -> Iterator[Part]:
        for _ in range(count):
            g = random_gnp(n, p, master.next64())
            report = weight_report(g)
            if chain:
                lagrangian_maximum(g, WeightScheme.clique_weighted())
            yield 1, int(report.tight), report.total, [g] if report.tight else []

    return _tally(n, Fraction(n * n, 4), draws(), DEFAULT_TIGHT_CAP)


def turan_bound_campaign(n: int, r: int, count: int, seed: int) -> SweepStats:
    """Check the edge bound on random spanning subgraphs of the r-part Turan graph.

    Every draw keeps each edge independently with probability 1/2 (one
    Bernoulli draw per edge, lexicographic edge order, one stream for the
    whole campaign), yielding graphs with no clique of size r+1 by
    construction.
    """
    if r < 2:
        raise ValueError(f"part count must be >= 2, got {r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if n > CAMPAIGN_MAX_N:
        raise MemoryError(f"campaign n={n} exceeds CAMPAIGN_MAX_N={CAMPAIGN_MAX_N}")
    base = turan_graph(n, r)
    base_edges = list(base.edges())
    bound = turan_edge_bound(n, r)
    half = Fraction(1, 2)
    coins = SplitMix64(seed).draws(half.denominator)

    def draws() -> Iterator[Part]:
        for _ in range(count):
            # one bernoulli(half) draw per edge; zip takes the edge first, so
            # no draw is taken past the last edge
            kept = [e for e, x in zip(base_edges, coins) if x < half.numerator]
            sub = from_edge_list(n, kept)
            try:
                within = turan_bound_check(sub, r)
            except ValueError as exc:
                # sub is K_{r+1}-free by construction: the clique search is wrong
                raise CorollaryViolation(
                    f"{exc} on subgraph {write_graph6(sub)} of T({n},{r})") from None
            if not within:
                raise CorollaryViolation(
                    f"edge bound violated on subgraph {write_graph6(sub)} of T({n},{r})")
            tight = len(kept) == bound
            yield 1, int(tight), Fraction(len(kept)), [sub] if tight else []

    return _tally(n, bound, draws(), DEFAULT_TIGHT_CAP)
