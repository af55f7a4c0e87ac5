"""Exhaustive and randomized verification campaigns over graph families."""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

from .graphs import Graph, SplitMix64, from_edge_list, random_gnp, turan_graph, write_graph6
from .lagrangian import WeightScheme, lagrangian_maximum
from .weights import (
    CorollaryViolation,
    InvariantViolation,
    scaled_weights,
    turan_bound_check,
    weight_report,
)

DEFAULT_SWEEP_CAP = 7
DEFAULT_TIGHT_CAP = 10
DEFAULT_LAGRANGIAN_CAP = 12


@dataclass(frozen=True)
class SweepStats:
    """Exact aggregate of one verification campaign.

    For the edge-bound campaign (turan_bound_campaign) the totals are edge
    counts and the slack is against (1 - 1/r) n^2/2 instead of edge weights
    against n^2/4; all other fields keep their meaning.
    """

    n: int
    graphs_checked: int
    violations: int
    min_slack: Fraction
    tight_count: int
    tight_examples: tuple[str, ...]
    max_total_weight: Fraction


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
    return Graph(n, tuple(_mask_rows(n, mask)))


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


def _sweep_shard(args: tuple[int, int, int, int]) -> tuple[int, int, int, list[int], int | None]:
    """Check masks in [lo, hi); return (checked, tight, max_total_scaled,
    tight_masks up to cap, first violating mask or None).

    Vertex 0's pairs are the low n-1 mask bits, so a mask is (high << (n-1)) | N:
    ``high`` is, in mask_pairs(n-1) order, a graph H on vertices 1..n-1
    (numbered 0..n-2 here) and N is vertex 0's neighbourhood.  For each H the
    shard tabulates the clique number om of every vertex set of H once; then
    an edge (0, v) has clique number 2 + om[N & N_H(v)], and an H-edge uv with
    common neighbourhood c has 2 + om[c], one more when both ends are in N and
    N holds a largest clique of c.
    """
    n, lo, hi, tight_cap = args
    scale, table = scaled_weights(range(2, n + 1))
    bound4 = n * n * scale  # slack >= 0  iff  4 * total_scaled <= bound4
    k = max(n - 1, 0)
    block = 1 << k
    pairs = mask_pairs(k)
    # per neighbourhood N: its vertices, and the bits of the H-pairs inside it
    members = [[v for v in range(k) if nbhd >> v & 1] for nbhd in range(block)]
    inner_pairs = [[b for b, (u, v) in enumerate(pairs) if nbhd >> u & nbhd >> v & 1]
                   for nbhd in range(block)]
    tight = 0
    max_total = 0
    tight_masks: list[int] = []
    for high in range(lo >> k, (hi + block - 1) >> k):
        first = high << k
        adj = _mask_rows(k, high)
        om = _clique_table(adj)
        # spoke[S]: weight of an edge (0, v) with common neighbourhood S; S never
        # holds v, so it is never all of H and the last entry is never read
        spoke = [table[2 + x] for x in om[:-1]]
        base = 0
        # H-edge bit -> (common neighbourhood c, om[c], weight change at r + 1);
        # c misses u, v and vertex 0, so r + 1 <= n stays inside the table
        gains: list[tuple[int, int, int] | None] = [None] * len(pairs)
        for b, (u, v) in enumerate(pairs):
            if high >> b & 1:
                common = adj[u] & adj[v]
                r = 2 + om[common]
                base += table[r]
                gains[b] = (common, om[common], table[r + 1] - table[r])
        for nbhd in range(max(lo - first, 0), min(hi - first, block)):
            total = base
            for v in members[nbhd]:
                total += spoke[nbhd & adj[v]]
            for b in inner_pairs[nbhd]:
                gain = gains[b]
                if gain is not None and om[gain[0] & nbhd] == gain[1]:
                    total += gain[2]
            mask = first + nbhd
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


def sweep_all_graphs(n: int, cap: int = DEFAULT_SWEEP_CAP, jobs: int = 1,
                     tight_cap: int = DEFAULT_TIGHT_CAP) -> SweepStats:
    """Verify the weight bound on every labeled graph on n vertices.

    Iterates all 2^(n(n-1)/2) adjacency masks, sharded over ``jobs`` worker
    processes (at most one per CPU and one per shard); partial results merge
    in shard order, so the outcome is identical for any job count.
    """
    if n > cap:
        raise ValueError(f"n={n} exceeds the sweep cap of {cap}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if tight_cap < 0:
        raise ValueError(f"tight-example cap must be nonnegative, got {tight_cap}")
    if jobs < 1:
        raise ValueError(f"job count must be >= 1, got {jobs}")
    total_masks = 1 << (n * (n - 1) // 2)
    jobs = min(jobs, os.cpu_count() or 1)
    shard_count = min(total_masks, jobs * 8)
    step = -(-total_masks // shard_count)
    shards = [(n, lo, min(lo + step, total_masks), tight_cap)
              for lo in range(0, total_masks, step)]
    if jobs == 1 or len(shards) == 1:
        partials = [_sweep_shard(s) for s in shards]
    else:
        with multiprocessing.Pool(min(jobs, len(shards))) as pool:
            partials = pool.map(_sweep_shard, shards)

    scale, _ = scaled_weights(range(2, n + 1))
    parts = []
    for checked, tight, max_total, tight_masks, violation in partials:
        if violation is not None:
            # weight_report raises when the rational path sees the violation too
            g = graph_from_mask(n, violation)
            weight_report(g)
            raise InvariantViolation(
                f"sweep total disagrees with weight_report on graph {write_graph6(g)}")
        parts.append((checked, tight, Fraction(max_total, scale),
                      (graph_from_mask(n, m) for m in tight_masks)))
    return _tally(n, Fraction(n * n, 4), parts, tight_cap)


def _tally(n: int, bound: Fraction, parts: Iterable[Part], tight_cap: int) -> SweepStats:
    """Merge (checked, tight, max_total, tight_graphs) parts, in order, into campaign stats.

    Every graph of a campaign is measured against the one ``bound``, so the
    minimum slack is ``bound - max_total``; only the first ``tight_cap`` tight
    graphs are encoded.
    """
    checked = tight = 0
    max_total = Fraction(0)
    examples: list[Graph] = []
    for part_checked, part_tight, part_max, part_graphs in parts:
        checked += part_checked
        tight += part_tight
        max_total = max(max_total, part_max)
        examples.extend(islice(part_graphs, tight_cap - len(examples)))
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

    def draws() -> Iterator[Part]:
        for _ in range(count):
            g = random_gnp(n, p, master.next64())
            report = weight_report(g)
            if n >= 1 and n <= lagrangian_cap:
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
    base = turan_graph(n, r)
    base_edges = list(base.edges())
    bound = (1 - Fraction(1, r)) * Fraction(n * n, 2)
    half = Fraction(1, 2)
    rng = SplitMix64(seed)

    def draws() -> Iterator[Part]:
        for _ in range(count):
            kept = [e for e in base_edges if rng.bernoulli(half)]
            sub = from_edge_list(n, kept)
            if not turan_bound_check(sub, r):
                raise CorollaryViolation(
                    f"edge bound violated on subgraph {write_graph6(sub)} of T({n},{r})")
            tight = len(kept) == bound
            yield 1, int(tight), Fraction(len(kept)), [sub] if tight else []

    return _tally(n, bound, draws(), DEFAULT_TIGHT_CAP)
