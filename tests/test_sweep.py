import multiprocessing
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from turanweights import (
    InvariantViolation,
    complete_graph,
    fuzz_random,
    graph_from_mask,
    mask_pairs,
    sweep_all_graphs,
    turan_bound_campaign,
    turan_bound_check,
    turan_graph,
    verify_theorem,
    weight_report,
    write_graph6,
)
import turanweights.sweep as sweep_mod

from conftest import all_graphs, reference_sweep_shard


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run sweep shards in-process instead of in a Pool; returns the sizes requested."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return sizes


class TestSweepAllGraphs:
    def test_n0(self):
        stats = sweep_all_graphs(0)
        assert stats.graphs_checked == 1
        assert stats.min_slack == 0 and stats.tight_count == 1

    def test_n1(self):
        stats = sweep_all_graphs(1)
        assert stats.graphs_checked == 1
        assert stats.min_slack == Fraction(1, 4) and stats.tight_count == 0

    def test_n2(self):
        stats = sweep_all_graphs(2)
        assert stats.graphs_checked == 2
        assert stats.tight_count == 1
        assert stats.min_slack == 0
        assert stats.tight_examples == (write_graph6(complete_graph(2)),)

    def test_n3(self):
        stats = sweep_all_graphs(3)
        assert stats.graphs_checked == 8
        assert stats.violations == 0
        assert stats.max_total_weight == Fraction(9, 4)

    def test_matches_exact_reports_up_to_5(self):
        # the scaled-integer hot path must agree with the Fraction path
        for n in range(6):
            stats = sweep_all_graphs(n)
            slacks = []
            totals = []
            for g in all_graphs(n):
                rep = weight_report(g)
                slacks.append(rep.slack)
                totals.append(rep.total)
            assert stats.graphs_checked == len(slacks)
            assert stats.min_slack == min(slacks)
            assert stats.max_total_weight == max(totals)
            assert stats.tight_count == sum(1 for s in slacks if s == 0)

    def test_job_count_does_not_change_results(self):
        assert sweep_all_graphs(5, jobs=1) == sweep_all_graphs(5, jobs=3)

    def test_jobs_clamped_to_cpu_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 3)
        assert sweep_all_graphs(5, jobs=10_000) == sweep_all_graphs(5, jobs=1)
        assert pool_sizes == [3]

    def test_pool_sized_to_shards(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
        # the graphs on vertices 1..2 of n = 3 form two classes, hence two one-class shards
        assert sweep_all_graphs(3, jobs=8) == sweep_all_graphs(3, jobs=1)
        assert pool_sizes == [2]

    def test_negative_tight_cap_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sweep_all_graphs(3, tight_cap=-1)

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"job count must be >= 1, got {jobs}"):
            sweep_all_graphs(3, jobs=jobs)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            sweep_all_graphs(8)

    def test_cap_can_be_raised(self):
        stats = sweep_all_graphs(3, cap=3)
        assert stats.graphs_checked == 8

    def test_n8(self):
        # 141 tight graphs: the labeled K_{4,4}, K_{2,2,2,2} and K_8 (35 + 105 + 1)
        stats = sweep_all_graphs(8, cap=8)
        assert stats.graphs_checked == 1 << 28
        assert stats.tight_count == 141
        assert stats.max_total_weight == 16 and stats.min_slack == 0

    @pytest.mark.parametrize("n", [10, 11, 10**6])
    def test_past_max_n_refused_before_allocating(self, monkeypatch, n):
        def no_table(k):
            raise AssertionError("orbit table built")

        monkeypatch.setattr(sweep_mod, "orbit_table", no_table)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^n={n} exceeds 9, the largest n the labeled "
                                                 f"sweep runs: .* isomorphism classes$"):
                sweep_all_graphs(n, cap=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_tight_cap_limits_examples(self):
        stats = sweep_all_graphs(4, tight_cap=2)
        assert len(stats.tight_examples) == 2
        assert stats.tight_count == 4

    def test_turan_graphs_appear_tight(self):
        # every divisible Turan graph must be among its sweep's tight graphs
        for n in range(2, 7):
            stats = sweep_all_graphs(n)
            divisible = [r for r in range(2, n + 1) if n % r == 0]
            assert stats.tight_count >= len(divisible) > 0
            for r in divisible:
                assert verify_theorem(turan_graph(n, r)) == 0


def shard_args(n, step, tight_cap=3):
    """The shards of an n-vertex sweep cut every ``step`` masks (None: one shard)."""
    total = 1 << (n * (n - 1) // 2)
    step = step or total
    return [(n, lo, min(lo + step, total), tight_cap) for lo in range(0, total, step)]


def inflate_all(table):
    return [2 * a for a in table]


def inflate_r2(table):
    # a heavier r = 2 weight: the first violating graphs are C_4, K_{2,3} and K_{3,3}, mid-block
    return [a + 2 * (r == 2) for r, a in enumerate(table)]


class TestBlockShard:
    """The vertex-0 block recurrence against the per-mask reference loop."""

    @pytest.mark.parametrize("step", [1, 3, 7, 64, 1000, None])
    @pytest.mark.parametrize("n", range(7))
    def test_every_split_matches_reference(self, n, step):
        for args in shard_args(n, step):
            assert sweep_mod._sweep_shard(args) == reference_sweep_shard(args), args

    @pytest.mark.parametrize("high", [0, 1, 2, 3, 777, 4096, 12345, 21845, 32766, 32767])
    def test_n7_blocks_match_reference(self, high):
        total = 1 << 21
        first = high << 6
        for lo, hi in [(first, first + 64), (first + 5, first + 37),
                       (first + 40, min(first + 137, total))]:
            args = (7, lo, hi, 3)
            assert sweep_mod._sweep_shard(args) == reference_sweep_shard(args), args

    @pytest.mark.parametrize("inflate", [inflate_all, inflate_r2])
    @pytest.mark.parametrize("step", [3, 7, 64, 1000, None])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_violation_stops_where_reference_does(self, monkeypatch, n, step, inflate):
        real = sweep_mod.scaled_weights

        def inflated(rs):
            scale, table = real(rs)
            return scale, inflate(table)

        monkeypatch.setattr(sweep_mod, "scaled_weights", inflated)
        results = [(sweep_mod._sweep_shard(args), reference_sweep_shard(args))
                   for args in shard_args(n, step)]
        assert all(new == ref for new, ref in results)
        assert any(new[4] is not None for new, _ in results)

    def test_unaligned_shards(self, monkeypatch, pool_sizes):
        # the 34 classes of the graphs on vertices 1..5 go to 17 shards of two, on 3 workers
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 3)
        assert sweep_all_graphs(6, jobs=3) == sweep_all_graphs(6, jobs=1)
        assert pool_sizes == [3]


def relabel(k, mask, perm):
    """The mask over mask_pairs(k) of the graph with each vertex v renamed perm[v]."""
    pairs = mask_pairs(k)
    index = {p: b for b, p in enumerate(pairs)}
    out = 0
    for b, (u, v) in enumerate(pairs):
        if mask >> b & 1:
            out |= 1 << index[tuple(sorted((perm[u], perm[v])))]
    return out


# OEIS A000088: graphs on k vertices up to isomorphism
A000088 = [1, 1, 2, 4, 11, 34, 156, 1044]


class TestOrbitTable:
    @pytest.mark.parametrize("k", range(7))
    def test_class_counts(self, k):
        assert len(sweep_mod.orbit_table(k).reps) == A000088[k]

    @pytest.mark.parametrize("k", range(7))
    def test_orbit_sizes(self, k):
        orbits = sweep_mod.orbit_table(k)
        assert sum(orbits.sizes) == 1 << (k * (k - 1) // 2) == len(orbits.labels)
        assert all(factorial(k) % size == 0 for size in orbits.sizes)
        for c, size in enumerate(orbits.sizes):
            assert orbits.labels.count(c) == size

    @pytest.mark.parametrize("k", range(2, 7))
    def test_labels_invariant_under_relabeling(self, k):
        orbits = sweep_mod.orbit_table(k)
        rng = random.Random(k)
        for _ in range(300):
            mask = rng.randrange(len(orbits.labels))
            perm = list(range(k))
            rng.shuffle(perm)
            assert orbits.labels[relabel(k, mask, perm)] == orbits.labels[mask]

    @pytest.mark.parametrize("k", range(6))
    def test_representative_is_least_member(self, k):
        orbits = sweep_mod.orbit_table(k)
        assert orbits.reps == sorted(orbits.reps)
        for c, rep in enumerate(orbits.reps):
            assert orbits.labels[rep] == c
            assert rep == min(relabel(k, rep, perm) for perm in permutations(range(k)))

    def test_plain_changes_reach_every_order(self):
        for k in range(7):
            order = list(range(k))
            seen = {tuple(order)}
            for i in sweep_mod._plain_changes(k):
                order[i], order[i + 1] = order[i + 1], order[i]
                seen.add(tuple(order))
            assert len(seen) == factorial(k) == len(sweep_mod._plain_changes(k)) + 1


def stats_from_one_shard(n, tight_cap):
    """The SweepStats of one whole-range _sweep_shard call, the labeled per-block path."""
    checked, tight, max_total, tight_masks, violation = sweep_mod._sweep_shard(
        (n, 0, 1 << (n * (n - 1) // 2), tight_cap))
    assert violation is None
    scale, _ = sweep_mod.scaled_weights(range(2, n + 1))
    return sweep_mod.SweepStats(
        n=n, graphs_checked=checked, violations=0,
        min_slack=Fraction(n * n, 4) - Fraction(max_total, scale), tight_count=tight,
        tight_examples=tuple(write_graph6(graph_from_mask(n, m)) for m in tight_masks),
        max_total_weight=Fraction(max_total, scale))


class TestClassSweepMatchesLabeledShard:
    """One block per class of H, counted by orbit size, against every labeled block."""

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("tight_cap", [0, 1, 3, 10])
    @pytest.mark.parametrize("n", range(7))
    def test_stats(self, monkeypatch, pool_sizes, n, tight_cap, jobs):
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 3)
        assert sweep_all_graphs(n, jobs=jobs, tight_cap=tight_cap) == stats_from_one_shard(
            n, tight_cap)

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("inflate", [inflate_all, inflate_r2])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_first_violation(self, monkeypatch, pool_sizes, n, inflate, jobs):
        real = sweep_mod.scaled_weights

        def inflated(rs):
            scale, table = real(rs)
            return scale, inflate(table)

        monkeypatch.setattr(sweep_mod, "scaled_weights", inflated)
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 3)
        violation = sweep_mod._sweep_shard((n, 0, 1 << (n * (n - 1) // 2), 0))[4]
        assert violation is not None
        g6 = write_graph6(graph_from_mask(n, violation))
        with pytest.raises(InvariantViolation) as info:
            sweep_all_graphs(n, jobs=jobs)
        assert str(info.value) == f"sweep total disagrees with weight_report on graph {g6}"


class TestFuzzRandom:
    def test_p_zero_all_empty(self):
        stats = fuzz_random(10, 0, 5, seed=99)
        assert stats.graphs_checked == 5
        assert stats.min_slack == 25 and stats.max_total_weight == 0
        assert stats.tight_count == 0

    def test_p_one_complete_tight(self):
        stats = fuzz_random(10, 1, 1, seed=1)
        assert stats.min_slack == 0 and stats.tight_count == 1
        assert stats.max_total_weight == 25

    def test_deterministic(self):
        a = fuzz_random(9, Fraction(1, 2), 20, seed=7)
        b = fuzz_random(9, Fraction(1, 2), 20, seed=7)
        assert a == b

    def test_chain_checked_below_cap(self):
        # n under the cap exercises the simplex-maximum chain check
        stats = fuzz_random(8, Fraction(1, 2), 10, seed=3)
        assert stats.violations == 0

    def test_large_n_skips_chain(self):
        stats = fuzz_random(20, Fraction(1, 3), 3, seed=5, lagrangian_cap=12)
        assert stats.graphs_checked == 3

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            fuzz_random(5, Fraction(1, 2), 0, seed=1)


class TestTuranBoundCampaign:
    def test_basic_run(self):
        stats = turan_bound_campaign(12, 3, 50, seed=1)
        assert stats.graphs_checked == 50
        assert stats.violations == 0
        assert stats.min_slack >= 0

    def test_full_turan_graph_equality(self):
        g = turan_graph(12, 3)
        assert g.edge_count() == 48
        assert Fraction(48) == (1 - Fraction(1, 3)) * Fraction(144, 2)
        assert turan_bound_check(g, 3)

    def test_deterministic(self):
        assert turan_bound_campaign(10, 2, 25, seed=4) == turan_bound_campaign(10, 2, 25, seed=4)

    def test_subgraph_edge_counts_bounded(self):
        stats = turan_bound_campaign(9, 3, 30, seed=11)
        base_edges = turan_graph(9, 3).edge_count()
        assert stats.max_total_weight <= base_edges

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            turan_bound_campaign(6, 1, 5, seed=0)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            turan_bound_campaign(6, 2, 0, seed=0)
