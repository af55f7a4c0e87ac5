import json
import random
import tracemalloc
from fractions import Fraction
from functools import cache
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
from turanweights.cli import _plain, main

from conftest import all_graphs, reference_sweep_shard


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

    def test_negative_tight_cap_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sweep_all_graphs(3, tight_cap=-1)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_tight_cap_past_tight_count(self, n):
        # a cap beyond sys.maxsize keeps every tight graph, as any cap at or past the count does
        every = sweep_all_graphs(n, tight_cap=sweep_all_graphs(n).tight_count)
        assert sweep_all_graphs(n, tight_cap=10**20) == every
        assert len(every.tight_examples) == every.tight_count

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


def inflate_all(table):
    return [2 * a for a in table]


def inflate_r2(table):
    # a heavier r = 2 weight: the first violating graphs are C_4, K_{2,3} and K_{3,3}, mid-block
    return [a + 2 * (r == 2) for r, a in enumerate(table)]


def inflate_weights(monkeypatch, inflate):
    """Patch the sweep's weight table, which reference_sweep_shard reads too."""
    real = sweep_mod.scaled_weights

    def inflated(rs):
        scale, table = real(rs)
        return scale, inflate(table)

    monkeypatch.setattr(sweep_mod, "scaled_weights", inflated)


def check_matches_reference(blocks, n, high, tight_cap):
    """The check of one whole block against the per-mask reference over it.

    A tight_cap of None keeps every tight mask of the block.
    """
    first = high << blocks.k
    size = 1 << blocks.k
    tight_cap = size if tight_cap is None else tight_cap
    result = blocks.check(high, tight_cap)
    checked, *ref = reference_sweep_shard((n, first, first + size, tight_cap))
    assert result == tuple(ref), (n, high, tight_cap)
    assert checked == (size if result[3] is None else result[3] - first)
    return result


class TestBlockShard:
    """The vertex-0 block recurrence, one whole block at a time, against the
    per-mask reference loop; the parameter after n is the tight cap."""

    @pytest.mark.parametrize("tight_cap", [0, 1, 3, 7, 64, 1000, None])
    @pytest.mark.parametrize("n", range(7))
    def test_every_split_matches_reference(self, n, tight_cap):
        blocks = sweep_mod._Blocks(n)
        for high in range(1 << len(blocks.pairs)):
            check_matches_reference(blocks, n, high, tight_cap)

    @pytest.mark.parametrize("high", [0, 1, 2, 3, 777, 4096, 12345, 21845, 32766, 32767])
    def test_n7_blocks_match_reference(self, high):
        blocks = sweep_mod._Blocks(7)
        for tight_cap in [0, 3, None]:
            check_matches_reference(blocks, 7, high, tight_cap)

    @pytest.mark.parametrize("inflate", [inflate_all, inflate_r2])
    @pytest.mark.parametrize("tight_cap", [3, 7, 64, 1000, None])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_violation_stops_where_reference_does(self, monkeypatch, n, tight_cap, inflate):
        inflate_weights(monkeypatch, inflate)
        blocks = sweep_mod._Blocks(n)
        results = [check_matches_reference(blocks, n, high, tight_cap)
                   for high in range(1 << len(blocks.pairs))]
        assert any(violation is not None for *_, violation in results)


class TestGraphFromMask:
    def test_extreme_masks(self):
        assert graph_from_mask(3, 0).edge_count() == 0
        assert graph_from_mask(3, 7) == complete_graph(3)
        assert graph_from_mask(0, 0).n == 0

    @pytest.mark.parametrize("n, mask", [(3, 8), (3, -1), (0, 1), (1, 1), (4, 1 << 6)])
    def test_out_of_range_rejected(self, n, mask):
        with pytest.raises(ValueError, match=rf"^mask {mask} is out of range for n={n}: "):
            graph_from_mask(n, mask)


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


def range_masks(n):
    return 1 << (n * (n - 1) // 2)


@cache
def reference_stats(n, tight_cap):
    """The SweepStats of the per-mask reference loop over every labeled graph on n vertices."""
    checked, tight, max_total, tight_masks, violation = reference_sweep_shard(
        (n, 0, range_masks(n), tight_cap))
    assert violation is None
    scale, _ = sweep_mod.scaled_weights(range(2, n + 1))
    return sweep_mod.SweepStats(
        n=n, graphs_checked=checked, violations=0,
        min_slack=Fraction(n * n, 4) - Fraction(max_total, scale), tight_count=tight,
        tight_examples=tuple(write_graph6(graph_from_mask(n, m)) for m in tight_masks),
        max_total_weight=Fraction(max_total, scale))


class TestClassSweepMatchesLabeledShard:
    """One block per class of H, counted by orbit size, against the per-mask
    reference over every labeled graph; ``jobs`` is the CLI's --jobs, which
    the one-process sweep accepts and ignores."""

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("tight_cap", [0, 1, 3, 10])
    @pytest.mark.parametrize("n", range(7))
    def test_stats(self, capsys, n, tight_cap, jobs):
        expected = reference_stats(n, tight_cap)
        assert sweep_all_graphs(n, tight_cap=tight_cap) == expected
        argv = ["sweep", "--n", str(n), "--tight-cap", str(tight_cap), "--jobs", str(jobs)]
        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["stats"] == _plain(expected)

    @pytest.mark.parametrize("tight_cap", [0, 1, 3, 10, 1000])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_tight_examples(self, n, tight_cap):
        # the reference's first 1000 tight graphs, cut to tight_cap, are its first
        # tight_cap; at n = 7 the one tight graph, K_7, is the last mask
        expected = reference_stats(n, 1000).tight_examples[:tight_cap]
        assert sweep_all_graphs(n, tight_cap=tight_cap).tight_examples == expected

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("inflate", [inflate_all, inflate_r2])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_first_violation(self, monkeypatch, capsys, n, inflate, jobs):
        inflate_weights(monkeypatch, inflate)
        violation = reference_sweep_shard((n, 0, range_masks(n), 0))[4]
        assert violation is not None
        message = ("sweep total disagrees with weight_report on graph "
                   + write_graph6(graph_from_mask(n, violation)))
        with pytest.raises(InvariantViolation) as info:
            sweep_all_graphs(n)
        assert str(info.value) == message
        assert main(["sweep", "--n", str(n), "--jobs", str(jobs), "--format", "json"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"] == message


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
