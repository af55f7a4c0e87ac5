"""Acceptance suite: each test checks one headline criterion exactly and
prints one PASS/FAIL line (run with  pytest tests/test_acceptance.py -v -s).

Everything here is exact rational arithmetic; no tolerance appears anywhere
except the stated 1/20 gap bound of the grid-oracle criterion.
"""

import contextlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from turanweights import (
    SimplexPoint,
    SplitMix64,
    WeightScheme,
    complete_graph,
    edge_clique_number,
    enumerate_cliques,
    grid_oracle,
    lagrangian_maximum,
    max_clique_size,
    objective_value,
    random_gnp,
    support_reduce,
    turan_bound_campaign,
    turan_bound_check,
    turan_graph,
    weight_report,
    write_graph6,
)

from conftest import (
    all_graphs,
    brute_clique_masks,
    brute_edge_clique_number,
    brute_max_clique,
    mask_of,
    motzkin_straus_value,
    random_rational_point,
    ref_side,
    ref_weights,
    support_of,
)

CLIQUE = WeightScheme.clique_weighted()
CONST1 = WeightScheme.constant(1)
QUARTER = Fraction(1, 4)


@contextlib.contextmanager
def criterion(num, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description} [{time.time() - start:.1f}s]")


def run_cli_process(argv, stdin_bytes=b""):
    proc = subprocess.run(
        [sys.executable, "-m", "turanweights", *argv],
        input=stdin_bytes, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def parse_rational(text):
    return Fraction(text)


def test_criterion_1_exhaustive_sweep_n7():
    with criterion(1, "sweep --n 7 checks all 2,097,152 graphs with zero violations"):
        jobs = str(min(4, os.cpu_count() or 1))
        code, out, err = run_cli_process(
            ["sweep", "--n", "7", "--jobs", jobs, "--format", "json"])
        assert code == 0, err.decode()
        stats = json.loads(out)["stats"]
        assert stats["graphs_checked"] == 2_097_152
        assert stats["violations"] == 0
        assert parse_rational(stats["min_slack"]) >= 0
        assert parse_rational(stats["max_total_weight"]) <= Fraction(49, 4)
        # the only divisible Turan graph on 7 vertices is K_7; it must be tight
        assert write_graph6(complete_graph(7)) in stats["tight_examples"]


def test_criterion_2_tightness_families():
    with criterion(2, "slack is exactly 0 for T(n,r) with r | n and for K_n, n <= 16"):
        for n in range(17):
            for r in range(2, n + 1):
                if n % r == 0:
                    assert weight_report(turan_graph(n, r)).slack == 0, (n, r)
        for n in range(2, 17):
            assert weight_report(complete_graph(n)).slack == 0, n


def test_criterion_3_lagrangian_cap_and_chain():
    with criterion(3, "W/n^2 <= m <= 1/4 on all graphs with n <= 6; m(K_n) = 1/4"):
        for n in range(7):
            for g in all_graphs(n):
                outcome = lagrangian_maximum(g, CLIQUE)
                m = outcome.maximum
                if n == 0:
                    assert m == 0
                    continue
                uniform_value = Fraction(weight_report(g).total, n * n)
                assert uniform_value <= m <= QUARTER
                # the sharp value: uniform mass on a maximum clique attains 1/4
                assert m == (QUARTER if g.edge_count() else 0)
        for n in range(2, 11):
            assert lagrangian_maximum(complete_graph(n), CLIQUE).maximum == QUARTER, n


def test_criterion_4_motzkin_straus_equivalence():
    with criterion(4, "constant-mode maximum equals (1 - 1/omega)/2 on all n <= 6"):
        for n in range(7):
            for g in all_graphs(n):
                assert lagrangian_maximum(g, CONST1).maximum == motzkin_straus_value(g)


def test_criterion_5_grid_oracle_consistency():
    with criterion(5, "grid_oracle(40) <= m and m - grid_oracle(40) <= 1/20 on all n <= 5"):
        gap_cap = Fraction(1, 20)
        for n in range(6):
            for g in all_graphs(n):
                m = lagrangian_maximum(g, CLIQUE).maximum
                lower = grid_oracle(g, CLIQUE, 40)
                assert lower <= m
                assert m - lower <= gap_cap


def test_criterion_6_support_reduction_properties():
    with criterion(6, "1000 seeded G(30,1/2) reductions satisfy the exact shift identity"):
        master = SplitMix64(2026)
        for trial in range(1000):
            g = random_gnp(30, Fraction(1, 2), master.next64())
            start = SimplexPoint(random_rational_point(30, master.next64()))
            final, trace = support_reduce(g, CLIQUE, start)
            assert len(trace) <= 29
            wdict = ref_weights(g, CLIQUE)
            prev = start
            prev_support = len(support_of(start))
            for step in trace:
                x_j = prev[step.j]
                assert not g.has_edge(step.i, step.j)
                assert x_j > 0 and prev[step.i] > 0
                assert step.s_i == ref_side(wdict, prev, step.i)
                assert step.s_j == ref_side(wdict, prev, step.j)
                assert step.f_before == objective_value(g, CLIQUE, prev)
                gain = x_j * (step.s_i - step.s_j)
                assert step.f_after - step.f_before == gain
                assert gain >= 0
                assert len(support_of(step.point_after)) == prev_support - 1
                prev = step.point_after
                prev_support -= 1
            assert final == prev
            if trace:
                assert trace[-1].f_after == objective_value(g, CLIQUE, final)
            support = support_of(final)
            for a_idx in range(len(support)):
                for b_idx in range(a_idx + 1, len(support)):
                    assert g.has_edge(support[a_idx], support[b_idx])


def test_criterion_7_turan_corollary():
    with criterion(7, "campaign(12,3,100) passes and T(12,3) attains 48 = (1-1/3)144/2"):
        stats = turan_bound_campaign(12, 3, 100, seed=1)
        assert stats.graphs_checked == 100
        assert stats.violations == 0
        assert stats.min_slack >= 0
        base = turan_graph(12, 3)
        assert base.edge_count() == 48
        assert Fraction(48) == (1 - Fraction(1, 3)) * Fraction(144, 2)
        assert turan_bound_check(base, 3)


def test_criterion_8_clique_engine_oracle():
    with criterion(8, "clique engine matches the all-subsets oracle on every n <= 6 graph"):
        for n in range(7):
            for g in all_graphs(n):
                expected_masks = set(brute_clique_masks(g))
                assert max_clique_size(g) == brute_max_clique(g)
                got_masks = {mask_of(c) for c in enumerate_cliques(g)}
                assert got_masks == expected_masks
                for u, v in g.edges():
                    assert edge_clique_number(g, u, v) == brute_edge_clique_number(g, u, v)


def test_criterion_9_cli_determinism():
    with criterion(9, "every CLI command is byte-identical across runs and job counts"):
        c5 = b"Dhc\n"
        k4e = b"4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n"
        fixed = [
            (["gen", "gnp", "12", "1/3", "--seed", "9"], b""),
            (["gen", "turan", "10", "4"], b""),
            (["weights", "--format", "json"], k4e),
            (["verify", "--format", "tsv"], k4e),
            (["lagrangian", "--format", "json"], c5),
            (["lagrangian", "--mode", "constant:1", "--format", "json"], c5),
            (["reduce", "--start", "uniform", "--format", "json"], k4e),
            (["oracle", "--grid", "12", "--format", "json"], c5),
            (["fuzz", "--n", "8", "--p", "1/2", "--count", "5", "--seed", "3",
              "--format", "json"], b""),
            (["campaign", "--n", "9", "--r", "3", "--count", "10", "--seed", "4",
              "--format", "json"], b""),
        ]
        for argv, stdin_bytes in fixed:
            first = run_cli_process(argv, stdin_bytes)
            second = run_cli_process(argv, stdin_bytes)
            assert first == second, argv
            assert first[0] == 0, argv
        # sweep output must not depend on the worker count
        single = run_cli_process(["sweep", "--n", "5", "--jobs", "1", "--format", "json"])
        quad = run_cli_process(["sweep", "--n", "5", "--jobs", "4", "--format", "json"])
        rerun = run_cli_process(["sweep", "--n", "5", "--jobs", "4", "--format", "json"])
        assert single == quad == rerun
        assert single[0] == 0
