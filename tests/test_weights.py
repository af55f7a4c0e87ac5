from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanweights import (
    TheoremViolation,
    complete_graph,
    cycle_graph,
    edge_weight,
    empty_graph,
    graph_from_mask,
    turan_bound_check,
    turan_graph,
    weight_report,
)
import turanweights.weights as weights_mod
from turanweights.cliques import edge_clique_numbers
from turanweights.weights import scaled_weights

from conftest import all_graphs


class TestEdgeWeight:
    @pytest.mark.parametrize("r,expected", [(2, Fraction(1)), (3, Fraction(3, 4)), (4, Fraction(2, 3))])
    def test_values(self, r, expected):
        assert edge_weight(r) == expected

    def test_requires_r_at_least_two(self):
        with pytest.raises(ValueError):
            edge_weight(1)

    def test_strictly_decreasing_in_range(self):
        values = [edge_weight(r) for r in range(2, 42)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(Fraction(1, 2) < w <= 1 for w in values)
        assert values[0] == 1 and all(w < 1 for w in values[1:])

    def test_quarter_identity(self):
        # the algebraic step behind the final bound: w(r)/2 * (1 - 1/r) = 1/4
        for r in range(2, 42):
            assert edge_weight(r) / 2 * (1 - Fraction(1, r)) == Fraction(1, 4)

    def test_scaled_table_agrees(self):
        for n in range(2, 17):
            scale, table = scaled_weights(range(2, n + 1))
            assert len(table) == n + 1
            for r in range(2, n + 1):
                assert type(table[r]) is int and table[r] == scale * edge_weight(r)

    def test_scale_is_lcm_of_weights_given(self):
        assert scaled_weights(range(2, 8)) == (120, [0, 0, 120, 90, 80, 75, 72, 70])
        # 3/4 and 5/8: weights of r not given read 0
        assert scaled_weights([5, 3, 5]) == (8, [0, 0, 0, 6, 0, 5])
        assert scaled_weights([]) == (1, [0, 0])


class TestWeightReport:
    def test_triangle(self):
        rep = weight_report(complete_graph(3))
        assert [(r.r, r.w) for r in rep.records] == [(3, Fraction(3, 4))] * 3
        assert rep.total == Fraction(9, 4)
        assert rep.bound == Fraction(9, 4)
        assert rep.slack == 0 and rep.tight

    def test_cycle5(self):
        rep = weight_report(cycle_graph(5))
        assert all(r.r == 2 and r.w == 1 for r in rep.records)
        assert rep.total == 5
        assert rep.slack == Fraction(5, 4)

    def test_k4_minus_edge(self, k4_minus_edge):
        rep = weight_report(k4_minus_edge)
        assert len(rep.records) == 5
        assert all(r.r == 3 for r in rep.records)
        assert rep.total == Fraction(15, 4)
        assert rep.bound == 4 and rep.slack == Fraction(1, 4)

    def test_records_in_edge_order(self, k4_minus_edge):
        rep = weight_report(k4_minus_edge)
        assert [(r.u, r.v) for r in rep.records] == list(k4_minus_edge.edges())

    @pytest.mark.parametrize("n", range(6))
    def test_rs_are_edge_clique_numbers(self, n):
        for g in all_graphs(n):
            rep = weight_report(g)
            assert rep.rs == tuple(edge_clique_numbers(g.adj))
            assert len(rep.rs) == g.edge_count()
            assert [rec.r for rec in rep.records] == list(rep.rs)


class TestVerifyTheorem:
    def test_empty_graph(self):
        assert weight_report(empty_graph(9)).slack == Fraction(81, 4)

    def test_k6_tight(self):
        assert weight_report(complete_graph(6)).slack == 0

    def test_turan_12_4_tight(self):
        assert weight_report(turan_graph(12, 4)).slack == 0

    def test_all_graphs_up_to_5(self):
        for n in range(6):
            for g in all_graphs(n):
                assert weight_report(g).slack >= 0

    @pytest.mark.parametrize("n", range(17))
    def test_complete_graphs_tight(self, n):
        # every edge of K_n lies in the full clique: total = C(n,2) * n/(2(n-1)) = n^2/4
        if n >= 2:
            assert weight_report(complete_graph(n)).slack == 0

    def test_tightness_family_divisible_parts(self):
        for n in range(17):
            for r in range(2, n + 1):
                if n % r == 0:
                    assert weight_report(turan_graph(n, r)).slack == 0, (n, r)

    def test_turan_one_part_not_tight(self):
        # a single part has no edges, so the slack is the full bound
        assert weight_report(turan_graph(6, 1)).slack == Fraction(9)

    def test_violation_carries_report(self):
        with pytest.raises(TheoremViolation) as info:
            raise TheoremViolation("boom", weight_report(complete_graph(3)))
        assert info.value.report.total == Fraction(9, 4)


class TestTuranBoundCheck:
    def test_cycle5(self):
        assert turan_bound_check(cycle_graph(5), 2)

    def test_turan_8_2_equality(self):
        g = turan_graph(8, 2)
        assert g.edge_count() == 16
        assert Fraction(g.edge_count()) == (1 - Fraction(1, 2)) * Fraction(64, 2)
        assert turan_bound_check(g, 2)

    def test_turan_6_3_equality(self):
        g = turan_graph(6, 3)
        assert Fraction(g.edge_count()) == (1 - Fraction(1, 3)) * Fraction(36, 2)
        assert turan_bound_check(g, 3)

    def test_precondition_rejects_big_clique(self):
        with pytest.raises(ValueError):
            turan_bound_check(complete_graph(4), 3)

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            turan_bound_check(empty_graph(3), 1)

    def test_all_small_triangle_free_graphs(self):
        from turanweights import max_clique_size

        for g in all_graphs(5):
            if max_clique_size(g) <= 2:
                assert turan_bound_check(g, 2)


@given(st.integers(0, 7), st.data())
@settings(max_examples=120, deadline=None)
def test_slack_never_negative(n, data):
    mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    assert weight_report(graph_from_mask(n, mask)).slack >= 0


def test_weight_report_raises_over_bound(monkeypatch):
    real = weights_mod.edge_weight
    monkeypatch.setattr(weights_mod, "edge_weight", lambda r: 2 * real(r))
    with pytest.raises(TheoremViolation, match="^total weight 8 exceeds bound 4 on graph C~$") as info:
        weight_report(complete_graph(4)).slack
    assert info.value.report.slack == -4
