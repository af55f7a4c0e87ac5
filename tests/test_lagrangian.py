from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turanweights import (
    CliqueSet,
    SimplexPoint,
    SplitMix64,
    WeightScheme,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edge_list,
    graph_from_mask,
    grid_oracle,
    lagrangian_maximum,
    objective_value,
    random_gnp,
    support_reduce,
    turan_graph,
    weight_report,
    write_graph6,
)
import turanweights.lagrangian as lagrangian_mod
from turanweights.cli import main
from turanweights.cliques import enumerate_cliques
from turanweights.lagrangian import (
    STATUS_INTERIOR,
    STATUS_NO_POSITIVE,
    STATUS_SINGULAR,
    _clique_stationary,
    _common_denominator,
    _edge_weights,
    _side,
    _weight_matrix,
)
from turanweights.weights import clique_numbers

from conftest import (
    _solve_clique_stationary,
    all_graphs,
    brute_grid_maximum,
    motzkin_straus_value,
    naive_solve,
    random_rational_point,
    ref_side,
    ref_weights,
    reference_lagrangian_maximum,
    support_of,
)

CLIQUE = WeightScheme.clique_weighted()
CONST1 = WeightScheme.constant(1)
GRID_SCHEMES = [CLIQUE, WeightScheme.constant(Fraction(5, 7)),
                WeightScheme.constant(Fraction(2**60, 3))]


def p3():
    return from_edge_list(3, [(0, 1), (1, 2)])


def graphs_strategy(max_n=6):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            graph_from_mask,
            st.just(n),
            st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
        )
    )


def points_strategy(n):
    if n == 0:
        return st.just(SimplexPoint(()))
    return st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(
        lambda ks: sum(ks) > 0
    ).map(lambda ks: SimplexPoint(tuple(Fraction(k, sum(ks)) for k in ks)))


# --- slow references: the Fraction implementations the integer core replaced --


def ref_stationary(wdict, clique):
    """Fraction-row stationary system, solved by plain Gaussian elimination."""
    k = len(clique)
    rows = []
    for i in clique:
        rows.append([wdict[(min(i, j), max(i, j))] if j != i else Fraction(0) for j in clique]
                    + [Fraction(-1)])
    rows.append([Fraction(1)] * k + [Fraction(0)])
    sol = naive_solve(rows, [Fraction(0)] * k + [Fraction(1)])
    if sol is None:
        return STATUS_SINGULAR, None, None
    xs, lam = sol[:k], sol[k]
    if all(xv > 0 for xv in xs):
        return STATUS_INTERIOR, lam / 2, xs
    return STATUS_NO_POSITIVE, None, None


def ref_objective(wdict, coords):
    total = Fraction(0)
    for (u, v), w in wdict.items():
        total += w * coords[u] * coords[v]
    return total


def core_side_sum(g, scheme, x, i):
    """The weighted neighbor sum at i as support_reduce computes it: _side on
    the scaled weight matrix and the point over its common denominator."""
    scale, edges = _edge_weights(g, scheme)
    den, xs = _common_denominator(x)
    return Fraction(_side(_weight_matrix(g.n, edges), xs, i), scale * den)


def ref_support_reduce(g, wdict, coords):
    """Mass-shift trace as (i, j, s_i, s_j, f_before, f_after, coords_after) tuples."""
    coords = list(coords)
    steps = []
    f_before = ref_objective(wdict, coords)
    while True:
        pair = next(((a, b) for a in range(g.n) for b in range(a + 1, g.n)
                     if coords[a] and coords[b] and not g.has_edge(a, b)), None)
        if pair is None:
            return steps
        a, b = pair
        s_a, s_b = ref_side(wdict, coords, a), ref_side(wdict, coords, b)
        i, j = (a, b) if s_a >= s_b else (b, a)
        s_i, s_j = max(s_a, s_b), min(s_a, s_b)
        coords[i] += coords[j]
        coords[j] = Fraction(0)
        f_after = ref_objective(wdict, coords)
        steps.append((i, j, s_i, s_j, f_before, f_after, tuple(coords)))
        f_before = f_after


def rational_points_strategy(n):
    """Points whose coordinates carry unrelated denominators before normalizing."""
    if n == 0:
        return st.just(SimplexPoint(()))
    parts = st.lists(st.fractions(min_value=0, max_value=5, max_denominator=40),
                     min_size=n, max_size=n).filter(lambda xs: sum(xs) > 0)
    return parts.map(lambda xs: SimplexPoint(tuple(x / sum(xs) for x in xs)))


class TestWeightScheme:
    def test_modes(self):
        assert CLIQUE.mode == "clique"
        assert WeightScheme.constant(Fraction(3, 2)).c == Fraction(3, 2)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            WeightScheme("exotic")

    def test_nonpositive_constant(self):
        with pytest.raises(ValueError):
            WeightScheme.constant(0)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            WeightScheme.constant(0.5)

    def test_weight_map_clique_mode(self, k4_minus_edge):
        scale, edges = _edge_weights(k4_minus_edge, CLIQUE)
        wm = {(u, v): Fraction(a, scale) for u, v, a in edges}
        assert wm == {e: Fraction(3, 4) for e in k4_minus_edge.edges()}
        assert wm == ref_weights(k4_minus_edge, CLIQUE)

    def test_weight_map_constant_mode(self):
        scale, edges = _edge_weights(cycle_graph(5), WeightScheme.constant(Fraction(2, 7)))
        wm = {(u, v): Fraction(a, scale) for u, v, a in edges}
        assert set(wm.values()) == {Fraction(2, 7)} and len(wm) == 5


class TestSimplexPoint:
    def test_uniform(self):
        assert tuple(SimplexPoint.uniform(4)) == (Fraction(1, 4),) * 4

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            SimplexPoint((Fraction(1, 2), Fraction(1, 3)))

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            SimplexPoint((Fraction(3, 2), Fraction(-1, 2)))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            SimplexPoint((0.5, 0.5))

    def test_empty_point_allowed(self):
        assert tuple(SimplexPoint(())) == ()

    def test_support(self):
        x = SimplexPoint((Fraction(1, 2), Fraction(0), Fraction(1, 2)))
        assert x.support_mask() == 0b101

    @pytest.mark.parametrize("coords", [(), (1,), (0, 1), (1, 0), (0, 0, 1, 0),
                                        (Fraction(1, 4), 0, 0, Fraction(3, 4), 0)])
    def test_support_matches_bitwise_or(self, coords):
        x = SimplexPoint(coords)
        assert x.support_mask() == sum(1 << i for i, c in enumerate(x) if c > 0)

    def test_integer_coercion(self):
        assert tuple(SimplexPoint((1, 0))) == (Fraction(1), Fraction(0))


class TestObjective:
    def test_single_edge_midpoint(self):
        x = SimplexPoint((Fraction(1, 2), Fraction(1, 2)))
        assert objective_value(complete_graph(2), CLIQUE, x) == Fraction(1, 4)

    def test_triangle_uniform(self):
        assert objective_value(complete_graph(3), CLIQUE, SimplexPoint.uniform(3)) == Fraction(1, 4)

    def test_path_uniform(self):
        assert objective_value(p3(), CLIQUE, SimplexPoint.uniform(3)) == Fraction(2, 9)

    def test_edgeless_is_zero(self):
        assert objective_value(empty_graph(4), CLIQUE, SimplexPoint.uniform(4)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective_value(complete_graph(3), CLIQUE, SimplexPoint.uniform(4))


class TestSideSum:
    def test_path_center(self):
        assert core_side_sum(p3(), CLIQUE, SimplexPoint.uniform(3), 1) == Fraction(2, 3)

    def test_isolated_vertex(self):
        g = from_edge_list(3, [(0, 1)])
        assert core_side_sum(g, CLIQUE, SimplexPoint.uniform(3), 2) == 0

    def test_k2_corner(self):
        x = SimplexPoint((Fraction(1), Fraction(0)))
        assert core_side_sum(complete_graph(2), CLIQUE, x, 1) == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            core_side_sum(p3(), CLIQUE, SimplexPoint.uniform(3), 3)

    @given(graphs_strategy(5).flatmap(
        lambda g: st.tuples(st.just(g), points_strategy(g.n))),
        st.sampled_from(["clique", "constant"]))
    @settings(max_examples=120, deadline=None)
    def test_weighted_handshake_identity(self, graph_point, mode):
        # sum_i x_i s_i counts every edge's contribution twice: it equals 2f
        g, x = graph_point
        scheme = CLIQUE if mode == "clique" else WeightScheme.constant(Fraction(5, 3))
        total = sum((x[i] * core_side_sum(g, scheme, x, i) for i in range(g.n)), Fraction(0))
        assert total == 2 * objective_value(g, scheme, x)


class TestSupportReduce:
    def test_path_uniform_tie_to_lower_index(self):
        final, trace = support_reduce(p3(), CLIQUE, SimplexPoint.uniform(3))
        assert tuple(final) == (Fraction(2, 3), Fraction(1, 3), Fraction(0))
        assert len(trace) == 1
        step = trace[0]
        assert (step.i, step.j) == (0, 2)
        assert step.s_i == step.s_j == Fraction(1, 3)
        assert step.f_before == step.f_after == Fraction(2, 9)

    def test_clique_supported_point_unchanged(self):
        x = SimplexPoint((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        final, trace = support_reduce(complete_graph(3), CLIQUE, x)
        assert final == x and len(trace) == 0

    def test_edgeless_collapses_to_first_vertex(self):
        final, trace = support_reduce(empty_graph(3), CLIQUE, SimplexPoint.uniform(3))
        assert tuple(final) == (Fraction(1), Fraction(0), Fraction(0))
        assert len(trace) == 2
        assert all(s.f_before == 0 and s.f_after == 0 for s in trace)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            support_reduce(p3(), CLIQUE, SimplexPoint.uniform(4))

    def test_trace_cap_counts_the_steps_taken(self, monkeypatch):
        # steps * n coordinates: the edgeless 3-vertex graph takes 2 steps, 6 coordinates
        monkeypatch.setattr(lagrangian_mod, "REDUCE_COORDINATE_CAP", 6)
        assert len(support_reduce(empty_graph(3), CLIQUE, SimplexPoint.uniform(3))[1]) == 2
        monkeypatch.setattr(lagrangian_mod, "REDUCE_COORDINATE_CAP", 5)
        with pytest.raises(ValueError, match="^support reduction on 3 vertices exceeds the cap "
                                             "of 5 point coordinates at step 2$"):
            support_reduce(empty_graph(3), CLIQUE, SimplexPoint.uniform(3))
        # a start whose support is already a clique takes no step, so no cap refuses it
        monkeypatch.setattr(lagrangian_mod, "REDUCE_COORDINATE_CAP", 0)
        final, trace = support_reduce(complete_graph(3), CLIQUE, SimplexPoint.uniform(3))
        assert final == SimplexPoint.uniform(3) and trace == ()

    @given(graphs_strategy(6).flatmap(
        lambda g: st.tuples(st.just(g), points_strategy(g.n))),
        st.sampled_from(["clique", "constant"]))
    @settings(max_examples=100, deadline=None)
    def test_trace_invariants(self, graph_point, mode):
        g, x = graph_point
        scheme = CLIQUE if mode == "clique" else CONST1
        final, trace = support_reduce(g, scheme, x)
        assert len(trace) <= max(g.n - 1, 0)
        prev_point = x
        prev_support = len(support_of(x))
        wdict = ref_weights(g, scheme)
        for step in trace:
            # the shift identity, with every term recomputed independently
            assert step.s_i == ref_side(wdict, prev_point, step.i)
            assert step.s_j == ref_side(wdict, prev_point, step.j)
            assert step.s_i >= step.s_j
            assert not g.has_edge(step.i, step.j)
            assert step.f_before == objective_value(g, scheme, prev_point)
            assert step.f_after == objective_value(g, scheme, step.point_after)
            gain = prev_point[step.j] * (step.s_i - step.s_j)
            assert step.f_after - step.f_before == gain >= 0
            assert len(support_of(step.point_after)) == prev_support - 1
            prev_point = step.point_after
            prev_support -= 1
        assert final == prev_point
        # final support induces a clique
        support = support_of(final)
        for a_idx in range(len(support)):
            for b_idx in range(a_idx + 1, len(support)):
                assert g.has_edge(support[a_idx], support[b_idx])

    def test_monotone_on_seeded_random_graph(self):
        from turanweights import random_gnp

        g = random_gnp(12, Fraction(1, 2), 5)
        x = SimplexPoint(random_rational_point(12, 17))
        final, trace = support_reduce(g, CLIQUE, x)
        values = [trace[0].f_before] + [s.f_after for s in trace]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestLagrangianMaximum:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graphs_quarter(self, n):
        out = lagrangian_maximum(complete_graph(n), CLIQUE)
        assert out.maximum == Fraction(1, 4)

    def test_empty_graphs_zero(self):
        for n in range(4):
            assert lagrangian_maximum(empty_graph(n), CLIQUE).maximum == 0

    def test_cycle5_constant_matches_closed_form(self):
        out = lagrangian_maximum(cycle_graph(5), CONST1)
        assert out.maximum == Fraction(1, 4) == motzkin_straus_value(cycle_graph(5))

    def test_witness_attains_maximum(self):
        for g in [cycle_graph(5), complete_graph(4), p3()]:
            for scheme in (CLIQUE, CONST1):
                out = lagrangian_maximum(g, scheme)
                assert objective_value(g, scheme, out.witness) == out.maximum
                assert support_of(out.witness) == tuple(out.support)

    def test_maximum_dominates_candidates(self):
        for g in all_graphs(4):
            out = lagrangian_maximum(g, CLIQUE)
            for cand in out.candidates:
                if cand.value is not None:
                    assert cand.value <= out.maximum

    def test_candidate_ledger_order_and_singletons(self):
        out = lagrangian_maximum(p3(), CLIQUE)
        cliques = [tuple(c.clique) for c in out.candidates]
        assert cliques == [(0,), (0, 1), (1,), (1, 2), (2,)]
        for c in out.candidates:
            if len(c.clique) == 1:
                assert c.status == STATUS_INTERIOR and c.value == 0

    def test_constant_mode_equals_closed_form_small(self):
        for n in range(5):
            for g in all_graphs(n):
                assert lagrangian_maximum(g, CONST1).maximum == motzkin_straus_value(g)

    def test_clique_mode_sharp_value_small(self):
        # uniform mass on a maximum clique always attains exactly 1/4
        for n in range(5):
            for g in all_graphs(n):
                out = lagrangian_maximum(g, CLIQUE)
                if g.edge_count():
                    assert out.maximum == Fraction(1, 4)
                else:
                    assert out.maximum == 0

    def test_chain_small(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                out = lagrangian_maximum(g, CLIQUE)
                uniform_value = Fraction(weight_report(g).total, n * n)
                assert uniform_value <= out.maximum <= Fraction(1, 4)

    def test_chain_lower_end_is_the_weight_report_total(self):
        # lagrangian_maximum takes U = sum(a) / (scale n^2) from its own weight
        # table; it is the total that weight_report checks, over n^2
        rng = SplitMix64(53)
        for _ in range(60):
            n = 1 + rng.below(16)
            g = random_gnp(n, Fraction(1 + rng.below(9), 10), rng.next64())
            scale, edges = _edge_weights(g, CLIQUE)
            assert Fraction(sum(a for _, _, a in edges), scale * n * n) == \
                weight_report(g).total / (n * n)

    def test_constant_scale_linearity(self):
        two = WeightScheme.constant(2)
        for n in range(5):
            for g in all_graphs(n):
                assert lagrangian_maximum(g, two).maximum == 2 * lagrangian_maximum(g, CONST1).maximum

    def test_null_graph(self):
        out = lagrangian_maximum(empty_graph(0), CLIQUE)
        assert out.maximum == 0 and tuple(out.support) == () and out.candidates == ()

    def test_candidate_cap(self, monkeypatch):
        k5 = complete_graph(5)  # 31 cliques
        monkeypatch.setattr(lagrangian_mod, "DEFAULT_CANDIDATE_CAP", 31)
        assert len(lagrangian_maximum(k5, CLIQUE).candidates) == 31
        monkeypatch.setattr(lagrangian_mod, "DEFAULT_CANDIDATE_CAP", 30)
        with pytest.raises(ValueError, match="cliques exceed the cap of 30"):
            lagrangian_maximum(k5, CLIQUE)


class TestStationarySolver:
    def test_singleton(self):
        status, value, coords = _solve_clique_stationary({}, (0,))
        assert status == STATUS_INTERIOR and value == 0 and coords == [Fraction(1)]

    def test_edge_splits_evenly(self):
        wdict = {(0, 1): Fraction(3, 4)}
        status, value, coords = _solve_clique_stationary(wdict, (0, 1))
        assert status == STATUS_INTERIOR
        assert coords == [Fraction(1, 2), Fraction(1, 2)]
        assert value == Fraction(3, 16)  # w/4

    def test_singular_triangle_skipped(self):
        # det of the bordered system vanishes iff c = (sqrt(a) +- sqrt(b))^2;
        # (a, b, c) = (1, 1, 4) hits that with rational weights
        wdict = {(0, 1): Fraction(1), (0, 2): Fraction(1), (1, 2): Fraction(4)}
        status, value, coords = _solve_clique_stationary(wdict, (0, 1, 2))
        assert status == STATUS_SINGULAR and value is None

    def test_boundary_solution_rejected(self):
        # (a, b, c) = (2, 1, 1) has the unique stationary point (1/2, 1/2, 0)
        wdict = {(0, 1): Fraction(2), (0, 2): Fraction(1), (1, 2): Fraction(1)}
        status, value, coords = _solve_clique_stationary(wdict, (0, 1, 2))
        assert status == STATUS_NO_POSITIVE and value is None

    def test_uneven_triangle_interior(self):
        wdict = {(0, 1): Fraction(3, 4), (0, 2): Fraction(3, 4), (1, 2): Fraction(2, 3)}
        status, value, coords = _solve_clique_stationary(wdict, (0, 1, 2))
        assert status == STATUS_INTERIOR
        assert sum(coords) == 1 and all(c > 0 for c in coords)
        # by symmetry of the two 3/4 edges, x1 == x2
        assert coords[1] == coords[2]


class TestIntegerCoreMatchesReference:
    def test_stationary_on_every_clique_up_to_6(self):
        # every (graph, clique) pair is compared; each side is computed once
        # per distinct input, since a solve reads only the clique's weights
        rng = SplitMix64(6)
        c = Fraction(1 + rng.below(97), 1 + rng.below(97))
        for scheme in (CLIQUE, WeightScheme.constant(c)):
            fast, slow = {}, {}
            for n in range(7):
                for g in all_graphs(n):
                    scale, edges = _edge_weights(g, scheme)
                    mat = _weight_matrix(n, edges)
                    wdict = ref_weights(g, scheme)
                    for clique in enumerate_cliques(g):
                        fast_key = (scale, tuple(mat[i][j] for i in clique for j in clique))
                        if fast_key not in fast:
                            fast[fast_key] = _clique_stationary(scale, mat, clique)
                        slow_key = tuple(wdict[e] for e in combinations(clique, 2))
                        if slow_key not in slow:
                            slow[slow_key] = ref_stationary(wdict, clique)
                        assert fast[fast_key] == slow[slow_key], (g, clique)

    def test_stationary_on_random_weights(self):
        # graph weights up to n = 6 give only interior solutions; small random
        # weights also reach the singular and no-positive branches
        rng = SplitMix64(41)
        seen = set()
        for trial in range(1500):
            clique = tuple(range(1 + rng.below(5)))
            wdict = {e: Fraction(1 + rng.below(4), 1 + rng.below(2))
                     for e in combinations(clique, 2)}
            result = _solve_clique_stationary(wdict, clique)
            assert result == ref_stationary(wdict, clique)
            seen.add(result[0])
        assert seen == {STATUS_INTERIOR, STATUS_NO_POSITIVE, STATUS_SINGULAR}

    def test_ledger_up_to_5(self):
        for scheme in (CLIQUE, WeightScheme.constant(Fraction(7, 5))):
            for n in range(6):
                for g in all_graphs(n):
                    wdict = ref_weights(g, scheme)
                    for cand in lagrangian_maximum(g, scheme).candidates:
                        status, value, _ = ref_stationary(wdict, tuple(cand.clique))
                        assert (cand.status, cand.value) == (status, value)

    @given(graphs_strategy(8).flatmap(
        lambda g: st.tuples(st.just(g), rational_points_strategy(g.n))),
        st.one_of(st.just(CLIQUE),
                  st.fractions(min_value=Fraction(1, 50), max_value=5,
                               max_denominator=50).map(WeightScheme.constant)))
    @settings(max_examples=150, deadline=None)
    def test_support_reduce_trace(self, graph_point, scheme):
        g, x = graph_point
        wdict = ref_weights(g, scheme)
        final, trace = support_reduce(g, scheme, x)
        expected = ref_support_reduce(g, wdict, tuple(x))
        assert [(s.i, s.j, s.s_i, s.s_j, s.f_before, s.f_after, tuple(s.point_after))
                for s in trace] == expected
        assert tuple(final) == (expected[-1][6] if expected else tuple(x))
        assert objective_value(g, scheme, x) == ref_objective(wdict, tuple(x))
        for i in range(g.n):
            assert core_side_sum(g, scheme, x, i) == ref_side(wdict, tuple(x), i)


def doubled(g):
    """g and a copy of it on vertices n..2n-1, with no edge between them."""
    n = g.n
    return from_edge_list(2 * n, [*g.edges(), *((u + n, v + n) for u, v in g.edges())])


def ref_maximum(g, wdict):
    """(maximum, support, witness, ledger) from one ref_stationary per clique, first max wins."""
    ledger = []
    best_value, best_clique, best_coords = None, (), []
    for clique in enumerate_cliques(g):
        status, value, coords = ref_stationary(wdict, clique)
        ledger.append((clique, status, value))
        if value is not None and (best_value is None or value > best_value):
            best_value, best_clique, best_coords = value, clique, coords
    witness = [Fraction(0)] * g.n
    for vert, xv in zip(best_clique, best_coords):
        witness[vert] = xv
    return best_value or Fraction(0), best_clique, tuple(witness), ledger


def outcome_tuple(out):
    return (out.maximum, tuple(out.support), tuple(out.witness),
            [(tuple(c.clique), c.status, c.value) for c in out.candidates])


@pytest.fixture
def solve_sizes(monkeypatch):
    """The size of every system lagrangian_maximum hands to the linear solver."""
    sizes = []
    real = lagrangian_mod.solve_linear_system

    def counting(m):
        sizes.append(len(m))
        return real(m)

    monkeypatch.setattr(lagrangian_mod, "solve_linear_system", counting)
    return sizes


class TestDistinctSystemsSolvedOnce:
    def test_complete_graph_one_solve_per_clique_size(self, solve_sizes):
        # K_15 has 32,767 cliques but one weight, so one system per size 1..15
        out = lagrangian_maximum(complete_graph(15), CLIQUE)
        assert len(out.candidates) == 2**15 - 1
        assert sorted(solve_sizes) == list(range(2, 17))

    @pytest.mark.parametrize("g", [complete_graph(5), turan_graph(6, 3)], ids=["K5", "T(6,3)"])
    def test_tie_keeps_the_first_copy(self, solve_sizes, g):
        out = lagrangian_maximum(g, CLIQUE)
        single = len(solve_sizes)
        both = lagrangian_maximum(doubled(g), CLIQUE)
        # the copy's cliques repeat the first copy's systems: no new solve
        assert len(solve_sizes) == 2 * single
        assert both.maximum == out.maximum == Fraction(1, 4)
        assert both.support == out.support
        assert tuple(both.witness) == tuple(out.witness) + (Fraction(0),) * g.n
        first = next(c for c in both.candidates if c.value == both.maximum)
        assert first.clique == both.support

    @given(graphs_strategy(5),
           st.one_of(st.just(CLIQUE),
                     st.fractions(min_value=Fraction(1, 50), max_value=5,
                                  max_denominator=50).map(WeightScheme.constant)))
    @settings(max_examples=80, deadline=None)
    def test_doubled_graph_matches_reference(self, g, scheme):
        g2 = doubled(g)
        assert outcome_tuple(lagrangian_maximum(g2, scheme)) == \
            ref_maximum(g2, ref_weights(g2, scheme))

    @given(graphs_strategy(5).flatmap(lambda g: st.tuples(
        st.just(g), st.lists(st.integers(1, 2), min_size=g.edge_count(),
                             max_size=g.edge_count()))))
    # K_5 with weight 2 on edges 04, 14, 23: K_4s whose weights are equal as
    # multisets but not in clique order, which a key that forgets the order merges
    @example((complete_graph(5), [1, 1, 1, 2, 1, 1, 2, 2, 1, 1]))
    @settings(max_examples=150, deadline=None)
    def test_doubled_graph_with_arbitrary_weights(self, graph_weights):
        # two weight values placed freely: cliques with the same weights in a
        # different order are different systems, some singular or boundary
        g, ws = graph_weights
        g2 = doubled(g)
        # g2.edges() lists the first copy's edges, then the copy's in the same order
        edges = tuple((u, v, a) for (u, v), a in zip(g2.edges(), ws + ws))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lagrangian_mod, "_edge_weights", lambda g, scheme: (1, edges))
            out = lagrangian_maximum(g2, CONST1)
        wdict = {(u, v): Fraction(a) for u, v, a in edges}
        assert outcome_tuple(out) == ref_maximum(g2, wdict)

    def test_ledger_on_every_graph_with_6_vertices(self):
        # the reference is solved once per distinct clique weight tuple
        for scheme in (CLIQUE, WeightScheme.constant(Fraction(7, 5))):
            slow = {}
            for g in all_graphs(6):
                wdict = ref_weights(g, scheme)
                for cand in lagrangian_maximum(g, scheme).candidates:
                    clique = tuple(cand.clique)
                    key = tuple(wdict[e] for e in combinations(clique, 2))
                    if key not in slow:
                        slow[key] = ref_stationary(wdict, clique)[:2]
                    assert (cand.status, cand.value) == slow[key], (g, clique)


def walk_graphs():
    """Seeded G(n,p), complete and Turan graphs, and graphs with isolated vertices."""
    rng = SplitMix64(67)
    gnp = [random_gnp(n, Fraction(1 + rng.below(9), 10), rng.next64())
           for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12) for _ in range(3)]
    isolated = [from_edge_list(g.n + 3, g.edges()) for g in gnp[::4]]
    return [*gnp, *isolated, *(complete_graph(n) for n in range(1, 10)),
            *(turan_graph(n, r) for n, r in ((4, 2), (6, 3), (9, 3), (10, 4), (12, 5)))]


WALK_SCHEMES = [CLIQUE, CONST1, WeightScheme.constant(Fraction(7, 5)),
                WeightScheme.constant(Fraction(2**60, 3))]


class TestCliqueWalk:
    """The one-pass loop with a key per clique size against the reference loop."""

    @pytest.mark.parametrize("scheme", WALK_SCHEMES, ids=lambda s: f"{s.mode}:{s.c}")
    def test_matches_reference_loop(self, scheme):
        for g in walk_graphs():
            out = lagrangian_maximum(g, scheme)
            ref = reference_lagrangian_maximum(g, scheme)
            assert (out.maximum, out.support, out.witness) == \
                (ref.maximum, ref.support, ref.witness), g
            assert out.candidates == ref.candidates, g
            assert all(type(c.clique) is CliqueSet for c in out.candidates)

    def test_arbitrary_weights_match_reference_loop(self, monkeypatch):
        # three weight values placed freely, so equal keys are rare and
        # row-order and column-order keys differ within every clique size
        rng = SplitMix64(5)
        for _ in range(40):
            g = random_gnp(4 + rng.below(7), Fraction(7, 10), rng.next64())
            edges = tuple((u, v, 1 + rng.below(3)) for u, v in g.edges())
            monkeypatch.setattr(lagrangian_mod, "_edge_weights", lambda g, scheme: (1, edges))
            assert lagrangian_maximum(g, CONST1) == reference_lagrangian_maximum(g, CONST1)

    @pytest.mark.parametrize("scheme", [CLIQUE, WeightScheme.constant(Fraction(7, 5))],
                             ids=lambda s: f"{s.mode}:{s.c}")
    def test_ledger_in_enumeration_order(self, scheme):
        for g in walk_graphs():
            ledger = [c.clique for c in lagrangian_maximum(g, scheme).candidates]
            assert ledger == list(enumerate_cliques(g)), g

    def test_one_enumeration_per_call(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return enumerate_cliques(g)

        monkeypatch.setattr(lagrangian_mod, "enumerate_cliques", counting)
        graphs = walk_graphs()
        for g in graphs:
            lagrangian_maximum(g, CLIQUE)
        assert calls == graphs

    def test_over_cap_refused_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved a clique system")

        monkeypatch.setattr(lagrangian_mod, "_clique_stationary", no_solve)
        monkeypatch.setattr(lagrangian_mod, "DEFAULT_CANDIDATE_CAP", 30)
        with pytest.raises(ValueError, match="cliques exceed the cap of 30"):
            lagrangian_maximum(complete_graph(5), CLIQUE)  # 31 cliques
        monkeypatch.setattr(lagrangian_mod, "DEFAULT_CANDIDATE_CAP", 25)
        with pytest.raises(ValueError, match="cliques exceed the cap of 25"):
            lagrangian_maximum(turan_graph(6, 3), CLIQUE)  # 6 + 12 + 8 = 26 cliques
        monkeypatch.setattr(lagrangian_mod, "DEFAULT_CANDIDATE_CAP", 31)
        with pytest.raises(AssertionError, match="solved a clique system"):
            lagrangian_maximum(complete_graph(5), CLIQUE)


class TestMotzkinStrausValue:
    def test_k5(self):
        assert motzkin_straus_value(complete_graph(5)) == Fraction(2, 5)

    def test_c5(self):
        assert motzkin_straus_value(cycle_graph(5)) == Fraction(1, 4)

    def test_edgeless(self):
        assert motzkin_straus_value(empty_graph(4)) == 0
        assert motzkin_straus_value(empty_graph(0)) == 0


class TestCliqueNumberMemo:
    """The weight table is rebuilt on every call, and reads its clique numbers
    from weights.clique_numbers, the package's one per-graph memo: each
    graph's cliques are searched once, however often its table is read."""

    GRAPHS = [complete_graph(4), cycle_graph(5), turan_graph(6, 3)]

    def test_holds_one_graph(self):
        clique_numbers.cache_clear()
        for g in self.GRAPHS:
            grid_oracle(g, CLIQUE, 3)
        info = clique_numbers.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (1, 1, 3)

    def test_reduce_searches_each_graph_once(self, tmp_path, capsys, monkeypatch):
        # support_reduce and the two objective_value calls of one record; on
        # one CPU, since a forked worker's cache lookups are not this process's
        path = tmp_path / "three.g6"
        path.write_text("".join(write_graph6(g) + "\n" for g in self.GRAPHS))
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        clique_numbers.cache_clear()
        assert main(["reduce", str(path)]) == 0
        info = clique_numbers.cache_info()
        assert (info.misses, info.hits) == (3, 6)


class TestWeightMatrixBudget:
    def test_rows_of_the_vertices_with_an_edge_counted(self, monkeypatch):
        # two rows of 4 slots, 8 bytes each: the edgeless rows share one zero row
        monkeypatch.setattr(lagrangian_mod, "TABLE_MAX_BYTES", 64)
        assert _weight_matrix(4, [(0, 1, 5)]) == [[0, 5, 0, 0], [5, 0, 0, 0], [0] * 4, [0] * 4]
        with pytest.raises(MemoryError, match="3 weight rows of 4 slots exceed"):
            _weight_matrix(4, [(0, 1, 5), (1, 2, 5)])

    @pytest.mark.parametrize("call", [
        lambda g: lagrangian_maximum(g, CLIQUE),
        lambda g: support_reduce(g, CONST1, SimplexPoint.uniform(g.n)),
        lambda g: grid_oracle(g, CLIQUE, 2),
    ], ids=["maximum", "reduce", "oracle"])
    def test_refused_before_built(self, monkeypatch, call):
        monkeypatch.setattr(lagrangian_mod, "TABLE_MAX_BYTES", 8 * 6 * 3)
        path = from_edge_list(6, [(0, 1), (1, 2)])
        call(path)
        with pytest.raises(MemoryError):
            call(from_edge_list(6, [(0, 1), (1, 2), (2, 3)]))


class TestGridOracle:
    def test_k2_resolution2(self):
        assert grid_oracle(complete_graph(2), CLIQUE, 2) == Fraction(1, 4)

    def test_resolution1_is_zero(self):
        for g in [complete_graph(4), cycle_graph(5), p3()]:
            assert grid_oracle(g, CLIQUE, 1) == 0

    def test_resolution1_on_a_million_vertices(self):
        # the cap allows 10^6 grid points, so no n x n table may be built
        g = from_edge_list(10**6, [(0, 1), (1, 2)])
        assert grid_oracle(g, CLIQUE, 1) == 0

    def test_path_resolution4(self):
        assert grid_oracle(p3(), CLIQUE, 4) == Fraction(1, 4)

    def test_lower_bounds_maximum(self):
        for g in all_graphs(4):
            m = lagrangian_maximum(g, CLIQUE).maximum
            for resolution in (1, 2, 3, 7, 12):
                assert grid_oracle(g, CLIQUE, resolution) <= m

    def test_cap_refusal(self, monkeypatch):
        monkeypatch.setattr(lagrangian_mod, "GRID_POINT_CAP", 1000)
        with pytest.raises(ValueError, match="exceed the cap of 1000"):
            grid_oracle(empty_graph(12), CLIQUE, 40)

    def test_cap_refusal_names_no_count(self):
        # C(10^6 + 2000, 2000) has over 5,000 digits, more than str() of an
        # int may have; the refusal stops counting past the cap
        with pytest.raises(ValueError, match="^grid points at resolution 1000000 on 2001 "
                                             "vertices exceed the cap of 5000000$"):
            grid_oracle(empty_graph(2001), CLIQUE, 10**6)

    @pytest.mark.parametrize("cap", [1, 2, 20, 1000, 5004, 5005])
    def test_cap_refusal_is_the_binomial_bound(self, monkeypatch, cap):
        monkeypatch.setattr(lagrangian_mod, "GRID_POINT_CAP", cap)
        for n in range(1, 16):
            for resolution in range(1, 16):
                try:
                    grid_oracle(empty_graph(n), CONST1, resolution)
                    refused = False
                except ValueError:
                    refused = True
                assert refused == (comb(resolution + n - 1, n - 1) > cap), (n, resolution)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            grid_oracle(complete_graph(2), CLIQUE, 0)

    def test_null_graph(self):
        assert grid_oracle(empty_graph(0), CLIQUE, 5) == 0

    def test_bigint_fallback_matches_fast_path(self):
        # a scale of 3 * 2^60, and a scaled weight of 2^60 whose grid terms
        # exceed int64, both give the small-weight maximum, scaled exactly
        huge = WeightScheme.constant(Fraction(1, 3 * 2**60))
        small = WeightScheme.constant(Fraction(1, 3))
        g = cycle_graph(5)
        expected = grid_oracle(g, small, 6)
        assert grid_oracle(g, huge, 6) * 2**60 == expected
        heavy = WeightScheme.constant(Fraction(2**60, 3))
        assert grid_oracle(g, heavy, 6) == 2**60 * expected

    @pytest.mark.parametrize("n", range(6))
    def test_matches_brute_force_on_every_graph(self, n):
        for g in all_graphs(n):
            for scheme in GRID_SCHEMES:
                for resolution in range(1, 7):
                    assert grid_oracle(g, scheme, resolution) == \
                        brute_grid_maximum(g, scheme, resolution)

    @given(graphs_strategy(8), st.sampled_from(GRID_SCHEMES), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_random_graphs(self, g, scheme, resolution):
        assert grid_oracle(g, scheme, resolution) == brute_grid_maximum(g, scheme, resolution)

    def test_matches_composition_enumeration(self):
        # independent recount: direct evaluation over all compositions
        g = p3()
        resolution = 5
        best = Fraction(0)
        for a in range(resolution + 1):
            for b in range(resolution + 1 - a):
                c = resolution - a - b
                x = SimplexPoint((Fraction(a, resolution), Fraction(b, resolution),
                                  Fraction(c, resolution)))
                best = max(best, objective_value(g, CLIQUE, x))
        assert grid_oracle(g, CLIQUE, resolution) == best
