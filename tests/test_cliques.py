from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanweights import (
    CliqueSet,
    complete_graph,
    cycle_graph,
    edge_clique_number,
    empty_graph,
    enumerate_cliques,
    from_edge_list,
    graph_from_mask,
    max_clique_size,
    parse_graph6,
)
import turanweights.cliques as cliques_mod
from turanweights.cliques import POPCOUNT_MAX, _clique_number, _expand, edge_clique_numbers
from turanweights.graphs import random_gnp
from turanweights.sweep import mask_pairs

from conftest import (
    all_graphs,
    brute_clique_masks,
    brute_edge_clique_number,
    brute_edge_clique_numbers,
    brute_max_clique,
    is_clique_mask,
    mask_of,
)


class TestMaxClique:
    def test_complete(self):
        assert max_clique_size(complete_graph(5)) == 5

    def test_cycle5_triangle_free(self):
        assert max_clique_size(cycle_graph(5)) == 2

    def test_k4_minus_edge(self, k4_minus_edge):
        assert max_clique_size(k4_minus_edge) == 3
        assert brute_max_clique(k4_minus_edge) == 3

    def test_null_and_edgeless(self):
        assert max_clique_size(empty_graph(0)) == 0
        assert max_clique_size(empty_graph(4)) == 1

    def test_against_brute_force_small(self):
        # a crossover of 1 sends every graph with two or more vertices to the
        # coloring search, 64 sends every graph here to the popcount search
        for crossover in (1, 64):
            with mock.patch.object(cliques_mod, "POPCOUNT_MAX", crossover):
                for n in range(6):
                    for g in all_graphs(n):
                        assert max_clique_size(g) == brute_max_clique(g), (crossover, g)

    def test_against_coloring_search_on_gnp(self):
        # the whole graph, and its prefix vertex sets on both sides of the crossover
        for n in range(15, 25):
            for p in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
                g = random_gnp(n, p, 11)
                assert max_clique_size(g) == _expand(g.adj, 0, (1 << n) - 1, 0), (n, p)
                for k in range(n + 1):
                    cand = (1 << k) - 1
                    assert _clique_number(g.adj, cand) == _expand(g.adj, 0, cand, 0), (n, p, k)


class TestEdgeCliqueNumber:
    def test_complete_edges(self):
        for n in range(2, 7):
            g = complete_graph(n)
            assert edge_clique_number(g, 0, 1) == n

    def test_triangle_free_edges(self):
        g = cycle_graph(5)
        for u, v in g.edges():
            assert edge_clique_number(g, u, v) == 2

    def test_k4_minus_edge(self, k4_minus_edge):
        for u, v in k4_minus_edge.edges():
            assert edge_clique_number(k4_minus_edge, u, v) == 3

    def test_non_edge_rejected(self, k4_minus_edge):
        with pytest.raises(ValueError):
            edge_clique_number(k4_minus_edge, 2, 3)

    def test_against_brute_force_small(self):
        for n in range(6):
            for g in all_graphs(n):
                for u, v in g.edges():
                    assert edge_clique_number(g, u, v) == brute_edge_clique_number(g, u, v)

    def test_bounded_by_clique_number_with_equality(self):
        for n in range(2, 6):
            for g in all_graphs(n):
                omega = max_clique_size(g)
                numbers = [edge_clique_number(g, u, v) for u, v in g.edges()]
                assert all(r <= omega for r in numbers)
                if omega >= 2:
                    assert omega in numbers


def coloring_edge_clique_numbers(g):
    """The coloring search alone, run on every edge's common neighbourhood."""
    return [2 + _expand(g.adj, 0, g.adj[u] & g.adj[v], 0) for u, v in g.edges()]


class TestEdgeCliqueNumbers:
    # every crossover gives the same numbers; 1 sends every common
    # neighbourhood of two or more vertices to the coloring search
    @pytest.mark.parametrize("crossover", [1, POPCOUNT_MAX])
    def test_against_brute_force_up_to_6(self, crossover):
        with mock.patch.object(cliques_mod, "POPCOUNT_MAX", crossover):
            for n in range(7):
                for g in all_graphs(n):
                    assert edge_clique_numbers(g.adj) == brute_edge_clique_numbers(g), g

    def test_against_coloring_search_on_gnp(self):
        sizes = set()
        for n in (30, 40, 60):
            for p in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
                g = random_gnp(n, p, 7)
                assert edge_clique_numbers(g.adj) == coloring_edge_clique_numbers(g), (n, p)
                sizes.update((g.adj[u] & g.adj[v]).bit_count() for u, v in g.edges())
        # common neighbourhoods fall on both sides of the crossover
        assert any(2 <= c <= POPCOUNT_MAX for c in sizes)
        assert any(c > POPCOUNT_MAX for c in sizes)

    def test_order_is_edge_order_and_mask_bit_order(self):
        # r = 4 on the K4, 3 on the triangle, 2 on the pendant edges
        g = from_edge_list(9, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                               (3, 8), (4, 5), (4, 6), (5, 6), (6, 7)])
        assert edge_clique_numbers(g.adj) == [
            edge_clique_number(g, u, v) for u, v in g.edges()] == [4, 4, 4, 4, 4, 4, 2, 3, 3, 3, 2]
        pairs = mask_pairs(g.n)
        mask = sum(1 << pairs.index(e) for e in g.edges())
        assert [pairs[b] for b in range(len(pairs)) if mask >> b & 1] == list(g.edges())


@given(st.integers(0, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_edge_clique_numbers_match_brute_force(n, data):
    g = graph_from_mask(n, data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    expected = brute_edge_clique_numbers(g)
    assert edge_clique_numbers(g.adj) == expected
    assert [edge_clique_number(g, u, v) for u, v in g.edges()] == expected


class TestEnumerateCliques:
    def test_triangle_order(self):
        got = [tuple(c) for c in enumerate_cliques(complete_graph(3))]
        assert got == [(0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]

    def test_path(self):
        from turanweights import from_edge_list

        got = {tuple(c) for c in enumerate_cliques(from_edge_list(3, [(0, 1), (1, 2)]))}
        assert got == {(0,), (1,), (2,), (0, 1), (1, 2)}

    def test_edgeless(self):
        got = [tuple(c) for c in enumerate_cliques(empty_graph(3))]
        assert got == [(0,), (1,), (2,)]

    def test_emitted_order_is_lexicographic(self):
        for g in [cycle_graph(6), complete_graph(5)]:
            seqs = [tuple(c) for c in enumerate_cliques(g)]
            assert seqs == sorted(seqs)

    def test_same_cliques_in_the_same_order_as_the_full_set_recursion(self, monkeypatch,
                                                                       tmp_path):
        # the top level loops over the vertices; the recursion below it, run
        # on the set of all n vertices, is the reference
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        import workloads

        workloads.lagrangian_plan(tmp_path, 0)
        graphs = [parse_graph6(line)
                  for line in (tmp_path / "lagrangian.g6").read_text().splitlines()]
        assert [g.n for g in graphs] == list(workloads.LAG_NS)
        graphs += [random_gnp(n, p, seed) for n in (0, 1, 2, 7, 13, 30)
                   for p in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3))
                   for seed in range(3)]
        graphs.append(complete_graph(12))
        for g in graphs:
            got = list(enumerate_cliques(g))
            assert got == list(cliques_mod._cliques(g.adj, (1 << g.n) - 1, ()))
            assert all(type(c) is CliqueSet for c in got)

    def test_matches_brute_force_and_subset_closed(self):
        for n in range(7):
            for g in all_graphs(n):
                cliques = list(enumerate_cliques(g))
                assert all(type(c) is CliqueSet for c in cliques)
                masks = {mask_of(c) for c in cliques}
                assert masks == set(brute_clique_masks(g))
                for m in masks:
                    sub = m & (m - 1)
                    if sub:
                        assert sub in masks  # dropping the lowest vertex stays a clique


class TestCliqueSet:
    def test_must_be_sorted(self):
        with pytest.raises(ValueError):
            CliqueSet((2, 1))

    def test_no_duplicates(self):
        with pytest.raises(ValueError):
            CliqueSet((1, 1))

    def test_len_and_iter(self):
        c = CliqueSet((0, 2, 5))
        assert len(c) == 3 and list(c) == [0, 2, 5]


@given(st.integers(0, 8), st.integers(0, 2**28 - 1))
@settings(max_examples=150, deadline=None)
def test_emitted_cliques_are_cliques(n, bits):
    g = graph_from_mask(n, bits & ((1 << (n * (n - 1) // 2)) - 1))
    count = 0
    for c in enumerate_cliques(g):
        count += 1
        assert is_clique_mask(g, mask_of(c))
    assert count == len(brute_clique_masks(g))
