"""Values are checked once, at the boundary.

``Graph(n, adj)`` and ``SimplexPoint(coords)`` check every value a caller
hands them.  Inside the package values are built by construction: every
graph builder (``parse_graph6``, ``from_edge_list``, ``parse_edge_list``,
the generators and ``graph_from_mask``) checks its own arguments and then
builds its rows valid, and ``support_reduce`` builds each step's point.
These tests pin that the values built inside equal the ones the checked
constructors accept, and that the checks are not run twice.
"""

import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest

from turanweights import (
    Graph,
    Graph6Error,
    SimplexPoint,
    SplitMix64,
    WeightScheme,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edge_list,
    graph_from_mask,
    parse_edge_list,
    parse_graph6,
    random_gnp,
    support_reduce,
    turan_graph,
    write_graph6,
)
from turanweights.lagrangian import _common_denominator

from conftest import random_rational_point, reference_turan_graph
from test_cli import run_cli

CLIQUE = WeightScheme.clique_weighted()
SCHEMES = [CLIQUE, WeightScheme.constant(Fraction(5, 7))]


def assert_trusted_decode(g: Graph) -> None:
    """The decoded graph equals the written one and passes the full check."""
    text = write_graph6(g)
    decoded = parse_graph6(text)
    assert type(decoded) is Graph
    assert decoded == g == Graph(g.n, g.adj)
    theirs = nx.from_graph6_bytes(text.encode())
    assert theirs.number_of_nodes() == g.n
    assert {tuple(sorted(e)) for e in theirs.edges()} == set(g.edges())


class TestTrustedDecode:
    def test_graph_atlas(self):
        # every graph on up to 7 vertices
        atlas = nx.graph_atlas_g()
        assert len(atlas) == 1253
        for h in atlas:
            assert_trusted_decode(from_edge_list(h.number_of_nodes(), h.edges()))

    @pytest.mark.parametrize("n", [0, 1, 2, 61, 62, 63, 64, 100])
    @pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)])
    def test_seeded_gnp_across_size_headers(self, n, p):
        g = random_gnp(n, p, 1000 + n)
        assert len(write_graph6(g)) - (n * (n - 1) // 2 + 5) // 6 == (1 if n <= 62 else 4)
        assert_trusted_decode(g)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 62, 63, 80])
    def test_complete_and_turan(self, n):
        assert_trusted_decode(complete_graph(n))
        for r in (2, 3, 5):
            assert_trusted_decode(turan_graph(n, r))

    def test_pairs_at_window_boundaries(self):
        # columns are cut from a window refilled 2^16 bits at a time; set the
        # pairs on each side of every refill, and the first and last pairs
        n = 1200
        cols = [(v, v * (v - 1) // 2) for v in range(1, n)]
        edges = [(0, 1), (n - 2, n - 1), (0, n - 1)]
        for k in range(1 << 16, n * (n - 1) // 2, 1 << 16):
            for pair in (k - 1, k):
                v, first = max(c for c in cols if c[1] <= pair)
                edges.append((pair - first, v))
        assert len(edges) == 3 + 2 * 10  # ten refills after the first
        assert_trusted_decode(from_edge_list(n, edges))
        assert_trusted_decode(random_gnp(400, Fraction(1, 2), 8))

    def test_prefix_and_trailing_whitespace(self):
        g = random_gnp(64, Fraction(1, 2), 3)
        text = write_graph6(g)
        for line in (">>graph6<<" + text, text + "  \t\n", ">>graph6<<" + text + "\r\n"):
            assert parse_graph6(line) == g == Graph(g.n, g.adj)

    @pytest.mark.parametrize("line, message", [
        ("~~~~~~~~", "expected 393530540221957231958 data characters for n=68719476735, got 0"),
        ("~~", "truncated graph6 size header"),
        ("~?", "truncated graph6 size header"),
        ("~", "truncated graph6 size header"),
        ("~~~", "truncated graph6 size header"),
        ("~~?????", "truncated graph6 size header"),
        ("Aé", "character out of graph6 range (63..126)"),
        ("A\x7f", "character out of graph6 range (63..126)"),
        ("A`", "nonzero padding bits"),
        ("", "empty graph6 string"),
        ("D", "expected 2 data characters for n=5, got 0"),
        ("A__", "expected 1 data characters for n=2, got 2"),
        ("~??~", "expected 326 data characters for n=63, got 0"),
        ("~\x1e", "truncated graph6 size header"),
        ("\x1e~~", "truncated graph6 size header"),
        ("~~~~~~~\x7f", "character out of graph6 range (63..126)"),
    ])
    def test_hostile_line_messages(self, line, message):
        with pytest.raises(Graph6Error) as info:
            parse_graph6(line)
        assert str(info.value) == message

    def test_largest_header_refused_before_allocation(self):
        # n = 2^36 - 1 would need a 2^36-slot row list
        tracemalloc.start()
        try:
            with pytest.raises(Graph6Error, match="expected 393530540221957231958"):
                parse_graph6("~~~~~~~~")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestTrustedPoints:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30, 60])
    @pytest.mark.parametrize("scheme", SCHEMES, ids=["clique", "constant"])
    @pytest.mark.parametrize("start", ["rational", "uniform"])
    def test_every_point_is_a_checked_point(self, n, scheme, start):
        g = random_gnp(n, Fraction(1, 2), 70 + n)
        if start == "uniform":
            x = SimplexPoint.uniform(n)
        else:
            x = SimplexPoint(random_rational_point(n, 90 + n))
        den, xs = _common_denominator(x)
        final, trace = support_reduce(g, scheme, x)
        if n > 2:
            assert len(trace) > 0
        for step in trace:
            # replay the shift on the scaled numerators
            xs[step.i] += xs[step.j]
            xs[step.j] = 0
            p = step.point_after
            assert type(p) is SimplexPoint
            assert SimplexPoint(p) == p
            assert all(type(c) is Fraction for c in p)
            assert p == tuple(Fraction(num, den) for num in xs)
        assert type(final) is SimplexPoint
        assert SimplexPoint(final) == final
        assert final == tuple(Fraction(num, den) for num in xs)


def count_constructor_calls(monkeypatch) -> dict:
    """Count the calls of the checked constructors from now on; the checks still run."""
    calls = {Graph: 0, SimplexPoint: 0}
    for cls in calls:
        def counted(klass, *args, _real=cls.__new__, _cls=cls, **kwargs):
            calls[_cls] += 1
            return _real(klass, *args, **kwargs)
        monkeypatch.setattr(cls, "__new__", counted)
    return calls


class TestChecksRunOnce:
    def test_counter_sees_the_checked_constructors(self, monkeypatch):
        calls = count_constructor_calls(monkeypatch)
        k2 = complete_graph(2)
        assert calls == {Graph: 0, SimplexPoint: 0}
        assert Graph(2, (2, 1)) == Graph(k2.n, k2.adj) == k2
        assert SimplexPoint((Fraction(1),)) == (1,)
        with pytest.raises(ValueError, match="asymmetric adjacency"):
            Graph(2, (2, 0))
        with pytest.raises(ValueError, match="must sum to 1"):
            SimplexPoint((Fraction(1, 2),))
        assert calls == {Graph: 3, SimplexPoint: 2}

    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_uniform_point_builds_no_checked_point(self, monkeypatch, n):
        calls = count_constructor_calls(monkeypatch)
        x = SimplexPoint.uniform(n)
        assert calls == {Graph: 0, SimplexPoint: 0}
        assert type(x) is SimplexPoint
        assert SimplexPoint(x) == x == (Fraction(1, n),) * n

    def test_uniform_point_needs_a_vertex(self):
        with pytest.raises(ValueError) as info:
            SimplexPoint.uniform(0)
        assert str(info.value) == "uniform start point needs at least one vertex"

    def test_parse_graph6_builds_no_checked_graph(self, monkeypatch):
        lines = ["?", "@", "A_", "Bw", ">>graph6<<DQc", write_graph6(complete_graph(66))]
        calls = count_constructor_calls(monkeypatch)
        graphs = [parse_graph6(line) for line in lines]
        assert calls == {Graph: 0, SimplexPoint: 0}
        assert [g.n for g in graphs] == [0, 1, 2, 3, 5, 66]
        assert all(Graph(g.n, g.adj) == g for g in graphs)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=["clique", "constant"])
    def test_support_reduce_builds_no_checked_point(self, monkeypatch, scheme):
        g = random_gnp(40, Fraction(1, 2), 5)
        x = SimplexPoint(random_rational_point(40, 6))
        calls = count_constructor_calls(monkeypatch)
        final, trace = support_reduce(g, scheme, x)
        assert len(trace) > 10
        assert calls == {Graph: 0, SimplexPoint: 0}
        assert SimplexPoint(final) == final


def random_pairs(n: int, seed: int) -> list[tuple[int, int]]:
    """About a third of the vertex pairs, in random orientation, some repeated."""
    rng = SplitMix64(seed)
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.below(3) == 0:
                pairs.append((u, v) if rng.below(2) else (v, u))
                if rng.below(4) == 0:
                    pairs.append((v, u))
    return pairs


def edge_list_text(n: int, pairs: list[tuple[int, int]]) -> str:
    return f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


def masks(n: int) -> list[int]:
    """The empty, the full and one random edge mask on n vertices."""
    bits = n * (n - 1) // 2
    return [0, (1 << bits) - 1, SplitMix64(n).below(1 << bits)]


SIZES = [0, 1, 2, 3, 7, 64, 65, 130]
PROBABILITIES = [Fraction(0), Fraction(1, 3), Fraction(1)]
# builder name -> the graphs it builds on n vertices
BUILDERS = {
    "complete_graph": lambda n: [complete_graph(n)],
    "empty_graph": lambda n: [empty_graph(n)],
    "cycle_graph": lambda n: [cycle_graph(n)] if n >= 3 else [],
    "turan_graph": lambda n: [turan_graph(n, r) for r in range(1, n + 3)],
    "random_gnp": lambda n: [random_gnp(n, p, seed) for p in PROBABILITIES for seed in (1, 2)],
    "from_edge_list": lambda n: [from_edge_list(n, random_pairs(n, n))],
    "parse_edge_list": lambda n: [parse_edge_list(edge_list_text(n, random_pairs(n, n)))],
    "graph_from_mask": lambda n: [graph_from_mask(n, mask) for mask in masks(n)],
}


class TestTrustedBuilders:
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_builder_builds_no_checked_graph(self, monkeypatch, builder):
        calls = count_constructor_calls(monkeypatch)
        graphs = [g for n in SIZES for g in BUILDERS[builder](n)]
        assert calls == {Graph: 0, SimplexPoint: 0}
        assert {g.n for g in graphs} == {n for n in SIZES if builder != "cycle_graph" or n >= 3}
        for g in graphs:
            assert type(g) is Graph and type(g.adj) is tuple
            assert Graph(g.n, g.adj) == g

    def test_edge_lists_keep_every_pair(self, monkeypatch):
        calls = count_constructor_calls(monkeypatch)
        for n in SIZES:
            pairs = random_pairs(n, n)
            edges = {(min(p), max(p)) for p in pairs}
            assert set(from_edge_list(n, pairs).edges()) == edges
            assert set(parse_edge_list(edge_list_text(n, pairs)).edges()) == edges
        assert calls == {Graph: 0, SimplexPoint: 0}

    def test_turan_matches_the_pairwise_reference(self, monkeypatch):
        calls = count_constructor_calls(monkeypatch)
        built = {(n, r): turan_graph(n, r) for n in range(31) for r in range(1, n + 3)}
        assert calls == {Graph: 0, SimplexPoint: 0}
        for (n, r), g in built.items():
            assert g == reference_turan_graph(n, r), (n, r)

    @pytest.mark.parametrize("argv", [
        ["complete", "-1"], ["empty", "-1"], ["turan", "-1", "1"], ["turan", "-1", "2"],
        ["turan", "-1", "3"], ["gnp", "-1", "1/2"], ["gnp", "-1", "0", "--seed", "3"],
    ], ids=" ".join)
    def test_negative_vertex_count_refused_by_the_builder(self, monkeypatch, argv):
        calls = count_constructor_calls(monkeypatch)
        assert run_cli(["gen", *argv]) == (
            1, "", "turanweights: usage: vertex count must be nonnegative, got -1\n")
        assert calls == {Graph: 0, SimplexPoint: 0}
