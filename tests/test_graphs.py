import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    fuzz_random,
    graph_from_mask,
    max_clique_size,
    parse_edge_list,
    parse_graph6,
    random_gnp,
    turan_graph,
    write_graph6,
)
import turanweights.graphs as graphs_mod
from turanweights.graphs import GRAPH6_MAX_N, _as_exact, _decode_size, _encode_size, turan_part_sizes

from conftest import write_edge_list


class TestConstruction:
    def test_path(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.edge_count() == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        assert g.n == 1 and g.edge_count() == 0

    def test_duplicates_and_reversals_collapse(self):
        g = from_edge_list(4, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    @pytest.mark.parametrize("adj", [(0b1000, 0, 0), (0, 0, 0b1000), (0, 1 << 200, 0)])
    def test_row_bit_at_or_above_n_rejected(self, adj):
        with pytest.raises(ValueError, match="references vertices >= 3"):
            Graph(3, adj)

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError, match="references vertices >= 3"):
            Graph(3, (0, -2, 0))

    def test_edges_are_lexicographic(self):
        g = from_edge_list(4, [(2, 3), (0, 2), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]

    def test_rows_past_the_table_budget_refused(self, monkeypatch):
        # a row is as wide as its vertex's highest neighbour, and the budget
        # counts exactly the bits the built rows hold: 8 + 1 + 5 + 2 = 16
        monkeypatch.setattr(graphs_mod, "TABLE_MAX_BYTES", 2)
        g = from_edge_list(8, [(0, 7), (1, 4)])
        assert sum(row.bit_length() for row in g.adj) == 16
        with pytest.raises(MemoryError, match="rows of 17 bits exceed the budget of 2 bytes"):
            from_edge_list(8, [(0, 7), (1, 5)])

    def test_pair_errors_come_before_the_budget(self, monkeypatch):
        monkeypatch.setattr(graphs_mod, "TABLE_MAX_BYTES", 0)
        with pytest.raises(ValueError, match=r"edge \(0,3\) out of range for n=3"):
            from_edge_list(3, [(0, 2), (0, 3)])
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(3, [(0, 2), (1, 1)])

    def test_edges_read_once(self):
        g = from_edge_list(4, ((u, u + 1) for u in range(3)))
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


class TestGenerators:
    def test_complete(self):
        assert complete_graph(5).edge_count() == 10

    def test_empty(self):
        assert empty_graph(7).edge_count() == 0

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.edge_count() == 5
        assert max_clique_size(g) == 2  # triangle-free

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_turan_4_2_is_c4(self):
        g = turan_graph(4, 2)
        assert g.edge_count() == 4
        assert max_clique_size(g) == 2

    def test_turan_6_3(self):
        assert turan_graph(6, 3).edge_count() == 12

    def test_turan_r_at_least_n_is_complete(self):
        for n in range(6):
            assert turan_graph(n, max(n, 1) + 2) == complete_graph(n)

    def test_turan_zero_parts_rejected(self):
        with pytest.raises(ValueError):
            turan_graph(5, 0)

    @pytest.mark.parametrize("n,r", [(5, 2), (7, 3), (10, 4), (9, 3), (11, 5)])
    def test_turan_edge_count_formula(self, n, r):
        sizes = turan_part_sizes(n, r)
        expected = sum(sizes[i] * sizes[j] for i in range(r) for j in range(i + 1, r))
        assert turan_graph(n, r).edge_count() == expected

    @pytest.mark.parametrize("n,r", [(6, 2), (6, 3), (12, 4), (8, 2)])
    def test_turan_divisible_edge_count(self, n, r):
        # r | n: exactly (1 - 1/r) n^2 / 2 edges
        assert Fraction(turan_graph(n, r).edge_count()) == (1 - Fraction(1, r)) * n * n / 2

    @pytest.mark.parametrize("n,r", [(6, 2), (7, 3), (9, 4)])
    def test_turan_has_no_big_clique(self, n, r):
        assert max_clique_size(turan_graph(n, r)) == min(n, r)


class TestRandomGnp:
    def test_p_zero_empty(self):
        assert random_gnp(10, 0, 5) == empty_graph(10)

    def test_p_one_complete(self):
        assert random_gnp(10, 1, 5) == complete_graph(10)

    def test_deterministic(self):
        a = random_gnp(30, Fraction(1, 2), 42)
        b = random_gnp(30, Fraction(1, 2), 42)
        assert a == b

    def test_different_seeds_differ(self):
        assert random_gnp(30, Fraction(1, 2), 1) != random_gnp(30, Fraction(1, 2), 2)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            random_gnp(5, Fraction(3, 2), 0)

    def test_float_p_rejected(self):
        # 0.1 would draw with its binary value, 3602879701896397/2^55
        with pytest.raises(TypeError, match="floating-point"):
            random_gnp(6, 0.1, 1)

    def test_fuzz_rejects_float_p_alike(self):
        with pytest.raises(TypeError, match="floating-point"):
            fuzz_random(6, 0.1, 1, 1)

    def test_int_fraction_and_string_p(self):
        assert random_gnp(9, "1/3", 4) == random_gnp(9, Fraction(1, 3), 4)
        assert random_gnp(9, 1, 4) == complete_graph(9)

    def test_splitmix_reference_values(self):
        # first outputs of the splitmix64 stream for seed 0, from the
        # published reference implementation
        rng = SplitMix64(0)
        assert rng.next64() == 0xE220A8397B1DCDAF
        assert rng.next64() == 0x6E789E6AA1B965F4
        assert rng.next64() == 0x06C45D188009454F

    def test_below_is_uniform_exact_small(self):
        rng = SplitMix64(7)
        draws = [rng.below(3) for _ in range(300)]
        assert set(draws) <= {0, 1, 2}
        assert all(draws.count(v) > 50 for v in (0, 1, 2))

    # 2^63 + 1 rejects almost half of the words; the last two take two and three words
    BOUNDS = [1, 2, 3, 7, 2**63 + 1, 2**64, 2**64 + 1, 3 * 2**100 + 1]

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_below_and_draws_match_word_by_word_rejection(self, bound):
        def reference_below(rng):
            words = max(1, (bound.bit_length() + 63) // 64)
            limit = (1 << 64 * words) - (1 << 64 * words) % bound
            while True:
                u = 0
                for _ in range(words):
                    u = (u << 64) | rng.next64()
                if u < limit:
                    return u % bound

        reference, rng = SplitMix64(5), SplitMix64(5)
        expected = [reference_below(reference) for _ in range(60)]
        assert [rng.below(bound) for _ in range(30)] == expected[:30]
        stream = rng.draws(bound)
        assert [next(stream) for _ in range(30)] == expected[30:]
        assert rng.next64() == reference.next64()

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 4), Fraction(2, 7),
                                   Fraction(3, 2**70 + 1), Fraction(2**65 + 3, 2**66 + 7)],
                             ids=["1/2", "3/4", "2/7", "3/(2^70+1)", "(2^65+3)/(2^66+7)"])
    @pytest.mark.parametrize("seed", [0, 1, 99, 2**64 + 5])
    def test_one_bernoulli_draw_per_pair(self, p, seed):
        n = 23
        rng = SplitMix64(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.bernoulli(p)]
        assert random_gnp(n, p, seed) == from_edge_list(n, edges)



def refused(text: str) -> str:
    """The message every library entry gives for rational text it cannot read."""
    return f"invalid rational {text!r}; expected p or p/q"


class TestOneRationalParser:
    """``_as_exact`` reads every rational a library entry takes as text."""

    @pytest.mark.parametrize("call, text", [
        (lambda: random_gnp(3, "5e-1", 1), "5e-1"),
        (lambda: WeightScheme.constant("1e2"), "1e2"),
        (lambda: SimplexPoint(["1e0"]), "1e0"),
        (lambda: fuzz_random(3, "5e-1", 1, 1), "5e-1"),
    ], ids=["random_gnp", "WeightScheme.constant", "SimplexPoint", "fuzz_random"])
    def test_exponent_refused(self, call, text):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == refused(text)

    def test_huge_exponent_refused_at_once(self):
        # Fraction would compute 10**99999999 first; a child's timeout fails a hang
        code = "from turanweights import random_gnp; random_gnp(3, '1e-99999999', 1)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=20)
        assert result.returncode == 1
        assert result.stderr.endswith(f"ValueError: {refused('1e-99999999')}\n")

    def test_what_parses_and_what_is_refused(self):
        for value, expected in [("1/2", Fraction(1, 2)), (" 1/2 ", Fraction(1, 2)),
                                ("0.25", Fraction(1, 4)), (3, 3), (Fraction(1, 3), Fraction(1, 3))]:
            assert type(_as_exact(value)) is Fraction and _as_exact(value) == expected
        assert random_gnp(9, " 1/3 ", 4) == random_gnp(9, Fraction(1, 3), 4)
        assert WeightScheme.constant("0.25").c == Fraction(1, 4)
        assert SimplexPoint(["1/2", " 0.5 "]) == (Fraction(1, 2),) * 2
        for text in ["1/0", "abc", ""]:
            with pytest.raises(ValueError) as info:
                _as_exact(text)
            assert str(info.value) == refused(text)


class TestGraph6:
    def test_k2_hand_decoded(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.has_edge(0, 1)

    def test_null_graph(self):
        assert parse_graph6("?").n == 0

    def test_k2_encodes_back(self):
        assert write_graph6(complete_graph(2)) == "A_"

    def test_header_prefix_tolerated(self):
        assert parse_graph6(">>graph6<<A_") == complete_graph(2)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 62, 63, 64, 70])
    def test_round_trip_random(self, n):
        g = random_gnp(n, Fraction(1, 3), n + 17)
        assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_generators(self):
        corpus = [empty_graph(0), empty_graph(1), complete_graph(7), cycle_graph(9),
                  turan_graph(10, 3), turan_graph(13, 5)]
        for g in corpus:
            assert parse_graph6(write_graph6(g)) == g

    def test_write_parse_write_is_identity_on_strings(self):
        for g in [complete_graph(6), cycle_graph(5), random_gnp(40, Fraction(2, 7), 3)]:
            s = write_graph6(g)
            assert write_graph6(parse_graph6(s)) == s

    def test_matches_networkx(self):
        cases = [
            (turan_graph(6, 3), nx.turan_graph(6, 3)),
            (complete_graph(9), nx.complete_graph(9)),
            (cycle_graph(11), nx.cycle_graph(11)),
            (empty_graph(4), nx.empty_graph(4)),
        ]
        for mine, theirs in cases:
            assert write_graph6(mine) == nx.to_graph6_bytes(theirs, header=False).decode().strip()

    def test_writer_matches_networkx_on_the_atlas(self):
        # every graph on at most 7 vertices, up to isomorphism
        for theirs in nx.graph_atlas_g():
            mine = from_edge_list(theirs.number_of_nodes(), theirs.edges())
            assert write_graph6(mine) + "\n" == nx.to_graph6_bytes(theirs, header=False).decode()

    @pytest.mark.parametrize("n", [8, 13, 31, 61, 62, 63, 64, 100, 150])
    def test_writer_matches_networkx_on_random(self, n):
        # a 1-byte size header up to 62 vertices, a 4-byte one from 63
        for seed in range(4):
            g = random_gnp(n, Fraction(1 + seed, 5), seed)
            theirs = nx.empty_graph(n)
            theirs.add_edges_from(g.edges())
            s = write_graph6(g)
            assert s + "\n" == nx.to_graph6_bytes(theirs, header=False).decode()
            assert len(s) - (n * (n - 1) // 2 + 5) // 6 == (1 if n <= 62 else 4)

    def test_parse_matches_networkx_on_random(self):
        for seed in range(5):
            g = random_gnp(13, Fraction(1, 2), seed)
            s = write_graph6(g)
            theirs = nx.from_graph6_bytes(s.encode())
            assert set(g.edges()) == {tuple(sorted(e)) for e in theirs.edges()}

    @pytest.mark.parametrize("n", [0, 1, 62, 63, 258047, 258048, GRAPH6_MAX_N])
    def test_size_header_round_trip(self, n):
        encoded = _encode_size(n)
        decoded, used = _decode_size(encoded)
        assert decoded == n and used == len(encoded)

    def test_size_header_too_large(self):
        with pytest.raises(Graph6Error):
            _encode_size(GRAPH6_MAX_N + 1)

    def test_character_out_of_range(self):
        with pytest.raises(Graph6Error):
            parse_graph6("A" + chr(30))

    def test_truncated_data(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D")  # n=5 needs data characters

    def test_extra_data(self):
        with pytest.raises(Graph6Error):
            parse_graph6("A__")

    def test_nonzero_padding_rejected(self):
        # K2 uses 1 of 6 bits; any of the 5 padding bits set is invalid
        bad = "A" + chr(63 + 0b100001)
        with pytest.raises(Graph6Error):
            parse_graph6(bad)

    def test_empty_string(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    @given(st.integers(0, 9), st.integers(0, 2**36 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_hypothesis(self, n, bits):
        mask = bits & ((1 << (n * (n - 1) // 2)) - 1)
        g = graph_from_mask(n, mask)
        assert parse_graph6(write_graph6(g)) == g


class TestEdgeList:
    def test_parse_basic(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == from_edge_list(3, [(0, 1), (1, 2)])

    def test_parse_tolerates_duplicates_and_reversals(self):
        g = parse_edge_list("4 3\n0 1\n1 0\n2 3\n")
        assert g.edge_count() == 2

    def test_round_trip(self):
        for g in [turan_graph(7, 2), cycle_graph(6), empty_graph(3)]:
            assert parse_edge_list(write_edge_list(g)) == g

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")

    def test_negative_edge_count_named(self):
        for text in ("3 -1\n", "3 -1\n0 1\n", "2 -2\n0 1\n1 0\n"):
            m = text.split()[1]
            with pytest.raises(ValueError) as info:
                parse_edge_list(text)
            assert str(info.value) == f"edge count must be nonnegative, got {m}"

    def test_non_integers(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 x\n")

    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_edge_list("")
