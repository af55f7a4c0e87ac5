from fractions import Fraction

import pytest

from turanweights import SplitMix64
from turanweights.linsolve import solve_linear_system

from conftest import naive_solve


def test_two_by_two():
    sol = solve_linear_system([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]],
                              [Fraction(5), Fraction(10)])
    assert sol == [Fraction(1), Fraction(3)]


def test_fractional_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1)]]
    rhs = [Fraction(7, 6), Fraction(11, 5)]
    sol = solve_linear_system(rows, rhs)
    assert sol == [Fraction(1), Fraction(2)]


def test_needs_row_swap():
    rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    sol = solve_linear_system(rows, [Fraction(3), Fraction(4)])
    assert sol == [Fraction(4), Fraction(3)]


def test_singular_rank_deficient():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve_linear_system(rows, [Fraction(1), Fraction(2)]) is None


def test_singular_zero_matrix():
    rows = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert solve_linear_system(rows, [Fraction(0), Fraction(0)]) is None


def test_empty_system():
    assert solve_linear_system([], []) == []


def test_shape_mismatch():
    with pytest.raises(ValueError):
        solve_linear_system([[Fraction(1)]], [Fraction(1), Fraction(2)])


def test_hilbert_exact():
    k = 6
    rows = [[Fraction(1, i + j + 1) for j in range(k)] for i in range(k)]
    expected = [Fraction(i + 1, 2) for i in range(k)]
    rhs = [sum(rows[i][j] * expected[j] for j in range(k)) for i in range(k)]
    assert solve_linear_system(rows, rhs) == expected


def test_random_systems_match_naive_oracle():
    rng = SplitMix64(2024)
    for trial in range(200):
        k = 1 + rng.below(5)
        rows = [[Fraction(rng.below(21)) - 10 for _ in range(k)] for _ in range(k)]
        rhs = [Fraction(rng.below(21)) - 10 for _ in range(k)]
        assert solve_linear_system(rows, rhs) == naive_solve(rows, rhs)


def test_random_fractional_systems_match_naive_oracle():
    rng = SplitMix64(77)
    for trial in range(100):
        k = 1 + rng.below(4)
        rows = [[Fraction(rng.below(19) - 9, 1 + rng.below(7)) for _ in range(k)]
                for _ in range(k)]
        rhs = [Fraction(rng.below(19) - 9, 1 + rng.below(7)) for _ in range(k)]
        assert solve_linear_system(rows, rhs) == naive_solve(rows, rhs)


def test_integer_rows_match_fraction_twins():
    # integral rows take the path that skips scaling; it must agree with the
    # same system given as Fractions, singular systems included
    rng = SplitMix64(909)
    singular = 0
    for trial in range(300):
        k = 1 + rng.below(6)
        rows = [[rng.below(7) - 3 for _ in range(k)] for _ in range(k)]
        rhs = [rng.below(7) - 3 for _ in range(k)]
        twin = solve_linear_system([[Fraction(x) for x in row] for row in rows],
                                   [Fraction(b) for b in rhs])
        assert solve_linear_system(rows, rhs) == twin == naive_solve(rows, rhs)
        singular += twin is None
    assert singular > 0


def test_mixed_integer_and_fraction_rows():
    rng = SplitMix64(31)
    for trial in range(100):
        k = 2 + rng.below(4)
        rows = [[Fraction(rng.below(19) - 9, 1 + rng.below(5)) if r % 2 else rng.below(19) - 9
                 for _ in range(k)] for r in range(k)]
        rhs = [rng.below(9) - 4 for _ in range(k)]
        assert solve_linear_system(rows, rhs) == naive_solve(rows, rhs)


def test_integer_results_are_fractions():
    sol = solve_linear_system([[2, 0], [0, 4]], [6, 2])
    assert sol == [3, Fraction(1, 2)]
    assert all(type(x) is Fraction for x in sol)
