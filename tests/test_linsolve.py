from fractions import Fraction
from math import lcm

from turanweights import SplitMix64
from turanweights.linsolve import solve_linear_system

from conftest import naive_solve


def augmented(rows, rhs):
    """The rows of the system rows x = rhs, each followed by its right-hand side."""
    return [[*row, b] for row, b in zip(rows, rhs)]


def integral(rows, rhs):
    """Augmented rows: each rational row and its right-hand side times the lcm
    of their denominators."""
    out = []
    for row, b in zip(rows, rhs):
        den = lcm(*[Fraction(x).denominator for x in row], Fraction(b).denominator)
        out.append([int(x * den) for x in (*row, b)])
    return out


def test_two_by_two():
    sol = solve_linear_system([[2, 1, 5], [1, 3, 10]])
    assert sol == [Fraction(1), Fraction(3)]


def test_fractional_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1)]]
    rhs = [Fraction(7, 6), Fraction(11, 5)]
    sol = solve_linear_system(integral(rows, rhs))
    assert sol == [Fraction(1), Fraction(2)]


def test_needs_row_swap():
    sol = solve_linear_system([[0, 1, 3], [1, 0, 4]])
    assert sol == [Fraction(4), Fraction(3)]


def test_singular_rank_deficient():
    assert solve_linear_system([[1, 2, 1], [2, 4, 2]]) is None


def test_singular_zero_matrix():
    assert solve_linear_system([[0, 0, 0], [0, 0, 0]]) is None


def test_empty_system():
    assert solve_linear_system([]) == []


def test_rows_are_eliminated_in_place():
    m = [[2, 1, 5], [1, 3, 10]]
    assert solve_linear_system(m) == [Fraction(1), Fraction(3)]
    # Bareiss: the second row becomes (0, 2*3 - 1*1, 2*10 - 1*5), over the first pivot 1
    assert m == [[2, 1, 5], [0, 5, 15]]


def test_hilbert_exact():
    k = 6
    rows = [[Fraction(1, i + j + 1) for j in range(k)] for i in range(k)]
    expected = [Fraction(i + 1, 2) for i in range(k)]
    rhs = [sum(rows[i][j] * expected[j] for j in range(k)) for i in range(k)]
    assert solve_linear_system(integral(rows, rhs)) == expected


def test_random_systems_match_naive_oracle():
    rng = SplitMix64(2024)
    for trial in range(200):
        k = 1 + rng.below(5)
        rows = [[rng.below(21) - 10 for _ in range(k)] for _ in range(k)]
        rhs = [rng.below(21) - 10 for _ in range(k)]
        assert solve_linear_system(augmented(rows, rhs)) == naive_solve(rows, rhs)


def test_random_fractional_systems_match_naive_oracle():
    rng = SplitMix64(77)
    for trial in range(100):
        k = 1 + rng.below(4)
        rows = [[Fraction(rng.below(19) - 9, 1 + rng.below(7)) for _ in range(k)]
                for _ in range(k)]
        rhs = [Fraction(rng.below(19) - 9, 1 + rng.below(7)) for _ in range(k)]
        assert solve_linear_system(integral(rows, rhs)) == naive_solve(rows, rhs)


def test_integer_rows_match_fraction_twins():
    # the fraction-free solve must agree with plain Fraction elimination on
    # the same system, singular systems included
    rng = SplitMix64(909)
    singular = 0
    for trial in range(300):
        k = 1 + rng.below(6)
        rows = [[rng.below(7) - 3 for _ in range(k)] for _ in range(k)]
        rhs = [rng.below(7) - 3 for _ in range(k)]
        twin = naive_solve(rows, rhs)
        assert solve_linear_system(augmented(rows, rhs)) == twin
        singular += twin is None
    assert singular > 0


def test_mixed_integer_and_fraction_rows():
    # every other row times a random nonzero integer: the same solution set
    rng = SplitMix64(31)
    for trial in range(100):
        k = 2 + rng.below(4)
        rows = [[rng.below(19) - 9 for _ in range(k)] for _ in range(k)]
        rhs = [rng.below(9) - 4 for _ in range(k)]
        factors = [(rng.below(9) - 4 or 5) if r % 2 else 1 for r in range(k)]
        scaled = [[f * x for x in row] for f, row in zip(factors, rows)]
        assert solve_linear_system(augmented(scaled, [f * b for f, b in zip(factors, rhs)])) \
            == naive_solve(rows, rhs)


def test_integer_results_are_fractions():
    sol = solve_linear_system([[2, 0, 6], [0, 4, 2]])
    assert sol == [3, Fraction(1, 2)]
    assert all(type(x) is Fraction for x in sol)
