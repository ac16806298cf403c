from fractions import Fraction
from itertools import product
from math import factorial, log2

import pytest
from oracles import partition_norm_sq

from borrowalk.cobosons import (
    MAX_NORM_BITS,
    MAX_SERIES_WORK,
    CobosonReport,
    b2_closed,
    coboson_norm,
    coboson_report,
    depleted_norm,
    norm_bits,
    power_sum_norm_sq,
    ratio_approx,
    require_series_fits,
)


def brute_force_power_sum(factors: int, modes: int, quanta: int) -> int:
    """Direct assignment-sum oracle: every map factor -> mode contributes one
    monomial; coherent terms share an occupation pattern."""
    counts: dict[tuple[int, ...], int] = {}
    for assignment in product(range(modes), repeat=factors):
        occupation = [0] * modes
        for mode in assignment:
            occupation[mode] += quanta
        key = tuple(occupation)
        counts[key] = counts.get(key, 0) + 1
    total = 0
    for occupation, multiplicity in counts.items():
        norm = 1
        for n in occupation:
            norm *= factorial(n)
        total += multiplicity * multiplicity * norm
    return total


@pytest.mark.parametrize("factors", (0, 1, 2, 3))
@pytest.mark.parametrize("modes", (1, 2, 4, 7))
@pytest.mark.parametrize("quanta", (1, 2, 3, 4))
def test_partition_sum_matches_assignment_sum(factors, modes, quanta):
    norms = power_sum_norm_sq(factors, modes, quanta)
    assert norms == [partition_norm_sq(n, modes, quanta) for n in range(factors + 1)]
    assert norms[factors] == brute_force_power_sum(factors, modes, quanta)
    if factors:
        assert norms[factors - 1] == brute_force_power_sum(factors - 1, modes, quanta)


@pytest.mark.parametrize("modes", (1, 2, 4, 7, 12))
@pytest.mark.parametrize("quanta", (1, 2, 3, 4))
def test_series_matches_the_partition_sum(modes, quanta):
    assert power_sum_norm_sq(8, modes, quanta) == [partition_norm_sq(n, modes, quanta) for n in range(9)]


@pytest.mark.parametrize("factors, d, quanta", [(18, 1, 3), (23, 7, 2), (28, 50, 3), (28, 7, 4)])
def test_series_matches_the_partition_sum_at_benchmark_sizes(factors, d, quanta):
    norms = power_sum_norm_sq(factors, 2 * d, quanta)
    for n in (factors - 1, factors):
        assert norms[n] == partition_norm_sq(n, 2 * d, quanta)


def test_norm_bits_bound_the_series():
    for composites, d, constituents in product((1, 2, 3, 8, 28, 60), (1, 2, 7, 50), (2, 3, 4, 9)):
        exact = log2(power_sum_norm_sq(composites, 2 * d, constituents)[composites])
        estimate = norm_bits(composites, d, constituents)
        assert exact <= estimate + 1e-9
        assert estimate <= 1.3 * exact + 8


def test_series_size_guard_arithmetic():
    # the benchmark's largest request stays far inside both limits
    assert norm_bits(28, 50, 4) < 700
    assert 1000 * 28**2 * norm_bits(28, 50, 4) < MAX_SERIES_WORK
    require_series_fits(28, 50, 4)
    # the work limit falls between 400 and 500 trimers on 50 sites
    require_series_fits(400, 50, 3)
    assert 500**2 * norm_bits(500, 50, 3) > MAX_SERIES_WORK
    # a pair of 10**5-particle multiplets is cheap in N, not in bits
    assert 2**2 * norm_bits(2, 50, 10**5) < MAX_SERIES_WORK
    assert norm_bits(2, 50, 10**5) > MAX_NORM_BITS
    # sized from lgamma alone: none of these forms a factorial
    for composites, d, constituents in [
        (500, 50, 3),
        (2, 50, 10**5),
        (10**9, 3, 3),
        (2, 3, 10**9),
        (10**400, 1, 3),
        (2, 10**60, 2),
    ]:
        with pytest.raises(ValueError):
            require_series_fits(composites, d, constituents)


def test_power_sum_rejects_bad_arguments():
    assert power_sum_norm_sq(0, 2, 3) == [1]
    with pytest.raises(ValueError):
        power_sum_norm_sq(-1, 2, 3)
    with pytest.raises(ValueError):
        power_sum_norm_sq(2, 0, 3)
    with pytest.raises(ValueError):
        power_sum_norm_sq(2, 2, 0)


def test_single_composite_is_normalized():
    for d in range(1, 13):
        assert coboson_norm(1, d) == 1
        assert coboson_norm(1, d, constituents=4) == 1


def test_two_trimer_norms_match_the_closed_form():
    expected = {1: Fraction(11, 2), 2: Fraction(13, 4), 3: Fraction(5, 2), 10: Fraction(29, 20)}
    for d, value in expected.items():
        assert coboson_norm(2, d) == value
        assert b2_closed(d) == value
    for d in range(1, 13):
        assert coboson_norm(2, d) == b2_closed(d)


def test_doubling_the_ring_halves_the_pair_deviation():
    for d in (1, 2, 5, 10, 20):
        assert coboson_norm(2, 2 * d) - 1 == (coboson_norm(2, d) - 1) / 2


def test_three_trimer_norm_closed_form():
    for d in range(1, 7):
        assert coboson_norm(3, d) == 1 + Fraction(27, 2 * d) + Fraction(63, d * d)


def test_ratio_deviation_shrinks_with_the_ring():
    def deviation(d):
        return abs(coboson_norm(3, d) / coboson_norm(2, d) - 1)

    assert deviation(20) == Fraction(243, 490)
    assert deviation(40) == Fraction(423, 1780)
    gaps = [deviation(d) for d in (5, 10, 20, 40)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert deviation(40) < deviation(20) / 2


def test_ratio_approximation_formula():
    assert ratio_approx(2, 100) == Fraction(199, 200)
    assert ratio_approx(1, 7) == 1
    assert ratio_approx(3, 10) == Fraction(18, 20)
    with pytest.raises(ValueError):
        ratio_approx(0, 5)


def test_quadrimer_constituent_pair_norm():
    for d in range(1, 9):
        assert coboson_norm(2, d, constituents=4) == 1 + Fraction(17, d)


def test_depleted_norm_values():
    expected = {1: Fraction(1), 2: Fraction(3, 4), 3: Fraction(2, 3), 10: Fraction(11, 20)}
    for d, value in expected.items():
        assert depleted_norm(d) == value
    for d in range(1, 13):
        assert depleted_norm(d) == Fraction(1, 2) + Fraction(1, 2 * d)


def test_large_ring_ordering_of_the_two_norms():
    for d in range(10, 60, 7):
        assert depleted_norm(d) <= Fraction(11, 20)
        assert coboson_norm(2, d) <= Fraction(29, 20)
        assert depleted_norm(d) < 1 < coboson_norm(2, d)


def test_report_fields():
    report = coboson_report(2, 3)
    assert report == CobosonReport(
        composite_count=2,
        mode_count=6,
        norm_constant=Fraction(5, 2),
        ratio_to_previous=Fraction(5, 2),
        approx_ratio=Fraction(5, 6),
    )
    first = coboson_report(1, 3)
    assert first.norm_constant == 1
    assert first.ratio_to_previous == 1


def test_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        coboson_norm(0, 5)
    with pytest.raises(ValueError):
        coboson_norm(2, 0)
    with pytest.raises(ValueError):
        coboson_norm(2, 5, constituents=1)
    with pytest.raises(ValueError):
        depleted_norm(0)
    with pytest.raises(ValueError):
        b2_closed(0)
