from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from borrowalk.cobosons import (
    CobosonReport,
    b2_closed,
    coboson_norm,
    coboson_report,
    depleted_norm,
    norm_table,
    power_sum_norm_sq,
    ratio_approx,
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
    assert power_sum_norm_sq(factors, modes, quanta) == brute_force_power_sum(factors, modes, quanta)


def test_power_sum_rejects_bad_arguments():
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


def test_norm_table_is_ordered():
    table = norm_table(4, 5)
    assert [r.composite_count for r in table] == [1, 2, 3, 4]
    assert all(r.mode_count == 10 for r in table)
    assert table[1].norm_constant == b2_closed(5)
    with pytest.raises(ValueError):
        norm_table(0, 5)


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
