"""Exact normalization constants for composites of the bound multiplets.

Treating each bound multiplet as the creation operator sum_i a_i^dag^c over
the 2d single-multiplet modes, the norm of an N-fold power is a finite
counting problem over integer partitions.  Everything here is exact rational
arithmetic; floats never enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial


def _partitions(n: int):
    """Integer partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(n, n)


def power_sum_norm_sq(factors: int, modes: int, quanta: int) -> int:
    """Squared norm of (sum_{i<modes} a_i^dag^quanta)^factors |0>.

    Expanding the power assigns each of the `factors` identical terms to a
    mode; grouping assignments by the partition they induce turns the double
    sum over assignments into a single sum over partitions of `factors`.
    """
    if factors < 0 or modes < 1 or quanta < 1:
        raise ValueError("need factors >= 0, modes >= 1, quanta >= 1")
    total = 0
    for partition in _partitions(factors):
        if len(partition) > modes:
            continue
        multiplicity: dict[int, int] = {}
        for part in partition:
            multiplicity[part] = multiplicity.get(part, 0) + 1
        placements = comb(modes, len(partition)) * factorial(len(partition))
        for count in multiplicity.values():
            placements //= factorial(count)
        assignments = factorial(factors)
        for part in partition:
            assignments //= factorial(part)
        weight = assignments * assignments
        for part in partition:
            weight *= factorial(quanta * part)
        total += placements * weight
    return total


def coboson_norm(composites: int, d: int, constituents: int = 3) -> Fraction:
    """Normalization constant for `composites` copies of a bound multiplet of
    `constituents` particles on a d-site ring."""
    if composites < 1 or d < 1 or constituents < 2:
        raise ValueError("need composites >= 1, d >= 1, constituents >= 2")
    raw = power_sum_norm_sq(composites, 2 * d, constituents)
    unit = factorial(constituents) * 2 * d
    return Fraction(raw, unit**composites * factorial(composites))


def b2_closed(d: int) -> Fraction:
    """Two-trimer normalization constant in closed form."""
    if d < 1:
        raise ValueError("need d >= 1")
    return 1 + Fraction(9, 2 * d)


def ratio_approx(composites: int, d: int) -> Fraction:
    """Leading estimate of B_N / B_{N-1} from mode depletion alone."""
    if composites < 1 or d < 1:
        raise ValueError("need composites >= 1, d >= 1")
    return Fraction(2 * d - composites + 1, 2 * d)


def depleted_norm(d: int) -> Fraction:
    """Normalization constant of the two-pair state left behind when one
    particle is removed from each of two trimers (coherently over modes)."""
    if d < 1:
        raise ValueError("need d >= 1")
    value = Fraction(power_sum_norm_sq(2, 2 * d, 2), (8 * d) ** 2)
    expected = Fraction(1, 2) + Fraction(1, 2 * d)
    if value != expected:
        raise AssertionError("pair power-sum norm departs from its closed form")
    return value


@dataclass(frozen=True)
class CobosonReport:
    composite_count: int
    mode_count: int
    norm_constant: Fraction
    ratio_to_previous: Fraction
    approx_ratio: Fraction


def coboson_report(composites: int, d: int, constituents: int = 3) -> CobosonReport:
    norm = coboson_norm(composites, d, constituents)
    if composites == 1:
        previous = Fraction(1)
    else:
        previous = coboson_norm(composites - 1, d, constituents)
    return CobosonReport(
        composite_count=composites,
        mode_count=2 * d,
        norm_constant=norm,
        ratio_to_previous=norm / previous,
        approx_ratio=ratio_approx(composites, d),
    )


def norm_table(max_composites: int, d: int, constituents: int = 3) -> list[CobosonReport]:
    """Reports for 1 .. max_composites composites at fixed ring size."""
    if max_composites < 1:
        raise ValueError("need max_composites >= 1")
    return [coboson_report(n, d, constituents) for n in range(1, max_composites + 1)]
