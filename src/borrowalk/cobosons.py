"""Exact normalization constants for composites of the bound multiplets.

Treating each bound multiplet as the creation operator sum_i a_i^dag^c over
the 2d single-multiplet modes, the squared norm h_N of its N-th power on the
vacuum is (N!)^2 times the coefficient of x^N in (sum_k (ck)!/(k!)^2 x^k)^(2d).
One integer recurrence for that power gives h_0 .. h_N in a single pass.
Everything here is exact rational arithmetic; floats only size a request.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .limits import require_series_fits


def power_sum_norm_sq(factors: int, modes: int, quanta: int) -> list[int]:
    """Squared norms h_0 .. h_factors of (sum_{i<modes} a_i^dag^quanta)^n |0>.

    h_n is (n!)^2 times the coefficient of x^n in g(x)^modes, with
    g(x) = sum_k (quanta k)!/(k!)^2 x^k.  The power recurrence for g^modes,
    n f_n = sum_{k=1..n} ((modes + 1) k - n) g_k f_{n-k}, becomes in these
    integers n h_n = sum_k ((modes + 1) k - n) C(n, k)^2 (quanta k)! h_{n-k},
    and the division by n is exact.
    """
    if factors < 0 or modes < 1 or quanta < 1:
        raise ValueError("need factors >= 0, modes >= 1, quanta >= 1")
    weights = [factorial(quanta * k) for k in range(factors + 1)]
    norms = [1]
    for n in range(1, factors + 1):
        total = sum(
            ((modes + 1) * k - n) * comb(n, k) ** 2 * weights[k] * norms[n - k] for k in range(1, n + 1)
        )
        norms.append(total // n)
    return norms


def _norm_constants(composites: int, d: int, constituents: int) -> tuple[Fraction, Fraction]:
    """B_{N-1} and B_N for N = composites, from one series."""
    if composites < 1 or d < 1 or constituents < 2:
        raise ValueError("need composites >= 1, d >= 1, constituents >= 2")
    require_series_fits(composites, d, constituents)
    raw = power_sum_norm_sq(composites, 2 * d, constituents)
    unit = factorial(constituents) * 2 * d
    return tuple(Fraction(raw[n], unit**n * factorial(n)) for n in (composites - 1, composites))


def coboson_norm(composites: int, d: int, constituents: int = 3) -> Fraction:
    """Normalization constant for `composites` copies of a bound multiplet of
    `constituents` particles on a d-site ring."""
    return _norm_constants(composites, d, constituents)[1]


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
    value = Fraction(power_sum_norm_sq(2, 2 * d, 2)[2], (8 * d) ** 2)
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
    previous, norm = _norm_constants(composites, d, constituents)
    return CobosonReport(
        composite_count=composites,
        mode_count=2 * d,
        norm_constant=norm,
        ratio_to_previous=norm / previous,
        approx_ratio=ratio_approx(composites, d),
    )
