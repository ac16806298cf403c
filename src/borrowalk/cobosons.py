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
from math import comb, factorial, lgamma, log

# Largest squared norm, in bits, and largest N^2 * bits a coboson request may
# reach: the series does about N^2 / 2 products of such integers, and past
# about 2**16 bits a product costs more than its bits (N = 45 at 2**20 bits
# took 18 s).  Near the edges, on a 2-CPU box, N = 400, c = 3 (10,900 bits)
# takes 1.1 s and N = 181, c = 28 (55,000 bits) 2.5 s.
MAX_NORM_BITS = 1 << 16
MAX_SERIES_WORK = 1 << 31


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


def norm_bits(composites: int, d: int, constituents: int) -> float:
    """Upper bound on log2 h_N for N = composites over 2d modes, from lgamma.

    h_N sums over at most C(N + 2d - 1, N) occupations n_i, each weighing
    (N!/prod n_i!)^2 prod (c n_i)! <= (cN)! for c >= 2.
    """
    modes = 2 * d
    return (
        lgamma(composites + modes) - lgamma(composites + 1) - lgamma(modes) + lgamma(constituents * composites + 1)
    ) / log(2)


def require_series_fits(composites: int, d: int, constituents: int) -> None:
    """Refuse a coboson request whose norm_bits exceed MAX_NORM_BITS, or whose
    composites^2 times them exceed MAX_SERIES_WORK, before any factorial is
    formed."""
    # sizes no float can carry are past both bounds anyway
    if max(composites, d, constituents) < 1 << 53:
        bits = norm_bits(composites, d, constituents)
        if bits <= MAX_NORM_BITS and composites**2 * bits <= MAX_SERIES_WORK:
            return
        size = f"integers of about {bits:.0f} bits, {composites**2 * bits:.3g} for N^2 * bits"
    else:
        size = "sizes past 2**53"
    raise ValueError(
        f"B_{composites} of {constituents}-particle multiplets on {d} sites needs {size}, "
        f"past the limits of {MAX_NORM_BITS} bits and {MAX_SERIES_WORK} for N^2 * bits"
    )


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
