"""Momentum reduction of the projected pair evolution and survival probabilities.

Restricted to states with both particles on one site and aligned coins, the
projected step is invariant under ring translations, so it splits into d
two-by-two momentum blocks acting on the (both-right, both-left) pair of
amplitudes.  Post-removal mixtures are evolved either directly, member by
member, or through these blocks; the two routes must agree.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .evolution import projected_step
from .lattice import (
    Ensemble,
    PureState,
    check_phase,
    coin_tuples,
    make_basis_state,
    phase_factor,
    positions,
    turn_table,
)

_DEGENERACY_TOL = 1e-10


def aligned_pair_amplitudes(phi) -> tuple[complex, complex]:
    """(stay, flip) for an aligned co-located pair under the contact coin:
    the amplitude to keep the joint direction and the amplitude to reverse it."""
    flip = (phase_factor(phi) - 1.0) / 4.0
    return 1.0 + flip, flip


@dataclass(frozen=True)
class MomentumBlock:
    """Projected pair step in one momentum sector, basis (both-right, both-left)."""

    momentum_index: int
    site_count: int
    matrix: np.ndarray


def momentum_block(k: int, d: int, phi) -> MomentumBlock:
    if not 0 <= k < d:
        raise ValueError("momentum index must lie in [0, d)")
    check_phase(phi)
    stay, flip = aligned_pair_amplitudes(phi)
    forward = phase_factor(Fraction(2 * k, d), -1)
    backward = phase_factor(Fraction(2 * k, d))
    matrix = np.array(
        [[stay * forward, flip * forward], [flip * backward, stay * backward]]
    )
    matrix.setflags(write=False)
    return MomentumBlock(k, d, matrix)


def block_eigenvalues(k: int, d: int, phi) -> tuple[complex, complex]:
    """Both closed-form roots of the momentum block.

    The square-root branch is anchored at the flip amplitude, which puts the
    persistent eigenvalue +1 on the minus root at k = 0 and -1 on the plus
    root at k = d/2.
    """
    check_phase(phi)
    stay, flip = aligned_pair_amplitudes(phi)
    w = phase_factor(Fraction(2 * k, d))
    cos_t, sin_t = w.real, w.imag
    root = flip * cmath.sqrt(1.0 - (stay / flip) ** 2 * (sin_t * sin_t))
    base = stay * cos_t
    return base + root, base - root


def spectrum_norms(d: int, phi) -> list[tuple[float, float, float]]:
    """Rows (k/d, |lambda_plus|, |lambda_minus|) over all momentum sectors.

    Array form of block_eigenvalues over k = 0 .. d-1, equal to it bit for
    bit: every complex operation is spelled out on real and imaginary arrays
    in the order CPython's complex arithmetic uses.
    """
    if d < 1:
        raise ValueError("ring size d must be at least 1")
    check_phase(phi)
    stay, flip = aligned_pair_amplitudes(phi)
    ratio_sq = (stay / flip) ** 2
    cos_t, sin_t = turn_table(2 * np.arange(d), d)
    # 1.0 - ratio_sq * (sin_t * sin_t)
    scaled = _mul(_parts(ratio_sq), (sin_t * sin_t, 0.0))
    root = _mul(_parts(flip), _csqrt(1.0 - scaled[0], 0.0 - scaled[1]))
    base = _mul(_parts(stay), (cos_t, 0.0))
    plus = np.hypot(base[0] + root[0], base[1] + root[1])
    minus = np.hypot(base[0] - root[0], base[1] - root[1])
    return list(zip((np.arange(d) / d).tolist(), plus.tolist(), minus.tolist()))


def _parts(z: complex) -> tuple[float, float]:
    return z.real, z.imag


def _mul(a, b):
    """CPython's complex product on (real, imag) pairs of floats or arrays;
    a float operand x enters as (x, 0.0), as CPython promotes it."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _csqrt(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cmath.sqrt over arrays, with CPython's algorithm; zero, subnormal and
    non-finite entries are handed to cmath.sqrt itself."""
    with np.errstate(all="ignore"):
        ax = np.abs(re) / 8.0
        ay = np.abs(im)
        s = 2.0 * np.sqrt(ax + np.hypot(ax, ay / 8.0))
        d = ay / (2.0 * s)
    upper = re >= 0.0
    out_re = np.where(upper, s, d)
    out_im = np.copysign(np.where(upper, d, s), im)
    tiny = sys.float_info.min
    special = (np.abs(re) < tiny) & (ay < tiny) | ~np.isfinite(re) | ~np.isfinite(im)
    for i in np.flatnonzero(special).tolist():
        z = cmath.sqrt(complex(re[i], im[i]))
        out_re[i], out_im[i] = z.real, z.imag
    return out_re, out_im


@dataclass(frozen=True)
class SurvivalSeries:
    site_count: int
    arity: int
    phase: float | Fraction
    values: list[tuple[int, float]]


def survival_probability(ensemble: Ensemble, t_max: int, method: str = "direct") -> SurvivalSeries:
    """Probability that the mixture is still collectively bound after each
    projected step, for t = 0 .. t_max."""
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    if method == "direct":
        values = _survival_direct(ensemble, t_max)
    elif method == "momentum":
        values = _survival_momentum(ensemble, t_max)
    else:
        raise ValueError(f"unknown survival method {method!r}")
    cfg = ensemble.config
    return SurvivalSeries(cfg.site_count, cfg.particle_count, cfg.interaction_phase, values)


def _unit_label(state: PureState):
    """(positions, coins) of a state holding one label with unit weight; None
    for any other state.  Read from the arrays directly: survival checks
    every one of the 2d members of a removal mixture."""
    if len(state.codes) != 1:
        return None
    row = state.block[0].tolist()
    cols = [col for col, a in enumerate(row) if a]
    if len(cols) != 1:
        return None
    amp = row[cols[0]]
    if abs(amp.real * amp.real + amp.imag * amp.imag - 1.0) > 1e-9:
        return None
    cfg = state.config
    return tuple(positions(state.codes, cfg)[0].tolist()), coin_tuples(cfg.particle_count)[cols[0]]


def _translation_key(state: PureState):
    """Canonical (positions, coins) for a single-label unit member, shifted so
    the first particle sits at the origin; None when that shape does not apply.

    The projected step commutes with ring translations, so members that only
    differ by a translation share one norm trajectory.
    """
    label = _unit_label(state)
    if label is None:
        return None
    pos, coins = label
    d = state.config.site_count
    return tuple((x - pos[0]) % d for x in pos), coins


def _survival_direct(ensemble: Ensemble, t_max: int) -> list[tuple[int, float]]:
    cfg = ensemble.config
    grouped: dict = {}
    loose: list[tuple[float, PureState]] = []
    for weight, member in ensemble.members:
        key = _translation_key(member)
        if key is None:
            loose.append((weight, member))
        else:
            grouped[key] = grouped.get(key, 0.0) + weight
    representatives = list(loose)
    for (pos, coins), weight in sorted(grouped.items()):
        representatives.append((weight, make_basis_state(cfg, pos, coins)))
    totals = [0.0] * (t_max + 1)
    for weight, state in representatives:
        current = state
        totals[0] += weight * current.norm_sq()
        for t in range(1, t_max + 1):
            current = projected_step(current)
            totals[t] += weight * current.norm_sq()
    return list(enumerate(totals))


def _require_uniform_pair_mixture(ensemble: Ensemble) -> None:
    cfg = ensemble.config
    d = cfg.site_count
    expected_weight = 1.0 / (2 * d)
    seen = set()
    for weight, member in ensemble.members:
        label = _unit_label(member)
        if label is None:
            raise ValueError("momentum method expects single-label unit members")
        pos, coins = label
        if len(set(pos)) != 1 or len(set(coins)) != 1:
            raise ValueError("momentum method expects co-located aligned members")
        if abs(weight - expected_weight) > 1e-9:
            raise ValueError("momentum method expects uniform weights 1/(2d)")
        seen.add((pos[0], coins[0]))
    if len(seen) != 2 * d or len(ensemble.members) != 2 * d:
        raise ValueError("momentum method expects one member per site and direction")


def _survival_momentum(ensemble: Ensemble, t_max: int) -> list[tuple[int, float]]:
    cfg = ensemble.config
    if cfg.particle_count != 2:
        raise ValueError("momentum method handles the two-particle mixture only")
    if cfg.free_coin != "identity":
        raise ValueError("momentum method requires the identity free coin")
    _require_uniform_pair_mixture(ensemble)
    d = cfg.site_count
    stay, flip = aligned_pair_amplitudes(cfg.interaction_phase)
    blocks, discriminant = _pair_blocks(d, stay, flip)
    degenerate_mask = np.hypot(*discriminant) <= _DEGENERACY_TOL
    diagonalizable = blocks[~degenerate_mask]
    degenerate = blocks[degenerate_mask]

    totals = np.zeros(t_max + 1)
    basis = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]

    if len(diagonalizable):
        eigenvalues, vectors = np.linalg.eig(diagonalizable)
        inverses = np.linalg.inv(vectors)
        coords = [inverses[:, :, 0], inverses[:, :, 1]]
        powers = np.ones_like(eigenvalues)
        for t in range(t_max + 1):
            for c in coords:
                recombined = np.einsum("kij,kj->ki", vectors, powers * c)
                totals[t] += float(np.sum(recombined.real**2 + recombined.imag**2))
            powers = powers * eigenvalues

    for block in degenerate:
        for e in basis:
            vec = e.copy()
            totals[0] += float(np.vdot(vec, vec).real)
            for t in range(1, t_max + 1):
                vec = block @ vec
                totals[t] += float(np.vdot(vec, vec).real)

    probabilities = totals / (2 * d)
    return [(t, float(p)) for t, p in enumerate(probabilities)]


def _pair_blocks(d: int, stay: complex, flip: complex):
    """Every momentum_block matrix for the ring, stacked to shape (d, 2, 2),
    and the discriminants flip**2 - (stay*sin(2*pi*k/d))**2, as (real, imag)
    arrays; both equal the per-k scalar expressions bit for bit."""
    doubled = 2 * np.arange(d)
    backward = turn_table(doubled, d)
    forward = turn_table(-doubled, d)
    flip_sq = flip * flip
    stay, flip = _parts(stay), _parts(flip)
    blocks = np.empty((d, 2, 2), dtype=complex)
    for (i, j), amp, turn in (
        ((0, 0), stay, forward),
        ((0, 1), flip, forward),
        ((1, 0), flip, backward),
        ((1, 1), stay, backward),
    ):
        blocks.real[:, i, j], blocks.imag[:, i, j] = _mul(amp, turn)
    # flip * flip - (stay * sin_t) ** 2, where CPython squares z as 1 * (z * z)
    scaled = _mul(stay, (backward[1], 0.0))
    squared = _mul((1.0, 0.0), _mul(scaled, scaled))
    return blocks, (flip_sq.real - squared[0], flip_sq.imag - squared[1])
