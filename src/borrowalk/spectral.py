"""Momentum reduction of the projected evolution and survival probabilities.

Restricted to states with all particles on one site and aligned coins, the
projected step is invariant under ring translations, so it splits into d
two-by-two momentum blocks acting on the (all-right, all-left) pair of
amplitudes.  Post-removal mixtures are evolved either directly or through
these blocks; the two routes must agree.  The direct route evolves one member
per orbit of ring translations and, for two or more walkers, of the
reflection that mirrors positions and flips every coin: there the projected
step applies the contact coin only, which commutes with flipping every coin,
so mirrored members share one norm trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .evolution import MAX_POWER_ENTRIES, contact_weights, projected_step, require_bytes_fit
from .lattice import (
    Ensemble,
    PureState,
    check_phase,
    code_weights,
    colocated_unit,
    complex_mul,
    complex_parts,
    momentum_phases,
    positions,
    turn_table,
)

# momentum_bytes per site (the two mixture members and the block entries)
# and per output row (JSON text is the larger format), rounded up from
# traced peaks of survival requests: 1.4 KiB per site for the pair, 1.7 KiB
# for the triple, and 370 bytes per JSON row
_SITE_BYTES = 2048
_ROW_BYTES = 512


def _stay_flip(m: int, phi) -> tuple[complex, complex]:
    """(c_0, c_m) of the contact coin: the amplitudes for an aligned group of
    m to keep its joint direction and to reverse it."""
    weights = contact_weights(m, phi)
    return complex(weights[0]), complex(weights[-1])


@dataclass(frozen=True)
class MomentumBlock:
    """Projected pair step in one momentum sector, basis (both-right, both-left)."""

    momentum_index: int
    site_count: int
    matrix: np.ndarray


def momentum_block(k: int, d: int, phi) -> MomentumBlock:
    forward, backward = momentum_phases(k, d)
    check_phase(phi)
    stay, flip = _stay_flip(2, phi)
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
    plus, minus = _block_roots(np.array([k]), d, phi)
    return complex(plus[0]), complex(minus[0])


def spectrum_norms(d: int, phi) -> list[tuple[float, float, float]]:
    """Rows (k/d, |lambda_plus|, |lambda_minus|) over all momentum sectors,
    equal to block_eigenvalues at every k bit for bit."""
    if d < 1:
        raise ValueError("ring size d must be at least 1")
    plus, minus = _block_roots(np.arange(d), d, phi)
    # np.hypot, not np.abs, is what abs() of a Python complex computes
    plus = np.hypot(plus.real, plus.imag)
    minus = np.hypot(minus.real, minus.imag)
    return list(zip((np.arange(d) / d).tolist(), plus.tolist(), minus.tolist()))


def _block_roots(k: np.ndarray, d: int, phi) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues stay*cos(t) +- root of the momentum blocks k, t = 2*pi*k/d,
    with root = sqrt(flip**2 - (stay*sin(t))**2) on the branch where
    root/flip has a non-negative real part.

    No ratio of the amplitudes is formed, so a flip amplitude that is tiny or
    rounds to zero at phases near 0 needs no special case.
    """
    check_phase(phi)
    stay, flip = _stay_flip(2, phi)
    cos_t, sin_t = turn_table(2 * k, d)
    root = np.sqrt(flip * flip - (stay * sin_t) ** 2)
    root[(root * flip.conjugate()).real < 0] *= -1
    # there the root of flip**2 is flip itself; taking it exactly keeps the
    # persistent eigenvalues +1 and -1 exact at resonance
    root[sin_t == 0] = flip
    base = stay * cos_t
    return base + root, base - root


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


def _orbit_keys(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (position code, coin column) of the orbit of every
    single-label member, in member order.

    The projected step commutes with ring translations, so a member is keyed
    by its form shifted to put the first particle at the origin.  For n >= 2
    it also commutes with the reflection x -> -x that flips every coin: it
    coins only rows with every walker on one site, with the contact coin,
    whose entries depend on popcount(a ^ b) alone; the reflection swaps the
    all-right and the all-left move; pruning acts entry by entry.  The key is
    then the smaller of the shifted form and its mirror as (positions, coins)
    tuples: by code, then by coin tuple, which ascends as last ^ column does
    (a left mover, -1, sorts first).  One walker gets the free coin, which is
    not reflection-symmetric (Hadamard), so it is keyed by translation alone.
    """
    cfg = ensemble.config
    n, d = cfg.particle_count, cfg.site_count
    places = positions(ensemble.codes, cfg)
    weights = code_weights(n, d)
    codes = ((places - places[:, :1]) % d) @ weights
    cols = ensemble.cols
    if n == 1:
        return codes, cols
    mirror = ((places[:, :1] - places) % d) @ weights
    flipped = cols ^ ((1 << n) - 1)
    # the mirror's coin column is `flipped`, so its coin order is `cols`
    smaller = (mirror < codes) | ((mirror == codes) & (cols < flipped))
    return np.where(smaller, mirror, codes), np.where(smaller, flipped, cols)


def _orbit_representatives(ensemble: Ensemble) -> list[tuple[float, PureState]]:
    """One unit member per orbit of the single-label members, in ascending key
    order, weighted by the orbit's total weight summed in member order."""
    cfg = ensemble.config
    dim = 1 << cfg.particle_count
    codes, cols = _orbit_keys(ensemble)
    # lexsort is stable, so each orbit keeps its members in member order
    order = np.lexsort((cols ^ (dim - 1), codes))
    codes, cols, weights = codes[order], cols[order], ensemble.weights[order]
    # the first member of every orbit
    starts = np.flatnonzero(np.diff(codes, prepend=-1) | np.diff(cols, prepend=-1))
    representatives = []
    for start, stop in zip(starts.tolist(), [*starts[1:].tolist(), len(codes)]):
        block = np.zeros((1, dim), dtype=complex)
        block[0, cols[start]] = 1.0
        state = PureState.from_arrays(cfg, codes[start : start + 1], block, ensemble.prune_epsilon)
        # a running sum, as adding the weights one by one; np.sum pairs them
        representatives.append((float(np.cumsum(weights[start:stop])[-1]), state))
    return representatives


def _survival_direct(ensemble: Ensemble, t_max: int) -> list[tuple[int, float]]:
    representatives = ensemble.loose + _orbit_representatives(ensemble)
    totals = [0.0] * (t_max + 1)
    for weight, state in representatives:
        current = state
        totals[0] += weight * current.norm_sq()
        for t in range(1, t_max + 1):
            current = projected_step(current)
            totals[t] += weight * current.norm_sq()
    return list(enumerate(totals))


def _require_uniform_aligned_mixture(ensemble: Ensemble) -> None:
    """Refuse a mixture other than one unit member of weight 1/(2d) per site
    and direction, co-located and aligned; the first faulty member names the
    fault."""
    cfg = ensemble.config
    n, d = cfg.particle_count, cfg.site_count
    if ensemble.loose:
        raise ValueError("momentum method expects single-label unit members")
    sites, offsets = np.divmod(ensemble.codes, colocated_unit(n, d))
    cols = ensemble.cols
    misplaced = (offsets != 0) | ((cols != 0) & (cols != (1 << n) - 1))
    faulty = misplaced | (np.abs(ensemble.weights - 1.0 / (2 * d)) > 1e-9)
    if faulty.any():
        if misplaced[faulty.argmax()]:
            raise ValueError("momentum method expects co-located aligned members")
        raise ValueError("momentum method expects uniform weights 1/(2d)")
    # 2d members on 2d (site, direction) slots: one each when no slot is empty
    if len(cols) != 2 * d or not np.bincount(2 * sites + (cols != 0), minlength=2 * d).all():
        raise ValueError("momentum method expects one member per site and direction")


def _momentum_span(d: int, t_max: int) -> int:
    """Powers B^0 .. B^(span-1) the momentum route stacks: about sqrt(t_max),
    which balances the set-up loop against the chunk loop, with span * d
    capped at MAX_POWER_ENTRIES."""
    return max(1, min(math.isqrt(t_max + 1), MAX_POWER_ENTRIES // d))


def momentum_bytes(d: int, t_max: int) -> int:
    """Bytes the momentum route over d sites up to t_max holds at most.

    Per stacked entry (span * d of them): four complex powers, four complex
    products and two complex temporaries.  Per site: the site's two mixture
    members and a dozen complex block entries.  Per output row: the float
    totals, the (t, p) tuple and its printed line.
    """
    span = _momentum_span(d, t_max)
    return span * d * 10 * 16 + d * _SITE_BYTES + (t_max + 1) * _ROW_BYTES


def require_momentum_fits(d: int, t_max: int) -> None:
    """Refuse a momentum survival request whose momentum_bytes exceed the limit."""
    require_bytes_fit(momentum_bytes(d, t_max), f"momentum survival over {d} sites up to t={t_max}")


def _survival_momentum(ensemble: Ensemble, t_max: int) -> list[tuple[int, float]]:
    """p(t) = sum_k ||B_k^t||_F^2 / (2d) over the momentum blocks B_k of the
    remainder's contact coin, built from its (stay, flip) = (c_0, c_n)."""
    cfg = ensemble.config
    if cfg.free_coin != "identity":
        raise ValueError("momentum method requires the identity free coin")
    _require_uniform_aligned_mixture(ensemble)
    n, d = cfg.particle_count, cfg.site_count
    blocks = _pair_blocks(d, *_stay_flip(n, cfg.interaction_phase))
    norms = _power_norms(blocks, t_max, _momentum_span(d, t_max))
    return list(enumerate((norms / (2 * d)).tolist()))


def _power_norms(blocks: np.ndarray, t_max: int, span: int) -> np.ndarray:
    """sum_k ||B_k^t||_F^2 for t = 0 .. t_max over stacked (d, 2, 2) blocks.

    B^s for s < span is built by repeated products.  Chunk q then forms
    B^s B^(q*span) for every s at once and advances by B^span, so the Python
    loops run about span + t_max/span times.  Every block is a contraction,
    so rounding error grows at most linearly in t.
    """
    block = blocks.reshape(-1, 4).T.copy()
    powers = np.zeros((4, span, len(blocks)), dtype=complex)
    powers[0, 0] = powers[3, 0] = 1.0
    for s in range(1, span):
        powers[:, s] = _product(block, powers[:, s - 1])
    advance = _product(block, powers[:, -1])
    current = powers[:, 0]
    totals = np.empty(t_max + 1)
    for start in range(0, t_max + 1, span):
        rows = min(span, t_max + 1 - start)
        # each entry's |z|^2 summed over k, read off its (real, imag) pairs
        pairs = [z.view(float) for z in _product(powers[:, :rows], current)]
        totals[start : start + rows] = sum(np.einsum("sk,sk->s", v, v) for v in pairs)
        current = _product(advance, current)
    return totals


def _product(x, y):
    """2x2 product x @ y, each given by its entries (00, 01, 10, 11) as arrays."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11, x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _pair_blocks(d: int, stay: complex, flip: complex) -> np.ndarray:
    """Every momentum_block matrix for the ring, stacked to shape (d, 2, 2),
    equal to the per-k scalar expressions bit for bit."""
    doubled = 2 * np.arange(d)
    backward = turn_table(doubled, d)
    forward = turn_table(-doubled, d)
    stay, flip = complex_parts(stay), complex_parts(flip)
    blocks = np.empty((d, 2, 2), dtype=complex)
    for (i, j), amp, turn in (
        ((0, 0), stay, forward),
        ((0, 1), flip, forward),
        ((1, 0), flip, backward),
        ((1, 1), stay, backward),
    ):
        blocks.real[:, i, j], blocks.imag[:, i, j] = complex_mul(amp, turn)
    return blocks
