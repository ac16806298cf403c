"""Momentum reduction of the projected evolution and survival probabilities.

Restricted to states with all particles on one site and aligned coins, the
projected step is invariant under ring translations, so it splits into d
two-by-two momentum blocks acting on the (all-right, all-left) pair of
amplitudes.  Post-removal mixtures are evolved either directly or through
these blocks; the two routes must agree.  The direct route is a real-space
walk of one fixed member per orbit of the mixture under ring translations
and, for two or more walkers, the reflection that mirrors positions and
flips every coin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .evolution import (
    contact_weights,
    projected_step,
    require_bytes_fit,
    walk_bytes,
    walk_rows,
)
from .lattice import (
    Ensemble,
    PureState,
    check_phase,
    colocated_unit,
    complex_mul,
    complex_parts,
    momentum_phases,
    turn_table,
)

# Entries (span x d) of each stacked array of momentum-block powers in the
# momentum survival route; keeps its working set small whatever t_max is.
MAX_POWER_ENTRIES = 1 << 15

# momentum_bytes per site (the two mixture members and the block entries)
# and per output row (JSON text is the larger format), rounded up from
# traced peaks of survival requests: 1.4 KiB per site for the pair, 1.7 KiB
# for the triple, and 370 bytes per JSON row
_SITE_BYTES = 2048
_ROW_BYTES = 512


def _stay_flip(m: int, phi) -> tuple[complex, complex]:
    """(c_0, c_m) of the contact coin: the amplitudes for an aligned group of
    m to keep its joint direction and to reverse it.  Refuses a phase outside
    (0, 2*pi)."""
    weights = contact_weights(m, check_phase(phi))
    return complex(weights[0]), complex(weights[-1])


@dataclass(frozen=True)
class MomentumBlock:
    """Projected pair step in one momentum sector, basis (both-right, both-left)."""

    momentum_index: int
    site_count: int
    matrix: np.ndarray


def momentum_block(k: int, d: int, phi) -> MomentumBlock:
    # refuses a momentum outside [0, d) and an empty ring
    momentum_phases(k, d)
    entries = _pair_blocks(np.array([k]), d, *_stay_flip(2, phi))
    matrix = np.stack(entries, axis=-1).reshape(2, 2)
    matrix.setflags(write=False)
    return MomentumBlock(k, d, matrix)


def block_eigenvalues(k: int, d: int, phi) -> tuple[complex, complex]:
    """Both closed-form roots of the momentum block.

    The square-root branch is anchored at the flip amplitude, which puts the
    persistent eigenvalue +1 on the minus root at k = 0 and -1 on the plus
    root at k = d/2.
    """
    # refuses a momentum outside [0, d) and an empty ring, as momentum_block does
    momentum_phases(k, d)
    plus, minus = _block_roots(np.array([k]), d, *_stay_flip(2, phi))
    return complex(plus[0]), complex(minus[0])


def spectrum_norms(d: int, phi) -> list[tuple[float, float, float]]:
    """Rows (k/d, |lambda_plus|, |lambda_minus|) over all momentum sectors,
    equal to block_eigenvalues at every k bit for bit."""
    if d < 1:
        raise ValueError("ring size d must be at least 1")
    plus, minus = _block_roots(np.arange(d), d, *_stay_flip(2, phi))
    # np.hypot, not np.abs, is what abs() of a Python complex computes
    plus = np.hypot(plus.real, plus.imag)
    minus = np.hypot(minus.real, minus.imag)
    return list(zip((np.arange(d) / d).tolist(), plus.tolist(), minus.tolist()))


def _block_roots(k: np.ndarray, d: int, stay: complex, flip: complex) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues stay*cos(t) +- root of the momentum blocks k, t = 2*pi*k/d,
    of the aligned pair (stay, flip), with root = sqrt(flip**2 -
    (stay*sin(t))**2) on the branch where root/flip has a non-negative real
    part.

    No ratio of the amplitudes is formed, so a flip amplitude that is tiny or
    rounds to zero at phases near 0 needs no special case.
    """
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


def _survival_direct(ensemble: Ensemble, t_max: int) -> list[tuple[int, float]]:
    """Real-space walk of one unit member per orbit of the removal mixture.

    The projected step commutes with ring translations.  For n >= 2 it also
    commutes with the reflection x -> -x that flips every coin: it coins only
    rows with every walker on one site, with the contact coin, whose entries
    depend on popcount(a ^ b) alone, and pruning acts entry by entry.  So
    every member shares the norm trajectory of the all-left unit state at
    the origin.  One walker gets the free coin, which is not
    reflection-symmetric (Hadamard), so its all-left and all-right members
    are walked apart, in that order.  Each walk is weighted by the running
    sum of its members' weights in member order.
    """
    cfg = ensemble.config
    dim = 1 << cfg.particle_count
    weights, left = ensemble.weights, ensemble.cols == dim - 1
    # (coin column of the walked state, weights of the members it stands for)
    walks = [(dim - 1, weights[left]), (0, weights[~left])] if cfg.particle_count == 1 else [(dim - 1, weights)]
    totals = [0.0] * (t_max + 1)
    for col, members in walks:
        if not len(members):
            continue
        # a running sum, as adding the weights one by one; np.sum pairs them
        weight = float(np.cumsum(members)[-1])
        block = np.zeros((1, dim), dtype=complex)
        block[0, col] = 1.0
        current = PureState(cfg, np.zeros(1, dtype=np.int64), block)
        totals[0] += weight * current.norm_sq()
        for t in range(1, t_max + 1):
            current = projected_step(current)
            totals[t] += weight * current.norm_sq()
    return list(enumerate(totals))


def _require_uniform_aligned_mixture(ensemble: Ensemble) -> None:
    """Refuse a mixture other than one member of weight 1/(2d) per site and
    direction."""
    cfg = ensemble.config
    n, d = cfg.particle_count, cfg.site_count
    if (np.abs(ensemble.weights - 1.0 / (2 * d)) > 1e-9).any():
        raise ValueError("momentum method expects uniform weights 1/(2d)")
    sites = ensemble.codes // colocated_unit(n, d)
    cols = ensemble.cols
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


def require_survival_fits(n: int, d: int, t_max: int, method: str) -> None:
    """Refuse a survival request of n walkers over d sites up to t_max that
    would hold more than the limit: momentum_bytes on the momentum route; on
    the direct route, its walk and the output rows momentum_bytes counts."""
    if method == "momentum":
        need = momentum_bytes(d, t_max)
    else:
        need = walk_bytes(n, walk_rows(n, d, t_max, projected=True)) + (t_max + 1) * _ROW_BYTES
    require_bytes_fit(need, f"{method} survival of {n} walkers over {d} sites up to t={t_max}")


def _survival_momentum(ensemble: Ensemble, t_max: int) -> list[tuple[int, float]]:
    """p(t) = sum_k ||B_k^t||_F^2 / (2d) over the momentum blocks B_k of the
    remainder's contact coin, built from its (stay, flip) = (c_0, c_n)."""
    cfg = ensemble.config
    n, d = cfg.particle_count, cfg.site_count
    # two or more walkers are coined only all on one site, with the contact
    # coin alone; one walker gets the free coin, which the blocks leave out
    if n == 1 and cfg.free_coin != "identity":
        raise ValueError("momentum method requires the identity free coin for one walker")
    _require_uniform_aligned_mixture(ensemble)
    blocks = _pair_blocks(np.arange(d), d, *_stay_flip(n, cfg.interaction_phase))
    norms = _power_norms(blocks, t_max, _momentum_span(d, t_max))
    return list(enumerate((norms / (2 * d)).tolist()))


def _power_norms(blocks, t_max: int, span: int) -> np.ndarray:
    """sum_k ||B_k^t||_F^2 for t = 0 .. t_max over the blocks B_k, given by
    their entries (00, 01, 10, 11) as arrays over k.

    B^s for s < span is built by repeated products.  Chunk q then forms
    B^s B^(q*span) for every s at once and advances by B^span, so the Python
    loops run about span + t_max/span times.  Every block is a contraction,
    so rounding error grows at most linearly in t.
    """
    powers = np.zeros((4, span, len(blocks[0])), dtype=complex)
    powers[0, 0] = powers[3, 0] = 1.0
    for s in range(1, span):
        powers[:, s] = _product(blocks, powers[:, s - 1])
    advance = _product(blocks, powers[:, -1])
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


def _pair_blocks(k: np.ndarray, d: int, stay: complex, flip: complex) -> tuple[np.ndarray, ...]:
    """Entries (00, 01, 10, 11) of the momentum blocks k of the aligned pair
    (stay, flip), basis (all right, all left), each an array over k:
    [[stay * forward, flip * forward], [flip * backward, stay * backward]]
    with the hop phases of momentum_phases, every complex product as
    CPython's."""
    doubled = 2 * k
    backward = turn_table(doubled, d)
    forward = turn_table(-doubled, d)
    stay, flip = complex_parts(stay), complex_parts(flip)
    entries = []
    for amp, turn in ((stay, forward), (flip, forward), (flip, backward), (stay, backward)):
        entry = np.empty(len(doubled), dtype=complex)
        entry.real, entry.imag = complex_mul(amp, turn)
        entries.append(entry)
    return tuple(entries)
