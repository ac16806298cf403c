"""Collectively moving multiplets and the alignment condition that selects them.

A bound multiplet is a uniform or alternating wave of all particles on one
site, dressed with a two-branch coin state beta|R..R> + gamma|L..L>.  The
walk step maps that coin state through the full contact product and a
momentum phase; the multiplet is exact exactly when the phased overlap has
modulus one.  The grid scan evaluates that modulus twice from one table of
phase factors: from the aligned pair (c_0, c_m) of the contact coin, and from
the sector expansion over rotated-basis strings.  The two share their
inputs, so they are not independent routes; tests/oracles.py keeps the dense
coin-space and per-point references they are checked against.  The mixture
left behind after one particle is lost completes the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

import numpy as np

from .evolution import contact_parts, require_scan_fits, step
from .lattice import (
    Ensemble,
    LatticeConfig,
    PureState,
    colocated_unit,
    complex_add,
    complex_mul,
    complex_parts,
    inner_product,
    momentum_phases,
    phase_factor,
    turn_table,
)

_BRANCH_SIGN = {2: -1.0, 3: 1.0, 4: -1.0}


@dataclass(frozen=True)
class GhzSpec:
    """Coefficients of the two-branch coin state beta|R..R> + gamma|L..L>."""

    arity: int
    beta: complex
    gamma: complex

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("a two-branch coin state needs at least 2 particles")
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        weight = abs(self.beta) ** 2 + abs(self.gamma) ** 2
        if abs(weight - 1.0) > 1e-12:
            raise ValueError("branch weights must sum to one")

    @classmethod
    def symmetric(cls, arity: int) -> "GhzSpec":
        s = 1.0 / math.sqrt(2.0)
        return cls(arity, s, s)

    @classmethod
    def antisymmetric(cls, arity: int) -> "GhzSpec":
        s = 1.0 / math.sqrt(2.0)
        return cls(arity, s, -s)


def bound_state(config: LatticeConfig, arity: int, r: int = 0) -> PureState:
    """Bound multiplet of 2, 3 or 4 particles.

    r = 0 gives the uniform position wave (step eigenvalue +1 at resonance),
    r = 1 the sign-alternating wave (eigenvalue -1), which needs an even ring.
    The coin branch sign is fixed by the particle number: the pair and the
    quadruple bind on the antisymmetric branch combination, the triple on the
    symmetric one.
    """
    if arity not in _BRANCH_SIGN:
        raise ValueError("bound multiplets exist for 2, 3 or 4 particles only")
    if arity != config.particle_count:
        raise ValueError("arity must match the lattice particle count")
    if r not in (0, 1):
        raise ValueError("r selects the uniform (0) or alternating (1) wave")
    d = config.site_count
    if r == 1 and d % 2:
        raise ValueError("the alternating wave needs an even ring")
    sign = _BRANCH_SIGN[arity]
    amp = 1.0 / math.sqrt(2 * d)
    wave = np.full(d, amp)
    if r == 1:
        wave[1::2] = -amp
    block = np.zeros((d, 1 << arity), dtype=complex)
    block[:, 0] = wave
    block[:, -1] = sign * wave
    codes = np.arange(d, dtype=np.int64) * colocated_unit(arity, d)
    return PureState(config, codes, block)


@dataclass(frozen=True)
class EigenReport:
    is_eigenvector: bool
    eigenvalue: complex
    residual: float


def verify_eigenstate(state: PureState, tol: float = 1e-12) -> EigenReport:
    """Estimate the step eigenvalue by the Rayleigh quotient <s|A s>/<s|s> and
    measure ||A s - lambda s|| relative to ||s||; any nonzero multiple of an
    eigenvector passes."""
    norm_sq = state.norm_sq()
    if norm_sq == 0.0:
        raise ValueError("the zero state has no eigenvalue")
    image = step(state)
    lam = inner_product(state, image) / norm_sq
    codes = np.union1d(state.codes, image.codes)
    delta = np.zeros((len(codes), state.block.shape[1]), dtype=complex)
    delta[np.searchsorted(codes, image.codes)] = image.block
    delta[np.searchsorted(codes, state.codes)] -= lam * state.block
    residual = math.sqrt(float(np.vdot(delta, delta).real) / norm_sq)
    return EigenReport(residual <= tol, lam, residual)


@dataclass(frozen=True)
class ConditionPoint:
    arity: int
    phase: float | Fraction
    momentum_index: int
    ghz: GhzSpec
    value: float
    closed_form_value: float


def _contact_phases(phases, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of exp(i*phi*C(p, 2)) for every phase and
    p = 0..top, each entry phase_factor's to the bit: one turn_table over the
    common denominator of a grid of Fractions, phase_factor otherwise."""
    multiples = [comb(p, 2) for p in range(top + 1)]
    if all(isinstance(phi, Fraction) for phi in phases):
        denominator = math.lcm(*(phi.denominator for phi in phases))
        # below 2**30 every reduced turn count and product fits an int64
        if denominator < 1 << 30:
            period = 2 * denominator
            steps = [phi.numerator * (denominator // phi.denominator) % period for phi in phases]
            turns = np.outer(np.array(steps, dtype=np.int64), np.array(multiples, dtype=np.int64) % period)
            return tuple(part.reshape(turns.shape) for part in turn_table(turns.ravel(), denominator))
    table = np.array([[phase_factor(phi, m) for m in multiples] for phi in phases], dtype=complex)
    table = table.reshape(len(phases), len(multiples))
    return table.real, table.imag


def _sector_values(ghz: GhzSpec, forward: complex, backward: complex, re, im) -> np.ndarray:
    """Condition value from the sector expansion over rotated-basis strings,
    grouped by their number z of antisymmetric factors, at a batch of phases:
    |sum_z C(m, z) 2**-m bra_z ket_z exp(i*phi*C(m - z, 2))|, where re and im
    hold exp(i*phi*C(p, 2)) for p = 0..m, one row per phase.

    Expanding the all-left branch in the rotated basis contributes gamma
    times (-1)**z, hence the sign below.  The sum runs over z in ascending
    order, the phase product and the sum one float operation at a time.
    """
    m = ghz.arity
    scale = 1.0 / (1 << m)
    total = (0.0, 0.0)
    for zeros in range(m + 1):
        sign = -1.0 if zeros % 2 else 1.0
        bra = ghz.beta.conjugate() * forward + ghz.gamma.conjugate() * backward * sign
        ket = ghz.beta + ghz.gamma * sign
        weight = complex_parts(comb(m, zeros) * scale * bra * ket)
        total = complex_add(total, complex_mul(weight, (re[:, m - zeros], im[:, m - zeros])))
    return np.hypot(*total)


def scan_conditions(
    arities,
    phases,
    k_values=(0, 1),
    signs=("symmetric", "antisymmetric"),
    d: int = 2,
    threshold: float = 1.0 - 1e-9,
) -> list[ConditionPoint]:
    """Grid search for parameter points where the alignment condition reaches one.

    Returns every grid point whose condition value meets the threshold,
    together with the sector-expansion value at the same point.  No
    contact-coin matrix is formed: the coin maps beta|R..R> + gamma|L..L> to
    (c_0 beta + c_m gamma)|R..R> + (c_m beta + c_0 gamma)|L..L>, and (c_0, c_m)
    come from one contact_parts pass over the whole grid per arity.  The
    sector expansion of every hit of one arity, branch sign and momentum is
    one array pass.  Both read one table of phase factors, and every complex
    product and sum is spelled out one float operation at a time, so the two
    columns equal the dense and the per-point references of tests/oracles.py
    to the bit.
    """
    arities = list(arities)
    require_scan_fits(len(phases), arities)
    spec_of = {"symmetric": GhzSpec.symmetric, "antisymmetric": GhzSpec.antisymmetric}
    momenta = [momentum_phases(k, d) for k in k_values]
    table = _contact_phases(phases, max(arities, default=0))
    points = []
    for arity in arities:
        re_table, im_table = (part[:, : arity + 1] for part in table)
        re, im = contact_parts(arity, re_table, im_table, (0, arity))
        stay, flip = (re[:, 0], im[:, 0]), (re[:, 1], im[:, 1])
        for name in signs:
            ghz = spec_of[name](arity)
            beta, gamma = complex_parts(ghz.beta), complex_parts(ghz.gamma)
            top = complex_add(complex_mul(stay, beta), complex_mul(flip, gamma))
            bottom = complex_add(complex_mul(flip, beta), complex_mul(stay, gamma))
            values = np.empty((len(phases), len(momenta)))
            closed = np.empty_like(values)
            for column, (forward, backward) in enumerate(momenta):
                # conj(beta) * forward * top + conj(gamma) * backward * bottom
                bra_top = complex_parts(ghz.beta.conjugate() * forward)
                bra_bottom = complex_parts(ghz.gamma.conjugate() * backward)
                overlap = complex_add(complex_mul(bra_top, top), complex_mul(bra_bottom, bottom))
                # np.hypot, not np.abs, is what abs() of a Python complex computes
                values[:, column] = np.hypot(*overlap)
                hit = values[:, column] >= threshold
                closed[hit, column] = _sector_values(ghz, forward, backward, re_table[hit], im_table[hit])
            for row, column in zip(*np.nonzero(values >= threshold)):
                value, closed_value = float(values[row, column]), float(closed[row, column])
                points.append(ConditionPoint(arity, phases[row], k_values[column], ghz, value, closed_value))
    return points


def remove_particle(state: PureState) -> Ensemble:
    """Trace out the last particle of a collectively bound state.

    Every stored label must put all particles on one site with one shared
    coin direction.  Conditioning on the removed particle then distinguishes
    the remaining labels completely, so the reduced state is the diagonal
    mixture of shortened labels weighted by squared amplitudes, in label
    order, held as arrays.
    """
    cfg = state.config
    n = cfg.particle_count
    if n < 2:
        raise ValueError("nothing to remove from a single particle")
    d = cfg.site_count
    reduced_cfg = replace(cfg, particle_count=n - 1)
    dim = state.block.shape[1]
    rows, cols = state.entries()
    sites, offsets = np.divmod(state.codes[rows], colocated_unit(n, d))
    if offsets.any() or ((cols != 0) & (cols != dim - 1)).any():
        raise ValueError("particle removal supports collectively bound states only")
    amps = state.block[rows, cols]
    weights = amps.real * amps.real + amps.imag * amps.imag
    # a squared modulus can underflow to zero
    kept = weights != 0.0
    return Ensemble(reduced_cfg, sites[kept] * colocated_unit(n - 1, d), cols[kept] >> 1, weights[kept])
