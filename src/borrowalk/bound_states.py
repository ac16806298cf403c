"""Collectively moving multiplets and the alignment condition that selects them.

A bound multiplet is a uniform or alternating wave of all particles on one
site, dressed with a two-branch coin state beta|R..R> + gamma|L..L>.  The
walk step maps that coin state through the full contact product and a
momentum phase; the multiplet is exact exactly when the phased overlap has
modulus one.  Both a dense coin-space evaluation of that modulus and a
closed sector expansion are provided, plus a grid scan and the mixture left
behind after one particle is lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

import numpy as np

from .evolution import contact_parts, interaction_group_matrix, require_scan_fits, step
from .lattice import (
    Ensemble,
    LatticeConfig,
    PureState,
    colocated_unit,
    complex_add,
    complex_mul,
    complex_parts,
    inner_product,
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


def ghz_coin(spec: GhzSpec) -> np.ndarray:
    """Dense coin-space vector with beta on all-right and gamma on all-left."""
    vec = np.zeros(1 << spec.arity, dtype=complex)
    vec[0] = spec.beta
    vec[-1] = spec.gamma
    return vec


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
    return PureState.from_arrays(config, codes, block)


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


def ghz_condition(arity: int, phi, ghz: GhzSpec, k: int = 0, d: int = 2) -> float:
    """Modulus of the phased overlap between the two-branch coin state and its
    image under the full contact product, evaluated densely.

    The value is 1 exactly when the multiplet is an eigenstate in momentum
    sector k.  It depends on k and d only through k/d, so the default ring of
    two sites already realizes both relevant sectors.
    """
    if arity != ghz.arity:
        raise ValueError("arity must match the coin state")
    hops = _momentum_phases(k, d)
    matrix = interaction_group_matrix(arity, phi)
    coin = [complex_parts(z) for z in ghz_coin(ghz).tolist()]
    # rows 0 and -1 of matrix @ coin, term by term one float operation at a
    # time, so the rounding depends on neither the BLAS build nor on whether
    # the compiler fuses a complex product
    image = []
    for row in (0, -1):
        total = (0.0, 0.0)
        for entry, amplitude in zip(matrix[row].tolist(), coin):
            total = complex_add(total, complex_mul(complex_parts(entry), amplitude))
        image.append(total)
    return _phased_overlap(ghz, image, *hops)


def _momentum_phases(k: int, d: int) -> tuple[complex, complex]:
    """(exp(-2*pi*i*k/d), exp(2*pi*i*k/d)), the forward and backward hop phases."""
    if not 0 <= k < d:
        raise ValueError("momentum index must lie in [0, d)")
    return phase_factor(Fraction(2 * k, d), -1), phase_factor(Fraction(2 * k, d))


def _phased_overlap(ghz: GhzSpec, image, forward: complex, backward: complex) -> float:
    """|conj(beta) forward image[0] + conj(gamma) backward image[-1]|, the
    image entries as (real, imag) pairs."""
    top = complex_mul(complex_parts(ghz.beta.conjugate() * forward), image[0])
    bottom = complex_mul(complex_parts(ghz.gamma.conjugate() * backward), image[-1])
    # abs of a complex is the C library's hypot, as np.hypot is; math.hypot is not
    return abs(complex(*complex_add(top, bottom)))


def ghz_condition_closed(arity: int, phi, ghz: GhzSpec, k: int = 0, d: int = 2) -> float:
    """Same modulus from the sector expansion over rotated-basis strings,
    grouped by their number of antisymmetric factors.

    Expanding the all-left branch in the rotated basis contributes
    gamma times (-1) to the power of that count, hence the sign below.
    """
    if arity != ghz.arity:
        raise ValueError("arity must match the coin state")
    forward, backward = _momentum_phases(k, d)
    total = 0j
    scale = 1.0 / (1 << arity)
    for zeros in range(arity + 1):
        sign = -1.0 if zeros % 2 else 1.0
        weight = comb(arity, zeros) * scale
        bra = ghz.beta.conjugate() * forward + ghz.gamma.conjugate() * backward * sign
        ket = ghz.beta + ghz.gamma * sign
        total += weight * bra * ket * phase_factor(phi, comb(arity - zeros, 2))
    return abs(total)


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


def scan_conditions(
    arities,
    phases,
    k_values=(0, 1),
    signs=("symmetric", "antisymmetric"),
    d: int = 2,
    threshold: float = 1.0 - 1e-9,
) -> list[ConditionPoint]:
    """Grid search for parameter points where the alignment condition reaches one.

    Returns every grid point whose dense condition value meets the threshold,
    together with the closed-form value at the same point.  No contact-coin
    matrix is formed: the coin maps beta|R..R> + gamma|L..L> to
    (c_0 beta + c_m gamma)|R..R> + (c_m beta + c_0 gamma)|L..L>, and (c_0, c_m)
    come from one contact_parts pass over the whole grid per arity, all read
    from one table of phase factors.  Every complex product and sum is
    spelled out one float operation at a time, as ghz_condition does, so the
    values are ghz_condition's to the bit.
    """
    arities = list(arities)
    require_scan_fits(len(phases), arities)
    spec_of = {"symmetric": GhzSpec.symmetric, "antisymmetric": GhzSpec.antisymmetric}
    momenta = [_momentum_phases(k, d) for k in k_values]
    table = _contact_phases(phases, max(arities, default=0))
    points = []
    for arity in arities:
        re, im = contact_parts(arity, *(part[:, : arity + 1] for part in table), (0, arity))
        stay, flip = (re[:, 0], im[:, 0]), (re[:, 1], im[:, 1])
        for name in signs:
            ghz = spec_of[name](arity)
            beta, gamma = complex_parts(ghz.beta), complex_parts(ghz.gamma)
            top = complex_add(complex_mul(stay, beta), complex_mul(flip, gamma))
            bottom = complex_add(complex_mul(flip, beta), complex_mul(stay, gamma))
            values = np.empty((len(phases), len(momenta)))
            for column, (forward, backward) in enumerate(momenta):
                # as _phased_overlap: conj(beta) * forward * top + conj(gamma) * backward * bottom
                bra_top = complex_parts(ghz.beta.conjugate() * forward)
                bra_bottom = complex_parts(ghz.gamma.conjugate() * backward)
                overlap = complex_add(complex_mul(bra_top, top), complex_mul(bra_bottom, bottom))
                # np.hypot, not np.abs, is what abs() of a Python complex computes
                values[:, column] = np.hypot(*overlap)
            for row, column in zip(*np.nonzero(values >= threshold)):
                phi, k = phases[row], k_values[column]
                closed = ghz_condition_closed(arity, phi, ghz, k, d)
                points.append(ConditionPoint(arity, phi, k, ghz, float(values[row, column]), closed))
    return points


def refine_condition_peak(
    arity: int,
    phi0: float,
    ghz: GhzSpec,
    k: int = 0,
    d: int = 2,
    halfwidth: float = 0.02,
    iterations: int = 60,
) -> tuple[float, float]:
    """Polish a grid hit by golden-section search of the condition value
    around phi0; returns the refined (phase, value)."""
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = phi0 - halfwidth, phi0 + halfwidth
    a = hi - inv_golden * (hi - lo)
    b = lo + inv_golden * (hi - lo)
    fa = ghz_condition(arity, a, ghz, k, d)
    fb = ghz_condition(arity, b, ghz, k, d)
    for _ in range(iterations):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + inv_golden * (hi - lo)
            fb = ghz_condition(arity, b, ghz, k, d)
        else:
            hi, b, fb = b, a, fa
            a = hi - inv_golden * (hi - lo)
            fa = ghz_condition(arity, a, ghz, k, d)
    best = 0.5 * (lo + hi)
    return best, ghz_condition(arity, best, ghz, k, d)


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
    return Ensemble.of_labels(
        reduced_cfg,
        sites[kept] * colocated_unit(n - 1, d),
        cols[kept] >> 1,
        weights[kept],
        state.prune_epsilon,
    )
