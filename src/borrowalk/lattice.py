"""Sparse amplitudes for N coined walkers on a ring of d sites.

A basis label pairs a position tuple with a coin tuple; coins are +1 for a
right mover and -1 for a left mover.  States are dictionaries from labels to
complex amplitudes, pruned below a configurable magnitude.  Phases given as
rational multiples of pi are tracked exactly, so resonance points such as
two thirds of a turn do not pick up decimal round-off.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

RIGHT = 1
LEFT = -1

Label = tuple[tuple[int, ...], tuple[int, ...]]

_COIN_ALIASES = {
    RIGHT: RIGHT,
    LEFT: LEFT,
    "R": RIGHT,
    "L": LEFT,
    "right": RIGHT,
    "left": LEFT,
}

_FREE_COINS = ("identity", "hadamard")


def as_coin(value) -> int:
    """Normalize a coin tag (+1/-1, 'R'/'L', 'right'/'left') to +1 or -1."""
    try:
        return _COIN_ALIASES[value]
    except (KeyError, TypeError):
        raise ValueError(f"not a coin direction: {value!r}") from None


def coin_char(coin: int) -> str:
    return "R" if coin == RIGHT else "L"


def phase_factor(phi: float | Fraction, m: int = 1) -> complex:
    """exp(i*m*phi), where a Fraction phi means that multiple of pi.

    Right angles coming from an exact pi fraction are returned as exact
    unit values, which keeps resonant amplitudes free of rounding noise.
    """
    if isinstance(phi, Fraction):
        turns = (phi * m) % 2
        if turns == 0:
            return complex(1.0)
        if turns == 1:
            return complex(-1.0)
        if 2 * turns == 1:
            return 1j
        if 2 * turns == 3:
            return -1j
        return cmath.exp(1j * math.pi * float(turns))
    return cmath.exp(1j * (m * phi))


def turn_table(numerators, denominator: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of exp(i*pi*n/denominator) over an integer array n.

    Entry by entry this is phase_factor(Fraction(n, denominator)) to the bit,
    exact 1, i, -1 and -i at quarter turns included, without building a
    Fraction per entry.
    """
    turns = np.asarray(numerators, dtype=np.int64) % (2 * denominator)
    angles = (math.pi * (turns / denominator)).tolist()
    re = np.fromiter(map(math.cos, angles), float, len(angles))
    im = np.fromiter(map(math.sin, angles), float, len(angles))
    for quarter, exact in enumerate((complex(1.0), 1j, complex(-1.0), -1j)):
        hit = 2 * turns == quarter * denominator
        re[hit] = exact.real
        im[hit] = exact.imag
    return re, im


def check_phase(phi, name: str = "phase"):
    """Return phi if it lies strictly inside (0, 2*pi), ints read as floats.

    A Fraction is taken as that multiple of pi, a float in radians.
    """
    if isinstance(phi, Fraction):
        if not 0 < phi < 2:
            raise ValueError(f"{name} must lie strictly inside (0, 2*pi)")
        return phi
    if isinstance(phi, (int, float)):
        phi = float(phi)
        if not 0.0 < phi < 2.0 * math.pi:
            raise ValueError(f"{name} must lie strictly inside (0, 2*pi)")
        return phi
    raise TypeError(f"{name} must be a float or a Fraction of pi")


def phase_radians(phi: float | Fraction) -> float:
    """Numeric value in radians of a phase that may be an exact pi fraction."""
    if isinstance(phi, Fraction):
        return math.pi * float(phi)
    return float(phi)


def phase_grid(subdivisions: int) -> list[Fraction]:
    """Phases j*(2*pi/subdivisions) strictly inside (0, 2*pi), exact in pi units."""
    if subdivisions < 2:
        raise ValueError("need at least two subdivisions")
    return [Fraction(2 * j, subdivisions) for j in range(1, subdivisions)]


@dataclass(frozen=True)
class LatticeConfig:
    """Static description of one walk.

    Attributes:
        particle_count: number of distinguishable walkers, at least 1.
        site_count: ring length d, at least 2.
        interaction_phase: contact phase in (0, 2*pi).  A float is taken in
            radians; a Fraction is taken as that multiple of pi and kept exact.
        free_coin: coin applied to a particle alone at its site.  Either
            "identity", "hadamard", or a tuple (theta, xi, zeta) selecting the
            rotation [[e^{i xi} cos(theta), e^{i zeta} sin(theta)],
                      [-e^{-i zeta} sin(theta), e^{-i xi} cos(theta)]].
    """

    particle_count: int
    site_count: int
    interaction_phase: float | Fraction
    free_coin: str | tuple[float, float, float] = "identity"

    def __post_init__(self):
        if self.particle_count < 1:
            raise ValueError("particle_count must be at least 1")
        if self.site_count < 2:
            raise ValueError("site_count must be at least 2")
        object.__setattr__(
            self, "interaction_phase", check_phase(self.interaction_phase, "interaction_phase")
        )
        coin = self.free_coin
        if isinstance(coin, str):
            if coin not in _FREE_COINS:
                raise ValueError(f"unknown free coin {coin!r}")
        else:
            angles = tuple(float(v) for v in coin)
            if len(angles) != 3:
                raise ValueError("a parametrized free coin needs three angles")
            object.__setattr__(self, "free_coin", angles)

    @property
    def phi_radians(self) -> float:
        return phase_radians(self.interaction_phase)

    def phase(self, m: int = 1) -> complex:
        """exp(i*m*phi) for this lattice's contact phase."""
        return phase_factor(self.interaction_phase, m)


def prune_amplitudes(amplitudes: dict[Label, complex], epsilon: float) -> dict[Label, complex]:
    return {lab: a for lab, a in amplitudes.items() if a != 0 and abs(a) >= epsilon}


@dataclass
class PureState:
    """Sparse wavefunction: a map from basis labels to complex amplitudes."""

    config: LatticeConfig
    amplitudes: dict[Label, complex] = field(default_factory=dict)
    prune_epsilon: float = 1e-14

    def norm_sq(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self.amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


def make_basis_state(config: LatticeConfig, positions, coins) -> PureState:
    """Unit state concentrated on one label; positions wrap around the ring."""
    pos = tuple(int(x) % config.site_count for x in positions)
    cns = tuple(as_coin(c) for c in coins)
    if len(pos) != config.particle_count or len(cns) != config.particle_count:
        raise ValueError("expected one position and one coin per particle")
    return PureState(config, {(pos, cns): complex(1.0)})


def inner_product(bra: PureState, ket: PureState) -> complex:
    """<bra|ket>, conjugating the first argument (linear in the second)."""
    if bra.config != ket.config:
        raise ValueError("states live on different lattices")
    if len(bra.amplitudes) <= len(ket.amplitudes):
        total = 0j
        for lab, a in bra.amplitudes.items():
            b = ket.amplitudes.get(lab)
            if b is not None:
                total += a.conjugate() * b
    else:
        total = 0j
        for lab, b in ket.amplitudes.items():
            a = bra.amplitudes.get(lab)
            if a is not None:
                total += a.conjugate() * b
    return total


@dataclass
class Ensemble:
    """Weighted mixture of pure states sharing one lattice."""

    members: list[tuple[float, PureState]]

    def __post_init__(self):
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        cfg = self.members[0][1].config
        for weight, state in self.members:
            if weight <= 0:
                raise ValueError("ensemble weights must be positive")
            if state.config != cfg:
                raise ValueError("ensemble members must share one lattice")

    @property
    def config(self) -> LatticeConfig:
        return self.members[0][1].config

    def total_weight(self) -> float:
        return sum(w for w, _ in self.members)


def ensemble_overlap(ensemble: Ensemble, state: PureState) -> float:
    """<state| rho |state> for the diagonal mixture rho."""
    if ensemble.config != state.config:
        raise ValueError("ensemble and state live on different lattices")
    total = 0.0
    for weight, member in ensemble.members:
        total += weight * abs(inner_product(state, member)) ** 2
    return total


def state_json_entries(state: PureState) -> list[dict]:
    """JSON-ready rows sorted by label, one per stored amplitude.

    Field order is fixed: positions, coins, re, im.
    """
    rows = []
    for pos, cns in sorted(state.amplitudes):
        a = state.amplitudes[(pos, cns)]
        rows.append(
            {
                "positions": [int(x) for x in pos],
                "coins": [coin_char(c) for c in cns],
                "re": float(a.real),
                "im": float(a.imag),
            }
        )
    return rows
