"""Sparse amplitudes for N coined walkers on a ring of d sites.

A basis label pairs a position tuple with a coin tuple; coins are +1 for a
right mover and -1 for a left mover.  A state stores its occupied position
tuples as sorted integer codes, each with a dense row of coin amplitudes,
and reads back as arrays only; the walk step drops amplitudes below one
fixed modulus, evolution.PRUNE_EPSILON.  Phases given as rational multiples
of pi are tracked exactly, so resonance points such as two thirds of a turn
do not pick up decimal round-off.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

RIGHT = 1
LEFT = -1

_COIN_ALIASES = {
    RIGHT: RIGHT,
    LEFT: LEFT,
    "R": RIGHT,
    "L": LEFT,
    "right": RIGHT,
    "left": LEFT,
}

_FREE_COINS = ("identity", "hadamard")

# position codes are int64
_MAX_CODES = 2**63


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


def momentum_phases(k: int, d: int) -> tuple[complex, complex]:
    """(exp(-2*pi*i*k/d), exp(2*pi*i*k/d)), the forward and backward hop phases
    of momentum k on a ring of d sites."""
    if d < 1:
        raise ValueError("ring size d must be at least 1")
    if not 0 <= k < d:
        raise ValueError("momentum index must lie in [0, d)")
    return phase_factor(Fraction(2 * k, d), -1), phase_factor(Fraction(2 * k, d))


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


def complex_parts(z: complex) -> tuple[float, float]:
    return z.real, z.imag


def complex_mul(a, b):
    """CPython's complex product on (real, imag) pairs of floats or arrays;
    a float operand x enters as (x, 0.0), as CPython promotes it."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def complex_add(a, b):
    (ar, ai), (br, bi) = a, b
    return ar + br, ai + bi


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


_PHASE_PATTERN = re.compile(r"^(\d+)?pi(?:/(\d+))?$")


def parse_phase(text: str) -> Fraction | float:
    """Read a phase flag.

    Strings shaped like '2pi/3' are kept as exact rational multiples of pi so
    the resonant cases stay resonant; anything else is read as radians.
    """
    cleaned = text.strip().lower().replace(" ", "")
    match = _PHASE_PATTERN.match(cleaned)
    if match:
        numerator = int(match.group(1) or 1)
        denominator = int(match.group(2) or 1)
        if denominator == 0:
            raise ValueError(f"cannot parse phase {text!r}")
        return Fraction(numerator, denominator)
    try:
        return float(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse phase {text!r}") from None


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
    # Fraction(1, 2) (pi/2) == 0.5 (radians), so the unit takes part in
    # equality and hashing, and caches keyed on a lattice keep the two apart
    _phase_in_pi: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.particle_count < 1:
            raise ValueError("particle_count must be at least 1")
        if self.site_count < 2:
            raise ValueError("site_count must be at least 2")
        # d >= 2, so more than 63 particles never fit, and d**n stays small
        if self.particle_count > 63 or self.site_count**self.particle_count > _MAX_CODES:
            raise ValueError("site_count ** particle_count position codes exceed 64-bit integers")
        object.__setattr__(
            self, "interaction_phase", check_phase(self.interaction_phase, "interaction_phase")
        )
        object.__setattr__(self, "_phase_in_pi", isinstance(self.interaction_phase, Fraction))
        coin = self.free_coin
        if isinstance(coin, str):
            if coin not in _FREE_COINS:
                raise ValueError(f"unknown free coin {coin!r}")
        else:
            angles = tuple(float(v) for v in coin)
            if len(angles) != 3:
                raise ValueError("a parametrized free coin needs three angles")
            object.__setattr__(self, "free_coin", angles)


class PureState:
    """Wavefunction stored sparse over positions and dense over coins.

    `codes` holds the occupied position tuples as sorted, unique int64 codes
    in base d, particle 0 most significant.  Row r of the complex `block`
    holds the 2**n coin amplitudes at codes[r].  Bit n-1-i of a column index
    is 1 when particle i moves left, so column 0 is all-right and the last
    column all-left, the basis of the contact-coin matrices.  Zero amplitudes
    are not stored and every row holds at least one nonzero amplitude.  Both
    arrays are frozen, not copied.  `state.amplitudes` is the flat array of
    stored amplitudes in label order, block[entries()].

    `colocated` is None, or, on a state made by evolution.projected_step,
    whose rows are all co-located, the site of every row and the step's
    per-lattice constants, which the next projected step reads.
    """

    def __init__(self, config: LatticeConfig, codes: np.ndarray, block: np.ndarray, colocated=None):
        block.setflags(write=False)
        codes.setflags(write=False)
        self.config = config
        self.codes = codes
        self.block = block
        self.colocated = colocated

    @property
    def amplitudes(self) -> np.ndarray:
        return self.block[self.entries()]

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of every stored amplitude in label order: codes
        ascending, then coins ascending with L before R, i.e. columns descending."""
        rows, flipped = np.nonzero(self.block[:, ::-1])
        return rows, self.block.shape[1] - 1 - flipped

    def norm_sq(self) -> float:
        return float(np.vdot(self.block, self.block).real)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


@lru_cache(maxsize=64)
def code_weights(n: int, d: int) -> np.ndarray:
    """Place values d**(n-1-i) of the position digits, particle 0 most significant."""
    weights = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    weights.setflags(write=False)
    return weights


def positions(codes: np.ndarray, config: LatticeConfig) -> np.ndarray:
    """Position tuples, shape (len(codes), n), of an array of position codes."""
    weights = code_weights(config.particle_count, config.site_count)
    return codes[:, None] // weights % config.site_count


@lru_cache(maxsize=64)
def colocated_unit(n: int, d: int) -> int:
    """Code of n walkers all on site 1; site x has code x times this."""
    return sum(d**i for i in range(n))


@lru_cache(maxsize=None)
def coin_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """Coin tuple of every coin column, in column order."""
    return tuple(
        tuple(LEFT if (col >> (n - 1 - i)) & 1 else RIGHT for i in range(n)) for col in range(1 << n)
    )


def make_basis_state(config: LatticeConfig, positions, coins) -> PureState:
    """Unit state concentrated on one label; positions wrap around the ring."""
    n, d = config.particle_count, config.site_count
    pos = [int(x) % d for x in positions]
    cns = [as_coin(c) for c in coins]
    if len(pos) != n or len(cns) != n:
        raise ValueError("expected one position and one coin per particle")
    block = np.zeros((1, 1 << n), dtype=complex)
    block[0, sum(1 << (n - 1 - i) for i, c in enumerate(cns) if c == LEFT)] = 1.0
    return PureState(config, np.array([pos], dtype=np.int64) @ code_weights(n, d), block)


def inner_product(bra: PureState, ket: PureState) -> complex:
    """<bra|ket>, conjugating the first argument (linear in the second)."""
    # configs compare field by field; the same object needs no comparison
    if bra.config is not ket.config and bra.config != ket.config:
        raise ValueError("states live on different lattices")
    if not len(ket.codes):
        return 0j
    at = np.minimum(np.searchsorted(ket.codes, bra.codes), len(ket.codes) - 1)
    hit = ket.codes[at] == bra.codes
    return complex(np.vdot(bra.block[hit], ket.block[at[hit]]))


class Ensemble:
    """Diagonal mixture of co-located aligned unit states on one lattice, the
    mixture remove_particle leaves.

    Member i is the unit state at position code codes[i], every walker on one
    site, with coin column cols[i], all-right (0) or all-left (2**n - 1),
    weighted by weights[i].  `members` lists them as (weight, state) pairs
    in member order, built on demand.
    """

    def __init__(self, config: LatticeConfig, codes, cols, weights):
        # copies, so freezing them leaves the caller's arrays writable
        codes = np.array(codes, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        weights = np.array(weights, dtype=float)
        if not len(weights):
            raise ValueError("an ensemble needs at least one member")
        if not codes.shape == cols.shape == weights.shape:
            raise ValueError("an ensemble needs one code, one coin column and one weight per member")
        if not (weights > 0).all():
            raise ValueError("ensemble weights must be positive")
        n, d = config.particle_count, config.site_count
        sites, offsets = np.divmod(codes, colocated_unit(n, d))
        misplaced = (offsets != 0) | (sites < 0) | (sites >= d) | ((cols != 0) & (cols != (1 << n) - 1))
        if misplaced.any():
            raise ValueError("ensemble members must be co-located aligned unit states")
        for array in (codes, cols, weights):
            array.setflags(write=False)
        self.config = config
        self.codes = codes
        self.cols = cols
        self.weights = weights
        self._members = None

    @property
    def members(self) -> list[tuple[float, PureState]]:
        if self._members is None:
            count = len(self.codes)
            block = np.zeros((count, 1 << self.config.particle_count), dtype=complex)
            block[np.arange(count), self.cols] = 1.0
            self._members = [
                (weight, PureState(self.config, self.codes[i : i + 1], row))
                for i, (weight, row) in enumerate(zip(self.weights.tolist(), block[:, None]))
            ]
        return self._members


def ensemble_overlap(ensemble: Ensemble, state: PureState) -> float:
    """<state| rho |state> for the diagonal mixture rho."""
    if ensemble.config != state.config:
        raise ValueError("ensemble and state live on different lattices")
    total = 0.0
    for weight, member in ensemble.members:
        total += weight * abs(inner_product(state, member)) ** 2
    return total

