"""One walk step: contact coin on co-located groups, then a coin-conditioned shift.

The contact operator on a group of m co-located particles is the product of
the phased pair projector over all m(m-1)/2 pairs.  In the rotated coin basis
built from (|R>+|L>)/sqrt(2) and (|R>-|L>)/sqrt(2) that product is diagonal:
a basis string whose symmetric factors number p picks up exp(i*phi*p(p-1)/2).
Back in the (R, L) basis its entry (a, b) depends only on the Hamming
distance w of the coin strings a and b, so m + 1 numbers fix it:
c_w = 2**-m sum_p K_{m-p}(w) exp(i*phi*C(p, 2)), with K the Krawtchouk
polynomials.  Everything that needs the contact coin reads these numbers.

States are arrays (see lattice.PureState).  The coin stage groups the rows by
co-location pattern, of which n walkers have at most Bell(n), and applies one
2**n x 2**n matrix per pattern; the shift moves every coin column to its new
position code.  The projected step coins only the co-located rows and moves
only their aligned entries, the ones the collective projection keeps.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, reduce
from math import comb

import numpy as np

from .lattice import (
    LatticeConfig,
    PureState,
    code_weights,
    colocated_unit,
    phase_factor,
    positions,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# amplitudes below this modulus are dropped after every coin stage and every
# projected step
PRUNE_EPSILON = 1e-14

# site offsets of the all-right and the all-left coin column in one step
_MOVES = np.array([1, -1])

# coin-stage matrices kept across steps, one per (lattice, co-location pattern)
_PATTERN_CACHE = 32

# Bytes one walk may hold at once.  Requests that need more are refused
# before any work starts.
MAX_WALK_BYTES = 1 << 30

# Largest co-located group the contact kernel serves: up to here every
# Krawtchouk weight and every partial sum of integer weights, at most 2**m,
# is an exact float64.
MAX_CONTACT_ARITY = 53

# scan_bytes per phase, per phase and contact term, and per hit, rounded up
# from traced peaks of ghz-scan requests (see scan_bytes)
_SCAN_PHASE_BYTES = 256
_SCAN_TERM_BYTES = 128
_SCAN_HIT_BYTES = 1024

# spectrum_bytes per momentum sector and fidelity_bytes per phase and per
# output row, rounded up from traced peaks of JSON requests (the larger
# format): 566 bytes per sector at d = 64000; about 140 bytes per phase and
# 450 per row over grids of 2000 to 20000 phases by 1 to 32 step counts
_SPECTRUM_SECTOR_BYTES = 1024
_FIDELITY_PHASE_BYTES = 256
_FIDELITY_ROW_BYTES = 512

# Entries (span x d) of each stacked array of momentum-block powers in the
# momentum survival route; keeps its working set small whatever t_max is.
MAX_POWER_ENTRIES = 1 << 15


@lru_cache(maxsize=None)
def _krawtchouk(m: int) -> np.ndarray:
    """Integer weights K[w, p] = K_{m-p}(w), the coefficient of x**(m-p) in
    (1 - x)**w (1 + x)**(m-w), as floats.  Every weight is at most C(m, m/2)
    and every row sums at most 2**m in modulus, so all are exact."""
    rows = [
        np.convolve([(-1) ** j * comb(w, j) for j in range(w + 1)], [comb(m - w, j) for j in range(m - w + 1)])
        for w in range(m + 1)
    ]
    weights = np.array(rows, dtype=float)[:, ::-1].copy()
    weights.setflags(write=False)
    return weights


def contact_parts(m: int, re: np.ndarray, im: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the contact weights c_w, w in `rows`, of m
    co-located walkers at a batch of phases, shape (phases, len(rows)).

    re and im hold exp(i*phi*C(p, 2)) for p = 0..m, one row per phase.
    c_w = 2**-m sum_p K_{m-p}(w) exp(i*phi*C(p, 2)) is a running sum over p
    in ascending order, term by term as np.add.accumulate adds (np.sum would
    pair the terms), so the weights of one phase do not depend on the other
    phases they are computed with.
    """
    if not 1 <= m <= MAX_CONTACT_ARITY:
        raise ValueError(f"the contact coin is computed for 1 to {MAX_CONTACT_ARITY} co-located walkers")
    weights = _krawtchouk(m)[list(rows)]
    scale = 0.5**m
    return tuple(np.add.accumulate(part[:, None, :] * weights, axis=2)[:, :, -1] * scale for part in (re, im))


# a few entries serve repeated lookups of one phase, as a loop over momentum
# sectors makes; the matrices built from them have their own cache.  Typed,
# because Fraction(1, 2) (pi/2) and 0.5 (radians) are equal keys otherwise.
@lru_cache(maxsize=32, typed=True)
def contact_weights(m: int, phi) -> np.ndarray:
    """The m + 1 numbers that fix the contact coin of m co-located walkers:
    entry (a, b) of the coin is c_w, w = popcount(a ^ b).

    c_0 is the amplitude for an aligned group to keep its joint direction
    and c_m the amplitude to reverse it, the (stay, flip) pair of the
    aligned sector.  Each term is an exact integer weight times a phase
    factor, so sums that cancel algebraically cancel exactly at right-angle
    phases too, and long products of the coin do not drift there.
    """
    phases = np.array([phase_factor(phi, comb(p, 2)) for p in range(m + 1)])
    re, im = contact_parts(m, phases.real[None], phases.imag[None], range(m + 1))
    weights = np.empty(m + 1, dtype=complex)
    weights.real, weights.imag = re[0], im[0]
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=None)
def _popcounts(m: int) -> np.ndarray:
    """popcount(a) for every m-bit a, as uint8."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(m):
        counts = np.concatenate([counts, counts + 1])
    counts.setflags(write=False)
    return counts


# typed for the reason contact_weights is
@lru_cache(maxsize=1024, typed=True)
def interaction_group_matrix(m: int, phi) -> np.ndarray:
    """Coin operator for m co-located particles, i.e. the full pair product,
    gathered from contact_weights(m, phi) by the Hamming distance of row
    and column."""
    weights = contact_weights(m, phi)
    coins = np.arange(1 << m, dtype=np.min_scalar_type((1 << m) - 1))
    matrix = weights[_popcounts(m)[coins[:, None] ^ coins]]
    matrix.setflags(write=False)
    return matrix


def free_coin_matrix(config: LatticeConfig) -> np.ndarray | None:
    """2x2 coin for particles alone at their site; None when it is the identity."""
    coin = config.free_coin
    if coin == "identity":
        return None
    if coin == "hadamard":
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _SQRT_HALF
    theta, xi, zeta = coin
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [cmath.exp(1j * xi) * c, cmath.exp(1j * zeta) * s],
            [-cmath.exp(-1j * zeta) * s, cmath.exp(-1j * xi) * c],
        ]
    )


def walk_bytes(n: int, rows: int) -> int:
    """Bytes a walk of n walkers holds at most while it spans `rows` position codes.

    Per coin-block entry a step holds the block before and after the coin
    stage and after the shift (complex, 16 bytes each) and a shifted code
    (int64).  Per walker count, the contact coin of n co-located walkers is
    gathered into a complex 4**n matrix through a table of coin XORs and
    one of their popcounts (at most 2 and 1 bytes an entry for n <= 16), and
    the coin stage caches up to _PATTERN_CACHE complex 4**n pattern matrices.
    """
    dim = 1 << n
    return rows * dim * (3 * 16 + 8) + dim * dim * (3 + (1 + _PATTERN_CACHE) * 16)


def scan_bytes(grid: int, arities) -> int:
    """Bytes an alignment scan over a grid of `grid` phases holds at most.

    Per phase: its Fraction.  Per phase and contact term (m + 1 of them for
    arity m): the phase tables and running sums of contact_parts.  Per phase and
    arity: up to four hits (two branch signs, two momenta), each a
    ConditionPoint with its output row and printed text.
    """
    arities = list(arities)
    return grid * (_SCAN_PHASE_BYTES + sum(m + 1 for m in arities) * _SCAN_TERM_BYTES
                   + len(arities) * 4 * _SCAN_HIT_BYTES)


def spectrum_bytes(d: int) -> int:
    """Bytes a spectrum over d momentum sectors holds at most: per sector, the
    momentum, the turn table and the complex roots, the output row and its
    printed text."""
    return d * _SPECTRUM_SECTOR_BYTES


def fidelity_bytes(grid: int, t_count: int) -> int:
    """Bytes a fidelity sweep over a grid of `grid` phases by `t_count` step
    counts holds at most: per phase, its Fraction and radians; per output
    row, the (phi, t, p) tuple and its printed text."""
    return grid * (_FIDELITY_PHASE_BYTES + t_count * _FIDELITY_ROW_BYTES)


def require_scan_fits(grid: int, arities) -> None:
    """Refuse a scan with an arity the contact kernel does not serve, or whose
    scan_bytes exceed MAX_WALK_BYTES."""
    arities = list(arities)
    for m in arities:
        if not 2 <= m <= MAX_CONTACT_ARITY:
            raise ValueError(f"the alignment scan takes 2 to {MAX_CONTACT_ARITY} walkers, not {m}")
    require_bytes_fit(scan_bytes(grid, arities), f"an alignment scan of {grid} phases")


def walk_rows(n: int, d: int, steps: int, projected: bool = False) -> int:
    """Most position codes a walk started on one code holds within `steps` steps.

    Each walker moves one site per step, so after t steps it is on one of
    t + 1 sites.  On an even ring those sites share one parity, so at most
    d // 2 of them are distinct.  A projected step coins and moves co-located
    codes only, so a projected walk holds at most one code per reachable site.
    """
    reach = min(d if d % 2 else d // 2, steps + 1)
    return reach if projected else reach**n


def require_walk_fits(n: int, rows: int) -> None:
    """Refuse a walk whose walk_bytes exceed MAX_WALK_BYTES."""
    require_bytes_fit(walk_bytes(n, rows), f"{n} walkers over up to {rows} position codes")


def require_bytes_fit(need: int, request: str) -> None:
    """Refuse a request that would hold more than MAX_WALK_BYTES."""
    if need > MAX_WALK_BYTES:
        raise ValueError(
            f"{request} would hold about {need >> 20} MiB, more than the {MAX_WALK_BYTES >> 20} MiB limit"
        )


def _pattern_keys(places: np.ndarray) -> np.ndarray:
    """Co-location pattern of every row of positions: bit k is set when the
    k-th pair (i, j), i < j, shares a site.  Rows with equal keys group their
    walkers alike."""
    n = places.shape[1]
    if n * (n - 1) // 2 > 62:
        raise ValueError("the step engine handles at most 11 walkers")
    keys = np.zeros(len(places), dtype=np.int64)
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            keys |= (places[:, i] == places[:, j]).astype(np.int64) << bit
            bit += 1
    return keys


@lru_cache(maxsize=_PATTERN_CACHE)
def _coin_matrix(config: LatticeConfig, groups: tuple[tuple[int, ...], ...]) -> np.ndarray | None:
    """Coin-stage matrix on all 2**n coins for walkers grouped by site: the
    contact coin on every co-located group, the free coin on every lone
    walker.  None when that is the identity."""
    n = config.particle_count
    free = free_coin_matrix(config)
    if free is None and all(len(g) == 1 for g in groups):
        return None
    factors = [
        interaction_group_matrix(len(g), config.interaction_phase) if len(g) > 1
        else (free if free is not None else np.eye(2))
        for g in groups
    ]
    # the Kronecker product orders the coin bits by group; put them back in
    # particle order, row bits and column bits alike
    order = np.argsort([i for g in groups for i in g])
    tensor = reduce(np.kron, factors).reshape((2,) * (2 * n))
    matrix = tensor.transpose([*order, *(n + order)]).reshape(1 << n, 1 << n).astype(complex)
    matrix.setflags(write=False)
    return matrix


def _site_groups(places) -> tuple[tuple[int, ...], ...]:
    """Particles grouped by the site they share, in order of first member."""
    sites: dict[int, list[int]] = {}
    for particle, x in enumerate(places):
        sites.setdefault(x, []).append(particle)
    return tuple(tuple(members) for members in sites.values())


def apply_interaction(state: PureState) -> PureState:
    """Apply the coin stage: every co-located group gets the contact pair
    product, every lone particle gets the configured free coin.  Amplitudes
    below PRUNE_EPSILON are then dropped."""
    cfg = state.config
    block = state.block
    places = positions(state.codes, cfg)
    keys = _pattern_keys(places)
    patterns, first = np.unique(keys, return_index=True)
    matrices = [_coin_matrix(cfg, _site_groups(row)) for row in places[first].tolist()]
    if len(patterns) == 1:
        out = block.copy() if matrices[0] is None else block @ matrices[0].T
    else:
        out = np.empty_like(block)
        for key, matrix in zip(patterns, matrices):
            rows = np.flatnonzero(keys == key)
            out[rows] = block[rows] if matrix is None else block[rows] @ matrix.T
    out[np.abs(out) < PRUNE_EPSILON] = 0
    kept = out.any(axis=1)
    if not kept.all():
        return PureState(cfg, state.codes[kept], out[kept])
    return PureState(cfg, state.codes, out)


def apply_shift(state: PureState) -> PureState:
    """Move every particle one site along its coin direction (periodic)."""
    cfg = state.config
    n, d = cfg.particle_count, cfg.site_count
    rows, cols = np.nonzero(state.block)
    left = (cols[:, None] >> np.arange(n - 1, -1, -1)) & 1
    moved = (positions(state.codes, cfg)[rows] + 1 - 2 * left) % d
    # a bijection on labels: no two amplitudes land on one (code, column)
    codes, row = np.unique(moved @ code_weights(n, d), return_inverse=True)
    out = np.zeros((len(codes), state.block.shape[1]), dtype=complex)
    out[row, cols] = state.block[rows, cols]
    return PureState(cfg, codes, out)


def step(state: PureState) -> PureState:
    """One full walk step: coin stage followed by the conditional shift."""
    return apply_shift(apply_interaction(state))


@lru_cache(maxsize=_PATTERN_CACHE)
def _projection(config: LatticeConfig) -> tuple[int, np.ndarray | None, int]:
    """What the projected step needs of its lattice: the code of every walker
    on site 1, the transposed contact coin of all n walkers on one site (None
    for the identity) and the all-left column."""
    n = config.particle_count
    matrix = _coin_matrix(config, (tuple(range(n)),))
    return colocated_unit(n, config.site_count), None if matrix is None else matrix.T, (1 << n) - 1


def projected_step(state: PureState) -> PureState:
    """Walk step followed by the collective projection; a contraction.

    Only a row with every walker on one site can end co-located and aligned,
    so only those rows are coined: their all-right entry moves one site up,
    their all-left entry one site down, and every other entry is dropped.
    Entries below PRUNE_EPSILON are dropped as in the coin stage.
    The empty state is returned as it is.  Every row of the output is
    co-located, so the output carries its sites and the lattice's constants
    to the next projected step.
    """
    if not len(state.codes):
        return state
    cfg = state.config
    block = state.block
    if state.colocated is None:
        constants = _projection(cfg)
        sites, offsets = np.divmod(state.codes, constants[0])
        if offsets.any():
            rows = offsets == 0
            block, sites = block[rows], sites[rows]
    else:
        sites, constants = state.colocated
    unit, coin, last = constants
    # pruning below writes in place, so the block must be a fresh one
    block = block.copy() if coin is None else block @ coin
    # columns 0 and last, all right and all left; a view into the fresh block
    ends = block[:, ::last]
    ends[np.abs(ends) < PRUNE_EPSILON] = 0
    # zeros are not moved, so no -0.0 is stored
    kept = ends != 0
    targets = (sites[:, None] + _MOVES)[kept] % cfg.site_count
    # the distinct targets in order: a sort and a neighbour compare
    ranked = np.sort(targets)
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    sites = ranked[first]
    out = np.zeros((len(sites), last + 1), dtype=complex)
    out[np.searchsorted(sites, targets), kept.nonzero()[1] * last] = ends[kept]
    return PureState(cfg, sites * unit, out, (sites, constants))
