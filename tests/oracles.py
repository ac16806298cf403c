"""Independent dense-matrix oracles and per-point references for the test suite.

Everything here is built from first principles with its own index
conventions and its own pair embedding, so agreement with the library is
evidence rather than tautology.  Dense matrices limit the reachable sizes;
tests pick small rings accordingly.  The per-point references (a state
written and read label by label, the alignment condition, JSON rows of a
state, the projected step as a full step and a projection, a momentum block)
are the scalar forms of what the library computes in arrays.  The coboson
norm is summed over integer partitions, against the library's power-series
recurrence.
"""

from __future__ import annotations

import cmath
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, pi

import numpy as np

from borrowalk.bound_states import GhzSpec
from borrowalk.evolution import contact_weights, interaction_group_matrix, step
from borrowalk.lattice import (
    LatticeConfig,
    PureState,
    coin_char,
    colocated_unit,
    complex_add,
    complex_mul,
    complex_parts,
    momentum_phases,
    phase_factor,
)


def phi_to_radians(phi) -> float:
    """Fractions are multiples of pi, everything else is already radians."""
    if isinstance(phi, Fraction):
        return float(phi) * pi
    return float(phi)


def grover4(phi) -> np.ndarray:
    """Pair contact operator, basis (RR, RL, LR, LL), built from the projector
    definition with a plain complex exponential."""
    plus2 = np.full(4, 0.5)
    return np.eye(4, dtype=complex) + (cmath.exp(1j * phi_to_radians(phi)) - 1.0) * np.outer(plus2, plus2)


def embed_two_qubit(op4: np.ndarray, i: int, j: int, m: int) -> np.ndarray:
    """Embed a two-qubit operator on qubits (i, j) of an m-qubit register,
    particle 0 most significant, by explicit basis enumeration."""
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (m - 1 - q)) & 1 for q in range(m)]
        sub_col = (bits[i] << 1) | bits[j]
        for sub_row in range(4):
            amp = op4[sub_row, sub_col]
            if amp == 0:
                continue
            new_bits = list(bits)
            new_bits[i] = sub_row >> 1
            new_bits[j] = sub_row & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            out[row, col] += amp
    return out


def embed_one_qubit(op2: np.ndarray, i: int, m: int) -> np.ndarray:
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bit = (col >> (m - 1 - i)) & 1
        for row_bit in (0, 1):
            amp = op2[row_bit, bit]
            if amp == 0:
                continue
            row = (col & ~(1 << (m - 1 - i))) | (row_bit << (m - 1 - i))
            out[row, col] += amp
    return out


def group_matrix_oracle(m: int, phi) -> np.ndarray:
    """Contact coin on m co-located particles as an explicit pair product."""
    total = np.eye(1 << m, dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            total = embed_two_qubit(grover4(phi), i, j, m) @ total
    return total


def free_coin_oracle(config: LatticeConfig) -> np.ndarray | None:
    if config.free_coin == "identity":
        return None
    if config.free_coin == "hadamard":
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    theta, xi, zeta = config.free_coin
    return np.array(
        [
            [cmath.exp(1j * xi) * np.cos(theta), cmath.exp(1j * zeta) * np.sin(theta)],
            [-cmath.exp(-1j * zeta) * np.sin(theta), cmath.exp(-1j * xi) * np.cos(theta)],
        ]
    )


def state_from_labels(config: LatticeConfig, amplitudes) -> PureState:
    """State of a {(positions, coins): amplitude} mapping, written one label
    at a time: position code sum_i x_i d**(n-1-i), coin column with bit
    n-1-i set when particle i moves left.  Zero amplitudes are not stored."""
    n, d = config.particle_count, config.site_count
    rows: dict[int, list[complex]] = {}
    for label, amplitude in amplitudes.items():
        if amplitude == 0:
            continue
        try:
            places, coins = (tuple(part) for part in label)
        except (TypeError, ValueError):
            raise ValueError("a label pairs a position tuple with a coin tuple") from None
        if len(places) != n or len(coins) != n:
            raise ValueError("expected one position and one coin per particle")
        if not all(0 <= x < d for x in places):
            raise ValueError("positions must lie in [0, d)")
        if not all(c in (1, -1) for c in coins):
            raise ValueError("coins must be +1 (right) or -1 (left)")
        code = col = 0
        for x, c in zip(places, coins):
            code, col = code * d + x, 2 * col + (c == -1)
        rows.setdefault(code, [0j] * (1 << n))[col] = complex(amplitude)
    codes = sorted(rows)
    block = np.array([rows[code] for code in codes], dtype=complex).reshape(len(codes), 1 << n)
    return PureState(config, np.array(codes, dtype=np.int64), block)


def labels_of(state: PureState) -> dict:
    """{(positions, coins): amplitude} of every stored amplitude, read one
    label at a time in storage order: codes ascending, then coin columns
    descending, which is label order, L (-1) before R (+1).  Position x_i is
    digit n-1-i of the code in base d; bit n-1-i of the column is set when
    particle i moves left."""
    n, d = state.config.particle_count, state.config.site_count
    labels = {}
    for code, row in zip(state.codes.tolist(), state.block.tolist()):
        places = tuple(code // d ** (n - 1 - i) % d for i in range(n))
        for col in range(len(row) - 1, -1, -1):
            if row[col] != 0:
                coins = tuple(-1 if col >> (n - 1 - i) & 1 else 1 for i in range(n))
                labels[(places, coins)] = row[col]
    return labels


def label_index(config: LatticeConfig, positions, coins) -> int:
    """Mixed-radix index, particle 0 most significant, digit = 2x + coin bit."""
    idx = 0
    for x, c in zip(positions, coins):
        idx = idx * (2 * config.site_count) + 2 * x + (0 if c == 1 else 1)
    return idx


def all_labels(config: LatticeConfig):
    n, d = config.particle_count, config.site_count
    for pos in product(range(d), repeat=n):
        for coins in product((1, -1), repeat=n):
            yield pos, coins


def state_to_vector(state: PureState) -> np.ndarray:
    cfg = state.config
    vec = np.zeros((2 * cfg.site_count) ** cfg.particle_count, dtype=complex)
    for (pos, coins), amp in labels_of(state).items():
        vec[label_index(cfg, pos, coins)] = amp
    return vec


def dense_interaction_matrix(config: LatticeConfig) -> np.ndarray:
    n, d = config.particle_count, config.site_count
    dim = (2 * d) ** n
    out = np.zeros((dim, dim), dtype=complex)
    free = free_coin_oracle(config)
    # label index of every coin string at the origin, particle 0 most significant
    coin_offsets = np.array(
        [sum(((cbits >> (n - 1 - q)) & 1) * (2 * d) ** (n - 1 - q) for q in range(n)) for cbits in range(1 << n)]
    )
    coin_ops: dict[tuple, np.ndarray] = {}
    for pos in product(range(d), repeat=n):
        groups: dict[int, list[int]] = {}
        for particle, x in enumerate(pos):
            groups.setdefault(x, []).append(particle)
        key = tuple(map(tuple, groups.values()))
        coin_op = coin_ops.get(key)
        if coin_op is None:
            coin_op = np.eye(1 << n, dtype=complex)
            for members in key:
                if len(members) >= 2:
                    for a in range(len(members)):
                        for b in range(a + 1, len(members)):
                            coin_op = embed_two_qubit(
                                grover4(config.interaction_phase), members[a], members[b], n
                            ) @ coin_op
                elif free is not None:
                    coin_op = embed_one_qubit(free, members[0], n) @ coin_op
            coin_ops[key] = coin_op
        offsets = label_index(config, pos, (1,) * n) + coin_offsets
        # adding to zeros, as entry by entry, stores +0.0 for a signed zero
        out[np.ix_(offsets, offsets)] += coin_op
    return out


def dense_shift_matrix(config: LatticeConfig) -> np.ndarray:
    """Read-only; one per (n, d), as it does not depend on the phase or coin."""
    return _dense_shift(config.particle_count, config.site_count)


@lru_cache(maxsize=4)
def _dense_shift(n: int, d: int) -> np.ndarray:
    config = LatticeConfig(n, d, Fraction(1))
    dim = (2 * d) ** n
    out = np.zeros((dim, dim), dtype=complex)
    for pos, coins in all_labels(config):
        moved = tuple((x + c) % d for x, c in zip(pos, coins))
        out[label_index(config, moved, coins), label_index(config, pos, coins)] = 1.0
    out.setflags(write=False)
    return out


def dense_step_matrix(config: LatticeConfig) -> np.ndarray:
    return dense_shift_matrix(config) @ dense_interaction_matrix(config)


def dense_bound_projector(config: LatticeConfig) -> np.ndarray:
    n, d = config.particle_count, config.site_count
    dim = (2 * d) ** n
    diag = np.zeros(dim)
    for pos, coins in all_labels(config):
        if len(set(pos)) == 1 and len(set(coins)) == 1:
            diag[label_index(config, pos, coins)] = 1.0
    return np.diag(diag)


def random_labels(config: LatticeConfig, rng: np.random.Generator, label_count: int) -> dict:
    """{(positions, coins): amplitude} over label_count distinct random labels,
    normalized."""
    n, d = config.particle_count, config.site_count
    amplitudes: dict = {}
    while len(amplitudes) < label_count:
        pos = tuple(int(x) for x in rng.integers(0, d, size=n))
        coins = tuple(1 if b else -1 for b in rng.integers(0, 2, size=n))
        amplitudes[(pos, coins)] = complex(rng.normal(), rng.normal())
    weight = sum(abs(a) ** 2 for a in amplitudes.values()) ** 0.5
    return {label: amp / weight for label, amp in amplitudes.items()}


def random_sparse_state(config: LatticeConfig, rng: np.random.Generator, label_count: int) -> PureState:
    return state_from_labels(config, random_labels(config, rng, label_count))


def project_bound(state: PureState) -> PureState:
    """Keep only amplitudes where all particles share one site and one coin
    direction, the subspace the bound multiplets move in."""
    cfg = state.config
    rows = state.codes % colocated_unit(cfg.particle_count, cfg.site_count) == 0
    aligned = np.zeros((np.count_nonzero(rows), state.block.shape[1]), dtype=complex)
    aligned[:, 0] = state.block[rows, 0]
    aligned[:, -1] = state.block[rows, -1]
    kept = aligned.any(axis=1)
    return PureState(cfg, state.codes[rows][kept], aligned[kept])


def projected_step_reference(state: PureState) -> PureState:
    """Full walk step followed by the collective projection."""
    return project_bound(step(state))


def survival_by_members(ensemble, t_max: int) -> list[tuple[int, float]]:
    """(t, sum_w w ||P^t member||^2) for t = 0 .. t_max, with every member of
    the mixture evolved on its own by the reference projected step."""
    totals = [0.0] * (t_max + 1)
    for weight, member in ensemble.members:
        current = member
        for t in range(t_max + 1):
            totals[t] += weight * current.norm_sq()
            if t < t_max:
                current = projected_step_reference(current)
    return list(enumerate(totals))


def remove_particle_reference(state: PureState) -> list[tuple[float, PureState]]:
    """Members of the removal mixture, built one by one in label order: a unit
    state per stored label of the collectively bound parent, weighted by the
    label's squared modulus, with the last particle dropped."""
    cfg = state.config
    n, d = cfg.particle_count, cfg.site_count
    reduced_cfg = replace(cfg, particle_count=n - 1)
    dim = state.block.shape[1]
    rows, cols = state.entries()
    sites, offsets = np.divmod(state.codes[rows], colocated_unit(n, d))
    assert not offsets.any() and ((cols == 0) | (cols == dim - 1)).all()
    members = []
    for site, col, amp in zip(sites.tolist(), cols.tolist(), state.block[rows, cols].tolist()):
        weight = amp.real * amp.real + amp.imag * amp.imag
        if weight == 0.0:
            continue
        block = np.zeros((1, dim >> 1), dtype=complex)
        block[0, col >> 1] = 1.0
        codes = np.array([site * colocated_unit(n - 1, d)], dtype=np.int64)
        members.append((weight, PureState(reduced_cfg, codes, block)))
    return members


def state_json_entries(state: PureState) -> list[dict]:
    """JSON-ready rows sorted by label, one per stored amplitude, the rows
    jsonout.walk_snapshots writes.  Field order is fixed: positions, coins,
    re, im."""
    return [
        {
            "positions": list(pos),
            "coins": [coin_char(c) for c in cns],
            "re": a.real,
            "im": a.imag,
        }
        for (pos, cns), a in labels_of(state).items()
    ]


def momentum_block_reference(k: int, d: int, phi) -> np.ndarray:
    """Projected pair step in momentum sector k, basis (both right, both
    left), entry by entry as Python complex products of the aligned pair
    (c_0, c_2) of the contact coin and the hop phases."""
    forward, backward = momentum_phases(k, d)
    weights = contact_weights(2, phi)
    stay, flip = complex(weights[0]), complex(weights[-1])
    return np.array([[stay * forward, flip * forward], [flip * backward, stay * backward]])


def ghz_coin(spec: GhzSpec) -> np.ndarray:
    """Dense coin-space vector with beta on all-right and gamma on all-left."""
    vec = np.zeros(1 << spec.arity, dtype=complex)
    vec[0] = spec.beta
    vec[-1] = spec.gamma
    return vec


def ghz_condition(arity: int, phi, ghz: GhzSpec, k: int = 0, d: int = 2) -> float:
    """Modulus of the phased overlap between the two-branch coin state and its
    image under the full contact product, evaluated densely: the reference
    for the scan's value column.

    The value is 1 exactly when the multiplet is an eigenstate in momentum
    sector k.  It depends on k and d only through k/d, so the default ring of
    two sites already realizes both relevant sectors.
    """
    if arity != ghz.arity:
        raise ValueError("arity must match the coin state")
    hops = momentum_phases(k, d)
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


def _phased_overlap(ghz: GhzSpec, image, forward: complex, backward: complex) -> float:
    """|conj(beta) forward image[0] + conj(gamma) backward image[-1]|, the
    image entries as (real, imag) pairs."""
    top = complex_mul(complex_parts(ghz.beta.conjugate() * forward), image[0])
    bottom = complex_mul(complex_parts(ghz.gamma.conjugate() * backward), image[-1])
    # abs of a complex is the C library's hypot, as np.hypot is; math.hypot is not
    return abs(complex(*complex_add(top, bottom)))


def ghz_condition_closed(arity: int, phi, ghz: GhzSpec, k: int = 0, d: int = 2) -> float:
    """Same modulus from the sector expansion over rotated-basis strings,
    grouped by their number of antisymmetric factors, one phase_factor per
    term: the reference for the scan's closed_value column.

    Expanding the all-left branch in the rotated basis contributes
    gamma times (-1) to the power of that count, hence the sign below.  The
    phase product and the running sum are spelled out one float operation at
    a time, as the scan writes them.
    """
    if arity != ghz.arity:
        raise ValueError("arity must match the coin state")
    forward, backward = momentum_phases(k, d)
    total = (0.0, 0.0)
    scale = 1.0 / (1 << arity)
    for zeros in range(arity + 1):
        sign = -1.0 if zeros % 2 else 1.0
        weight = comb(arity, zeros) * scale
        bra = ghz.beta.conjugate() * forward + ghz.gamma.conjugate() * backward * sign
        ket = ghz.beta + ghz.gamma * sign
        phase = complex_parts(phase_factor(phi, comb(arity - zeros, 2)))
        total = complex_add(total, complex_mul(complex_parts(weight * bra * ket), phase))
    return abs(complex(*total))


def _partitions(n: int):
    """Integer partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(n, n)


def partition_norm_sq(factors: int, modes: int, quanta: int) -> int:
    """Squared norm of (sum_{i<modes} a_i^dag^quanta)^factors |0>.

    Expanding the power assigns each of the `factors` identical terms to a
    mode; grouping assignments by the partition they induce turns the double
    sum over assignments into a single sum over partitions of `factors`.
    """
    if factors < 0 or modes < 1 or quanta < 1:
        raise ValueError("need factors >= 0, modes >= 1, quanta >= 1")
    total = 0
    for partition in _partitions(factors):
        if len(partition) > modes:
            continue
        multiplicity: dict[int, int] = {}
        for part in partition:
            multiplicity[part] = multiplicity.get(part, 0) + 1
        placements = comb(modes, len(partition)) * factorial(len(partition))
        for count in multiplicity.values():
            placements //= factorial(count)
        assignments = factorial(factors)
        for part in partition:
            assignments //= factorial(part)
        weight = assignments * assignments
        for part in partition:
            weight *= factorial(quanta * part)
        total += placements * weight
    return total
