"""Properties of the array step engine on random small lattices.

Lattices have n <= 3 walkers on d <= 5 sites, phases are exact pi fractions
or floats, and the free coin is the identity, the Hadamard coin or an SU(2)
rotation.  The step is checked against the dense oracle, for unitarity, and
for covariance under ring translations and particle permutations; the
projected step is checked bit for bit against a full step followed by the
collective projection.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borrowalk.evolution as evolution
import borrowalk.limits as limits
from borrowalk.bound_states import bound_state, verify_eigenstate
from borrowalk.cli import run
from borrowalk.evolution import projected_step, step
from borrowalk.fidelity import persistence_trajectory
from borrowalk.lattice import LatticeConfig, PureState, inner_product, make_basis_state
from borrowalk.limits import MAX_WALK_BYTES, require_walk_fits, walk_bytes, walk_rows

from oracles import (
    dense_step_matrix,
    labels_of,
    project_bound,
    projected_step_reference,
    random_labels,
    random_sparse_state,
    state_from_labels,
    state_to_vector,
)

engine = settings(max_examples=30, deadline=None, derandomize=True, database=None)

pi_fractions = st.integers(1, 12).flatmap(lambda q: st.integers(1, 2 * q - 1).map(lambda p: Fraction(p, q)))
radians = st.floats(min_value=1e-3, max_value=2 * math.pi - 1e-3)
angles = st.floats(min_value=-math.pi, max_value=math.pi)
coins = st.one_of(st.sampled_from(("identity", "hadamard")), st.tuples(angles, angles, angles))


@st.composite
def lattices(draw, max_dim=None, phases=st.one_of(pi_fractions, radians)):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(2, 5))
    if max_dim is not None:
        while (2 * d) ** n > max_dim:
            d -= 1
    return LatticeConfig(n, d, draw(phases), draw(coins))


@st.composite
def states(draw, config):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(st.integers(1, min(8, (2 * config.site_count) ** config.particle_count)))
    return random_sparse_state(config, rng, labels)


def _close(a: PureState, b: PureState, tol: float = 1e-12) -> bool:
    a, b = labels_of(a), labels_of(b)
    return all(abs(a.get(k, 0j) - b.get(k, 0j)) <= tol for k in set(a) | set(b))


def _relabel(state: PureState, move) -> PureState:
    return state_from_labels(state.config, {move(pos, cns): a for (pos, cns), a in labels_of(state).items()})


@engine
@given(st.data())
def test_step_matches_the_dense_step_matrix(data):
    # dense matrices up to 512 x 512 keep each example fast
    cfg = data.draw(lattices(max_dim=512))
    dense = dense_step_matrix(cfg)
    for _ in range(3):
        state = data.draw(states(cfg))
        got = state_to_vector(step(state))
        assert np.max(np.abs(got - dense @ state_to_vector(state))) <= 1e-12


@engine
@given(st.data())
def test_step_is_unitary(data):
    cfg = data.draw(lattices())
    a, b = data.draw(states(cfg)), data.draw(states(cfg))
    assert abs(inner_product(step(a), step(b)) - inner_product(a, b)) <= 1e-12
    assert abs(step(a).norm_sq() - a.norm_sq()) <= 1e-12


@engine
@given(st.data())
def test_step_commutes_with_translation_and_permutation(data):
    cfg = data.draw(lattices())
    state = data.draw(states(cfg))
    n, d = cfg.particle_count, cfg.site_count
    offset = data.draw(st.integers(1, d - 1))
    perm = data.draw(st.permutations(range(n)))

    def translate(pos, cns):
        return tuple((x + offset) % d for x in pos), cns

    def permute(pos, cns):
        return tuple(pos[i] for i in perm), tuple(cns[i] for i in perm)

    for move in (translate, permute):
        assert _close(_relabel(step(state), move), step(_relabel(state, move)))


@engine
@given(st.data())
def test_projection_is_idempotent(data):
    cfg = data.draw(lattices())
    state = step(data.draw(states(cfg)))
    once = project_bound(state)
    assert labels_of(once) == labels_of(project_bound(once))
    full = labels_of(state)
    for (pos, cns), a in labels_of(once).items():
        assert len(set(pos)) == 1 and len(set(cns)) == 1
        assert full[(pos, cns)] == a


def _assert_same_bits(got: PureState, want: PureState) -> None:
    assert np.array_equal(got.codes, want.codes)
    # the block's float bits, so -0.0 and 0.0 differ as they do in the output
    assert np.array_equal(got.block.view(np.uint64), want.block.view(np.uint64))


# resonant, sign-flipping and vanishing contact phases, then any phase; at
# 1e-160 the contact coin leaks amplitudes far below PRUNE_EPSILON into the
# aligned columns
@pytest.mark.parametrize(
    "phases",
    [st.just(phi) for phi in (Fraction(2, 3), Fraction(4, 3), Fraction(1), 1e-160)]
    + [st.one_of(pi_fractions, radians)],
    ids=("2pi/3", "4pi/3", "pi", "1e-160", "any"),
)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_projected_step_is_the_projected_full_step_bit_for_bit(phases, data):
    cfg = data.draw(lattices(phases=phases))
    n, d = cfg.particle_count, cfg.site_count
    # random labels, mostly not co-located, plus co-located rows in any coins
    labels = labels_of(data.draw(states(cfg)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(data.draw(st.integers(0, 3))):
        coins = tuple(int(c) for c in rng.choice((1, -1), size=n))
        labels[((int(rng.integers(d)),) * n, coins)] = complex(rng.normal(), rng.normal())
    state = state_from_labels(cfg, labels)
    for _ in range(data.draw(st.integers(1, 30))):
        got = projected_step(state)
        _assert_same_bits(got, projected_step_reference(state))
        state = got


@engine
@given(st.data())
def test_projected_walks_of_mirror_images_keep_equal_norms(data):
    # for two or more walkers only the contact coin acts, and flipping every
    # coin leaves it unchanged; survival groups mirrored members on this
    n = data.draw(st.integers(2, 4))
    cfg = LatticeConfig(n, data.draw(st.integers(2, 6)), data.draw(st.one_of(pi_fractions, radians)), data.draw(coins))
    d = cfg.site_count
    labels = labels_of(data.draw(states(cfg)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(data.draw(st.integers(1, 4))):
        cns = tuple(int(c) for c in rng.choice((1, -1), size=n))
        labels[((int(rng.integers(d)),) * n, cns)] = complex(rng.normal(), rng.normal())
    state = state_from_labels(cfg, labels)
    mirror = _relabel(state, lambda pos, cns: (tuple(-x % d for x in pos), tuple(-c for c in cns)))
    for _ in range(30):
        state, mirror = projected_step(state), projected_step(mirror)
        assert abs(state.norm_sq() - mirror.norm_sq()) <= 1e-13


@pytest.mark.parametrize("n", (1, 2, 3))
def test_projected_step_of_the_empty_and_the_scattered_state(n):
    cfg = LatticeConfig(n, 5, Fraction(2, 3), free_coin="hadamard")
    empty = state_from_labels(cfg, {})
    _assert_same_bits(projected_step(empty), projected_step_reference(empty))
    assert not len(projected_step(empty).codes)
    if n > 1:
        # no walker shares a site, so nothing stays co-located and aligned
        scattered = make_basis_state(cfg, range(n), "R" * n)
        assert not len(projected_step(scattered).codes)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_the_empty_state_is_a_fixed_point_of_the_projected_step(n):
    cfg = LatticeConfig(n, 5, 1.3, free_coin="hadamard")
    empties = [state_from_labels(cfg, {})]
    if n > 1:
        # scattered walkers: the walk dies in one step
        empties.append(projected_step(make_basis_state(cfg, range(n), "R" * n)))
    for empty in empties:
        assert projected_step(empty) is empty
        _assert_same_bits(projected_step(empty), projected_step_reference(empty))


class _CountingCoin:
    """A coin matrix that counts the blocks multiplied by it; numpy defers
    `block @ coin` to __rmatmul__ because __array_ufunc__ is None."""

    __array_ufunc__ = None

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __rmatmul__(self, block):
        self.products += 1
        return block @ self.matrix


def test_a_dead_walk_does_no_coin_work(monkeypatch):
    # at phi = 1.3 pruning zeroes the trimer after 60 steps
    coins = []
    projection = evolution._projection

    def counted(config):
        unit, coin, last = projection(config)
        coins.append(_CountingCoin(coin))
        return unit, coins[-1], last

    monkeypatch.setattr(evolution, "_projection", counted)
    state = bound_state(LatticeConfig(3, 8, 1.3), 3)
    live = 0
    for _ in range(200):
        live += bool(len(state.codes))
        state = projected_step(state)
    assert 0 < live < 200 and not len(state.codes)
    assert len(coins) == 1 and coins[0].products == live


@pytest.mark.parametrize("phi", (1.3, Fraction(2, 3)), ids=("dies", "persists"))
def test_trajectory_is_the_reference_walk_bit_for_bit(phi):
    t_max = 200
    initial = bound_state(LatticeConfig(3, 8, phi), 3)
    current = initial
    want = [abs(inner_product(initial, current)) ** 2]
    for _ in range(t_max):
        current = projected_step_reference(current)
        want.append(abs(inner_product(initial, current)) ** 2)
    got = persistence_trajectory(phi, t_max)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert (want[-1] == 0.0) == (phi == 1.3)


@engine
@given(st.data())
def test_labels_read_back_unchanged(data):
    # the oracle's label-by-label reader and writer over the library's
    # storage, and the stored amplitudes in label order
    cfg = data.draw(lattices())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    count = data.draw(st.integers(1, min(8, (2 * cfg.site_count) ** cfg.particle_count)))
    labels = random_labels(cfg, rng, count)
    state = state_from_labels(cfg, labels)
    assert labels_of(state) == labels
    assert list(labels_of(state)) == sorted(labels)
    assert len(labels_of(state)) == len(labels)
    assert state.amplitudes.tolist() == [labels[k] for k in sorted(labels)]
    # a stepped state stores zeros inside its rows, which neither reads
    for s in (state, step(state)):
        assert np.array_equal(s.amplitudes, s.block[s.entries()])
        assert len(s.amplitudes) == np.count_nonzero(s.block)
        assert s.amplitudes.tolist() == list(labels_of(s).values())


def test_labels_are_validated():
    cfg = LatticeConfig(2, 4, Fraction(2, 3))
    for bad, message in (
        ({((0, 4), (1, 1)): 1.0}, "positions"),
        ({((0, 1), (1, 0)): 1.0}, "coins"),
        ({((0,), (1,)): 1.0}, "one position and one coin"),
        ({((0, 1),): 1.0}, "pairs a position tuple"),
    ):
        with pytest.raises(ValueError, match=message):
            state_from_labels(cfg, bad)


@pytest.mark.parametrize("coin", ("identity", "hadamard"))
def test_any_multiple_of_an_eigenvector_is_certified(coin):
    cfg = LatticeConfig(3, 8, Fraction(2, 3), free_coin=coin)
    twice = state_from_labels(cfg, {k: 2 * a for k, a in labels_of(bound_state(cfg, 3)).items()})
    report = verify_eigenstate(twice)
    assert report.is_eigenvector
    assert abs(report.eigenvalue - 1.0) <= 1e-12
    assert report.residual <= 1e-12
    with pytest.raises(ValueError):
        verify_eigenstate(state_from_labels(cfg, {}))


def test_walk_size_arithmetic():
    # 56 bytes per coin-block entry; 3 bytes of index tables and 33 complex
    # 4**n tables per coin-matrix entry
    assert walk_bytes(2, 10) == 10 * 4 * 56 + 16 * (3 + 33 * 16)
    assert walk_bytes(4, 1) == 16 * 56 + 256 * (3 + 33 * 16)
    assert walk_rows(3, 8, 2) == 27
    # on an even ring each walker keeps one parity: d // 2 sites at a time
    assert walk_rows(3, 8, 100) == 64
    assert walk_rows(4, 100, 1000, projected=True) == 50
    assert walk_rows(3, 40, 39) == 8000
    assert walk_rows(2, 7, 100) == 49
    assert walk_rows(2, 100, 3, projected=True) == 4
    # thirteen co-located walkers: the 33 complex 4**13 tables alone are 33 GiB
    assert 33 * 4**13 * 16 > MAX_WALK_BYTES
    with pytest.raises(ValueError):
        require_walk_fits(13, walk_rows(13, 8, 10))
    require_walk_fits(4, walk_rows(4, 8, 10))
    require_walk_fits(3, walk_rows(3, 100, 10_000, projected=True))


@pytest.mark.parametrize(
    "cfg, start",
    [
        (LatticeConfig(2, 40, Fraction(2, 3)), ((5, 5), "RL")),
        (LatticeConfig(2, 7, 1.3, free_coin="hadamard"), ((3, 3), "RR")),
        (LatticeConfig(3, 9, Fraction(4, 3), free_coin=(0.4, 0.7, -0.2)), ((0, 0, 0), "RLR")),
        (LatticeConfig(4, 6, 2.0), ((2, 2, 2, 2), "LRRL")),
    ],
)
def test_projected_walks_stay_within_the_row_bound(cfg, start):
    state = make_basis_state(cfg, *start)
    for steps in range(1, 61):
        state = projected_step(state)
        assert len(state.codes) <= walk_rows(cfg.particle_count, cfg.site_count, steps, projected=True)


@pytest.mark.parametrize(
    "cfg, start",
    [
        (LatticeConfig(2, 6, Fraction(2, 3), free_coin="hadamard"), ((0, 0), "RL")),
        (LatticeConfig(2, 7, Fraction(2, 3), free_coin="hadamard"), ((0, 0), "RL")),
        (LatticeConfig(2, 10, Fraction(2, 3), free_coin="hadamard"), ((0, 3), "RL")),
        (LatticeConfig(3, 4, 1.3, free_coin="hadamard"), ((0, 1, 1), "RLR")),
        (LatticeConfig(3, 5, Fraction(1, 2), free_coin=(0.4, 0.7, -0.2)), ((0, 0, 2), "RRL")),
    ],
)
def test_full_walks_reach_the_parity_row_bound(cfg, start):
    state = make_basis_state(cfg, *start)
    peak = 1
    for steps in range(1, 13):
        state = step(state)
        peak = max(peak, len(state.codes))
        assert peak <= walk_rows(cfg.particle_count, cfg.site_count, steps)
    assert peak == walk_rows(cfg.particle_count, cfg.site_count, 12)


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--n", "3", "--d", "8", "--steps", "2"],
        ["check-eigen", "--all", "--d", "8"],
        ["survival", "--n", "2", "--d", "8", "--t-max", "5"],
    ],
)
def test_oversized_walks_are_refused_up_front(argv, monkeypatch, capsys):
    monkeypatch.setattr(limits, "MAX_WALK_BYTES", 1000)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
