import math
from fractions import Fraction

import numpy as np
import pytest

from borrowalk.evolution import (
    apply_interaction,
    apply_shift,
    contact_weights,
    free_coin_matrix,
    interaction_group_matrix,
    projected_step,
    step,
)
from borrowalk.lattice import LatticeConfig, PureState, inner_product, make_basis_state

from oracles import (
    dense_step_matrix,
    embed_two_qubit,
    group_matrix_oracle,
    grover4,
    label_index,
    project_bound,
    random_sparse_state,
    state_from_labels,
    state_to_vector,
)

PHASES = (Fraction(2, 3), Fraction(1, 5), Fraction(1), 1.234)


@pytest.mark.parametrize("phi", PHASES)
def test_pair_matrix_matches_projector_definition(phi):
    ours = interaction_group_matrix(2, phi)
    assert np.allclose(ours, grover4(phi), atol=1e-15)
    assert np.allclose(ours.conj().T @ ours, np.eye(4), atol=1e-14)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("phi", (Fraction(2, 3), 1.234, Fraction(1, 5), Fraction(1), 1e-160))
def test_group_matrix_routes_agree(m, phi):
    diagonal_route = interaction_group_matrix(m, phi)
    product_route = _pair_product(m, phi)
    oracle = group_matrix_oracle(m, phi)
    assert np.allclose(diagonal_route, product_route, atol=1e-13)
    assert np.allclose(diagonal_route, oracle, atol=1e-13)
    identity = np.eye(1 << m)
    assert np.allclose(diagonal_route.conj().T @ diagonal_route, identity, atol=1e-13)
    # entry (a, b) is the contact weight at the Hamming distance of a and b
    weights = contact_weights(m, phi)
    assert weights.shape == (m + 1,) and not weights.flags.writeable
    coins = np.arange(1 << m)
    distance = np.array([[bin(a ^ b).count("1") for b in coins] for a in coins])
    assert (diagonal_route == weights[distance]).all()


def test_lattices_keep_the_phase_unit_apart():
    # Fraction(1, 2) is pi/2 and 0.5 is radians; the coin-stage caches are
    # keyed on the lattice
    exact, radians = LatticeConfig(2, 5, Fraction(1, 2)), LatticeConfig(2, 5, 0.5)
    assert exact != radians
    for cfg in (exact, radians, exact):
        state = make_basis_state(cfg, (0, 0), (1, -1))
        stepped = apply_interaction(state)
        expected = interaction_group_matrix(2, cfg.interaction_phase) @ state.block[0]
        assert np.allclose(stepped.block[0], expected, atol=1e-15)


def _pair_product(m, phi, pair_order=None):
    """Contact coin as an ordered product of the oracle's embedded pair operators."""
    pairs = pair_order if pair_order is not None else [(i, j) for i in range(m) for j in range(i + 1, m)]
    total = np.eye(1 << m, dtype=complex)
    for i, j in pairs:
        total = embed_two_qubit(grover4(phi), i, j, m) @ total
    return total


def test_pair_factors_commute():
    phi = Fraction(2, 3)
    default = _pair_product(4, phi)
    reversed_order = _pair_product(
        4, phi, pair_order=[(i, j) for i in range(4) for j in range(i + 1, 4)][::-1]
    )
    shuffled = _pair_product(
        4, phi, pair_order=[(1, 3), (0, 1), (2, 3), (0, 3), (1, 2), (0, 2)]
    )
    assert np.allclose(default, reversed_order, atol=1e-13)
    assert np.allclose(default, shuffled, atol=1e-13)


def test_group_matrix_is_cached_and_frozen():
    a = interaction_group_matrix(3, Fraction(2, 3))
    b = interaction_group_matrix(3, Fraction(2, 3))
    assert a is b
    assert not a.flags.writeable


def test_free_coin_matrix_variants():
    assert free_coin_matrix(LatticeConfig(2, 4, Fraction(2, 3))) is None
    hadamard = free_coin_matrix(LatticeConfig(2, 4, Fraction(2, 3), free_coin="hadamard"))
    assert np.allclose(hadamard @ hadamard, np.eye(2), atol=1e-15)
    angles = (0.4, 0.7, -0.2)
    su2 = free_coin_matrix(LatticeConfig(2, 4, Fraction(2, 3), free_coin=angles))
    assert np.allclose(su2.conj().T @ su2, np.eye(2), atol=1e-14)
    assert np.linalg.det(su2) == pytest.approx(1.0)
    assert su2[0, 0] == pytest.approx(np.exp(1j * 0.7) * np.cos(0.4))
    assert su2[0, 1] == pytest.approx(np.exp(-1j * 0.2) * np.sin(0.4))


def test_shift_moves_along_coins():
    cfg = LatticeConfig(2, 4, Fraction(2, 3))
    state = make_basis_state(cfg, (0, 3), "RL")
    moved = apply_shift(state)
    assert set(moved.amplitudes) == {((1, 2), (1, -1))}
    wrapped = apply_shift(make_basis_state(cfg, (3, 0), "RL"))
    assert set(wrapped.amplitudes) == {((0, 3), (1, -1))}


def test_interaction_leaves_lone_identity_walkers_alone():
    cfg = LatticeConfig(3, 6, Fraction(2, 3))
    state = make_basis_state(cfg, (0, 2, 4), "RLR")
    assert apply_interaction(state).amplitudes == state.amplitudes


DENSE_CASES = (
    LatticeConfig(2, 4, Fraction(2, 3)),
    LatticeConfig(2, 4, 1.1),
    LatticeConfig(3, 4, Fraction(2, 3)),
    LatticeConfig(3, 3, Fraction(2, 3), free_coin="hadamard"),
    LatticeConfig(3, 3, Fraction(5, 7), free_coin=(0.9, 0.3, -0.4)),
    LatticeConfig(4, 3, Fraction(2, 3)),
)


@pytest.mark.parametrize("cfg", DENSE_CASES, ids=lambda c: f"n{c.particle_count}d{c.site_count}{c.free_coin if isinstance(c.free_coin, str) else 'su2'}")
def test_step_matches_dense_oracle(cfg):
    dense = dense_step_matrix(cfg)
    assert np.allclose(dense.conj().T @ dense, np.eye(dense.shape[0]), atol=1e-12)
    rng = np.random.default_rng(19)
    for _ in range(5):
        state = random_sparse_state(cfg, rng, 6)
        expected = dense @ state_to_vector(state)
        assert np.allclose(state_to_vector(step(state)), expected, atol=1e-12)


def test_step_preserves_norm_on_random_states():
    rng = np.random.default_rng(23)
    cases = (
        LatticeConfig(2, 6, Fraction(2, 3)),
        LatticeConfig(3, 5, 2.5, free_coin="hadamard"),
        LatticeConfig(4, 4, Fraction(1, 3)),
    )
    for cfg in cases:
        for _ in range(30):
            state = random_sparse_state(cfg, rng, 7)
            stepped = step(state)
            assert stepped.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-12)


def _translated(state: PureState, offset: int) -> PureState:
    d = state.config.site_count
    return state_from_labels(
        state.config,
        {
            (tuple((x + offset) % d for x in pos), coins): amp
            for (pos, coins), amp in state.amplitudes.items()
        },
    )


def test_step_commutes_with_ring_translation():
    cfg = LatticeConfig(3, 5, Fraction(2, 3), free_coin="hadamard")
    rng = np.random.default_rng(31)
    for _ in range(10):
        state = random_sparse_state(cfg, rng, 6)
        left = _translated(step(state), 2)
        right = step(_translated(state, 2))
        labels = set(left.amplitudes) | set(right.amplitudes)
        for lab in labels:
            assert left.amplitudes.get(lab, 0j) == pytest.approx(right.amplitudes.get(lab, 0j), abs=1e-12)


def test_projection_keeps_only_collective_labels():
    cfg = LatticeConfig(2, 4, Fraction(2, 3))
    state = state_from_labels(
        cfg,
        {
            ((1, 1), (1, 1)): 0.5 + 0j,
            ((1, 1), (1, -1)): 0.5 + 0j,
            ((1, 2), (1, 1)): 0.5 + 0j,
            ((2, 2), (-1, -1)): 0.5 + 0j,
        },
    )
    projected = project_bound(state)
    assert set(projected.amplitudes) == {((1, 1), (1, 1)), ((2, 2), (-1, -1))}
    again = project_bound(projected)
    assert again.amplitudes == projected.amplitudes


def test_projected_step_is_a_contraction():
    cfg = LatticeConfig(3, 6, Fraction(2, 3))
    rng = np.random.default_rng(37)
    for _ in range(5):
        state = random_sparse_state(cfg, rng, 6)
        previous = state.norm_sq()
        for _ in range(4):
            state = projected_step(state)
            current = state.norm_sq()
            assert current <= previous + 1e-12
            previous = current


def test_label_index_is_injective():
    cfg = LatticeConfig(2, 3, Fraction(2, 3))
    seen = set()
    from oracles import all_labels

    for pos, coins in all_labels(cfg):
        seen.add(label_index(cfg, pos, coins))
    assert len(seen) == (2 * 3) ** 2
