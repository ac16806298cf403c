import math
from fractions import Fraction

import numpy as np
import pytest

from borrowalk.lattice import (
    Ensemble,
    LatticeConfig,
    as_coin,
    coin_char,
    ensemble_overlap,
    inner_product,
    make_basis_state,
    momentum_phases,
    phase_factor,
    phase_grid,
    phase_radians,
)

from borrowalk.evolution import apply_interaction

from oracles import all_labels, labels_of, random_sparse_state, state_from_labels, state_json_entries


def test_coin_aliases():
    assert as_coin(1) == 1
    assert as_coin(-1) == -1
    assert as_coin("R") == 1
    assert as_coin("L") == -1
    assert as_coin("right") == 1
    assert as_coin("left") == -1
    assert coin_char(1) == "R"
    assert coin_char(-1) == "L"


def test_coin_rejects_junk():
    for bad in (0, 2, "r", "up", None, 0.5):
        with pytest.raises(ValueError):
            as_coin(bad)


def test_phase_factor_right_angles_are_exact():
    assert phase_factor(Fraction(1)) == -1
    assert phase_factor(Fraction(1, 2)) == 1j
    assert phase_factor(Fraction(3, 2)) == -1j
    assert phase_factor(Fraction(2, 3), 3) == 1
    assert phase_factor(Fraction(1, 5), 5) == -1
    assert phase_factor(Fraction(1, 2), 3) == -1j
    assert phase_factor(Fraction(7, 2)) == -1j


def test_phase_factor_matches_exponential():
    rng = np.random.default_rng(7)
    for _ in range(50):
        num = int(rng.integers(1, 40))
        den = int(rng.integers(1, 20))
        m = int(rng.integers(1, 7))
        frac = Fraction(num, den)
        expected = np.exp(1j * math.pi * float(frac) * m)
        assert abs(phase_factor(frac, m) - expected) < 1e-12
    for _ in range(20):
        phi = float(rng.uniform(0, 2 * math.pi))
        assert abs(phase_factor(phi, 3) - np.exp(3j * phi)) < 1e-12


def test_phase_radians():
    assert phase_radians(Fraction(2, 3)) == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert phase_radians(1.25) == 1.25


def test_phase_grid_covers_open_interval():
    grid = phase_grid(720)
    assert len(grid) == 719
    assert grid[0] == Fraction(1, 360)
    assert grid[-1] == Fraction(719, 360)
    assert all(0 < phi < 2 for phi in grid)
    assert Fraction(2, 3) in grid
    assert Fraction(4, 3) in grid
    steps = {grid[i + 1] - grid[i] for i in range(len(grid) - 1)}
    assert steps == {Fraction(1, 360)}


def test_phase_grid_rejects_tiny():
    with pytest.raises(ValueError):
        phase_grid(1)


def test_config_validation():
    LatticeConfig(1, 2, Fraction(1, 3))
    with pytest.raises(ValueError):
        LatticeConfig(0, 4, Fraction(1, 3))
    with pytest.raises(ValueError):
        LatticeConfig(2, 1, Fraction(1, 3))
    for bad_phase in (Fraction(0), Fraction(2), 0.0, 2 * math.pi, -0.5):
        with pytest.raises(ValueError):
            LatticeConfig(2, 4, bad_phase)
    with pytest.raises(TypeError):
        LatticeConfig(2, 4, "2pi/3")
    with pytest.raises(ValueError):
        LatticeConfig(2, 4, Fraction(2, 3), free_coin="grover")
    cfg = LatticeConfig(2, 4, Fraction(2, 3), free_coin=(0.3, 0.1, 0.2))
    assert cfg.free_coin == (0.3, 0.1, 0.2)


def test_config_phase_helpers():
    cfg = LatticeConfig(3, 8, Fraction(2, 3))
    assert phase_radians(cfg.interaction_phase) == pytest.approx(2 * math.pi / 3)
    assert phase_factor(cfg.interaction_phase, 3) == 1
    assert abs(phase_factor(cfg.interaction_phase) - np.exp(2j * math.pi / 3)) < 1e-15


def test_position_codes_must_fit_64_bits():
    LatticeConfig(3, 2_000_000, Fraction(2, 3))
    for n, d in ((3, 2_100_000), (4, 10**5), (64, 2), (10**9, 8)):
        with pytest.raises(ValueError):
            LatticeConfig(n, d, Fraction(2, 3))


def test_prune_amplitudes():
    # zeros are never stored; the coin stage drops what falls below epsilon
    cfg = LatticeConfig(1, 4, Fraction(2, 3))
    amps = {((0,), (1,)): 1.0 + 0j, ((1,), (1,)): 1e-16 + 0j, ((2,), (1,)): 0j}
    state = state_from_labels(cfg, amps)
    assert set(labels_of(state)) == {((0,), (1,)), ((1,), (1,))}
    kept = labels_of(apply_interaction(state))
    assert set(kept) == {((0,), (1,))}


def test_basis_state_wraps_and_validates():
    cfg = LatticeConfig(2, 5, Fraction(2, 3))
    state = make_basis_state(cfg, (7, -1), ("R", "L"))
    assert set(labels_of(state)) == {((2, 4), (1, -1))}
    assert state.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        make_basis_state(cfg, (0,), ("R",))


def test_inner_product_conjugate_symmetry():
    cfg = LatticeConfig(2, 6, Fraction(2, 3))
    rng = np.random.default_rng(11)
    a = random_sparse_state(cfg, rng, 8)
    b = random_sparse_state(cfg, rng, 12)
    ab = inner_product(a, b)
    ba = inner_product(b, a)
    assert ab == pytest.approx(ba.conjugate())
    assert inner_product(a, a).real == pytest.approx(a.norm_sq())
    assert inner_product(a, a).imag == pytest.approx(0.0, abs=1e-15)


def test_inner_product_rejects_mismatched_lattices():
    a = make_basis_state(LatticeConfig(2, 4, Fraction(2, 3)), (0, 0), "RR")
    b = make_basis_state(LatticeConfig(2, 6, Fraction(2, 3)), (0, 0), "RR")
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_ensemble_validation():
    cfg = LatticeConfig(2, 4, Fraction(2, 3))
    with pytest.raises(ValueError, match="at least one member"):
        Ensemble(cfg, [], [], [])
    with pytest.raises(ValueError, match="positive"):
        Ensemble(cfg, [0], [0], [0.0])
    with pytest.raises(ValueError, match="one weight per member"):
        Ensemble(cfg, [0, 5], [0], [0.5, 0.5])
    # codes 0, 5, 10, 15 put both walkers on one site; columns 0 and 3 are RR and LL
    for code, col in ((1, 0), (20, 0), (-5, 0), (5, 1), (5, 2)):
        with pytest.raises(ValueError, match="co-located aligned"):
            Ensemble(cfg, [0, code], [0, col], [0.5, 0.5])
    weights = np.array([0.25, 0.75])
    ens = Ensemble(cfg, [0, 5], [0, 3], weights)
    assert ens.config == cfg
    assert weights.flags.writeable and not ens.weights.flags.writeable
    assert [w for w, _ in ens.members] == [0.25, 0.75]
    assert [labels_of(m) for _, m in ens.members] == [{((0, 0), (1, 1)): 1}, {((1, 1), (-1, -1)): 1}]


def test_ensemble_overlap_matches_hand_sum():
    cfg = LatticeConfig(2, 4, Fraction(2, 3))
    rng = np.random.default_rng(3)
    members = [
        (0.3, make_basis_state(cfg, (0, 0), "LL")),
        (0.5, make_basis_state(cfg, (1, 1), "RR")),
        (0.2, make_basis_state(cfg, (3, 3), "LL")),
    ]
    probe = state_from_labels(cfg, {label: complex(*rng.normal(size=2)) for label in all_labels(cfg)})
    expected = sum(w * abs(inner_product(probe, m)) ** 2 for w, m in members)
    ensemble = Ensemble(cfg, [0, 5, 15], [3, 0, 3], [0.3, 0.5, 0.2])
    assert ensemble_overlap(ensemble, probe) == pytest.approx(expected, abs=1e-14)


def test_state_json_entries_are_sorted_with_fixed_fields():
    cfg = LatticeConfig(2, 4, Fraction(2, 3))
    state = state_from_labels(
        cfg,
        {
            ((1, 0), (1, -1)): 0.5 + 0.25j,
            ((0, 2), (-1, -1)): -0.5 + 0j,
        },
    )
    rows = state_json_entries(state)
    assert [list(row) for row in rows] == [["positions", "coins", "re", "im"]] * 2
    assert rows[0]["positions"] == [0, 2]
    assert rows[0]["coins"] == ["L", "L"]
    assert rows[1]["positions"] == [1, 0]
    assert rows[1]["coins"] == ["R", "L"]
    assert rows[1]["re"] == 0.5
    assert rows[1]["im"] == 0.25


def test_momentum_phases():
    assert momentum_phases(0, 4) == (1, 1)
    # a quarter turn each way, exact from the Fraction 2k/d
    assert momentum_phases(1, 4) == (-1j, 1j)
    with pytest.raises(ValueError, match="ring size"):
        momentum_phases(0, 0)
    with pytest.raises(ValueError, match="momentum index"):
        momentum_phases(4, 4)
    with pytest.raises(ValueError, match="momentum index"):
        momentum_phases(-1, 4)
