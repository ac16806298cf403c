import math
from fractions import Fraction

import numpy as np
import pytest

from borrowalk.bound_states import (
    GhzSpec,
    bound_state,
    remove_particle,
    scan_conditions,
    verify_eigenstate,
)
from borrowalk.lattice import LatticeConfig, make_basis_state, phase_grid

from oracles import ghz_coin, ghz_condition, ghz_condition_closed, state_from_labels

RESONANT = Fraction(2, 3)


def test_ghz_spec_validation():
    GhzSpec(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        GhzSpec(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        GhzSpec(3, 1.0, 1.0)
    sym = GhzSpec.symmetric(3)
    anti = GhzSpec.antisymmetric(3)
    assert sym.beta == pytest.approx(sym.gamma)
    assert anti.beta == pytest.approx(-anti.gamma)
    coin = ghz_coin(sym)
    assert coin.shape == (8,)
    assert coin[0] == pytest.approx(sym.beta)
    assert coin[-1] == pytest.approx(sym.gamma)
    assert np.count_nonzero(coin) == 2


def test_bound_state_structure():
    d = 6
    cfg = LatticeConfig(3, d, RESONANT)
    state = bound_state(cfg, 3)
    assert state.norm_sq() == pytest.approx(1.0)
    assert len(state.amplitudes) == 2 * d
    amp = 1.0 / math.sqrt(2 * d)
    for (pos, coins), value in state.amplitudes.items():
        assert len(set(pos)) == 1
        assert coins in {(1, 1, 1), (-1, -1, -1)}
        assert value == pytest.approx(amp)


def test_bound_state_branch_signs():
    d = 4
    for arity, sign in ((2, -1.0), (3, 1.0), (4, -1.0)):
        cfg = LatticeConfig(arity, d, RESONANT)
        state = bound_state(cfg, arity)
        right = state.amplitudes[((0,) * arity, (1,) * arity)]
        left = state.amplitudes[((0,) * arity, (-1,) * arity)]
        assert left == pytest.approx(sign * right)


def test_bound_state_alternating_wave():
    d = 6
    cfg = LatticeConfig(3, d, RESONANT)
    state = bound_state(cfg, 3, r=1)
    for x in range(d):
        expected = (-1.0) ** x / math.sqrt(2 * d)
        assert state.amplitudes[((x,) * 3, (1, 1, 1))] == pytest.approx(expected)


def test_bound_state_rejects_bad_requests():
    cfg = LatticeConfig(3, 5, RESONANT)
    with pytest.raises(ValueError):
        bound_state(cfg, 5)
    with pytest.raises(ValueError):
        bound_state(cfg, 2)
    with pytest.raises(ValueError):
        bound_state(cfg, 3, r=2)
    with pytest.raises(ValueError):
        bound_state(cfg, 3, r=1)


@pytest.mark.parametrize("arity,phi", [(2, RESONANT), (2, Fraction(1, 5)), (2, Fraction(1)), (3, RESONANT), (4, RESONANT)])
@pytest.mark.parametrize("r", (0, 1))
def test_multiplets_are_step_eigenstates(arity, phi, r):
    cfg = LatticeConfig(arity, 6, phi)
    report = verify_eigenstate(bound_state(cfg, arity, r))
    assert report.is_eigenvector
    assert report.residual <= 1e-12
    assert report.eigenvalue == pytest.approx(1.0 if r == 0 else -1.0, abs=1e-12)


def test_misaligned_state_is_not_an_eigenstate():
    cfg = LatticeConfig(3, 6, RESONANT)
    report = verify_eigenstate(make_basis_state(cfg, (0, 0, 0), "RRL"))
    assert not report.is_eigenvector
    assert report.residual > 1e-3


def test_detuned_trimer_is_not_an_eigenstate():
    cfg = LatticeConfig(3, 6, Fraction(1, 2))
    report = verify_eigenstate(bound_state(cfg, 3))
    assert not report.is_eigenvector
    assert report.residual > 1e-3


def _random_ghz(rng, arity):
    raw = rng.normal(size=4)
    beta = complex(raw[0], raw[1])
    gamma = complex(raw[2], raw[3])
    scale = math.sqrt(abs(beta) ** 2 + abs(gamma) ** 2)
    return GhzSpec(arity, beta / scale, gamma / scale)


def test_condition_closed_form_matches_matrix_route():
    rng = np.random.default_rng(41)
    for _ in range(300):
        arity = int(rng.integers(2, 7))
        phi = float(rng.uniform(1e-3, 2 * math.pi - 1e-3))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(0, d))
        ghz = _random_ghz(rng, arity)
        brute = ghz_condition(arity, phi, ghz, k, d)
        closed = ghz_condition_closed(arity, phi, ghz, k, d)
        assert abs(brute - closed) <= 1e-10


def test_condition_depends_only_on_momentum_angle():
    ghz = GhzSpec.symmetric(3)
    phi = 1.7
    assert ghz_condition(3, phi, ghz, 0, 2) == pytest.approx(ghz_condition(3, phi, ghz, 0, 7))
    assert ghz_condition(3, phi, ghz, 1, 2) == pytest.approx(ghz_condition(3, phi, ghz, 3, 6))


def test_condition_peaks_at_resonance():
    sym3 = GhzSpec.symmetric(3)
    anti4 = GhzSpec.antisymmetric(4)
    anti2 = GhzSpec.antisymmetric(2)
    assert ghz_condition(3, RESONANT, sym3) == pytest.approx(1.0, abs=1e-12)
    assert ghz_condition(4, RESONANT, anti4) == pytest.approx(1.0, abs=1e-12)
    assert ghz_condition(2, Fraction(7, 11), anti2) == pytest.approx(1.0, abs=1e-12)
    assert ghz_condition(3, Fraction(1, 2), sym3) < 1.0 - 1e-3
    assert ghz_condition(4, Fraction(1, 2), anti4) < 1.0 - 1e-3


def test_scan_finds_exactly_the_known_multiplets():
    grid = phase_grid(72)
    points = scan_conditions(range(2, 7), grid, k_values=(0, 1), d=2)
    by_arity: dict[int, set] = {}
    for point in points:
        assert point.value >= 1.0 - 1e-9
        assert point.closed_form_value == pytest.approx(point.value, abs=1e-10)
        sign = "anti" if point.ghz.gamma.real < 0 else "sym"
        by_arity.setdefault(point.arity, set()).add((point.phase, point.momentum_index, sign))
    assert set(by_arity) == {2, 3, 4}
    assert by_arity[2] == {(phi, k, "anti") for phi in grid for k in (0, 1)}
    assert by_arity[3] == {(phi, k, "sym") for phi in (Fraction(2, 3), Fraction(4, 3)) for k in (0, 1)}
    assert by_arity[4] == {(phi, k, "anti") for phi in (Fraction(2, 3), Fraction(4, 3)) for k in (0, 1)}


def test_remove_particle_from_trimer():
    d = 4
    cfg = LatticeConfig(3, d, RESONANT)
    ensemble = remove_particle(bound_state(cfg, 3))
    assert len(ensemble.members) == 2 * d
    assert sum(w for w, _ in ensemble.members) == pytest.approx(1.0)
    assert ensemble.config.particle_count == 2
    for weight, member in ensemble.members:
        assert weight == pytest.approx(1.0 / (2 * d))
        ((pos, coins), amp), = member.amplitudes.items()
        assert len(pos) == 2 and len(set(pos)) == 1
        assert len(set(coins)) == 1
        assert amp == pytest.approx(1.0)


def test_remove_particle_requires_collective_labels():
    cfg = LatticeConfig(2, 4, RESONANT)
    scattered = state_from_labels(cfg, {((0, 1), (1, 1)): 1.0 + 0j})
    with pytest.raises(ValueError):
        remove_particle(scattered)
    single = LatticeConfig(1, 4, RESONANT)
    with pytest.raises(ValueError):
        remove_particle(state_from_labels(single, {((0,), (1,)): 1.0 + 0j}))
