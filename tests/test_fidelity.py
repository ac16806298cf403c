import math
from fractions import Fraction

import numpy as np
import pytest

from borrowalk.evolution import contact_weights, interaction_group_matrix
from borrowalk.fidelity import (
    fidelity_sweep,
    persistence_closed,
    persistence_numeric,
    persistence_trajectory,
)
from borrowalk.lattice import phase_factor

RESONANT = Fraction(2, 3)


def test_closed_form_anchor_points():
    assert persistence_closed(Fraction(1), 1) == pytest.approx(0.25, abs=1e-15)
    assert persistence_closed(1.7, 0) == 1.0
    for t in (1, 10, 100, 1000):
        assert persistence_closed(RESONANT, t) == pytest.approx(1.0, abs=1e-15)
        assert persistence_closed(Fraction(4, 3), t) == pytest.approx(1.0, abs=1e-15)
    assert persistence_closed(Fraction(1, 2), 3) == pytest.approx(125 / 512, abs=1e-15)
    with pytest.raises(ValueError):
        persistence_closed(1.0, -1)


def test_triple_sector_coefficients_match_the_group_matrix():
    rng = np.random.default_rng(47)
    for phi in [RESONANT, Fraction(1), Fraction(1, 5)] + list(rng.uniform(0.05, 6.2, size=10)):
        weights = contact_weights(3, phi)
        stay, flip = weights[0], weights[3]
        e1, e3 = phase_factor(phi), phase_factor(phi, 3)
        assert stay == pytest.approx((4.0 + 3.0 * e1 + e3) / 8.0, abs=1e-14)
        assert flip == pytest.approx(((e1 - 1.0) ** 2 * (2.0 + e1)) / 8.0, abs=1e-14)
        dense = interaction_group_matrix(3, phi)
        assert stay == pytest.approx(dense[0, 0], abs=1e-14)
        assert flip == pytest.approx(dense[0, 7], abs=1e-14)
        assert stay == pytest.approx(dense[7, 7], abs=1e-14)
        assert flip == pytest.approx(dense[7, 0], abs=1e-14)
        total = (3.0 + e3) / 4.0
        assert stay + flip == pytest.approx(total, abs=1e-14)
        assert not weights.flags.writeable


def test_trajectory_matches_closed_form():
    for phi in (Fraction(1, 2), 2.2):
        trajectory = persistence_trajectory(phi, 12)
        assert len(trajectory) == 13
        assert trajectory[0] == pytest.approx(1.0, abs=1e-15)
        for t, value in enumerate(trajectory):
            assert abs(value - persistence_closed(phi, t)) <= 1e-12


def test_numeric_route_is_ring_size_independent():
    for d in (5, 9, 16):
        assert abs(persistence_numeric(1.1, 6, d=d) - persistence_numeric(1.1, 6, d=8)) <= 1e-12


def test_resonant_trajectory_stays_at_one():
    trajectory = persistence_trajectory(RESONANT, 40)
    for value in trajectory:
        assert value == pytest.approx(1.0, abs=1e-12)


def test_trajectory_rejects_negative_horizon():
    with pytest.raises(ValueError):
        persistence_trajectory(1.0, -2)


def test_sweep_shape_and_content():
    phases = [Fraction(1, 2), RESONANT, Fraction(3, 2)]
    rows = fidelity_sweep(phases, [10, 1, 10])
    assert len(rows) == len(phases) * 2
    assert [t for _, t, _ in rows[:2]] == [1, 10]
    assert rows[0][0] == pytest.approx(math.pi / 2)
    for radians, t, p in rows:
        assert p <= 1.0 + 1e-15
    resonant_rows = [row for row in rows if row[0] == pytest.approx(2 * math.pi / 3)]
    assert all(p == pytest.approx(1.0, abs=1e-15) for _, _, p in resonant_rows)


def test_sweep_rejects_negative_steps():
    with pytest.raises(ValueError):
        fidelity_sweep([1.0], [3, -1])
