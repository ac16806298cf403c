"""The array sweeps reproduce their scalar references exactly.

spectrum_norms, the stacked momentum blocks, fidelity_sweep and
scan_conditions are compared with ==, not approx, against block_eigenvalues,
the oracles' momentum_block_reference, persistence_closed and the oracles'
ghz_condition and ghz_condition_closed evaluated point by point.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borrowalk.bound_states import GhzSpec, scan_conditions
from borrowalk.evolution import contact_weights
from borrowalk.fidelity import fidelity_sweep, persistence_closed
from borrowalk.lattice import check_phase, phase_factor, phase_grid, turn_table
from borrowalk.spectral import (
    _pair_blocks,
    block_eigenvalues,
    momentum_block,
    spectrum_norms,
)

from oracles import ghz_condition, ghz_condition_closed, momentum_block_reference

exact = settings(max_examples=40, deadline=None, derandomize=True, database=None)

pi_fractions = st.integers(1, 24).flatmap(
    lambda q: st.integers(1, 2 * q - 1).map(lambda p: Fraction(p, q))
)
radians = st.floats(min_value=1e-3, max_value=2 * math.pi - 1e-3)
phases = st.one_of(pi_fractions, radians)


def _bits(x: float) -> tuple[float, float]:
    """x together with its sign, so that 0.0 and -0.0 compare unequal."""
    return x, math.copysign(1.0, x)


@exact
@given(st.lists(st.integers(-5000, 5000), min_size=1, max_size=50), st.integers(1, 600))
@example([0, 1, 2, 3, -1, -2, -3, 4, 7], 4)
# twice these turn counts passes 2**63: the quarter turns stay exact
@example([3 * (2**61 - 1), 2**61 - 1, 2**62 - 2, -(2**61 - 1), 1], 2**62 - 2)
def test_turn_table_is_phase_factor(numerators, denominator):
    re, im = turn_table(numerators, denominator)
    for n, a, b in zip(numerators, re.tolist(), im.tolist()):
        w = phase_factor(Fraction(n, denominator))
        assert (_bits(a), _bits(b)) == (_bits(w.real), _bits(w.imag))


@exact
@given(st.integers(1, 600), phases)
@example(400, Fraction(1, 2))
@example(600, Fraction(1))
@example(12, Fraction(3, 2))
@example(8, Fraction(2, 3))
@example(1, 1.3)
@example(9, 1e-160)
@example(9, 5e-324)
def test_spectrum_norms_is_the_block_eigenvalue_loop(d, phi):
    expected = []
    for k in range(d):
        plus, minus = block_eigenvalues(k, d, phi)
        expected.append((k / d, abs(plus), abs(minus)))
    assert spectrum_norms(d, phi) == expected


@exact
@given(st.integers(1, 200), phases)
@example(8, Fraction(1))
@example(12, Fraction(1, 2))
def test_stacked_blocks_are_the_momentum_blocks(d, phi):
    weights = contact_weights(2, phi)
    entries = _pair_blocks(np.arange(d), d, weights[0], weights[-1])
    for k in range(d):
        block = [entry[k] for entry in entries]
        reference = momentum_block_reference(k, d, phi).ravel().tolist()
        assert [_bits(z.real) + _bits(z.imag) for z in block] == [_bits(z.real) + _bits(z.imag) for z in reference]
        assert momentum_block(k, d, phi).matrix.ravel().tolist() == block


@exact
@given(st.lists(phases, max_size=20), st.lists(st.integers(0, 3000), max_size=5))
def test_fidelity_sweep_rows_are_persistence_closed(grid, t_values):
    rows = fidelity_sweep(grid, t_values)
    steps = sorted(set(t_values))
    assert len(rows) == len(grid) * len(steps)
    for (_, t, p), (phi, t_expected) in zip(rows, [(g, t) for g in grid for t in steps]):
        assert t == t_expected
        assert p == persistence_closed(phi, t)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(2, 6), min_size=1, max_size=3, unique=True),
    st.sampled_from((8, 12, 24, 36)),
    st.integers(2, 12),
    st.sampled_from((1.0 - 1e-9, 0.9, 0.5)),
)
def test_scan_is_the_filtered_condition(arities, grid, d, threshold):
    k_values = (0, d // 2) if d % 2 == 0 else (0,)
    grid_phases = phase_grid(grid)
    points = scan_conditions(arities, grid_phases, k_values=k_values, d=d, threshold=threshold)
    expected = []
    for arity in arities:
        for ghz in (GhzSpec.symmetric(arity), GhzSpec.antisymmetric(arity)):
            for phi in grid_phases:
                for k in k_values:
                    value = ghz_condition(arity, phi, ghz, k, d)
                    if value >= threshold:
                        closed = ghz_condition_closed(arity, phi, ghz, k, d)
                        expected.append((arity, phi, k, ghz, value, closed))
    got = [(p.arity, p.phase, p.momentum_index, p.ghz, p.value, p.closed_form_value) for p in points]
    assert got == expected


@pytest.mark.parametrize("phi", [0.0, 0, Fraction(0), Fraction(2), 2 * math.pi, 7.0, -1.0, float("nan")])
def test_library_rejects_phases_outside_the_open_circle(phi):
    with pytest.raises(ValueError):
        check_phase(phi)
    with pytest.raises(ValueError):
        spectrum_norms(4, phi)
    with pytest.raises(ValueError):
        block_eigenvalues(0, 4, phi)
    with pytest.raises(ValueError):
        momentum_block(0, 4, phi)
    with pytest.raises(ValueError):
        persistence_closed(phi, 1)
    with pytest.raises(ValueError):
        fidelity_sweep([Fraction(2, 3), phi], [1])


def test_check_phase_reads_ints_as_radians_and_rejects_other_types():
    assert check_phase(1) == 1.0 and isinstance(check_phase(1), float)
    assert check_phase(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(TypeError):
        check_phase("pi")


@pytest.mark.parametrize("d", [0, -3])
def test_spectrum_rejects_empty_rings(d):
    with pytest.raises(ValueError):
        spectrum_norms(d, Fraction(2, 3))
