"""The contact kernel: the coin of m co-located walkers from m + 1 numbers.

contact_weights is checked exactly at quarter-turn phases for every group
size it serves and for unit row norm at other phases (test_evolution checks
it against the oracle's explicit pair product).  The alignment scan built on
it is the dense and the per-point condition of tests/oracles.py to the bit
and is bounded before it starts.
"""

import math
import os
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import borrowalk.cli as cli
import borrowalk.limits as limits
from borrowalk.bound_states import scan_conditions
from borrowalk.cli import run
from borrowalk.evolution import MAX_CONTACT_ARITY, contact_weights, interaction_group_matrix
from borrowalk.lattice import phase_factor, phase_grid
from borrowalk.limits import require_scan_fits, scan_bytes

from oracles import ghz_condition, ghz_condition_closed


def test_contact_weights_keep_the_phase_unit_apart():
    # Fraction(1, 2) is pi/2 and 0.5 is radians, yet the two are equal keys
    assert contact_weights(2, Fraction(1, 2))[0] == 0.75 + 0.25j
    radians = contact_weights(2, 0.5)
    assert radians[0] == (3 + phase_factor(0.5)) / 4
    assert (interaction_group_matrix(2, Fraction(1, 2)) != interaction_group_matrix(2, 0.5)).any()


def _exact_weights(m: int, quarter_turns: int) -> list[tuple[Fraction, Fraction]]:
    """c_w at phi = quarter_turns * pi/2 from Python integers: there every
    phase factor exp(i*phi*C(p, 2)) is a power of i."""
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    out = []
    for w in range(m + 1):
        re = im = 0
        for p in range(m + 1):
            z = m - p
            k = sum((-1) ** j * comb(w, j) * comb(m - w, z - j) for j in range(z + 1))
            a, b = unit[quarter_turns * comb(p, 2) % 4]
            re, im = re + k * a, im + k * b
        out.append((Fraction(re, 1 << m), Fraction(im, 1 << m)))
    return out


@pytest.mark.parametrize("quarter_turns", (1, 2, 3))
def test_contact_weights_are_exact_at_quarter_turns(quarter_turns):
    for m in range(1, MAX_CONTACT_ARITY + 1):
        weights = contact_weights(m, Fraction(quarter_turns, 2))
        expected = _exact_weights(m, quarter_turns)
        assert [(Fraction(c.real), Fraction(c.imag)) for c in weights.tolist()] == expected, m


@pytest.mark.parametrize("phi", (Fraction(2, 3), Fraction(5, 7), 1.234, 4.5))
def test_contact_coin_rows_have_unit_norm(phi):
    # row 0 of the coin holds c_w at C(m, w) columns
    for m in range(1, MAX_CONTACT_ARITY + 1):
        weights = contact_weights(m, phi)
        norm = sum(comb(m, w) * abs(c) ** 2 for w, c in enumerate(weights.tolist()))
        assert abs(norm - 1.0) <= 1e-12, m


@pytest.mark.parametrize("m", (0, -1, MAX_CONTACT_ARITY + 1))
def test_contact_kernel_refuses_unserved_group_sizes(m):
    with pytest.raises(ValueError):
        contact_weights(m, Fraction(2, 3))
    with pytest.raises(ValueError):
        interaction_group_matrix(m, Fraction(2, 3))


phases = st.one_of(
    st.integers(1, 40).flatmap(lambda q: st.integers(1, 2 * q - 1).map(lambda p: Fraction(p, q))),
    st.floats(min_value=1e-3, max_value=2 * math.pi - 1e-3),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(phases, max_size=8), st.lists(st.integers(2, 6), min_size=1, max_size=3))
@example([Fraction(1, 2**31 + 1), Fraction(2, 3)], [2, 3])
@example([1e-160, Fraction(3, 2), 1.3], [4])
@example([], [2])
def test_scan_is_the_dense_condition_on_any_grid(grid, arities):
    # threshold -1 keeps every point: a shared turn table over Fractions, and
    # phase_factor for floats and large denominators, both to the bit, in
    # both columns
    points = scan_conditions(arities, grid, threshold=-1.0)
    assert len(points) == len(arities) * 2 * len(grid) * 2
    for p in points:
        assert p.value == ghz_condition(p.arity, p.phase, p.ghz, p.momentum_index)
        assert p.closed_form_value == ghz_condition_closed(p.arity, p.phase, p.ghz, p.momentum_index)


def test_scan_size_arithmetic():
    # per phase, per phase and contact term, and per possible hit
    assert scan_bytes(720, [2, 3]) == 720 * (256 + (3 + 4) * 128 + 2 * 4 * 1024)
    assert scan_bytes(8, [12]) == 8 * (256 + 13 * 128 + 4 * 1024)
    require_scan_fits(144, range(2, MAX_CONTACT_ARITY + 1))
    for arities in ([1], [2, MAX_CONTACT_ARITY + 1], [0]):
        with pytest.raises(ValueError):
            require_scan_fits(8, arities)
    # a grid of 10**6 phases at the largest arity: about 12 GB by the model
    assert scan_bytes(10**6, [MAX_CONTACT_ARITY]) > limits.MAX_WALK_BYTES
    with pytest.raises(ValueError):
        require_scan_fits(10**6, [MAX_CONTACT_ARITY])
    with pytest.raises(ValueError):
        scan_conditions([MAX_CONTACT_ARITY + 1], [Fraction(2, 3)])


@pytest.mark.parametrize(
    "argv",
    [
        ["ghz-scan", "--n-values", "2,3", "--phi-grid", str(10**9)],
        ["ghz-scan", "--n-values", "2,54", "--phi-grid", "8"],
        ["ghz-scan", "--n-values", "1", "--phi-grid", "8"],
    ],
)
def test_oversized_scans_are_refused_before_work(argv, monkeypatch, capsys):
    def started(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "phase_grid", started)
    monkeypatch.setattr(cli, "scan_conditions", started)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_scan_at_the_bound_runs(monkeypatch, capsys):
    argv = ["ghz-scan", "--n-values", "2,3", "--phi-grid", "12"]
    monkeypatch.setattr(limits, "MAX_WALK_BYTES", scan_bytes(12, [2, 3]) - 1)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    monkeypatch.setattr(limits, "MAX_WALK_BYTES", scan_bytes(12, [2, 3]))
    assert run(argv) == 0


def test_scan_of_twelve_walkers_holds_no_coin_matrix():
    # the dense contact coin of twelve walkers alone is 256 MiB
    argv = ["ghz-scan", "--n-values", "12", "--phi-grid", "8", "-o", os.devnull]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_scan_covers_every_served_arity():
    # only the pair, triple and quadruple bind; the closed form agrees everywhere
    grid = phase_grid(12)
    hits = scan_conditions(range(2, MAX_CONTACT_ARITY + 1), grid, threshold=1.0 - 1e-9)
    assert {p.arity for p in hits} == {2, 3, 4}
    everything = scan_conditions([5, 20, MAX_CONTACT_ARITY], grid, threshold=-1.0)
    assert len(everything) == 3 * 2 * len(grid) * 2
    assert max(abs(p.value - p.closed_form_value) for p in everything) <= 1e-12
