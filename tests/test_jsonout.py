"""The JSON writer's text equals json.dumps(obj, indent=2) byte for byte."""

import json
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from borrowalk.evolution import projected_step, step
from borrowalk.jsonout import dumps, records, walk_snapshots
from borrowalk.lattice import LatticeConfig, make_basis_state

from oracles import state_json_entries

writer = settings(max_examples=100, deadline=None, derandomize=True, database=None)

SPECIAL = (0.0, -0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL),
    st.text(),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=20,
)


@writer
@given(values)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}])
@example(list(SPECIAL))
@example({"big": 2**100, "neg": -(2**70), "s": 'q"\\ é\U0001f600%s\n'})
def test_dumps_is_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@st.composite
def tables(draw):
    keys = draw(st.lists(st.text(), unique=True, max_size=4))
    column = st.one_of(st.lists(scalars), st.lists(st.floats()), st.lists(st.integers()), st.lists(st.text()))
    rows = draw(st.lists(st.tuples(*[scalars] * len(keys)), max_size=6))
    if keys and draw(st.booleans()):
        # one type per column, as the CLI tables have
        cols = [draw(column.filter(len).map(lambda c: c[:1])) for _ in keys]
        rows = [tuple(c[0] for c in cols)] * draw(st.integers(1, 5))
    return keys, rows


@writer
@given(tables())
@example(((), [(), ()]))
@example((("n", "phi", "sign"), [(2, 2.0943951023931953, "symmetric"), (3, math.nan, "a%sb")]))
@example((("p",), [(-0.0,), (5e-324,), (math.inf,), (-math.inf,), (1e-300,)]))
def test_records_are_json_dumps(table):
    keys, rows = table
    expected = json.dumps([dict(zip(keys, row)) for row in rows], indent=2)
    assert records(keys, rows) == expected


def _walk(config, positions, coins, steps, advance):
    state = make_basis_state(config, positions, coins)
    snapshots = []
    for t in range(steps + 1):
        snapshots.append((t, state.norm(), state))
        state = advance(state)
    return snapshots


def test_walk_snapshots_are_json_dumps():
    walks = [
        _walk(LatticeConfig(4, 5, Fraction(2, 3), "hadamard"), (0, 0, 1, 3), "RLRR", 3, step),
        _walk(LatticeConfig(3, 7, 1.234, "hadamard"), (0, 2, 2), "LLR", 4, step),
        _walk(LatticeConfig(1, 3, Fraction(1, 2), (0.3, 0.2, -0.1)), (2,), "L", 2, step),
        # the aligned sector empties: an empty amplitude list
        _walk(LatticeConfig(2, 6, Fraction(2, 3)), (0, 2), "RR", 2, projected_step),
        _walk(LatticeConfig(3, 6, Fraction(4, 3)), (1, 1, 1), "LLL", 5, projected_step),
    ]
    for snapshots in walks:
        expected = json.dumps(
            [{"t": t, "norm": norm, "amplitudes": state_json_entries(s)} for t, norm, s in snapshots],
            indent=2,
        )
        assert "".join(walk_snapshots(snapshots)) == expected
    assert "".join(walk_snapshots([])) == "[]"
