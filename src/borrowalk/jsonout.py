"""JSON text equal to json.dumps(obj, indent=2), without its Python encoder.

json.dumps falls back to a pure-Python encoder whenever it indents, which
costs more than the numbers it prints.  Here a table of records is filled
into one row template, and each column is formatted by a C-level map:
float.__repr__ for floats (NaN and Infinity spelled as json spells them),
int.__repr__ for ints and json's own escaper for strings.  Walk snapshots
are written straight from the state arrays.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

from .lattice import PureState, coin_char, coin_tuples, positions

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _scalar(value) -> str:
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _column(values) -> list[str]:
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        if _NON_FINITE.keys().isdisjoint(texts):
            return texts
        return [_NON_FINITE.get(text, text) for text in texts]
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(_string, values))
    return list(map(_scalar, values))


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _string(key)


def dumps(obj, level: int = 0) -> str:
    """json.dumps(obj, indent=2) for str-keyed dicts, lists, tuples and scalars,
    as nested at `level` indents."""
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(dumps(v, level + 1) for v in obj) + outer + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        fields = (_key(k) + ": " + dumps(v, level + 1) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(fields) + outer + "}"
    return _scalar(obj)


def records(keys, rows) -> str:
    """json.dumps([dict(zip(keys, row)) for row in rows], indent=2) for rows of scalars."""
    if not rows:
        return "[]"
    if not keys:
        lines = ["{}"] * len(rows)
    else:
        template = "{" + ",".join(
            "\n    " + _key(k).replace("%", "%%") + ": %s" for k in keys
        ) + "\n  }"
        lines = [template % texts for texts in zip(*map(_column, zip(*rows)))]
    return "[\n  " + ",\n  ".join(lines) + "\n]"


def _list_text(items: list[str], level: int) -> str:
    outer = "\n" + "  " * level
    inner = outer + "  "
    return "[" + inner + ("," + inner).join(items) + outer + "]"


def walk_snapshots(snapshots):
    """Pieces of json.dumps([{"t": t, "norm": norm, "amplitudes": entries}
    for t, norm, state in snapshots], indent=2), written from the state arrays.

    `entries` lists the stored amplitudes in label order, each as
    {"positions": [...], "coins": ["R" or "L", ...], "re": ..., "im": ...}.
    Sorted codes give the label order; within a code, columns in descending
    index put the coins in ascending order, L before R.
    """
    opening = "[\n  "
    for t, norm, state in snapshots:
        head = f'{opening}{{\n    "t": {int.__repr__(t)},\n    "norm": {_float(norm)},\n    "amplitudes": '
        opening = ",\n  "
        rows, cols = state.entries()
        if not len(rows):
            yield head + "[]\n  }"
            continue
        yield head + "[\n      "
        yield from _amplitude_entries(state, rows, cols)
        yield "\n    ]\n  }"
    yield "[]" if opening.startswith("[") else "\n]"


# amplitudes formatted per piece, which bounds the text held at once
_PIECE = 256
_ENTRY = '{\n        "positions": %s,\n        "coins": %s,\n        "re": %s,\n        "im": %s\n      }'


def _amplitude_entries(state: PureState, rows, cols):
    n = state.config.particle_count
    places = [_list_text(list(map(int.__repr__, p)), 4) for p in positions(state.codes, state.config).tolist()]
    coins = [_list_text([_string(coin_char(c)) for c in cns], 4) for cns in coin_tuples(n)]
    for start in range(0, len(rows), _PIECE):
        r, c = rows[start:start + _PIECE], cols[start:start + _PIECE]
        values = state.block[r, c]
        entries = zip(r.tolist(), c.tolist(), _column(values.real.tolist()), _column(values.imag.tolist()))
        text = ",\n      ".join(_ENTRY % (places[i], coins[j], re, im) for i, j, re, im in entries)
        yield text if start == 0 else ",\n      " + text
