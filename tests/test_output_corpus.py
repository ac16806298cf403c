"""CLI output stays what tests/output_corpus.json recorded.

Each entry holds an argv, its exit code and a sha256 of its stdout at 12
significant digits (see tests/make_output_corpus.py, which regenerates it).
"""

import json

import pytest

from make_output_corpus import COMMANDS, CORPUS, digest, normalize

ENTRIES = json.loads(CORPUS.read_text())


def test_corpus_lists_every_command_once():
    assert [entry["argv"] for entry in ENTRIES] == COMMANDS
    assert len({tuple(argv) for argv in COMMANDS}) == len(COMMANDS)
    subcommands = {argv[0] for argv in COMMANDS}
    assert {"evolve", "check-eigen", "ghz-scan", "spectrum", "survival", "fidelity", "coboson"} <= subcommands


def test_normalize_rounds_decimals_and_keeps_integers():
    assert normalize('{"t": 12, "p": 0.30000000000000004}') == '{"t": 12, "p": 0.3}'
    assert normalize("3,2.0943951023931953,-1e-300,3.1e-16,-0.0,NaN") == "3,2.09439510239,0,0,0,NaN"
    assert normalize('"B_N": "123456789012345678/7"') == '"B_N": "123456789012345678/7"'
    assert normalize("1e-05,1.000000000000001e-12") == "1e-05,1e-12"


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(entry["argv"]) for entry in ENTRIES])
def test_output_matches_the_corpus(entry):
    assert digest(entry["argv"]) == entry
