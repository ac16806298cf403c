"""Regenerate tests/output_corpus.json, the digests of the CLI's output.

Every argv in COMMANDS is run in-process through `borrowalk.cli.run`.  The
corpus stores its exit code and a sha256 of its stdout, with every decimal
number rounded to 12 significant digits and every magnitude below 1e-12
written as 0, so that rounding noise (a residual of 3e-16, the last digits
of a Rayleigh quotient) does not tie a digest to one BLAS build.  Integers
are kept as printed.  tests/test_output_corpus.py checks the digests.

Run from the repository root:

    PYTHONPATH=src python tests/make_output_corpus.py

A change that moves a digest regenerates the file and names each moved
command, and why it moved, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from borrowalk.cli import run

CORPUS = Path(__file__).with_name("output_corpus.json")

COMMANDS = [
    # evolve: JSON snapshots, a few steps each
    ["evolve", "--n", "2", "--d", "4", "--steps", "3"],
    ["evolve", "--n", "3", "--d", "5", "--steps", "2", "--coin", "hadamard", "--phi", "1.3"],
    ["evolve", "--n", "2", "--d", "6", "--steps", "4", "--projected", "--coins", "RR"],
    ["evolve", "--n", "3", "--d", "6", "--steps", "3", "--projected", "--positions", "1,1,1", "--coins", "L,L,L"],
    ["evolve", "--n", "2", "--d", "6", "--steps", "2", "--projected", "--positions", "0,2", "--coins", "RR"],
    ["evolve", "--n", "1", "--d", "3", "--steps", "2", "--coin", "hadamard", "--coins", "L"],
    ["evolve", "--n", "4", "--d", "4", "--steps", "1", "--phi", "pi/5", "--positions", "0,0,1,3", "--coins", "RLRR"],
    ["evolve", "--n", "2", "--d", "4", "--steps", "0", "--format", "json"],
    ["evolve", "--format", "csv"],
    ["evolve", "--steps", "-1"],
    ["evolve", "--n", "2", "--d", "4", "--positions", "0", "--steps", "1"],
    # check-eigen: one report, or every multiplet the ring admits
    ["check-eigen", "--n", "2", "--d", "6"],
    ["check-eigen", "--n", "3", "--d", "6", "--phi", "2pi/3"],
    ["check-eigen", "--n", "4", "--d", "6", "--r", "1", "--coin", "hadamard"],
    ["check-eigen", "--n", "3", "--d", "7", "--phi", "1.3"],
    ["check-eigen", "--all", "--d", "5"],
    ["check-eigen", "--all", "--d", "6", "--phi", "4pi/3", "--format", "json"],
    ["check-eigen", "--format", "csv"],
    ["check-eigen", "--n", "2", "--d", "8", "--tol", "nan"],
    ["check-eigen", "--n", "2", "--d", "5", "--r", "1"],
    # ghz-scan
    ["ghz-scan", "--n-values", "2,3,4", "--phi-grid", "12"],
    ["ghz-scan", "--n-values", "2,3,4", "--phi-grid", "12", "--format", "json"],
    ["ghz-scan", "--n-values", "3,5", "--phi-grid", "24", "--d", "3", "--threshold", "0.9"],
    ["ghz-scan", "--n-values", "3,5", "--phi-grid", "24", "--d", "3", "--threshold", "0.9", "--format", "json"],
    ["ghz-scan", "--n-values", "2", "--phi-grid", "4", "--threshold=-1e300"],
    ["ghz-scan", "--n-values", "12", "--phi-grid", "36", "--d", "4"],
    ["ghz-scan", "--n-values", ""],
    ["ghz-scan", "--n-values", "2,3", "--phi-grid", "12", "--threshold", "nan"],
    ["ghz-scan", "--n-values", "2,3", "--phi-grid", "12", "--d", "0"],
    # spectrum
    ["spectrum", "--d", "6"],
    ["spectrum", "--d", "6", "--format", "json"],
    ["spectrum", "--d", "7", "--phi", "1.3"],
    ["spectrum", "--d", "7", "--phi", "1.3", "--format", "json"],
    ["spectrum", "--d", "1", "--phi", "pi"],
    ["spectrum", "--d", "5", "--phi", "1e-160", "--format", "csv"],
    ["spectrum", "--d", "0"],
    ["spectrum", "--phi", "0"],
    # survival
    ["survival", "--n", "2", "--d", "6", "--t-max", "12"],
    ["survival", "--n", "2", "--d", "6", "--t-max", "12", "--format", "json"],
    ["survival", "--n", "2", "--d", "6", "--t-max", "12", "--method", "momentum"],
    ["survival", "--n", "3", "--d", "5", "--t-max", "10", "--method", "momentum", "--format", "json"],
    ["survival", "--n", "3", "--d", "7", "--t-max", "10", "--coin", "hadamard", "--phi", "1.3"],
    ["survival", "--n", "2", "--d", "5", "--t-max", "0"],
    ["survival", "--n", "4"],
    ["survival", "--n", "2", "--d", "6", "--t-max", "5", "--method", "momentum", "--coin", "hadamard"],
    ["survival", "--n", "2", "--d", "6", "--t-max", "-1"],
    # fidelity
    ["fidelity", "--t", "1,10", "--phi", "pi"],
    ["fidelity", "--t", "1,10", "--phi", "pi", "--format", "json"],
    ["fidelity", "--t", "1,10,100", "--phi-grid", "12"],
    ["fidelity", "--t", "1,10,100", "--phi-grid", "12", "--format", "json"],
    ["fidelity", "--t", "0,5", "--phi", "1.3"],
    ["fidelity", "--t", ""],
    ["fidelity", "--phi", "0", "--t", "1"],
    # coboson: one report of exact ratios
    ["coboson", "--n", "2", "--d", "3"],
    ["coboson", "--n", "2", "--d", "3", "--constituents", "4"],
    ["coboson", "--n", "1", "--d", "1"],
    ["coboson", "--n", "11", "--d", "7", "--constituents", "2"],
    ["coboson", "--n", "28", "--d", "50", "--constituents", "3", "--format", "json"],
    ["coboson", "--format", "csv"],
    ["coboson", "--n", "1000000000"],
    # refused by the parser
    ["frobnicate"],
    ["spectrum", "--order", "5"],
    ["survival", "--coin", "bogus"],
]

_DECIMAL = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _round(match: re.Match) -> str:
    text = match.group()
    if text.lstrip("-").isdigit():
        return text
    value = float(text)
    return "0" if abs(value) < 1e-12 else format(value, ".12g")


def normalize(text: str) -> str:
    """`text` with every decimal number at 12 significant digits, and every
    magnitude below 1e-12 as 0."""
    return _DECIMAL.sub(_round, text)


def digest(argv: list[str]) -> dict:
    """The corpus entry of one command: its argv, exit code and stdout digest."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    stdout = hashlib.sha256(normalize(out.getvalue()).encode()).hexdigest()
    return {"argv": argv, "exit": code, "stdout_sha256": stdout}


def main() -> None:
    entries = [digest(argv) for argv in COMMANDS]
    # one entry a line, so that a moved digest shows as one changed line
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} digests to {CORPUS}")


if __name__ == "__main__":
    main()
