"""Tests of the benchmark's own code.  Run: python3 -m pytest -q bench"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import borrowalk  # noqa: E402
import borrowalk.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402


def _namespaces() -> dict:
    return {key: dict(vars(module)) for key, module in sys.modules.items()
            if module is not None and (key == "borrowalk" or key.startswith("borrowalk."))}


def _run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = borrowalk.cli.run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_operation_list(workload):
    first = list(islice(workloads.operations(workload, 7), 40))
    again = list(islice(workloads.operations(workload, 7), 40))
    other = list(islice(workloads.operations(workload, 8), 40))
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_tracer_restores_every_patched_attribute():
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        during = _namespaces()
        replaced = {(module, key) for module, names in before.items()
                    for key, value in names.items() if during[module][key] is not value}
        assert ("borrowalk.spectral", "projected_step") in replaced
        assert ("borrowalk.fidelity", "projected_step") in replaced
        assert ("borrowalk.bound_states", "interaction_group_matrix") in replaced
        assert {attr for _, attr in TARGETS.values()} >= {key for _, key in replaced}
    finally:
        tracer.uninstall()
    after = _namespaces()
    for module, names in before.items():
        for key, value in names.items():
            assert after[module][key] is value, f"{module}.{key} left patched"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_output_is_byte_identical(workload):
    ops = [op for op in islice(workloads.operations(workload, 3), 12) if "argv" in op][:6]
    untraced = [_run_cli(op["argv"]) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_run_cli(op["argv"]) for op in ops]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert all(code == 0 for code, _ in untraced)
    assert tracer.spans, "no span was recorded"


def test_traced_spans_nest_under_their_callers():
    tracer = Tracer()
    tracer.install()
    try:
        _run_cli(["survival", "--n", "2", "--d", "6", "--t-max", "3"])
        _run_cli(["ghz-scan", "--n-values", "2,3", "--phi-grid", "12"])
    finally:
        tracer.uninstall()
    by_id = {span[0]: span for span in tracer.spans}
    parents = {span[1]: by_id[span[5]][1] for span in tracer.spans if span[5] is not None}
    assert parents["spectral.survival_direct"] == "cli.run"
    assert parents["evolution.coin_stage"] == "evolution.step"
    assert parents["parallel.task"] == "parallel.map"
    metrics = tracer.layer_metrics(workers=2)
    assert metrics["spectral.projected_steps"] == 3 * 2
    assert metrics["bound_states.condition_evals"] == 2 * 2 * 11 * 2
    assert 0.0 < metrics["cli.self_s"] < sum(s[4] - s[3] for s in tracer.spans if s[1] == "cli.run")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_program_output_and_reject_a_corrupted_copy(workload):
    checker = run.load_checker()
    for op in islice(workloads.operations(workload, 5), workloads.round_size(workload)):
        if "argv" not in op:
            continue
        code, out = _run_cli(op["argv"])
        assert checker.check(op, code, out) is None, op["argv"]
        corrupted = _corrupt(out)
        if corrupted is not None:
            assert checker.check(op, code, corrupted) is not None, op["argv"]


def _corrupt(out: str) -> str | None:
    """Replace the first nonzero number x of the output by 2x + 1; None when
    the output holds no nonzero number."""
    for match in re.finditer(r"\d+(\.\d+)?([eE][-+]?\d+)?", out):
        value = float(match.group())
        if value != 0.0:
            text = str(int(2 * value + 1)) if match.group().isdigit() else repr(2 * value + 1)
            return out[:match.start()] + text + out[match.end():]
    return None
