import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import borrowalk
import borrowalk.cli as cli
from borrowalk import cobosons, evolution, lattice
from borrowalk.cli import parse_phase, run
from borrowalk.evolution import fidelity_bytes, spectrum_bytes, walk_rows, walk_text_bytes
from borrowalk.spectral import momentum_bytes


def test_parse_phase_symbolic_forms():
    assert parse_phase("2pi/3") == Fraction(2, 3)
    assert parse_phase("pi") == Fraction(1)
    assert parse_phase("pi/5") == Fraction(1, 5)
    assert parse_phase("3pi/2") == Fraction(3, 2)
    assert parse_phase(" 2PI/3 ") == Fraction(2, 3)
    assert isinstance(parse_phase("2pi/3"), Fraction)


def test_parse_phase_decimal_and_junk():
    assert parse_phase("0.75") == 0.75
    assert isinstance(parse_phase("0.75"), float)
    assert parse_phase("2.0944") == pytest.approx(2.0944)
    with pytest.raises(ValueError):
        parse_phase("about pi")
    with pytest.raises(ValueError):
        parse_phase("pi/0")


def test_parse_phase_lives_in_lattice():
    assert parse_phase is lattice.parse_phase is borrowalk.parse_phase


def _module_env() -> dict:
    """The environment that runs `python -m borrowalk.cli` from this source tree."""
    src = str(Path(borrowalk.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_module_run_prints_no_runtime_warning():
    # importing the package must not import borrowalk.cli, or `python -m`
    # warns that the module is already in sys.modules
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "borrowalk.cli", "spectrum", "--d", "4"],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith("k_over_d,")


def test_closed_stdout_ends_in_one_error_line():
    # five megabytes of rows, far more than a pipe buffers, so the write
    # meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "borrowalk.cli", "spectrum", "--d", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    assert proc.stdout.readline().startswith(b"k_over_d,")
    proc.stdout.close()
    # the one error line fits the stderr pipe, so the run ends before it is read
    assert proc.wait(timeout=60) == 2
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_unknown_flag_exits_2(capsys):
    assert run(["spectrum", "--order", "5"]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


def test_domain_error_exits_2(capsys):
    assert run(["survival", "--n", "4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["coboson", "--format", "csv"]) == 2


def test_assertion_failure_exits_1(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("cross-check failed")

    monkeypatch.setattr(cli, "coboson_report", broken)
    assert run(["coboson", "--n", "2", "--d", "3"]) == 1
    assert "cross-check failed" in capsys.readouterr().err


def test_check_eigen_report(capsys):
    assert run(["check-eigen", "--n", "3", "--d", "6", "--phi", "2pi/3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["n", "r", "is_eigenvector", "eigenvalue_re", "eigenvalue_im", "residual"]
    assert payload["is_eigenvector"] is True
    assert payload["residual"] <= 1e-12
    assert payload["eigenvalue_re"] == pytest.approx(1.0, abs=1e-12)


def test_check_eigen_all_respects_ring_parity(capsys):
    assert run(["check-eigen", "--all", "--d", "5", "--phi", "2pi/3"]) == 0
    odd = json.loads(capsys.readouterr().out)
    assert [entry["n"] for entry in odd] == [2, 3, 4]
    assert all(entry["r"] == 0 for entry in odd)
    assert run(["check-eigen", "--all", "--d", "6", "--phi", "2pi/3"]) == 0
    even = json.loads(capsys.readouterr().out)
    assert [(e["n"], e["r"]) for e in even] == [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)]
    assert all(entry["is_eigenvector"] for entry in even)


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert run(["spectrum", "--d", "6", "--phi", "2pi/3", "--output", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    lines = data.decode().splitlines()
    assert lines[0] == "k_over_d,abs_lambda_plus,abs_lambda_minus"
    assert len(lines) == 7
    assert lines[1] == "0,0.5,1"


def test_survival_csv(capsys):
    assert run(["survival", "--n", "2", "--d", "6", "--t-max", "3", "--method", "momentum"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,p_B"
    assert lines[1] == "0,1"
    assert lines[2] == "1,0.625"


def test_survival_triple_momentum_csv(capsys):
    argv = ["survival", "--n", "3", "--d", "6", "--t-max", "12"]
    assert run(argv) == 0
    direct = capsys.readouterr().out.splitlines()
    assert run(argv + ["--method", "momentum"]) == 0
    momentum = capsys.readouterr().out.splitlines()
    assert momentum[:2] == ["t,p_B", "0,1"]
    assert len(momentum) == len(direct) == 14
    for ours, theirs in zip(momentum[1:], direct[1:]):
        assert float(ours.split(",")[1]) == pytest.approx(float(theirs.split(",")[1]), abs=1e-11)


@pytest.mark.parametrize("n", ["2", "3"])
def test_momentum_survival_ignores_the_free_coin(n, capsys):
    # walkers of the remainder are coined only all on one site, where the
    # contact coin alone acts
    argv = ["survival", "--n", n, "--d", "7", "--t-max", "40", "--phi", "1.3", "--method", "momentum", "--coin"]
    outputs = []
    for coin in ("hadamard", "identity"):
        assert run([*argv, coin]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 42


def test_momentum_survival_is_refused_before_work(monkeypatch, capsys):
    argv = ["survival", "--d", "6", "--t-max", "3", "--method", "momentum"]
    monkeypatch.setattr(evolution, "MAX_WALK_BYTES", momentum_bytes(6, 3) - 1)

    def started(*args, **kwargs):
        raise AssertionError("work started")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "remove_particle", started)
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    monkeypatch.setattr(evolution, "MAX_WALK_BYTES", momentum_bytes(6, 3))
    assert run(argv) == 0


def test_spectrum_and_fidelity_size_arithmetic():
    # per momentum sector; per phase and per (phase, step count) row
    assert spectrum_bytes(4000) == 4000 * 1024
    assert fidelity_bytes(720, 4) == 720 * (256 + 4 * 512)
    # the benchmark's largest requests stay far below the limit
    assert 100 * spectrum_bytes(4000) < evolution.MAX_WALK_BYTES
    assert 100 * fidelity_bytes(720, 4) < evolution.MAX_WALK_BYTES
    assert spectrum_bytes(10**9) > evolution.MAX_WALK_BYTES
    # the rows, phases times step counts, are what a long --t list multiplies
    assert fidelity_bytes(10**5, 1) < evolution.MAX_WALK_BYTES < fidelity_bytes(10**5, 100)


@pytest.mark.parametrize(
    "argv, model",
    [
        (["spectrum", "--d", "4000", "--format", "json"], spectrum_bytes(4000)),
        (["fidelity", "--phi-grid", "2000", "--t", "1,2,3,4,5,6,7,8", "--format", "json"], fidelity_bytes(2000, 8)),
    ],
)
def test_traced_peaks_stay_within_the_size_models(argv, model):
    run(argv + ["-o", os.devnull])
    tracemalloc.start()
    try:
        assert run(argv + ["-o", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= model


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--d", str(10**9)],
        ["fidelity", "--phi-grid", str(10**9)],
        ["fidelity", "--phi-grid", str(10**5), "--t", ",".join(map(str, range(100)))],
        # a short walk, but 10**11 output rows
        ["survival", "--n", "2", "--d", "8", "--t-max", "99999999999"],
        # a walk of bounded reach, but 10**11 snapshots
        ["evolve", "--steps", "99999999999"],
    ],
)
def test_oversized_spectra_and_sweeps_are_refused_before_work(argv, monkeypatch, capsys):
    def started(*args, **kwargs):
        raise AssertionError("work started")

    for worker in ("spectrum_norms", "phase_grid", "fidelity_sweep", "remove_particle", "make_basis_state"):
        monkeypatch.setattr(cli, worker, started)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-directory", "a-directory"])
def test_unwritable_output_exits_2(target, tmp_path, capsys):
    assert run(["spectrum", "--d", "4", "-o", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert str(tmp_path / target) in captured.err


@pytest.mark.parametrize("limit", ["MAX_NORM_BITS", "MAX_SERIES_WORK"])
def test_oversized_coboson_requests_are_refused_before_work(limit, monkeypatch, capsys):
    def started(*args, **kwargs):
        raise AssertionError("a factorial was formed")

    monkeypatch.setattr(cobosons, limit, 8)
    monkeypatch.setattr(cobosons, "factorial", started)
    assert run(["coboson", "--n", "2", "--d", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_fidelity_csv(capsys):
    assert run(["fidelity", "--t", "1,10", "--phi", "pi"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "phi,t,p"
    assert lines[1] == "3.14159265359,1,0.25"


def test_ghz_scan_formats(capsys):
    argv = ["ghz-scan", "--n-values", "3,4", "--phi-grid", "12"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,phi,k,sign,value,closed_value"
    assert len(lines) == 9
    assert lines[1].startswith("3,2.09439510239,0,symmetric,")
    assert run(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 8
    assert list(payload[0]) == ["n", "phi", "k", "sign", "value", "closed_value"]
    assert {entry["n"] for entry in payload} == {3, 4}


def test_evolve_snapshots(capsys):
    assert run(["evolve", "--n", "2", "--d", "4", "--steps", "2", "--projected", "--coins", "RR"]) == 0
    snapshots = json.loads(capsys.readouterr().out)
    assert [snap["t"] for snap in snapshots] == [0, 1, 2]
    assert list(snapshots[0]) == ["t", "norm", "amplitudes"]
    assert list(snapshots[0]["amplitudes"][0]) == ["positions", "coins", "re", "im"]
    norms = [snap["norm"] for snap in snapshots]
    assert norms[0] == pytest.approx(1.0)
    assert norms[2] <= norms[1] <= norms[0] + 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "1", "--d", "1000001", "--steps", "40", "--coin", "hadamard", "--positions", "999999"],
        ["--n", "3", "--d", "8", "--steps", "6", "--coin", "hadamard", "--phi", "1.3"],
        ["--n", "4", "--d", "5", "--steps", "4", "--coin", "hadamard", "--phi", "1.3"],
        ["--n", "3", "--d", "8", "--steps", "30", "--projected", "--phi", "1.3"],
    ],
)
def test_evolve_text_stays_within_its_model(argv, capsys):
    assert run(["evolve", *argv]) == 0
    n, d, steps = (int(argv[argv.index(flag) + 1]) for flag in ("--n", "--d", "--steps"))
    projected = "--projected" in argv
    text = capsys.readouterr().out
    assert len(text) <= walk_text_bytes(n, walk_rows(n, d, steps, projected), steps, projected)


def test_evolve_text_is_refused_before_work(monkeypatch, capsys):
    argv = ["evolve", "--n", "3", "--d", "8", "--steps", "4"]
    model = walk_text_bytes(3, walk_rows(3, 8, 4), 4)
    monkeypatch.setattr(evolution, "MAX_WALK_BYTES", model - 1)

    def started(*args, **kwargs):
        raise AssertionError("work started")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "make_basis_state", started)
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "JSON text" in captured.err
    monkeypatch.setattr(evolution, "MAX_WALK_BYTES", model)
    assert run(argv) == 0
    assert 0 < len(capsys.readouterr().out) <= model


def test_evolve_holds_one_snapshot_at_a_time():
    # a projected walk from one code holds about t rows at step t; keeping
    # every snapshot would hold about t**2 / 2 rows at once
    argv = ["evolve", "--n", "2", "--d", "4000", "--projected", "-o", os.devnull, "--steps"]
    assert run([*argv, "5"]) == 0
    peaks = []
    for steps in (40, 200):
        tracemalloc.start()
        try:
            assert run([*argv, str(steps)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 2 KiB per extra step covers one state's rows and their text pieces
    assert peaks[1] - peaks[0] < (200 - 40) * 2048


def test_coboson_report_fields(capsys):
    assert run(["coboson", "--n", "2", "--d", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["N", "d", "B_N", "ratio", "approx_ratio", "B_tilde_2"]
    assert payload == {
        "N": 2,
        "d": 3,
        "B_N": "5/2",
        "ratio": "5/2",
        "approx_ratio": "5/6",
        "B_tilde_2": "2/3",
    }
    assert run(["coboson", "--n", "2", "--d", "3", "--constituents", "4"]) == 0
    quad = json.loads(capsys.readouterr().out)
    assert "B_tilde_2" not in quad
    assert quad["B_N"] == str(Fraction(1) + Fraction(17, 3))


def test_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["fidelity", "--t", "1,10,100", "--phi-grid", "36"]
    assert run(argv + ["--output", str(first)]) == 0
    assert run(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_scan_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["ghz-scan", "--n-values", "2,3", "--phi-grid", "24"]
    assert run(argv + ["--output", str(first)]) == 0
    assert run(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--phi", "0"],
        ["spectrum", "--phi", "2pi"],
        ["fidelity", "--phi", "0", "--t", "1"],
        ["fidelity", "--phi", "7", "--t", "1"],
    ],
)
def test_phase_outside_the_open_circle_exits_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["check-eigen", "--n", "2", "--d", "8", "--tol", "nan"],
        ["check-eigen", "--n", "2", "--d", "8", "--tol", "inf"],
        ["check-eigen", "--all", "--d", "8", "--tol=-1e-12"],
        ["ghz-scan", "--n-values", "2,3", "--phi-grid", "12", "--threshold", "nan"],
        ["ghz-scan", "--n-values", "2,3", "--phi-grid", "12", "--threshold", "inf"],
        ["ghz-scan", "--n-values", "2,3", "--phi-grid", "12", "--threshold=-inf"],
    ],
)
def test_out_of_domain_flags_exit_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_finite_flags_at_the_domain_edge_run(capsys):
    assert run(["check-eigen", "--n", "2", "--d", "8", "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2
    assert run(["ghz-scan", "--n-values", "2", "--phi-grid", "4", "--threshold=-1e300"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 2 * 2


@pytest.mark.parametrize(
    "argv, match",
    [
        (["spectrum", "--d", "0"], "ring size"),
        (["spectrum", "--d", "-3"], "ring size"),
        (["evolve", "--steps", "-1"], "--steps"),
        (["ghz-scan", "--n-values", ""], "is empty"),
        (["fidelity", "--t", ""], "is empty"),
        (["ghz-scan", "--d", "0"], "ring size"),
    ],
    ids=[f"argv{i}" for i in range(6)],
)
def test_empty_requests_exit_2(argv, match, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert match in captured.err
