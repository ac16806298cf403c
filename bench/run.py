"""Seeded closed-loop benchmark of the borrowalk package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; borrowalk is imported from
./src, never from an installed copy.  One client issues the workload's
seeded operations back to back to one worker process (bench/worker.py) and
checks each output before sending the next.  `--workload all` runs every
workload in turn, each in a fresh worker.

--trace 0 prints the end-to-end metrics; --trace 1 replays the first rounds
of the same operations with tracing on, and once more with
BORROMEAN_THREADS=1, and prints the per-layer metrics.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it name every metric with its unit and the run metadata.
A report with the spans' summary is also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# the p90 needs ten samples beyond it
MIN_OPS = 100
# a run stops sending operations after this much wall time whatever MIN_OPS says
WALL_LIMIT_S = 90.0
SETUP_REPEATS = 7
# the traced passes replay this many rounds from the start of the operation list
TRACE_ROUNDS = 3

END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("ratio", "lower"),
}
TRACE_EXTRA = {
    "trace.ops": ("count", "lower"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_ops_per_s": ("1/s", "lower"),
    "single_thread.ops_per_s": ("1/s", "higher"),
    "single_thread.parallel.map_s": ("s", "lower"),
    "single_thread.parallel.utilization": ("ratio", "higher"),
    "single_thread.bound_states.scan_s": ("s", "lower"),
    "single_thread.fidelity.sweep_s": ("s", "lower"),
}

IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import borrowalk.cli\n"
    "sys.stdout.write(repr(time.perf_counter() - start))\n"
)


class Worker:
    """One worker process; closed loop, one request in flight."""

    def __init__(self, env: dict, trace: bool, spans_path: Path | None = None):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(ROOT), "1" if trace else "0",
             str(spans_path or "")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )

    def call(self, op: dict) -> tuple[int, float, str, str]:
        self.proc.stdin.write(json.dumps(op).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        header = json.loads(line)
        out = self.proc.stdout.read(header["out"]).decode()
        err = self.proc.stdout.read(header["err"]).decode()
        return header["code"], header["seconds"], out, err

    def finish(self) -> dict:
        self.proc.stdin.write(b'{"kind": "finish"}\n')
        self.proc.stdin.flush()
        final = json.loads(self.proc.stdout.readline())
        self.close()
        return final

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def program_env(threads: str | None) -> dict:
    """The caller's environment with BORROMEAN_THREADS unset, or set to `threads`."""
    env = {key: value for key, value in os.environ.items() if key != "BORROMEAN_THREADS"}
    if threads is not None:
        env["BORROMEAN_THREADS"] = threads
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds for a fresh interpreter to import borrowalk.cli, per repeat."""
    env = dict(env, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def timed_pass(ops, checker, seconds: float) -> dict:
    """Untraced pass: operations until `seconds` of operation time have been
    measured and at least MIN_OPS have completed; every output is checked."""
    latencies, digests, failures = [], [], []
    wall_start = time.monotonic()
    worker = Worker(program_env(None), trace=False)
    try:
        for op in ops:
            if sum(latencies) >= seconds and len(latencies) >= MIN_OPS:
                break
            if time.monotonic() - wall_start > WALL_LIMIT_S:
                break
            code, elapsed, out, err = worker.call(op)
            latencies.append(elapsed)
            digests.append(hashlib.sha256(out.encode()).hexdigest())
            reason = checker.check(op, code, out)
            if reason is not None:
                failures.append({"id": op["id"], "argv": op.get("argv"), "reason": reason,
                                 "stderr": err[-2000:]})
        final = worker.finish()
    finally:
        worker.close()
    return {"latencies": latencies, "digests": digests, "failures": failures,
            "peak_rss_mb": final["peak_rss_mb"]}


def replay_pass(ops, digests: list, threads: str | None, spans_path: Path) -> dict:
    """Traced pass over `ops`; each output must match the untraced bytes."""
    latencies, mismatches = [], []
    worker = Worker(program_env(threads), trace=True, spans_path=spans_path)
    try:
        for op, digest in zip(ops, digests):
            code, elapsed, out, _ = worker.call(op)
            latencies.append(elapsed)
            if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
                mismatches.append({"id": op["id"], "argv": op.get("argv"),
                                   "reason": "traced output differs from untraced output"})
        final = worker.finish()
    finally:
        worker.close()
    return {"latencies": latencies, "failures": mismatches, "layers": final["layers"],
            "spans": final["spans"]}


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; read from files only."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "BORROMEAN_THREADS": os.environ.get("BORROMEAN_THREADS"),
        "program_BORROMEAN_THREADS": None,
        "loop": "closed, one client, one worker process",
    }


def load_checker():
    from checks import Checker

    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return Checker(oracles)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, checker) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    meta = metadata(workload, seed, seconds, trace)
    result = {"meta": meta}
    if not trace:
        setup = measure_setup(program_env(None))
        meta["setup_samples"] = setup
    untraced = timed_pass(workloads.operations(workload, seed), checker, seconds)
    latencies = untraced["latencies"]
    failures = list(untraced["failures"])
    attempted = len(latencies)
    meta["ops"] = attempted
    meta["p50_samples_beyond"] = attempted - int(attempted * 0.5)
    meta["p90_samples_beyond"] = attempted - int(attempted * 0.9)
    if not trace:
        metrics = {
            "ops_per_s": attempted / sum(latencies),
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_p90_ms": 1000.0 * percentile(latencies, 90),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": untraced["peak_rss_mb"],
            "failed_frac": len(failures) / attempted,
        }
        units = END_TO_END
    else:
        count = min(attempted, TRACE_ROUNDS * workloads.round_size(workload))
        replays = {}
        for label, threads in (("traced", None), ("single_thread", "1")):
            ops = islice(workloads.operations(workload, seed), count)
            spans_path = OUT_DIR / f"spans-{workload}-{label}.jsonl"
            replays[label] = replay_pass(ops, untraced["digests"][:count], threads, spans_path)
            failures += replays[label]["failures"]
            meta[f"{label}_spans"] = replays[label]["spans"]
        meta["program_BORROMEAN_THREADS_single_thread"] = "1"
        traced, single = replays["traced"], replays["single_thread"]
        untraced_rate = count / sum(latencies[:count])
        traced_rate = count / sum(traced["latencies"])
        metrics = dict(traced["layers"])
        metrics.update({
            "trace.ops": count,
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.traced_ops_per_s": traced_rate,
            "trace.overhead_ops_per_s": untraced_rate - traced_rate,
            "single_thread.ops_per_s": count / sum(single["latencies"]),
            "single_thread.parallel.map_s": single["layers"]["parallel.map_s"],
            "single_thread.parallel.utilization": single["layers"]["parallel.utilization"],
            "single_thread.bound_states.scan_s": single["layers"]["bound_states.scan_s"],
            "single_thread.fidelity.sweep_s": single["layers"]["fidelity.sweep_s"],
        })
        units = {**LAYER_METRICS, **TRACE_EXTRA}
    result.update({
        "correct": not failures,
        "attempted": attempted,
        "failed": len({f["id"] for f in failures}),
        "failures": failures[:20],
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    })
    report = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    report.write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_result(result: dict) -> None:
    meta = result["meta"]
    print(f"# workload {meta['workload']}  seed {meta['seed']}  ops {result['attempted']}  "
          f"failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{meta['workload']:12s} {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in result["failures"]:
        print(f"# FAILED op {failure['id']}: {failure['reason']}  argv={failure['argv']}")
    print(json.dumps({"meta": meta}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "borrowalk" / "cli.py").is_file():
        print(f"error: no borrowalk source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    checker = load_checker()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace), checker)
               for name in names]
    for result in results:
        print_result(result)
    if len(results) == 1:
        metrics = {name: m for name, m in results[0]["metrics"].items() if name != "failed_frac"}
    else:
        metrics = {f"{r['meta']['workload']}.{name}": m for r in results
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
