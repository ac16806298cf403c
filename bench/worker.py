"""The program side of a benchmark run: one process executing operations.

Usage: python3 bench/worker.py ROOT TRACE SPANS_PATH

Reads one JSON request per line on stdin.  For each operation it answers
with a JSON header line {"code", "seconds", "out", "err"} followed by `out`
bytes of captured stdout and `err` bytes of captured stderr.  `seconds`
covers the call alone.  A {"kind": "finish"} request is answered with the
process's peak RSS and, when TRACE is 1, the per-layer metrics; the spans are
then written to SPANS_PATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path


def load_program(root: Path):
    """Import borrowalk from ROOT/src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import borrowalk.cli
    import borrowalk.fidelity

    if src not in Path(borrowalk.cli.__file__).resolve().parents:
        raise ImportError(f"borrowalk was imported from {borrowalk.cli.__file__}, not {src}")
    return borrowalk.cli, borrowalk.fidelity


def execute(cli, fidelity, request: dict) -> tuple[int, float, str, str]:
    """Run one operation; return (exit code, seconds, stdout, stderr).

    Exit code -1 marks an exception that escaped the program."""
    out, err = io.StringIO(), io.StringIO()
    values = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in request:
                code = cli.run(request["argv"])
            else:
                phase = request["phase"]
                phi = Fraction(*phase["pi"]) if "pi" in phase else phase["rad"]
                values = fidelity.persistence_trajectory(phi, request["t_max"])
                code = 0
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if values is not None:
        out.write(json.dumps(values))
    return code, seconds, out.getvalue(), err.getvalue()


def pool_width() -> int:
    """Worker threads the program's pool would use; 1 when it has no pool."""
    try:
        from borrowalk.parallel import worker_count
    except ImportError:
        return 1
    return worker_count()


def main() -> None:
    root, trace, spans_path = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3]
    cli, fidelity = load_program(root)
    reply = sys.stdout.buffer
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for line in sys.stdin:
        request = json.loads(line)
        if request["kind"] == "finish":
            break
        if tracer is not None:
            tracer.op_id = request["id"]
        code, seconds, out, err = execute(cli, fidelity, request)
        out_bytes, err_bytes = out.encode(), err.encode()
        if tracer is not None:
            tracer.bytes_out += len(out_bytes)
        header = {"code": code, "seconds": seconds, "out": len(out_bytes), "err": len(err_bytes)}
        reply.write(json.dumps(header).encode() + b"\n" + out_bytes + err_bytes)
        reply.flush()
    final = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        final["layers"] = tracer.layer_metrics(pool_width())
        tracer.write_spans(spans_path)
        final["spans"] = len(tracer.spans)
    reply.write(json.dumps(final).encode() + b"\n")
    reply.flush()


if __name__ == "__main__":
    main()
