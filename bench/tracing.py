"""Spans around the calls into each borrowalk layer, recorded from outside.

`Tracer.install()` replaces each function in `TARGETS` with a recording
wrapper in every loaded `borrowalk` module namespace that holds it, so calls
made through `from .evolution import projected_step` are seen as well.
`Tracer.uninstall()` puts every original back.  Spans stay in memory until
`write_spans()`; `layer_metrics()` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# span name -> (defining module, attribute)
TARGETS = {
    "cli.run": ("cli", "run"),
    "lattice.state_json": ("lattice", "state_json_entries"),
    "evolution.step": ("evolution", "step"),
    "evolution.projected_step": ("evolution", "projected_step"),
    "evolution.coin_stage": ("evolution", "apply_interaction"),
    "evolution.shift": ("evolution", "apply_shift"),
    "evolution.project": ("evolution", "project_bound"),
    "evolution.contact_coin": ("evolution", "interaction_group_matrix"),
    "bound_states.scan": ("bound_states", "scan_conditions"),
    "bound_states.condition": ("bound_states", "ghz_condition"),
    "bound_states.verify": ("bound_states", "verify_eigenstate"),
    "spectral.survival_direct": ("spectral", "_survival_direct"),
    "spectral.survival_momentum": ("spectral", "_survival_momentum"),
    "spectral.spectrum": ("spectral", "spectrum_norms"),
    "fidelity.sweep": ("fidelity", "fidelity_sweep"),
    "fidelity.trajectory": ("fidelity", "persistence_trajectory"),
    "cobosons.report": ("cobosons", "coboson_report"),
    "cobosons.partition_sum": ("cobosons", "power_sum_norm_sq"),
    "parallel.map": ("parallel", "ordered_map"),
}

# (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "lattice.state_json_s": ("s", "lower"),
    "lattice.labels_peak": ("count", "lower"),
    "evolution.coin_stage_s": ("s", "lower"),
    "evolution.labels_coined": ("count", "lower"),
    "evolution.shift_s": ("s", "lower"),
    "evolution.project_s": ("s", "lower"),
    "evolution.steps": ("count", "lower"),
    "evolution.contact_coin_s": ("s", "lower"),
    "evolution.contact_coin_hit_ratio": ("ratio", "higher"),
    "evolution.contact_coin_cache_entries": ("count", "lower"),
    "bound_states.scan_s": ("s", "lower"),
    "bound_states.condition_evals": ("count", "lower"),
    "bound_states.hit_ratio": ("ratio", "higher"),
    "bound_states.verify_s": ("s", "lower"),
    "spectral.survival_direct_s": ("s", "lower"),
    "spectral.survival_momentum_s": ("s", "lower"),
    "spectral.spectrum_s": ("s", "lower"),
    "spectral.projected_steps": ("count", "lower"),
    "fidelity.sweep_s": ("s", "lower"),
    "fidelity.trajectory_s": ("s", "lower"),
    "fidelity.trajectory_steps": ("count", "lower"),
    "cobosons.report_s": ("s", "lower"),
    "cobosons.partition_sum_s": ("s", "lower"),
    "cobosons.partition_sum_calls": ("count", "lower"),
    "parallel.map_s": ("s", "lower"),
    "parallel.tasks": ("count", "lower"),
    "parallel.workers": ("count", "lower"),
    "parallel.task_busy_s": ("s", "lower"),
    "parallel.utilization": ("ratio", "higher"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, site, start, end, parent, op_id)
        self.op_id = None
        self.bytes_out = 0
        self.labels_coined = 0
        self.labels_peak = 0
        self.scan_points = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._originals: dict[str, object] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, site, fn, args, kwargs, parent=None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, site, start, end, parent, self.op_id))

    def _wrap(self, name: str, original, site: str):
        if name == "parallel.map":
            return self._wrap_map(original, site)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self._record(name, site, original, args, kwargs)
            if name == "evolution.coin_stage":
                self.labels_coined += len(args[0].amplitudes)
            elif name in ("evolution.step", "evolution.projected_step"):
                self.labels_peak = max(self.labels_peak, len(result.amplitudes))
            elif name == "bound_states.scan":
                self.scan_points += len(result)
            return result

        return wrapper

    def _wrap_map(self, original, site: str):
        """Each task becomes a `parallel.task` span whose parent is the map
        span, also when it runs on a pool thread with an empty span stack."""

        @functools.wraps(original)
        def wrapper(fn, items, *args, **kwargs):
            def traced(fn, items):
                map_span = self._stack()[-1]

                def task(item):
                    return self._record("parallel.task", site, fn, (item,), {}, parent=map_span)

                return original(task, items, *args, **kwargs)

            return self._record("parallel.map", site, traced, (fn, items), {})

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "borrowalk" or key.startswith("borrowalk."))]
        for name, (module_name, attr) in TARGETS.items():
            # a layer a later version of the program removes is reported as zero
            try:
                original = getattr(importlib.import_module(f"borrowalk.{module_name}"), attr)
            except (ImportError, AttributeError):
                continue
            self._originals[name] = original
            for module in modules:
                site = module.__name__.rpartition(".")[2]
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, self._wrap(name, original, site))
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, name, site, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "site": site, "start": start,
                                         "end": end, "parent": parent, "op": op_id}) + "\n")

    def layer_metrics(self, workers: int) -> dict:
        """Per-layer metrics from the recorded spans.

        `_s` metrics sum span wall time; `cli.self_s` and
        `evolution.coin_stage_s` are self time, i.e. minus the time their
        child spans cover, because those children are reported on their own.
        """
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        calls_at: dict[tuple, int] = {}
        children: dict[int, list] = {}
        for _, _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for span_id, name, site, start, end, _, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start) - _covered(
                children.get(span_id, ()), start, end)
            calls[name] = calls.get(name, 0) + 1
            calls_at[(name, site)] = calls_at.get((name, site), 0) + 1
        cache_info = getattr(self._originals.get("evolution.contact_coin"), "cache_info", None)
        hits, misses, _, entries = cache_info() if cache_info else (0, 0, None, 0)
        evals = calls.get("bound_states.condition", 0)
        map_s = total.get("parallel.map", 0.0)
        busy = total.get("parallel.task", 0.0)
        return {
            "cli.self_s": self_time.get("cli.run", 0.0),
            "cli.bytes_out": self.bytes_out,
            "lattice.state_json_s": total.get("lattice.state_json", 0.0),
            "lattice.labels_peak": self.labels_peak,
            "evolution.coin_stage_s": self_time.get("evolution.coin_stage", 0.0),
            "evolution.labels_coined": self.labels_coined,
            "evolution.shift_s": total.get("evolution.shift", 0.0),
            "evolution.project_s": total.get("evolution.project", 0.0),
            "evolution.steps": calls.get("evolution.step", 0),
            "evolution.contact_coin_s": total.get("evolution.contact_coin", 0.0),
            "evolution.contact_coin_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "evolution.contact_coin_cache_entries": entries,
            "bound_states.scan_s": total.get("bound_states.scan", 0.0),
            "bound_states.condition_evals": evals,
            "bound_states.hit_ratio": self.scan_points / evals if evals else 0.0,
            "bound_states.verify_s": total.get("bound_states.verify", 0.0),
            "spectral.survival_direct_s": total.get("spectral.survival_direct", 0.0),
            "spectral.survival_momentum_s": total.get("spectral.survival_momentum", 0.0),
            "spectral.spectrum_s": total.get("spectral.spectrum", 0.0),
            "spectral.projected_steps": calls_at.get(("evolution.projected_step", "spectral"), 0),
            "fidelity.sweep_s": total.get("fidelity.sweep", 0.0),
            "fidelity.trajectory_s": total.get("fidelity.trajectory", 0.0),
            "fidelity.trajectory_steps": calls_at.get(("evolution.projected_step", "fidelity"), 0),
            "cobosons.report_s": total.get("cobosons.report", 0.0),
            "cobosons.partition_sum_s": total.get("cobosons.partition_sum", 0.0),
            "cobosons.partition_sum_calls": calls.get("cobosons.partition_sum", 0),
            "parallel.map_s": map_s,
            "parallel.tasks": calls.get("parallel.task", 0),
            "parallel.workers": workers,
            "parallel.task_busy_s": busy,
            "parallel.utilization": busy / (map_s * workers) if map_s else 0.0,
        }


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
