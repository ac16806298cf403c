"""Seeded operation lists for the three benchmark workloads.

An operation is a dict.  `argv` operations are one in-process call of
`borrowalk.cli.run(argv)`; `trajectory` operations are one direct call of
`borrowalk.fidelity.persistence_trajectory(phi, t_max)`.  Every operation
also carries the parameters its correctness check needs.

Each workload is an endless sequence of rounds.  A round holds a fixed mix of
operation templates in a seeded order, with seeded parameters inside each
template's range, dealt so that every run sees nearly the same spread of
sizes whatever its seed (see `_Draws`).  Within a workload the templates'
sizes are chosen so that their operations cost the same order of time; the
median and 90th-percentile latencies then fall inside a dense part of the
latency distribution, not in a gap between operation kinds.
"""

from __future__ import annotations

import math
import random
from itertools import count

WORKLOADS = ("walk_dense", "walk_sparse", "sweep")

# Grid sizes for ghz-scan divide 144, so every scanned phase is a multiple of
# pi/72.  The contact-coin cache is keyed by phase; this keeps it from
# growing with the number of operations a run completes, so peak_rss_mb does
# not rise merely because the program got faster.
SCAN_GRIDS = (8, 9, 12, 16, 18, 24, 36, 48, 72, 144)

RESONANT = ((2, 3), (4, 3))


class _Draws:
    """Seeded draws balanced across a run.

    `pick` deals every value of a deck once, in seeded order, before dealing
    any again; `int` deals equal sub-ranges of [lo, hi] that way and draws
    uniformly inside the one dealt.  Costly and cheap parameter values then
    occur in nearly the same proportion in every run, whatever the seed.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._decks: dict[str, list] = {}

    def pick(self, key: str, values):
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(values)
            self.rng.shuffle(deck)
        return deck.pop()

    def int(self, key: str, lo: int, hi: int, strata: int = 8) -> int:
        strata = min(strata, hi - lo + 1)
        edges = [lo + (hi - lo + 1) * i // strata for i in range(strata + 1)]
        i = self.pick(key, range(strata))
        return self.rng.randint(edges[i], edges[i + 1] - 1)

    def phase(self, key: str) -> dict:
        """A phase in (0, 2*pi): an exact pi fraction or a float, alternately."""
        if self.pick(key, ("pi", "rad")) == "pi":
            q = self.pick(key + ".q", range(1, 13))
            return {"pi": [self.rng.randint(1, 2 * q - 1), q]}
        # cost can depend on the phase (pruned amplitudes), so deal it in strata
        stratum = self.pick(key + ".rad", range(24))
        value = 0.0
        while value == 0.0:
            value = 2.0 * math.pi * (stratum + self.rng.random()) / 24
        return {"rad": value}

    def format(self, key: str) -> str:
        return self.pick(key, ("csv", "json"))


def phase_text(phase: dict) -> str:
    """Command-line spelling of a phase: '2pi/3', 'pi', 'pi/5' or a float repr."""
    if "rad" in phase:
        return repr(phase["rad"])
    p, q = phase["pi"]
    head = "pi" if p == 1 else f"{p}pi"
    return head if q == 1 else f"{head}/{q}"


def phase_radians(phase: dict) -> float:
    if "rad" in phase:
        return phase["rad"]
    p, q = phase["pi"]
    return p * math.pi / q


def _evolve(draw: _Draws, n: int, d_range, steps: int) -> dict:
    key = f"evolve{n}"
    d = draw.int(key + ".d", *d_range)
    phase = draw.phase(key + ".phi")
    positions = [draw.rng.randrange(d) for _ in range(n)]
    coins = "".join(draw.rng.choice("RL") for _ in range(n))
    coin_flag = coins if draw.rng.random() < 0.5 else ",".join(coins)
    argv = [
        "evolve", "--n", str(n), "--d", str(d), "--phi", phase_text(phase),
        "--coin", "hadamard", "--steps", str(steps),
        "--positions", ",".join(map(str, positions)), "--coins", coin_flag,
    ]
    return {"kind": "evolve", "argv": argv, "n": n, "d": d, "phase": phase,
            "steps": steps, "positions": positions, "coins": coins}


def _check_eigen(draw: _Draws) -> dict:
    d = draw.int("eigen.d", 16, 40)
    if draw.pick("eigen.resonant", (True, True, True, False)):
        p, q = draw.pick("eigen.resonance", RESONANT)
        spelling = draw.pick("eigen.spelling", ("pi", "rad"))
        phase = {"pi": [p, q]} if spelling == "pi" else {"rad": p * math.pi / q}
    else:
        phase = draw.phase("eigen.phi")
    coin = draw.pick("eigen.coin", ("identity", "hadamard"))
    argv = ["check-eigen", "--all", "--d", str(d), "--phi", phase_text(phase), "--coin", coin]
    return {"kind": "check-eigen", "argv": argv, "d": d, "phase": phase, "tol": 1e-12}


def _survival(draw: _Draws, method: str) -> dict:
    key = f"survival.{method}"
    if method == "direct":
        n = draw.pick(key + ".n", (2, 3))
        coin = draw.pick(key + ".coin", ("identity", "hadamard"))
        d = draw.int(key + ".d", 10, 40)
        # occupied labels grow with the ring, so a larger ring gets fewer steps
        t_max = 1500 // d + draw.rng.randint(-5, 5)
    else:
        n, coin = 2, "identity"
        d = draw.int(key + ".d", 20, 200)
        t_max = draw.int(key + ".t", 400, 1200)
    phase = draw.phase(key + ".phi")
    fmt = draw.format(key + ".format")
    argv = [
        "survival", "--n", str(n), "--d", str(d), "--phi", phase_text(phase),
        "--coin", coin, "--t-max", str(t_max), "--method", method, "--format", fmt,
    ]
    return {"kind": "survival", "argv": argv, "n": n, "d": d, "phase": phase, "coin": coin,
            "t_max": t_max, "method": method, "format": fmt}


def _trajectory(draw: _Draws) -> dict:
    return {"kind": "trajectory", "phase": draw.phase("trajectory.phi"),
            "t_max": draw.int("trajectory.t", 200, 400)}


def _ghz_scan(draw: _Draws) -> dict:
    arities = sorted(draw.rng.sample(range(2, 7), draw.pick("scan.arities", range(1, 6))))
    d = draw.pick("scan.d", range(2, 13))
    momenta = 2 if d % 2 == 0 else 1
    # about 400 condition evaluations per scan: fewer sizes get a finer grid
    grid = min(SCAN_GRIDS, key=lambda g: abs(g * 2 * momenta * len(arities) - 400))
    fmt = draw.format("scan.format")
    argv = [
        "ghz-scan", "--n-values", ",".join(map(str, arities)), "--phi-grid", str(grid),
        "--d", str(d), "--format", fmt,
    ]
    return {"kind": "ghz-scan", "argv": argv, "arities": arities, "grid": grid, "d": d,
            "format": fmt, "threshold": 1.0 - 1e-9}


def _fidelity(draw: _Draws) -> dict:
    t_values = sorted(draw.rng.sample(range(0, 2001), draw.pick("fidelity.t", range(2, 5))))
    grid = draw.int("fidelity.grid", 180, 720)
    fmt = draw.format("fidelity.format")
    argv = ["fidelity", "--t", ",".join(map(str, t_values)), "--phi-grid", str(grid),
            "--format", fmt]
    return {"kind": "fidelity", "argv": argv, "t_values": t_values, "grid": grid, "format": fmt}


def _spectrum(draw: _Draws) -> dict:
    d = draw.int("spectrum.d", 1500, 4000)
    phase = draw.phase("spectrum.phi")
    fmt = draw.format("spectrum.format")
    argv = ["spectrum", "--d", str(d), "--phi", phase_text(phase), "--format", fmt]
    return {"kind": "spectrum", "argv": argv, "d": d, "phase": phase, "format": fmt}


def _coboson(draw: _Draws) -> dict:
    n = draw.pick("coboson.n", range(18, 29))
    d = draw.int("coboson.d", 1, 50)
    constituents = draw.pick("coboson.constituents", (3, 3, 2, 4))
    argv = ["coboson", "--n", str(n), "--d", str(d), "--constituents", str(constituents)]
    return {"kind": "coboson", "argv": argv, "n": n, "d": d, "constituents": constituents}


def _round(workload: str, draw: _Draws) -> list[dict]:
    if workload == "walk_dense":
        ops = [_evolve(draw, 3, (6, 10), 4) for _ in range(4)]
        ops += [_evolve(draw, 4, (4, 8), 3) for _ in range(3)]
        ops += [_check_eigen(draw) for _ in range(3)]
    elif workload == "walk_sparse":
        ops = [_survival(draw, "direct") for _ in range(6)]
        ops += [_trajectory(draw) for _ in range(2)]
    elif workload == "sweep":
        # scans and fidelity grids run on the thread pool, whose timing swings
        # from run to run with the load on the other CPU; they are kept to a
        # share of the round that lets the run-to-run spread stay in bounds
        ops = [_ghz_scan(draw) for _ in range(2)]
        ops += [_fidelity(draw)]
        ops += [_spectrum(draw) for _ in range(3)]
        ops += [_survival(draw, "momentum") for _ in range(3)]
        ops += [_coboson(draw)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    draw.rng.shuffle(ops)
    return ops


def round_size(workload: str) -> int:
    return len(_round(workload, _Draws(random.Random(0))))


def operations(workload: str, seed: int):
    """Endless seeded operation stream; the same (workload, seed) gives the same stream."""
    draw = _Draws(random.Random(f"{workload}/{seed}"))
    ids = count()
    while True:
        for op in _round(workload, draw):
            op["id"] = next(ids)
            yield op
