"""Correctness checks for benchmark operations, each by an independent route.

`check(op, code, out)` returns None when the operation's output is right,
otherwise a one-line reason.  Checks run outside the timed interval.

Routes:
- check-eigen: eigenvalue +1 (uniform wave) or -1 (alternating wave) and
  residual within tolerance for every multiplet expected to bind: the pair at
  any phase, the triple and quadruple only at 2pi/3 and 4pi/3.
- evolve: unit norm within 1e-12 at every snapshot; for n=3 on rings of at
  most 6 sites, every snapshot against the dense matrices of
  tests/oracles.py (dense_step_matrix is their product, which is not formed
  here: at n=3, d=6 it would cost a 1728^3 matrix product per operation, and
  n=4 is out of reach because one 4096-dimensional matrix is 268 MB).
- survival: p(0)=1 and non-increasing; the identity-coin pair also against
  the other route (direct vs momentum) within 1e-10.
- trajectory, fidelity: the law |(e^{3i phi}+3)/4|^{2t} computed here.
- ghz-scan: the hit set is exactly every pair point (antisymmetric branch),
  plus triple (symmetric) and quadruple (antisymmetric) points at 2pi/3 and
  4pi/3 when the grid holds them.
- spectrum: moduli against np.linalg.eigvals of each momentum block.
- coboson: B_1 = 1, B_2 = 1 + 9/(2d) for trimers, and every B_N against a
  generating-function count of the same Fock-space norm.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from fractions import Fraction
from math import factorial

import numpy as np

from workloads import RESONANT, phase_radians

ORACLE_MAX_DIM = 1728


class Checker:
    """Holds the library and oracle modules the cross-check routes use."""

    def __init__(self, oracles):
        from borrowalk import bound_states, lattice, spectral

        self.oracles = oracles
        self.lattice = lattice
        self.bound_states = bound_states
        self.spectral = spectral

    def check(self, op: dict, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            return getattr(self, "_" + op["kind"].replace("-", "_"))(op, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def _phase(self, op: dict):
        phase = op["phase"]
        return Fraction(*phase["pi"]) if "pi" in phase else phase["rad"]

    def _config(self, op: dict, particles: int, coin: str):
        return self.lattice.LatticeConfig(particles, op["d"], self._phase(op), coin)

    def _check_eigen(self, op: dict, out: str):
        entries = json.loads(out)
        d = op["d"]
        r_values = (0, 1) if d % 2 == 0 else (0,)
        if [(e["n"], e["r"]) for e in entries] != [(n, r) for n in (2, 3, 4) for r in r_values]:
            return "wrong multiplet list"
        resonant = _is_resonant(op["phase"])
        for e in entries:
            binds = e["n"] == 2 or resonant
            if e["is_eigenvector"] != binds:
                return f"n={e['n']} r={e['r']}: is_eigenvector={e['is_eigenvector']}"
            if not binds:
                if e["residual"] <= op["tol"]:
                    return f"n={e['n']} r={e['r']}: unbound multiplet with residual {e['residual']}"
                continue
            expected = 1.0 if e["r"] == 0 else -1.0
            if abs(e["eigenvalue_re"] - expected) > 1e-9 or abs(e["eigenvalue_im"]) > 1e-9:
                return f"n={e['n']} r={e['r']}: eigenvalue {e['eigenvalue_re']}+{e['eigenvalue_im']}i"
            if e["residual"] > op["tol"]:
                return f"n={e['n']} r={e['r']}: residual {e['residual']}"
        return None

    def _evolve(self, op: dict, out: str):
        snapshots = json.loads(out)
        if [s["t"] for s in snapshots] != list(range(op["steps"] + 1)):
            return "wrong snapshot times"
        for s in snapshots:
            norm = math.sqrt(sum(a["re"] ** 2 + a["im"] ** 2 for a in s["amplitudes"]))
            if abs(norm - 1.0) > 1e-12 or abs(s["norm"] - norm) > 1e-12:
                return f"t={s['t']}: norm {norm!r}, reported {s['norm']!r}"
        config = self._config(op, op["n"], "hadamard")
        if (2 * op["d"]) ** op["n"] <= ORACLE_MAX_DIM:
            return self._evolve_oracle(config, op, snapshots)
        return None

    def _evolve_oracle(self, config, op: dict, snapshots: list):
        o = self.oracles
        interaction = o.dense_interaction_matrix(config)
        shift = o.dense_shift_matrix(config)
        coins = [1 if c == "R" else -1 for c in op["coins"]]
        vec = np.zeros(shift.shape[0], dtype=complex)
        vec[o.label_index(config, op["positions"], coins)] = 1.0
        for s in snapshots:
            got = np.zeros_like(vec)
            for a in s["amplitudes"]:
                cns = [1 if c == "R" else -1 for c in a["coins"]]
                got[o.label_index(config, a["positions"], cns)] = complex(a["re"], a["im"])
            gap = float(np.max(np.abs(got - vec)))
            if gap > 1e-10:
                return f"t={s['t']}: {gap:.3g} away from the dense oracle"
            vec = shift @ (interaction @ vec)
        return None

    def _survival(self, op: dict, out: str):
        rows = _table(out, op["format"])
        series = [(int(r["t"]), float(r["p_B"])) for r in rows]
        if [t for t, _ in series] != list(range(op["t_max"] + 1)):
            return "wrong time axis"
        values = [p for _, p in series]
        if abs(values[0] - 1.0) > 1e-12:
            return f"p(0) = {values[0]!r}"
        for t in range(1, len(values)):
            if values[t] > values[t - 1] + 1e-12:
                return f"p rises at t={t}"
        if op["n"] != 2 or op["coin"] != "identity":
            return None
        # the other route; the direct route is run on a prefix, as it costs
        # one sparse step per time step
        other = "momentum" if op["method"] == "direct" else "direct"
        horizon = op["t_max"] if other == "momentum" else min(op["t_max"], 24)
        parent = self._config(op, 3, "identity")
        ensemble = self.bound_states.remove_particle(self.bound_states.bound_state(parent, 3))
        reference = self.spectral.survival_probability(ensemble, horizon, method=other).values
        gap = max(abs(p - q) for (_, p), (_, q) in zip(series, reference))
        if gap > 1e-10:
            return f"direct and momentum routes differ by {gap:.3g}"
        return None

    def _trajectory(self, op: dict, out: str):
        values = json.loads(out)
        if len(values) != op["t_max"] + 1:
            return "wrong length"
        phi = phase_radians(op["phase"])
        per_step = abs((cmath.exp(3j * phi) + 3.0) / 4.0) ** 2
        for t, value in enumerate(values):
            if abs(value - per_step**t) > 1e-10:
                return f"t={t}: {value!r} against the closed law"
        return None

    def _fidelity(self, op: dict, out: str):
        rows = _table(out, op["format"])
        if "phase" in op:
            phases = [phase_radians(op["phase"])]
        else:
            phases = [2.0 * math.pi * j / op["grid"] for j in range(1, op["grid"])]
        expected = [(phi, t) for phi in phases for t in op["t_values"]]
        if len(rows) != len(expected):
            return f"{len(rows)} rows, expected {len(expected)}"
        for row, (phi, t) in zip(rows, expected):
            law = abs((cmath.exp(3j * phi) + 3.0) / 4.0) ** (2 * t)
            if int(row["t"]) != t or not _close(float(row["phi"]), phi):
                return f"row order differs at phi={phi}, t={t}"
            if not _close(float(row["p"]), law):
                return f"phi={phi}, t={t}: {row['p']} against the closed law {law!r}"
        return None

    def _ghz_scan(self, op: dict, out: str):
        rows = _table(out, op["format"])
        grid, d = op["grid"], op["d"]
        k_values = (0, d // 2) if d % 2 == 0 else (0,)
        got = set()
        for row in rows:
            phi = float(row["phi"])
            j = round(phi * grid / (2.0 * math.pi))
            if not _close(phi, 2.0 * math.pi * j / grid):
                return f"phase {phi} is off the grid"
            value, closed = float(row["value"]), float(row["closed_value"])
            if not (op["threshold"] - 1e-11 <= value <= 1.0 + 1e-9) or abs(closed - value) > 1e-9:
                return f"condition value {value}, closed form {closed}"
            got.add((int(row["n"]), Fraction(2 * j, grid), int(row["k"]), row["sign"]))
        if len(got) != len(rows):
            return "duplicate rows"
        expected = set()
        for j in range(1, grid):
            phase = Fraction(2 * j, grid)
            for k in k_values:
                if 2 in op["arities"]:
                    expected.add((2, phase, k, "antisymmetric"))
                if phase in {Fraction(p, q) for p, q in RESONANT}:
                    if 3 in op["arities"]:
                        expected.add((3, phase, k, "symmetric"))
                    if 4 in op["arities"]:
                        expected.add((4, phase, k, "antisymmetric"))
        if got != expected:
            return f"{len(got - expected)} unexpected and {len(expected - got)} missing hits"
        return None

    def _spectrum(self, op: dict, out: str):
        rows = _table(out, op["format"])
        d = op["d"]
        if len(rows) != d:
            return f"{len(rows)} rows for d={d}"
        # the k=0 block is [[stay, flip], [flip, stay]]; block k multiplies
        # its first row by exp(-i theta) and its second by exp(i theta)
        amplitudes = self.spectral.momentum_block(0, d, self._phase(op)).matrix
        turn = np.exp(2j * np.pi * np.arange(d) / d)
        blocks = amplitudes[None, :, :] * np.stack([turn.conj(), turn], axis=1)[:, :, None]
        eigenvalues = np.linalg.eigvals(blocks)
        moduli = np.sort(np.abs(eigenvalues), axis=1)
        # an eigensolve of a nearly defective block is only good to about
        # sqrt(machine epsilon); the modulus product |det| stays well conditioned
        slack = np.where(np.abs(eigenvalues[:, 0] - eigenvalues[:, 1]) < 1e-6, 1e-7, 1e-9)
        det = abs(np.linalg.det(amplitudes))
        for k, row in enumerate(rows):
            got = sorted((float(row["abs_lambda_plus"]), float(row["abs_lambda_minus"])))
            if not _close(float(row["k_over_d"]), k / d):
                return f"row {k}: k/d = {row['k_over_d']}"
            if abs(got[0] - moduli[k, 0]) > slack[k] or abs(got[1] - moduli[k, 1]) > slack[k]:
                return f"k={k}: moduli {got} against eigensolve {moduli[k].tolist()}"
            if abs(got[0] * got[1] - det) > 1e-9:
                return f"k={k}: modulus product {got[0] * got[1]} against |det| {det}"
        return None

    def _coboson(self, op: dict, out: str):
        report = json.loads(out)
        n, d, c = op["n"], op["d"], op["constituents"]
        if (report["N"], report["d"]) != (n, d):
            return f"report for N={report['N']}, d={report['d']}"
        norm = Fraction(report["B_N"])
        expected = _coboson_norm(n, d, c)
        if n == 1 and norm != 1:
            return f"B_1 = {norm}"
        if n == 2 and c == 3 and norm != 1 + Fraction(9, 2 * d):
            return f"B_2 = {norm}, expected 1 + 9/(2d)"
        if norm != expected:
            return f"B_{n} = {norm}, generating function gives {expected}"
        previous = _coboson_norm(n - 1, d, c)
        if Fraction(report["ratio"]) != expected / previous:
            return f"ratio {report['ratio']}"
        if Fraction(report["approx_ratio"]) != Fraction(2 * d - n + 1, 2 * d):
            return f"approx_ratio {report['approx_ratio']}"
        if c == 3 and Fraction(report["B_tilde_2"]) != Fraction(1, 2) + Fraction(1, 2 * d):
            return f"B_tilde_2 {report['B_tilde_2']}"
        return None


def _is_resonant(phase: dict) -> bool:
    if "pi" in phase:
        return Fraction(*phase["pi"]) in {Fraction(p, q) for p, q in RESONANT}
    return any(abs(phase["rad"] - p * math.pi / q) < 1e-12 for p, q in RESONANT)


def _close(a: float, b: float) -> bool:
    """Equal up to the 12 significant digits of the CLI's CSV output."""
    return abs(a - b) <= 1e-11 * max(abs(a), abs(b)) + 1e-300


def _table(out: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return [{key: str(value) for key, value in row.items()} for row in json.loads(out)]
    return list(csv.DictReader(io.StringIO(out)))


def _coboson_norm(n: int, d: int, c: int) -> Fraction:
    """B_n from the coefficient of x^n in (sum_k (ck)!/(k!)^2 x^k)^(2d).

    The squared norm of (sum_i a_i^dag^c)^n |0> over 2d modes is
    sum over occupations of (n!/prod n_i!)^2 prod (c n_i)!, which that
    coefficient times (n!)^2 counts; B_n divides by (c! 2d)^n n!.
    """
    if n == 0:
        return Fraction(1)
    single = [Fraction(factorial(c * k), factorial(k) ** 2) for k in range(n + 1)]
    power, base, exponent = [Fraction(1)] + [Fraction(0)] * n, single, 2 * d
    while exponent:
        if exponent & 1:
            power = _truncated_product(power, base, n)
        base = _truncated_product(base, base, n)
        exponent >>= 1
    raw = factorial(n) ** 2 * power[n]
    return raw / (Fraction(factorial(c) * 2 * d) ** n * factorial(n))


def _truncated_product(a: list, b: list, degree: int) -> list:
    out = [Fraction(0)] * (degree + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(degree + 1 - i):
                out[i + j] += x * b[j]
    return out
