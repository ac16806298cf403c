"""Command-line front end.

Every subcommand is a thin wrapper over one library entry point.  The four
table subcommands write CSV, one format string per row at twelve significant
digits, or JSON records; `evolve`, `check-eigen` and `coboson` write JSON
only.  Output is deterministic: rerunning a command with the same flags
produces byte-identical bytes with LF line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain

from .bound_states import bound_state, remove_particle, scan_conditions, verify_eigenstate
from .cobosons import coboson_report, depleted_norm
from .evolution import (
    fidelity_bytes,
    projected_step,
    require_bytes_fit,
    require_scan_fits,
    require_walk_fits,
    spectrum_bytes,
    step,
    walk_rows,
    walk_text_bytes,
)
from .fidelity import fidelity_sweep
from .jsonout import records, walk_snapshots
from .lattice import LatticeConfig, as_coin, make_basis_state, parse_phase, phase_grid, phase_radians
from .spectral import require_survival_fits, spectrum_norms, survival_probability


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"cannot parse integer list {text!r}") from None
    if not values:
        raise ValueError(f"integer list {text!r} is empty")
    return values


def _parse_coin_list(text: str) -> tuple[int, ...]:
    parts = text.split(",") if "," in text else list(text)
    return tuple(as_coin(part) for part in parts)


def _write(chunks, path: str | None) -> None:
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
    else:
        with open(path, "w", newline="") as handle:
            for chunk in chunks:
                handle.write(chunk)


def _emit_table(args, keys: tuple[str, ...], csv_row: str, rows) -> None:
    """Write rows as JSON records, or as CSV: a header of keys, then
    `csv_row % row` for each row."""
    if args.format == "json":
        text = records(keys, rows)
    else:
        text = "\n".join([",".join(keys), *(csv_row % row for row in rows)])
    _write((text, "\n"), args.output)


def _config(args, particles: int) -> LatticeConfig:
    return LatticeConfig(
        particle_count=particles,
        site_count=args.d,
        interaction_phase=args.phi,
        free_coin=args.coin,
    )


def _cmd_evolve(args) -> None:
    if args.steps < 0:
        raise ValueError("--steps must be non-negative")
    config = _config(args, args.n)
    rows = walk_rows(args.n, args.d, args.steps, args.projected)
    require_walk_fits(args.n, rows)
    text = walk_text_bytes(args.n, rows, args.steps, args.projected)
    require_bytes_fit(text, f"the JSON text of {args.n} walkers over {args.steps} steps")
    positions = _parse_int_list(args.positions) if args.positions else [0] * args.n
    coins = _parse_coin_list(args.coins) if args.coins else (1,) * args.n
    state = make_basis_state(config, positions, coins)
    advance = projected_step if args.projected else step
    # written piece by piece while the walk advances, so one state and one
    # piece of text are held at a time, as require_walk_fits counts
    snapshots = _walk(state, advance, args.steps)
    _write(chain(walk_snapshots(snapshots), "\n"), args.output)


def _walk(state, advance, steps: int):
    """(t, norm, state) for t = 0 .. steps, each state made when it is asked for."""
    for t in range(steps + 1):
        yield t, float(state.norm()), state
        if t < steps:
            state = advance(state)


_EIGEN_KEYS = ("n", "r", "is_eigenvector", "eigenvalue_re", "eigenvalue_im", "residual")


def _eigen_entry(config: LatticeConfig, arity: int, r: int, tol: float) -> tuple:
    # the bound state spans d codes, and one step spreads each over 2**n
    require_walk_fits(arity, config.site_count << arity)
    report = verify_eigenstate(bound_state(config, arity, r), tol=tol)
    return (arity, r, report.is_eigenvector, report.eigenvalue.real, report.eigenvalue.imag, report.residual)


def _cmd_check_eigen(args) -> None:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be a finite non-negative number")
    if args.all:
        entries = []
        r_values = (0, 1) if args.d % 2 == 0 else (0,)
        for arity in (2, 3, 4):
            config = _config(args, arity)
            for r in r_values:
                entries.append(_eigen_entry(config, arity, r, args.tol))
        _write((records(_EIGEN_KEYS, entries), "\n"), args.output)
        return
    config = _config(args, args.n)
    entry = _eigen_entry(config, args.n, args.r, args.tol)
    _write((json.dumps(dict(zip(_EIGEN_KEYS, entry)), indent=2), "\n"), args.output)


def _cmd_ghz_scan(args) -> None:
    if not math.isfinite(args.threshold):
        raise ValueError("--threshold must be a finite number")
    arities = _parse_int_list(args.n_values)
    # bounded before the phase grid is built
    require_scan_fits(args.phi_grid, arities)
    phases = phase_grid(args.phi_grid)
    k_values = (0, args.d // 2) if args.d % 2 == 0 else (0,)
    points = scan_conditions(arities, phases, k_values=k_values, d=args.d, threshold=args.threshold)
    rows = []
    for point in points:
        sign = "antisymmetric" if point.ghz.gamma.real < 0 else "symmetric"
        rows.append(
            (
                point.arity,
                phase_radians(point.phase),
                point.momentum_index,
                sign,
                point.value,
                point.closed_form_value,
            )
        )
    keys = ("n", "phi", "k", "sign", "value", "closed_value")
    _emit_table(args, keys, "%d,%.12g,%d,%s,%.12g,%.12g", rows)


def _cmd_spectrum(args) -> None:
    require_bytes_fit(spectrum_bytes(args.d), f"a spectrum of {args.d} momentum sectors")
    rows = spectrum_norms(args.d, args.phi)
    _emit_table(args, ("k_over_d", "abs_lambda_plus", "abs_lambda_minus"), "%.12g,%.12g,%.12g", rows)


def _cmd_survival(args) -> None:
    if args.n not in (2, 3):
        raise ValueError("survival tracks the 2-particle or 3-particle remainder")
    parent_config = _config(args, args.n + 1)
    require_survival_fits(args.n, args.d, args.t_max, args.method)
    ensemble = remove_particle(bound_state(parent_config, args.n + 1))
    series = survival_probability(ensemble, args.t_max, method=args.method)
    _emit_table(args, ("t", "p_B"), "%d,%.12g", series.values)


def _cmd_fidelity(args) -> None:
    t_values = _parse_int_list(args.t)
    grid = 1 if args.phi is not None else args.phi_grid
    # bounded before the phase grid is built
    request = f"a fidelity sweep of {grid} phases by {len(t_values)} step counts"
    require_bytes_fit(fidelity_bytes(grid, len(t_values)), request)
    phases = [args.phi] if args.phi is not None else phase_grid(args.phi_grid)
    rows = fidelity_sweep(phases, t_values)
    _emit_table(args, ("phi", "t", "p"), "%.12g,%d,%.12g", rows)


def _cmd_coboson(args) -> None:
    report = coboson_report(args.n, args.d, args.constituents)
    payload = {
        "N": report.composite_count,
        "d": args.d,
        "B_N": str(report.norm_constant),
        "ratio": str(report.ratio_to_previous),
        "approx_ratio": str(report.approx_ratio),
    }
    if args.constituents == 3:
        payload["B_tilde_2"] = str(depleted_norm(args.d))
    _write((json.dumps(payload, indent=2), "\n"), args.output)


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    """--output, and --format over `formats`, the first being the default."""
    parser.add_argument("--output", "-o", default=None, help="write to this file instead of stdout")
    parser.add_argument("--format", choices=formats, default=formats[0])


def _add_lattice_flags(parser: argparse.ArgumentParser, default_phi: str = "2pi/3") -> None:
    parser.add_argument("--d", type=int, default=8, help="ring size")
    parser.add_argument("--phi", type=parse_phase, default=parse_phase(default_phi))
    parser.add_argument("--coin", choices=("identity", "hadamard"), default="identity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borrowalk",
        description="Interacting discrete-time quantum walks with collectively bound multiplets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("evolve", help="dump a state trajectory as JSON snapshots")
    _add_lattice_flags(p)
    p.add_argument("--n", type=int, default=3, help="particle count")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--positions", default=None, help="comma-separated start sites")
    p.add_argument("--coins", default=None, help="start coins, e.g. R,R,L or RRL")
    p.add_argument("--projected", action="store_true", help="keep only the co-located aligned sector")
    _add_common(p, ("json",))
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("check-eigen", help="verify the bound multiplets against the step operator")
    _add_lattice_flags(p)
    p.add_argument("--n", type=int, default=3, help="multiplet size (2, 3 or 4)")
    p.add_argument("--r", type=int, default=0, choices=(0, 1), help="uniform (0) or alternating (1) wave")
    p.add_argument("--all", action="store_true", help="report every multiplet the ring admits")
    p.add_argument("--tol", type=float, default=1e-12)
    _add_common(p, ("json",))
    p.set_defaults(handler=_cmd_check_eigen)

    p = sub.add_parser("ghz-scan", help="grid-scan the collective alignment condition")
    p.add_argument("--n-values", default="2,3,4,5,6")
    p.add_argument("--phi-grid", type=int, default=720, help="phase grid subdivisions of the full circle")
    p.add_argument("--d", type=int, default=2, help="ring size fixing the momentum set")
    p.add_argument("--threshold", type=float, default=1.0 - 1e-9)
    _add_common(p, ("csv", "json"))
    p.set_defaults(handler=_cmd_ghz_scan)

    p = sub.add_parser("spectrum", help="moduli of the momentum-block eigenvalues")
    p.add_argument("--d", type=int, default=100)
    p.add_argument("--phi", type=parse_phase, default=parse_phase("2pi/3"))
    _add_common(p, ("csv", "json"))
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("survival", help="bound-sector survival after removing one particle")
    _add_lattice_flags(p)
    p.add_argument("--n", type=int, default=2, help="particles remaining after removal (2 or 3)")
    p.add_argument("--t-max", type=int, default=200)
    p.add_argument("--method", choices=("direct", "momentum"), default="direct")
    _add_common(p, ("csv", "json"))
    p.set_defaults(handler=_cmd_survival)

    p = sub.add_parser("fidelity", help="trimer persistence over phase and time")
    p.add_argument("--t", default="1,10,100,1000", help="comma-separated step counts")
    p.add_argument("--phi", type=parse_phase, default=None, help="single phase instead of a grid")
    p.add_argument("--phi-grid", type=int, default=720)
    _add_common(p, ("csv", "json"))
    p.set_defaults(handler=_cmd_fidelity)

    p = sub.add_parser("coboson", help="composite-boson normalization report")
    p.add_argument("--n", type=int, default=2, help="number of compounds")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--constituents", type=int, default=3)
    _add_common(p, ("json",))
    p.set_defaults(handler=_cmd_coboson)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        args.handler(args)
        sys.stdout.flush()
    except (ValueError, OSError) as exc:
        # OSError: an unwritable --output, or stdout closed early
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # run has reported the closed stdout; what it still buffers goes to
        # devnull, or the interpreter's flush at exit prints a second report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
