"""Command-line front end.

Subcommands: ``solve`` (one mesh, one final time, CSV snapshot), ``project``
(projection only, CSV of the projected datum), ``eoc`` (convergence ladder),
``measure-rates`` (Wasserstein-1 ladder at a probe time, alpha = 0 only).
Settings come from a JSON config file (--config, keys mirroring
ExperimentConfig, unknown keys rejected) and/or flags; flags win.  Each
subcommand takes only the flags it reads; the file, which describes one
experiment for all four, is checked whole, and the keys a subcommand does
not read are then ignored.

Exit codes: 0 success, 2 configuration problem (an output directory that
cannot be written included), 3 numeric/tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, NumericError
from .harness import (
    _EXAMPLES,
    ExperimentConfig,
    _read_config,
    config_from_dict,
    datum_for,
    run_eoc,
    run_measure_rates,
    run_solve,
    write_solution_csv,
)
from .projection import ProjectionConfig, project

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsalpha",
        description=(
            "Piecewise-linear solver for alpha-dissipative Hunter-Saxton "
            "solutions: projection, evolution, convergence studies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    parsers = {
        name: sub.add_parser(name, help=text)
        for name, text in (
            ("solve", "run one mesh to one time, write x,u,F CSV"),
            ("project", "project the datum only, write x,u,F CSV"),
            ("eoc", "convergence ladder for the wave profile"),
            ("measure-rates", "Wasserstein-1 ladder at probe time T (alpha = 0)"),
        )
    }
    # each subcommand takes only the flags it reads
    for p in parsers.values():
        p.add_argument("--config", help="JSON config file (keys mirror ExperimentConfig)")
        p.add_argument("--out", help="output directory for CSV files")
        p.add_argument("--example", choices=_EXAMPLES)
        # argparse takes a value such as -1e-3 for a flag, so it needs --a=VALUE
        p.add_argument("--a", type=float, help="cusp interval left end (--a=VALUE)")
        p.add_argument("--b", type=float, help="cusp interval right end (--b=VALUE)")
        p.add_argument("--points", help='multipeakon nodes as JSON, e.g. "[[0, 0.5], [0.5, 0]]"')
    for name in ("solve", "eoc", "measure-rates"):
        parsers[name].add_argument("--alpha", type=float, help="dissipation fraction in [0, 1]")
        parsers[name].add_argument("--T", type=float, help="final (or probe) time")
    for name in ("solve", "project"):
        parsers[name].add_argument("--dx", type=float, required=True, help="mesh size (0, 1]")
    for name in ("eoc", "measure-rates"):
        parsers[name].add_argument("--k-min", type=int, dest="k_min", help="first ladder rung")
        parsers[name].add_argument("--k-max", type=int, dest="k_max", help="last ladder rung")
    parsers["eoc"].add_argument("--time-samples", type=int, dest="time_samples")
    return parser


def _build_config(args, **unread) -> ExperimentConfig:
    """The config of the file and the flags, flags winning; unread gives the
    command's stand-ins for the required keys it does not read."""
    d = {**unread, **(_read_config(args.config) if args.config else {})}
    for key in ("example", "alpha", "T", "a", "b", "time_samples"):
        if getattr(args, key, None) is not None:
            d[key] = getattr(args, key)
    if args.out is not None:
        d["out_dir"] = args.out
    if args.points is not None:
        try:
            d["points"] = json.loads(args.points)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--points is not valid JSON: {exc}") from exc
    k_min = getattr(args, "k_min", None)
    k_max = getattr(args, "k_max", None)
    if k_min is not None or k_max is not None:
        lo = k_min if k_min is not None else 1
        hi = k_max if k_max is not None else lo
        if hi < lo:
            raise ConfigError("--k-max must be at least --k-min")
        d["k_range"] = list(range(lo, hi + 1))
    if "example" not in d:
        raise ConfigError("an example must be chosen (--example or config file)")
    if "alpha" not in d:
        raise ConfigError("alpha must be given (--alpha or config file)")
    if "T" not in d:
        raise ConfigError("a final time is required (--T or config file)")
    return config_from_dict(d)


def _report_lines(report):
    yield f"# {report.kind}  example={report.example}  alpha={report.alpha:g}  T={report.T:g}"
    yield f"{'k':>3} {'dx':>12} {'err':>14} {'eoc':>8}"
    for k, dx, err, eoc in report.rows:
        eoc_s = f"{eoc:8.3f}" if eoc is not None else f"{'-':>8}"
        yield f"{k:>3d} {dx:12.6g} {err:14.6e} {eoc_s}"


def _write_snapshot(cfg, sol, name) -> None:
    """Write sol as CSV file name under cfg.out_dir, if one is set."""
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, name)
        write_solution_csv(sol, path)
        print(f"wrote {path}")


def _cmd_solve(args) -> int:
    cfg = _build_config(args)
    final = run_solve(cfg, args.dx)
    mass = final.mu.total_mass()
    print(
        f"solved example={cfg.example} alpha={cfg.alpha:g} dx={args.dx:g} "
        f"t={final.time:g}: {final.u.nodes.size} nodes, energy {mass:.12g}"
    )
    name = f"solution_{cfg.example}_alpha{cfg.alpha:g}_dx{args.dx:g}_t{final.time:g}.csv"
    _write_snapshot(cfg, final, name)
    return 0


def _cmd_project(args) -> int:
    # the t=0 projection reads neither alpha nor T
    cfg = _build_config(args, alpha=0.0, T=1.0)
    sol = project(datum_for(cfg), ProjectionConfig(dx=args.dx))
    mass = sol.mu.total_mass()
    print(
        f"projected example={cfg.example} dx={args.dx:g}: "
        f"{sol.u.nodes.size} nodes, energy {mass:.12g}"
    )
    _write_snapshot(cfg, sol, f"projected_{cfg.example}_dx{args.dx:g}.csv")
    return 0


def _cmd_ladder(args) -> int:
    run = run_eoc if args.command == "eoc" else run_measure_rates
    for line in _report_lines(run(_build_config(args))):
        print(line)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "project": _cmd_project,
    "eoc": _cmd_ladder,
    "measure-rates": _cmd_ladder,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:  # OSError: the output directory
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
