"""Command-line front end.

Subcommands: solve, verify, simulate, discrete, compare, plot.  Each run is
file-in/file-out: a JSON config document in, CSV/JSON/SVG artifacts plus a
run manifest out, all through the artifact format of `artifacts`.  Exit
codes are a stable contract: 0 success, 1 check failure, 2 configuration or
input error (a malformed input file included).

The manifest records the tool version, the hash of the effective config,
per-check pass/fail flags, and the output file list, and deterministic work
counters: `solve` and `verify` those of the boundary (RK4 stages, none for
a loaded curve, and projections), `verify` also the points its diagnostics
sampled, `simulate` those of each stepped strategy, and `discrete` and
`compare` those of the ladder solve.  It is written
atomically (temp file + rename) at the end of the run; a run stopped by a
numerical failure (exit 1) still writes one, with no outputs and the single
check `completed: false`.  Every artifact
except the manifest's wall-clock field is byte-deterministic given the
config and seed.
"""

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .artifacts import read_csv, write_csv, write_grid_csv, write_json
from .boundary import IntegrationError, load_curve, save_curve, solve_boundary
from .config import RunConfig, load_config
from .discrete import (
    discrete_verification_suite,
    ladder_from_spec,
    save_ladder,
    solve_ladder,
)
from .model import ConfigError, stopping_threshold_c, zero_level_B
from .plots import plot_boundary, plot_ladder, plot_trajectory
# simulate_reflecting is unused here but stays bound: bench/spans.py wraps it by name
from .simulate import (
    SE_MULTIPLE,
    sample_trajectory,
    save_paths,
    save_trajectory,
    simulate_baseline,
    simulate_paired,
    simulate_reflecting,
    stop_at_c_reference,
)
from .value import ValueSurface, verify_surface

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

SURFACE_CSV_GRID = 101  # values of u, and of pi, in surface.csv


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig,
                    outputs: List[str], checks: dict, started: float,
                    counters: Optional[dict] = None) -> None:
    manifest = {
        "tool": "investlearn",
        "version": __version__,
        "command": command,
        "config_hash": cfg.config_hash,
        "seed": cfg.sim.seed,
        "outputs": sorted(outputs),
        "checks": checks,
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
    }
    if counters is not None:
        manifest["counters"] = counters
    tmp = out_dir / "manifest.json.tmp"
    write_json(tmp, manifest)
    os.replace(tmp, out_dir / "manifest.json")


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _curve_counters(curve, solved: bool) -> dict:
    """The boundary's work counters: RK4 stages run and projections made."""
    return {"rk4_stages": 4 * (curve.grid_size - 1) if solved else 0,
            "projections": curve.n_projections}


def cmd_solve(cfg: RunConfig, out: Path, quiet: bool) -> int:
    started = time.perf_counter()
    curve = solve_boundary(cfg.rate, cfg.model, grid_size=cfg.grid_size)
    save_curve(curve, out / "boundary.csv")
    report = {
        "conditions": curve.conditions.to_dict(),
        "observed": curve.observed_summary(),
        "monotone": curve.monotone,
        "n_projections": curve.n_projections,
    }
    write_json(out / "conditions.json", report)
    checks = {
        "monotone": curve.monotone,
        "inside_strip": bool(np.all(curve.b_values[:-1] > 0.0)
                             and np.all(curve.b_values[:-1] < curve.c_values[:-1])),
        "no_projections": curve.n_projections == 0,
    }
    _write_manifest(out, "solve", cfg,
                    ["boundary.csv", "boundary.json", "conditions.json"],
                    checks, started, _curve_counters(curve, True))
    _say(quiet, f"wrote {out / 'boundary.csv'}")
    _say(quiet, f"monotone={curve.monotone} route={curve.conditions.route}")
    return EXIT_OK


def _surface_csv(surface: ValueSurface, path: Path) -> None:
    """Value samples as (u, pi, value) triples on an interior grid."""
    us = np.linspace(0.0, 1.0 - 1e-6, SURFACE_CSV_GRID)
    pis = np.linspace(1e-3, 1.0 - 1e-3, SURFACE_CSV_GRID)
    u, pi = np.repeat(us, SURFACE_CSV_GRID), np.tile(pis, SURFACE_CSV_GRID)
    write_grid_csv(path, ["u", "pi", "value"], us, pis, surface.value(u, pi))


def _load_or_solve(cfg: RunConfig, quiet: bool):
    """The config's saved boundary CSV if it names one, else a fresh solve."""
    if cfg.boundary_csv is not None:
        _say(quiet, f"loaded boundary from {cfg.boundary_csv}")
        return load_curve(cfg.boundary_csv)
    return solve_boundary(cfg.rate, cfg.model, grid_size=cfg.grid_size)


def cmd_verify(cfg: RunConfig, out: Path, quiet: bool) -> int:
    started = time.perf_counter()
    curve = _load_or_solve(cfg, quiet)
    counters = dict(_curve_counters(curve, cfg.boundary_csv is None),
                    sweep_samples=0, boundary_points=0)
    if not curve.monotone:
        write_json(out / "verify_report.json",
                   {"passed": False, "reason": "boundary is not strictly increasing",
                    "monotone": False})
        _write_manifest(out, "verify", cfg, ["verify_report.json"],
                        {"monotone": False, "diagnostics": False}, started, counters)
        _say(quiet, "FAIL boundary not strictly increasing")
        return EXIT_CHECK_FAILED
    surface = ValueSurface(curve)
    report = verify_surface(surface)
    doc = report.to_dict()
    doc["route"] = curve.conditions.route
    write_json(out / "verify_report.json", doc)
    _surface_csv(surface, out / "surface.csv")
    checks = report.checks()
    counters.update(sweep_samples=report.n_samples, boundary_points=report.n_boundary_points)
    _write_manifest(out, "verify", cfg, ["verify_report.json", "surface.csv"],
                    checks, started, counters)
    for name, ok in checks.items():
        _say(quiet, f"{'PASS' if ok else 'FAIL'} {name}")
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def cmd_simulate(cfg: RunConfig, out: Path, quiet: bool) -> int:
    started = time.perf_counter()
    curve = _load_or_solve(cfg, quiet)
    if not curve.monotone:
        _say(quiet, "FAIL boundary not strictly increasing, no reflection strategy")
        _write_manifest(out, "simulate", cfg, [], {"monotone": False}, started)
        return EXIT_CHECK_FAILED
    surface = ValueSurface(curve)
    vhat = float(surface.value(cfg.sim.start_u, cfg.sim.start_pi))

    res, stop = simulate_paired(curve, cfg.sim)
    full = simulate_baseline(curve, cfg.sim, "full_now")
    ref = stop_at_c_reference(curve, cfg.sim)

    def _paired(a, b):
        d = a.payoffs - b.payoffs
        se = float(np.std(d, ddof=1) / np.sqrt(d.size)) if d.size > 1 else 0.0
        return float(np.mean(d)), se

    d_stop, se_stop = _paired(res, stop)
    d_full, se_full = _paired(res, full)
    err = abs(res.estimate - vhat)
    # stop_at_c as a control variate with a known mean (Glasserman 2003, 4.1)
    paired = ref + d_stop
    paired_err = abs(paired - vhat)
    doc = {
        "reflecting": res.summary(),
        "stop_at_c": stop.summary(),
        "full_now": full.summary(),
        "value_hat": vhat,
        "stop_at_c_reference": ref,
        "abs_error_vs_value_hat": err,
        "error_over_se": err / res.std_error if res.std_error > 0 else 0.0,
        "diff_vs_stop_at_c": {"mean": d_stop, "se": se_stop},
        "diff_vs_full_now": {"mean": d_full, "se": se_full},
        "paired_estimate": {
            "estimate": paired,
            "se": se_stop,
            "abs_error_vs_value_hat": paired_err,
            "error_over_se": paired_err / se_stop if se_stop > 0 else 0.0,
        },
    }
    write_json(out / "estimates.json", doc)
    outputs = ["estimates.json", "trajectory.csv"]
    traj = sample_trajectory(curve, cfg.sim, cfg.trajectory_path)
    save_trajectory(traj, out / "trajectory.csv")
    if cfg.write_paths:
        save_paths(res, out / "paths.csv")
        outputs.append("paths.csv")
    checks = {
        "mc_within_3se": err <= SE_MULTIPLE * res.std_error,
        "mc_paired_within_3se": paired_err <= SE_MULTIPLE * se_stop,
        "not_below_stop_at_c": d_stop >= -SE_MULTIPLE * se_stop,
        "not_below_full_now": d_full >= -SE_MULTIPLE * se_full,
        "stop_matches_reference": abs(stop.estimate - ref) <= SE_MULTIPLE * stop.std_error,
    }
    counters = {"reflecting": res.counters, "stop_at_c": stop.counters}
    _write_manifest(out, "simulate", cfg, outputs, checks, started, counters)
    _say(quiet, f"reflecting estimate {res.estimate:.6f} +/- {res.std_error:.6f}"
                f" vs value {vhat:.6f} ({doc['error_over_se']:.2f} se)")
    _say(quiet, f"paired estimate {paired:.6f} +/- {se_stop:.6f}"
                f" ({doc['paired_estimate']['error_over_se']:.2f} se)")
    for name, ok in checks.items():
        _say(quiet, f"{'PASS' if ok else 'FAIL'} {name}")
    return EXIT_OK


def _config_ladder(cfg: RunConfig):
    if cfg.ladder_gamma is not None:
        return solve_ladder(np.asarray(cfg.ladder_gamma, dtype=float), cfg.model)
    if cfg.ladder_levels is not None:
        return ladder_from_spec(cfg.rate, cfg.model, cfg.ladder_levels)
    raise ConfigError("config needs a 'ladder' object with 'n_levels' or 'gamma'")


def cmd_discrete(cfg: RunConfig, out: Path, quiet: bool) -> int:
    started = time.perf_counter()
    ladder = _config_ladder(cfg)
    save_ladder(ladder, out / "ladder.csv")
    suite = discrete_verification_suite(ladder)
    write_json(out / "discrete_report.json", suite.to_dict())
    checks = suite.checks()
    _write_manifest(out, "discrete", cfg, ["ladder.csv", "discrete_report.json"],
                    checks, started, {"ladder": ladder.counters()})
    _say(quiet, f"wrote {out / 'ladder.csv'} ({ladder.n_levels + 1} levels)")
    for name, ok in checks.items():
        _say(quiet, f"{'PASS' if ok else 'FAIL'} {name}")
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def cmd_compare(cfg: RunConfig, out: Path, quiet: bool) -> int:
    """Exploratory: ladder boundary points against the continuous boundary.

    No convergence claim is checked; the file is for eyeballing only.
    """
    started = time.perf_counter()
    ladder = _config_ladder(cfg)
    curve = solve_boundary(cfg.rate, cfg.model, grid_size=cfg.grid_size)
    b_cont = curve.b_at(ladder.u_levels)
    write_csv(out / "compare.csv", ["n", "u_n", "b_ladder", "b_continuous", "difference"],
              np.arange(ladder.n_levels + 1), ladder.u_levels, ladder.b, b_cont,
              ladder.b - b_cont)
    _write_manifest(out, "compare", cfg, ["compare.csv"],
                    {"completed": True}, started, {"ladder": ladder.counters()})
    _say(quiet, f"wrote {out / 'compare.csv'}")
    return EXIT_OK


def cmd_plot(cfg: RunConfig, out: Path, quiet: bool) -> int:
    started = time.perf_counter()
    if not cfg.plot_inputs:
        raise ConfigError("config needs a 'plot' object naming input CSVs")
    outputs = []
    if "boundary" in cfg.plot_inputs:
        data = read_csv(cfg.plot_inputs["boundary"], ["u", "b"])
        u, b = data[:, 0], data[:, 1]
        c = stopping_threshold_c(cfg.rate, cfg.model, u)
        zl = zero_level_B(cfg.rate, cfg.model, u)
        plot_boundary(u, b, c, zl, cfg.model.k, out / "boundary.svg")
        outputs.append("boundary.svg")
    if "trajectory" in cfg.plot_inputs:
        data = read_csv(cfg.plot_inputs["trajectory"], ["t", "U", "Pi"])
        plot_trajectory(data[:, 0], data[:, 1], data[:, 2], out / "trajectory.svg")
        outputs.append("trajectory.svg")
    if "ladder" in cfg.plot_inputs:
        data = read_csv(cfg.plot_inputs["ladder"],
                        ["n", "u_n", "gamma_n", "c_n", "b_n", "A_n"])
        plot_ladder(data[:, 1], data[:, 4], data[:, 3], out / "ladder.svg")
        outputs.append("ladder.svg")
    _write_manifest(out, "plot", cfg, outputs, {"completed": True}, started)
    for name in outputs:
        _say(quiet, f"wrote {out / name}")
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "discrete": cmd_discrete,
    "compare": cmd_compare,
    "plot": cmd_plot,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="investlearn",
        description="Solve and validate the irreversible-investment "
                    "learning model: free boundary, value surface, "
                    "Monte Carlo payoff checks, discrete ladder.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "solve": "integrate the free boundary and write (u, b) CSV",
        "verify": "run value-surface diagnostics against tolerances",
        "simulate": "Monte Carlo payoff of the reflection strategy",
        "discrete": "solve the finite expansion ladder",
        "compare": "ladder vs continuous boundary (exploratory)",
        "plot": "render CSV artifacts as standalone SVG",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON run document")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: out_dir from config)")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override sim.seed from the config")
        p.add_argument("--grid", type=int, metavar="N",
                       help="override grid_size")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, grid=args.grid)
        out = Path(args.out) if args.out else cfg.out_dir
        if out is None:
            raise ConfigError("no output directory: set out_dir in the "
                              "config or pass --out")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (IntegrationError, ArithmeticError, ValueError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        _write_manifest(out, args.command, cfg, [], {"completed": False}, started)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
