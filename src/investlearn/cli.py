"""Command-line front end.

Subcommands: solve, verify, simulate, discrete, compare, plot.  Each run is
file-in/file-out: a JSON config document in, CSV/JSON/SVG artifacts plus a
run manifest out, all through the artifact format of `artifacts`.  Exit
codes are a stable contract: 0 success, 1 check failure, 2 configuration or
input error (a malformed input file included).

The manifest records the tool version, the hash of the effective config,
per-check pass/fail flags, the output file list and deterministic work
counters.  The modules that compute them supply both: `solve` takes the
curve's checks and counters (`BoundaryCurve.checks`, `counters`: RK4
stages, none for a loaded curve, and projections), `verify` the diagnostic
report's checks with the curve's counters and the points the diagnostics
sampled, `simulate` the checks of `simulate.estimates`, each stepped
strategy's counters and those of the pass they share, `discrete` the
ladder's counters, and `compare` the ladder's and the curve's.  Each
command returns (exit code, outputs, checks, counters) and writes only its
artifacts; `main` writes the one manifest, atomically (temp file + rename)
at the end of the run.  A run stopped by a numerical failure (exit 1)
still writes one, with no outputs and the single check `completed: false`.
Every artifact except the manifest's wall-clock field is byte-deterministic
given the config and seed.
"""

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

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
# simulate_reflecting, simulate_baseline and sample_trajectory are unused
# here but stay bound: bench/spans.py wraps them by name
from .simulate import (
    estimates,
    sample_trajectory,
    save_paths,
    save_trajectory,
    simulate_baseline,
    simulate_reflecting,
    simulate_strategies,
    stop_at_c_reference,
)
from .value import ValueSurface, verify_surface

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

SURFACE_CSV_GRID = 101  # values of u, and of pi, in surface.csv

# what a command returns to main: (exit code, outputs, checks, counters),
# counters None for a run that has none to record
Result = Tuple[int, List[str], dict, Optional[dict]]


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


def _report(quiet: bool, checks: dict) -> int:
    """Print each check's verdict; EXIT_OK if all of them hold."""
    for name, ok in checks.items():
        _say(quiet, f"{'PASS' if ok else 'FAIL'} {name}")
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def cmd_solve(cfg: RunConfig, out: Path, quiet: bool) -> Result:
    curve = solve_boundary(cfg.rate, cfg.model, grid_size=cfg.grid_size)
    save_curve(curve, out / "boundary.csv")
    write_json(out / "conditions.json", curve.report())
    _say(quiet, f"wrote {out / 'boundary.csv'}")
    _say(quiet, f"monotone={curve.monotone} route={curve.conditions.route}")
    return (EXIT_OK, ["boundary.csv", "boundary.json", "conditions.json"],
            curve.checks(), curve.counters())


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


def cmd_verify(cfg: RunConfig, out: Path, quiet: bool) -> Result:
    curve = _load_or_solve(cfg, quiet)
    counters = dict(curve.counters(), sweep_samples=0, boundary_points=0)
    if not curve.monotone:
        reason = curve.not_increasing_reason()
        write_json(out / "verify_report.json",
                   {"passed": False, "reason": reason, "monotone": False})
        _say(quiet, f"FAIL {reason}")
        return (EXIT_CHECK_FAILED, ["verify_report.json"],
                {"monotone": False, "diagnostics": False}, counters)
    surface = ValueSurface(curve)
    report = verify_surface(surface)
    doc = report.to_dict()
    doc["route"] = curve.conditions.route
    write_json(out / "verify_report.json", doc)
    _surface_csv(surface, out / "surface.csv")
    counters.update(sweep_samples=report.n_samples, boundary_points=report.n_boundary_points)
    checks = report.checks()
    return _report(quiet, checks), ["verify_report.json", "surface.csv"], checks, counters


def _in_se(ratio: Optional[float]) -> str:
    return "n/a se" if ratio is None else f"{ratio:.2f} se"


def cmd_simulate(cfg: RunConfig, out: Path, quiet: bool) -> Result:
    curve = _load_or_solve(cfg, quiet)
    if not curve.monotone:
        _say(quiet, f"FAIL {curve.not_increasing_reason()}, no reflection strategy")
        return EXIT_CHECK_FAILED, [], {"monotone": False}, None
    surface = ValueSurface(curve)
    vhat = float(surface.value(cfg.sim.start_u, cfg.sim.start_pi))
    results = simulate_strategies(curve, cfg.sim, ["reflecting", "stop_at_c", "full_now"],
                                  cfg.trajectory_path)
    res = results["reflecting"]
    doc, checks = estimates(results, stop_at_c_reference(curve, cfg.sim), vhat)
    write_json(out / "estimates.json", doc)
    outputs = ["estimates.json", "trajectory.csv"]
    save_trajectory(res.trajectory, out / "trajectory.csv")
    if cfg.write_paths:
        save_paths(res, out / "paths.csv")
        outputs.append("paths.csv")
    paired = doc["paired_estimate"]
    _say(quiet, f"reflecting estimate {res.estimate:.6f} +/- {res.std_error:.6f}"
                f" vs value {vhat:.6f} ({_in_se(doc['error_over_se'])})")
    _say(quiet, f"paired estimate {paired['estimate']:.6f} +/- {paired['se']:.6f}"
                f" ({_in_se(paired['error_over_se'])})")
    _report(quiet, checks)  # a failed Monte Carlo check is recorded, not an exit 1
    return (EXIT_OK, outputs, checks,
            {"reflecting": res.counters, "stop_at_c": results["stop_at_c"].counters,
             "pass": res.pass_counters})


def _config_ladder(cfg: RunConfig):
    if cfg.ladder_gamma is not None:
        return solve_ladder(np.asarray(cfg.ladder_gamma, dtype=float), cfg.model)
    if cfg.ladder_levels is not None:
        return ladder_from_spec(cfg.rate, cfg.model, cfg.ladder_levels)
    raise ConfigError("config needs a 'ladder' object with 'n_levels' or 'gamma'")


def cmd_discrete(cfg: RunConfig, out: Path, quiet: bool) -> Result:
    ladder = _config_ladder(cfg)
    save_ladder(ladder, out / "ladder.csv")
    suite = discrete_verification_suite(ladder)
    write_json(out / "discrete_report.json", suite.to_dict())
    _say(quiet, f"wrote {out / 'ladder.csv'} ({ladder.n_levels + 1} levels)")
    checks = suite.checks()
    return (_report(quiet, checks), ["ladder.csv", "discrete_report.json"], checks,
            {"ladder": ladder.counters()})


def cmd_compare(cfg: RunConfig, out: Path, quiet: bool) -> Result:
    """Exploratory: ladder boundary points against the continuous boundary,
    the config's boundary_csv if it names one.

    No convergence claim is checked; the file is for eyeballing only.
    """
    ladder = _config_ladder(cfg)
    curve = _load_or_solve(cfg, quiet)
    b_cont = curve.b_at(ladder.u_levels)
    write_csv(out / "compare.csv", ["n", "u_n", "b_ladder", "b_continuous", "difference"],
              np.arange(ladder.n_levels + 1), ladder.u_levels, ladder.b, b_cont,
              ladder.b - b_cont)
    _say(quiet, f"wrote {out / 'compare.csv'}")
    return (EXIT_OK, ["compare.csv"], {"completed": True},
            {"ladder": ladder.counters(), "curve": curve.counters()})


def cmd_plot(cfg: RunConfig, out: Path, quiet: bool) -> Result:
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
    for name in outputs:
        _say(quiet, f"wrote {out / name}")
    return EXIT_OK, outputs, {"completed": True}, None


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
        code, outputs, checks, counters = COMMANDS[args.command](cfg, out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (IntegrationError, ArithmeticError, ValueError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        code, outputs, checks, counters = EXIT_CHECK_FAILED, [], {"completed": False}, None
    _write_manifest(out, args.command, cfg, outputs, checks, started, counters)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
