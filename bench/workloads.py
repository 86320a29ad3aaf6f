"""The three benchmark workloads and the checks on their outputs.

A workload is a list of operations.  An operation is one CLI call, made
in-process through `investlearn.cli.main`, or one library call.  Each
operation writes into its own directory of the iteration, and the generated
configs name the files of earlier operations by relative paths, so every
iteration sees byte-identical config documents and its outputs can be
compared byte for byte with the first iteration's.

Configs are generated from the shipped `configs/` documents.  Only
`mc_linear` consumes the seed (as `sim.seed`); `verify_families` and
`ladder_oracle` are deterministic and ignore it.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

import investlearn.cli
import investlearn.config
import investlearn.discrete

# Frozen reference values, taken from the outputs at the commit that
# introduced the benchmark.  b(0) is compared with a relative tolerance of
# 1e-9, the bound the regression tests use for the same numbers.
LINEAR_B0 = 0.677203576893635            # linear_noise, 2 001 nodes
HYPERBOLIC_B0 = 0.4509285385761393       # hyperbolic_gamma, 20 001 nodes
B0_REL_TOL = 1e-9
# Ladder thresholds b_0..b_5 of hyperbolic_gamma.json (5 levels), to 1e-10.
LADDER_B = [0.4436726698801188, 0.4798446612828504, 0.5342883703657237,
            0.6156581388326481, 0.7428098004250442, 0.9615384615384615]
LADDER_TOL = 1e-10
# Oracle agreement on the 3-level ladder, as in the acceptance test.
ORACLE_LEVELS = 3
ORACLE_GAP_TOL = 2e-3
MC_N_PATHS = 8000
MC_SE_BOUND = 3.0


@dataclass
class Op:
    """One operation of a workload iteration.

    A CLI operation runs `investlearn <command> --config cfg/<config>
    --out <name> <extra>` in-process; a library operation (command None)
    runs library(it_dir, out_dir).  stage names the end-to-end stage metric
    the operation's time adds to.  check(out_dir) lists output problems.
    """

    name: str
    command: Optional[str]
    config: Optional[str]
    expect_rc: int
    check: Callable[[Path], List[str]]
    stage: Optional[str] = None
    extra: Tuple[str, ...] = ()
    library: Optional[Callable[[Path, Path], None]] = None

    @property
    def span(self) -> str:
        return f"cli.{self.command}" if self.command else f"lib.{self.name}"


@dataclass
class Workload:
    ops: List[Op]
    configs: dict  # file name -> JSON document, written into each iteration
    path_steps: int = 0  # nominal path-steps per simulate call (mc_linear)


# -- helpers ----------------------------------------------------------------


def _shipped(root: Path, name: str) -> dict:
    doc = json.loads((root / "configs" / name).read_text(encoding="utf-8"))
    doc.pop("out_dir", None)
    return doc


def _read_csv_rows(path: Path) -> List[List[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:] if line]


def _needs(*names: str) -> Callable[[Path], List[str]]:
    def check(out: Path) -> List[str]:
        return [f"missing output {n}" for n in names if not (out / n).is_file()]
    return check


def _both(*checks):
    def check(out: Path) -> List[str]:
        problems = []
        for c in checks:
            problems += c(out)
        return problems
    return check


def _b0(expected: float, nodes: int):
    def check(out: Path) -> List[str]:
        rows = _read_csv_rows(out / "boundary.csv")
        if len(rows) != nodes:
            return [f"boundary.csv has {len(rows)} rows, expected {nodes}"]
        b0 = float(rows[0][1])
        if abs(b0 - expected) > B0_REL_TOL * abs(expected):
            return [f"b(0) = {b0!r}, expected {expected!r} (rel tol {B0_REL_TOL})"]
        return []
    return check


def _verify_verdict(passed: bool):
    def check(out: Path) -> List[str]:
        report = json.loads((out / "verify_report.json").read_text())
        if report.get("passed") is not passed:
            return [f"verify_report passed={report.get('passed')}, expected {passed}"]
        return []
    return check


def _svg(name: str):
    def check(out: Path) -> List[str]:
        path = out / name
        if not path.is_file():
            return [f"missing output {name}"]
        text = path.read_text()
        if "<svg" not in text or not text.rstrip().endswith("</svg>"):
            return [f"{name} is not a complete SVG document"]
        return []
    return check


def _ladder_check(out: Path) -> List[str]:
    b = [float(row[4]) for row in _read_csv_rows(out / "ladder.csv")]
    if len(b) != len(LADDER_B):
        return [f"ladder.csv has {len(b)} levels, expected {len(LADDER_B)}"]
    worst = max(abs(x - y) for x, y in zip(b, LADDER_B))
    return [] if worst <= LADDER_TOL else [f"ladder b_n off by {worst:.3e} > {LADDER_TOL}"]


def _compare_check(out: Path) -> List[str]:
    rows = _read_csv_rows(out / "compare.csv")
    return [] if len(rows) == len(LADDER_B) else [f"compare.csv has {len(rows)} rows"]


def _mc_check(out: Path) -> List[str]:
    est = json.loads((out / "estimates.json").read_text())
    err = est["abs_error_vs_value_hat"]
    se = est["reflecting"]["std_error"]
    if not err <= MC_SE_BOUND * se:
        return [f"reflecting estimate {err / se:.2f} SE from value_hat"]
    return []


def _oracle(it_dir: Path, out: Path) -> None:
    """Library call: 3-level ladder, value-iteration oracle, agreement gap."""
    cfg = investlearn.config.load_config(it_dir / "cfg" / "hyperbolic.json")
    ladder = investlearn.discrete.ladder_from_spec(cfg.rate, cfg.model, ORACLE_LEVELS)
    oracle = investlearn.discrete.value_iteration_oracle(ladder)
    pts = np.linspace(0.05, 0.95, 20)
    gap = float(np.max(np.abs(ladder.value(0, pts) - oracle(pts))))
    (out / "oracle.json").write_text(json.dumps({"gap": gap}) + "\n")


def _oracle_check(out: Path) -> List[str]:
    gap = json.loads((out / "oracle.json").read_text())["gap"]
    return [] if gap <= ORACLE_GAP_TOL else [f"oracle gap {gap:.3e} > {ORACLE_GAP_TOL}"]


# -- workloads --------------------------------------------------------------


def verify_families(root: Path, seed: int) -> Workload:
    linear = _shipped(root, "linear_noise.json")
    hyper = _shipped(root, "hyperbolic_gamma.json")
    audit = dict(hyper, boundary_csv="../solve_hyperbolic/boundary.csv")
    plot = _shipped(root, "plot_linear.json")
    plot["plot"] = {"boundary": "../solve_linear/boundary.csv"}
    ops = [
        Op("solve_linear", "solve", "linear.json", 0,
           _b0(LINEAR_B0, 2001), "solve_s"),
        Op("verify_linear", "verify", "linear.json", 0,
           _both(_needs("surface.csv"), _verify_verdict(True)), "verify_s"),
        Op("solve_hyperbolic", "solve", "hyperbolic.json", 0,
           _b0(HYPERBOLIC_B0, 20001), "solve_s", extra=("--grid", "20001")),
        Op("audit_hyperbolic", "verify", "audit.json", 0,
           _both(_needs("surface.csv"), _verify_verdict(True)), "audit_s"),
        Op("reject_nonmonotone", "verify", "nonmonotone.json", 1,
           _verify_verdict(False), "reject_s"),
        Op("plot_boundary", "plot", "plot.json", 0,
           _svg("boundary.svg")),
    ]
    configs = {"linear.json": linear, "hyperbolic.json": hyper, "audit.json": audit,
               "nonmonotone.json": _shipped(root, "nonmonotone.json"), "plot.json": plot}
    return Workload(ops, configs)


def mc_linear(root: Path, seed: int, n_paths: int = MC_N_PATHS) -> Workload:
    sim = _shipped(root, "linear_noise.json")
    sim["sim"] = dict(sim["sim"], n_paths=n_paths, seed=seed)
    plot = _shipped(root, "plot_linear.json")
    plot["plot"] = {"trajectory": "../simulate/trajectory.csv"}
    ops = [
        Op("simulate", "simulate", "sim.json", 0,
           _both(_needs("trajectory.csv"), _mc_check), "simulate_s"),
        Op("plot_trajectory", "plot", "plot.json", 0,
           _svg("trajectory.svg")),
    ]
    n_steps = int(round(sim["sim"]["horizon"] / sim["sim"]["dt"]))
    # reflecting and stop_at_c both step every path; full_now steps none
    return Workload(ops, {"sim.json": sim, "plot.json": plot},
                    path_steps=2 * n_paths * n_steps)


def ladder_oracle(root: Path, seed: int) -> Workload:
    hyper = _shipped(root, "hyperbolic_gamma.json")
    plot = dict(hyper, plot={"ladder": "../discrete/ladder.csv"})
    ops = [
        Op("discrete", "discrete", "hyperbolic.json", 0, _ladder_check),
        Op("compare", "compare", "hyperbolic.json", 0,
           _compare_check, "compare_s"),
        Op("oracle", None, None, 0, _oracle_check, "oracle_s", library=_oracle),
        Op("plot_ladder", "plot", "plot.json", 0, _svg("ladder.svg")),
    ]
    return Workload(ops, {"hyperbolic.json": hyper, "plot.json": plot})


WORKLOADS = {
    "verify_families": verify_families,
    "mc_linear": mc_linear,
    "ladder_oracle": ladder_oracle,
}


def write_configs(workload: Workload, it_dir: Path) -> None:
    cfg_dir = it_dir / "cfg"
    cfg_dir.mkdir(parents=True)
    for name, doc in workload.configs.items():
        (cfg_dir / name).write_text(json.dumps(doc, indent=2) + "\n")


def run_op(op: Op, it_dir: Path) -> int:
    """Run one operation of the iteration in it_dir; returns its exit code."""
    out = it_dir / op.name
    if op.command is None:
        out.mkdir()
        op.library(it_dir, out)
        return 0
    return investlearn.cli.main([op.command, "--config", str(it_dir / "cfg" / op.config),
                                 "--out", str(out), "--quiet", *op.extra])


def checks_false(out: Path) -> int:
    """False flags in the manifest's checks object (the program's verdict)."""
    manifest = out / "manifest.json"
    if not manifest.is_file():
        return 0
    checks = json.loads(manifest.read_text()).get("checks", {})
    return sum(1 for v in checks.values() if v is False)


def same_outputs(a: Path, b: Path) -> List[str]:
    """Byte comparison of two output directories; manifests minus wall clock."""
    names = sorted(p.name for p in a.iterdir())
    other = sorted(p.name for p in b.iterdir())
    if names != other:
        return [f"file lists differ: {names} vs {other}"]
    problems = []
    for name in names:
        if name == "manifest.json":
            ma = json.loads((a / name).read_text())
            mb = json.loads((b / name).read_text())
            ma.pop("wall_clock_seconds", None)
            mb.pop("wall_clock_seconds", None)
            if ma != mb:
                problems.append("manifest.json differs")
        elif (a / name).read_bytes() != (b / name).read_bytes():
            problems.append(f"{name} differs")
    return problems
