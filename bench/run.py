"""Benchmark of the investlearn pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload verify_families --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py and BENCHMARK.json): verify_families,
mc_linear, ladder_oracle.  The benchmark is one client in a closed loop:
iterations run back to back in this single process, one thread, with
OMP_NUM_THREADS=1 and OPENBLAS_NUM_THREADS=1.  It imports the package from
the checkout's `src/` and refuses to run without it.  Inputs and outputs
live in a temporary directory under `.bench_work/` in the checkout, which
is removed at the end; a traced run leaves its spans in
`.bench_work/trace-<workload>-seed<seed>.json`.

Iterations run until the next one would end after --seconds, and at least
two run, so every output can be compared byte for byte with the first
iteration's.  With --trace 0 the end-to-end metrics are reported (medians
over iterations, in reference seconds: scaled by the host speed that
calibration units between the operations measure, see NOTES.md); with
--trace 1 untraced and traced iterations alternate,
the per-layer metrics are medians over the traced ones, and the tracing
overhead is the difference of the two medians of wall time.

The human-readable report goes to standard output; its last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import mean, median

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("verify_families", "mc_linear", "ladder_oracle")
MIN_ITERATIONS = 2
# Cold set-up samples taken before the first iteration and after each one,
# so that the median spans the whole run, not one moment of it.
SETUP_SAMPLES_PER_ROUND = 3
SETUP_CODE = "import sys\nfrom investlearn.cli import load_config\nload_config(sys.argv[1])\n"

# The host's speed drifts by 30 % and more over minutes (other tenants), which
# no statistic taken inside one run removes.  So untimed calibration units of
# fixed work, the benchmark's own code and no part of investlearn, run after
# every operation, for about CALIBRATION_SHARE of its time but at most
# CALIBRATION_MAX_UNITS units, so that the 20 s simulate of mc_linear still
# fits two iterations in a run; times are reported at the speed at which one
# unit takes REF_UNIT_S.  See NOTES.md.
CALIBRATION_SHARE = 0.2
CALIBRATION_MAX_UNITS = 50
REF_UNIT_S = 0.030

# Shares of a workload's wall time that its dominant spans were predicted to
# take (inclusive time), checked by the traced run.
PREDICTED_SHARES = {
    "verify_families": [("RK4 solve_boundary", ["boundary.solve_boundary"], 0.85, 0.90)],
    "mc_linear": [("reflecting + stop_at_c",
                   ["simulate.reflecting", "simulate.stop_at_c"], 0.75, 0.81)],
    "ladder_oracle": [("value-iteration oracle", ["discrete.oracle"], 0.93, 0.97)],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_from_checkout(root: Path) -> None:
    """Put the checkout's src/ first on sys.path; fail if it has none.

    Thread-pinning variables must be set before numpy is imported.
    """
    src = root / "src"
    if not (src / "investlearn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no investlearn sources under {src}; "
                         "run from the root of a checkout")
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(src))
    import investlearn
    if Path(investlearn.__file__).resolve().parent != (src / "investlearn").resolve():
        raise SystemExit(f"bench: imported investlearn from {investlearn.__file__}, "
                         f"not from {src}")


def machine_info(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "seed": seed,
    }


def measure_setup(root: Path, config: Path, repeats: int) -> list:
    """Seconds of a cold process that imports the CLI and loads a config.

    No timeout: with one, subprocess polls the child in sleeps of up to
    50 ms, which would quantize the measurement.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_ENV)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], cwd=root,
                       env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def calibration_unit(a) -> float:
    """Seconds of one unit of fixed interpreter and small-array numpy work."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(250_000):
        s += i * 0.5
    for _ in range(2_500):
        a = a * 0.999 + 0.001
    return time.perf_counter() - t0


def run_iteration(wl, it_dir: Path, tracer, iteration: int, calibrate: bool = False) -> dict:
    """Run every operation of one iteration; time it; return raw results.

    With calibrate, calibration units follow each operation, outside its time.
    """
    import numpy as np
    from workloads import run_op, write_configs
    write_configs(wl, it_dir)
    rcs, errors, op_seconds, units = {}, {}, {}, []
    cal_array = np.linspace(0.0, 1.0, 4_000)
    if tracer is not None:
        tracer.install(iteration)
    try:
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    rcs[op.name] = tracer.call(op.span, run_op, op, it_dir)
                else:
                    rcs[op.name] = run_op(op, it_dir)
            except Exception:  # an operation that raises counts as failed
                rcs[op.name] = None
                errors[op.name] = traceback.format_exc()
            op_seconds[op.name] = time.perf_counter() - t0
            if calibrate:
                n = round(CALIBRATION_SHARE * op_seconds[op.name] / REF_UNIT_S)
                n = min(max(n, 1), CALIBRATION_MAX_UNITS)
                units += [calibration_unit(cal_array) for _ in range(n)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall": sum(op_seconds.values()), "rcs": rcs, "errors": errors,
            "op_seconds": op_seconds, "units": units, "traced": tracer is not None}


def check_iteration(wl, it_dir: Path, first_dir: Path, result: dict) -> dict:
    """Per-operation output problems, and the manifests' false check flags."""
    from workloads import checks_false, same_outputs
    problems = {}
    n_false = 0
    for op in wl.ops:
        out = it_dir / op.name
        found = []
        rc = result["rcs"][op.name]
        if op.name in result["errors"]:
            found.append("raised:\n" + result["errors"][op.name])
        elif rc != op.expect_rc:
            found.append(f"exit code {rc}, expected {op.expect_rc}")
        else:
            try:
                found += op.check(out)
                if it_dir != first_dir:
                    found += [f"not reproducible: {p}"
                              for p in same_outputs(first_dir / op.name, out)]
                n_false += checks_false(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found.append(f"unreadable output: {exc!r}")
        if found:
            problems[op.name] = found
    return {"problems": problems, "checks_false": n_false}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 factory=None, min_iterations: int = MIN_ITERATIONS) -> dict:
    """Run one benchmark run; returns metrics, summary rows and a report."""
    from spans import LAYER_METRICS, Tracer
    from workloads import WORKLOADS, write_configs
    wl = (factory or WORKLOADS[name])(root, seed)
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    tracer = Tracer() if trace else None
    iterations = []
    try:
        t_begin = time.perf_counter()
        setup = []
        if not trace:
            write_configs(wl, work / "setup")
            setup_config = work / "setup" / "cfg" / next(iter(wl.configs))
            setup += measure_setup(root, setup_config, SETUP_SAMPLES_PER_ROUND)
        first_dir = work / "it0"
        while True:
            t_round = time.perf_counter()
            i = len(iterations)
            it_dir = work / f"it{i}"
            traced = trace and i % 2 == 1
            res = run_iteration(wl, it_dir, tracer if traced else None, i, calibrate=not trace)
            res.update(check_iteration(wl, it_dir, first_dir, res))
            iterations.append(res)
            if it_dir != first_dir:
                shutil.rmtree(it_dir)
            if not trace:
                setup += measure_setup(root, setup_config, SETUP_SAMPLES_PER_ROUND)
            now = time.perf_counter()
            elapsed, last_round = now - t_begin, now - t_round
            # a round is the iteration, its checks and the set-up samples after it
            if len(iterations) >= min_iterations and elapsed + last_round > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(wl.ops) * len(iterations)
    failed = sum(len(it["problems"]) for it in iterations)
    plain = [it for it in iterations if not it["traced"]]
    out = {"attempted": attempted, "failed": failed, "iterations": iterations,
           "problems": [(i, op, p) for i, it in enumerate(iterations)
                        for op, p in it["problems"].items()]}

    if not trace:
        # each iteration at the host speed its own calibration units measured;
        # set-up samples, taken between iterations, at the run's mean speed
        units = [u for it in plain for u in it["units"]]
        rows = [("wall_s", median([it["wall"] * REF_UNIT_S / mean(it["units"]) for it in plain]),
                 "s", len(plain)),
                ("setup_s", median(setup) * REF_UNIT_S / mean(units), "s", len(setup)),
                ("peak_rss_mb", peak_rss_mb, "MB", 1)]
        out["metrics"] = {n: {"value": v, "unit": u} for n, v, u, _ in rows}
        rows += [("wall_measured_s", median([it["wall"] for it in plain]), "s", len(plain)),
                 ("setup_measured_s", median(setup), "s", len(setup)),
                 ("calibration_unit_s", mean(units), "s", len(units))]
        stages = sorted({op.stage for op in wl.ops if op.stage})
        for stage in stages:
            per_it = [sum(it["op_seconds"][op.name] for op in wl.ops if op.stage == stage)
                      for it in plain]
            rows.append((stage, median(per_it), "s", len(per_it)))
        if wl.path_steps:
            rates = [wl.path_steps / it["op_seconds"]["simulate"] for it in plain]
            rows.append(("path_steps_per_s", median(rates), "1/s", len(rates)))
        rows += [("ops_attempted", attempted, "count", 1),
                 ("ops_failed", failed, "count", 1),
                 ("checks_false", median([it["checks_false"] for it in iterations]),
                  "count/iter", len(iterations))]
        out["rows"] = rows
        return out

    traced_ids = [i for i, it in enumerate(iterations) if it["traced"]]
    times = tracer.self_times()
    per_metric = {name: [] for name, _ in LAYER_METRICS}
    for i in traced_ids:
        vals = tracer.layer_metrics(times.get(i, {}), i, iterations[i]["checks_false"])
        for metric_name, v in vals.items():
            per_metric[metric_name].append(v)
    out["metrics"] = {n: {"value": median(per_metric[n]), "unit": u} for n, u in LAYER_METRICS}
    traced_wall = median([iterations[i]["wall"] for i in traced_ids])
    plain_wall = median([it["wall"] for it in plain])
    out["report"] = trace_report(name, tracer, times, traced_ids, iterations,
                                 traced_wall, plain_wall)
    trace_file = work_root / f"trace-{name}-seed{seed}.json"
    tracer.write(trace_file, {"workload": name, "machine": machine_info(seed),
                              "walls": [it["wall"] for it in iterations],
                              "traced": traced_ids})
    out["report"].append(f"# spans written to {trace_file.relative_to(root)}")
    return out


def trace_report(name, tracer, times, traced_ids, iterations, traced_wall, plain_wall):
    """Per-span self time, inclusive time and calls (median over traced iterations)."""
    names = sorted({n for i in traced_ids for n in times.get(i, {})})
    lines = [f"# traced iterations {len(traced_ids)}, untraced {len(iterations) - len(traced_ids)}",
             f"# wall_s traced {traced_wall:.4f}  untraced {plain_wall:.4f}  "
             f"tracing overhead {traced_wall - plain_wall:+.4f} s "
             f"({(traced_wall - plain_wall) / plain_wall:+.1%})",
             f"# {'span':34s} {'self_s':>10s} {'incl_s':>10s} {'calls':>8s} {'self/wall':>9s}"]
    incl = {}
    for n in sorted(names, key=lambda n: -median([times[i].get(n, [0.0])[0] for i in traced_ids])):
        s = median([times[i].get(n, [0.0, 0.0, 0])[0] for i in traced_ids])
        inc = median([times[i].get(n, [0.0, 0.0, 0])[1] for i in traced_ids])
        calls = median([times[i].get(n, [0.0, 0.0, 0])[2] for i in traced_ids])
        incl[n] = inc
        lines.append(f"  {n:34s} {s:10.4f} {inc:10.4f} {calls:8.0f} {s / traced_wall:9.1%}")
    top = median([sum(t1 - t0 for sn, parent, it, t0, t1 in tracer.spans
                      if parent < 0 and it == i) for i in traced_ids])
    lines.append(f"# self times sum to {top:.4f} s = {top / traced_wall:.2%} of traced wall_s "
                 "(the rest is the benchmark's loop between operations)")
    counts = sorted({c for (i, c) in tracer.counts if i in traced_ids})
    for c in counts:
        lines.append(f"  count {c:34s} {median([tracer.counts.get((i, c), 0) for i in traced_ids]):14.0f}")
    for label, spans, lo, hi in PREDICTED_SHARES[name]:
        share = sum(incl.get(s, 0.0) for s in spans) / traced_wall
        verdict = "within" if lo <= share <= hi else "OUTSIDE"
        lines.append(f"# share {label}: measured {share:.1%}, predicted {lo:.0%}-{hi:.0%} "
                     f"({verdict})")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_from_checkout(root)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)

    print(f"# investlearn benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"iterations={len(result['iterations'])}")
    print("# machine " + json.dumps(machine_info(args.seed), sort_keys=True))
    print("# iteration wall_s " + " ".join(f"{it['wall']:.4f}" for it in result["iterations"]))
    for op in result["iterations"][0]["op_seconds"]:
        print(f"# op {op} s " + " ".join(f"{it['op_seconds'][op]:.4f}"
                                         for it in result["iterations"]))
    for i, op, problems in result["problems"]:
        for p in problems:
            print(f"# FAILED iteration {i} {op}: {p}", file=sys.stderr)
    if args.trace:
        for line in result["report"]:
            print(line)
    else:
        print(f"# {'metric':18s} {'value':>14s} {'unit':10s} {'n':>3s}")
        for metric, value, unit, n in result["rows"]:
            print(f"  {metric:18s} {value:14.6g} {unit:10s} {n:3d}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
