"""Command layer: exit codes, artifacts, manifests, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import investlearn
import investlearn.simulate as sim_mod
from investlearn.cli import COMMANDS, main
from investlearn.config import load_config
from investlearn.discrete import discrete_verification_suite, ladder_from_spec, save_ladder
from investlearn.model import ConfigError, HyperbolicGamma, ModelParams
from investlearn.artifacts import read_csv
from investlearn.boundary import load_curve, solve_boundary
from investlearn.simulate import SimConfig, sample_trajectory, save_trajectory
from investlearn.value import ValueSurface, verify_surface

BASE = {
    "schema_version": 1,
    "model": {"r": 0.1, "k": 0.5},
    "rate": {"family": "linear_noise", "C": 0.25, "D": 0.9},
}

MANIFEST_KEYS = {
    "tool", "version", "command", "config_hash", "seed",
    "outputs", "checks", "wall_clock_seconds",
}


def write_cfg(directory, doc, name="cfg.json"):
    p = directory / name
    p.write_text(json.dumps(doc))
    return p


def read_manifest(out_dir):
    doc = json.loads((out_dir / "manifest.json").read_text())
    assert set(doc) - {"counters"} == MANIFEST_KEYS
    # work counters come only with a simulate run that stepped its strategies
    # and with a solve, verify, discrete or compare run that got its boundary
    # or ladder
    ran = (doc["command"] == "simulate" and "mc_within_3se" in doc["checks"]) or \
        (doc["command"] in ("solve", "verify", "discrete", "compare")
         and doc["checks"] != {"completed": False})
    assert ("counters" in doc) == ran
    return doc


def nonmono_rate():
    u = np.linspace(0.0, 1.0, 1001)
    rho2 = 1.0 / (4.0 * (1.0 - 0.1 * u - 0.8 * u * u))
    return {"family": "tabulated", "rho2": [float(v) for v in rho2]}


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    # one fine-grid solve shared by the verify tests
    d = tmp_path_factory.mktemp("solved")
    cfg = write_cfg(d, BASE)
    out = d / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--grid", "20001", "--quiet"]) == 0
    return out


def test_solve_outputs_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, {**BASE, "grid_size": 501})
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    for name in ("boundary.csv", "boundary.json", "conditions.json", "manifest.json"):
        assert (out / name).exists()
    man = read_manifest(out)
    assert man["tool"] == "investlearn"
    assert man["command"] == "solve"
    assert man["outputs"] == sorted(man["outputs"])
    assert man["config_hash"].startswith("sha256:")
    assert all(man["checks"].values())
    assert man["counters"] == {"rk4_stages": 4 * 500, "projections": 0}
    cond = json.loads((out / "conditions.json").read_text())
    assert cond["monotone"] is True
    assert cond["conditions"]["route"] == "boundary_above_k"
    # the sidecar carries the same solve report
    header = json.loads((out / "boundary.json").read_text())
    assert {key: header[key] for key in cond} == cond
    assert set(cond) == {"conditions", "observed", "monotone", "n_projections"}


def test_solve_missing_k_exits_2_without_output(tmp_path):
    doc = {**BASE, "model": {"r": 0.1}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 2
    assert not out.exists()


def test_solve_nonmonotone_reports_flag(tmp_path):
    doc = {**BASE, "rate": nonmono_rate()}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    man = read_manifest(out)
    assert man["checks"]["monotone"] is False
    cond = json.loads((out / "conditions.json").read_text())
    assert cond["monotone"] is False


def test_shipped_nonmonotone_config_rejected(tmp_path):
    # configs/nonmonotone.json is the input of the benchmark's reject op
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "nonmonotone.json")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet"]) == 1
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report == {"passed": False, "reason": "boundary is not strictly increasing",
                      "monotone": False}
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 0
    b = np.loadtxt(tmp_path / "s" / "boundary.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.any(np.diff(b) <= 0.0)
    header = json.loads((tmp_path / "s" / "boundary.json").read_text())
    assert header["monotone"] is False and header["observed"]["monotone"] is False


def test_flat_boundary_reason_names_float64_resolution(tmp_path, capsys):
    # admissible, and every knot slope is positive, but b rises about 3e-17
    # per knot near 0.993, under its ulp, so most knot values repeat
    doc = {**BASE, "model": {"r": 0.1, "k": 0.98},
           "rate": {"family": "linear_noise", "C": 0.25, "D": 1e-11},
           "sim": {"n_paths": 10, "horizon": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    curve = solve_boundary(load_config(cfg).rate, ModelParams(r=0.1, k=0.98))
    flat = int(np.sum(np.diff(curve.b_values) == 0.0))
    assert flat > 0 and np.all(curve.slopes > 0.0) and np.all(np.diff(curve.b_values) >= 0.0)
    reason = (f"boundary rises less than float64 resolves between knots: {flat} of 2000 "
              f"knot differences are 0 although every knot slope is positive")
    assert curve.not_increasing_reason() == reason
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 1
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report == {"passed": False, "reason": reason, "monotone": False}
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert read_manifest(tmp_path / "s")["checks"] == {"monotone": False}
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"FAIL {reason}", f"FAIL {reason}, no reflection strategy"]


def test_verify_clean_curve_passes(tmp_path, solved):
    doc = {**BASE, "boundary_csv": str(solved / "boundary.csv")}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["passed"] is True
    assert rep["route"] == "boundary_above_k"
    assert (out / "surface.csv").exists()
    man = read_manifest(out)
    assert all(man["checks"].values())
    # the loaded curve ran no RK4 stage
    assert man["counters"] == {"rk4_stages": 0, "projections": 0,
                               "sweep_samples": 10000, "boundary_points": 20000}



def _copy_curve(src_dir, dst_dir):
    dst_dir.mkdir()
    for name in ("boundary.csv", "boundary.json"):
        (dst_dir / name).write_bytes((src_dir / name).read_bytes())


def test_verify_spike_tamper_fails_monotone(tmp_path, solved):
    work = tmp_path / "curve"
    _copy_curve(solved, work)
    lines = (work / "boundary.csv").read_text().splitlines()
    u, b = lines[10000].split(",")
    lines[10000] = f"{u},{float(b) * 1.01!r}"
    (work / "boundary.csv").write_text("\n".join(lines) + "\n")

    doc = {**BASE, "boundary_csv": str(work / "boundary.csv")}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    man = read_manifest(out)
    assert man["checks"]["monotone"] is False
    assert man["counters"] == {"rk4_stages": 0, "projections": 0,
                               "sweep_samples": 0, "boundary_points": 0}
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["passed"] is False


def _shrink(csv_path):
    """Scale b by 1 - 0.001 (1 - u), which keeps it monotone and b(1) = c(1)."""
    lines = csv_path.read_text().splitlines()
    for i in range(1, len(lines)):
        u, b = lines[i].split(",")
        lines[i] = f"{u},{float(b) * (1.0 - 0.001 * (1.0 - float(u)))!r}"
    csv_path.write_text("\n".join(lines) + "\n")


def test_verify_scaled_tamper_fails_diagnostics(tmp_path, solved):
    # the shrunk curve stays monotone, inside the strip and on its terminal
    # value, so only the smooth-fit and pasting diagnostics can catch it
    work = tmp_path / "curve"
    _copy_curve(solved, work)
    _shrink(work / "boundary.csv")

    doc = {**BASE, "boundary_csv": str(work / "boundary.csv")}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    man = read_manifest(out)
    # the curve cleared the monotone gate and failed inside the diagnostics
    assert "monotone" not in man["checks"]
    assert man["checks"]["all"] is False
    assert man["checks"]["smooth_fit"] is False
    assert man["checks"]["c1_pasting"] is False


def test_verify_knot_outside_strip_writes_manifest(tmp_path, solved, capsys):
    # a knot above c(u) fails at load; the run still leaves a manifest
    work = tmp_path / "curve"
    _copy_curve(solved, work)
    lines = (work / "boundary.csv").read_text().splitlines()
    u, _ = lines[1000].split(",")
    lines[1000] = f"{u},0.99"
    (work / "boundary.csv").write_text("\n".join(lines) + "\n")

    doc = {**BASE, "boundary_csv": str(work / "boundary.csv")}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    assert "check failed" in capsys.readouterr().err
    man = read_manifest(out)
    assert man["command"] == "verify"
    assert man["outputs"] == []
    assert man["checks"] == {"completed": False}


def test_verify_missing_csv_exits_2(tmp_path):
    doc = {**BASE, "boundary_csv": str(tmp_path / "nowhere.csv")}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 2


# sidecar faults: the field set, which the error must name, and its value
SIDECAR_FAULTS = {
    "string_k": ("model.k", "0.5"),
    "bool_r": ("model.r", True),
    "fractional_projections": ("n_projections", 2.7),
    "negative_projections": ("n_projections", -1),
}


def _malform(work, fault):
    """Apply one file-shape fault to the curve in work; returns the file it lands in."""
    csv_path, side = work / "boundary.csv", work / "boundary.json"
    lines = csv_path.read_text().splitlines()
    if fault == "header":
        lines[0] = "x,y"
    elif fault == "one_field":
        lines.insert(500, "0.5")
    elif fault == "non_numeric":
        lines.insert(500, "foo,bar")
    elif fault == "prefix":
        del lines[len(lines) // 2 + 1:]  # u ends at 0.5
    elif fault == "terminal":
        u, b = lines[-1].split(",")
        lines[-1] = f"{u},{float(b) * (1.0 - 1e-6)!r}"
    elif fault in ("nan_terminal", "nan_interior"):
        row = -1 if fault == "nan_terminal" else 500
        lines[row] = lines[row].split(",")[0] + ",nan"
    elif fault in ("no_model", "model_extra_key"):
        doc = json.loads(side.read_text())
        if fault == "no_model":
            del doc["model"]
        else:
            doc["model"]["C"] = 1
        side.write_text(json.dumps(doc))
        return side
    elif fault == "bad_json":
        side.write_text("{not json")
        return side
    elif fault in SIDECAR_FAULTS:
        field, value = SIDECAR_FAULTS[fault]
        doc = json.loads(side.read_text())
        section, _, key = field.rpartition(".")
        (doc[section] if section else doc)[key] = value
        side.write_text(json.dumps(doc))
        return side
    csv_path.write_text("\n".join(lines) + "\n")
    return csv_path


@pytest.mark.parametrize("command, fault", [
    ("verify", "header"),
    ("verify", "one_field"),
    ("verify", "non_numeric"),
    ("verify", "no_model"),
    ("verify", "model_extra_key"),
    ("verify", "bad_json"),
    ("verify", "prefix"),
    ("verify", "terminal"),
    ("verify", "nan_terminal"),
    ("verify", "nan_interior"),
    ("simulate", "one_field"),
    ("simulate", "nan_terminal"),
    ("simulate", "nan_interior"),
    ("simulate", "model_extra_key"),
    *((command, fault) for command in ("verify", "simulate") for fault in SIDECAR_FAULTS),
])
def test_malformed_boundary_files_exit_2(tmp_path, solved, capsys, command, fault):
    work = tmp_path / "curve"
    _copy_curve(solved, work)
    bad = _malform(work, fault)
    doc = {**BASE, "boundary_csv": str(work / "boundary.csv"),
           "sim": {"n_paths": 10, "horizon": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(bad) in err
    if fault in SIDECAR_FAULTS:
        assert SIDECAR_FAULTS[fault][0] in err


# sha1 of the files the 400-path run below writes, taken when the kernel
# began to end paths by absorption
SIMULATE_400_SHA1 = {
    "estimates.json": "c050e0a13fd52d1465c7546fc9747b3489c35390",
    "trajectory.csv": "59bb124dbc9a11ece48d5b036e9e523c5e28e99d",
    "paths.csv": "89ac929728e77b2a2edae55db2f5dbf00484f021",
}


def test_simulate_writes_estimates(tmp_path):
    doc = {
        **BASE,
        "sim": {"start_u": 0.0, "start_pi": 0.5, "dt": 0.01, "horizon": 60.0,
                "n_paths": 400, "seed": 3, "write_paths": True,
                "trajectory_path": 2},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    est = json.loads((out / "estimates.json").read_text())
    for key in ("reflecting", "stop_at_c", "full_now", "value_hat",
                "stop_at_c_reference", "abs_error_vs_value_hat",
                "diff_vs_stop_at_c", "diff_vs_full_now"):
        assert key in est
    assert est["reflecting"]["n_paths"] == 400
    assert {name: hashlib.sha1((out / name).read_bytes()).hexdigest()
            for name in SIMULATE_400_SHA1} == SIMULATE_400_SHA1
    paired = est["paired_estimate"]
    assert paired["estimate"] == est["stop_at_c_reference"] + est["diff_vs_stop_at_c"]["mean"]
    assert paired["se"] == est["diff_vs_stop_at_c"]["se"]
    assert paired["abs_error_vs_value_hat"] == abs(paired["estimate"] - est["value_hat"])
    man = read_manifest(out)
    assert man["seed"] == 3
    assert "paths.csv" in man["outputs"]
    assert set(man["checks"]) == {"mc_within_3se", "mc_paired_within_3se", "not_below_stop_at_c",
                                  "not_below_full_now", "stop_matches_reference"}
    assert all(man["checks"].values())
    # deterministic work counts, one set per stepped strategy, no timing
    assert set(man["counters"]) == {"reflecting", "stop_at_c", "pass"}
    shared = man["counters"].pop("pass")
    assert set(shared) == {"uniforms_drawn", "maximum_streams_built", "draw_bytes", "chunks"}
    # a stream that draws takes a uniform for each step of its chunk
    assert 0 < shared["maximum_streams_built"] < shared["uniforms_drawn"]
    # a chunk's draws hold at most the pass's budget per path
    assert 0 < shared["draw_bytes"] <= 8 * sim_mod.DRAW_BUDGET * 400
    assert shared["chunks"] > 1
    for name, counts in man["counters"].items():
        assert set(counts) == {"steps", "path_steps", "barrier_crossings", "bridge_rows",
                               "absorbed", "frac_alive_at_horizon"}
        assert counts["frac_alive_at_horizon"] == est[name]["frac_alive_at_horizon"]
        # an absorbed path counts as alive at the horizon, as its U is below 1
        alive = round(counts["frac_alive_at_horizon"] * 400)
        assert 0 < counts["absorbed"] <= alive
        live = alive - counts["absorbed"]
        assert counts["steps"] == 6000 if live else counts["steps"] <= 6000
        # every path lives at least one step, those that reach the horizon all of them
        assert 400 + live * (counts["steps"] - 1) <= counts["path_steps"] <= 400 * counts["steps"]
        assert counts["barrier_crossings"] > 0
        # a crossing is found by sampling the row's in-step maximum
        assert counts["bridge_rows"] >= counts["barrier_crossings"]
        # and reads a uniform its stream drew
        assert counts["bridge_rows"] <= shared["uniforms_drawn"]
    # a stop_at_c path crosses once, when it stops
    stopped = round((1.0 - man["counters"]["stop_at_c"]["frac_alive_at_horizon"]) * 400)
    assert man["counters"]["stop_at_c"]["barrier_crossings"] == stopped


@pytest.mark.parametrize("path", [0, 5])
def test_simulate_trajectory_is_the_sample_trajectory(tmp_path, path):
    # the command traces the path within its paired pass; the file is the
    # one the one-key run of that path writes
    doc = {**BASE, "sim": {"start_pi": 0.6, "horizon": 30.0, "n_paths": 64, "seed": 3,
                           "trajectory_path": path}}
    path_cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path_cfg), "--out", str(out), "--quiet"]) == 0
    cfg = load_config(path_cfg)
    curve = solve_boundary(cfg.rate, cfg.model, grid_size=cfg.grid_size)
    save_trajectory(sample_trajectory(curve, cfg.sim, path), tmp_path / "alone.csv")
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_simulate_reads_boundary_csv(tmp_path, solved):
    shrunk = tmp_path / "shrunk"
    _copy_curve(solved, shrunk)
    _shrink(shrunk / "boundary.csv")

    sim = {"start_u": 0.0, "start_pi": 0.6, "dt": 0.01, "horizon": 5.0,
           "n_paths": 200, "seed": 4}
    outs = {}
    for name, csv_dir in (("resolved", None), ("loaded", solved), ("shrunk", shrunk)):
        doc = {**BASE, "grid_size": 20001, "sim": sim}
        if csv_dir is not None:
            doc["boundary_csv"] = str(csv_dir / "boundary.csv")
        cfg = write_cfg(tmp_path, doc, f"{name}.json")
        outs[name] = tmp_path / name
        rc = main(["simulate", "--config", str(cfg), "--out", str(outs[name]), "--quiet"])
        assert rc == 0
    # the saved CSV has as many nodes as the re-solve, so the runs agree exactly
    assert len((solved / "boundary.csv").read_text().splitlines()) == 20002
    est = {name: (out / "estimates.json").read_bytes() for name, out in outs.items()}
    assert est["loaded"] == est["resolved"]
    assert est["shrunk"] != est["resolved"]


def test_simulate_nonmonotone_exits_1(tmp_path):
    doc = {
        **BASE,
        "rate": nonmono_rate(),
        "sim": {"n_paths": 10, "horizon": 1.0},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    assert not (out / "estimates.json").exists()
    man = read_manifest(out)
    assert man["checks"] == {"monotone": False}


def test_simulate_single_path_exits_2(tmp_path):
    # one path has no standard error for the Monte Carlo checks to use
    doc = {**BASE, "sim": {"n_paths": 1, "horizon": 1.0}}
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out),
               "--quiet"])
    assert rc == 2
    assert not (out / "estimates.json").exists()


def test_simulate_zero_se_has_no_error_ratio(tmp_path, capsys):
    # at horizon 0 every path pays 0 and every SE is 0, so no error is a
    # number of standard errors
    doc = {**BASE, "sim": {"n_paths": 4, "horizon": 0.0}}
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)])
    assert rc == 0
    est = json.loads((out / "estimates.json").read_text())
    assert est["reflecting"]["std_error"] == 0.0 and est["paired_estimate"]["se"] == 0.0
    assert est["abs_error_vs_value_hat"] > 0.0
    assert est["error_over_se"] is None and est["paired_estimate"]["error_over_se"] is None
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("(n/a se)") and lines[1].endswith("(n/a se)")
    assert read_manifest(out)["checks"]["mc_within_3se"] is False


def test_discrete_from_levels(tmp_path):
    doc = {**BASE, "rate": {"family": "hyperbolic_gamma", "A": 1.25, "beta": 0.2},
           "ladder": {"n_levels": 5}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["discrete", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "ladder.csv").read_text().strip().splitlines()
    assert len(lines) == 7
    rep = json.loads((out / "discrete_report.json").read_text())
    assert rep["passed"] is True
    man = read_manifest(out)
    assert all(man["checks"].values())
    counts = man["counters"]["ladder"]
    assert counts["levels"] == 6 and len(counts["f_evals"]) == 6
    assert counts["f_evals"][-1] == 0 and 0 < max(counts["f_evals"]) <= 8
    assert counts["f_evals_total"] == sum(counts["f_evals"])


@pytest.mark.parametrize("gamma, k", [([1e308, 1.5], 0.1), ([1e300, 1.5], 0.01)])
def test_discrete_float_limit_gamma_exit_1(tmp_path, capsys, gamma, k):
    # gamma_0 (gamma_0 - 1) overflows, so rho_0^2 = 0 and V_0'' is not finite
    doc = {**BASE, "model": {"r": 0.1, "k": k}, "ladder": {"gamma": gamma}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["discrete", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    assert "gamma_0 (gamma_0 - 1) = inf" in capsys.readouterr().err
    assert read_manifest(out)["checks"] == {"completed": False}
    assert not (out / "ladder.csv").exists()


def test_discrete_coefficient_out_of_float_range(tmp_path):
    # G_0(b_0) underflows to 0, so A_0 = exp(log A_0) reads inf in ladder.csv,
    # while the ladder's values stay finite and pass the suite
    doc = {**BASE, "model": {"r": 0.1, "k": 0.256}, "ladder": {"gamma": [5000, 1.5]}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["discrete", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    rows = (out / "ladder.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[-1] == "inf"
    assert json.loads((out / "discrete_report.json").read_text())["passed"] is True
    assert all(read_manifest(out)["checks"].values())


@pytest.mark.parametrize("A, beta", [(50.0, 0.01), (200.0, 0.001)])
def test_discrete_at_large_gamma(tmp_path, A, beta):
    # gamma_0 = 5 000 and 200 000: f_n's terms and the monotone condition's
    # differences are that large, and their roundoff with them
    doc = {**BASE, "rate": {"family": "hyperbolic_gamma", "A": A, "beta": beta},
           "ladder": {"n_levels": 5}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["discrete", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    rep = json.loads((out / "discrete_report.json").read_text())
    assert rep["passed"] is True
    assert rep["monotone"]["all_hold"] is True
    assert all(read_manifest(out)["checks"].values())


def test_discrete_from_gamma_list(tmp_path):
    doc = {**BASE, "ladder": {"gamma": [3.0, 2.7, 2.4, 2.1, 1.8, 1.5]}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["discrete", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    rep = json.loads((out / "discrete_report.json").read_text())
    assert rep["monotone"]["all_hold"] is False


def test_discrete_zero_levels(tmp_path):
    doc = {**BASE, "rate": {"family": "hyperbolic_gamma", "A": 1.25, "beta": 0.2},
           "ladder": {"n_levels": 0}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["discrete", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "ladder.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_discrete_increasing_gamma_exits_2(tmp_path):
    doc = {**BASE, "ladder": {"gamma": [1.5, 2.0]}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["discrete", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 2


def test_manifest_checks_come_from_the_report(tmp_path):
    doc = {**BASE, "rate": {"family": "hyperbolic_gamma", "A": 1.25, "beta": 0.2},
           "ladder": {"n_levels": 3}}
    cfg_path = write_cfg(tmp_path, doc)
    cfg = load_config(cfg_path, grid=2001)

    out = tmp_path / "verify"
    rc = main(["verify", "--config", str(cfg_path), "--out", str(out),
               "--grid", "2001", "--quiet"])
    curve = solve_boundary(cfg.rate, cfg.model, grid_size=cfg.grid_size)
    report = verify_surface(ValueSurface(curve))
    checks = report.checks()
    manifest = read_manifest(out)
    assert manifest["checks"] == checks
    assert manifest["counters"] == {
        "rk4_stages": 4 * 2000, "projections": curve.n_projections,
        "sweep_samples": report.n_samples, "boundary_points": report.n_boundary_points}
    assert set(checks) == {"pde", "smooth_fit", "c1_pasting", "gradient_bound",
                           "learning_premium", "all"}
    assert rc == (0 if all(checks.values()) else 1)

    out = tmp_path / "discrete"
    rc = main(["discrete", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    checks = discrete_verification_suite(
        ladder_from_spec(cfg.rate, cfg.model, 3)).checks()
    assert read_manifest(out)["checks"] == checks
    assert set(checks) == {"bellman", "generator", "smooth_fit", "b_nondecreasing"}
    assert rc == 0 and all(checks.values())


def test_discrete_unordered_thresholds_exit_1(tmp_path):
    # a sharp drop in gamma puts b_1 below b_0
    doc = {**BASE, "ladder": {"gamma": [5.0, 4.9, 1.1]}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["discrete", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    assert read_manifest(out)["checks"]["b_nondecreasing"] is False


def test_discrete_without_ladder_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    rc = main(["discrete", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 2


def test_compare_writes_table(tmp_path):
    doc = {**BASE, "rate": {"family": "hyperbolic_gamma", "A": 1.25, "beta": 0.2},
           "ladder": {"n_levels": 5}, "grid_size": 501}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "n,u_n,b_ladder,b_continuous,difference"
    assert len(lines) == 7
    counters = read_manifest(out)["counters"]
    assert counters["ladder"]["levels"] == 6
    assert counters["curve"] == {"rk4_stages": 4 * 500, "projections": 0}


def test_compare_reads_boundary_csv(tmp_path, solved):
    # compare tabulates the configured curve, a tampered one included
    shrunk = tmp_path / "shrunk"
    _copy_curve(solved, shrunk)
    _shrink(shrunk / "boundary.csv")
    doc = {**BASE, "ladder": {"n_levels": 5}, "boundary_csv": str(shrunk / "boundary.csv")}
    out = tmp_path / "out"
    assert main(["compare", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out),
                 "--quiet"]) == 0
    rows = read_csv(out / "compare.csv", ["n", "u_n", "b_ladder", "b_continuous", "difference"])
    u_n, b_cont = rows[:, 1], rows[:, 3]
    assert np.array_equal(b_cont, load_curve(shrunk / "boundary.csv").b_at(u_n))
    assert not np.array_equal(b_cont, load_curve(solved / "boundary.csv").b_at(u_n))
    # a loaded curve ran no RK4 stages
    assert read_manifest(out)["counters"]["curve"] == {"rk4_stages": 0, "projections": 0}


@pytest.fixture()
def plot_inputs(tmp_path):
    params = ModelParams(r=0.1, k=0.5)
    hyp = HyperbolicGamma(A=1.25, beta=0.2)
    cfg = write_cfg(tmp_path, {**BASE, "grid_size": 501})
    src = tmp_path / "src"
    assert main(["solve", "--config", str(cfg), "--out", str(src), "--quiet"]) == 0
    curve = solve_boundary(hyp, params, grid_size=501)
    traj = sample_trajectory(curve, SimConfig(n_paths=1, horizon=1.0, dt=0.01, seed=4))
    save_trajectory(traj, src / "trajectory.csv")
    save_ladder(ladder_from_spec(hyp, params, 5), src / "ladder.csv")
    return src


def test_plot_renders_svg(tmp_path, plot_inputs):
    doc = {
        **BASE,
        "plot": {
            "boundary": str(plot_inputs / "boundary.csv"),
            "trajectory": str(plot_inputs / "trajectory.csv"),
            "ladder": str(plot_inputs / "ladder.csv"),
        },
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["plot", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    for name in ("boundary.svg", "trajectory.svg", "ladder.svg"):
        text = (out / name).read_text()
        assert text.startswith("<svg")
    man = read_manifest(out)
    assert man["outputs"] == ["boundary.svg", "ladder.svg", "trajectory.svg"]


@pytest.mark.parametrize("content", ["", "u,b\n", "u,b\n0.0,oops\n", "x,y\n0.0,0.5\n"])
def test_plot_bad_csv_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    doc = {**BASE, "plot": {"boundary": str(bad)}}
    cfg = write_cfg(tmp_path, doc)
    rc = main(["plot", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    if content in ("", "x,y\n0.0,0.5\n"):
        # an empty file or a wrong header is not a number-parsing fault
        assert "non-numeric" not in err


def test_plot_missing_csv_exits_2(tmp_path):
    doc = {**BASE, "plot": {"boundary": str(tmp_path / "gone.csv")}}
    cfg = write_cfg(tmp_path, doc)
    rc = main(["plot", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2


def test_plot_without_inputs_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    rc = main(["plot", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2


def strip_clock(out_dir):
    man = json.loads((out_dir / "manifest.json").read_text())
    man.pop("wall_clock_seconds")
    return man


def test_repeat_runs_are_bit_identical(tmp_path):
    doc = {**BASE, "grid_size": 501,
           "rate": {"family": "hyperbolic_gamma", "A": 1.25, "beta": 0.2},
           "ladder": {"n_levels": 5}}
    cfg = write_cfg(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert main(["discrete", "--config", str(cfg), "--out",
                     str(out / "disc"), "--quiet"]) == 0
    for name in ("boundary.csv", "boundary.json", "conditions.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    for name in ("ladder.csv", "discrete_report.json"):
        assert (a / "disc" / name).read_bytes() == (b / "disc" / name).read_bytes()
    assert strip_clock(a) == strip_clock(b)
    assert strip_clock(a / "disc") == strip_clock(b / "disc")


def test_overrides_change_config_hash(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    plain = load_config(cfg)
    seeded = load_config(cfg, seed=7)
    gridded = load_config(cfg, grid=501)
    assert plain.config_hash != seeded.config_hash
    assert plain.config_hash != gridded.config_hash
    assert seeded.sim.seed == 7
    assert gridded.grid_size == 501


@pytest.mark.parametrize(
    "doc",
    [
        {**BASE, "bogus": 1},
        {**BASE, "schema_version": 2},
        # True == 1 and 1.0 == 1 in Python, but neither is the JSON integer 1
        {**BASE, "schema_version": True},
        {**BASE, "schema_version": 1.0},
        {**BASE, "sim": {"bogus": 1}},
        {**BASE, "sim": {"n_paths": 0}},
        {**BASE, "sim": {"trajectory_path": -1}},
        {**BASE, "ladder": {"n_levels": 2, "gamma": [2.0, 1.5]}},
        {**BASE, "ladder": {"gamma": []}},
        {**BASE, "plot": {"bogus": "x.csv"}},
        {**BASE, "rate": {"family": "warp"}},
        {**BASE, "model": {"r": 0.1, "k": 0.5, "mu0": 0.0}},
        {**BASE, "grid_size": 2},
        {**BASE, "out_dir": 7},
        {**BASE, "sim": {"n_paths": 10, "trajectory_path": 10}},
        {**BASE, "surface_grid_size": 2001},
        # model and rate numbers are JSON numbers, not strings or booleans
        {**BASE, "model": {"r": "0.1", "k": 0.5}},
        {**BASE, "model": {"r": True, "k": 0.5}},
        {**BASE, "model": {"r": 0.1, "mu0": "-1", "mu1": 1.0}},
        {**BASE, "rate": {"family": "linear_noise", "C": 0.25, "D": False}},
        {**BASE, "rate": {"family": "linear_noise", "C": "0.25", "D": 0.9}},
        {**BASE, "rate": {"family": "tabulated", "rho": [True] * 11}},
        {**BASE, "rate": {"family": "tabulated", "rho": ["0.5"] * 11}},
        {**BASE, "rate": {"family": "tabulated", "rho2": 0.25}},
        {**BASE, "rate": {"family": "tabulated", "rho": [0.5] * 11, "rho2": [0.25] * 11}},
        {**BASE, "rate": {"family": "tabulated", "rho": [0.5] * 11, "C": 1}},
        {**BASE, "rate": {"family": "linear_noise", "C": 10 ** 400, "D": 0.9}},
        {**BASE, "ladder": {"gamma": [10 ** 400, 1.5]}},
        {**BASE, "ladder": {"gamma": [3.0, True]}},
    ],
)
def test_bad_documents_rejected(tmp_path, doc):
    cfg = write_cfg(tmp_path, doc)
    with pytest.raises(ConfigError):
        load_config(cfg)
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2


def test_oversized_ladder_gamma_names_entry(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**BASE, "ladder": {"gamma": [3.0, 10 ** 400]}})
    rc = main(["discrete", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    assert "ladder.gamma[1]" in capsys.readouterr().err


@pytest.mark.parametrize("sim, override, reason", [
    ({"seed": 1.5}, [], "seed"),
    ({"seed": True}, [], "seed"),
    ({"seed": "3"}, [], "seed"),
    ({"seed": 2 ** 63}, [], "seed"),
    ({"seed": 2 ** 64 - 1}, [], "seed"),
    ({"seed": -1}, [], "seed"),
    ({}, ["--seed", "-1"], "seed"),
    ({"n_paths": 100.0}, [], "n_paths"),
    ({"n_paths": True}, [], "n_paths"),
    ({"horizon": float("nan")}, [], "horizon"),
    ({"horizon": float("inf")}, [], "horizon"),
    ({"dt": float("inf")}, [], "dt"),
    ({"dt": True}, [], "dt"),
    ({"horizon": True}, [], "horizon"),
    ({"start_u": False}, [], "start_u"),
    ({"horizon": 1e308}, [], "horizon"),
    ({"horizon": 10 ** 400}, [], "horizon"),
], ids=["seed_float", "seed_bool", "seed_str", "seed_2^63", "seed_2^64-1", "seed_-1",
        "seed_override_-1", "n_paths_float", "n_paths_bool", "horizon_nan", "horizon_inf",
        "dt_inf", "dt_bool", "horizon_bool", "start_u_bool", "horizon_1e308",
        "horizon_int_10^400"])
def test_bad_sim_seed_or_paths_exit_2(tmp_path, capsys, sim, override, reason):
    cfg = write_cfg(tmp_path, {**BASE, "sim": {"horizon": 1.0, **sim}})
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet",
               *override])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and reason in err
    assert not (tmp_path / "o").exists()


# sha1 of the CSVs that solve and verify write on configs/linear_noise.json,
# taken with the csv.writer-based writer, the item-by-item RK4 loop and one
# surface evaluation per u-row; surface.csv re-taken when A G came to be
# formed as ratio x exp(log G(u, pi) - log G(u, b)), which moved 5 890 of its
# values by at most 1.3e-15 relative
SHIPPED_LINEAR_SHA1 = {
    "boundary.csv": "679cd7b9abdf46f2024c139124453fe067969eb4",
    "surface.csv": "c4b508d9db994adff10d89d81780becb2bdb6b59",
}


def test_shipped_linear_csvs_pinned(tmp_path):
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "linear_noise.json")
    for command in ("solve", "verify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    got = {name: hashlib.sha1((tmp_path / name).read_bytes()).hexdigest()
           for name in SHIPPED_LINEAR_SHA1}
    assert got == SHIPPED_LINEAR_SHA1


# sha1 of the CSVs of solve on configs/hyperbolic_gamma.json at 20 001 nodes
# and of the verify that audits that boundary.csv, taken before the RK4 stages
# computed F inline and verify formatted each surface grid value once
SHIPPED_HYPERBOLIC_SHA1 = {
    "boundary.csv": "129842b1745ad349ff78d0c55c73b5e2586c3e00",
    "surface.csv": "79b3a65322a4fbfbfecf185f6f1b0efa13adf3bb",
}


def test_shipped_hyperbolic_csvs_pinned(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "hyperbolic_gamma.json"
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path), "--quiet",
                 "--grid", "20001"]) == 0
    audit = write_cfg(tmp_path, {**json.loads(cfg.read_text()),
                                 "boundary_csv": str(tmp_path / "boundary.csv")}, "audit.json")
    assert main(["verify", "--config", str(audit), "--out", str(tmp_path), "--quiet"]) == 0
    got = {name: hashlib.sha1((tmp_path / name).read_bytes()).hexdigest()
           for name in SHIPPED_HYPERBOLIC_SHA1}
    assert got == SHIPPED_HYPERBOLIC_SHA1


# sha1 of the figures plot draws from the shipped configs: the boundary and
# trajectory 0 of configs/linear_noise.json and the ladder of
# configs/hyperbolic_gamma.json, taken when each point was mapped to pixels
# and formatted on its own
SHIPPED_PLOT_SHA1 = {
    "boundary.svg": "9d84d4f1085adf46c5c8b7422a2533adc73ff87b",
    "trajectory.svg": "485e2188d610b4b34569602cce807bc142874760",
    "ladder.svg": "cd851bd188bd8b673f31b433f1bee921c89b16b0",
}


def test_shipped_plots_pinned(tmp_path):
    configs = Path(__file__).resolve().parents[1] / "configs"
    linear = json.loads((configs / "linear_noise.json").read_text())
    linear["sim"]["n_paths"] = 20  # trajectory 0 does not depend on the path count
    linear_cfg = write_cfg(tmp_path, linear, "linear.json")
    for command, cfg in (("solve", linear_cfg), ("simulate", linear_cfg),
                         ("discrete", configs / "hyperbolic_gamma.json")):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command),
                     "--quiet"]) == 0
    plot = json.loads((configs / "plot_linear.json").read_text())
    plot["plot"] = {"boundary": str(tmp_path / "solve" / "boundary.csv"),
                    "trajectory": str(tmp_path / "simulate" / "trajectory.csv"),
                    "ladder": str(tmp_path / "discrete" / "ladder.csv")}
    plot_cfg = write_cfg(tmp_path, plot, "plot.json")
    assert main(["plot", "--config", str(plot_cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    got = {name: hashlib.sha1((tmp_path / "o" / name).read_bytes()).hexdigest()
           for name in SHIPPED_PLOT_SHA1}
    assert got == SHIPPED_PLOT_SHA1


# sha1 of the files simulate writes on configs/linear_noise.json at 2 000
# paths, taken when every row's in-step maximum was sampled and every live
# stream drew its uniforms; estimates.json re-taken when value_hat and
# stop_at_c_reference came to be formed in log space, which moved them and
# the gaps derived from them in their last bits
SHIPPED_SIMULATE_SHA1 = {
    "estimates.json": "88fb9afa20a31065f0763b8fa1411a5d94064ce7",
    "trajectory.csv": "a345814f99b60eef74ba3ddc79de68153077d9e4",
}


def test_shipped_linear_simulate_pinned(tmp_path):
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "linear_noise.json").read_text())
    doc["sim"]["n_paths"] = 2000
    assert (doc["sim"]["horizon"], doc["sim"]["seed"]) == (150.0, 1)
    cfg = write_cfg(tmp_path, doc)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    got = {name: hashlib.sha1((tmp_path / "o" / name).read_bytes()).hexdigest()
           for name in SHIPPED_SIMULATE_SHA1}
    assert got == SHIPPED_SIMULATE_SHA1


# sha1 of the reports verify and discrete write on the shipped configs,
# taken before verify came to evaluate the value surface once per point set
# and the ladder suite to compute each V_n once; neither moved a byte
SHIPPED_REPORT_SHA1 = [
    ("verify", "linear_noise.json", (), "verify_report.json",
     "513e3f7fe3b9083a60c6ec9104a5101f7851a955"),
    ("verify", "hyperbolic_gamma.json", ("--grid", "20001"), "verify_report.json",
     "0d5f578af3619cd0797172ee72e637274a78afb2"),
    ("discrete", "hyperbolic_gamma.json", (), "discrete_report.json",
     "da06a97ad5db13b47af06bd287832f7c2996b9c2"),
]


@pytest.mark.parametrize("command,config,extra,name,sha1", SHIPPED_REPORT_SHA1,
                         ids=["verify-linear", "verify-hyperbolic-20001", "discrete-hyperbolic"])
def test_shipped_reports_pinned(tmp_path, command, config, extra, name, sha1):
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / config)
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet", *extra]) == 0
    assert hashlib.sha1((tmp_path / name).read_bytes()).hexdigest() == sha1


def test_invalid_json_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    for content in (b"{not json", b"\xff\xfe{}"):  # the second is not UTF-8
        cfg.write_bytes(content)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2


def test_missing_config_exits_2(tmp_path):
    rc = main(["solve", "--config", str(tmp_path / "gone.json"),
               "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2


def test_no_output_dir_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    rc = main(["solve", "--config", str(cfg), "--quiet"])
    assert rc == 2


def test_out_dir_from_config(tmp_path):
    doc = {**BASE, "grid_size": 501, "out_dir": "runout"}
    cfg = write_cfg(tmp_path, doc)
    rc = main(["solve", "--config", str(cfg), "--quiet"])
    assert rc == 0
    assert (tmp_path / "runout" / "boundary.csv").exists()


def test_quiet_suppresses_output(tmp_path, capsys):
    doc = {**BASE, "grid_size": 501}
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert "monotone=True" in capsys.readouterr().out


@pytest.fixture(scope="module")
def quiet_configs(tmp_path_factory):
    """One small config per command but solve, and the nonmonotone verify reject."""
    d = tmp_path_factory.mktemp("quiet")
    ladder = write_cfg(d, {**BASE, "rate": {"family": "hyperbolic_gamma", "A": 1.25, "beta": 0.2},
                           "ladder": {"n_levels": 5}, "grid_size": 501}, "ladder.json")
    assert main(["solve", "--config", str(write_cfg(d, {**BASE, "grid_size": 501})),
                 "--out", str(d / "src"), "--quiet"]) == 0
    return {
        "verify": write_cfg(d, BASE, "verify.json"),
        "verify-reject": write_cfg(d, {**BASE, "rate": nonmono_rate()}, "reject.json"),
        "simulate": write_cfg(d, {**BASE, "grid_size": 501,
                                  "sim": {"n_paths": 10, "horizon": 1.0}}, "sim.json"),
        "discrete": ladder,
        "compare": ladder,
        "plot": write_cfg(d, {**BASE, "plot": {"boundary": str(d / "src" / "boundary.csv")}},
                          "plot.json"),
    }


# test_quiet_suppresses_output covers solve
@pytest.mark.parametrize("name,code", [("verify", 0), ("verify-reject", 1), ("simulate", 0),
                                       ("discrete", 0), ("compare", 0), ("plot", 0)])
def test_quiet_silences_every_command(tmp_path, capsys, quiet_configs, name, code):
    command = name.split("-")[0]
    cfg = str(quiet_configs[name])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "loud")]) == code
    assert capsys.readouterr().out != ""
    assert main([command, "--config", cfg, "--out", str(tmp_path / "q"), "--quiet"]) == code
    assert capsys.readouterr().out == ""
    # the same run otherwise: only the wall clock may differ
    assert strip_clock(tmp_path / "q") == strip_clock(tmp_path / "loud")


def test_quiet_keeps_errors_on_stderr(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["discrete", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: config needs a 'ladder' object")


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    for name, (_, help_line) in COMMANDS.items():
        assert f"  {name}" in text and help_line in text
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("argv", [[], ["frobnicate", "--config", "cfg.json"],
                                  ["solve", "--out", "o"]],
                         ids=["no-arguments", "unknown-command", "no-config"])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: investlearn")


def test_flags_before_or_after_the_command(tmp_path):
    cfg = str(write_cfg(tmp_path, {**BASE, "grid_size": 501}))
    orders = {
        "after": ["solve", "--config", cfg, "--out", str(tmp_path / "after"), "--quiet"],
        "before": ["--config", cfg, "--out", str(tmp_path / "before"), "--quiet", "solve"],
        "around": ["--quiet", "--grid", "501", "solve", "--out", str(tmp_path / "around"),
                   "--config", cfg],
    }
    for argv in orders.values():
        assert main(argv) == 0
    csvs = {(tmp_path / name / "boundary.csv").read_bytes() for name in orders}
    assert len(csvs) == 1
    assert strip_clock(tmp_path / "before") == strip_clock(tmp_path / "after")


@pytest.mark.parametrize("below_a_file", [False, True])
def test_out_naming_a_file_exits_2(tmp_path, capsys, below_a_file):
    # the output path is input: a path that cannot be a directory is a
    # configuration error, reported without a traceback or a manifest
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if below_a_file else blocker
    cfg = write_cfg(tmp_path, {**BASE, "grid_size": 501})
    rc = main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert len(err.splitlines()) == 1
    assert blocker.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]


def child_env():
    # a child process finds the package where this process imported it from
    src = str(Path(investlearn.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point(tmp_path):
    doc = {**BASE, "grid_size": 501}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "investlearn.cli", "solve",
         "--config", str(cfg), "--out", str(out), "--quiet"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use only; a command that never
    # simulates should not pay its import time and resident memory
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, investlearn.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
