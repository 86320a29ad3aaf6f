"""Full-scale acceptance runs, one numbered test per release check.

Each test prints a single PASS/FAIL line with the measured quantities
(visible under `pytest -v -s`) and asserts both the stated tolerances and,
where a budget applies, its own wall-clock runtime.
"""

import json
import math
import time

import numpy as np

from investlearn import cli, simulate
from investlearn.boundary import solve_boundary
from investlearn.discrete import (
    boundary_equation,
    check_discrete_monotone,
    discrete_verification_suite,
    ladder_from_spec,
    value_iteration_oracle,
)
from investlearn.model import (
    HyperbolicGamma,
    LinearNoise,
    ModelParams,
    Tabulated,
    gamma,
    zero_level_B,
)
from investlearn.simulate import (
    DRAW_BUDGET,
    SimConfig,
    filter_calibration,
    simulate_strategies,
    stop_at_c_reference,
)
from investlearn.value import ValueSurface, verify_surface

PARAMS = ModelParams(r=0.1, k=0.5)
LINEAR = LinearNoise(C=0.25, D=0.9)
HYP = HyperbolicGamma(A=1.25, beta=0.2)


def _nonmonotone_spec():
    u = np.linspace(0.0, 1.0, 1001)
    return Tabulated.from_rho2(1.0 / (4.0 * (1.0 - 0.1 * u - 0.8 * u * u)))


def _line(num, name, ok, detail):
    print(f"[{num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_terminal_condition():
    t0 = time.perf_counter()
    curve = solve_boundary(LINEAR, PARAMS, grid_size=2001)
    g1 = float(gamma(LINEAR, PARAMS, 1.0))
    quad = abs(g1 * g1 - g1 - 2.0 * PARAMS.r / float(LINEAR.rho2(np.asarray(1.0), PARAMS.r)))
    target = PARAMS.k * g1 / (PARAMS.k + g1 - 1.0)
    err = abs(float(curve.b_values[-1]) - target)
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-8 and quad <= 1e-12 and elapsed < 1.0
    _line(1, "terminal condition", ok,
          f"b(1) err {err:.2e}, gamma quadratic resid {quad:.2e}, {elapsed:.2f}s")
    assert err <= 1e-8
    assert quad <= 1e-12
    assert elapsed < 1.0


def test_02_existence_bounds():
    curve = solve_boundary(LINEAR, PARAMS, grid_size=2001)
    b_int = curve.b_values[:-1]
    lower = float(b_int.min())
    upper = float((curve.c_values[:-1] - b_int).min())
    fine = solve_boundary(LINEAR, PARAMS, grid_size=4001)
    drift = float(np.max(np.abs(fine.b_values[::2] - curve.b_values)))
    ok = lower > 1e-10 and upper > 1e-10 and drift <= 1e-8
    _line(2, "existence bounds", ok,
          f"min b {lower:.3e}, min c-b {upper:.3e}, doubling drift {drift:.2e}")
    assert lower > 1e-10
    assert upper > 1e-10
    assert drift <= 1e-8


def test_03_monotone_regimes():
    t0 = time.perf_counter()

    lin = solve_boundary(LINEAR, PARAMS, grid_size=2001)
    assert lin.monotone
    assert np.all(np.diff(lin.b_values) > 0.0)
    assert np.all(lin.b_values > PARAMS.k)
    g = gamma(LINEAR, PARAMS, lin.u_grid)
    closed = (3.0 * g - 1.0) * PARAMS.k / (3.0 * g + PARAMS.k - 2.0)
    b_gap = float(np.max(np.abs(zero_level_B(LINEAR, PARAMS, lin.u_grid) - closed)))
    assert b_gap <= 1e-10

    hyp = solve_boundary(HYP, PARAMS, grid_size=2001)
    gh, d1, d2, _ = HYP.gamma_derivs(hyp.u_grid, PARAMS.r)
    cond1 = float(np.max(np.abs(2.0 * d1 * d1 - gh * d2)))
    assert cond1 <= 1e-12
    assert np.all(np.diff(hyp.b_values) > 0.0)
    assert float(hyp.b_values[0]) < PARAMS.k
    assert hyp.k_crossings() == 1

    non = solve_boundary(_nonmonotone_spec(), PARAMS, grid_size=2001)
    assert not non.monotone

    elapsed = time.perf_counter() - t0
    _line(3, "monotone regimes", elapsed < 5.0,
          f"closed-form B gap {b_gap:.2e}, cond1 resid {cond1:.2e}, "
          f"crossings {hyp.k_crossings()}, nonmono flag {non.monotone}, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_04_value_diagnostics():
    t0 = time.perf_counter()
    details = []
    for name, spec in (("linear", LINEAR), ("hyperbolic", HYP)):
        report = verify_surface(ValueSurface(solve_boundary(spec, PARAMS)))
        assert report.smooth_fit_max_vu <= 1e-4
        assert report.smooth_fit_max_vupi <= 1e-4
        assert report.pde.max_below_rel <= 1e-6
        assert report.pde.max_above_signed <= 1e-8
        assert report.gradient.worst <= 1e-6
        assert report.premium.worst <= 1e-8
        assert report.passed
        details.append(
            f"{name}: sf {max(report.smooth_fit_max_vu, report.smooth_fit_max_vupi):.1e}"
            f" pde {report.pde.max_below_rel:.1e}/{report.pde.max_above_signed:.1e}"
            f" grad {report.gradient.worst:.1e} prem {report.premium.worst:.1e}"
        )
    elapsed = time.perf_counter() - t0
    _line(4, "value diagnostics", elapsed < 30.0, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 30.0


# the reflecting, stop_at_c and paired estimates of the run below before
# the kernel ended paths early; the same run with roulette switched off
# (ROULETTE_EPS = 0) reproduces them to within the truncation bound
UNENDED_05 = {"reflecting": 0.09681504107329932, "stop_at_c": 0.09321334367015445,
                 "paired": 0.09728848975058031}


def test_05_monte_carlo_optimality(monkeypatch):
    t0 = time.perf_counter()
    # the step of configs/linear_noise.json; the barrier is monitored inside
    # each step, so the coarse step costs no bias these bounds can see
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.05, horizon=150.0,
                    n_paths=20000, seed=1)
    surface = ValueSurface(solve_boundary(LINEAR, PARAMS))
    v_hat = surface.value(cfg.start_u, cfg.start_pi)

    reflect, stop, full = simulate_strategies(
        surface.curve, cfg, ["reflecting", "stop_at_c", "full_now"]).values()

    gap = abs(reflect.estimate - v_hat)
    assert gap <= 3.0 * reflect.std_error

    # common random numbers: paired differences, tie allowed but not a deficit
    ratios, diffs = {}, {}
    for name, base in (("stop_at_c", stop), ("full_now", full)):
        d = reflect.payoffs - base.payoffs
        se_d = float(np.std(d, ddof=1)) / math.sqrt(d.size)
        mean_d = float(np.mean(d))
        ratios[name] = mean_d / se_d if se_d > 0.0 else math.inf
        diffs[name] = mean_d, se_d
        assert mean_d >= -3.0 * se_d

    ref = stop_at_c_reference(surface.curve, cfg)
    ref_gap = abs(stop.estimate - ref)
    assert ref_gap <= 3.0 * stop.std_error

    # stop_at_c as a control variate with the known mean ref
    mean_d, se_d = diffs["stop_at_c"]
    paired_gap = abs(ref + mean_d - v_hat)
    assert paired_gap <= 3.0 * se_d

    # roulette is unbiased, not exact: each estimate lies within 3 paired SE
    # of the pass that ends no path early, on the same normals
    monkeypatch.setattr(simulate, "ROULETTE_EPS", 0.0)
    whole = simulate_strategies(surface.curve, cfg, ["reflecting", "stop_at_c"])
    ended = {"reflecting": reflect.payoffs - whole["reflecting"].payoffs,
             "stop_at_c": stop.payoffs - whole["stop_at_c"].payoffs}
    ended["paired"] = ended["reflecting"] - ended["stop_at_c"]
    for name, got in (("reflecting", reflect.estimate), ("stop_at_c", stop.estimate),
                      ("paired", ref + mean_d)):
        d = ended[name]
        assert abs(float(np.mean(d))) <= 3.0 * float(np.std(d, ddof=1)) / math.sqrt(d.size), name
        assert abs(got - float(np.mean(d)) - UNENDED_05[name]) <= reflect.truncation_bound, name
    # no chunk's draws hold more than the budget per path
    assert reflect.pass_counters["draw_bytes"] <= 8 * DRAW_BUDGET * cfg.n_paths

    elapsed = time.perf_counter() - t0
    _line(5, "monte carlo optimality", elapsed <= 60.0,
          f"|mean-Vhat| {gap:.2e} vs 3SE {3 * reflect.std_error:.2e}, "
          f"paired {paired_gap:.2e} vs 3SE {3 * se_d:.2e}, "
          f"dominance d/se stop {ratios['stop_at_c']:.1f} full {ratios['full_now']:.1f}, "
          f"stop-ref gap {ref_gap:.2e}, {elapsed:.1f}s")
    assert elapsed <= 60.0


def test_06_filter_calibration():
    t0 = time.perf_counter()
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.01, horizon=10.0,
                    n_paths=50000, seed=2)
    report = filter_calibration(LINEAR, PARAMS, cfg)
    err = abs(report.mean_pi - cfg.start_pi)
    assert err <= 3.0 * report.se_pi
    assert report.martingale_ok
    assert report.calibration_ok
    elapsed = time.perf_counter() - t0
    _line(6, "filter calibration", elapsed < 120.0,
          f"|mean-pi| {err:.2e} vs 3SE {3 * report.se_pi:.2e}, "
          f"deciles ok {report.calibration_ok}, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_07_discrete_ladder():
    t0 = time.perf_counter()
    ladder = ladder_from_spec(HYP, PARAMS, 5)
    term_err = abs(float(ladder.b[5]) - 25.0 / 26.0)
    assert term_err <= 1e-10
    worst_f = max(abs(boundary_equation(ladder, n, float(ladder.b[n]))) for n in range(5))
    assert worst_f <= 1e-13
    assert np.all(np.diff(ladder.b) > 0.0)
    suite = discrete_verification_suite(ladder)
    assert suite.passed
    mono = check_discrete_monotone(ladder)
    assert mono.all_hold
    elapsed = time.perf_counter() - t0
    _line(7, "discrete ladder", elapsed < 1.0,
          f"b5 err {term_err:.2e}, max |f_n| {worst_f:.2e}, "
          f"suite pass {suite.passed}, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_08_discrete_oracle():
    t0 = time.perf_counter()
    ladder = ladder_from_spec(HYP, PARAMS, 3)
    oracle = value_iteration_oracle(ladder)
    pts = np.linspace(0.05, 0.95, 20)
    gap = float(np.max(np.abs(ladder.value(0, pts) - oracle(pts))))
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-5 and elapsed < 2.0
    _line(8, "discrete oracle", ok, f"max |V0 - oracle| {gap:.2e}, {elapsed:.2f}s")
    assert gap <= 1e-5
    assert elapsed < 2.0


def _run(args):
    rc = cli.main(args)
    assert rc == 0, f"cli {args} -> exit {rc}"


def _assert_dirs_identical(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "manifest.json":
            ma = json.loads((a / name).read_text())
            mb = json.loads((b / name).read_text())
            ma.pop("wall_clock_seconds")
            mb.pop("wall_clock_seconds")
            assert ma == mb
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    return names


def test_09_reproducibility(tmp_path):
    t0 = time.perf_counter()
    model = {"r": 0.1, "k": 0.5}
    lin_rate = {"family": "linear_noise", "C": 0.25, "D": 0.9}
    hyp_rate = {"family": "hyperbolic_gamma", "A": 1.25, "beta": 0.2}

    def cfg_file(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps({"schema_version": 1, **doc}))
        return path

    solve_cfg = cfg_file("solve.json", {"model": model, "rate": lin_rate})
    for rep in ("a", "b"):
        _run(["solve", "--config", str(solve_cfg), "--grid", "20001",
              "--out", str(tmp_path / f"solve_{rep}"), "--quiet"])
    n_files = len(_assert_dirs_identical(tmp_path / "solve_a", tmp_path / "solve_b"))

    verify_cfg = cfg_file("verify.json", {
        "model": model, "rate": lin_rate,
        "boundary_csv": str(tmp_path / "solve_a" / "boundary.csv"),
    })
    for rep in ("a", "b"):
        _run(["verify", "--config", str(verify_cfg),
              "--out", str(tmp_path / f"verify_{rep}"), "--quiet"])
    n_files += len(_assert_dirs_identical(tmp_path / "verify_a", tmp_path / "verify_b"))

    sim_cfg = cfg_file("sim.json", {
        "model": model, "rate": lin_rate,
        "sim": {"start_u": 0.0, "start_pi": 0.5, "dt": 0.01, "horizon": 60.0,
                "n_paths": 400, "seed": 3, "write_paths": True,
                "trajectory_path": 2},
    })
    for rep in ("a", "b"):
        _run(["simulate", "--config", str(sim_cfg),
              "--out", str(tmp_path / f"sim_{rep}"), "--quiet"])
    n_files += len(_assert_dirs_identical(tmp_path / "sim_a", tmp_path / "sim_b"))

    disc_cfg = cfg_file("discrete.json", {
        "model": model, "rate": hyp_rate, "ladder": {"n_levels": 5},
    })
    for rep in ("a", "b"):
        _run(["discrete", "--config", str(disc_cfg),
              "--out", str(tmp_path / f"disc_{rep}"), "--quiet"])
    n_files += len(_assert_dirs_identical(tmp_path / "disc_a", tmp_path / "disc_b"))

    for rep in ("a", "b"):
        _run(["compare", "--config", str(disc_cfg),
              "--out", str(tmp_path / f"cmp_{rep}"), "--quiet"])
    n_files += len(_assert_dirs_identical(tmp_path / "cmp_a", tmp_path / "cmp_b"))

    plot_cfg = cfg_file("plot.json", {
        "model": model, "rate": lin_rate,
        "plot": {"boundary": str(tmp_path / "solve_a" / "boundary.csv"),
                 "trajectory": str(tmp_path / "sim_a" / "trajectory.csv"),
                 "ladder": str(tmp_path / "disc_a" / "ladder.csv")},
    })
    for rep in ("a", "b"):
        _run(["plot", "--config", str(plot_cfg),
              "--out", str(tmp_path / f"plot_{rep}"), "--quiet"])
    n_files += len(_assert_dirs_identical(tmp_path / "plot_a", tmp_path / "plot_b"))

    elapsed = time.perf_counter() - t0
    _line(9, "reproducibility", True,
          f"6 commands repeated, {n_files} files bit-identical "
          f"(manifests modulo wall clock), {elapsed:.0f}s")
