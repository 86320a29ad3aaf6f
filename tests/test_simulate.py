"""Monte Carlo layer: exact belief transition, strategy values, calibration."""

import hashlib
import math

import numpy as np
import pytest

import investlearn.simulate as sim_mod
from investlearn.boundary import BoundaryCurve, solve_boundary
from investlearn.model import LinearNoise, ModelParams, Tabulated, rho
from investlearn.simulate import (
    SimConfig,
    filter_calibration,
    sample_trajectory,
    save_paths,
    save_trajectory,
    simulate_baseline,
    simulate_reflecting,
    stop_at_c_reference,
)

PARAMS = ModelParams(r=0.1, k=0.5)
LINEAR = LinearNoise(C=0.25, D=0.9)

# surface value at (0, 0.5) for the parameters above, pinned in test_value
V_AT_START = 0.09747346480428755


@pytest.fixture(scope="module")
def linear_curve():
    return solve_boundary(LINEAR, PARAMS)


@pytest.fixture(scope="module")
def batch(linear_curve):
    # one shared run per strategy; the strategies see common random numbers
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.005, horizon=150.0, n_paths=2000, seed=1)
    return {
        "cfg": cfg,
        "reflect": simulate_reflecting(linear_curve, cfg),
        "stop": simulate_baseline(linear_curve, cfg, "stop_at_c"),
        "full": simulate_baseline(linear_curve, cfg, "full_now"),
    }


def test_log_odds_transition_moments(linear_curve):
    # with capacity pinned at zero the two-step update is exactly
    # Phi_T - Phi_0 ~ N((theta - 1/2) rho^2 T, rho^2 T), T = 2 dt
    # start_pi = 0.1 keeps the boundary 8 sigma away, so u never moves
    cfg = SimConfig(start_u=0.0, start_pi=0.1, dt=0.25, horizon=0.5, n_paths=1, seed=7)
    rho0 = float(rho(LINEAR, PARAMS, 0.0))
    big_t = 2.0 * cfg.dt
    n = 4000
    dphi = np.empty(n)
    theta = np.empty(n)
    phi0 = math.log(0.1) - math.log1p(-0.1)
    for i in range(n):
        traj = sample_trajectory(linear_curve, cfg, path_index=i)
        assert traj["u"].max() == 0.0
        p_end = traj["pi"][-1]
        dphi[i] = math.log(p_end) - math.log1p(-p_end) - phi0
        theta[i] = traj["theta"]

    frac = float(np.mean(theta))
    assert abs(frac - 0.1) <= 4.0 * math.sqrt(0.1 * 0.9 / n)
    for t in (0.0, 1.0):
        grp = dphi[theta == t]
        m = grp.size
        mean_exp = (t - 0.5) * rho0 * rho0 * big_t
        var_exp = rho0 * rho0 * big_t
        se_mean = float(np.std(grp, ddof=1)) / math.sqrt(m)
        assert abs(float(np.mean(grp)) - mean_exp) <= 4.0 * se_mean
        var = float(np.var(grp, ddof=1))
        se_var = var * math.sqrt(2.0 / (m - 1))
        assert abs(var - var_exp) <= 4.0 * se_var


def test_chunking_does_not_change_results(linear_curve, monkeypatch):
    cfg = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=3.0, n_paths=64, seed=11)

    def runs():
        return (simulate_reflecting(linear_curve, cfg),
                simulate_baseline(linear_curve, cfg, "stop_at_c"),
                filter_calibration(LINEAR, PARAMS, cfg, n_bins=4))

    *base, base_filter = runs()
    monkeypatch.setattr(sim_mod, "CHUNK_STEPS", 7)
    *small, small_filter = runs()
    for b, s in zip(base, small):
        assert np.array_equal(b.payoffs, s.payoffs)
        assert np.array_equal(b.terminal_u, s.terminal_u)
        assert np.array_equal(b.terminal_pi, s.terminal_pi)
    assert base_filter == small_filter


# sha1 of tobytes() of the float64 result arrays for PINNED_CFG, taken from
# the implementation that stepped each strategy in its own loop; the shared
# kernel must reproduce them bit for bit.  The reflecting hashes were taken
# with a piecewise-linear inverse h, which the test puts back as a fake.
PINNED_CFG = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=3.0, n_paths=64, seed=11)
PINNED_SHA1 = {
    "reflecting": {
        "payoffs": "b242a6ebb1b5997809d919494f8842e9426fb8cd",
        "terminal_u": "dd7d5773e0e06efbcb3e24fcc8256de2d7c9a5bd",
        "terminal_pi": "83c5f773f0c11e0c103bded959427018ba2dd7ab",
    },
    "stop_at_c": {
        "payoffs": "775ce8704a67d11e71789b471169ed63a1ff540d",
        "terminal_u": "cf7eede16d643fe90a78b31a4f9d4228940e9379",
        "terminal_pi": "533a92b86377e4a2b7c07dbf977b3a34e010a176",
    },
}


def test_results_pinned_bit_for_bit(linear_curve, monkeypatch):
    monkeypatch.setattr(BoundaryCurve, "h_at", lambda self, pi: np.interp(
        pi, self.b_values, self.u_grid, left=0.0, right=1.0))
    runs = {
        "reflecting": simulate_reflecting(linear_curve, PINNED_CFG),
        "stop_at_c": simulate_baseline(linear_curve, PINNED_CFG, "stop_at_c"),
    }
    for name, res in runs.items():
        for field, want in PINNED_SHA1[name].items():
            got = hashlib.sha1(getattr(res, field).astype(np.float64).tobytes()).hexdigest()
            assert got == want, (name, field)


def test_trajectory_ends_at_its_batch_path(linear_curve):
    cfg = PINNED_CFG
    batch_run = simulate_reflecting(linear_curve, cfg)
    # some paths reach capacity 1 before the horizon, some do not
    assert 0.0 < batch_run.frac_alive_at_horizon < 1.0
    for i in range(cfg.n_paths):
        traj = sample_trajectory(linear_curve, cfg, path_index=i)
        assert traj["theta"] == batch_run.theta[i]
        assert traj["u"][-1] == batch_run.terminal_u[i]
        assert traj["pi"][-1] == batch_run.terminal_pi[i]


def test_seed_reproducibility(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=2.0, n_paths=32, seed=1)
    r1 = simulate_reflecting(linear_curve, cfg)
    r2 = simulate_reflecting(linear_curve, cfg)
    assert np.array_equal(r1.payoffs, r2.payoffs)
    cfg2 = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=2.0, n_paths=32, seed=2)
    r3 = simulate_reflecting(linear_curve, cfg2)
    assert not np.array_equal(r1.terminal_pi, r3.terminal_pi)


def test_estimate_matches_surface_value(batch):
    r = batch["reflect"]
    assert abs(r.estimate - V_AT_START) <= 3.0 * r.std_error


def test_stop_at_c_matches_closed_form(batch, linear_curve):
    s = batch["stop"]
    ref = stop_at_c_reference(linear_curve, batch["cfg"])
    assert abs(s.estimate - ref) <= 3.0 * s.std_error


def test_reflecting_dominates_baselines(batch):
    r = batch["reflect"]
    for key in ("stop", "full"):
        d = r.payoffs - batch[key].payoffs
        se = float(np.std(d, ddof=1)) / math.sqrt(d.size)
        assert float(np.mean(d)) > 3.0 * se


def test_payoff_bounds_and_truncation(batch):
    r = batch["reflect"]
    # this boundary sits above k, so every installed increment earns
    assert np.all(r.payoffs >= 0.0)
    assert np.all(r.payoffs <= 1.0 - PARAMS.k + 1e-12)
    cfg = batch["cfg"]
    want = math.exp(-PARAMS.r * cfg.horizon) * (1.0 - PARAMS.k)
    assert r.truncation_bound == pytest.approx(want, rel=1e-12)


def test_summary_keys(batch):
    s = batch["reflect"].summary()
    assert set(s) == {
        "estimate", "std_error", "initial_jump", "truncation_bound",
        "frac_alive_at_horizon", "n_paths", "dt", "horizon", "seed",
        "start_u", "start_pi",
    }


def test_full_now_is_deterministic(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=1.0, n_paths=16, seed=5)
    r = simulate_baseline(linear_curve, cfg, "full_now")
    assert r.estimate == pytest.approx(0.15, abs=1e-15)
    assert r.std_error == 0.0
    assert r.initial_jump == pytest.approx(0.15, abs=1e-15)


def test_full_now_at_breakeven_is_zero(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.01, horizon=1.0, n_paths=4, seed=5)
    r = simulate_baseline(linear_curve, cfg, "full_now")
    assert r.estimate == 0.0
    assert r.std_error == 0.0


def test_frozen_pays_nothing(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=1.0, n_paths=8, seed=5)
    r = simulate_baseline(linear_curve, cfg, "frozen")
    assert r.estimate == 0.0
    assert np.all(r.payoffs == 0.0)
    assert r.frac_alive_at_horizon == 1.0


def test_stop_at_c_immediate_above_threshold(linear_curve):
    # c(0) is about 0.635 here, so 0.8 stops at time zero
    cfg = SimConfig(start_u=0.0, start_pi=0.8, dt=0.01, horizon=1.0, n_paths=8, seed=5)
    r = simulate_baseline(linear_curve, cfg, "stop_at_c")
    assert r.estimate == pytest.approx(0.3, abs=1e-15)
    assert np.all(r.terminal_u == 1.0)
    assert r.frac_alive_at_horizon == 0.0


def test_unknown_baseline_rejected(linear_curve):
    cfg = SimConfig(n_paths=4, horizon=1.0)
    with pytest.raises(ValueError):
        simulate_baseline(linear_curve, cfg, "hold")


def test_zero_horizon_above_boundary_pays_jump(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.99, dt=0.005, horizon=0.0, n_paths=4, seed=1)
    r = simulate_reflecting(linear_curve, cfg)
    assert r.estimate == pytest.approx(0.49, rel=1e-12)
    assert r.std_error == 0.0
    assert r.frac_alive_at_horizon == 0.0


def test_zero_horizon_below_boundary_pays_nothing(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.005, horizon=0.0, n_paths=4, seed=1)
    r = simulate_reflecting(linear_curve, cfg)
    assert r.estimate == 0.0
    assert r.initial_jump == 0.0
    assert r.frac_alive_at_horizon == 1.0


def test_filter_calibration(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.01, horizon=5.0, n_paths=4000, seed=3)
    rep = filter_calibration(LINEAR, PARAMS, cfg)
    assert rep.martingale_ok
    assert rep.calibration_ok
    assert abs(rep.mean_pi - 0.5) <= 3.0 * rep.se_pi
    assert len(rep.decile_mean_pi) == 10
    assert len(rep.decile_mean_theta) == 10
    d = rep.to_dict()
    assert d["n_paths"] == 4000
    assert d["calibration_ok"] is True


@pytest.mark.parametrize(
    "kwargs",
    [
        {"start_u": 1.0},
        {"start_u": -0.1},
        {"start_pi": 0.0},
        {"start_pi": 1.0},
        {"dt": 0.0},
        {"horizon": -1.0},
        {"n_paths": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_n_steps_rounds():
    cfg = SimConfig(dt=0.3, horizon=1.0, n_paths=1)
    assert cfg.n_steps == 3


def test_nonmonotone_curve_rejected():
    u = np.linspace(0.0, 1.0, 1001)
    spec = Tabulated.from_rho2(1.0 / (4.0 * (1.0 - 0.1 * u - 0.8 * u * u)))
    curve = solve_boundary(spec, PARAMS)
    assert not curve.monotone
    cfg = SimConfig(n_paths=4, horizon=1.0)
    with pytest.raises(ValueError):
        simulate_reflecting(curve, cfg)
    with pytest.raises(ValueError):
        sample_trajectory(curve, cfg)


def test_trajectory_shape_and_determinism(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=2.0, n_paths=8, seed=9)
    traj = sample_trajectory(linear_curve, cfg, path_index=3)
    assert traj["t"][0] == 0.0
    assert traj["t"].size == cfg.n_steps + 1
    assert np.all(np.diff(traj["u"]) >= 0.0)
    assert np.all((traj["pi"] > 0.0) & (traj["pi"] < 1.0))
    again = sample_trajectory(linear_curve, cfg, path_index=3)
    assert np.array_equal(traj["pi"], again["pi"])
    # the trajectory reuses the batch substream for its path index
    batch_run = simulate_reflecting(linear_curve, cfg)
    assert batch_run.theta[3] == traj["theta"]


def test_save_trajectory_roundtrip(linear_curve, tmp_path):
    cfg = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=0.5, n_paths=1, seed=9)
    traj = sample_trajectory(linear_curve, cfg)
    out = tmp_path / "traj.csv"
    save_trajectory(traj, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,U,Pi"
    assert len(lines) == traj["t"].size + 1
    got_pi = np.array([float(row.split(",")[2]) for row in lines[1:]])
    assert np.array_equal(got_pi, traj["pi"])


def test_save_paths_roundtrip(linear_curve, tmp_path):
    cfg = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=0.5, n_paths=8, seed=9)
    r = simulate_reflecting(linear_curve, cfg)
    out = tmp_path / "paths.csv"
    save_paths(r, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,theta,payoff,initial_jump,terminal_u,terminal_pi"
    assert len(lines) == 9
    pay = np.array([float(row.split(",")[2]) for row in lines[1:]])
    assert np.array_equal(pay, r.payoffs)
    thetas = {row.split(",")[1] for row in lines[1:]}
    assert thetas <= {"0", "1"}
