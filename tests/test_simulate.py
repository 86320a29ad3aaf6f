"""Monte Carlo layer: exact belief transition, strategy values, calibration."""

import hashlib
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import investlearn.simulate as sim_mod
from investlearn.boundary import BoundaryCurve, solve_boundary
from investlearn.model import (ConfigError, LinearNoise, ModelParams, Tabulated, rho,
                               stopping_threshold_c)
from investlearn.simulate import (
    SimConfig,
    SimResult,
    estimates,
    filter_calibration,
    sample_trajectory,
    save_paths,
    save_trajectory,
    simulate_strategies,
    stop_at_c_reference,
)

PARAMS = ModelParams(r=0.1, k=0.5)
LINEAR = LinearNoise(C=0.25, D=0.9)
PAIR = ["reflecting", "stop_at_c"]

# surface value at (0, 0.5) for the parameters above, pinned in test_value
V_AT_START = 0.09747346480428755


@pytest.fixture(scope="module")
def linear_curve():
    return solve_boundary(LINEAR, PARAMS)


@pytest.fixture(scope="module")
def batch(linear_curve):
    # one shared run per strategy at the shipped step; the strategies see
    # common random numbers, and reflecting and stop_at_c share one pass
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.05, horizon=150.0, n_paths=2000, seed=1)
    res = simulate_strategies(linear_curve, cfg, ["reflecting", "stop_at_c", "full_now"])
    return {"cfg": cfg, "reflect": res["reflecting"], "stop": res["stop_at_c"],
            "full": res["full_now"]}


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
        return (simulate_strategies(linear_curve, cfg, ["reflecting"])["reflecting"],
                simulate_strategies(linear_curve, cfg, ["stop_at_c"])["stop_at_c"],
                filter_calibration(LINEAR, PARAMS, cfg, n_bins=4))

    *base, base_filter = runs()
    monkeypatch.setattr(sim_mod, "DRAW_BUDGET", 7)
    *small, small_filter = runs()
    for b, s in zip(base, small):
        assert np.array_equal(b.payoffs, s.payoffs)
        assert np.array_equal(b.terminal_u, s.terminal_u)
        assert np.array_equal(b.terminal_pi, s.terminal_pi)
    assert base_filter == small_filter


# sha1 of tobytes() of the float64 result arrays for PINNED_CFG.  The
# reflecting and stop_at_c hashes were taken when the kernel began to end
# paths by absorption (15 and 12 of the 64 paths end so on this short
# horizon).  The frozen-capacity
# run draws no uniforms, and its hashes come from the kernel before that
# change: its theta and normals must not move.
PINNED_CFG = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=3.0, n_paths=64, seed=11)
PINNED_SHA1 = {
    "reflecting": {
        "payoffs": "d381f64db3becc797cecb3b070c4344c470ff3fa",
        "terminal_u": "894e98aa8c922aa635f4983cec32fd4beb565d3e",
        "terminal_pi": "def01f56454e10e840d5e787d3ee8160fcd60c7e",
    },
    "stop_at_c": {
        "payoffs": "ac0dd6171a9451afb93e682431b7e180124e8c52",
        "terminal_u": "762af398e5b0b73035f96984e7667bb8e0f3c85c",
        "terminal_pi": "cd77a279d2514432fe2b5f85976bf088b9746f43",
    },
    "frozen_capacity": {
        "theta": "9e86fe8a360060d08927652aaf30fa83bdb4c75f",
        "terminal_u": "5c3eb80066420002bc3dcc7ca4ab6efad7ed4ae5",
        "terminal_pi": "86b729e772aecba0bc5635e5911122896def0276",
    },
}


def test_results_pinned_bit_for_bit(linear_curve):
    runs = {
        "reflecting": simulate_strategies(linear_curve, PINNED_CFG, ["reflecting"])["reflecting"],
        "stop_at_c": simulate_strategies(linear_curve, PINNED_CFG, ["stop_at_c"])["stop_at_c"],
        # the run behind filter_calibration
        "frozen_capacity": sim_mod._run(
            LINEAR, PARAMS, PINNED_CFG, range(PINNED_CFG.n_paths),
            [sim_mod.Leg("frozen_capacity", PINNED_CFG.start_u, math.inf, None, 0.0,
                         np.zeros(PINNED_CFG.n_paths))])["frozen_capacity"],
    }
    for name, res in runs.items():
        for field, want in PINNED_SHA1[name].items():
            got = hashlib.sha1(getattr(res, field).astype(np.float64).tobytes()).hexdigest()
            assert got == want, (name, field)


# draw budgets the kernel's results must not depend on: the default, a
# larger one whose longer chunks loosen the chunk bound, and 7, whose
# chunks of 3 steps while every stream lives start the uniform streams
# inside a Philox block of four words and make dozens of chunks
BUDGETS = [sim_mod.DRAW_BUDGET, 256, 7]

C0 = float(stopping_threshold_c(LINEAR, PARAMS, 0.0))
PAIRED_CASES = {
    "pinned": PINNED_CFG,
    # every stop_at_c path has stopped by step 13; the reflecting leg runs on
    "stop_finishes_early": SimConfig(start_u=0.0, start_pi=C0 - 0.01, dt=0.05, horizon=150.0,
                                     n_paths=20, seed=3),
    # the live paths of the two legs part, so the stacked rows leave stream order
    "legs_on_disjoint_paths": SimConfig(start_u=0.0, start_pi=0.7, dt=0.05, horizon=30.0,
                                        n_paths=4, seed=24),
    # above b(1): the reflecting leg installs everything at time zero and has
    # no rows, and since c(0) < b(1) = c(1) stop_at_c is closed form
    "reflecting_without_rows": SimConfig(start_u=0.0, start_pi=0.95, dt=0.05, horizon=150.0,
                                         n_paths=20, seed=3),
}


def _assert_same_result(a, b):
    for field in ("payoffs", "theta", "terminal_u", "terminal_pi"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x is None and y is None) or np.array_equal(x, y), field
    assert a.counters == b.counters
    assert a.summary() == b.summary()


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("case", list(PAIRED_CASES))
def test_paired_run_matches_separate_runs(linear_curve, monkeypatch, case, budget):
    # full_now comes last: a closed-form leg after the stepped ones
    monkeypatch.setattr(sim_mod, "DRAW_BUDGET", budget)
    cfg = PAIRED_CASES[case]
    got = simulate_strategies(linear_curve, cfg, PAIR + ["full_now"])
    for name, res in got.items():
        _assert_same_result(res, simulate_strategies(linear_curve, cfg, [name])[name])
    assert got["full_now"].theta is None
    reflect, stop = got["reflecting"], got["stop_at_c"]
    if case == "pinned":
        for name, res in (("reflecting", reflect), ("stop_at_c", stop)):
            for field, want in PINNED_SHA1[name].items():
                got = hashlib.sha1(getattr(res, field).tobytes()).hexdigest()
                assert got == want, (name, field)
    elif case == "stop_finishes_early":
        # each leg counts its steps up to the end of its own last path: the
        # reflecting leg's last 7 live paths are absorbed at step 1 088
        assert stop.counters["steps"] == 13 and stop.counters["absorbed"] == 0
        assert reflect.counters["steps"] == 1088 and reflect.counters["absorbed"] == 7
    elif case == "reflecting_without_rows":
        assert reflect.initial_jump > 0.0 and reflect.counters["path_steps"] == 0
        assert stop.theta is None


def test_leg_without_rows_beside_a_stepped_leg(linear_curve):
    # the empty leg comes first, so every stacked row belongs to leg 1
    cfg = PAIRED_CASES["stop_finishes_early"]
    keys, n = range(cfg.n_paths), cfg.n_paths
    alone, = sim_mod._run(LINEAR, PARAMS, cfg, keys,
                          [sim_mod._stop_leg(linear_curve, cfg, n)]).values()
    empty, stop = sim_mod._run(LINEAR, PARAMS, cfg, keys,
                               [sim_mod.Leg("empty", 1.0, math.inf, None, 0.0, np.zeros(n)),
                                sim_mod._stop_leg(linear_curve, cfg, n)]).values()
    _assert_same_result(stop, alone)
    assert empty.theta is None
    assert empty.counters == {"steps": 0, "path_steps": 0, "barrier_crossings": 0,
                              "bridge_rows": 0, "absorbed": 0, "frac_alive_at_horizon": 0.0}
    assert np.all(empty.terminal_u == 1.0) and np.all(empty.terminal_pi == cfg.start_pi)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 - 1])
def test_streams_draw_what_their_keys_draw(seed):
    # every generator of a set is built before any draws, from one shared
    # key holder, so a generator that aliased the holder would draw another
    # key's numbers; the repeated key must give two equal, separate streams,
    # also when each is built past a position it draws up to
    keys = [7999, 0, 5, 5]
    first = sim_mod._streams(seed, keys)
    second = sim_mod._maximum_streams(seed, keys, 0)
    positioned = sim_mod._maximum_streams(seed, keys, 5)
    for i, gen, ugen, pgen in zip(keys, first, second, positioned):
        want = np.random.Generator(np.random.Philox(key=[seed, i]))
        assert gen.random() == want.random()
        assert np.array_equal(gen.standard_normal(8), want.standard_normal(8))
        want = np.random.Generator(np.random.Philox(key=[seed, i], counter=[0, 0, 1, 0]))
        assert np.array_equal(ugen.random(8), want.random(8))
        want = np.random.Generator(np.random.Philox(key=[seed, i], counter=[0, 0, 1, 0]))
        want.random(5)
        assert np.array_equal(pgen.random(8), want.random(8))


def test_filter_run_draws_no_uniforms(linear_curve, monkeypatch):
    def no_streams(seed, keys, at):
        raise AssertionError("uniform streams built for a run without a barrier")

    monkeypatch.setattr(sim_mod, "_maximum_streams", no_streams)
    filter_calibration(LINEAR, PARAMS, PINNED_CFG, n_bins=4)


SCREEN_CFGS = [SimConfig(start_u=0.0, start_pi=0.5, dt=0.05, horizon=150.0, n_paths=400, seed=s)
               for s in (1, 2)]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("cfg", SCREEN_CFGS, ids=["seed1", "seed2"])
def test_reach_screen_matches_unscreened_kernel(linear_curve, monkeypatch, cfg, budget):
    # with an infinite cap on sqrt(e) every row is in reach at every step,
    # so every live stream draws its uniforms: the kernel without the screen
    monkeypatch.setattr(sim_mod, "DRAW_BUDGET", budget)
    screened = simulate_strategies(linear_curve, cfg, PAIR)
    monkeypatch.setattr(sim_mod, "SQRT_E_CAP", math.inf)
    unscreened = simulate_strategies(linear_curve, cfg, PAIR)
    drawn = screened["reflecting"].pass_counters["uniforms_drawn"]
    assert 0 < drawn < unscreened["reflecting"].pass_counters["uniforms_drawn"]
    for a, b in zip(screened.values(), unscreened.values()):
        for field in ("payoffs", "theta", "terminal_u", "terminal_pi"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        bridged = a.counters.pop("bridge_rows")
        assert b.counters.pop("bridge_rows") == b.counters["path_steps"]
        assert a.counters == b.counters
        assert a.counters["barrier_crossings"] <= bridged < a.counters["path_steps"]
        # every sampled maximum reads a uniform its stream drew
        assert bridged <= drawn


def test_row_in_reach_without_uniforms_raises(linear_curve, monkeypatch):
    # a negative margin lets the chunk screen pass over streams whose rows
    # then come within reach; the kernel must refuse rather than sample M
    monkeypatch.setattr(sim_mod, "ROUNDING", -0.5)
    with pytest.raises(ArithmeticError, match="within reach of its barrier"):
        simulate_strategies(linear_curve, SCREEN_CFGS[0], PAIR)


@pytest.mark.parametrize("start", [0, 1, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 184, 256])
def test_skipping_uniforms_equals_drawing_them(start, n):
    # a stream built at uniform start + n (0, 1, 3, 4, 5, 184, 256, 257 among
    # them) reads what a stream built at 0 reads after drawing start + n,
    # and what one built at start reads after drawing n
    at = start + n
    built, = sim_mod._maximum_streams(5, [17], at)
    drawn, = sim_mod._maximum_streams(5, [17], 0)
    partly, = sim_mod._maximum_streams(5, [17], start)
    drawn.random(at)
    partly.random(n)
    want = drawn.random(12)
    assert np.array_equal(built.random(12), want)
    assert np.array_equal(partly.random(12), want)


class _Live:
    """A uniform stream that counts how many of its kind are alive."""

    alive = most = 0

    def __init__(self, gen):
        self.gen = gen
        _Live.alive += 1
        _Live.most = max(_Live.most, _Live.alive)

    def __del__(self):
        _Live.alive -= 1

    def random(self, out):
        self.gen.random(out=out)


@pytest.mark.parametrize("budget", BUDGETS)
def test_uniform_streams_live_a_block_at_a_time(linear_curve, monkeypatch, budget):
    # the second streams are built per chunk, no more than DRAW_BLOCK at a
    # time, and dropped before the next block's; every chunk starts on a
    # Philox block of four words, except at budget 7, whose 3-step chunks
    # start them inside one
    monkeypatch.setattr(sim_mod, "DRAW_BUDGET", budget)
    want = simulate_strategies(linear_curve, SCREEN_CFGS[0], PAIR)
    built, ats = [], set()
    build = sim_mod._maximum_streams

    def live_streams(seed, keys, at):
        built.append(len(keys))
        ats.add(at)
        return [_Live(gen) for gen in build(seed, keys, at)]

    monkeypatch.setattr(sim_mod, "_maximum_streams", live_streams)
    monkeypatch.setattr(sim_mod, "DRAW_BLOCK", 64)
    monkeypatch.setattr(_Live, "most", 0)
    got = simulate_strategies(linear_curve, SCREEN_CFGS[0], PAIR)
    reflect = got["reflecting"]
    assert max(built) == 64 and _Live.most == 64 and _Live.alive == 0
    assert sum(built) == reflect.pass_counters["maximum_streams_built"]
    assert reflect.pass_counters == want["reflecting"].pass_counters == \
        got["stop_at_c"].pass_counters
    assert any(at % 4 for at in ats) == (budget == 7)
    for name in PAIR:
        _assert_same_result(got[name], want[name])


def _frozen_run(cfg):
    # a pass without a barrier: it draws normals only
    leg = sim_mod.Leg("frozen", cfg.start_u, math.inf, None, 0.0, np.zeros(cfg.n_paths))
    return sim_mod._run(LINEAR, PARAMS, cfg, range(cfg.n_paths), [leg])["frozen"]


def test_draw_bytes_pinned(linear_curve):
    # the first chunk spans half the budget, 64 steps, and holds the normals
    # of all 400 streams and the uniforms of the 351 within reach
    reflect, stop = simulate_strategies(linear_curve, SCREEN_CFGS[0], PAIR).values()
    got = reflect.pass_counters["draw_bytes"]
    assert got == 8 * (sim_mod.DRAW_BUDGET // 2) * (400 + 351) == 384512
    assert stop.pass_counters == reflect.pass_counters
    # a pass without a hook takes the same path: it splits the budget too,
    # so 64 steps a chunk, and draws no uniforms
    frozen = _frozen_run(PINNED_CFG)
    assert frozen.pass_counters["draw_bytes"] == 8 * (sim_mod.DRAW_BUDGET // 2) * 64 == 32768
    assert frozen.pass_counters["chunks"] == 5


@pytest.mark.parametrize("budget", BUDGETS)
def test_chunks_draw_into_two_buffers(linear_curve, monkeypatch, budget):
    # every chunk's normals are a view of one buffer and its uniforms of
    # another, made once per pass, and the draws never hold more than the
    # budget per path, hooked or not; a transposed block of _draws holds at
    # most BLOCK_FLOATS draws, or one stream's
    monkeypatch.setattr(sim_mod, "DRAW_BUDGET", budget)
    draws, blocks = sim_mod._draws, []

    def spy(method, streams, pos, out):
        def counted(block):
            blocks.append(block.size * out.shape[0] <= sim_mod.BLOCK_FLOATS or block.size == 1)
            return streams(block)
        outs[method].append(out)
        return draws(method, counted, pos, out)

    monkeypatch.setattr(sim_mod, "_draws", spy)
    for hook in (True, False):
        outs = {"standard_normal": [], "random": []}
        cfg = SCREEN_CFGS[0] if hook else PINNED_CFG
        res = (simulate_strategies(linear_curve, cfg, PAIR)["reflecting"] if hook
               else _frozen_run(cfg))
        normals, uniforms = outs["standard_normal"], outs["random"]
        chunks = res.pass_counters["chunks"]
        assert len(normals) == len(uniforms) == chunks > 1
        # no stream of a pass without a hook comes within reach
        assert hook or not any(out.size for out in uniforms)
        for group in (normals, uniforms):
            # a chunk in which no stream is within reach draws no uniforms
            assert all(np.shares_memory(out, group[0]) for out in group if out.size)
        assert not any(np.shares_memory(out, normals[0]) for out in uniforms)
        assert res.pass_counters["draw_bytes"] <= 8 * budget * cfg.n_paths
    assert all(blocks)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("case", list(PAIRED_CASES))
def test_paired_pass_traces_the_sample_trajectory(linear_curve, monkeypatch, case, budget):
    # the trace of a batch path is the one-key run of its key, whether the
    # path lives to the horizon, dies within a chunk or has no row at all
    monkeypatch.setattr(sim_mod, "DRAW_BUDGET", budget)
    cfg = PAIRED_CASES[case]
    want = simulate_strategies(linear_curve, cfg, PAIR)
    assert want["reflecting"].trajectory is None
    for i in sorted({0, 1, cfg.n_paths - 1}):
        got = simulate_strategies(linear_curve, cfg, PAIR, i)
        for name in PAIR:
            _assert_same_result(got[name], want[name])
        traj = got["reflecting"].trajectory
        assert got["stop_at_c"].trajectory is None
        alone = sample_trajectory(linear_curve, cfg, i)
        assert traj.keys() == alone.keys()
        for name, value in alone.items():
            assert np.array_equal(traj[name], value), (case, i, name)


def test_paired_trace_rejects_a_path_outside_the_batch(linear_curve):
    cfg = PAIRED_CASES["legs_on_disjoint_paths"]
    for i in (-1, cfg.n_paths):
        with pytest.raises(ValueError, match="trajectory_path"):
            simulate_strategies(linear_curve, cfg, PAIR, i)


class _StepEnds:
    """Uniform stream stand-in that draws U = 0, so V = 1 and the sampled
    in-step maximum is the larger end of the step."""

    def random(self, out):
        out[:] = 0.0


def test_stop_at_c_exact_at_coarse_step(linear_curve, monkeypatch):
    # at dt = 0.2 the bridge maximum keeps stop_at_c on its closed form; the
    # same kernel looking only at the step ends stops late and misses
    cfg = SimConfig(start_u=0.0, start_pi=0.6, dt=0.2, horizon=150.0, n_paths=20000, seed=1)
    ref = stop_at_c_reference(linear_curve, cfg)
    bridge = simulate_strategies(linear_curve, cfg, ["stop_at_c"])["stop_at_c"]
    assert abs(bridge.estimate - ref) <= 3.0 * bridge.std_error

    monkeypatch.setattr(sim_mod, "_maximum_streams",
                        lambda seed, keys, at: [_StepEnds()] * len(keys))
    ends = simulate_strategies(linear_curve, cfg, ["stop_at_c"])["stop_at_c"]
    assert ref - ends.estimate > 3.0 * ends.std_error

    # a stopped path ends on the threshold and pays no overshoot
    c0 = float(stopping_threshold_c(LINEAR, PARAMS, 0.0))
    stopped = bridge.terminal_u == 1.0
    assert 0.5 < np.mean(stopped) < 1.0
    assert bridge.terminal_pi[stopped] == pytest.approx(np.full(stopped.sum(), c0), rel=1e-14)
    assert np.all(bridge.payoffs[stopped] < c0 - PARAMS.k)
    assert np.all(bridge.payoffs[~stopped] == 0.0)


def test_trajectory_ends_at_its_batch_path(linear_curve):
    cfg = PINNED_CFG
    batch_run = simulate_strategies(linear_curve, cfg, ["reflecting"])["reflecting"]
    # some paths reach capacity 1 before the horizon, some do not
    assert 0.0 < batch_run.frac_alive_at_horizon < 1.0
    for i in range(cfg.n_paths):
        traj = sample_trajectory(linear_curve, cfg, path_index=i)
        assert traj["theta"] == batch_run.theta[i]
        assert traj["u"][-1] == batch_run.terminal_u[i]
        assert traj["pi"][-1] == batch_run.terminal_pi[i]


# the shipped run of configs/linear_noise.json (seed 1) on fewer paths; a
# path's result does not depend on how many paths run beside it
SHIPPED_CFG = SimConfig(start_u=0.0, start_pi=0.5, dt=0.05, horizon=150.0, n_paths=8000, seed=1)


def test_absorption_counts(linear_curve):
    # a hookless leg stepped beside the hooked ones keeps every path to the
    # horizon, as it does alone
    cfg, n = SHIPPED_CFG, SHIPPED_CFG.n_paths
    frozen = sim_mod.Leg("frozen", cfg.start_u, math.inf, None, 0.0, np.zeros(n))
    legs = [sim_mod._reflect_leg(linear_curve, cfg, n), sim_mod._stop_leg(linear_curve, cfg, n)]
    got = sim_mod._run(LINEAR, PARAMS, cfg, range(n), legs + [frozen])
    for name in PAIR:
        counts = got[name].counters
        assert 0 < counts["absorbed"] <= counts["frac_alive_at_horizon"] * n
    alone, = sim_mod._run(LINEAR, PARAMS, cfg, range(n), [frozen]).values()
    _assert_same_result(got["frozen"], alone)
    assert alone.counters["absorbed"] == 0 and alone.counters["steps"] == cfg.n_steps


def test_absorbed_trajectory_ends_on_the_rule(linear_curve):
    # key 5 grows to U 0.69, then its belief falls and it is absorbed: at the
    # first check step where phi < log b(U) - r (T - t)
    cfg = replace(SHIPPED_CFG, n_paths=64)
    traj = sample_trajectory(linear_curve, cfg, 5)
    t, u, pi = traj["t"], traj["u"], traj["pi"]
    last = t.size - 1
    assert 0 < last < cfg.n_steps and 0.0 < u[-1] < 1.0
    checks = np.arange(sim_mod.ABSORB_STRIDE, last + 1, sim_mod.ABSORB_STRIDE)
    assert checks[-1] == last
    phi = np.log(pi[checks]) - np.log1p(-pi[checks])
    level = np.log(linear_curve.b_at(u[checks])) - PARAMS.r * (cfg.horizon - t[checks])
    below = phi < level
    assert below[-1] and not below[:-1].any()
    batch = simulate_strategies(linear_curve, cfg, PAIR, 5)["reflecting"].trajectory
    assert batch.keys() == traj.keys()
    for name, value in traj.items():
        assert np.array_equal(batch[name], value), name


def test_seed_reproducibility(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=2.0, n_paths=32, seed=1)
    r1 = simulate_strategies(linear_curve, cfg, ["reflecting"])["reflecting"]
    r2 = simulate_strategies(linear_curve, cfg, ["reflecting"])["reflecting"]
    assert np.array_equal(r1.payoffs, r2.payoffs)
    cfg2 = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=2.0, n_paths=32, seed=2)
    r3 = simulate_strategies(linear_curve, cfg2, ["reflecting"])["reflecting"]
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
    r = simulate_strategies(linear_curve, cfg, ["full_now"])["full_now"]
    assert r.estimate == pytest.approx(0.15, abs=1e-15)
    assert r.std_error == 0.0
    assert r.initial_jump == pytest.approx(0.15, abs=1e-15)


def test_full_now_at_breakeven_is_zero(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.01, horizon=1.0, n_paths=4, seed=5)
    r = simulate_strategies(linear_curve, cfg, ["full_now"])["full_now"]
    assert r.estimate == 0.0
    assert r.std_error == 0.0


def test_stop_at_c_immediate_above_threshold(linear_curve):
    # c(0) is about 0.744 here, so 0.8 stops at time zero
    cfg = SimConfig(start_u=0.0, start_pi=0.8, dt=0.01, horizon=1.0, n_paths=8, seed=5)
    r = simulate_strategies(linear_curve, cfg, ["stop_at_c"])["stop_at_c"]
    assert r.estimate == pytest.approx(0.3, abs=1e-15)
    assert np.all(r.terminal_u == 1.0)
    assert r.frac_alive_at_horizon == 0.0


def test_runs_without_a_step_draw_nothing(linear_curve, monkeypatch):
    # full_now and an immediate stop_at_c are closed form: no substream is
    # built, neither a path's first stream nor a stream of its maxima
    def no_streams(seed, keys, counter=None):
        raise AssertionError("substreams built for a run that takes no step")

    monkeypatch.setattr(sim_mod, "_streams", no_streams)
    # c(0.2) is below 0.8, so stop_at_c stops at time zero
    cfg = SimConfig(start_u=0.2, start_pi=0.8, dt=0.01, horizon=1.0, n_paths=8, seed=5)
    for kind in ("full_now", "stop_at_c"):
        r = simulate_strategies(linear_curve, cfg, [kind])[kind]
        assert np.all(r.payoffs == (0.8 - 0.5) * (1.0 - 0.2))
        assert r.initial_jump == (0.8 - 0.5) * (1.0 - 0.2)
        assert np.all(r.terminal_u == 1.0) and np.all(r.terminal_pi == 0.8)
        assert r.frac_alive_at_horizon == 0.0
        assert r.theta is None


def test_unknown_baseline_rejected(linear_curve):
    cfg = SimConfig(n_paths=4, horizon=1.0)
    for kind in ("hold", "frozen"):
        with pytest.raises(ValueError):
            simulate_strategies(linear_curve, cfg, [kind])[kind]
    # a name keys its result, so it may not repeat
    with pytest.raises(ValueError, match="distinct"):
        simulate_strategies(linear_curve, cfg, ["reflecting", "reflecting"])


def test_zero_horizon_above_boundary_pays_jump(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.99, dt=0.005, horizon=0.0, n_paths=4, seed=1)
    r = simulate_strategies(linear_curve, cfg, ["reflecting"])["reflecting"]
    assert r.estimate == pytest.approx(0.49, rel=1e-12)
    assert r.std_error == 0.0
    assert r.frac_alive_at_horizon == 0.0


def test_zero_horizon_below_boundary_pays_nothing(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.005, horizon=0.0, n_paths=4, seed=1)
    r = simulate_strategies(linear_curve, cfg, ["reflecting"])["reflecting"]
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
    d = asdict(rep)
    assert d["n_paths"] == 4000
    assert d["calibration_ok"] is True


@pytest.mark.parametrize("n_paths", [5, 10, 19])
def test_filter_calibration_rejects_small_batches(n_paths):
    # below two paths a bin, a bin's SE is NaN and no bin can fail
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.01, horizon=5.0, n_paths=n_paths, seed=3)
    with pytest.raises(ValueError, match="n_paths >= 2 n_bins"):
        filter_calibration(LINEAR, PARAMS, cfg)


def test_filter_calibration_smallest_batch():
    cfg = SimConfig(start_u=0.0, start_pi=0.5, dt=0.01, horizon=5.0, n_paths=20, seed=3)
    rep = filter_calibration(LINEAR, PARAMS, cfg)
    assert np.all(np.isfinite(rep.decile_se)) and np.isfinite(rep.se_pi)


def _result(payoffs):
    """A SimResult carrying only the payoffs and their mean and SE."""
    payoffs = np.asarray(payoffs, dtype=float)
    n = payoffs.size
    return SimResult(estimate=float(np.mean(payoffs)),
                     std_error=float(np.std(payoffs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
                     initial_jump=0.0, truncation_bound=0.0, frac_alive_at_horizon=0.0,
                     config=SimConfig(n_paths=n), payoffs=payoffs, theta=None,
                     terminal_u=np.zeros(n), terminal_pi=np.zeros(n), counters={},
                     pass_counters={})


@pytest.mark.parametrize("vhat, mc_ok", [(1.0, True), (2.0, False)])
def test_estimates_checks(vhat, mc_ok):
    # reflecting mean 1 (SE 0.204); paired differences -0.5 (SE 0.102) from
    # stop_at_c and 0.75 (SE 0.204) from full_now: stop_at_c beats the
    # reflecting strategy by 4.9 paired SE, and the paired estimate 1.5 - 0.5
    # is 1
    res = _result([1.0, 1.5, 0.5, 1.0])
    stop = _result([1.5, 1.75, 1.25, 1.5])
    full = _result([0.25] * 4)
    doc, checks = estimates({"reflecting": res, "stop_at_c": stop, "full_now": full}, 1.5, vhat)
    se = math.sqrt(0.125 / 3.0) / 2.0
    assert doc["diff_vs_stop_at_c"] == pytest.approx({"mean": -0.5, "se": se}, rel=1e-15)
    assert doc["diff_vs_full_now"] == pytest.approx({"mean": 0.75, "se": 2.0 * se}, rel=1e-15)
    assert doc["paired_estimate"]["estimate"] == 1.0
    assert doc["paired_estimate"]["abs_error_vs_value_hat"] == abs(1.0 - vhat)
    assert doc["error_over_se"] == pytest.approx(abs(1.0 - vhat) / res.std_error)
    assert (doc["value_hat"], doc["stop_at_c_reference"]) == (vhat, 1.5)
    assert checks == {
        "mc_within_3se": mc_ok,
        "mc_paired_within_3se": mc_ok,
        "not_below_stop_at_c": False,
        "not_below_full_now": True,
        "stop_matches_reference": True,
    }


def test_estimates_zero_se_has_no_ratio():
    # equal payoffs: the errors stand, but no SE can measure them
    doc, checks = estimates({"reflecting": _result([0.5] * 3), "stop_at_c": _result([0.25] * 3),
                             "full_now": _result([0.75] * 3)}, 0.5, 1.0)
    assert doc["abs_error_vs_value_hat"] == 0.5
    assert doc["error_over_se"] is None
    assert doc["paired_estimate"] == {"estimate": 0.75, "se": 0.0,
                                      "abs_error_vs_value_hat": 0.25, "error_over_se": None}
    assert not checks["mc_within_3se"] and not checks["mc_paired_within_3se"]


def test_estimates_rejects_single_path():
    # one path has no standard error, so no check can be judged
    with pytest.raises(ConfigError, match="n_paths >= 2"):
        estimates({"reflecting": _result([0.5]), "stop_at_c": _result([0.25]),
                   "full_now": _result([0.75])}, 0.25, 0.5)


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
        {"horizon": float("nan")},
        {"horizon": float("inf")},
        {"dt": float("inf")},
        {"dt": True},
        {"horizon": True},
        {"start_u": False},
        {"dt": "0.05"},
        {"horizon": 1e308},
        {"horizon": 10 ** 400},
        {"dt": 5e-324},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_config_accepts_ints_and_numpy_scalars():
    cfg = SimConfig(start_u=0, start_pi=np.float32(0.5), dt=np.float64(0.05),
                    horizon=np.int64(2), n_paths=1)
    assert cfg.n_steps == 40


def test_int_start_capacity_runs_as_a_float(linear_curve):
    # a config document may give start_u as the int 0; capacity held in an
    # int array would drop every growth of U below 1
    got = simulate_strategies(linear_curve, replace(PINNED_CFG, start_u=0), PAIR + ["full_now"])
    for name, res in got.items():
        assert res.terminal_u.dtype == np.float64
        _assert_same_result(res, simulate_strategies(linear_curve, PINNED_CFG, [name])[name])


def test_n_steps_rounds(linear_curve):
    # the last step ends at t = 0.9, so the horizon cut can discard up to
    # e^{-0.09}(1 - k): the bound is taken there, not at the horizon
    cfg = SimConfig(dt=0.3, horizon=1.0, n_paths=1)
    assert cfg.n_steps == 3
    for name, res in simulate_strategies(linear_curve, cfg, PAIR + ["full_now"]).items():
        want = math.exp(-PARAMS.r * 0.9) * (1.0 - PARAMS.k)
        assert res.truncation_bound == pytest.approx(want, rel=1e-12), name
    # a step count that rounds up ends past the horizon; the bound stays at it
    cfg = SimConfig(dt=0.3, horizon=1.1, n_paths=1)
    assert cfg.n_steps == 4
    res = simulate_strategies(linear_curve, cfg, ["reflecting"])["reflecting"]
    assert res.truncation_bound == pytest.approx(math.exp(-PARAMS.r * 1.1) * (1.0 - PARAMS.k),
                                                 rel=1e-12)


def test_nonmonotone_curve_rejected():
    u = np.linspace(0.0, 1.0, 1001)
    spec = Tabulated.from_rho2(1.0 / (4.0 * (1.0 - 0.1 * u - 0.8 * u * u)))
    curve = solve_boundary(spec, PARAMS)
    assert not curve.monotone
    cfg = SimConfig(n_paths=4, horizon=1.0)
    with pytest.raises(ValueError):
        simulate_strategies(curve, cfg, ["reflecting"])["reflecting"]
    with pytest.raises(ValueError):
        sample_trajectory(curve, cfg)


def test_trajectory_rejects_negative_path_index(linear_curve):
    cfg = SimConfig(start_u=0.0, start_pi=0.65, dt=0.01, horizon=0.5, n_paths=1, seed=9)
    with pytest.raises(ValueError, match="path_index"):
        sample_trajectory(linear_curve, cfg, path_index=-1)


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
    batch_run = simulate_strategies(linear_curve, cfg, ["reflecting"])["reflecting"]
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
    r = simulate_strategies(linear_curve, cfg, ["reflecting"])["reflecting"]
    out = tmp_path / "paths.csv"
    save_paths(r, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,theta,payoff,initial_jump,terminal_u,terminal_pi"
    assert len(lines) == 9
    pay = np.array([float(row.split(",")[2]) for row in lines[1:]])
    assert np.array_equal(pay, r.payoffs)
    thetas = {row.split(",")[1] for row in lines[1:]}
    assert thetas <= {"0", "1"}
