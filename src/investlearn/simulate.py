"""Monte Carlo validation of the reflecting expansion strategy.

The candidate value function is checked against a direct simulation of the
strategy it claims to price: hold capacity U at the running maximum of
h(sup Pi), where h is the inverse of the exercise boundary, and collect
(Pi_t - k) dU_t discounted at r.

The belief is simulated through its log odds Phi = log(Pi / (1 - Pi)).  Over
a step where the signal quality rho is held at its start-of-step value the
transition is exact, not an Euler approximation:

    Phi' = Phi + (theta - 1/2) rho^2 dt + rho sqrt(dt) Z,   Z ~ N(0, 1),

with theta the path's true state, drawn Bernoulli(pi_0) up front.  Within
such a step Phi is a Brownian motion with constant drift, so its maximum
over the step given both ends is sampled exactly (Glasserman, Monte Carlo
Methods in Financial Engineering, 2003, section 6.4), and a barrier crossed
and left again inside a step is not missed.  The discretization effects left
are that rho stays at its start-of-step value while U grows within a step,
and that a step's payoff is discounted at the step's midpoint.

Every stepped simulation runs through one kernel, `_run`.  It owns the
random numbers, the update above, and the bookkeeping of live and finished
paths.  A strategy gives every row a barrier in log odds and a hook, which
the kernel calls once per step on the live rows whose in-step maximum
reached their barrier; the hook books payoffs and says which rows grew (U
moved) and which died (U reached 1).  The kernel caches the drift
(theta - 1/2) rho^2 dt and the volatility rho sqrt(dt) per path and calls
rho again only on rows whose U grew.  The reflecting strategy's barrier is
logit(b(U)), and its hook moves U to h at the maximum and books the integral
of b - k over the growth; stop_at_c's barrier is logit(c(u0)); the filter
check runs with no hook.  A trajectory is a one-key run of the reflecting
strategy with recording on, so a plotted path is by construction one of the
batch paths.

Each path owns a counter-based substream keyed (seed, path index), so results
are reproducible bit for bit, independent of chunking, and paths are common
random numbers across strategies with the same seed.  Draw 0 of each stream
is the uniform that decides theta; normals follow.  A run with a hook draws
the uniforms of the in-step maxima from a second stream of the same key, so
theta and the normals of a path do not depend on whether it is monitored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .artifacts import write_csv
from .boundary import BoundaryCurve
from .model import ModelParams, RateSpec, rho, stopping_threshold_c, stopping_value_v

# Steps drawn at a time: the normals and the uniforms of a chunk together
# take 2 * CHUNK_STEPS float64 per live path.
CHUNK_STEPS = 256
DRAW_BLOCK = 256  # streams per transposed block in _draws


def _expit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _logit(p: float) -> float:
    return math.log(p) - math.log1p(-p)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.

    At the default step the discretization bias of the reflecting and
    stop_at_c estimates, measured on 200 000 paths of
    configs/linear_noise.json, is under half the standard error of a
    default 20 000-path run; at twice the step it is not.
    """

    start_u: float = 0.0
    start_pi: float = 0.5
    dt: float = 0.05
    horizon: float = 150.0
    n_paths: int = 20000
    seed: int = 1

    def __post_init__(self):
        if not 0.0 <= self.start_u < 1.0:
            raise ValueError(f"start_u must lie in [0, 1), got {self.start_u}")
        if not 0.0 < self.start_pi < 1.0:
            raise ValueError(f"start_pi must lie in (0, 1), got {self.start_pi}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.horizon < 0.0:
            raise ValueError("horizon must be nonnegative")
        if self.n_paths < 1:
            raise ValueError("need at least one path")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class SimResult:
    estimate: float
    std_error: float
    initial_jump: float
    truncation_bound: float
    frac_alive_at_horizon: float
    config: SimConfig
    payoffs: np.ndarray
    theta: Optional[np.ndarray]  # None for runs that take no step
    terminal_u: np.ndarray
    terminal_pi: np.ndarray
    counters: dict  # deterministic work counts of the run, for the manifest

    def summary(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "initial_jump": self.initial_jump,
            "truncation_bound": self.truncation_bound,
            "frac_alive_at_horizon": self.frac_alive_at_horizon,
            "n_paths": self.config.n_paths,
            "dt": self.config.dt,
            "horizon": self.config.horizon,
            "seed": self.config.seed,
            "start_u": self.config.start_u,
            "start_pi": self.config.start_pi,
        }


def _substreams(seed: int, keys: Sequence[int]) -> List[np.random.Generator]:
    return [np.random.Generator(np.random.Philox(key=[seed, i])) for i in keys]


def _maximum_streams(seed: int, keys: Sequence[int]) -> List[np.random.Generator]:
    """Second substream of each path, for the uniforms of its in-step maxima.

    It is Philox(key=[seed, i]).jumped(), 2^128 draws past the path's first
    stream, built directly at that counter (a third of the set-up cost).
    """
    return [np.random.Generator(np.random.Philox(key=[seed, i], counter=[0, 0, 1, 0]))
            for i in keys]


def _draw_theta(gens: List[np.random.Generator], start_pi: float) -> np.ndarray:
    unif = np.array([g.random() for g in gens])
    return (unif < start_pi).astype(float)


def _draws(method: str, gens: List[np.random.Generator], pos: np.ndarray, span: int) -> np.ndarray:
    """The next `span` draws gens[pos[j]].<method>() in column j: one row per
    step, so each step reads contiguous memory.

    Each stream fills a contiguous row of a block of DRAW_BLOCK streams,
    and the block is transposed into place.
    """
    out = np.empty((span, pos.size))
    block = np.empty((DRAW_BLOCK, span))
    for lo in range(0, pos.size, DRAW_BLOCK):
        keys = pos[lo:lo + DRAW_BLOCK]
        for row, i in enumerate(keys):
            getattr(gens[i], method)(out=block[row])
        out[:, lo:lo + keys.size] = block[:keys.size].T
    return out


# A strategy hook: hook(t, rows, idx, peak) -> (grew, died).  It sees the
# live rows idx of the batch whose in-step maximum of Phi, peak, reached
# their barrier during the step whose midpoint is t.  It may book payoffs,
# move rows.u and rows.barrier, and returns the subsets of idx whose U grew
# and of those that died, or None for either.  A dying row's phi is set to
# the level at which it died.
Hook = Callable[[float, SimpleNamespace, np.ndarray, np.ndarray],
                Tuple[Optional[np.ndarray], Optional[np.ndarray]]]


@dataclass
class _Run:
    theta: Optional[np.ndarray]
    terminal_u: np.ndarray
    terminal_pi: np.ndarray
    n_alive: int
    trace: Optional[dict]  # (t, U, Pi) of the first key when recording
    steps: int = 0  # steps taken
    path_steps: int = 0  # steps summed over paths, each up to its death
    crossings: int = 0  # (row, step) pairs handed to the hook


def _run(spec: RateSpec, params: ModelParams, cfg: SimConfig, keys: Sequence[int],
         u0: float, hook: Optional[Hook] = None, barrier: float = math.inf,
         record: bool = False) -> _Run:
    """Step the belief of the paths keyed `keys` from (u0, start_pi).

    Rows carry their output position `pos`, log odds `phi`, capacity `u`,
    `theta`, the cached `drift`, `vol` and variance `var` = vol^2 of a step,
    and the `barrier` in log odds that the hook acts on, `barrier` for every
    row at the start.  With a hook, every step also samples the exact
    maximum M of Phi over the step given both ends (a Brownian bridge with
    drift: Glasserman 2003, section 6.4),

        M = (a + b + sqrt((b - a)^2 - 2 var ln V)) / 2,   V ~ U(0, 1],

    and the hook sees the rows with M >= barrier.  A path that starts at
    u0 >= 1 is finished before its first step.  A dead row is frozen (zero
    drift and volatility, infinite barrier) until the chunk ends, when the
    batch is compacted.
    """
    gens = _substreams(cfg.seed, keys)
    theta = _draw_theta(gens, cfg.start_pi)
    ugens = _maximum_streams(cfg.seed, keys) if hook else None
    n = theta.size
    terminal_u = np.full(n, u0)
    terminal_pi = np.full(n, cfg.start_pi)
    times, us, phis = [0.0], [u0], []
    dt, sqdt = cfg.dt, math.sqrt(cfg.dt)
    n_steps = cfg.n_steps
    m = n if u0 < 1.0 else 0
    rows = SimpleNamespace(pos=np.arange(m), phi=np.full(m, _logit(cfg.start_pi)),
                           u=np.full(m, u0), theta=theta[:m].copy(), drift=np.empty(m),
                           vol=np.empty(m), var=np.empty(m), barrier=np.full(m, barrier))

    def refresh(sel):
        rv = rho(spec, params, rows.u[sel])
        rows.drift[sel] = (rows.theta[sel] - 0.5) * rv * rv * dt
        rows.vol[sel] = rv * sqdt
        rows.var[sel] = rows.vol[sel] * rows.vol[sel]

    refresh(slice(None))
    steps_done = dead_steps = crossings = 0
    n_live = m
    while steps_done < n_steps and n_live:
        span = min(CHUNK_STEPS, n_steps - steps_done)
        z = _draws("standard_normal", gens, rows.pos, span)
        if hook:
            # e = -2 ln V, with V = 1 - U in (0, 1], in place
            e = _draws("random", ugens, rows.pos, span)
            np.negative(e, out=e)
            np.log1p(e, out=e)
            e *= -2.0
        alive = np.ones(n_live, dtype=bool)

        for step in range(span):
            t = (steps_done + step + 1) * dt
            tracing = record and rows.pos[0] == 0 and alive[0]
            start = rows.phi
            rows.phi = start + rows.drift + rows.vol * z[step]
            if hook:
                d = rows.phi - start
                peak = start + 0.5 * (d + np.sqrt(d * d + rows.var * e[step]))
                idx = np.flatnonzero(peak >= rows.barrier)
                if idx.size:
                    crossings += idx.size
                    grew, died = hook(t - 0.5 * dt, rows, idx, peak[idx])
                    if died is not None and died.size:
                        terminal_u[rows.pos[died]] = rows.u[died]
                        terminal_pi[rows.pos[died]] = _expit(rows.phi[died])
                        alive[died] = False
                        rows.drift[died] = rows.vol[died] = rows.var[died] = 0.0
                        rows.barrier[died] = math.inf
                        dead_steps += died.size * (steps_done + step + 1)
                        n_live -= died.size
                    if grew is not None and grew.size:
                        refresh(grew)
            if tracing:
                times.append(t)
                us.append(rows.u[0])
                phis.append(rows.phi[0])
            if not n_live:
                span = step + 1
                break

        steps_done += span
        z = e = None  # free this chunk's draws before the next chunk's are made
        if not alive.all():
            rows = SimpleNamespace(**{name: col[alive] for name, col in vars(rows).items()})

    terminal_u[rows.pos] = rows.u
    terminal_pi[rows.pos] = _expit(rows.phi)
    trace = None
    if record:
        pis = np.concatenate(([cfg.start_pi], _expit(np.array(phis))))
        trace = {"t": np.array(times), "u": np.array(us, dtype=float), "pi": pis}
    return _Run(theta, terminal_u, terminal_pi, n_live, trace, steps_done,
                dead_steps + n_live * steps_done, crossings)


def _finish(cfg: SimConfig, params: ModelParams, jump: float, payoffs, run: _Run) -> SimResult:
    est = float(np.sum(payoffs) / cfg.n_paths)
    # a single path carries no spread information; report zero, not NaN
    se = float(np.std(payoffs, ddof=1) / math.sqrt(cfg.n_paths)) if cfg.n_paths > 1 else 0.0
    bound = math.exp(-params.r * cfg.horizon) * (1.0 - params.k)
    frac_alive = run.n_alive / cfg.n_paths
    return SimResult(
        estimate=est,
        std_error=se,
        initial_jump=jump,
        truncation_bound=bound,
        frac_alive_at_horizon=frac_alive,
        config=cfg,
        payoffs=payoffs,
        theta=run.theta,
        terminal_u=run.terminal_u,
        terminal_pi=run.terminal_pi,
        counters={"steps": run.steps, "path_steps": run.path_steps,
                  "barrier_crossings": run.crossings, "frac_alive_at_horizon": frac_alive},
    )


def _reflect(curve: BoundaryCurve, cfg: SimConfig, keys: Sequence[int],
             record: bool = False) -> Tuple[float, np.ndarray, _Run]:
    """Reflecting strategy on the paths keyed `keys`: (jump, payoffs, run).

    A row's barrier is logit(b(U)).  When the step's maximum M passes it,
    U grows to h(expit(M)); Pi rode the boundary meanwhile, so the step pays
    the integral of b(u) - k over the growth, discounted at the midpoint.
    """
    if not curve.monotone:
        raise ValueError("reflecting strategy needs a strictly increasing boundary")
    r, k = curve.params.r, curve.params.k
    u_start = max(cfg.start_u, float(curve.h_at(cfg.start_pi)))
    jump = (cfg.start_pi - k) * (u_start - cfg.start_u) if u_start > cfg.start_u else 0.0
    payoffs = np.full(len(keys), jump)
    phi_full = _logit(float(curve.b_values[-1]))  # where U reaches 1

    def hook(t, rows, idx, peak):
        u_old = rows.u[idx]
        u_new = np.maximum(curve.h_at(_expit(peak)), u_old)
        gain = curve.b_integral(u_new) - curve.b_integral(u_old) - k * (u_new - u_old)
        payoffs[rows.pos[idx]] += math.exp(-r * t) * gain
        rows.u[idx] = u_new
        full = u_new >= 1.0
        died = idx[full]
        rows.u[died] = 1.0
        rows.phi[died] = phi_full
        grew = idx[~full & (u_new > u_old)]
        b_new = curve.b_at(rows.u[grew])
        rows.barrier[grew] = np.log(b_new) - np.log1p(-b_new)
        return grew, died

    barrier = _logit(float(curve.b_at(u_start))) if u_start < 1.0 else math.inf
    run = _run(curve.spec, curve.params, cfg, keys, u_start, hook, barrier, record)
    return jump, payoffs, run


def simulate_reflecting(curve: BoundaryCurve, cfg: SimConfig) -> SimResult:
    """Run the reflecting strategy for the boundary in `curve`.

    The payoff of a path is (pi0 - k)(h(pi0) - u0)^+ collected at time zero if
    the start lies above the boundary, plus the discounted stream of
    (Pi - k) dU increments while U climbs toward 1.  A path ends when U
    reaches 1 or the horizon runs out; the reported truncation bound caps
    what the horizon cut can have discarded per path.
    """
    jump, payoffs, run = _reflect(curve, cfg, range(cfg.n_paths))
    return _finish(cfg, curve.params, jump, payoffs, run)


def simulate_baseline(curve: BoundaryCurve, cfg: SimConfig, kind: str) -> SimResult:
    """Reference strategies for the reflecting run.

    "full_now":  invest to capacity 1 immediately; deterministic payoff
                 (pi0 - k)(1 - u0).
    "frozen":    never invest; payoff zero.
    "stop_at_c": keep rho frozen at the start capacity and invest everything
                 the first time Pi reaches the one-shot threshold c(u0),
                 paying (c - k)(1 - u0) discounted at the midpoint of the
                 step in which the path's maximum reached c; its value is
                 (1 - u0) v(pi0; u0), which the estimate reproduces up to
                 the discounting within a step.  It steps the same random
                 numbers as the reflecting run.

    A run that takes no step (full_now, frozen, stop_at_c from pi0 >= c(u0))
    is closed form: it draws nothing, and its theta is None.
    """
    spec, params = curve.spec, curve.params
    r, k = params.r, params.k
    if kind not in ("full_now", "frozen", "stop_at_c"):
        raise ValueError(f"unknown baseline {kind!r}")
    n = cfg.n_paths
    if kind == "frozen":
        run = _Run(None, np.full(n, cfg.start_u), np.full(n, cfg.start_pi), n, None)
        return _finish(cfg, params, 0.0, np.zeros(n), run)

    # full_now is stop_at_c with the threshold 0
    cbar = float(stopping_threshold_c(spec, params, cfg.start_u)) if kind == "stop_at_c" else 0.0
    scale = 1.0 - cfg.start_u
    if cfg.start_pi >= cbar:
        # everything is installed at time zero: no path takes a step
        pay = (cfg.start_pi - k) * scale
        run = _Run(None, np.ones(n), np.full(n, cfg.start_pi), 0, None)
        return _finish(cfg, params, pay, np.full(n, pay), run)

    payoffs = np.zeros(n)
    phi_c = _logit(cbar)

    def hook(t, rows, idx, peak):
        payoffs[rows.pos[idx]] = math.exp(-r * t) * (cbar - k) * scale
        rows.u[idx] = 1.0
        rows.phi[idx] = phi_c
        return None, idx

    run = _run(spec, params, cfg, range(n), cfg.start_u, hook, phi_c)
    return _finish(cfg, params, 0.0, payoffs, run)


def stop_at_c_reference(curve: BoundaryCurve, cfg: SimConfig) -> float:
    """Closed-form value the stop_at_c baseline estimates."""
    spec, params = curve.spec, curve.params
    return float(
        (1.0 - cfg.start_u)
        * stopping_value_v(spec, params, cfg.start_u, cfg.start_pi)
    )


# ---------------------------------------------------------------------------
# filter diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationReport:
    """Frozen-capacity filter checks: martingale property and calibration."""

    start_pi: float
    horizon: float
    n_paths: int
    mean_pi: float
    se_pi: float
    martingale_ok: bool
    decile_mean_pi: List[float]
    decile_mean_theta: List[float]
    decile_se: List[float]
    calibration_ok: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def filter_calibration(
    spec: RateSpec,
    params: ModelParams,
    cfg: SimConfig,
    n_bins: int = 10,
) -> CalibrationReport:
    """Simulate the belief with capacity frozen at start_u and test it.

    Two checks at the horizon: E[Pi_T] = pi_0 (the belief is a martingale
    under the unconditional law), and within terminal-belief bins the
    fraction of paths with theta = 1 matches the mean belief (the filter is
    calibrated).  Both at three standard errors.
    """
    run = _run(spec, params, cfg, range(cfg.n_paths), cfg.start_u)
    theta, pi_end = run.theta, run.terminal_pi
    mean_pi = float(np.mean(pi_end))
    se_pi = float(np.std(pi_end, ddof=1) / math.sqrt(cfg.n_paths))
    martingale_ok = abs(mean_pi - cfg.start_pi) <= 3.0 * se_pi

    order = np.argsort(pi_end)
    bins = np.array_split(order, n_bins)
    d_pi, d_th, d_se = [], [], []
    ok = True
    for members in bins:
        p = pi_end[members]
        t = theta[members]
        mp = float(np.mean(p))
        mt = float(np.mean(t))
        # binomial spread of the theta average plus the belief spread
        se = float(
            math.sqrt(np.var(t, ddof=1) / members.size + np.var(p, ddof=1) / members.size)
        )
        se = max(se, 1e-12)
        d_pi.append(mp)
        d_th.append(mt)
        d_se.append(se)
        if abs(mp - mt) > 3.0 * se:
            ok = False

    return CalibrationReport(
        start_pi=cfg.start_pi,
        horizon=cfg.horizon,
        n_paths=cfg.n_paths,
        mean_pi=mean_pi,
        se_pi=se_pi,
        martingale_ok=martingale_ok,
        decile_mean_pi=d_pi,
        decile_mean_theta=d_th,
        decile_se=d_se,
        calibration_ok=ok,
    )


# ---------------------------------------------------------------------------
# trajectories and per-path output
# ---------------------------------------------------------------------------


def sample_trajectory(
    curve: BoundaryCurve, cfg: SimConfig, path_index: int = 0
) -> dict:
    """One path of (t, U, Pi) under the reflecting strategy, for inspection.

    This is the batch run restricted to the key `path_index`, with recording
    on, so for path_index < n_paths it ends exactly where that batch path
    ends.
    """
    _, _, run = _reflect(curve, cfg, [path_index], record=True)
    return dict(run.trace, theta=float(run.theta[0]), path_index=path_index)


def save_trajectory(traj: dict, csv_path: Union[str, Path]) -> None:
    write_csv(csv_path, ["t", "U", "Pi"], traj["t"], traj["u"], traj["pi"])


def save_paths(result: SimResult, csv_path: Union[str, Path]) -> None:
    n = result.config.n_paths
    write_csv(csv_path, ["path", "theta", "payoff", "initial_jump", "terminal_u", "terminal_pi"],
              np.arange(n), result.theta.astype(int), result.payoffs,
              np.full(n, result.initial_jump), result.terminal_u, result.terminal_pi)
