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

Every simulation runs through one kernel, `_run`.  It owns the random
numbers, the update above, and the bookkeeping of live and finished paths,
and it returns one result per leg.  A `Leg` is one strategy: its name, the
start capacity and barrier in log odds of its rows, a hook, its payoff at
time zero and the payoff array its hook books into.  The kernel calls the
hook once per step on the live rows whose in-step maximum reached their
barrier; the hook books payoffs and says which rows grew (U moved) and
which died (U reached 1).  The kernel caches the drift
(theta - 1/2) rho^2 dt and the volatility rho sqrt(dt) per path and calls
rho again only on rows whose U grew.  It samples a row's in-step maximum
only when the row is within reach of its barrier: the maximum exceeds the
larger end of the step by at most a fixed multiple of the volatility, so a
row further below its barrier than that cannot cross.  The reflecting
strategy's barrier is logit(b(U)), and its hook moves U to h at the maximum
and books the integral of b - k over the growth; stop_at_c's barrier is
logit(c(u0)); the filter check runs with no hook.  A leg that starts at
capacity 1 with no hook is closed form and draws nothing: full_now, and
stop_at_c from pi0 >= c(u0).  A trajectory is the trace the kernel keeps
of one path of its first leg, so a plotted path is by construction one of
the batch paths: `simulate_strategies` traces it within the batch, and
`sample_trajectory` runs its key alone, to the same numbers.

A path is also absorbed once what it can still earn is below
e^{-rT}(1 - k), which is at most the horizon cut's truncation bound.  Pi is
a martingale, so by Doob's maximal inequality it reaches
beta = expit(barrier) with probability at most Pi_t / beta, and only then
can a hook pay, at most (1 - k) discounted by e^{-rt}.  So the kernel ends a
live row once phi < log beta - r (T - t); it keeps its U < 1 and counts as
alive.  A row without a hook has barrier inf, so it is never absorbed,
never within reach and draws no uniform.

Several legs share one pass of the kernel: their rows are stacked, each row
knows its leg, and each step hands every leg's hook its own crossing rows.
`simulate_strategies` builds the legs it is named from one registry and
steps them together, so the random numbers of each path are drawn once for
all of them.

Each path owns a counter-based substream keyed (seed, path index), so results
are reproducible bit for bit, independent of chunking and of which legs
share a pass, and paths are common random numbers across strategies with
the same seed.  Draw 0 of each stream is the uniform that decides theta;
normals follow.  The uniforms of the in-step maxima come from a second
stream of the same key, so theta and the normals of a path do not depend on
whether it is monitored.  The draws are made a chunk of steps at a time
into two buffers made once per pass, which hold DRAW_BUDGET float64 per
path between them; as paths end, a chunk spans more steps.  A path draws
a chunk's uniforms only when its normals over the chunk can bring it within
reach of its barrier, from a second stream built at the counter of the
chunk's first step, so the uniform of step s is always number s of its
stream and the results are those of drawing them all.  The stream of key
(seed, i) is Philox(key=[seed, i]) (the second one started at counter
[0, 0, 1, 0]), built from a seed-sequence holder whose state is that key,
so that no generator gathers OS entropy it would then discard.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .artifacts import write_csv
from .boundary import BoundaryCurve
from .model import (ConfigError, ModelParams, RateSpec, _integer, _number, logit, rho,
                    stopping_threshold_c, stopping_value_v)

# The float64 per path of a pass (1 KiB) that a chunk's draws may hold,
# split evenly between its normals and its uniforms.  The two buffers are
# made once per pass, 8.2 MB at 8 000 paths and 20.5 MB at 20 000, and a
# chunk spans as many steps as they hold for the streams still live.
DRAW_BUDGET = 128
DRAW_BLOCK = 256  # streams per transposed block in _draws
BLOCK_FLOATS = 128 * DRAW_BLOCK  # float64 (256 KiB) a transposed block in _draws may hold

# The reach screen of `_run`.  A sampled maximum is at most the larger end
# of its step plus vol * sqrt(e) / 2, and e = -2 ln(1 - U) <= 106 ln 2 < 74,
# since random() is a multiple of 2^-53 below 1.  ROUNDING covers the
# rounding of the kernel's sums; it is absolute, as every barrier is the
# logit of a float in (0, 1) and so less than 745 in size.
SQRT_E_CAP = math.sqrt(74.0)
ROUNDING = 1e-9

# `_run` tests for absorption at the steps numbered a multiple of this
ABSORB_STRIDE = 16

# the statistical checks allow a gap of this many standard errors (the "3se"
# in the manifest's check names)
SE_MULTIPLE = 3.0


def _mean_se(x: np.ndarray) -> Tuple[float, float]:
    """Mean of the samples x and its standard error; a single sample carries
    no spread information, so its SE is zero, not NaN."""
    n = x.size
    return float(np.sum(x) / n), float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def estimates(results: Dict[str, SimResult], ref: float, vhat: float) -> Tuple[dict, dict]:
    """The `estimates.json` document and the five checks of a `simulate` run.

    results holds the reflecting, stop_at_c and full_now results on common
    random numbers by name, ref is the closed-form value stop_at_c
    estimates and vhat the surface value at the start.  stop_at_c is a
    control variate with a known mean (Glasserman 2003, 4.1): the paired
    estimate is ref plus the mean paired difference from it, with that
    difference's SE.  Each check allows SE_MULTIPLE standard errors.  A
    run of fewer than two paths has no standard error and raises
    ConfigError; an error over a zero SE (every payoff equal) is None.
    """
    res, stop, full = (results[name] for name in ("reflecting", "stop_at_c", "full_now"))
    if res.payoffs.size < 2:
        raise ConfigError(f"simulate needs n_paths >= 2 for a standard error, got {res.payoffs.size}")
    d_stop, se_stop = _mean_se(res.payoffs - stop.payoffs)
    d_full, se_full = _mean_se(res.payoffs - full.payoffs)
    err = abs(res.estimate - vhat)
    paired = ref + d_stop
    paired_err = abs(paired - vhat)
    doc = {
        "reflecting": res.summary(),
        "stop_at_c": stop.summary(),
        "full_now": full.summary(),
        "value_hat": vhat,
        "stop_at_c_reference": ref,
        "abs_error_vs_value_hat": err,
        "error_over_se": err / res.std_error if res.std_error > 0 else None,
        "diff_vs_stop_at_c": {"mean": d_stop, "se": se_stop},
        "diff_vs_full_now": {"mean": d_full, "se": se_full},
        "paired_estimate": {
            "estimate": paired,
            "se": se_stop,
            "abs_error_vs_value_hat": paired_err,
            "error_over_se": paired_err / se_stop if se_stop > 0 else None,
        },
    }
    checks = {
        "mc_within_3se": err <= SE_MULTIPLE * res.std_error,
        "mc_paired_within_3se": paired_err <= SE_MULTIPLE * se_stop,
        "not_below_stop_at_c": d_stop >= -SE_MULTIPLE * se_stop,
        "not_below_full_now": d_full >= -SE_MULTIPLE * se_full,
        "stop_matches_reference": abs(stop.estimate - ref) <= SE_MULTIPLE * stop.std_error,
    }
    return doc, checks


def _expit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _logit(p: float) -> float:
    # math.log, not model.logit: np.log rounds a few inputs differently, and
    # the pinned Monte Carlo outputs hold these bits
    return math.log(p) - math.log1p(-p)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.

    At the default step the discretization bias of the reflecting and
    stop_at_c estimates, measured on 200 000 paths of
    configs/linear_noise.json, is under half the standard error of the
    plain reflecting estimate of a default 20 000-path run (about 1.5e-4
    against 5.8e-4); at twice the step it is not.  The paired estimate's
    standard error is about 1.66e-4, so the same bias is about 0.9 of it.
    """

    start_u: float = 0.0
    start_pi: float = 0.5
    dt: float = 0.05
    horizon: float = 150.0
    n_paths: int = 20000
    seed: int = 1

    def __post_init__(self):
        # checked, not converted: summary() writes each value as given
        for name in ("start_u", "start_pi", "dt", "horizon"):
            if not math.isfinite(_number(getattr(self, name), name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not 0.0 <= self.start_u < 1.0:
            raise ConfigError(f"start_u must lie in [0, 1), got {self.start_u}")
        if not 0.0 < self.start_pi < 1.0:
            raise ConfigError(f"start_pi must lie in (0, 1), got {self.start_pi}")
        if not self.dt > 0.0:
            raise ConfigError("dt must be positive")
        if self.horizon < 0.0:
            raise ConfigError("horizon must be nonnegative")
        if not math.isfinite(float(self.horizon) / float(self.dt)):
            raise ConfigError(f"horizon / dt must be a finite step count, got horizon "
                              f"{self.horizon!r} and dt {self.dt!r}")
        _integer(self.n_paths, "n_paths", 1)
        # the first word of each path's Philox key; Philox(key=[seed, i])
        # rounded a seed from 2^63 up through float64, so such seeds never
        # had a key of their own
        if _integer(self.seed, "seed", 0) >= 2 ** 63:
            raise ConfigError(f"seed must be an integer in [0, 2^63), got {self.seed!r}")

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
    theta: Optional[np.ndarray]  # None for a closed-form strategy
    terminal_u: np.ndarray
    terminal_pi: np.ndarray
    counters: dict  # deterministic work counts of the strategy, for the manifest
    # uniforms drawn, second streams built, draw_bytes and chunks of the pass
    pass_counters: dict
    trajectory: Optional[dict] = None  # the traced path, on the first leg's result

    def summary(self) -> dict:
        """The scalar results and the run's config, as `estimates.json` holds them."""
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "initial_jump": self.initial_jump,
            "truncation_bound": self.truncation_bound,
            "frac_alive_at_horizon": self.frac_alive_at_horizon,
            **asdict(self.config),
        }


def _streams(seed: int, keys: Sequence[int], counter=None) -> List[np.random.Generator]:
    """Generator(Philox(key=[seed, i], counter=counter)) for each i in keys.

    Philox(key=...) first gathers OS entropy for a SeedSequence() that the
    key then overrides.  Handed a seed sequence instead, Philox takes its
    generate_state(2, uint64) as the key and gathers nothing; the holder
    below returns [seed, i].  Philox copies the key when it is built, so one
    holder serves the whole set.  The holder's class is made here, not at
    import, because numpy loads numpy.random on first use only, and the
    commands that never simulate should not pay for loading it.  The
    counter is handed over as one uint64 array, which Philox copies: a list,
    an int or None would cost each build a conversion, up to a third of it.
    """

    class Key(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return key

    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64) if counter is None else \
        np.asarray(counter, dtype=np.uint64)
    holder = Key()
    gens = []
    for i in keys:
        key[1] = i
        gens.append(np.random.Generator(np.random.Philox(holder, counter=counter)))
    return gens


def _maximum_streams(seed: int, keys: Sequence[int], at: int) -> List[np.random.Generator]:
    """Second substream of each path, for the uniforms of its in-step
    maxima, at uniform number `at`.

    It is Philox(key=[seed, i]).jumped(), 2^128 draws past the path's first
    stream, built directly at that counter plus at // 4: Philox makes four
    words per counter step, and random() takes one per number, so at % 4
    numbers are then drawn and discarded.
    """
    gens = _streams(seed, keys, counter=[at // 4, 0, 1, 0])
    if at % 4:
        discard = np.empty(at % 4)
        for gen in gens:
            gen.random(out=discard)
    return gens


def _draws(method: str, streams: Callable[[np.ndarray], List[np.random.Generator]],
           pos: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out, of shape (span, pos.size), with the next span draws
    <method>() of the stream of each position pos[j] in column j: one row
    per step, so each step reads contiguous memory.  streams(block) gives
    the generators of a block of at most DRAW_BLOCK positions, and no more
    than BLOCK_FLOATS draws a block; each fills a row of the block, which is
    transposed into place.
    """
    span = out.shape[0]
    size = max(1, min(DRAW_BLOCK, BLOCK_FLOATS // span))
    block = np.empty((size, span))
    views = list(block)  # one per row, made once
    for lo in range(0, pos.size, size):
        keys = pos[lo:lo + size]
        for row, gen in zip(views, streams(keys)):
            getattr(gen, method)(out=row)
        gen = None  # frees the block's last generator before the next block's are built
        out[:, lo:lo + keys.size] = block[:keys.size].T
    return out


# A strategy hook: hook(t, rows, idx, peak) -> (grew, died).  It sees the
# live rows idx of its leg whose in-step maximum of Phi, peak, reached their
# barrier during the step whose midpoint is t.  It may book payoffs, move
# rows.u and rows.barrier, and returns the subsets of idx whose U grew and
# of those that died, each an index array, empty if none.  A dying row's
# phi is set to the level at which it died.  Absorption relies on the
# payoff contract: a hook pays only on a crossing, and at most (1 - k) per
# unit of capacity left.
Hook = Callable[[float, SimpleNamespace, np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Leg:
    """One strategy as `_run` steps it: its rows start at capacity u0 with
    the barrier in log odds, and the hook acts on their crossings (None for
    a leg whose rows only step, with barrier inf); jump is the payoff of each
    path at time zero and payoffs the array the hook books into.  The name
    keys the leg's result, so the legs of a pass have distinct names."""

    name: str
    u0: float
    barrier: float
    hook: Optional[Hook]
    jump: float
    payoffs: np.ndarray


def _run(spec: RateSpec, params: ModelParams, cfg: SimConfig, keys: Sequence[int],
         legs: Sequence[Leg], traced: Optional[int] = None) -> Dict[str, SimResult]:
    """Step the belief of the paths keyed `keys` from (u0, start_pi) under
    each of `legs` in one pass; one SimResult per leg, by leg name.

    A leg with u0 < 1 has a row per key, and the rows of all legs are
    stacked in leg order; a leg with u0 >= 1 has no rows, its paths being
    finished before the first step.  A leg with no rows and no hook is
    closed form: its theta is None, and a pass of such legs alone builds no
    substreams.  A row carries its leg `leg`, output position `pos`, log
    odds `phi`, capacity `u`, `theta`, the cached `drift` and `vol` of a
    step, the `barrier` in log odds that its leg's hook acts on, and its
    `floor`.  The kernel samples the exact maximum M of Phi over a step
    given both ends a and b (a Brownian bridge with drift: Glasserman 2003,
    section 6.4),

        M = (a + b + sqrt((b - a)^2 - 2 vol^2 ln V)) / 2,   V ~ U(0, 1],

    and each leg's hook sees its rows with M >= barrier.  M is at most
    max(a, b) + SQRT_E_CAP vol / 2, so a row's floor is barrier -
    (SQRT_E_CAP vol / 2 + ROUNDING), and M is sampled (and counted in
    `bridged`) only on rows with max(a, b) >= floor; a row below its floor
    cannot cross.  A dead row is frozen (zero drift and volatility,
    infinite barrier and floor) until the chunk ends, when the terminal U
    and Pi of the dead rows, (legs x keys) arrays, are written and the
    batch is compacted.  After the hooks of each ABSORB_STRIDE-th step but
    the last, a row with phi < logb - r (T - t) ends as a dead row does and
    counts in `absorbed`; `logb` is log expit(barrier), -inf for an
    infinite one.  A row of a leg without a hook has barrier and floor inf
    and logb -inf, so it is never within reach and never absorbed.

    The legs share the substreams: the generators are built and theta is
    drawn once, and each chunk's normals are drawn once for the streams
    still live in any leg, one column per stream; a row reads its stream's
    column `col`.  The normals `z` and uniforms of a chunk are views of two
    buffers of the pass, DRAW_BUDGET / 2 float64 per path each.  A chunk
    spans as many steps as the normals buffer holds for the live streams,
    rounded down to a multiple of 4, so that the second streams start on a
    Philox block, and at most the steps left.  Over a chunk of `span` steps
    a row's log odds stay below
    phi + max(0, span drift) + vol max(0, S), with S the largest partial
    sum of its stream's normals in the chunk.  Only the streams with a row
    whose bound reaches its floor draw the chunk's uniforms, from second
    streams built DRAW_BLOCK at a time at the chunk's first step, so step s
    reads the uniform numbered s of its stream.  A row within reach whose
    stream drew none raises ArithmeticError.  Every path's streams are read
    in the order of a one-leg run, so each leg's result is bit for bit what
    it would be alone.  Given `traced`, the first leg's result carries the
    `trajectory` (t, U, Pi) of its row of keys[traced] after each step the
    row lives, its start alone if the leg has no rows.  The pass counters
    hold the uniforms drawn, the second streams built, `draw_bytes`, the
    most bytes one chunk's normals and uniforms took, and the `chunks`.
    """
    closed = [leg.u0 >= 1.0 and leg.hook is None for leg in legs]
    n, n_legs = len(keys), len(legs)
    gens = None if all(closed) else _streams(cfg.seed, keys)
    theta = np.zeros(n) if gens is None else \
        (np.array([g.random() for g in gens]) < cfg.start_pi).astype(float)
    stepped = np.array([j for j, leg in enumerate(legs) if leg.u0 < 1.0], dtype=int)
    # float, also where cfg.start_u is an int: an int array would truncate U
    u0 = np.array([leg.u0 for leg in legs], dtype=float)
    terminal_u = np.repeat(u0[:, None], n, axis=1)
    terminal_pi = np.full((n_legs, n), cfg.start_pi)
    dt, sqdt, n_steps = cfg.dt, math.sqrt(cfg.dt), cfg.n_steps
    m = n * stepped.size
    rows = SimpleNamespace(leg=np.repeat(stepped, n), pos=np.tile(np.arange(n), stepped.size),
                           phi=np.full(m, _logit(cfg.start_pi)), u=np.repeat(u0[stepped], n),
                           theta=np.tile(theta, stepped.size), drift=np.empty(m),
                           vol=np.empty(m), floor=np.empty(m), logb=np.empty(m),
                           barrier=np.repeat([legs[j].barrier for j in stepped], n))

    def refresh(sel):
        rv = rho(spec, params, rows.u[sel])
        rows.drift[sel] = (rows.theta[sel] - 0.5) * rv * rv * dt
        rows.vol[sel] = rv * sqdt
        rows.floor[sel] = rows.barrier[sel] - (0.5 * SQRT_E_CAP * rows.vol[sel] + ROUNDING)
        barrier = rows.barrier[sel]
        rows.logb[sel] = np.where(barrier < math.inf, -np.logaddexp(0.0, -barrier), -math.inf)

    refresh(slice(None))
    n_live = [n if leg.u0 < 1.0 else 0 for leg in legs]
    steps, dead_steps, crossings, absorbed = ([0] * n_legs for _ in range(4))
    bridged = np.zeros(n_legs, dtype=int)
    uniforms_drawn = maximum_streams_built = draw_bytes = chunks = 0
    # the pass's draw buffers, each chunk's z and uniforms a view of one
    z_buf, u_buf = np.empty(DRAW_BUDGET // 2 * n), np.empty(DRAW_BUDGET // 2 * n)

    def end(j, idx, done):
        # freeze the rows idx of leg j, which end at step done
        alive[idx] = False
        rows.drift[idx] = rows.vol[idx] = 0.0
        rows.barrier[idx] = rows.floor[idx] = math.inf
        rows.logb[idx] = -math.inf
        dead_steps[j] += idx.size * done
        n_live[j] -= idx.size
        if not n_live[j]:
            steps[j] = done

    def settle(sel):
        # terminal U and Pi of the rows sel
        terminal_u[rows.leg[sel], rows.pos[sel]] = rows.u[sel]
        terminal_pi[rows.leg[sel], rows.pos[sel]] = _expit(rows.phi[sel])

    # the traced row, -1 if none: the first leg's rows lead, in key order
    tr = traced if traced is not None and stepped.size and stepped[0] == 0 else -1
    trace, steps_done = [], 0
    while steps_done < n_steps and any(n_live):
        streams, col = np.unique(rows.pos, return_inverse=True)
        span = z_buf.size // streams.size
        span = min(span - span % 4 if span >= 4 else span, n_steps - steps_done)
        starts = np.searchsorted(rows.leg, np.arange(n_legs + 1))
        z = _draws("standard_normal", lambda block: [gens[i] for i in block], streams,
                   z_buf[:span * streams.size].reshape(span, streams.size))
        total, top = np.zeros(streams.size), np.zeros(streams.size)
        for zk in z:
            total += zk
            np.maximum(top, total, out=top)
        bound = rows.phi + np.maximum(span * rows.drift, 0.0) + rows.vol * top[col]
        need = np.zeros(streams.size, dtype=bool)
        need[col[bound >= rows.floor - ROUNDING]] = True
        drawing = streams[need]
        uniforms = _draws("random", lambda block: _maximum_streams(
            cfg.seed, [keys[i] for i in block], steps_done), drawing,
            u_buf[:span * drawing.size].reshape(span, drawing.size))
        chunks += 1
        uniforms_drawn += drawing.size * span
        maximum_streams_built += drawing.size
        draw_bytes = max(draw_bytes, z.nbytes + uniforms.nbytes)
        ucol = np.full(streams.size, -1)
        ucol[need] = np.arange(drawing.size)
        ucol = ucol[col]  # each row's column of `uniforms`, -1 if none
        alive = np.ones(rows.pos.size, dtype=bool)

        for step in range(span):
            done = steps_done + step + 1
            t = done * dt
            tracing = tr >= 0 and alive[tr]
            start = rows.phi
            rows.phi = start + rows.drift + rows.vol * z[step][col]
            near = np.flatnonzero(np.maximum(start, rows.phi) >= rows.floor)
            if near.size:
                cols = ucol[near]
                if cols.min() < 0:
                    raise ArithmeticError(
                        f"path {rows.pos[near[cols.argmin()]]} came within reach of its barrier "
                        f"at step {done}, but its chunk bound ruled that out")
                # e = -2 ln V, with V = 1 - U in (0, 1], in place
                e = uniforms[step][cols]
                np.negative(e, out=e)
                np.log1p(e, out=e)
                e *= -2.0
                a = start[near]
                d = rows.phi[near] - a
                vol = rows.vol[near]
                peak = a + 0.5 * (d + np.sqrt(d * d + vol * vol * e))
                hit = peak >= rows.barrier[near]
                crossed, peak = near[hit], peak[hit]
                bridged += np.diff(np.searchsorted(near, starts))
                cuts = np.searchsorted(crossed, starts)
                for j in range(n_legs):
                    idx = crossed[cuts[j]:cuts[j + 1]]
                    if not idx.size:
                        continue
                    crossings[j] += idx.size
                    grew, died = legs[j].hook(t - 0.5 * dt, rows, idx, peak[cuts[j]:cuts[j + 1]])
                    if died.size:
                        end(j, died, done)
                    if grew.size:
                        refresh(grew)
            if done % ABSORB_STRIDE == 0 and done < n_steps:
                out = np.flatnonzero(rows.phi < rows.logb - params.r * (cfg.horizon - t))
                cuts = np.searchsorted(out, starts)
                for j in range(n_legs):
                    idx = out[cuts[j]:cuts[j + 1]]
                    if idx.size:
                        absorbed[j] += idx.size
                        end(j, idx, done)
            if tracing:
                trace.append((t, rows.u[tr], rows.phi[tr]))
            if not any(n_live):
                span = step + 1
                break

        steps_done += span
        settle(~alive)
        tr = int(np.count_nonzero(alive[:tr])) if tr >= 0 and alive[tr] else -1
        rows = SimpleNamespace(**{name: c[alive] for name, c in vars(rows).items()})

    settle(slice(None))
    truncation = math.exp(-params.r * min(cfg.horizon, n_steps * dt)) * (1.0 - params.k)
    shared = {"uniforms_drawn": uniforms_drawn, "maximum_streams_built": maximum_streams_built,
              "draw_bytes": draw_bytes, "chunks": chunks}
    results = {}
    for j, leg in enumerate(legs):
        if n_live[j]:
            steps[j] = steps_done
        frac_alive = (n_live[j] + absorbed[j]) / n
        estimate, std_error = _mean_se(leg.payoffs)
        results[leg.name] = SimResult(
            estimate=estimate,
            std_error=std_error,
            initial_jump=leg.jump,
            truncation_bound=truncation,
            frac_alive_at_horizon=frac_alive,
            config=cfg,
            payoffs=leg.payoffs,
            theta=None if closed[j] else theta,
            terminal_u=terminal_u[j],
            terminal_pi=terminal_pi[j],
            counters={"steps": steps[j], "path_steps": dead_steps[j] + n_live[j] * steps[j],
                      "barrier_crossings": crossings[j], "bridge_rows": int(bridged[j]),
                      "absorbed": absorbed[j], "frac_alive_at_horizon": frac_alive},
            pass_counters=dict(shared),
        )
    if traced is not None:
        t, u, phi = np.array([(0.0, legs[0].u0, 0.0)] + trace).T
        pi = np.concatenate(([cfg.start_pi], _expit(phi[1:])))
        results[legs[0].name].trajectory = {"t": t, "u": u, "pi": pi, "theta": float(theta[traced]),
                                            "path_index": keys[traced]}
    return results


def _reflect_leg(curve: BoundaryCurve, cfg: SimConfig, n: int) -> Leg:
    """The reflecting strategy on n paths.  A path collects
    (pi0 - k)(h(pi0) - u0)^+ at time zero if the start lies above the
    boundary, plus the discounted stream of (Pi - k) dU increments while U
    climbs toward 1; the payoffs start at that jump.

    A row's barrier is logit(b(U)).  When the step's maximum M passes it,
    U grows to h(expit(M)); Pi rode the boundary meanwhile, so the step pays
    the integral of b(u) - k over the growth, discounted at the midpoint.
    b and its integral at the new U come from one knot search.
    """
    r, k = curve.params.r, curve.params.k
    u_start = max(cfg.start_u, float(curve.h_at(cfg.start_pi)))
    jump = (cfg.start_pi - k) * (u_start - cfg.start_u) if u_start > cfg.start_u else 0.0
    payoffs = np.full(n, jump)
    phi_full = _logit(float(curve.b_values[-1]))  # where U reaches 1
    integral = curve.b_integral(np.full(n, u_start))  # of b from 0 to each path's U

    def hook(t, rows, idx, peak):
        pos = rows.pos[idx]
        u_old = rows.u[idx]
        u_new = np.maximum(curve.h_at(_expit(peak)), u_old)
        b_new, area = curve.b_and_integral(u_new)
        gain = area - integral[pos] - k * (u_new - u_old)
        integral[pos] = area
        payoffs[pos] += math.exp(-r * t) * gain
        rows.u[idx] = u_new
        full = u_new >= 1.0
        died = idx[full]
        rows.u[died] = 1.0
        rows.phi[died] = phi_full
        moved = ~full & (u_new > u_old)
        grew = idx[moved]
        rows.barrier[grew] = logit(b_new[moved])
        return grew, died

    barrier = _logit(float(curve.b_at(u_start))) if u_start < 1.0 else math.inf
    return Leg("reflecting", u_start, barrier, hook, jump, payoffs)


def _full_leg(curve: BoundaryCurve, cfg: SimConfig, n: int) -> Leg:
    """full_now on n paths: everything is installed at time zero, paying
    (pi0 - k)(1 - u0), so the leg has no rows and no hook."""
    jump = (cfg.start_pi - curve.params.k) * (1.0 - cfg.start_u)
    return Leg("full_now", 1.0, math.inf, None, jump, np.full(n, jump))


def _stop_leg(curve: BoundaryCurve, cfg: SimConfig, n: int) -> Leg:
    """stop_at_c on n paths: rho stays frozen at the start capacity, and a
    path invests everything the first time Pi reaches the one-shot threshold
    c(u0).  The barrier is logit(c(u0)); a crossing pays (c - k)(1 - u0)
    discounted at the step midpoint and ends the path on the threshold, so
    the estimate reproduces (1 - u0) v(pi0; u0) up to the discounting within
    a step.  When pi0 >= c(u0) every path stops at time zero, as in
    `_full_leg`."""
    spec, params = curve.spec, curve.params
    r, k = params.r, params.k
    cbar = float(stopping_threshold_c(spec, params, cfg.start_u))
    if cfg.start_pi >= cbar:
        return replace(_full_leg(curve, cfg, n), name="stop_at_c")
    scale = 1.0 - cfg.start_u
    payoffs = np.zeros(n)
    phi_c = _logit(cbar)

    def hook(t, rows, idx, peak):
        payoffs[rows.pos[idx]] = math.exp(-r * t) * (cbar - k) * scale
        rows.u[idx] = 1.0
        rows.phi[idx] = phi_c
        return idx[:0], idx

    return Leg("stop_at_c", cfg.start_u, phi_c, hook, 0.0, payoffs)


_STRATEGIES = {"reflecting": _reflect_leg, "stop_at_c": _stop_leg, "full_now": _full_leg}


def simulate_strategies(curve: BoundaryCurve, cfg: SimConfig, names: Sequence[str],
                        trajectory_path: Optional[int] = None) -> Dict[str, SimResult]:
    """The strategies `names` ("reflecting", "stop_at_c", "full_now") for
    the boundary in `curve`, stepped in one pass; one SimResult per name.

    The payoffs of the strategies are common random numbers, and each
    result equals, bit for bit, that of a pass of its strategy alone.  A
    path ends when U reaches 1, when the horizon runs out, or by absorption
    (see the module docstring); the reported truncation bound,
    e^{-rT'}(1 - k) at the time T' = min(horizon, n_steps dt) of the last
    simulated step, caps what either cut can have discarded per path in
    expectation.
    full_now, and stop_at_c from pi0 >= c(u0), are closed form: they draw
    nothing, and their theta is None.  Given a `trajectory_path` below
    n_paths, the pass also traces that path of the first strategy, and its
    result's `trajectory` equals sample_trajectory(curve, cfg,
    trajectory_path) when that strategy is the reflecting one.
    """
    if not set(names) <= _STRATEGIES.keys() or len(set(names)) < len(names):
        raise ValueError(f"strategies must be distinct names of {list(_STRATEGIES)}, "
                         f"got {list(names)}")
    if trajectory_path is not None and not 0 <= trajectory_path < cfg.n_paths:
        raise ValueError(f"trajectory_path must lie in [0, {cfg.n_paths}), got {trajectory_path}")
    legs = [_STRATEGIES[name](curve, cfg, cfg.n_paths) for name in names]
    return _run(curve.spec, curve.params, cfg, range(cfg.n_paths), legs, trajectory_path)


def simulate_reflecting(curve: BoundaryCurve, cfg: SimConfig) -> SimResult:
    """The reflecting strategy alone."""
    return simulate_strategies(curve, cfg, ["reflecting"])["reflecting"]


def simulate_baseline(curve: BoundaryCurve, cfg: SimConfig, kind: str) -> SimResult:
    """The strategy `kind` ("full_now" or "stop_at_c") alone."""
    return simulate_strategies(curve, cfg, [kind])[kind]


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
    calibrated).  Both at SE_MULTIPLE standard errors.  Every bin needs two
    paths for its SE, so n_paths below 2 n_bins raises ValueError.
    """
    n = cfg.n_paths
    if n < 2 * n_bins:
        raise ValueError(f"filter_calibration needs n_paths >= 2 n_bins = {2 * n_bins}, got {n}")
    leg = Leg("filter", cfg.start_u, math.inf, None, 0.0, np.zeros(n))
    res = _run(spec, params, cfg, range(n), [leg])["filter"]
    theta, pi_end = res.theta, res.terminal_pi
    mean_pi, se_pi = _mean_se(pi_end)
    martingale_ok = abs(mean_pi - cfg.start_pi) <= SE_MULTIPLE * se_pi

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
        if abs(mp - mt) > SE_MULTIPLE * se:
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

    This is the batch run restricted to the key `path_index`, traced, so for
    path_index < n_paths it ends exactly where that batch path ends.
    """
    if path_index < 0:
        raise ValueError(f"path_index must be nonnegative, got {path_index}")
    res = _run(curve.spec, curve.params, cfg, [path_index], [_reflect_leg(curve, cfg, 1)], traced=0)
    return res["reflecting"].trajectory


def save_trajectory(traj: dict, csv_path: Union[str, Path]) -> None:
    write_csv(csv_path, ["t", "U", "Pi"], traj["t"], traj["u"], traj["pi"])


def save_paths(result: SimResult, csv_path: Union[str, Path]) -> None:
    n = result.config.n_paths
    write_csv(csv_path, ["path", "theta", "payoff", "initial_jump", "terminal_u", "terminal_pi"],
              np.arange(n), result.theta.astype(int), result.payoffs,
              np.full(n, result.initial_jump), result.terminal_u, result.terminal_pi)
