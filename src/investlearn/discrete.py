"""Discrete capacity ladder: expansion in N fixed increments.

Capacity moves on levels u_n = n/N with decay exponents gamma_n = gamma(u_n)
(strictly decreasing, terminal gamma_N > 1).  Backward from the top level,

    b_N = c_N,           A_N = (b_N - k) / G_N(b_N),
    f_n(b) = (gamma_n + k - 1) b - gamma_n k + (gamma_n - gamma_{n+1}) V_{n+1}(b),
    b_n = unique root of f_n in (0, c_n),
    A_n = (b_n - k + V_{n+1}(b_n)) / G_n(b_n),

with V_n(pi) = A_n G_n(pi) below b_n and (pi - k) + V_{n+1}(pi) above.
f_n(0+) = -gamma_n k < 0 and f_n(c_n) = (gamma_n - gamma_{n+1}) V_{n+1}(c_n) > 0
bracket the root.  f_n is strictly increasing, since V_{n+1} is nondecreasing
and f_n' = gamma_n + k - 1 + (gamma_n - gamma_{n+1}) V_{n+1}' >= gamma_n + k - 1 > 0,
and convex, since V_{n+1} is.  So Newton's method started right of the root
falls monotonically onto it; it starts at min(c_n, b_{n+1}), where V_{n+1} is
usually held on level n + 1 alone, and falls back to the bracket's midpoint
whenever a step would leave the bracket.

V_n(pi) = j (pi - k) + A_m G_m(pi) is read by one lookup: pi stops through
levels n..m-1, m = n + j, and is held on the first level whose threshold
exceeds it, which is where the running maximum of b_n, b_{n+1}, ... does,
ordered or not.  A_{N+1} = 0, and A_m G_m is exp(log A_m + log G_m(pi)), so a
ladder whose A_n or G_n(b_n) alone leaves the float range still solves.

The verification suite re-checks a solved ladder against its Bellman
characterization.  Each V_n is linear on the levels it stops through and
A_m G_m on the level m that holds pi, so its pi-derivatives are closed form
(G_m' = G_m (gamma_m - pi)/(pi (1-pi)), G_m'' = G_m gamma_m (gamma_m - 1)/(pi (1-pi))^2)
and the suite differences nothing.

The module also carries an independent cross-check, value_iteration_oracle
(named for the value iteration it replaced, and kept for its callers).  It
solves each level as a discrete linear complementarity problem on a log-odds
grid, exactly, by one Brennan-Schwartz pass, and certifies each level by its
complementarity residual.  It reads only rho_n^2, k and r and shares no code
with the closed-form assembly beyond numpy, which is the point.  Only its two
recurrences step node by node in Python: the pivots, and the projected
back-substitution below the stretch at the top where the level stops; the
rest is numpy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, List, Tuple, Union

import numpy as np

from .artifacts import write_csv
from .model import (ConfigError, ModelParams, RateSpec, SIGN_TOL, _threshold_c, _worst,
                    gamma as gamma_of, log_G)

# The root finder stops at |f_n| <= max(ROOT_F_TOL, ROOT_F_REL 2 gamma_n k)
# (root_tol): 2 gamma_n k is the size of f_n's terms at its root, and their
# roundoff grows with gamma_n.
ROOT_F_TOL = 1e-13
ROOT_F_REL = 1e-14

# The bound of each verdict of `DiscreteCheckReport.checks()`, read from here
# alone; `discrete_report.json` records the table as its `tolerances`.
TOLERANCES = {"bellman": 1e-10, "generator": 1e-8, "smooth_fit": 1e-4}

N_PI = 999  # beliefs of the verification suite's grid

# The oracle's log-odds grid [-ORACLE_PHI_MAX, ORACLE_PHI_MAX], shared by all
# levels, and the complementarity residual it accepts per level (see
# oracle_residual_tol; the test ladders leave at most 3e-11).
ORACLE_PHI_MAX = 30.0
ORACLE_NODES = 16001
ORACLE_RESIDUAL_TOL = 1e-8
ORACLE_RESIDUAL_REL = 1e-14


@dataclass(frozen=True)
class DiscreteLadder:
    """Solved ladder: thresholds b_n and coefficients log A_n for n = 0..N.

    f_evals[n] counts the evaluations of f_n the root finder spent on b_n
    (0 on the top level, whose threshold is c_N).
    """

    gamma: np.ndarray
    k: float
    r: float
    b: np.ndarray
    log_A: np.ndarray
    c: np.ndarray
    f_evals: Tuple[int, ...] = ()

    @property
    def A(self) -> np.ndarray:
        """A_n = exp(log A_n): inf or 0.0 where A_n leaves the float range."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_A)

    @property
    def n_levels(self) -> int:
        """N: number of expansion steps remaining at level 0."""
        return self.gamma.size - 1

    @property
    def u_levels(self) -> np.ndarray:
        return np.arange(self.gamma.size) / max(self.n_levels, 1)

    def counters(self) -> dict:
        """Work counters of the solve, as the run manifests record them."""
        return {"levels": self.n_levels + 1, "f_evals": list(self.f_evals),
                "f_evals_total": sum(self.f_evals)}

    def rho2(self, n: int) -> float:
        g = self.gamma[n]
        return 2.0 * self.r / (g * g - g)

    def value(self, n: int, pi):
        """V_n(pi) for pi in (0,1), vectorized; V_{N+1} identically 0."""
        scalar = np.isscalar(pi) or np.ndim(pi) == 0
        pi = np.atleast_1d(np.asarray(pi, dtype=float))
        if np.any(pi <= 0.0) or np.any(pi >= 1.0):
            raise ValueError("pi must lie strictly in (0, 1)")
        out = self._derivative(n, pi, 0)
        if scalar:
            return float(out[0])
        return out

    def _lookup(self, n: int, pi: np.ndarray):
        """(j, gamma_m, W = A_m G_m(pi)): pi stops through j levels of V_n and
        is held on level m = n + j."""
        j = np.searchsorted(np.maximum.accumulate(self.b[n:]), pi, side="right")
        m = n + j
        g = np.append(self.gamma, 2.0)[m]  # any finite exponent on level N + 1
        return j, g, np.exp(np.append(self.log_A, -np.inf)[m] + log_G(g, pi))

    def _derivative(self, n: int, pi: np.ndarray, order: int, lookup=None) -> np.ndarray:
        """pi-derivative of V_n of order 0 (V_n itself), 1 or 2, closed form.

        The level m that holds pi adds W, W G_m'/G_m or W G_m''/G_m; each
        level stopped through adds pi - k, slope 1 and no curvature.  lookup
        is _lookup(n, pi), for a caller that reads several orders.
        """
        j, g, held = self._lookup(n, pi) if lookup is None else lookup
        if order == 0:
            return j * (pi - self.k) + held
        q = pi * (1.0 - pi)
        if order == 1:
            return j + held * ((g - pi) / q)
        return held * (g * (g - 1.0) / (q * q))


def boundary_equation(ladder_tail: DiscreteLadder, n: int, b: float) -> float:
    """f_n(b) with the tail (levels n+1..N) of an already-solved ladder."""
    g, k = ladder_tail.gamma, ladder_tail.k
    return (g[n] + k - 1.0) * b - g[n] * k + (g[n] - g[n + 1]) * ladder_tail.value(n + 1, b)


def root_tol(gamma_n: float, k: float) -> float:
    """|f_n| at which the root finder accepts a threshold b_n."""
    return max(ROOT_F_TOL, ROOT_F_REL * 2.0 * gamma_n * k)


def solve_ladder(gamma: np.ndarray, params: ModelParams) -> DiscreteLadder:
    """Solve the backward recursion; gamma must be strictly decreasing, > 1."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 1 or gamma.size < 1:
        raise ConfigError("ladder needs at least one gamma level")
    if not np.all(np.isfinite(gamma)):
        raise ConfigError("gamma levels must be finite")
    if gamma[-1] <= 1.0:
        raise ConfigError(f"terminal gamma must exceed 1, got {gamma[-1]}")
    if not np.all(np.diff(gamma) < 0.0):
        raise ConfigError("gamma levels must be strictly decreasing")

    k, r = params.k, params.r
    N = gamma.size - 1
    c = _threshold_c(gamma, k)
    b = np.empty_like(gamma)
    log_A = np.empty_like(gamma)
    evals = [0] * (N + 1)
    b[N] = c[N]
    log_A[N] = _coefficient(N, gamma[N], b[N], b[N] - k)
    tail = DiscreteLadder(gamma=gamma, k=k, r=r, b=b, log_A=log_A, c=c)  # filled in from the top

    for n in range(N - 1, -1, -1):
        b[n], evals[n] = _threshold(tail, n)
        log_A[n] = _coefficient(n, gamma[n], b[n], b[n] - k + tail.value(n + 1, b[n]))

    return DiscreteLadder(gamma=gamma, k=k, r=r, b=b, log_A=log_A, c=c, f_evals=tuple(evals))


def _threshold(tail: DiscreteLadder, n: int) -> Tuple[float, int]:
    """b_n and the number of f_n evaluations, by safeguarded Newton.

    The bracket [1e-12, c_n - 1e-12] is checked at both ends (a NaN fails
    the check) and shrinks with the sign of each f_n; a step that would leave
    it, or a slope that is not finite and positive, takes its midpoint.
    """
    # Python floats throughout, so that nothing here warns
    g0, g1, k = float(tail.gamma[n]), float(tail.gamma[n + 1]), tail.k
    tol = root_tol(g0, k)
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return float(boundary_equation(tail, n, x))

    lo, hi = 1e-12, float(tail.c[n]) - 1e-12
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo < 0.0 < f_hi):
        raise ArithmeticError(f"root not bracketed: f({lo})={f_lo}, f({hi})={f_hi}")
    x = min(hi, float(tail.b[n + 1]))
    fx = f_hi if x == hi else f(x)
    for _ in range(200):
        if abs(fx) <= tol:
            return x, evals
        if fx < 0.0:
            lo = x
        else:
            hi = x
        slope = g0 + k - 1.0 + (g0 - g1) * float(tail._derivative(n + 1, np.array([x]), 1)[0])
        step = x - fx / slope if 0.0 < slope < np.inf else np.nan  # NaN leaves the bracket
        x = step if lo < step < hi else 0.5 * (lo + hi)
        fx = f(x)
    raise ArithmeticError(f"Newton stalled on level {n}: |f({x})| = {abs(fx)} > {tol}")


def _coefficient(n: int, gamma_n: float, b_n: float, stop: float) -> float:
    """log A_n = log(stop) - log G_n(b_n), with stop the stopped value at b_n.

    stop must be positive and finite, and so must log A_n and the curvature
    factor gamma_n (gamma_n - 1) = 2 r / rho_n^2; A_n may leave the float range.
    """
    stop = float(stop)
    with np.errstate(all="ignore"):
        log_A = float(np.log(stop) - log_G(gamma_n, b_n))
        curvature = gamma_n * (gamma_n - 1.0)
    if not (0.0 < stop < np.inf and -np.inf < log_A < np.inf and curvature < np.inf):
        raise ArithmeticError(f"ladder level {n}: log A_{n} = {log_A} and gamma_{n} (gamma_{n} - 1) "
                              f"= {curvature} must be finite (gamma_{n} = {gamma_n}, "
                              f"b_{n} = {b_n}, stopped value {stop})")
    return log_A


def ladder_from_spec(spec: RateSpec, params: ModelParams, n_levels: int) -> DiscreteLadder:
    """Sample gamma at the ladder levels u_n = n/N of a continuous rate spec.

    n_levels = 0 degenerates to a single level sampled at u = 0, which is a
    plain stopping problem (no expansion steps remain to be priced).
    """
    if n_levels < 0:
        raise ConfigError("ladder needs a nonnegative number of expansion steps")
    u = np.arange(n_levels + 1) / max(n_levels, 1)
    return solve_ladder(np.asarray(gamma_of(spec, params, u), dtype=float), params)


# ---------------------------------------------------------------------------
# monotonicity condition (discrete analogue of the continuous cond1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMonotoneReport:
    condition_values: List[float]  # 2 D1_n D1_{n+1} - D2_n gamma_{n+1}, per level
    condition_holds: List[bool]
    all_hold: bool
    b_nondecreasing: bool


def check_discrete_monotone(ladder: DiscreteLadder) -> DiscreteMonotoneReport:
    """Per-level condition 2 D1_n D1_{n+1} <= D2_n gamma_{n+1} (D = differences).

    Holds with equality when gamma_n is a sampled hyperbola.  Implies the
    thresholds come out ordered, which the report also records as observed.
    q is tested against SIGN_TOL times the size of its terms, since their
    roundoff grows with gamma, as in model._sign_slack.
    """
    g = ladder.gamma
    vals = []
    holds = []
    for n in range(ladder.n_levels - 1):
        d1a = g[n] - g[n + 1]
        d1b = g[n + 1] - g[n + 2]
        d2 = g[n] - 2.0 * g[n + 1] + g[n + 2]
        q = 2.0 * d1a * d1b - d2 * g[n + 1]
        vals.append(float(q))
        holds.append(bool(q <= SIGN_TOL * (2.0 * abs(d1a * d1b) + abs(d2 * g[n + 1]))))
    return DiscreteMonotoneReport(
        condition_values=vals,
        condition_holds=holds,
        all_hold=all(holds),
        b_nondecreasing=bool(np.all(np.diff(ladder.b) >= 0.0)),
    )


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteCheckReport:
    n_pi: int
    bellman_max_violation: float
    generator_max_residual: float
    smooth_fit_max_gap: float
    monotone: DiscreteMonotoneReport
    # (level n, pi) where each maximum occurred
    bellman_max_at: Tuple[int, float]
    generator_max_at: Tuple[int, float]
    smooth_fit_max_at: Tuple[int, float]

    def checks(self) -> dict:
        """Per-check verdicts, as the run manifest records them."""
        return {
            "bellman": self.bellman_max_violation <= TOLERANCES["bellman"],
            "generator": self.generator_max_residual <= TOLERANCES["generator"],
            "smooth_fit": self.smooth_fit_max_gap <= TOLERANCES["smooth_fit"],
            "b_nondecreasing": self.monotone.b_nondecreasing,
        }

    @property
    def passed(self) -> bool:
        return all(self.checks().values())

    def to_dict(self) -> dict:
        """The report as `discrete_report.json` holds it: every field, the
        verdict and the tolerances."""
        return {**asdict(self), "tolerances": dict(TOLERANCES), "passed": self.passed}


def discrete_verification_suite(ladder: DiscreteLadder) -> DiscreteCheckReport:
    """Re-check the solved ladder against its own Bellman characterization.

    (i)  stepping up one level never beats the value, V_n >= pi - k + V_{n+1},
         and the held and stopped branches agree at b_n (value matching);
    (ii) generator inequality (rho_n^2/2) pi^2 (1-pi)^2 V_n'' - r V_n <= 0 at
         every grid point, the kinks at b_m included, with V_n'' = A_m G_m''
         on the level m that holds pi;
    (iii) smooth fit: the held slope A_n G_n'(b_n) equals the stopped slope
         1 + V_{n+1}'(b_n).
    """
    pis = np.linspace(0.001, 0.999, N_PI)
    N = ladder.n_levels

    b, g = ladder.b, ladder.gamma
    held = np.exp(ladder.log_A + log_G(g, b))
    held_slope = held * (g - b) / (b * (1.0 - b))

    # each check's values level by level, the grid's then b_n's, so that the
    # first NaN and the first of equal maxima come first in level order
    bellman, gen, fit = [], [], []

    # each V_n is looked up once: level n reads its own and the one above,
    # which level n + 1 reads as its own
    look = ladder._lookup(0, pis)
    vn = ladder._derivative(0, pis, 0, look)
    for n in range(N + 1):
        look_up = ladder._lookup(n + 1, pis)
        v_up = ladder._derivative(n + 1, pis, 0, look_up)
        v2 = ladder._derivative(n, pis, 2, look)
        gen.append(0.5 * ladder.rho2(n) * pis**2 * (1.0 - pis) ** 2 * v2 - ladder.r * vn)
        # V_n holds only for pi < b_n, so at b_n itself value and _derivative
        # give the stopped branch (b_n - k) + V_{n+1}
        bellman.append(np.append(v_up + pis - ladder.k - vn, abs(held[n] - ladder.value(n, b[n]))))
        fit.append(abs(held_slope[n] - ladder._derivative(n, b[n:n + 1], 1)[0]))
        look, vn = look_up, v_up

    levels = np.arange(N + 1)
    grid = np.broadcast_to(pis, (N + 1, N_PI))
    bellman, bellman_at = _worst(np.concatenate(bellman), np.repeat(levels, N_PI + 1),
                                 np.column_stack([grid, b]).ravel())
    gen, gen_at = _worst(np.concatenate(gen), np.repeat(levels, N_PI), grid.ravel())
    fit, fit_at = _worst(np.array(fit), levels, b)
    return DiscreteCheckReport(
        n_pi=N_PI,
        bellman_max_violation=bellman,
        generator_max_residual=gen,
        smooth_fit_max_gap=fit,
        monotone=check_discrete_monotone(ladder),
        bellman_max_at=bellman_at,
        generator_max_at=gen_at,
        smooth_fit_max_at=fit_at,
    )


# ---------------------------------------------------------------------------
# independent oracle: one Brennan-Schwartz pass per level in log-odds space
# ---------------------------------------------------------------------------


def oracle_residual_tol(s: float, d: float, v_max: float) -> float:
    """Complementarity residual the oracle accepts on one level.

    Row i of (r - L_h) V is s (d V_i - (1 - e_i) V_{i-1} - (1 + e_i) V_{i+1}),
    whose terms are of size s d max|V|.  s = rho_n^2 / (2 h^2) reaches 1e9
    when gamma_n is within 1e-5 of 1, where the roundoff of those terms alone
    exceeds the absolute floor, so the tolerance scales with them.
    """
    return max(ORACLE_RESIDUAL_TOL, ORACLE_RESIDUAL_REL * s * d * v_max)


def value_iteration_oracle(ladder: DiscreteLadder) -> Callable[[np.ndarray], np.ndarray]:
    """V_0 from an exact one-pass solve of each level, interpolated linearly between nodes.

    The name predates the method and is kept for its callers.  From n = N
    down, level n solves min((r - L_h) V, V - g) = 0 on the log-odds grid,
    with obstacle g = pi - k + V_{n+1}, L_h the central differences of the
    generator (rho_n^2/2) V'' + rho_n^2 (pi - 1/2) V' and ends max(g, 0).
    Thomas elimination up from the low end and back-substitution down from
    the top with V_i = max(x_i, g_i) solve it exactly when the stopping region
    is a half-line (Brennan and Schwartz, J. Finance 32(2), 1977; Jaillet,
    Lamberton and Lapeyre, Acta Appl. Math. 21, 1990).  The complementarity
    residual certifies each level; a level of another shape, or a NaN
    anywhere in the residual, raises.

    Only the pivot recurrence and the projected back-substitution are
    sequential, and they run in Python.  The back-substitution runs only
    below the stopped stretch at the top of the grid: there V = g, so each
    row's value before projection is known without the recurrence, and numpy
    finds the stretch from all rows at once.  The node coefficients (once for
    all levels), the right-hand sides (by multiply.accumulate), the stopped
    stretch and the residual are numpy operations in the order of scalar
    loops, so they give the same bits as those loops.
    """
    h = 2.0 * ORACLE_PHI_MAX / (ORACLE_NODES - 1)
    pi = 1.0 / (1.0 + np.exp(-np.linspace(-ORACLE_PHI_MAX, ORACLE_PHI_MAX, ORACLE_NODES)))
    # node coefficients 1 -+ e_i of row i, e_i = h (pi_i - 1/2), shared by all levels
    up = h * (pi - 0.5)
    lo = 1.0 - up
    up += 1.0
    # the sweeps run in Python over memoryviews of float64 buffers reused by
    # every level, and piv and rhs double as the residual's scratch, which
    # keeps the oracle's memory at a few grid-sized arrays
    v, g, piv, rhs = (np.zeros(ORACLE_NODES) for _ in range(4))  # v starts as V_{N+1}
    lo_, up_, v_, g_, piv_, rhs_ = (memoryview(a) for a in (lo, up, v, g, piv, rhs))
    last = ORACLE_NODES - 1
    rows = slice(1, last)

    for n in range(ladder.n_levels, -1, -1):
        # row i of (r - L_h) V over s = rho_n^2 / (2 h^2):
        #   d V_i - lo_i V_{i-1} - up_i V_{i+1},  d = 2 + r / s
        s = 0.5 * ladder.rho2(n) / (h * h)
        d = 2.0 + ladder.r / s
        np.subtract(pi, ladder.k, out=g)
        g += v
        v_[0], v_[last] = max(g_[0], 0.0), max(g_[last], 0.0)

        # forward elimination: pivots p_i = d - m_i up_{i-1} with multipliers
        # m_i = lo_i / p_{i-1}, and right-hand sides rhs_i = m_i rhs_{i-1},
        # which multiply.accumulate forms in the same order
        p = piv_[1] = d
        for i, a, b in zip(range(2, last), lo_[2:last], up_[1:last - 1]):
            p = d - a / p * b
            piv_[i] = p
        np.divide(lo[2:last], piv[1:last - 1], out=rhs[2:last])
        rhs_[1] = lo_[1] * v_[0]
        np.multiply.accumulate(rhs[rows], out=rhs[rows])
        # back-substitution from the top, projected onto the obstacle:
        # x_i = (rhs_i + up_i V_{i+1}) / p_i, V_i = g_i where g_i > x_i.  While
        # V_{i+1} = g_{i+1}, x_i is known beforehand, so the stopped stretch
        # at the top is found from all x_i at once, formed in v (free until
        # the loop writes it) in the loop's order of operations
        top = v[rows]
        np.multiply(up[1:last - 1], g[2:last], out=v[1:last - 1])
        v_[last - 1] = up_[last - 1] * v_[last]
        top += rhs[rows]
        top /= piv[rows]
        free = ~(g[rows] > top)  # a NaN stays free, so the loop reproduces it
        j = last - int(np.argmax(free[::-1])) if free.any() else 1
        v[j:last] = g[j:last]
        x = v_[j]
        below = slice(j - 1, 0, -1)
        for i, a, b, p, gi in zip(range(j - 1, 0, -1), rhs_[below], up_[below], piv_[below], g_[below]):
            x = (a + b * x) / p
            if gi > x:
                x = gi
            v_[i] = x

        # complementarity residual |min((r - L_h) V, V - g)| in piv and rhs;
        # "not <=" so that a NaN anywhere fails the level
        lv, w = piv[rows], rhs[rows]
        np.multiply(v[rows], d, out=lv)
        lv -= np.multiply(lo[rows], v[:-2], out=w)
        lv -= np.multiply(up[rows], v[2:], out=w)
        lv *= s
        np.minimum(lv, np.subtract(v[rows], g[rows], out=w), out=lv)
        worst = float(np.max(np.abs(lv, out=lv)))
        tol = oracle_residual_tol(s, d, float(np.max(np.abs(v, out=rhs))))
        if not worst <= tol:
            raise ArithmeticError(f"oracle level {n}: complementarity residual {worst:.3e} > "
                                  f"{tol:.3e}; the half-line solve does not hold")

    return lambda pi_query: np.interp(pi_query, pi, v)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_ladder(ladder: DiscreteLadder, csv_path: Union[str, Path]) -> None:
    """CSV with one row per level: n, u_n, gamma_n, c_n, b_n, A_n."""
    write_csv(csv_path, ["n", "u_n", "gamma_n", "c_n", "b_n", "A_n"],
              np.arange(ladder.n_levels + 1), ladder.u_levels, ladder.gamma, ladder.c,
              ladder.b, ladder.A)
