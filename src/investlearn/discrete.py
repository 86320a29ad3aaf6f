"""Discrete capacity ladder: expansion in N fixed increments.

Capacity moves on levels u_n = n/N with decay exponents gamma_n = gamma(u_n)
(strictly decreasing, terminal gamma_N > 1).  Backward from the top level,

    b_N = c_N,           A_N = (b_N - k) / G_N(b_N),
    f_n(b) = (gamma_n + k - 1) b - gamma_n k + (gamma_n - gamma_{n+1}) V_{n+1}(b),
    b_n = unique root of f_n in (0, c_n),
    A_n = (b_n - k + V_{n+1}(b_n)) / G_n(b_n),

with V_n(pi) = A_n G_n(pi) below b_n and (pi - k) + V_{n+1}(pi) above.
f_n(0+) = -gamma_n k < 0 and f_n(c_n) = (gamma_n - gamma_{n+1}) V_{n+1}(c_n) > 0,
so bisection brackets the root without derivatives.

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
with the closed-form assembly beyond numpy, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Union

import numpy as np

from .artifacts import write_csv
from .model import ConfigError, G_of_gamma, ModelParams, RateSpec, SIGN_TOL, gamma as gamma_of

# Bisection stops at |f_n| <= max(BISECT_F_TOL, BISECT_F_REL 2 gamma_n k):
# 2 gamma_n k is the size of f_n's terms at its root, and their roundoff grows
# with gamma_n.
BISECT_F_TOL = 1e-13
BISECT_F_REL = 1e-14

TOL_BELLMAN = 1e-10
TOL_GENERATOR = 1e-8
TOL_SMOOTH_FIT = 1e-4
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
    """Solved ladder: thresholds b_n and coefficients A_n for n = 0..N."""

    gamma: np.ndarray
    k: float
    r: float
    b: np.ndarray
    A: np.ndarray
    c: np.ndarray

    @property
    def n_levels(self) -> int:
        """N: number of expansion steps remaining at level 0."""
        return self.gamma.size - 1

    @property
    def u_levels(self) -> np.ndarray:
        return np.arange(self.gamma.size) / max(self.n_levels, 1)

    def rho2(self, n: int) -> float:
        g = self.gamma[n]
        return 2.0 * self.r / (g * g - g)

    def value(self, n: int, pi):
        """V_n(pi) for pi in (0,1), vectorized; V_{N+1} identically 0."""
        scalar = np.isscalar(pi) or np.ndim(pi) == 0
        pi = np.atleast_1d(np.asarray(pi, dtype=float))
        if np.any(pi <= 0.0) or np.any(pi >= 1.0):
            raise ValueError("pi must lie strictly in (0, 1)")
        out = np.zeros(pi.shape, dtype=float)
        rem = np.ones(pi.shape, dtype=bool)
        for m in range(n, self.n_levels + 1):
            hold = rem & (pi < self.b[m])
            if np.any(hold):
                out[hold] += self.A[m] * G_of_gamma(self.gamma[m], pi[hold])
                rem = rem & ~hold
            if not np.any(rem):
                break
            out[rem] += pi[rem] - self.k
        if scalar:
            return float(out[0])
        return out

    def _derivative(self, n: int, pi: np.ndarray, order: int) -> np.ndarray:
        """First (order 1) or second (order 2) pi-derivative of V_n, closed form.

        Every level stopped through adds slope 1 and no curvature; the level
        m that holds pi adds A_m G_m' or A_m G_m''.
        """
        out = np.zeros(pi.shape, dtype=float)
        rem = np.ones(pi.shape, dtype=bool)
        for m in range(n, self.n_levels + 1):
            hold = rem & (pi < self.b[m])
            g, x = self.gamma[m], pi[hold]
            q = x * (1.0 - x)
            factor = (g - x) / q if order == 1 else g * (g - 1.0) / (q * q)
            out[hold] += self.A[m] * G_of_gamma(g, x) * factor
            rem &= ~hold
            if order == 1:
                out[rem] += 1.0
        return out


def boundary_equation(ladder_tail: DiscreteLadder, n: int, b: float) -> float:
    """f_n(b) with the tail (levels n+1..N) of an already-solved ladder."""
    g = ladder_tail.gamma
    k = ladder_tail.k
    vnext = ladder_tail.value(n + 1, b) if n + 1 <= ladder_tail.n_levels else 0.0
    return (g[n] + k - 1.0) * b - g[n] * k + (g[n] - g[n + 1]) * float(vnext)


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
    c = k * gamma / (gamma + k - 1.0)
    b = np.empty_like(gamma)
    A = np.empty_like(gamma)
    b[N] = c[N]
    A[N] = (b[N] - k) / float(G_of_gamma(gamma[N], b[N]))

    for n in range(N - 1, -1, -1):
        tail = DiscreteLadder(gamma=gamma, k=k, r=r, b=b, A=A, c=c)

        tol = max(BISECT_F_TOL, BISECT_F_REL * 2.0 * gamma[n] * k)
        b[n] = _bisect(partial(boundary_equation, tail, n), 1e-12, c[n] - 1e-12, tol)
        vnext = float(tail.value(n + 1, b[n]))
        A[n] = (b[n] - k + vnext) / float(G_of_gamma(gamma[n], b[n]))
        if not A[n] > 0.0:
            raise ArithmeticError(f"nonpositive ladder coefficient A_{n} = {A[n]}")

    return DiscreteLadder(gamma=gamma, k=k, r=r, b=b, A=A, c=c)


def ladder_from_spec(spec: RateSpec, params: ModelParams, n_levels: int) -> DiscreteLadder:
    """Sample gamma at the ladder levels u_n = n/N of a continuous rate spec.

    n_levels = 0 degenerates to a single level sampled at u = 0, which is a
    plain stopping problem (no expansion steps remain to be priced).
    """
    if n_levels < 0:
        raise ConfigError("ladder needs a nonnegative number of expansion steps")
    if n_levels == 0:
        u = np.array([0.0])
    else:
        u = np.arange(n_levels + 1) / n_levels
    return solve_ladder(np.asarray(gamma_of(spec, params, u), dtype=float), params)


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    flo, fhi = f(lo), f(hi)
    if not (flo < 0.0 < fhi):
        raise ArithmeticError(f"root not bracketed: f({lo})={flo}, f({hi})={fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17:
            break
    raise ArithmeticError(f"bisection stalled: |f({mid})| = {abs(f(mid))} > {tol}")


# ---------------------------------------------------------------------------
# monotonicity condition (discrete analogue of the continuous cond1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMonotoneReport:
    condition_values: List[float]  # 2 D1_n D1_{n+1} - D2_n gamma_{n+1}, per level
    condition_holds: List[bool]
    all_hold: bool
    b_nondecreasing: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


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

    def checks(self) -> dict:
        """Per-check verdicts, as the run manifest records them."""
        return {
            "bellman": self.bellman_max_violation <= TOL_BELLMAN,
            "generator": self.generator_max_residual <= TOL_GENERATOR,
            "smooth_fit": self.smooth_fit_max_gap <= TOL_SMOOTH_FIT,
            "b_nondecreasing": self.monotone.b_nondecreasing,
        }

    @property
    def passed(self) -> bool:
        return all(self.checks().values())

    def to_dict(self) -> dict:
        return {
            "n_pi": self.n_pi,
            "bellman_max_violation": self.bellman_max_violation,
            "generator_max_residual": self.generator_max_residual,
            "smooth_fit_max_gap": self.smooth_fit_max_gap,
            "monotone": self.monotone.to_dict(),
            "tolerances": {
                "bellman": TOL_BELLMAN,
                "generator": TOL_GENERATOR,
                "smooth_fit": TOL_SMOOTH_FIT,
            },
            "passed": self.passed,
        }


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
    held = ladder.A * G_of_gamma(g, b)
    held_slope = held * (g - b) / (b * (1.0 - b))

    bellman = -np.inf
    gen = -np.inf
    fit = -np.inf
    for n in range(N + 1):
        vn = ladder.value(n, pis)
        bellman = max(bellman, float(np.max(ladder.value(n + 1, pis) + pis - ladder.k - vn)))
        v2 = ladder._derivative(n, pis, 2)
        resid = 0.5 * ladder.rho2(n) * pis**2 * (1.0 - pis) ** 2 * v2 - ladder.r * vn
        gen = max(gen, float(np.max(resid)))

        # V_n holds only for pi < b_n, so at b_n itself value and _derivative
        # give the stopped branch (b_n - k) + V_{n+1}
        bellman = max(bellman, abs(float(held[n]) - ladder.value(n, b[n])))
        fit = max(fit, abs(float(held_slope[n] - ladder._derivative(n, b[n:n + 1], 1)[0])))

    return DiscreteCheckReport(
        n_pi=N_PI,
        bellman_max_violation=bellman,
        generator_max_residual=gen,
        smooth_fit_max_gap=fit,
        monotone=check_discrete_monotone(ladder),
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
    residual certifies each level; a level of another shape raises.
    """
    h = 2.0 * ORACLE_PHI_MAX / (ORACLE_NODES - 1)
    pi = 1.0 / (1.0 + np.exp(-np.linspace(-ORACLE_PHI_MAX, ORACLE_PHI_MAX, ORACLE_NODES)))
    # the sweeps run in Python over memoryviews of float64 buffers, which
    # keeps the oracle's memory at a few grid-sized arrays
    v, g, piv, rhs = (np.zeros(ORACLE_NODES) for _ in range(4))  # v starts as V_{N+1}
    p_, v_, g_, piv_, rhs_ = (memoryview(a) for a in (pi, v, g, piv, rhs))
    last = ORACLE_NODES - 1

    for n in range(ladder.n_levels, -1, -1):
        # row i of (r - L_h) V over s = rho_n^2 / (2 h^2), with e_i = h (pi_i - 1/2):
        #   d V_i - (1 - e_i) V_{i-1} - (1 + e_i) V_{i+1},  d = 2 + r / s
        s = 0.5 * ladder.rho2(n) / (h * h)
        d = 2.0 + ladder.r / s
        np.subtract(pi, ladder.k, out=g)
        g += v
        v_[0], v_[last] = max(g_[0], 0.0), max(g_[last], 0.0)

        piv_[1], rhs_[1] = d, (1.0 - h * (p_[1] - 0.5)) * v_[0]
        for i in range(2, last):
            m = (1.0 - h * (p_[i] - 0.5)) / piv_[i - 1]
            piv_[i] = d - m * (1.0 + h * (p_[i - 1] - 0.5))
            rhs_[i] = m * rhs_[i - 1]
        for i in range(last - 1, 0, -1):
            v_[i] = max((rhs_[i] + (1.0 + h * (p_[i] - 0.5)) * v_[i + 1]) / piv_[i], g_[i])

        worst = 0.0
        for i in range(1, last):
            e = h * (p_[i] - 0.5)
            lv = s * (d * v_[i] - (1.0 - e) * v_[i - 1] - (1.0 + e) * v_[i + 1])
            worst = max(worst, abs(min(lv, v_[i] - g_[i])))
        tol = oracle_residual_tol(s, d, float(np.max(np.abs(v))))
        if worst > tol:
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
