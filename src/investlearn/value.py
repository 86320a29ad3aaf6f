"""Candidate value surface and its verification diagnostics.

With the boundary b and the exponent machinery in hand, the value of the
expansion problem is assembled in closed form:

    V(u, pi) = A(u) G(u, pi)                                   pi <= b(u)
             = A(u0) G(u0, pi) + (pi - k)(u0 - u),  u0 = h(pi)  pi >  b(u)

where A(u) = ((gamma + k - 1) b(u) - gamma k) / (gamma'(u) G(u, b(u))) and
h is the inverse boundary.  The diagnostics in this module do not trust the
construction: they re-check, by finite differences on the assembled surface,
the variational characterization (generator residual zero below the boundary
and nonpositive above it, smooth fit along the boundary, the gradient bound
V_u <= k - pi, and dominance over the no-learning stopping value).

Finite-difference policy.  Every pi-derivative of a continuation branch
A(u) G(u, .) is taken in closed form from G_pi = G (gamma - pi)/(pi (1-pi))
and G_pipi = G gamma (gamma - 1)/(pi (1-pi))^2; above the boundary the
curvature is that of the branch at the pull-back level u0 = h(pi), where the
surface is C2-pasted.  Finite differences remain only where b or h enters,
since only they see the solved boundary: the u-derivatives, by fixed 1e-4
stencils on the branch the base point belongs to (the pasting is C1, so the
branch derivative is the derivative), and the above-side slope of the C1
pasting check, by a one-sided 1e-4 pi-stencil (shrunk near the ends) on the
assembled surface.  b and h are read back by cubic Hermite dense output,
whose error between knots is fourth order in the grid spacing, far below
what a 1e-4 step can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .boundary import BoundaryCurve
from .model import fundamental_G, gamma, stopping_value_v

PI_STEP = 1e-4
U_STEP = 1e-4

TOL_PDE_BELOW_REL = 1e-6
TOL_PDE_ABOVE = 1e-8
TOL_SMOOTH_FIT = 1e-4
TOL_GRADIENT = 1e-6
TOL_PREMIUM = 1e-8
TOL_CONTINUITY = 1e-12
TOL_C1_PASTING = 1e-5


def low_discrepancy_samples(n: int, margin: float = 1e-3) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic low-discrepancy (u, pi) samples over the interior.

    Additive recurrence driven by the plastic number; u covers [0, 1-margin),
    pi covers (margin, 1-margin).
    """
    g = 1.324717957244746  # plastic number, real root of x^3 = x + 1
    i = np.arange(1, n + 1, dtype=float)
    x = np.mod(0.5 + i / g, 1.0)
    y = np.mod(0.5 + i / g**2, 1.0)
    u = x * (1.0 - margin)
    pi = margin + (1.0 - 2.0 * margin) * y
    return u, pi


class ValueSurface:
    """Closed-form candidate value built on a solved boundary curve."""

    def __init__(self, curve: BoundaryCurve):
        if not curve.monotone:
            raise ValueError("value surface needs a strictly increasing boundary")
        self.curve = curve
        self.spec = curve.spec
        self.params = curve.params

    # -- building blocks ---------------------------------------------------

    def coefficient_A(self, u):
        """A(u) >= 0 tying the fundamental solution to the boundary data.

        A(1) = 0 because b(1) = c(1) kills the numerator; the clamp only
        absorbs the roundoff of that cancellation, never a real sign flip.
        """
        p = self.params
        g, d1, _, _ = self.spec.gamma_derivs(u, p.r)
        b = self.curve.b_at(u)
        G = fundamental_G(self.spec, p, u, b)
        return np.maximum(0.0, ((g + p.k - 1.0) * b - g * p.k) / (d1 * G))

    def _below(self, u, pi):
        return self.coefficient_A(u) * fundamental_G(self.spec, self.params, u, pi)

    def _below_pi(self, u, pi):
        """pi-derivative A(u) G_pi(u, pi) of the continuation branch, closed form."""
        g = gamma(self.spec, self.params, u)
        return self._below(u, pi) * (g - pi) / (pi * (1.0 - pi))

    def value(self, u, pi):
        """V(u, pi), vectorized over broadcastable arguments."""
        u = np.asarray(u, dtype=float)
        pi = np.asarray(pi, dtype=float)
        u_b, pi_b = np.broadcast_arrays(u, pi)
        out = np.empty(u_b.shape, dtype=float)
        b_u = self.curve.b_at(u_b)
        below = pi_b <= b_u
        if np.any(below):
            out[below] = self._below(u_b[below], pi_b[below])
        above = ~below
        if np.any(above):
            u0 = self.curve.h_at(pi_b[above])
            out[above] = self._below(u0, pi_b[above]) + (pi_b[above] - self.params.k) * (
                u0 - u_b[above]
            )
        if out.ndim == 0:
            return float(out)
        return out

    def log_value(self, u, pi):
        """log V(u, pi), -inf where V <= 0, for a sign test that survives underflow.

        Below the boundary it is log A(u) + log G(u, pi), with both logs taken
        in closed form, so it stays finite where A G underflows at large
        gamma; above the boundary it is the log of V itself.
        """
        u, pi = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(pi, dtype=float))
        out = np.empty(u.shape, dtype=float)
        below = pi <= self.curve.b_at(u)
        ub, pb = u[below], pi[below]
        p = self.params
        g, d1, _, _ = self.spec.gamma_derivs(ub, p.r)
        b = self.curve.b_at(ub)

        def log_G(x):
            return np.log1p(-x) + g * (np.log(x) - np.log1p(-x))

        with np.errstate(divide="ignore"):
            ratio = np.maximum(0.0, ((g + p.k - 1.0) * b - g * p.k) / d1)
            out[below] = np.log(ratio) + log_G(pb) - log_G(b)
            out[~below] = np.log(np.maximum(0.0, self.value(u[~below], pi[~below])))
        return out

    # -- u-derivative of the active branch ----------------------------------

    def value_u(self, u, pi):
        """dV/du of the branch owning (u, pi).

        Below the boundary, a second-order FD of the continuation branch;
        above it, k - pi exactly, since that branch is linear in u.
        """
        scalar = np.ndim(u) == 0 and np.ndim(pi) == 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        pi = np.atleast_1d(np.asarray(pi, dtype=float))
        u, pi = np.broadcast_arrays(u, pi)
        out = np.empty(u.shape, dtype=float)
        b_u = self.curve.b_at(u)
        below = pi <= b_u
        if np.any(below):
            out[below] = self._fd_u(self._below, u[below], pi[below])
        out[~below] = self.params.k - pi[~below]
        if scalar:
            return float(out[0])
        return out

    def _fd_u(self, fn, u, pi):
        """Second-order difference of fn(u, pi) in u; central where possible."""
        d = U_STEP
        res = np.empty(u.shape, dtype=float)
        lo = u < d
        hi = u > 1.0 - d
        mid = ~(lo | hi)
        if np.any(mid):
            um, pm = u[mid], pi[mid]
            res[mid] = (fn(um + d, pm) - fn(um - d, pm)) / (2.0 * d)
        if np.any(lo):
            ul, pl = u[lo], pi[lo]
            res[lo] = (-3.0 * fn(ul, pl) + 4.0 * fn(ul + d, pl) - fn(ul + 2.0 * d, pl)) / (2.0 * d)
        if np.any(hi):
            uh, ph = u[hi], pi[hi]
            res[hi] = (3.0 * fn(uh, ph) - 4.0 * fn(uh - d, ph) + fn(uh - 2.0 * d, ph)) / (2.0 * d)
        return res


def build_surface(spec, params, grid_size: int = 2001) -> ValueSurface:
    """Solve the boundary on the solver's default grid and wrap it as a surface."""
    from .boundary import solve_boundary

    return ValueSurface(solve_boundary(spec, params, grid_size=grid_size))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _pi_step(pi):
    return np.minimum(PI_STEP, np.minimum(pi, 1.0 - pi) / 2.0)


@dataclass(frozen=True)
class PdeResidualReport:
    n_samples: int
    n_below: int
    n_above: int
    max_below_rel: float
    max_above_signed: float

    @property
    def passed(self) -> bool:
        return self.max_below_rel <= TOL_PDE_BELOW_REL and self.max_above_signed <= TOL_PDE_ABOVE

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["passed"] = self.passed
        return d


def pde_residual_sweep(surface: ValueSurface, n_samples: int = 10000) -> PdeResidualReport:
    """Signed generator residual (rho^2/2) pi^2 (1-pi)^2 V_pipi - r V over a
    deterministic low-discrepancy sample sweep.

    V_pipi = A G gamma (gamma - 1)/(pi (1-pi))^2 at the level u below the
    boundary and at the pull-back level h(pi) above it.  G solves its ODE
    exactly, so below the boundary the residual measures only whether
    spec.rho2 agrees with spec.gamma_derivs; above it, the sign of the
    stopped region's generator.
    """
    p = surface.params
    u, pi = low_discrepancy_samples(n_samples)
    below = pi <= surface.curve.b_at(u)
    above = ~below
    lev = u.copy()
    lev[above] = surface.curve.h_at(pi[above])
    g = gamma(surface.spec, p, lev)
    val = surface._below(lev, pi)
    v_pipi = val * g * (g - 1.0) / (pi * (1.0 - pi)) ** 2
    val[above] += (pi[above] - p.k) * (lev[above] - u[above])
    res = 0.5 * surface.spec.rho2(u, p.r) * pi**2 * (1.0 - pi) ** 2 * v_pipi - p.r * val
    rel = np.abs(res[below]) / np.maximum(1.0, p.r * np.abs(val[below]))
    return PdeResidualReport(
        n_samples=n_samples,
        n_below=int(np.count_nonzero(below)),
        n_above=int(np.count_nonzero(above)),
        max_below_rel=float(np.max(rel)),
        max_above_signed=float(np.max(res[above])),
    )


def smooth_fit_residuals(surface: ValueSurface, u: float) -> Tuple[float, float]:
    """|V_u + pi - k| and |V_upi + 1| at (u, b(u)), one-sided from below in u.

    One second-order u-stencil toward smaller u (forward variant only when
    u < 2 steps from 0), applied to the continuation branch A G and to its
    closed-form pi-derivative A G_pi at pi0 = b(u).
    """
    d = U_STEP
    pi0 = float(surface.curve.b_at(u))
    if u >= 2.0 * d:
        pts, w = u - d * np.arange(3.0), np.array([3.0, -4.0, 1.0])
    else:
        pts, w = u + d * np.arange(3.0), np.array([-3.0, 4.0, -1.0])
    v_u = float(w @ surface._below(pts, pi0)) / (2.0 * d)
    v_upi = float(w @ surface._below_pi(pts, pi0)) / (2.0 * d)
    return abs(v_u - (surface.params.k - pi0)), abs(v_upi + 1.0)


def c1_pasting_gap(surface: ValueSurface, u: float) -> float:
    """|dV/dpi from below - dV/dpi from above| at pi = b(u).

    Below, the closed-form slope A G_pi of the continuation branch; above,
    a one-sided three-point stencil with step 1e-4 (shrunk near the ends)
    on the assembled surface, which reads the pull-back level h.
    """
    pi0 = float(surface.curve.b_at(u))
    hp = float(_pi_step(np.asarray(pi0)))
    lo = float(surface._below_pi(u, pi0))
    hi = (
        -3.0 * float(surface._below(u, pi0))
        + 4.0 * float(surface.value(u, pi0 + hp))
        - float(surface.value(u, pi0 + 2.0 * hp))
    ) / (2.0 * hp)
    return abs(lo - hi)


@dataclass(frozen=True)
class SweepReport:
    n_samples: int
    worst: float
    worst_u: float
    worst_pi: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def gradient_bound_check(surface: ValueSurface, n_samples: int = 10000) -> SweepReport:
    """max of V_u(u, pi) - (k - pi) over the sample sweep; must be <= 1e-6.

    Equality holds above the boundary, strict inequality below; this is the
    marginal-value bound that makes the reflecting control admissible.
    """
    u, pi = low_discrepancy_samples(n_samples)
    viol = surface.value_u(u, pi) - (surface.params.k - pi)
    i = int(np.argmax(viol))
    return SweepReport(n_samples=n_samples, worst=float(viol[i]), worst_u=float(u[i]), worst_pi=float(pi[i]))


def learning_premium_check(surface: ValueSurface, n_samples: int = 10000) -> SweepReport:
    """max of (1-u) v(pi; u) - V(u, pi) over the sweep; nonpositive means the
    option to spread investment (and keep learning) dominates lump stopping."""
    u, pi = low_discrepancy_samples(n_samples)
    v = stopping_value_v(surface.spec, surface.params, u, pi)
    gap = (1.0 - u) * v - surface.value(u, pi)
    i = int(np.argmax(gap))
    return SweepReport(n_samples=n_samples, worst=float(gap[i]), worst_u=float(u[i]), worst_pi=float(pi[i]))


@dataclass(frozen=True)
class ValueCheckReport:
    """Aggregate verification of the assembled surface against its PDE."""

    n_samples: int
    n_boundary_points: int
    pde: PdeResidualReport
    smooth_fit_max_vu: float
    smooth_fit_max_vupi: float
    c1_pasting_max: float
    gradient: SweepReport
    premium: SweepReport
    continuity_max: float
    log_value_min: float
    A_terminal: float

    def checks(self) -> dict:
        """Per-check verdicts, as the run manifest records them.

        "all" also requires continuity, a positive value (a finite
        log_value_min, so that an underflowing V still counts as positive)
        and a vanishing terminal coefficient, which have no entry of their
        own.
        """
        checks = {
            "pde": self.pde.passed,
            "smooth_fit": self.smooth_fit_max_vu <= TOL_SMOOTH_FIT
            and self.smooth_fit_max_vupi <= TOL_SMOOTH_FIT,
            "c1_pasting": self.c1_pasting_max <= TOL_C1_PASTING,
            "gradient_bound": self.gradient.worst <= TOL_GRADIENT,
            "learning_premium": self.premium.worst <= TOL_PREMIUM,
        }
        checks["all"] = (
            all(checks.values())
            and self.continuity_max <= TOL_CONTINUITY
            and self.log_value_min > -np.inf
            and abs(self.A_terminal) <= 1e-12
        )
        return checks

    @property
    def passed(self) -> bool:
        return self.checks()["all"]

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_boundary_points": self.n_boundary_points,
            "pde": self.pde.to_dict(),
            "smooth_fit_max_vu": self.smooth_fit_max_vu,
            "smooth_fit_max_vupi": self.smooth_fit_max_vupi,
            "c1_pasting_max": self.c1_pasting_max,
            "gradient": self.gradient.to_dict(),
            "premium": self.premium.to_dict(),
            "continuity_max": self.continuity_max,
            "log_value_min": self.log_value_min,
            "A_terminal": self.A_terminal,
            "tolerances": {
                "pde_below_rel": TOL_PDE_BELOW_REL,
                "pde_above_signed": TOL_PDE_ABOVE,
                "smooth_fit": TOL_SMOOTH_FIT,
                "c1_pasting": TOL_C1_PASTING,
                "gradient": TOL_GRADIENT,
                "premium": TOL_PREMIUM,
                "continuity": TOL_CONTINUITY,
            },
            "passed": self.passed,
        }


def boundary_check_points(surface: ValueSurface, n_points: int = 50) -> np.ndarray:
    """Boundary u-values for the pasting checks: grid nodes away from the ends.

    Starts at the first node where the backward u-stencil of the smooth-fit
    check fits above u = 0 and stops two nodes short of u = 1.
    """
    ug = surface.curve.u_grid
    i0 = int(np.searchsorted(ug, 2.0 * U_STEP))
    idx = np.unique(np.linspace(i0, ug.size - 3, n_points).round().astype(int))
    return ug[idx]


def verify_surface(
    surface: ValueSurface, n_samples: int = 10000, n_boundary_points: int = 50
) -> ValueCheckReport:
    """Run every diagnostic; the CLI `verify` subcommand serializes this."""
    us = boundary_check_points(surface, n_boundary_points)
    sf = np.array([smooth_fit_residuals(surface, float(x)) for x in us])
    c1 = np.array([c1_pasting_gap(surface, float(x)) for x in us])

    # two-branch continuity at the boundary nodes
    pi_b = surface.curve.b_at(us)
    lo_vals = surface._below(us, pi_b)
    u0 = surface.curve.h_at(pi_b)
    hi_vals = surface._below(u0, pi_b) + (pi_b - surface.params.k) * (u0 - us)
    continuity = float(np.max(np.abs(lo_vals - hi_vals)))

    u_s, pi_s = low_discrepancy_samples(n_samples)

    return ValueCheckReport(
        n_samples=n_samples,
        n_boundary_points=len(us),
        pde=pde_residual_sweep(surface, n_samples),
        smooth_fit_max_vu=float(np.max(sf[:, 0])),
        smooth_fit_max_vupi=float(np.max(sf[:, 1])),
        c1_pasting_max=float(np.max(c1)),
        gradient=gradient_bound_check(surface, n_samples),
        premium=learning_premium_check(surface, n_samples),
        continuity_max=continuity,
        log_value_min=float(np.min(surface.log_value(u_s, pi_s))),
        A_terminal=float(surface.coefficient_A(1.0)),
    )
