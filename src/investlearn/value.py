"""Candidate value surface and its verification diagnostics.

With the boundary b and the exponent machinery in hand, the value of the
expansion problem is assembled in closed form:

    V(u, pi) = A(u) G(u, pi)                                   pi <= b(u)
             = A(u0) G(u0, pi) + (pi - k)(u0 - u),  u0 = h(pi)  pi >  b(u)

where A(u) = ((gamma + k - 1) b(u) - gamma k) / (gamma'(u) G(u, b(u))) and
h is the inverse boundary.  A G is formed as ratio x exp(log G(u, pi) -
log G(u, b)), ratio = A(u) G(u, b), so that no factor overflows on its own
where gamma logit(b) is large.  The diagnostics in this module do not trust
the construction: they re-check, on the assembled surface, the variational
characterization (generator residual zero below the boundary and nonpositive
above it, smooth fit along the boundary, the gradient bound V_u <= k - pi,
and dominance over the no-learning stopping value).

Derivatives.  No derivative is a finite difference.  The pi-derivatives of
a continuation branch A(u) G(u, .) come from G_pi = G (gamma - pi)/(pi (1-pi))
and G_pipi = G gamma (gamma - 1)/(pi (1-pi))^2; above the boundary the
curvature is that of the branch at the pull-back level u0 = h(pi), where the
surface is C2-pasted.  The u-derivatives of a branch follow by the chain
rule through A = N / D, N = (gamma + k - 1) b - gamma k, D = gamma' G(u, b),
with b' the slope of the curve's cubic Hermite dense output (see
`ValueSurface.branch_u_derivatives`).  At a knot that slope is the ODE's own
F(u, b), where smooth fit holds by algebra, so the pasting checks run at the
knot-segment midpoints: there they measure how far the interpolated curve
is from solving the boundary ODE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .boundary import BoundaryCurve
# fundamental_G is not called here; bench/spans.py counts calls through this name
from .model import fundamental_G, gamma, log_G, logit, stopping_value_v

TOL_PDE_BELOW_REL = 1e-6
TOL_PDE_ABOVE = 1e-8
TOL_SMOOTH_FIT = 1e-4
TOL_GRADIENT = 1e-6
TOL_PREMIUM = 1e-8
TOL_CONTINUITY = 1e-12
TOL_C1_PASTING = 1e-5

# the interior sweeps read N_SAMPLES points, SAMPLE_MARGIN away from the edges
N_SAMPLES = 10000
SAMPLE_MARGIN = 1e-3


def low_discrepancy_samples() -> Tuple[np.ndarray, np.ndarray]:
    """The N_SAMPLES deterministic low-discrepancy (u, pi) samples.

    Additive recurrence driven by the plastic number; u covers
    [0, 1 - SAMPLE_MARGIN), pi covers (SAMPLE_MARGIN, 1 - SAMPLE_MARGIN).
    """
    g = 1.324717957244746  # plastic number, real root of x^3 = x + 1
    i = np.arange(1, N_SAMPLES + 1, dtype=float)
    x = np.mod(0.5 + i / g, 1.0)
    y = np.mod(0.5 + i / g**2, 1.0)
    u = x * (1.0 - SAMPLE_MARGIN)
    pi = SAMPLE_MARGIN + (1.0 - 2.0 * SAMPLE_MARGIN) * y
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

    def _branch(self, u, pi):
        """(ratio, log G(u, pi) - log G(u, b)), ratio = A(u) G(u, b) = N / gamma'.

        A(1) = 0 because b(1) = c(1) kills N; the clamp only absorbs the
        roundoff of that cancellation, never a real sign flip.
        """
        p = self.params
        g, d1, _, _ = self.spec.gamma_derivs(u, p.r)
        b = self.curve.b_at(u)
        ratio = np.maximum(0.0, ((g + p.k - 1.0) * b - g * p.k) / d1)
        return ratio, log_G(g, pi) - log_G(g, b)

    def coefficient_A(self, u):
        """A(u) >= 0 tying the fundamental solution to the boundary data."""
        ratio, dlog = self._branch(u, 0.5)
        return 2.0 * ratio * np.exp(dlog)  # G(u, 1/2) = 1/2 at every gamma

    def _below(self, u, pi):
        """A(u) G(u, pi), formed as ratio x exp(log G(u, pi) - log G(u, b))."""
        ratio, dlog = self._branch(u, pi)
        return ratio * np.exp(dlog)

    def value(self, u, pi):
        """V(u, pi), vectorized over broadcastable arguments.

        Both branches are A(u0) G(u0, pi) + (pi - k)(u0 - u), with u0 = u
        below the boundary and u0 = h(pi) above it.
        """
        u, pi = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(pi, dtype=float))
        lev = u.copy()
        above = pi > self.curve.b_at(u)
        lev[above] = self.curve.h_at(pi[above])
        out = self._below(lev, pi) + (pi - self.params.k) * (lev - u)
        if out.ndim == 0:
            return float(out)
        return out

    def log_value(self, u, pi):
        """log V(u, pi), -inf where V <= 0, for a sign test that survives underflow.

        Below the boundary it is log(ratio) + log G(u, pi) - log G(u, b), with
        the logs taken in closed form, so it stays finite where A G underflows
        at large gamma; above the boundary it is the log of V itself.
        """
        u, pi = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(pi, dtype=float))
        out = np.empty(u.shape, dtype=float)
        below = pi <= self.curve.b_at(u)
        ratio, dlog = self._branch(u[below], pi[below])
        with np.errstate(divide="ignore"):
            out[below] = np.log(ratio) + dlog
            out[~below] = np.log(np.maximum(0.0, self.value(u[~below], pi[~below])))
        return out

    # -- u-derivatives ------------------------------------------------------

    def branch_u_derivatives(self, u, pi):
        """(W_u, W_upi) of the continuation branch W = A(u) G(u, pi), closed form.

        With A = N / D, N = (gamma + k - 1) b - gamma k and D = gamma' G(u, b):

            N' = gamma' (b - k) + (gamma + k - 1) b'
            D' = gamma'' G(u, b) + gamma' (G_u(u, b) + G_pi(u, b) b')
            G_u = gamma' L G,  G_upi = gamma' G (L (gamma - pi) + 1) / (pi (1-pi))

        where L = logit(pi) and b' is the slope of the curve's dense output.
        Everything is scaled by the ratio G(u, pi) / G(u, b), as in
        log_value, so that no G overflows or underflows on its own at large
        gamma.
        """
        p = self.params
        g, d1, d2, _ = self.spec.gamma_derivs(u, p.r)
        b = self.curve.b_at(u)
        db = self.curve.b_slope(u)
        num = (g + p.k - 1.0) * b - g * p.k
        # A' D = N' - N D'/D
        a_u = d1 * (b - p.k) + (g + p.k - 1.0) * db - num * (
            d2 / d1 + d1 * logit(b) + db * (g - b) / (b * (1.0 - b)))
        scale = np.exp(log_G(g, pi) - log_G(g, b)) / d1  # G(u, pi) / D
        lpi = logit(pi)
        w_u = scale * (a_u + num * d1 * lpi)
        w_upi = scale * (a_u * (g - pi) + num * d1 * (lpi * (g - pi) + 1.0)) / (pi * (1.0 - pi))
        return w_u, w_upi

    def value_u(self, u, pi):
        """dV/du of the branch owning (u, pi): W_u below the boundary, k - pi
        above it, where that branch is linear in u."""
        scalar = np.ndim(u) == 0 and np.ndim(pi) == 0
        u, pi = np.broadcast_arrays(np.atleast_1d(np.asarray(u, dtype=float)),
                                    np.atleast_1d(np.asarray(pi, dtype=float)))
        out = self.params.k - pi
        below = pi <= self.curve.b_at(u)
        out[below] = self.branch_u_derivatives(u[below], pi[below])[0]
        if scalar:
            return float(out[0])
        return out


def build_surface(spec, params, grid_size: int = 2001) -> ValueSurface:
    """Solve the boundary on the solver's default grid and wrap it as a surface."""
    from .boundary import solve_boundary

    return ValueSurface(solve_boundary(spec, params, grid_size=grid_size))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PdeResidualReport:
    n_samples: int
    n_below: int
    n_above: int
    max_below_rel: float
    max_above_signed: float
    # (u, pi) where each maximum occurred; None when its side has no sample
    max_below_rel_at: Optional[Tuple[float, float]]
    max_above_signed_at: Optional[Tuple[float, float]]

    @property
    def passed(self) -> bool:
        return self.max_below_rel <= TOL_PDE_BELOW_REL and self.max_above_signed <= TOL_PDE_ABOVE

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["passed"] = self.passed
        return d


def pde_residual_sweep(surface: ValueSurface) -> PdeResidualReport:
    """Signed generator residual (rho^2/2) pi^2 (1-pi)^2 V_pipi - r V over a
    deterministic low-discrepancy sample sweep.

    V_pipi = A G gamma (gamma - 1)/(pi (1-pi))^2 at the level u below the
    boundary and at the pull-back level h(pi) above it.  G solves its ODE
    exactly, so below the boundary the residual measures only whether
    spec.rho2 agrees with spec.gamma_derivs; above it, the sign of the
    stopped region's generator.
    """
    p = surface.params
    u, pi = low_discrepancy_samples()
    below = pi <= surface.curve.b_at(u)
    above = ~below
    lev = u.copy()
    lev[above] = surface.curve.h_at(pi[above])
    g = gamma(surface.spec, p, lev)
    val = surface._below(lev, pi)
    v_pipi = val * g * (g - 1.0) / (pi * (1.0 - pi)) ** 2
    val[above] += (pi[above] - p.k) * (lev[above] - u[above])
    res = 0.5 * surface.spec.rho2(u, p.r) * pi**2 * (1.0 - pi) ** 2 * v_pipi - p.r * val
    rel = np.abs(res) / np.maximum(1.0, p.r * np.abs(val))

    # a boundary close to 0 or 1 can leave one side without samples; its max
    # reads 0 and has no location
    def worst(x, side):
        i = int(np.argmax(np.where(side, x, -np.inf)))  # a NaN on the side wins
        return (float(x[i]), (float(u[i]), float(pi[i]))) if side[i] else (0.0, None)

    (below_max, below_at), (above_max, above_at) = worst(rel, below), worst(res, above)
    return PdeResidualReport(
        n_samples=N_SAMPLES,
        n_below=int(np.count_nonzero(below)),
        n_above=int(np.count_nonzero(above)),
        max_below_rel=below_max,
        max_above_signed=above_max,
        max_below_rel_at=below_at,
        max_above_signed_at=above_at,
    )


def smooth_fit_residuals(surface: ValueSurface, u) -> Tuple[np.ndarray, np.ndarray]:
    """|V_u + pi - k| and |V_upi + 1| at (u, b(u)), vectorized over u.

    Both read the continuation branch's closed-form u-derivatives, so they
    measure how well b solves the boundary ODE at u.
    """
    pi0 = surface.curve.b_at(u)
    w_u, w_upi = surface.branch_u_derivatives(u, pi0)
    return np.abs(w_u + pi0 - surface.params.k), np.abs(w_upi + 1.0)


def c1_pasting_gap(surface: ValueSurface, u) -> np.ndarray:
    """|dV/dpi from below - dV/dpi from above| at pi = b(u), vectorized over u.

    Above the boundary V = W(h(pi), pi) + (pi - k)(h(pi) - u) with W = A G,
    so as pi falls to b(u) its slope tends to W_pi + h'(b)(W_u + b - k),
    while the slope from below is W_pi.  The gap is therefore h'(b(u))
    times the signed smooth-fit V_u residual: an h'-weighted smooth fit,
    with its own tolerance, since h' = 1/b' is large where b is flat.
    """
    curve = surface.curve
    pi0 = curve.b_at(u)
    w_u = surface.branch_u_derivatives(u, pi0)[0]
    return np.abs(curve.h_slope(pi0) * (w_u + pi0 - surface.params.k))


@dataclass(frozen=True)
class SweepReport:
    n_samples: int
    worst: float
    worst_u: float
    worst_pi: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def gradient_bound_check(surface: ValueSurface) -> SweepReport:
    """max of V_u(u, pi) - (k - pi) over the sample sweep; must be <= 1e-6.

    Equality holds above the boundary, strict inequality below; this is the
    marginal-value bound that makes the reflecting control admissible.
    """
    u, pi = low_discrepancy_samples()
    viol = surface.value_u(u, pi) - (surface.params.k - pi)
    i = int(np.argmax(viol))
    return SweepReport(n_samples=N_SAMPLES, worst=float(viol[i]), worst_u=float(u[i]), worst_pi=float(pi[i]))


def learning_premium_check(surface: ValueSurface) -> SweepReport:
    """max of (1-u) v(pi; u) - V(u, pi) over the sweep; nonpositive means the
    option to spread investment (and keep learning) dominates lump stopping."""
    u, pi = low_discrepancy_samples()
    v = stopping_value_v(surface.spec, surface.params, u, pi)
    gap = (1.0 - u) * v - surface.value(u, pi)
    i = int(np.argmax(gap))
    return SweepReport(n_samples=N_SAMPLES, worst=float(gap[i]), worst_u=float(u[i]), worst_pi=float(pi[i]))


@dataclass(frozen=True)
class ValueCheckReport:
    """Aggregate verification of the assembled surface against its PDE."""

    n_samples: int
    n_boundary_points: int
    pde: PdeResidualReport
    smooth_fit_max_vu: float
    smooth_fit_max_vupi: float
    c1_pasting_max: float
    # (u, pi = b(u)) where each boundary maximum occurred
    smooth_fit_max_vu_at: Tuple[float, float]
    smooth_fit_max_vupi_at: Tuple[float, float]
    c1_pasting_max_at: Tuple[float, float]
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
            "smooth_fit_max_vu_at": list(self.smooth_fit_max_vu_at),
            "smooth_fit_max_vupi_at": list(self.smooth_fit_max_vupi_at),
            "c1_pasting_max_at": list(self.c1_pasting_max_at),
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


def verify_surface(surface: ValueSurface) -> ValueCheckReport:
    """Run every diagnostic; the CLI `verify` subcommand serializes this.

    The boundary checks run at every knot-segment midpoint of the curve.
    """
    ug = surface.curve.u_grid
    us = 0.5 * (ug[:-1] + ug[1:])
    vu, vupi = smooth_fit_residuals(surface, us)
    c1 = c1_pasting_gap(surface, us)

    # two-branch continuity at the same points
    pi_b = surface.curve.b_at(us)
    lo_vals = surface._below(us, pi_b)
    u0 = surface.curve.h_at(pi_b)
    hi_vals = surface._below(u0, pi_b) + (pi_b - surface.params.k) * (u0 - us)
    continuity = float(np.max(np.abs(lo_vals - hi_vals)))

    def at_max(x):
        i = int(np.argmax(x))
        return float(us[i]), float(pi_b[i])

    u_s, pi_s = low_discrepancy_samples()

    return ValueCheckReport(
        n_samples=N_SAMPLES,
        n_boundary_points=us.size,
        pde=pde_residual_sweep(surface),
        smooth_fit_max_vu=float(np.max(vu)),
        smooth_fit_max_vupi=float(np.max(vupi)),
        c1_pasting_max=float(np.max(c1)),
        smooth_fit_max_vu_at=at_max(vu),
        smooth_fit_max_vupi_at=at_max(vupi),
        c1_pasting_max_at=at_max(c1),
        gradient=gradient_bound_check(surface),
        premium=learning_premium_check(surface),
        continuity_max=continuity,
        log_value_min=float(np.min(surface.log_value(u_s, pi_s))),
        A_terminal=float(surface.coefficient_A(1.0)),
    )
