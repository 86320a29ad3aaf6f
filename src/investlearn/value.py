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

Finite-difference policy.  Steps in the pi direction are plain (1e-4,
shrunk near the ends); G is analytic in pi.  Steps in the u direction are
snapped to whole multiples of the boundary grid spacing: b is stored with
piecewise-linear interpolation, and a step that is not a multiple of the
spacing samples the local interpolation slope, which is off by O(spacing)
and would drown the tolerances.  Snapping aligns the interpolation-error
phase at all stencil points and cancels it to third order.  Second
derivatives above the boundary are differenced at the pull-back level
u0 = h(pi), where the surface is C2-pasted; differencing the two-branch
assembly across interpolation knots of h would measure knot noise, not the
generator.  Derivatives in u always difference the branch the base point
belongs to (the pasting is C1, so the branch derivative is the derivative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .boundary import BoundaryCurve
from .model import fundamental_G, stopping_value_v

EXCLUSION_BAND = 1e-6  # pde_residual refuses evaluation this close to b(u)
PI_STEP = 1e-4
U_STEP_NOMINAL = 1e-4

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
        # FD step in u, snapped to the boundary grid spacing (see module docstring)
        self.du = curve.u_grid[1] - curve.u_grid[0]
        self.u_step = max(1, round(U_STEP_NOMINAL / self.du)) * self.du

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

    # -- u-derivative of the active branch ----------------------------------

    def value_u(self, u, pi):
        """dV/du by second-order FD of the branch owning (u, pi).

        Above the boundary the branch is linear in u, so the FD reproduces
        k - pi to roundoff; below, the stencil is snapped to grid nodes.
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
        above = ~below
        if np.any(above):
            # branch linear in u at frozen pull-back level: difference it
            # directly (the formula extends past the domain edge, so a plain
            # central stencil is always available)
            d = self.u_step
            ua, pa = u[above], pi[above]
            u0 = self.curve.h_at(pa)
            base = self._below(u0, pa)
            slope = pa - self.params.k
            f_plus = base + slope * (u0 - (ua + d))
            f_minus = base + slope * (u0 - (ua - d))
            out[above] = (f_plus - f_minus) / (2.0 * d)
        if scalar:
            return float(out[0])
        return out

    def _fd_u(self, fn, u, pi):
        """Second-order difference of fn(u, pi) in u; central where possible."""
        d = self.u_step
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


def build_surface(spec, params, grid_size: int = 20001) -> ValueSurface:
    """Solve the boundary and wrap it as a surface.

    The default grid is finer than the solver's own: the piecewise-linear
    read-back of b injects O(grid spacing squared) noise into the branch
    above the boundary, and the learning-premium tolerance of 1e-8 needs
    that noise an order of magnitude smaller than a 2001-point grid gives.
    """
    from .boundary import solve_boundary

    return ValueSurface(solve_boundary(spec, params, grid_size=grid_size))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _pi_step(pi):
    return np.minimum(PI_STEP, np.minimum(pi, 1.0 - pi) / 2.0)


def pde_residual(surface: ValueSurface, u, pi):
    """Signed generator residual (rho^2/2) pi^2 (1-pi)^2 V_pipi - r V.

    Zero (to FD accuracy) below the boundary, nonpositive above it.  V_pipi
    is a central second difference with step 1e-4; above the boundary it is
    taken at the pull-back level u0 = h(pi) where the pasting is C2.
    Refuses evaluation within EXCLUSION_BAND of b(u).
    """
    scalar = np.isscalar(u) and np.isscalar(pi)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    u, pi = np.broadcast_arrays(u, pi)
    b_u = surface.curve.b_at(u)
    if np.any(np.abs(pi - b_u) < EXCLUSION_BAND):
        raise ValueError("pde_residual: pi within the exclusion band around b(u)")
    res = _pde_residual_raw(surface, u, pi, b_u)
    if scalar:
        return float(res[0])
    return res


def _pde_residual_raw(surface: ValueSurface, u, pi, b_u):
    p = surface.params
    below = pi <= b_u
    # level at which the curvature is differenced: u itself below the
    # boundary, the pull-back h(pi) above it
    lev = np.where(below, u, 0.0)
    above = ~below
    if np.any(above):
        lev[above] = surface.curve.h_at(pi[above])
    h = _pi_step(pi)
    A = surface.coefficient_A(lev)
    Gm = fundamental_G(surface.spec, p, lev, pi - h)
    G0 = fundamental_G(surface.spec, p, lev, pi)
    Gp = fundamental_G(surface.spec, p, lev, pi + h)
    v_pipi = A * (Gp - 2.0 * G0 + Gm) / h**2
    val = A * G0
    if np.any(above):
        val = val + np.where(above, (pi - p.k) * (lev - u), 0.0)
    rho2 = surface.spec.rho2(u, p.r)
    return 0.5 * rho2 * pi**2 * (1.0 - pi) ** 2 * v_pipi - p.r * val


@dataclass(frozen=True)
class PdeResidualReport:
    n_samples: int
    n_below: int
    n_above: int
    n_excluded: int
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
    """Generator residual over a deterministic low-discrepancy sample sweep."""
    u, pi = low_discrepancy_samples(n_samples)
    b_u = surface.curve.b_at(u)
    keep = np.abs(pi - b_u) >= EXCLUSION_BAND
    n_excluded = int(n_samples - np.count_nonzero(keep))
    u, pi, b_u = u[keep], pi[keep], b_u[keep]
    res = _pde_residual_raw(surface, u, pi, b_u)
    below = pi <= b_u
    p = surface.params
    val = surface.value(u[below], pi[below])
    rel = np.abs(res[below]) / np.maximum(1.0, p.r * np.abs(val))
    return PdeResidualReport(
        n_samples=n_samples,
        n_below=int(np.count_nonzero(below)),
        n_above=int(np.count_nonzero(~below)),
        n_excluded=n_excluded,
        max_below_rel=float(np.max(rel)),
        max_above_signed=float(np.max(res[~below])),
    )


def smooth_fit_residuals(surface: ValueSurface, u: float) -> Tuple[float, float]:
    """|V_u + pi - k| and |V_upi + 1| at (u, b(u)), one-sided from below in u.

    Differences the continuation branch A(.) G(., pi0) toward smaller u with
    a second-order stencil (forward variant only when u < 2 steps from 0).
    """
    d = surface.u_step
    pi0 = float(surface.curve.b_at(u))
    k = surface.params.k

    def v_u(piq: float) -> float:
        if u >= 2.0 * d:
            pts = (u, u - d, u - 2.0 * d)
            w = (3.0, -4.0, 1.0)
        else:
            pts = (u, u + d, u + 2.0 * d)
            w = (-3.0, 4.0, -1.0)
        vals = [float(surface._below(x, piq)) for x in pts]
        return (w[0] * vals[0] + w[1] * vals[1] + w[2] * vals[2]) / (2.0 * d)

    hp = float(_pi_step(np.asarray(pi0)))
    res_u = abs(v_u(pi0) - (k - pi0))
    res_mixed = abs((v_u(pi0 + hp) - v_u(pi0 - hp)) / (2.0 * hp) + 1.0)
    return res_u, res_mixed


def c1_pasting_gap(surface: ValueSurface, u: float) -> float:
    """|dV/dpi from below - dV/dpi from above| at pi = b(u) (second order).

    The above-side stencil sits on the next two boundary knots b_{j}, b_{j+1}
    rather than fixed offsets: at knot abscissae the piecewise-linear inverse
    round-trips exactly (h(b_j) = u_j), so the assembled branch is evaluated
    free of interpolation noise, which a fixed-step stencil would amplify by
    1/step.  Spacing is uneven, hence the generic 3-point weights.
    """
    pi0 = float(surface.curve.b_at(u))
    hp = float(_pi_step(np.asarray(pi0)))
    f0 = float(surface._below(u, pi0))
    lo = (
        3.0 * f0
        - 4.0 * float(surface._below(u, pi0 - hp))
        + float(surface._below(u, pi0 - 2.0 * hp))
    ) / (2.0 * hp)

    bv = surface.curve.b_values
    j = int(np.searchsorted(bv, pi0, side="right"))
    if j + 1 >= bv.size:
        raise ValueError("c1_pasting_gap needs two boundary knots above b(u)")
    x1, x2 = float(bv[j]), float(bv[j + 1])
    f1 = float(surface.value(u, x1))
    f2 = float(surface.value(u, x2))
    # first derivative at pi0 from (pi0, x1, x2), unequal spacing
    hi = (
        f0 * (2.0 * pi0 - x1 - x2) / ((pi0 - x1) * (pi0 - x2))
        + f1 * (pi0 - x2) / ((x1 - pi0) * (x1 - x2))
        + f2 * (pi0 - x1) / ((x2 - pi0) * (x2 - x1))
    )
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
    value_min: float
    A_terminal: float

    def checks(self) -> dict:
        """Per-check verdicts, as the run manifest records them.

        "all" also requires continuity, a positive value and a vanishing
        terminal coefficient, which have no entry of their own.
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
            and self.value_min > 0.0
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
            "value_min": self.value_min,
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

    Starts clear of u = 0 by the u-stencil width and stops two knots short of
    u = 1 so the above-side pasting stencil has knots to stand on.
    """
    ug = surface.curve.u_grid
    i0 = int(np.ceil(2.0 * surface.u_step / surface.du))
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
    vals = surface.value(u_s, pi_s)

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
        value_min=float(np.min(vals)),
        A_terminal=float(surface.coefficient_A(1.0)),
    )
