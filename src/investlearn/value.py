"""Candidate value surface and its verification diagnostics.

With the boundary b and the exponent machinery in hand, the value of the
expansion problem is assembled in closed form:

    V(u, pi) = A(u) G(u, pi)                                   pi <= b(u)
             = A(u0) G(u0, pi) + (pi - k)(u0 - u),  u0 = h(pi)  pi >  b(u)

where A(u) = ((gamma + k - 1) b(u) - gamma k) / (gamma'(u) G(u, b(u))) and
h is the inverse boundary.  A G is formed as ratio x exp(log G(u, pi) -
log G(u, b)), ratio = A(u) G(u, b), so that no factor overflows on its own
where gamma logit(b) is large.  Each point set is evaluated once: one split
at b(u), one pull-back through h and one evaluation of A G, from which V,
log V, V_u and V_pipi follow.  `verify_surface` makes two such evaluations,
at the sample sweep and at the knot-segment midpoints, and its diagnostics
read them.  They do not trust the construction: they re-check the
variational characterization (generator residual zero below the boundary
and nonpositive above it, smooth fit along the boundary, the gradient bound
V_u <= k - pi, and dominance over the no-learning stopping value).

Derivatives.  No derivative is a finite difference.  The pi-derivatives of
a branch A(u0) G(u0, .) are closed form in G and gamma, and the surface is
C2-pasted at the boundary.  The u-derivatives of the continuation branch
follow by the chain rule through A(u), with b' the slope of the curve's
cubic Hermite dense output (see `_Evaluation.branch_u`).  At a knot that
slope is the ODE's own F(u, b), where smooth fit holds by algebra, so the
pasting checks run at the knot-segment midpoints: there they measure how
far the interpolated curve is from solving the boundary ODE.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .boundary import BoundaryCurve
# fundamental_G is not called here; bench/spans.py counts calls through this name
from .model import _worst, fundamental_G, gamma, log_G, logit, stopping_value_of_gamma

TOL_PDE_BELOW_REL = 1e-6
TOL_PDE_ABOVE = 1e-8
TOL_SMOOTH_FIT = 1e-4
TOL_GRADIENT = 1e-6
TOL_PREMIUM = 1e-8
TOL_CONTINUITY = 1e-12
TOL_C1_PASTING = 1e-5
TOL_A_TERMINAL = 1e-12

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


class _Evaluation:
    """The surface at one point set: one split at b(u), one pull-back through
    h and one evaluation of A G, from which V, log V, V_u and V_pipi follow.

    Each point is evaluated at its level: u below the boundary, h(pi) above
    it, where V is linear in u.  Without pi the points are (u, b(u)) on the
    continuation branch; `above`, when given, replaces the split.  A given
    pi must lie strictly in (0, 1), where log G is finite.
    """

    def __init__(self, surface: "ValueSurface", u, pi=None, above=None):
        curve, p = surface.curve, surface.params
        self.surface = surface
        self.scalar = np.ndim(u) == 0 and np.ndim(pi) == 0
        u, b = np.atleast_1d(np.asarray(u, dtype=float)), None
        if pi is None:
            pi = b = curve.b_at(u)
            above = False
        else:
            pi = np.asarray(pi, dtype=float)
            if np.any(pi <= 0.0) or np.any(pi >= 1.0):
                raise ValueError("pi must lie strictly in (0, 1)")
        u, pi = np.broadcast_arrays(u, np.atleast_1d(pi))
        self.u, self.pi, self.lev = u, pi, u
        self.above = pi > curve.b_at(u) if above is None else np.broadcast_to(above, u.shape)
        self.below = ~self.above
        if self.above.any():
            self.lev = u.copy()
            self.lev[self.above] = curve.h_at(pi[self.above])
        self.g, self.d1, self.d2 = surface.spec.gamma_derivs(self.lev, p.r)[:3]
        self.b = curve.b_at(self.lev) if b is None else b
        # ratio = A G(., b) at the level.  A(1) = 0 because b(1) = c(1) kills
        # its numerator; the clamp only absorbs the roundoff of that cancellation.
        self.ratio = np.maximum(0.0, ((self.g + p.k - 1.0) * self.b - self.g * p.k) / self.d1)
        self.dlog = log_G(self.g, pi) - log_G(self.g, self.b)
        self.w = self.ratio * np.exp(self.dlog)  # A G at the level
        self.v = self.w + (pi - p.k) * (self.lev - u)

    def out(self, x):
        """x as the accessors return it: a float for scalar arguments."""
        return float(x[0]) if self.scalar else x

    @property
    def log_v(self):
        with np.errstate(divide="ignore"):
            return np.where(self.below, np.log(self.ratio) + self.dlog,
                            np.log(np.maximum(0.0, self.v)))

    @cached_property
    def branch_u(self):
        """(W_u, W_upi) of the continuation branch W = A(u) G(u, pi) at each
        point's level.  With A = N / D, N = (gamma + k - 1) b - gamma k and
        D = gamma' G(u, b):

            N' = gamma' (b - k) + (gamma + k - 1) b'
            D' = gamma'' G(u, b) + gamma' (G_u(u, b) + G_pi(u, b) b')
            G_u = gamma' L G,  G_upi = gamma' G (L (gamma - pi) + 1) / (pi (1-pi))

        where L = logit(pi) and b' is the slope of the curve's dense output.
        Everything is scaled by the ratio G(u, pi) / G(u, b), as in log_v, so
        that no G overflows or underflows on its own at large gamma.
        """
        k, g, d1, b, pi = self.surface.params.k, self.g, self.d1, self.b, self.pi
        db = self.surface.curve.b_slope(self.lev)
        num = (g + k - 1.0) * b - g * k
        # A' D = N' - N D'/D
        a_u = d1 * (b - k) + (g + k - 1.0) * db - num * (
            self.d2 / d1 + d1 * logit(b) + db * (g - b) / (b * (1.0 - b)))
        scale = np.exp(self.dlog) / d1  # G(u, pi) / D
        lpi = logit(pi)
        w_u = scale * (a_u + num * d1 * lpi)
        w_upi = scale * (a_u * (g - pi) + num * d1 * (lpi * (g - pi) + 1.0)) / (pi * (1.0 - pi))
        return w_u, w_upi

    @property
    def v_u(self):
        return np.where(self.below, self.branch_u[0], self.surface.params.k - self.pi)

    @property
    def v_pipi(self):
        # the curvature at the level, where the surface is C2-pasted
        return self.w * self.g * (self.g - 1.0) / (self.pi * (1.0 - self.pi)) ** 2


class ValueSurface:
    """Closed-form candidate value built on a solved boundary curve."""

    def __init__(self, curve: BoundaryCurve):
        curve._h  # the inverse, built here: ValueError if the curve has none
        self.curve = curve
        self.spec = curve.spec
        self.params = curve.params

    def coefficient_A(self, u):
        """A(u) >= 0 tying G to the boundary data: 2 A G(u, 1/2), as G(u, 1/2) = 1/2."""
        ev = _Evaluation(self, u)
        return ev.out(2.0 * ev.ratio * np.exp(log_G(ev.g, 0.5) - log_G(ev.g, ev.b)))

    def value(self, u, pi):
        """V(u, pi), vectorized over broadcastable arguments.

        Both branches are A(u0) G(u0, pi) + (pi - k)(u0 - u), with u0 = u
        below the boundary and u0 = h(pi) above it.
        """
        ev = _Evaluation(self, u, pi)
        return ev.out(ev.v)

    def log_value(self, u, pi):
        """log V(u, pi), -inf where V <= 0, for a sign test that survives underflow.

        Below the boundary it is log(ratio) + log G(u, pi) - log G(u, b), with
        the logs taken in closed form, so it stays finite where A G underflows
        at large gamma; above the boundary it is the log of V itself.
        """
        ev = _Evaluation(self, u, pi)
        return ev.out(ev.log_v)

    def value_u(self, u, pi):
        """dV/du of the branch owning (u, pi): W_u below the boundary, k - pi
        above it, where that branch is linear in u."""
        ev = _Evaluation(self, u, pi)
        return ev.out(ev.v_u)


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


def pde_residual_sweep(ev: _Evaluation) -> PdeResidualReport:
    """Signed generator residual (rho^2/2) pi^2 (1-pi)^2 V_pipi - r V over an
    evaluation at the sample sweep.

    V_pipi = A G gamma (gamma - 1)/(pi (1-pi))^2 at the level u below the
    boundary and at the pull-back level h(pi) above it.  G solves its ODE
    exactly, so below the boundary the residual measures only whether
    spec.rho2 agrees with spec.gamma_derivs; above it, the sign of the
    stopped region's generator.
    """
    p, u, pi = ev.surface.params, ev.u, ev.pi
    res = 0.5 * ev.surface.spec.rho2(u, p.r) * pi**2 * (1.0 - pi) ** 2 * ev.v_pipi - p.r * ev.v
    rel = np.abs(res) / np.maximum(1.0, p.r * np.abs(ev.v))
    below_max, below_at = _worst(rel, u, pi, side=ev.below)
    above_max, above_at = _worst(res, u, pi, side=ev.above)
    return PdeResidualReport(
        n_samples=u.size,
        n_below=int(np.count_nonzero(ev.below)),
        n_above=int(np.count_nonzero(ev.above)),
        max_below_rel=below_max,
        max_above_signed=above_max,
        max_below_rel_at=below_at,
        max_above_signed_at=above_at,
    )


def smooth_fit_residuals(ev: _Evaluation) -> Tuple[np.ndarray, np.ndarray]:
    """|V_u + pi - k| and |V_upi + 1| on an evaluation of the boundary points
    (u, b(u)).  Both read the continuation branch's closed-form
    u-derivatives, so they measure how well b solves the boundary ODE at u.
    """
    w_u, w_upi = ev.branch_u
    return np.abs(w_u + ev.pi - ev.surface.params.k), np.abs(w_upi + 1.0)


def c1_pasting_gap(ev: _Evaluation) -> np.ndarray:
    """|dV/dpi from below - dV/dpi from above| on an evaluation of the
    boundary points (u, b(u)).

    Above the boundary V = W(h(pi), pi) + (pi - k)(h(pi) - u) with W = A G,
    so as pi falls to b(u) its slope tends to W_pi + h'(b)(W_u + b - k),
    while the slope from below is W_pi.  The gap is therefore h'(b(u))
    times the signed smooth-fit V_u residual: an h'-weighted smooth fit,
    with its own tolerance, since h' = 1/b' is large where b is flat.
    """
    k = ev.surface.params.k
    return np.abs(ev.surface.curve.h_slope(ev.pi) * (ev.branch_u[0] + ev.pi - k))


@dataclass(frozen=True)
class SweepReport:
    n_samples: int
    worst: float
    worst_u: float
    worst_pi: float


def gradient_bound_check(ev: _Evaluation) -> SweepReport:
    """max of V_u(u, pi) - (k - pi) over an evaluation; must be <= 1e-6.

    Equality holds above the boundary, strict inequality below; this is the
    marginal-value bound that makes the reflecting control admissible.
    """
    worst, at = _worst(ev.v_u - (ev.surface.params.k - ev.pi), ev.u, ev.pi)
    return SweepReport(ev.u.size, worst, *at)


def learning_premium_check(ev: _Evaluation) -> SweepReport:
    """max of (1-u) v(pi; u) - V(u, pi) over an evaluation; nonpositive means
    the option to spread investment (and keep learning) dominates lump
    stopping.

    v reads gamma(u) from the evaluation below the boundary, where the
    level is u, and evaluates it only at the points above.
    """
    spec, p = ev.surface.spec, ev.surface.params
    g = ev.g.copy()
    g[ev.above] = gamma(spec, p, ev.u[ev.above])
    worst, at = _worst((1.0 - ev.u) * stopping_value_of_gamma(g, p.k, ev.pi) - ev.v, ev.u, ev.pi)
    return SweepReport(ev.u.size, worst, *at)


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
            and abs(self.A_terminal) <= TOL_A_TERMINAL
        )
        return checks

    @property
    def passed(self) -> bool:
        return self.checks()["all"]

    def to_dict(self) -> dict:
        """The report as `verify_report.json` holds it: every field, the
        verdicts of the whole and of the PDE sweep, and the tolerances."""
        d = asdict(self)
        d["pde"]["passed"] = self.pde.passed
        return {
            **d,
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
    """Run every diagnostic; the CLI `verify` command serializes this.

    The surface is evaluated once at the sample sweep and once at the
    knot-segment midpoints (u, b(u)), which the continuity check also reads
    through the pull-back.  The evaluations live here, not on the surface,
    so that they are freed on return.
    """
    ug = surface.curve.u_grid
    us = 0.5 * (ug[:-1] + ug[1:])
    mid = _Evaluation(surface, us)
    # two-branch continuity: the same points read through the pull-back
    continuity = float(np.max(np.abs(mid.v - _Evaluation(surface, us, mid.pi, above=True).v)))
    (vu, vu_at), (vupi, vupi_at), (c1, c1_at) = (
        _worst(x, us, mid.pi) for x in (*smooth_fit_residuals(mid), c1_pasting_gap(mid)))
    del mid

    sweep = _Evaluation(surface, *low_discrepancy_samples())
    return ValueCheckReport(
        n_samples=N_SAMPLES,
        n_boundary_points=us.size,
        pde=pde_residual_sweep(sweep),
        smooth_fit_max_vu=vu,
        smooth_fit_max_vupi=vupi,
        c1_pasting_max=c1,
        smooth_fit_max_vu_at=vu_at,
        smooth_fit_max_vupi_at=vupi_at,
        c1_pasting_max_at=c1_at,
        gradient=gradient_bound_check(sweep),
        premium=learning_premium_check(sweep),
        continuity_max=continuity,
        log_value_min=float(np.min(sweep.log_v)),
        A_terminal=float(surface.coefficient_A(1.0)),
    )
