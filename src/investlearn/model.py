"""Model primitives for irreversible investment with learning by doing.

A firm expands capacity U toward 1 while observing a signal whose
informativeness rho(U) grows with capacity already installed.  The demand
state theta is 0 or 1; the belief Pi_t = P(theta = 1 | F_t) diffuses as
dPi = rho(U) Pi (1 - Pi) dW.  Everything downstream (free boundary, value
surface, simulation, discrete ladder) is built from four scalar functions
of u on [0, 1]:

    gamma(u)  = 1/2 + sqrt(1/4 + 2 r / rho^2(u)),   the positive root > 1 of
                gamma^2 - gamma - 2 r / rho^2(u) = 0
    G(u, pi)  = (1 - pi) (pi / (1 - pi))^gamma(u),  the increasing solution of
                (rho^2/2) pi^2 (1-pi)^2 G'' = r G
    c(u)      = k gamma / (k + gamma - 1),          single-step stopping threshold
    H(u, pi)  = 2 (pi - k) gamma'^2 + (gamma k - (gamma + k - 1) pi) gamma''

k in (0, 1) is the ratio -mu0 / (mu1 - mu0) of the demand drifts, i.e. the
belief at which expansion breaks even.

Rate specifications come in four families.  Three are closed-form; the
fourth interpolates a table.  All expose gamma and its derivatives, which
is the only thing the solvers consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

# Strict inequalities in the condition checks are tested against this slack;
# identities that hold with equality (e.g. the hyperbolic family) must not
# flip the verdict on float noise.  The sign of 2 gamma'^2 - gamma gamma'' is
# tested relative to the scale 2 gamma'^2 + |gamma gamma''| of its terms
# (_sign_slack), since their roundoff grows with gamma.
SIGN_TOL = 1e-10

# gamma ~ sqrt(2 r) / rho as rho -> 0, which overflows the exponent in G;
# rate specs below this floor are rejected at construction.
RHO_FLOOR = 1e-8

CONDITION_GRID = 1001  # nodes of check_conditions' validation grid


class ConfigError(ValueError):
    """Invalid model or rate-spec parameters."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Discount rate and break-even belief.

    Parameters
    ----------
    r : float
        Discount rate, > 0.
    k : float
        Break-even belief in (0, 1).  If the model is posed with demand
        drifts mu0 < 0 < mu1, use :meth:`from_drifts`.
    """

    r: float
    k: float

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r > 0):
            raise ConfigError(f"discount rate must be positive, got {self.r}")
        if not (np.isfinite(self.k) and 0.0 < self.k < 1.0):
            raise ConfigError(f"break-even belief must lie in (0,1), got {self.k}")

    @classmethod
    def from_drifts(cls, mu0: float, mu1: float, r: float) -> "ModelParams":
        """Build params from demand drifts; requires mu0 < 0 < mu1."""
        if not (mu0 < 0.0 < mu1):
            raise ConfigError(f"drifts must satisfy mu0 < 0 < mu1, got {mu0}, {mu1}")
        return cls(r=r, k=-mu0 / (mu1 - mu0))


# ---------------------------------------------------------------------------
# rate specifications
# ---------------------------------------------------------------------------


def _check_u(u: ArrayLike) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("u outside [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def _gamma_from_q(q, dq, d2q, d3q):
    """gamma = 1/2 + s with s = sqrt(1/4 + q), q = 2r/rho^2, by the chain rule."""
    s = np.sqrt(0.25 + q)
    g = 0.5 + s
    d1 = dq / (2.0 * s)
    d2 = d2q / (2.0 * s) - dq * dq / (4.0 * s**3)
    if d3q is None:
        d3 = None
    else:
        d3 = d3q / (2.0 * s) - 3.0 * dq * d2q / (4.0 * s**3) + 3.0 * dq**3 / (8.0 * s**5)
    return g, d1, d2, d3


class RateSpec:
    """Base class: signal-to-noise rate rho(u) of the demand signal."""

    family = "base"

    def rho2(self, u: ArrayLike, r: float) -> np.ndarray:
        raise NotImplementedError

    def gamma_derivs(self, u: ArrayLike, r: float):
        """Return (gamma, gamma', gamma'', gamma''') at u; last entry may be None."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearNoise(RateSpec):
    """rho^2(u) = C / (1 - D u): signal variance shrinks linearly in u.

    2r/rho^2 is affine in u, so gamma'' = -2 gamma'^2 / (2 gamma - 1) < 0
    (gamma is concave) and the zero level of H has the closed form
    B(u) = (3 gamma - 1) k / (3 gamma + k - 2).
    """

    C: float
    D: float
    family = "linear_noise"

    def __post_init__(self):
        if not (np.isfinite(self.C) and self.C > 0):
            raise ConfigError(f"LinearNoise C must be positive, got {self.C}")
        if not (np.isfinite(self.D) and 0.0 <= self.D < 1.0):
            raise ConfigError(f"LinearNoise D must lie in [0,1), got {self.D}")
        if math.sqrt(self.C) < RHO_FLOOR:
            raise ConfigError("rate is numerically zero")

    def rho2(self, u, r):
        return self.C / (1.0 - self.D * _check_u(u))

    def gamma_derivs(self, u, r):
        u = _check_u(u)
        a = 2.0 * r / self.C
        q = a * (1.0 - self.D * u)
        dq = np.full_like(q, -a * self.D)
        zero = np.zeros_like(q)
        return _gamma_from_q(q, dq, zero, zero)

    def describe(self):
        return {"family": self.family, "C": self.C, "D": self.D}


@dataclass(frozen=True)
class SqrtExpansion(RateSpec):
    """rho(u) = C sqrt(u + eps): learning rate grows as the square root.

    eps > 0 regularizes the u = 0 endpoint (rho(0) = 0 would make gamma
    blow up); default 1e-3.  The choice of eps is part of the model, not a
    solver knob.
    """

    C: float
    eps: float = 1e-3
    family = "sqrt_expansion"

    def __post_init__(self):
        if not (np.isfinite(self.C) and self.C > 0):
            raise ConfigError(f"SqrtExpansion C must be positive, got {self.C}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"SqrtExpansion eps must be positive, got {self.eps}")
        if self.C * math.sqrt(self.eps) < RHO_FLOOR:
            raise ConfigError("rate is numerically zero at u = 0")

    def rho2(self, u, r):
        return self.C**2 * (_check_u(u) + self.eps)

    def gamma_derivs(self, u, r):
        x = _check_u(u) + self.eps
        q = 2.0 * r / (self.C**2 * x)
        dq = -q / x
        d2q = 2.0 * q / x**2
        d3q = -6.0 * q / x**3
        return _gamma_from_q(q, dq, d2q, d3q)

    def describe(self):
        return {"family": self.family, "C": self.C, "eps": self.eps}


@dataclass(frozen=True)
class HyperbolicGamma(RateSpec):
    """gamma(u) = A / (u + beta) specified directly; rho recovered from it.

    Inverting gamma^2 - gamma = 2r/rho^2 gives rho^2 = 2r / (gamma^2 - gamma).
    For this family 2 gamma'^2 - gamma gamma'' = 0 identically, so the
    monotonicity condition on H holds with equality and B is undefined.
    Requires A > 1 + beta so that gamma(1) > 1.
    """

    A: float
    beta: float
    family = "hyperbolic_gamma"

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ConfigError(f"HyperbolicGamma beta must be positive, got {self.beta}")
        if not (np.isfinite(self.A) and self.A > 1.0 + self.beta):
            raise ConfigError(
                f"HyperbolicGamma needs A > 1 + beta for gamma > 1 on [0,1], "
                f"got A={self.A}, beta={self.beta}"
            )

    def rho2(self, u, r):
        g = self.A / (_check_u(u) + self.beta)
        return 2.0 * r / (g * g - g)

    def gamma_derivs(self, u, r):
        x = _check_u(u) + self.beta
        g = self.A / x
        return g, -self.A / x**2, 2.0 * self.A / x**3, -6.0 * self.A / x**4

    def describe(self):
        return {"family": self.family, "A": self.A, "beta": self.beta}


class Tabulated(RateSpec):
    """rho sampled on a uniform grid over [0, 1].

    gamma is computed pointwise on the table and differentiated by central
    differences with step equal to the grid spacing (one-sided at the ends);
    queries interpolate linearly.  The third derivative is disabled: third
    differences of tabulated data are noise, so the curvature-growth
    condition reports as unverifiable.
    """

    family = "tabulated"

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho, dtype=float)
        if rho.ndim != 1 or rho.size < 11:
            raise ConfigError("tabulated rate needs a 1-d grid of at least 11 values")
        if not np.all(np.isfinite(rho)):
            raise ConfigError("tabulated rate contains non-finite values")
        if np.any(rho < RHO_FLOOR):
            raise ConfigError("tabulated rate is zero or near-zero somewhere")
        self.rho_values = rho
        self.u_grid = np.linspace(0.0, 1.0, rho.size)
        self._cache: dict = {}

    @classmethod
    def from_rho2(cls, rho2: np.ndarray) -> "Tabulated":
        rho2 = np.asarray(rho2, dtype=float)
        if np.any(rho2 <= 0):
            raise ConfigError("tabulated rho^2 must be positive")
        return cls(np.sqrt(rho2))

    def _tables(self, r: float):
        tab = self._cache.get(r)
        if tab is None:
            q = 2.0 * r / self.rho_values**2
            s = np.sqrt(0.25 + q)
            g = 0.5 + s
            h = self.u_grid[1] - self.u_grid[0]
            d1 = np.gradient(g, h)
            d2 = np.gradient(d1, h)
            tab = (g, d1, d2)
            self._cache[r] = tab
        return tab

    def rho2(self, u, r):
        return np.interp(_check_u(u), self.u_grid, self.rho_values) ** 2

    def gamma_derivs(self, u, r):
        u = _check_u(u)
        g, d1, d2 = self._tables(r)
        return (
            np.interp(u, self.u_grid, g),
            np.interp(u, self.u_grid, d1),
            np.interp(u, self.u_grid, d2),
            None,
        )

    def describe(self):
        return {"family": self.family, "rho": self.rho_values.tolist()}

    def __repr__(self):
        return f"Tabulated(<{self.rho_values.size} points>)"


# ---------------------------------------------------------------------------
# derived scalar functions
# ---------------------------------------------------------------------------


def rho(spec: RateSpec, params: ModelParams, u: ArrayLike) -> np.ndarray:
    return np.sqrt(spec.rho2(u, params.r))


def gamma(spec: RateSpec, params: ModelParams, u: ArrayLike) -> np.ndarray:
    """Decay exponent gamma(u) > 1, the relevant root of gamma^2 - gamma = 2r/rho^2."""
    return spec.gamma_derivs(u, params.r)[0]


def G_of_gamma(g: ArrayLike, pi: ArrayLike) -> np.ndarray:
    """G = (1-pi) (pi/(1-pi))^g for exponent values g; pi strictly inside (0, 1).

    Its pi-derivatives are closed form, G_pi = G (g - pi) / (pi (1-pi)) and
    G_pipi = G g (g - 1) / (pi (1-pi))^2, which the diagnostics use instead
    of differencing in pi.
    """
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise ValueError("pi must lie strictly in (0, 1)")
    # exp/log form keeps precision for pi near either end
    return (1.0 - pi) * np.exp(g * (np.log(pi) - np.log1p(-pi)))


def fundamental_G(spec: RateSpec, params: ModelParams, u: ArrayLike, pi: ArrayLike) -> np.ndarray:
    """Increasing solution G(u, pi) = (1-pi) (pi/(1-pi))^gamma(u) of the killed generator.

    pi must lie strictly inside (0, 1).
    """
    return G_of_gamma(gamma(spec, params, u), pi)


def stopping_threshold_c(spec: RateSpec, params: ModelParams, u: ArrayLike) -> np.ndarray:
    """Threshold c(u) = k gamma / (k + gamma - 1) of the frozen-rate stopping problem."""
    g = gamma(spec, params, u)
    return params.k * g / (params.k + g - 1.0)


def stopping_value_v(spec: RateSpec, params: ModelParams, u: ArrayLike, pi: ArrayLike) -> np.ndarray:
    """Value v(pi; u) of stopping the frozen-rate problem: smooth-pasted at c(u).

    v = (c - k) G(u, pi) / G(u, c) below c(u) and pi - k above.
    """
    k = params.k
    pi = np.asarray(pi, dtype=float)
    c = stopping_threshold_c(spec, params, u)
    pi_b, c_b = np.broadcast_arrays(pi, c)
    out = np.asarray(pi_b - k, dtype=float).copy()
    below = pi_b < c_b
    if np.any(below):
        u_b = np.broadcast_arrays(np.asarray(u, dtype=float), pi_b)[0]
        gpi = fundamental_G(spec, params, u_b[below], pi_b[below])
        gc = fundamental_G(spec, params, u_b[below], c_b[below])
        out[below] = (c_b[below] - k) * gpi / gc
    if out.ndim == 0:
        return float(out)
    return out


def sign_function_H(spec: RateSpec, params: ModelParams, u: ArrayLike, pi: ArrayLike) -> np.ndarray:
    """H(u, pi) = 2 (pi - k) gamma'^2 + (gamma k - (gamma + k - 1) pi) gamma''.

    Affine in pi; its sign at pi = b(u) is the sign of b'(u).
    """
    k = params.k
    g, d1, d2, _ = spec.gamma_derivs(u, params.r)
    pi = np.asarray(pi, dtype=float)
    return 2.0 * (pi - k) * d1**2 + (g * k - (g + k - 1.0) * pi) * d2


def _sign_slack(g, d1, d2):
    """Pointwise slack SIGN_TOL (2 gamma'^2 + |gamma gamma''|) for the sign of 2 gamma'^2 - gamma gamma''."""
    return SIGN_TOL * (2.0 * d1**2 + np.abs(g * d2))


def zero_level_B(spec: RateSpec, params: ModelParams, u: ArrayLike):
    """Level B(u) where H(u, .) vanishes, when 2 gamma'^2 - gamma gamma'' > 0.

    B = k (2 gamma'^2 - gamma gamma'') / (2 gamma'^2 - gamma gamma'' + (1-k) gamma'').
    Scalar input returns None where undefined; array input returns nan there.
    """
    k = params.k
    g, d1, d2, _ = spec.gamma_derivs(u, params.r)
    disc = 2.0 * d1**2 - g * d2
    denom = disc + (1.0 - k) * d2
    scalar = np.isscalar(u) or np.asarray(u).ndim == 0
    disc_a = np.atleast_1d(np.asarray(disc, dtype=float))
    denom_a = np.atleast_1d(np.asarray(denom, dtype=float))
    out = np.full_like(disc_a, np.nan)
    ok = np.atleast_1d(disc > _sign_slack(g, d1, d2))
    out[ok] = k * disc_a[ok] / denom_a[ok]
    if scalar:
        return float(out[0]) if ok[0] else None
    return out


# ---------------------------------------------------------------------------
# verification-route report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Which sufficient conditions for an increasing boundary hold on the grid.

    route is the certificate the boundary solver can rely on:
      "boundary_above_k"  -- gamma concave and B increasing: b' > 0 and b > k
      "cond1"             -- 2 gamma'^2 - gamma gamma'' <= 0 everywhere: b' > 0
      "unverified"        -- neither; solve anyway and flag what comes out
    """

    grid_size: int
    rho_increasing: bool
    gamma_decreasing: bool
    cond1: bool
    cond2: bool
    gamma_concave: bool
    B_increasing: Optional[bool]
    curvature_growth: Optional[bool]
    route: str
    max_cond1_lhs: float
    max_gamma_second: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def check_conditions(spec: RateSpec, params: ModelParams) -> ConditionReport:
    """Evaluate the monotonicity conditions on a uniform validation grid.

    cond1:  2 gamma'^2 - gamma gamma'' <= 0 everywhere (holds with equality for
            the hyperbolic family).
    cond2:  the same quantity > 0 everywhere and the implied level B strictly
            increasing (finite differences on the grid).
    Both sign tests allow the relative slack of _sign_slack at each point.
    The combination gamma concave + B increasing certifies b > k as well.
    """
    ug = np.linspace(0.0, 1.0, CONDITION_GRID)
    g, d1, d2, d3 = spec.gamma_derivs(ug, params.r)
    r2 = spec.rho2(ug, params.r)

    rho_increasing = bool(np.all(np.diff(r2) > 0))
    gamma_decreasing = bool(np.all(d1 < 0))

    disc = 2.0 * d1**2 - g * d2
    slack = _sign_slack(g, d1, d2)
    cond1 = bool(np.all(disc <= slack))
    gamma_concave = bool(np.max(d2) <= SIGN_TOL)

    if np.all(disc > slack):
        B = params.k * disc / (disc + (1.0 - params.k) * d2)
        B_increasing: Optional[bool] = bool(np.all(np.diff(B) > 0))
        cond2 = bool(B_increasing)
    else:
        B_increasing = None
        cond2 = False

    if d3 is None:
        curvature_growth: Optional[bool] = None
    else:
        curvature_growth = bool(np.all(3.0 * d2**2 - 2.0 * d1 * d3 < 0))

    if gamma_concave and B_increasing:
        route = "boundary_above_k"
    elif cond1:
        route = "cond1"
    else:
        route = "unverified"

    return ConditionReport(
        grid_size=CONDITION_GRID,
        rho_increasing=rho_increasing,
        gamma_decreasing=gamma_decreasing,
        cond1=cond1,
        cond2=cond2,
        gamma_concave=gamma_concave,
        B_increasing=B_increasing,
        curvature_growth=curvature_growth,
        route=route,
        max_cond1_lhs=float(np.max(disc)),
        max_gamma_second=float(np.max(d2)),
    )


def _number(value, name: str) -> float:
    """A number of a config document as a float; a string or a boolean
    raises ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None


def spec_from_dict(d: dict) -> RateSpec:
    """Deserialize a rate spec from a config mapping (see README for the schema)."""
    if "family" not in d:
        raise ConfigError("rate spec needs a 'family' field")
    fam = d["family"]
    extra = {key: val for key, val in d.items() if key != "family"}

    def num(key):
        return _number(extra.pop(key), f"rate.{key}")

    def nums(key):
        vals = extra.pop(key)
        if not isinstance(vals, (list, tuple, np.ndarray)):
            raise ConfigError(f"rate.{key} must be a list of numbers, got {vals!r}")
        return np.array([_number(v, f"rate.{key}") for v in vals])

    try:
        if fam == "linear_noise":
            return LinearNoise(C=num("C"), D=num("D"), **_none(extra))
        if fam == "sqrt_expansion":
            eps = num("eps") if "eps" in extra else 1e-3
            return SqrtExpansion(C=num("C"), eps=eps, **_none(extra))
        if fam == "hyperbolic_gamma":
            return HyperbolicGamma(A=num("A"), beta=num("beta"), **_none(extra))
        if fam == "tabulated":
            if "rho" in extra:
                return Tabulated(nums("rho"))
            if "rho2" in extra:
                return Tabulated.from_rho2(nums("rho2"))
            raise ConfigError("tabulated rate spec needs 'rho' or 'rho2' values")
        raise ConfigError(f"unknown rate family {fam!r}")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad parameters for rate family {fam!r}: {exc}") from exc


def _none(extra: dict) -> dict:
    if extra:
        raise ConfigError(f"unexpected rate-spec fields: {sorted(extra)}")
    return {}
