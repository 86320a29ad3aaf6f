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
fourth fits a cubic spline to a table of log rho^2.  All expose gamma and
its first three derivatives, which is the only thing the solvers consume.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Union

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
    d3 = d3q / (2.0 * s) - 3.0 * dq * d2q / (4.0 * s**3) + 3.0 * dq**3 / (8.0 * s**5)
    return g, d1, d2, d3


class RateSpec:
    """Base class: signal-to-noise rate rho(u) of the demand signal."""

    family = "base"

    def rho2(self, u: ArrayLike, r: float) -> np.ndarray:
        raise NotImplementedError

    def gamma_derivs(self, u: ArrayLike, r: float):
        """Return (gamma, gamma', gamma'', gamma''') at u."""
        raise NotImplementedError

    def describe(self) -> dict:
        """The family and parameters as spec_from_dict reads them."""
        return {"family": self.family, **{f.name: getattr(self, f.name) for f in fields(self)}}


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


class _Hermite:
    """Cubic Hermite interpolant through (x_j, y_j) with slopes m_j.

    Each segment's polynomial in s = x - x_j has its coefficients built
    once, so a query costs one search and a Horner step.  Constant end
    segments hold y_0 left of x_0 and y_n from x_n on, so the ends come out
    exactly and nothing is extrapolated.  `cum` holds the integral of the
    interpolant from x_0 to each segment's base, for `integral`.
    """

    def __init__(self, x, y, m):
        dx = np.diff(x)
        secant = np.diff(y) / dx
        zero = np.zeros(1)
        self.x = x
        self.m_last = m[-1]
        self.base = np.concatenate((x[:1], x))
        self.c0 = np.concatenate((y[:1], y))
        self.c1 = np.concatenate((zero, m[:-1], zero))
        self.c2 = np.concatenate((zero, (3.0 * secant - 2.0 * m[:-1] - m[1:]) / dx, zero))
        self.c3 = np.concatenate((zero, (m[:-1] + m[1:] - 2.0 * secant) / (dx * dx), zero))
        whole = self._segment_integral(slice(1, -1), dx)
        self.cum = np.concatenate((zero, zero, np.cumsum(whole)))

    def _segment_integral(self, i, s):
        """Integral of segment i's cubic from its base to base + s."""
        return s * (self.c0[i] + s * (self.c1[i] / 2.0 + s * (self.c2[i] / 3.0 + s * self.c3[i] / 4.0)))

    def __call__(self, q):
        i = np.searchsorted(self.x, q, side="right")
        s = q - self.base[i]
        return self.c0[i] + s * (self.c1[i] + s * (self.c2[i] + s * self.c3[i]))

    def derivative(self, q):
        """Slope of the interpolant: m_j exactly at every knot x_j (the left
        limit m_n at x_n), 0 on the constant ends outside [x_0, x_n]."""
        i = np.searchsorted(self.x, q, side="right")
        s = q - self.base[i]
        slope = self.c1[i] + s * (2.0 * self.c2[i] + 3.0 * s * self.c3[i])
        return np.where(q == self.x[-1], self.m_last, slope)

    def integral(self, q):
        """Integral of the interpolant from x_0 to q, closed form per segment."""
        i = np.searchsorted(self.x, q, side="right")
        return self.cum[i] + self._segment_integral(i, q - self.base[i])

    def derivatives(self, q):
        """Value and first three derivatives on [x_0, x_n], x_n from the left."""
        i = np.minimum(np.searchsorted(self.x, q, side="right"), self.x.size - 1)
        s = q - self.base[i]
        c1, c2, c3 = self.c1[i], self.c2[i], self.c3[i]
        return (self.c0[i] + s * (c1 + s * (c2 + s * c3)), c1 + s * (2.0 * c2 + 3.0 * s * c3),
                2.0 * c2 + 6.0 * s * c3, 6.0 * c3)


def _not_a_knot_slopes(y, h):
    """Knot slopes of the not-a-knot C2 cubic spline through y on a uniform
    grid of spacing h (de Boor, A Practical Guide to Splines, 1978, ch. IV):
    rows m_0 + 2 m_1, m_{j-1} + 4 m_j + m_{j+1}, 2 m_{n-1} + m_n, one Thomas sweep."""
    s = (np.diff(y) / h).tolist()
    rhs = [2.5 * s[0] + 0.5 * s[1], *(3.0 * (a + b) for a, b in zip(s, s[1:])), 0.5 * s[-2] + 2.5 * s[-1]]
    w, d = [2.0], [rhs[0]]  # super-diagonal and right-hand side over each pivot
    for r in rhs[1:-1]:
        w.append(1.0 / (4.0 - w[-1]))
        d.append((r - d[-1]) * w[-1])
    m = [(rhs[-1] - 2.0 * d[-1]) / (1.0 - 2.0 * w[-1])]
    for wj, dj in zip(w[::-1], d[::-1]):
        m.append(dj - wj * m[-1])
    return np.array(m[::-1])


class Tabulated(RateSpec):
    """rho sampled on a uniform grid over [0, 1].

    L = log rho^2 is the not-a-knot C2 cubic spline through the table, and
    rho^2 = exp(L) > 0; q = 2r exp(-L) and its exact derivatives go through
    _gamma_from_q, so gamma (gamma - 1) = 2r / rho^2 between nodes too, and
    one fit serves every r.
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
        L = 2.0 * np.log(rho)
        self._L = _Hermite(self.u_grid, L, _not_a_knot_slopes(L, 1.0 / (rho.size - 1)))

    @classmethod
    def from_rho2(cls, rho2: np.ndarray) -> "Tabulated":
        rho2 = np.asarray(rho2, dtype=float)
        if np.any(rho2 <= 0):
            raise ConfigError("tabulated rho^2 must be positive")
        return cls(np.sqrt(rho2))

    def rho2(self, u, r):
        return np.exp(self._L(_check_u(u)))

    def gamma_derivs(self, u, r):
        L, d1, d2, d3 = self._L.derivatives(_check_u(u))
        q = 2.0 * r * np.exp(-L)
        return _gamma_from_q(q, -q * d1, q * (d1 * d1 - d2), q * (d1 * (3.0 * d2 - d1 * d1) - d3))

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


def logit(pi: ArrayLike) -> np.ndarray:
    """log(pi / (1 - pi)) for pi strictly inside (0, 1)."""
    return np.log(pi) - np.log1p(-pi)


def log_G(g: ArrayLike, pi: ArrayLike) -> np.ndarray:
    """log G = log(1 - pi) + g logit(pi), finite where G itself under- or overflows.

    Every product A G in the package is formed as exp of a sum of such logs.
    """
    return np.log1p(-pi) + g * logit(pi)


def fundamental_G(spec: RateSpec, params: ModelParams, u: ArrayLike, pi: ArrayLike) -> np.ndarray:
    """Increasing solution G(u, pi) = (1-pi) (pi/(1-pi))^gamma(u) of the killed
    generator, as exp(log_G(gamma(u), pi)); pi must lie strictly inside (0, 1).
    """
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise ValueError("pi must lie strictly in (0, 1)")
    return np.exp(log_G(gamma(spec, params, u), pi))


def _threshold_c(g: ArrayLike, k: float) -> np.ndarray:
    """c = k g / (k + g - 1) for exponent values g = gamma(u)."""
    return k * g / (k + g - 1.0)


def stopping_threshold_c(spec: RateSpec, params: ModelParams, u: ArrayLike) -> np.ndarray:
    """Threshold c(u) = k gamma / (k + gamma - 1) of the frozen-rate stopping problem."""
    return _threshold_c(gamma(spec, params, u), params.k)


def stopping_value_v(spec: RateSpec, params: ModelParams, u: ArrayLike, pi: ArrayLike) -> np.ndarray:
    """Value v(pi; u) of stopping the frozen-rate problem: smooth-pasted at c(u).

    v = (c - k) G(u, pi) / G(u, c) below c(u) and pi - k above, with the
    ratio of G taken as exp(log G(u, pi) - log G(u, c)).
    """
    out = stopping_value_of_gamma(gamma(spec, params, u), params.k, np.asarray(pi, dtype=float))
    if out.ndim == 0:
        return float(out)
    return out


def stopping_value_of_gamma(g: ArrayLike, k: float, pi: np.ndarray) -> np.ndarray:
    """stopping_value_v for exponent values g = gamma(u), as an array."""
    c = _threshold_c(g, k)
    with np.errstate(over="ignore"):  # only above c, where the branch is not taken
        return np.where(pi < c, (c - k) * np.exp(log_G(g, pi) - log_G(g, c)), pi - k)


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


def _zero_level(k: float, g, d1, d2):
    """(disc, slack, B) from gamma, gamma', gamma'' = g, d1, d2: disc =
    2 gamma'^2 - gamma gamma'', its sign slack, and the zero level of H,
    B = k disc / (disc + (1-k) gamma''), where disc > slack and nan elsewhere."""
    disc = 2.0 * d1**2 - g * d2
    slack = _sign_slack(g, d1, d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        B = np.where(disc > slack, k * disc / (disc + (1.0 - k) * d2), np.nan)
    return disc, slack, B


def zero_level_B(spec: RateSpec, params: ModelParams, u: ArrayLike):
    """Level B(u) where H(u, .) vanishes, when 2 gamma'^2 - gamma gamma'' > 0.

    B = k (2 gamma'^2 - gamma gamma'') / (2 gamma'^2 - gamma gamma'' + (1-k) gamma'').
    Scalar input returns None where undefined; array input returns nan there.
    """
    g, d1, d2, _ = spec.gamma_derivs(u, params.r)
    B = _zero_level(params.k, g, d1, d2)[2]
    if np.ndim(u) == 0:
        B = float(np.ravel(B)[0])
        return None if math.isnan(B) else B
    return B


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
    curvature_growth: bool
    route: str
    max_cond1_lhs: float
    max_gamma_second: float


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

    disc, slack, B = _zero_level(params.k, g, d1, d2)
    cond1 = bool(np.all(disc <= slack))
    gamma_concave = bool(np.max(d2) <= SIGN_TOL)

    if np.all(disc > slack):
        B_increasing: Optional[bool] = bool(np.all(np.diff(B) > 0))
        cond2 = bool(B_increasing)
    else:
        B_increasing = None
        cond2 = False

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
        curvature_growth=bool(np.all(3.0 * d2**2 - 2.0 * d1 * d3 < 0)),
        route=route,
        max_cond1_lhs=float(np.max(disc)),
        max_gamma_second=float(np.max(d2)),
    )


def _worst(x: np.ndarray, *where: np.ndarray, side=None):
    """(max of x, the where columns at its index) over the points of the mask
    side, or all points: the worst value of a check and where it occurs.
    argmax takes the first NaN, so a NaN comes through.  A side without
    points (b close to 0 or 1) reads 0.0 at None."""
    i = int(np.argmax(x if side is None else np.where(side, x, -np.inf)))
    if side is not None and not side[i]:
        return 0.0, None
    return float(x[i]), tuple(col[i].item() for col in where)


# ---------------------------------------------------------------------------
# config-document readers: every input field is checked by one of these
# ---------------------------------------------------------------------------


def _number(value, name: str) -> float:
    """A number of a config document as a float; a string or a boolean
    raises ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None


def _numbers(values, name: str) -> list:
    """A non-empty list of numbers as floats; entry i is named name[i]."""
    if not isinstance(values, (list, tuple, np.ndarray)) or len(values) == 0:
        raise ConfigError(f"{name} must be a non-empty list of numbers, got {values!r}")
    return [_number(v, f"{name}[{i}]") for i, v in enumerate(values)]


def _integer(value, name: str, minimum: int) -> int:
    """An integer of a config document, at least minimum; a boolean, a float
    or a string raises ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _fields(doc, name: str, keys) -> dict:
    """An object of a config document whose keys all lie in keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be an object, got {doc!r}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return doc


def _model(doc) -> ModelParams:
    """ModelParams from a model object, {r, k} or {r, mu0, mu1}."""
    keys = ("r", "k") if isinstance(doc, dict) and "k" in doc else ("r", "mu0", "mu1")
    _fields(doc, "model", keys)
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ConfigError(f"model lacks {missing}: it takes {{r, k}} or {{r, mu0, mu1}}")
    num = {key: _number(doc[key], f"model.{key}") for key in keys}
    return ModelParams(**num) if "k" in num else ModelParams.from_drifts(**num)


_FAMILIES = {cls.family: cls for cls in (LinearNoise, SqrtExpansion, HyperbolicGamma, Tabulated)}


def spec_from_dict(d: dict) -> RateSpec:
    """Deserialize a rate spec from a config mapping (see README for the schema)."""
    family = d.get("family") if isinstance(d, dict) else None
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"rate must be an object with a 'family' among {sorted(_FAMILIES)}, "
                          f"got family {family!r}")
    cls = _FAMILIES[family]
    if cls is Tabulated:
        _fields(d, "rate", ("family", "rho", "rho2"))
        if ("rho" in d) == ("rho2" in d):
            raise ConfigError("tabulated rate takes exactly one of 'rho' or 'rho2'")
        if "rho" in d:
            return Tabulated(_numbers(d["rho"], "rate.rho"))
        return Tabulated.from_rho2(_numbers(d["rho2"], "rate.rho2"))
    params = fields(cls)
    _fields(d, "rate", ["family", *(f.name for f in params)])
    missing = [f.name for f in params if f.name not in d and f.default is MISSING]
    if missing:
        raise ConfigError(f"rate family {family!r} lacks {missing}")
    return cls(**{f.name: _number(d[f.name], f"rate.{f.name}") for f in params if f.name in d})
