"""Free boundary b(u) of the expansion problem.

The optimal strategy expands capacity exactly when the belief pi sits at or
above a threshold b(u) of current capacity u.  b solves the first-order ODE

    b'(u) = F(u, b(u)),
    F(u, b) = [2 (b-k) gamma'^2 + (gamma k - (gamma+k-1) b) gamma'']
              / [-gamma (gamma k - (gamma+k-1) b) - (gamma-1)(1-k) b]
              * b (1-b) / gamma'

integrated backward from the terminal condition b(1) = c(1), where it meets
the frozen-rate stopping threshold.  The denominator is bounded away from
zero on the strip 0 < b <= c(u), so fixed-step classical RK4 is enough; a
guard aborts if the iterate ever leaves the strip by more than float noise.
F sees the rate only through gamma, gamma' and gamma'' at u, so the solve
tabulates them once at the grid nodes and once at the stage midpoints, and F
reads them as seven stage constants (g k, g + k - 1, -g, (g - 1)(1 - k),
gamma', gamma'', c): as arrays for the knot slopes, and as Python floats,
converted one block of nodes at a time, in the scalar RK4 stages.

The curve carries its slopes: m_j = F(u_j, b_j) is the exact b' at every
knot, so b is read back between knots by cubic Hermite interpolation on
(u, b, m), the dense output of Hairer, Norsett and Wanner (Solving ODEs I,
II.6), and its inverse h by the cubic Hermite interpolant on (b, u, 1/m).
Both are fourth-order accurate between knots.  Exact slopes stay close to
the secant slopes, where a cubic Hermite segment is monotone (Fritsch and
Carlson, SIAM J. Numer. Anal. 17(2), 1980).  Each segment's cubic integrates
in closed form, so the curve also carries the antiderivative of b, which
prices an expansion along the boundary.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .artifacts import read_csv, write_csv, write_json
from .model import (
    ConditionReport,
    ConfigError,
    ModelParams,
    RateSpec,
    _Hermite,
    _integer,
    _model,
    _threshold_c,
    check_conditions,
    spec_from_dict,
)

# Excursions beyond the strip up to this size are projected back (accumulated
# float error); anything larger means the model violates the standing
# assumptions and the solve aborts.
PROJECTION_TOL = 1e-9
_STRIP_EPS = 1e-12
# knots of a solve when neither the caller nor the run document sets them
DEFAULT_GRID_SIZE = 2001
# nodes per block of stage constants the RK4 loop holds as Python floats:
# the per-block numpy calls cost little against 64 steps, and at 64 repeated
# solves keep the resident memory where item-by-item reads kept it (128 and
# more raise it by 0.1 MB and up)
_BLOCK = 64


class IntegrationError(RuntimeError):
    """The boundary iterate left the admissible strip 0 < b <= c(u)."""


def _stage_constants(k, g, d1, d2):
    """The constants F needs at points with gamma, gamma', gamma'' = g, d1, d2:
    (g k, g + k - 1, -g, (g - 1)(1 - k), gamma', gamma'', c), with the
    threshold c = k g / (k + g - 1) of model._threshold_c.  Floats or arrays
    alike."""
    return g * k, g + k - 1.0, -g, (g - 1.0) * (1.0 - k), d1, d2, _threshold_c(g, k)


def _slope(k, u, t, b):
    """Guarded F(u, b) from the stage constants t of u (see _stage_constants).

    Arrays for the knot slopes, floats in boundary_rhs; the RK4 loop does
    this arithmetic inline and calls it only where the guard trips, for its
    error.  Raises IntegrationError unless gamma' < 0 (F divides by it) and
    b lies in (0, c(u) + PROJECTION_TOL].
    """
    gk, gk1, mg, g1k, d1, d2, c = t
    bad = (d1 >= 0.0) | (b <= 0.0) | (b - c > PROJECTION_TOL)
    # a float stage gives the bool False when it is good, an array never does
    if bad is not False and np.any(bad):
        j = int(np.argmax(np.ravel(bad)))
        u, d1, b, c = (float(np.ravel(np.broadcast_to(x, np.shape(bad)))[j]) for x in (u, d1, b, c))
        raise IntegrationError(f"boundary ODE undefined at u={u}: needs gamma' < 0 and "
                               f"0 < b <= c, got gamma'={d1}, b={b}, c={c}")
    lin = gk - gk1 * b
    num = 2.0 * (b - k) * d1 * d1 + lin * d2
    den = mg * lin - g1k * b
    return num / den * b * (1.0 - b) / d1


def boundary_rhs(spec: RateSpec, params: ModelParams, u: float, b: float) -> float:
    """Right-hand side F(u, b) of the boundary ODE, guarded as in _slope."""
    g, d1, d2, _ = spec.gamma_derivs(u, params.r)
    return _slope(params.k, u, _stage_constants(params.k, float(g), float(d1), float(d2)), b)


@dataclass
class BoundaryCurve:
    """Boundary b at the knots u_grid, with its slopes and the threshold c.

    slopes holds m_j = F(u_j, b_j).  monotone is the exact certificate (no
    slack) that b strictly increases over the knots and every slope is
    positive, so that the inverse h is well defined; without it `_h`, which
    every reader of h goes through, raises ValueError.  rk4_stages counts
    the RHS evaluations of the solve that made the curve, 0 for a loaded one.
    """

    u_grid: np.ndarray
    b_values: np.ndarray
    c_values: np.ndarray
    slopes: np.ndarray
    spec: RateSpec
    params: ModelParams
    n_projections: int = 0
    rk4_stages: int = 0

    def __post_init__(self):
        self.monotone = bool(np.all(np.diff(self.b_values) > 0.0) and np.all(self.slopes > 0.0))

    # the interpolants are built on first use; a curve that is only saved never reads them
    @cached_property
    def _b(self) -> _Hermite:
        return _Hermite(self.u_grid, self.b_values, self.slopes)

    @cached_property
    def _h(self) -> _Hermite:
        if not self.monotone:
            raise ValueError(f"{self.not_increasing_reason()}; inverse undefined")
        return _Hermite(self.b_values, self.u_grid, 1.0 / self.slopes)

    @cached_property
    def conditions(self) -> ConditionReport:
        """Sufficient conditions for an increasing boundary; they depend on
        the rate and the model only, not on the solve."""
        return check_conditions(self.spec, self.params)

    def b_at(self, u):
        """b(u) by cubic Hermite interpolation between the knots."""
        return self._b(u)

    def b_slope(self, u):
        """b'(u) of the interpolant: the ODE's own F(u_j, b_j) at the knots."""
        return self._b.derivative(u)

    def b_integral(self, u):
        """Integral of b from 0 to u, exact for the cubic Hermite interpolant."""
        return self._b.integral(u)

    def h_at(self, pi):
        """Inverse boundary h(pi): first capacity level whose threshold exceeds pi.

        0 left of b(0), 1 right of b(1), the cubic Hermite interpolant of
        the inverse in between.  Requires the monotone certificate.
        """
        return self._h(pi)

    def h_slope(self, pi):
        """h'(pi) of the inverse interpolant, 1 / F(u_j, b_j) at the knots."""
        return self._h.derivative(pi)

    @property
    def grid_size(self) -> int:
        return self.u_grid.size

    def k_crossings(self) -> int:
        """Number of sign changes of b - k along the grid."""
        s = np.sign(self.b_values - self.params.k)
        s = s[s != 0]
        return int(np.sum(s[1:] != s[:-1]))

    def observed_summary(self) -> dict:
        return {
            "b_min": float(np.min(self.b_values)),
            "b_max": float(np.max(self.b_values)),
            "b_above_k": bool(np.min(self.b_values) > self.params.k),
            "k_crossings": self.k_crossings(),
            "terminal_b": float(self.b_values[-1]),
            "monotone": self.monotone,
        }

    def report(self) -> dict:
        """The solve report: `conditions.json`, which the sidecar also carries."""
        return {"conditions": asdict(self.conditions), "observed": self.observed_summary(),
                "monotone": self.monotone, "n_projections": self.n_projections}

    def not_increasing_reason(self) -> Optional[str]:
        """Why the monotone certificate fails, None if it holds.

        Knot values that repeat while every knot slope is positive and no
        value falls mean that b rises less between knots than float64
        resolves at b, not that the boundary turns down.
        """
        if self.monotone:
            return None
        d = np.diff(self.b_values)
        if np.all(self.slopes > 0.0) and np.all(d >= 0.0):
            return (f"boundary rises less than float64 resolves between knots: "
                    f"{int(np.sum(d == 0.0))} of {d.size} knot differences are 0 "
                    f"although every knot slope is positive")
        return "boundary is not strictly increasing"

    def counters(self) -> dict:
        """Work counters of the curve, as the run manifests record them."""
        return {"rk4_stages": self.rk4_stages, "projections": self.n_projections}

    def checks(self) -> dict:
        """Verdicts on the curve, as the `solve` manifest records them: b
        increasing, strictly inside the strip 0 < b < c below u = 1, and
        reached without projection back into it."""
        inner = self.b_values[:-1]
        return {
            "monotone": self.monotone,
            "inside_strip": bool(np.all(inner > 0.0) and np.all(inner < self.c_values[:-1])),
            "no_projections": self.n_projections == 0,
        }


def _on_knots(spec, params, ug, b, nodes, n_projections, rk4_stages=0) -> BoundaryCurve:
    """The curve through (ug, b); nodes holds gamma, gamma', gamma'' at ug."""
    t = _stage_constants(params.k, *nodes)
    return BoundaryCurve(
        u_grid=ug,
        b_values=b,
        c_values=t[6],
        slopes=_slope(params.k, ug, t, b),
        spec=spec,
        params=params,
        n_projections=n_projections,
        rk4_stages=rk4_stages,
    )


def _float_block(k, g, d1, d2, lo, hi):
    """Stage constants of points lo..hi-1, one list of Python floats per point."""
    return np.array(_stage_constants(k, g[lo:hi], d1[lo:hi], d2[lo:hi])).T.tolist()


def solve_boundary(spec: RateSpec, params: ModelParams,
                   grid_size: int = DEFAULT_GRID_SIZE) -> BoundaryCurve:
    """Integrate the boundary ODE backward from u = 1 with fixed-step RK4.

    The terminal value is b(1) = c(1) exactly.  After each step the iterate
    is checked against the strip (0, c(u)); excursions within PROJECTION_TOL
    are projected back (counted on the returned curve), larger ones raise
    IntegrationError.  Each of the grid_size - 1 steps evaluates F four
    times, which the curve records as rk4_stages.

    gamma, gamma', gamma'' are tabulated as arrays at the nodes and the stage
    midpoints; the steps read them as the Python floats of _stage_constants,
    converted one block of _BLOCK nodes at a time, so scalar stepping never
    indexes an array and never holds the whole grid as Python objects.  Each
    stage computes _slope's F inline, with _slope's own operations in its
    order, and calls _slope only when the guard trips, so that the
    IntegrationError and its message are _slope's.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    k = params.k
    ug = np.linspace(0.0, 1.0, grid_size)
    # stage midpoints, with the stepping loop's own arithmetic u0 + dt / 2
    um = ug[1:] + 0.5 * (ug[:-1] - ug[1:])
    gn, d1n, d2n = nodes = spec.gamma_derivs(ug, params.r)[:3]
    gm, d1m, d2m = spec.gamma_derivs(um, params.r)[:3]
    last = grid_size - 1
    t0 = _float_block(k, gn, d1n, d2n, last, grid_size)[0]
    b = np.empty(grid_size)
    b[-1] = b0 = t0[6]
    u0 = 1.0  # == ug[-1]: linspace ends exactly on its stop
    n_proj = 0

    # compensated summation: in near-degenerate regimes (rho almost constant)
    # the per-step increment is ~1e-12 of b itself, and plain accumulation
    # would bury b - c under rounding noise that the 1/gamma' division in the
    # value coefficient then amplifies
    comp = 0.0
    for hi in range(last, 0, -_BLOCK):
        lo = max(hi - _BLOCK, 0)
        # node j and midpoint j (between nodes j and j + 1) for j in lo..hi-1
        block = zip(ug[lo:hi].tolist(), _float_block(k, gn, d1n, d2n, lo, hi),
                    _float_block(k, gm, d1m, d2m, lo, hi))
        stepped = []
        for u1, t1, th in reversed(list(block)):
            dt = u1 - u0  # negative
            uh = u0 + 0.5 * dt  # == um[j], this step's midpoint
            # _slope's arithmetic inline; it is called only to raise its error
            gk, gk1, mg, g1k, d1, d2, c = t0
            if d1 >= 0.0 or b0 <= 0.0 or b0 - c > PROJECTION_TOL:
                _slope(k, u0, t0, b0)
            lin = gk - gk1 * b0
            k1 = (2.0 * (b0 - k) * d1 * d1 + lin * d2) / (mg * lin - g1k * b0) * b0 * (1.0 - b0) / d1
            gk, gk1, mg, g1k, d1, d2, c = th
            bs = b0 + 0.5 * dt * k1
            if d1 >= 0.0 or bs <= 0.0 or bs - c > PROJECTION_TOL:
                _slope(k, uh, th, bs)
            lin = gk - gk1 * bs
            k2 = (2.0 * (bs - k) * d1 * d1 + lin * d2) / (mg * lin - g1k * bs) * bs * (1.0 - bs) / d1
            bs = b0 + 0.5 * dt * k2
            if bs <= 0.0 or bs - c > PROJECTION_TOL:
                _slope(k, uh, th, bs)
            lin = gk - gk1 * bs
            k3 = (2.0 * (bs - k) * d1 * d1 + lin * d2) / (mg * lin - g1k * bs) * bs * (1.0 - bs) / d1
            gk, gk1, mg, g1k, d1, d2, c = t1
            bs = b0 + dt * k3
            if d1 >= 0.0 or bs <= 0.0 or bs - c > PROJECTION_TOL:
                _slope(k, u1, t1, bs)
            lin = gk - gk1 * bs
            k4 = (2.0 * (bs - k) * d1 * d1 + lin * d2) / (mg * lin - g1k * bs) * bs * (1.0 - bs) / d1
            incr = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4) + comp
            b1 = b0 + incr
            comp = incr - (b1 - b0)
            if b1 >= c:  # c is c(u1)
                if b1 - c > PROJECTION_TOL:
                    raise IntegrationError(f"boundary left the strip at u={u1}: b={b1}, c={c}")
                b1 = c - _STRIP_EPS
                comp = 0.0
                n_proj += 1
            if b1 <= 0.0:
                if b1 < -PROJECTION_TOL:
                    raise IntegrationError(f"boundary left the strip at u={u1}: b={b1}")
                b1 = _STRIP_EPS
                comp = 0.0
                n_proj += 1
            stepped.append(b1)
            b0, u0, t0 = b1, u1, t1
        b[lo:hi] = stepped[::-1]

    del um, gm, d1m, d2m  # before the knot slopes allocate their temporaries
    return _on_knots(spec, params, ug, b, nodes, n_proj, 4 * last)


# ---------------------------------------------------------------------------
# serialization: a (u, b) CSV plus a JSON header sidecar of the same stem,
# both through the artifact format
# ---------------------------------------------------------------------------


def save_curve(curve: BoundaryCurve, csv_path: Union[str, Path]) -> Path:
    """Write (u, b) rows to csv_path and the metadata header next to it.

    Returns the header path.  Floats are written with shortest round-trip
    representation, so identical curves produce identical bytes.
    """
    csv_path = Path(csv_path)
    write_csv(csv_path, ["u", "b"], curve.u_grid, curve.b_values)
    header = {
        "kind": "boundary_curve",
        "schema_version": 1,
        "model": {"r": curve.params.r, "k": curve.params.k},
        "rate": curve.spec.describe(),
        "grid_size": int(curve.grid_size),
        **curve.report(),
    }
    hpath = csv_path.with_suffix(".json")
    write_json(hpath, header)
    return hpath


def load_curve(csv_path: Union[str, Path]) -> BoundaryCurve:
    """Load a curve written by save_curve from the CSV and its .json sidecar.

    The threshold, the knot slopes and the monotone flag are recomputed from
    the data (a tampered file must not ride on a stale certificate); spec
    and params are rebuilt from the header.  A fault in the files' shape
    raises ConfigError naming the file: a CSV read_csv rejects, a sidecar
    that is not a boundary-curve header, lacks a field or holds a model or
    rate that the config readers reject or an n_projections that is not a
    nonnegative integer (the error names the field), a non-finite u or
    b, fewer than two rows, u not strictly increasing or not spanning
    [0, 1], or b(1) off the terminal value c(1) (both within
    PROJECTION_TOL).  A well-formed curve with a knot outside the strip
    raises IntegrationError.
    """
    csv_path = Path(csv_path)
    # copied into one contiguous row per column, which the interpolants search
    ug, b = read_csv(csv_path, ["u", "b"]).T.copy()
    if not (np.all(np.isfinite(ug)) and np.all(np.isfinite(b))):
        raise ConfigError(f"{csv_path}: u and b must be finite numbers")
    if ug.size < 2 or not np.all(np.diff(ug) > 0):
        raise ConfigError(f"{csv_path}: u column must be strictly increasing over at least 2 rows")
    if abs(ug[0]) > PROJECTION_TOL or abs(ug[-1] - 1.0) > PROJECTION_TOL:
        raise ConfigError(f"{csv_path}: u column must span [0, 1], got [{ug[0]}, {ug[-1]}]")
    hpath = csv_path.with_suffix(".json")
    try:
        header = json.loads(hpath.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {hpath}: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "boundary_curve":
        raise ConfigError(f"{hpath} is not a boundary-curve header")
    try:
        params = _model(header["model"])
        spec = spec_from_dict(header["rate"])
        n_projections = _integer(header.get("n_projections", 0), "n_projections", 0)
    except KeyError as exc:
        raise ConfigError(f"{hpath}: header lacks {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{hpath}: invalid header: {exc}") from exc

    nodes = spec.gamma_derivs(ug, params.r)[:3]
    c1 = _threshold_c(nodes[0][-1], params.k)
    if abs(b[-1] - c1) > PROJECTION_TOL:
        raise ConfigError(f"{csv_path}: terminal condition b(1) = c(1) fails, b = {b[-1]}, c = {c1}")
    return _on_knots(spec, params, ug, b, nodes, n_projections)
