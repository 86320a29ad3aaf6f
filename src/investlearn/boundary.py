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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .model import (
    ConditionReport,
    ModelParams,
    RateSpec,
    check_conditions,
    spec_from_dict,
    stopping_threshold_c,
)

# Excursions beyond the strip up to this size are projected back (accumulated
# float error); anything larger means the model violates the standing
# assumptions and the solve aborts.
PROJECTION_TOL = 1e-9
_STRIP_EPS = 1e-12


class IntegrationError(RuntimeError):
    """The boundary iterate left the admissible strip 0 < b <= c(u)."""


def boundary_rhs(spec: RateSpec, params: ModelParams, u: float, b: float) -> float:
    """Right-hand side F(u, b) of the boundary ODE.

    Guards: b must lie in (0, c(u) + PROJECTION_TOL] and gamma must be
    strictly decaying at u (the formula divides by gamma').
    """
    k = params.k
    g, d1, d2, _ = spec.gamma_derivs(u, params.r)
    g = float(g)
    d1 = float(d1)
    d2 = float(d2)
    if d1 >= 0.0:
        raise IntegrationError(f"gamma is not strictly decaying at u={u}; boundary ODE undefined")
    if b <= 0.0:
        raise IntegrationError(f"boundary iterate b={b} fell to zero at u={u}")
    c = k * g / (k + g - 1.0)
    if b - c > PROJECTION_TOL:
        raise IntegrationError(f"boundary iterate b={b} above threshold c={c} at u={u}")
    lin = g * k - (g + k - 1.0) * b
    num = 2.0 * (b - k) * d1 * d1 + lin * d2
    den = -g * lin - (g - 1.0) * (1.0 - k) * b
    return num / den * b * (1.0 - b) / d1


@dataclass
class BoundaryCurve:
    """Solved boundary on a uniform u-grid with its stopping threshold.

    monotone is the exact strict-increase flag (no slack): it certifies that
    the piecewise-linear inverse h is well defined.
    """

    u_grid: np.ndarray
    b_values: np.ndarray
    c_values: np.ndarray
    spec: RateSpec
    params: ModelParams
    monotone: bool
    conditions: ConditionReport
    n_projections: int = 0

    def b_at(self, u):
        """Piecewise-linear interpolation of b between grid points."""
        return np.interp(u, self.u_grid, self.b_values)

    def h_at(self, pi):
        """Inverse boundary h(pi): first capacity level whose threshold exceeds pi.

        0 left of b(0), 1 right of b(1), linear interpolation of the inverse
        in between.  Requires the monotone certificate.
        """
        if not self.monotone:
            raise ValueError("boundary is not strictly increasing; inverse undefined")
        return np.interp(pi, self.b_values, self.u_grid, left=0.0, right=1.0)

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


def solve_boundary(spec: RateSpec, params: ModelParams, grid_size: int = 2001) -> BoundaryCurve:
    """Integrate the boundary ODE backward from u = 1 with fixed-step RK4.

    The terminal value is b(1) = c(1) exactly.  After each step the iterate
    is checked against the strip (0, c(u)); excursions within PROJECTION_TOL
    are projected back (counted on the returned curve), larger ones raise
    IntegrationError.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    ug = np.linspace(0.0, 1.0, grid_size)
    cg = np.asarray(stopping_threshold_c(spec, params, ug), dtype=float)
    b = np.empty(grid_size)
    b[-1] = cg[-1]
    n_proj = 0

    def f(u, bb):
        return boundary_rhs(spec, params, u, bb)

    # compensated summation: in near-degenerate regimes (rho almost constant)
    # the per-step increment is ~1e-12 of b itself, and plain accumulation
    # would bury b - c under rounding noise that the 1/gamma' division in the
    # value coefficient then amplifies
    comp = 0.0
    for i in range(grid_size - 1, 0, -1):
        u0 = ug[i]
        u1 = ug[i - 1]
        dt = u1 - u0  # negative
        b0 = b[i]
        k1 = f(u0, b0)
        k2 = f(u0 + 0.5 * dt, b0 + 0.5 * dt * k1)
        k3 = f(u0 + 0.5 * dt, b0 + 0.5 * dt * k2)
        k4 = f(u1, b0 + dt * k3)
        incr = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4) + comp
        b1 = b0 + incr
        comp = incr - (b1 - b0)
        c1 = cg[i - 1]
        if b1 >= c1:
            if b1 - c1 > PROJECTION_TOL:
                raise IntegrationError(f"boundary left the strip at u={u1}: b={b1}, c={c1}")
            b1 = c1 - _STRIP_EPS
            comp = 0.0
            n_proj += 1
        if b1 <= 0.0:
            if b1 < -PROJECTION_TOL:
                raise IntegrationError(f"boundary left the strip at u={u1}: b={b1}")
            b1 = _STRIP_EPS
            comp = 0.0
            n_proj += 1
        b[i - 1] = b1

    monotone = bool(np.all(np.diff(b) > 0.0))
    report = check_conditions(spec, params)
    return BoundaryCurve(
        u_grid=ug,
        b_values=b,
        c_values=cg,
        spec=spec,
        params=params,
        monotone=monotone,
        conditions=report,
        n_projections=n_proj,
    )


# ---------------------------------------------------------------------------
# serialization: two-column CSV plus JSON header sidecar
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def header_path_for(csv_path: Union[str, Path]) -> Path:
    return Path(csv_path).with_suffix(".json")


def save_curve(curve: BoundaryCurve, csv_path: Union[str, Path]) -> Path:
    """Write (u, b) rows to csv_path and the metadata header next to it.

    Returns the header path.  Floats are written with shortest round-trip
    representation, so identical curves produce identical bytes.
    """
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "b"])
        for u, bb in zip(curve.u_grid, curve.b_values):
            w.writerow([_fmt(u), _fmt(bb)])
    header = {
        "kind": "boundary_curve",
        "schema_version": 1,
        "model": {"r": curve.params.r, "k": curve.params.k},
        "rate": curve.spec.describe(),
        "grid_size": int(curve.grid_size),
        "monotone": curve.monotone,
        "n_projections": int(curve.n_projections),
        "conditions": curve.conditions.to_dict(),
        "observed": curve.observed_summary(),
    }
    hpath = header_path_for(csv_path)
    with open(hpath, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return hpath


def load_curve(csv_path: Union[str, Path], header_path: Optional[Union[str, Path]] = None) -> BoundaryCurve:
    """Load a curve written by save_curve.

    The monotone flag is recomputed from the data (a tampered file must not
    ride on a stale certificate); spec and params are rebuilt from the header.
    """
    csv_path = Path(csv_path)
    hpath = Path(header_path) if header_path is not None else header_path_for(csv_path)
    with open(hpath) as fh:
        header = json.load(fh)
    if header.get("kind") != "boundary_curve":
        raise ValueError(f"{hpath} is not a boundary-curve header")
    params = ModelParams(r=float(header["model"]["r"]), k=float(header["model"]["k"]))
    spec = spec_from_dict(header["rate"])

    us, bs = [], []
    with open(csv_path, newline="") as fh:
        rd = csv.reader(fh)
        head = next(rd)
        if [h.strip() for h in head] != ["u", "b"]:
            raise ValueError(f"{csv_path}: expected header 'u,b', got {head}")
        for row in rd:
            if not row:
                continue
            us.append(float(row[0]))
            bs.append(float(row[1]))
    ug = np.asarray(us)
    b = np.asarray(bs)
    if ug.size < 2 or np.any(np.diff(ug) <= 0):
        raise ValueError(f"{csv_path}: u column must be strictly increasing")
    cg = np.asarray(stopping_threshold_c(spec, params, ug), dtype=float)
    return BoundaryCurve(
        u_grid=ug,
        b_values=b,
        c_values=cg,
        spec=spec,
        params=params,
        monotone=bool(np.all(np.diff(b) > 0.0)),
        conditions=check_conditions(spec, params),
        n_projections=int(header.get("n_projections", 0)),
    )
