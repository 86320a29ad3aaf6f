"""Free-boundary integration: terminal data, strip bounds, regressions."""

import csv

import numpy as np
import pytest

from investlearn.boundary import (
    boundary_rhs,
    load_curve,
    save_curve,
    solve_boundary,
)
from investlearn.model import (
    HyperbolicGamma,
    LinearNoise,
    ModelParams,
    RateSpec,
    Tabulated,
    stopping_threshold_c,
)

PARAMS = ModelParams(r=0.1, k=0.5)
LINEAR = LinearNoise(C=0.25, D=0.9)
HYP = HyperbolicGamma(A=1.25, beta=0.2)


def nonmonotone_spec():
    u = np.linspace(0.0, 1.0, 1001)
    return Tabulated.from_rho2(1.0 / (4.0 * (1.0 - 0.1 * u - 0.8 * u * u)))


@pytest.fixture(scope="module")
def linear_curve():
    return solve_boundary(LINEAR, PARAMS)


@pytest.fixture(scope="module")
def hyperbolic_curve():
    return solve_boundary(HYP, PARAMS)


def test_terminal_condition(linear_curve):
    c1 = float(stopping_threshold_c(LINEAR, PARAMS, 1.0))
    assert abs(linear_curve.b_values[-1] - c1) <= 1e-12


def test_rhs_terminal_limit(linear_curve):
    # F(1, c(1)) = 2 c'(1); 40-digit arithmetic
    got = float(boundary_rhs(LINEAR, PARAMS, 1.0, linear_curve.c_values[-1]))
    assert got == pytest.approx(0.94951448703107912, rel=1e-12)


def test_inside_strip(linear_curve, hyperbolic_curve):
    for curve in (linear_curve, hyperbolic_curve):
        b = curve.b_values[:-1]
        c = curve.c_values[:-1]
        assert np.min(b) > 1e-10
        assert np.min(c - b) > 1e-10
        assert curve.n_projections == 0


def test_grid_doubling_converged():
    coarse = solve_boundary(LINEAR, PARAMS, grid_size=2001)
    fine = solve_boundary(LINEAR, PARAMS, grid_size=4001)
    # coarse nodes are every other fine node
    diff = np.abs(coarse.b_values - fine.b_values[::2])
    assert np.max(diff) <= 1e-8


def test_linear_regression_values(linear_curve):
    assert float(linear_curve.b_values[0]) == pytest.approx(
        0.6772035768936363, rel=1e-9)
    assert linear_curve.monotone
    assert np.all(linear_curve.b_values > PARAMS.k)
    assert np.all(np.diff(linear_curve.b_values) > 0.0)


def test_hyperbolic_single_k_crossing(hyperbolic_curve):
    assert float(hyperbolic_curve.b_values[0]) == pytest.approx(
        0.4509285385761215, rel=1e-9)
    assert hyperbolic_curve.monotone
    assert hyperbolic_curve.b_values[0] < PARAMS.k
    assert hyperbolic_curve.k_crossings() == 1
    b, ug = hyperbolic_curve.b_values, hyperbolic_curve.u_grid
    i = int(np.flatnonzero(np.diff(np.sign(b - PARAMS.k)) != 0)[0])
    ustar = ug[i] + (PARAMS.k - b[i]) * (ug[i + 1] - ug[i]) / (b[i + 1] - b[i])
    assert ustar == pytest.approx(0.2678335661129177, abs=1e-6)


def test_nonmonotone_flag():
    curve = solve_boundary(nonmonotone_spec(), PARAMS)
    assert not curve.monotone
    # rho(1) agrees with the linear-noise family, so the terminal point does too
    assert float(curve.b_values[-1]) == pytest.approx(0.9351941398892446, rel=1e-6)
    assert np.min(curve.b_values) < 0.72


@pytest.mark.parametrize("spec", [LINEAR, HYP], ids=["linear", "hyperbolic"])
def test_dense_output_between_knots(spec):
    # the odd nodes of a 4001-node solve sit midway between the knots of a
    # 2001-node one, where a piecewise-linear read-back is off by ~2e-7
    coarse = solve_boundary(spec, PARAMS, grid_size=2001)
    fine = solve_boundary(spec, PARAMS, grid_size=4001)
    u, b = fine.u_grid[1::2], fine.b_values[1::2]
    assert np.max(np.abs(coarse.b_at(u) - b)) <= 1e-10
    assert np.max(np.abs(coarse.h_at(b) - u)) <= 1e-10


def _gauss(curve, lo, hi):
    """Integral of curve.b_at over [lo, hi] by 8-point Gauss-Legendre on every
    piece between knots, exact for the cubic segments."""
    x, w = np.polynomial.legendre.leggauss(8)
    inner = curve.u_grid[(curve.u_grid > lo) & (curve.u_grid < hi)]
    ends = np.concatenate(([lo], inner, [hi]))
    mid, half = (ends[1:] + ends[:-1]) / 2.0, (ends[1:] - ends[:-1]) / 2.0
    return float(np.sum(half[:, None] * w * curve.b_at(mid[:, None] + half[:, None] * x)))


@pytest.mark.parametrize("lo,hi", [
    (0.30012, 0.30036),  # inside one segment
    (0.30012, 0.30087),  # across two knots
    (0.1234, 0.8765),    # across most of the curve
    (0.0, 1.0),          # both ends
], ids=["segment", "two_knots", "wide", "whole"])
def test_b_integral_matches_quadrature(linear_curve, hyperbolic_curve, lo, hi):
    for curve in (linear_curve, hyperbolic_curve):
        got = curve.b_integral(hi) - curve.b_integral(lo)
        assert abs(got - _gauss(curve, lo, hi)) <= 1e-12
    # from 0, and vectorized
    u = np.array([0.0, lo, hi])
    assert np.array_equal(linear_curve.b_integral(u),
                          [linear_curve.b_integral(x) for x in u])
    assert linear_curve.b_integral(0.0) == 0.0


class CountingSpec(RateSpec):
    """Wraps a rate spec and counts its gamma_derivs calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def rho2(self, u, r):
        return self.inner.rho2(u, r)

    def gamma_derivs(self, u, r):
        self.calls += 1
        return self.inner.gamma_derivs(u, r)


def test_solve_tabulates_gamma_twice():
    # once at the nodes, once at the stage midpoints, for any grid size
    for n in (11, 2001):
        spec = CountingSpec(LINEAR)
        curve = solve_boundary(spec, PARAMS, grid_size=n)
        assert spec.calls == 2
        assert curve.monotone


def test_invert_boundary_roundtrip(linear_curve):
    ug = linear_curve.u_grid[100:-100:500]
    back = linear_curve.h_at(linear_curve.b_at(ug))
    assert np.max(np.abs(back - ug)) <= 1e-12


def test_invert_boundary_saturates(linear_curve):
    assert float(linear_curve.h_at(1e-6)) == 0.0
    assert float(linear_curve.h_at(0.999)) == 1.0


def test_invert_matches_helper(linear_curve):
    # h inverts the dense output between the knots too (piecewise linear: 1.9e-7)
    ug = linear_curve.u_grid
    mid = 0.5 * (ug[:-1] + ug[1:])
    assert np.max(np.abs(linear_curve.h_at(linear_curve.b_at(mid)) - mid)) <= 1e-11


def test_save_load_roundtrip(tmp_path, linear_curve):
    p = tmp_path / "curve.csv"
    save_curve(linear_curve, p)
    clone = load_curve(p)
    assert np.array_equal(clone.u_grid, linear_curve.u_grid)
    assert np.array_equal(clone.b_values, linear_curve.b_values)
    assert np.array_equal(clone.slopes, linear_curve.slopes)
    assert clone.monotone == linear_curve.monotone
    # re-saving the loaded curve byte-matches the original files
    q = tmp_path / "curve2.csv"
    save_curve(clone, q)
    assert p.read_bytes() == q.read_bytes()


def test_load_recomputes_monotone(tmp_path, linear_curve):
    p = tmp_path / "curve.csv"
    save_curve(linear_curve, p)
    rows = list(csv.reader(open(p)))
    i = len(rows) // 2
    rows[i][1] = repr(float(rows[i][1]) + 0.05)  # break monotonicity
    with open(p, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    clone = load_curve(p)
    assert not clone.monotone


def test_load_rejects_malformed(tmp_path, linear_curve):
    p = tmp_path / "curve.csv"
    save_curve(linear_curve, p)
    p.write_text("u,b\n0.5,0.7\n0.2,0.8\n")  # u not increasing
    with pytest.raises(ValueError):
        load_curve(p)


def test_solver_rejects_tiny_grid():
    with pytest.raises(Exception):
        solve_boundary(LINEAR, PARAMS, grid_size=2)
