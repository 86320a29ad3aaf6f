"""Free-boundary integration: terminal data, strip bounds, regressions."""

import csv
import dataclasses
import hashlib

import numpy as np
import pytest

import investlearn.boundary
from investlearn.boundary import (
    IntegrationError,
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
from investlearn.simulate import SimConfig, sample_trajectory, simulate_paired, simulate_reflecting
from investlearn.value import ValueSurface

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


# every reader of the inverse h reaches it through BoundaryCurve._h, the one
# gate that refuses a curve without the monotone certificate
INVERSE_READERS = {
    "h_at": lambda curve, cfg: curve.h_at(0.7),
    "h_slope": lambda curve, cfg: curve.h_slope(0.7),
    "simulate_reflecting": simulate_reflecting,
    "simulate_paired": simulate_paired,
    "sample_trajectory": sample_trajectory,
    "ValueSurface": lambda curve, cfg: ValueSurface(curve),
}


@pytest.fixture(scope="module")
def nonmonotone_curve():
    return solve_boundary(nonmonotone_spec(), PARAMS)


@pytest.mark.parametrize("reader", list(INVERSE_READERS))
def test_nonmonotone_curve_fails_inverse_gate(nonmonotone_curve, reader):
    with pytest.raises(ValueError, match="not strictly increasing; inverse undefined"):
        INVERSE_READERS[reader](nonmonotone_curve, SimConfig(n_paths=4, horizon=1.0))


@pytest.mark.parametrize("spec", [LINEAR, HYP], ids=["linear", "hyperbolic"])
def test_dense_output_between_knots(spec):
    # the odd nodes of a 4001-node solve sit midway between the knots of a
    # 2001-node one, where a piecewise-linear read-back is off by ~2e-7
    coarse = solve_boundary(spec, PARAMS, grid_size=2001)
    fine = solve_boundary(spec, PARAMS, grid_size=4001)
    u, b = fine.u_grid[1::2], fine.b_values[1::2]
    assert np.max(np.abs(coarse.b_at(u) - b)) <= 1e-10
    assert np.max(np.abs(coarse.h_at(b) - u)) <= 1e-10


def test_slopes_at_knots(linear_curve):
    # at the knots the dense output's slope is the ODE's own F(u_j, b_j),
    # and the inverse's slope its reciprocal
    ug, b = linear_curve.u_grid, linear_curve.b_values
    assert np.array_equal(linear_curve.b_slope(ug), linear_curve.slopes)
    assert np.max(np.abs(linear_curve.b_slope(ug) * linear_curve.h_slope(b) - 1.0)) <= 1e-12


@pytest.mark.parametrize("spec", [LINEAR, HYP], ids=["linear", "hyperbolic"])
def test_b_slope_between_knots(spec):
    curve = solve_boundary(spec, PARAMS, grid_size=2001)
    ug = curve.u_grid
    u, d = 0.5 * (ug[:-1] + ug[1:]), 1e-6
    central = (curve.b_at(u + d) - curve.b_at(u - d)) / (2.0 * d)
    assert np.max(np.abs(curve.b_slope(u) - central)) <= 1e-9


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


def test_curve_counters_and_checks(tmp_path, linear_curve):
    solved = {"monotone": True, "inside_strip": True, "no_projections": True}
    assert linear_curve.counters() == {"rk4_stages": 4 * 2000, "projections": 0}
    assert linear_curve.checks() == solved
    # a loaded curve ran no RK4 stage
    save_curve(linear_curve, tmp_path / "curve.csv")
    loaded = load_curve(tmp_path / "curve.csv")
    assert loaded.counters() == {"rk4_stages": 0, "projections": 0}
    assert loaded.checks() == solved
    # near-constant rho at k = 0.98: one step lands on c and is projected back
    projected = solve_boundary(LinearNoise(C=0.25, D=1e-12), ModelParams(r=0.1, k=0.98),
                               grid_size=201)
    assert projected.counters() == {"rk4_stages": 4 * 200, "projections": 1}
    assert projected.checks() == {"monotone": False, "inside_strip": True, "no_projections": False}
    save_curve(projected, tmp_path / "projected.csv")
    assert load_curve(tmp_path / "projected.csv").counters() == {"rk4_stages": 0, "projections": 1}
    # a knot on c(u) below u = 1 is outside the open strip
    b = linear_curve.b_values.copy()
    b[0] = linear_curve.c_values[0]
    assert not dataclasses.replace(linear_curve, b_values=b).checks()["inside_strip"]


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


# sha1 of b_values.tobytes() and n_projections, taken with the RK4 loop that
# read the tabulated gamma arrays one item at a time; any change to the
# order of the stepping arithmetic moves them
PINNED_B = {
    ("linear", 2001): ("79afdeb47bd18728f4c15e696192245f06a4cc1a", 0),
    ("linear", 20001): ("2e42f830b11c2a1046d80fb6f549da4946640a86", 0),
    ("hyperbolic", 2001): ("6d2d724ba2f08222c04ed9ecaf8fc9486242fa35", 0),
    ("hyperbolic", 20001): ("e1cdb0b57a7ca6269478790e964fd216dc449f42", 0),
}


@pytest.mark.parametrize("family, n", sorted(PINNED_B))
def test_solve_pinned_bit_for_bit(family, n):
    curve = solve_boundary({"linear": LINEAR, "hyperbolic": HYP}[family], PARAMS, grid_size=n)
    got = hashlib.sha1(curve.b_values.tobytes()).hexdigest(), curve.n_projections
    assert got == PINNED_B[(family, n)]


@pytest.mark.parametrize("n", [5, 11, 2001])
@pytest.mark.parametrize("block", [1, 7, 2000])
def test_block_size_does_not_change_solve(monkeypatch, block, n):
    # blocks of one node, of seven (longer than the 4 steps of a 5-node grid,
    # leaving a partial block of the 10 of an 11-node one) and spanning all
    # 2 000 steps of the default grid
    want = solve_boundary(HYP, PARAMS, grid_size=n).b_values
    monkeypatch.setattr(investlearn.boundary, "_BLOCK", block)
    assert np.array_equal(solve_boundary(HYP, PARAMS, grid_size=n).b_values, want)


class FlatSpec(RateSpec):
    """HYP with gamma' = 0 below u = 0.3, where F is undefined."""

    def gamma_derivs(self, u, r):
        g, d1, d2, d3 = HYP.gamma_derivs(u, r)
        return g, np.where(np.asarray(u) < 0.3, 0.0, d1), d2, d3


class SpikeSpec(RateSpec):
    """HYP with gamma' shrunk by 1e-9 at the node u = 0.5 and gamma'' there
    of the given sign: F at that node is of order 1e9 with that sign, so the
    last RK4 stage of the step onto u = 0.5 throws the iterate far out of the
    strip while every stage is evaluated inside it."""

    def __init__(self, sign):
        self.sign = sign

    def gamma_derivs(self, u, r):
        g, d1, d2, d3 = HYP.gamma_derivs(u, r)
        at = np.asarray(u) == 0.5
        return g, np.where(at, 1e-9 * d1, d1), np.where(at, self.sign * d2, d2), d3


def test_rk4_rejects_gamma_prime_not_negative():
    # the first stage below u = 0.3 is the midpoint of the step 0.30 -> 0.29
    with pytest.raises(IntegrationError) as exc:
        solve_boundary(FlatSpec(), PARAMS, grid_size=101)
    assert str(exc.value) == (
        "boundary ODE undefined at u=0.295: needs gamma' < 0 and 0 < b <= c, "
        "got gamma'=0.0, b=0.5068716171414751, c=0.6234413965087282")


@pytest.mark.parametrize("sign, message", [
    (1.0, "boundary left the strip at u=0.5: b=-360363.317072189"),
    (-1.0, "boundary left the strip at u=0.5: b=360364.4651001567, c=0.6944444444444445"),
], ids=["below", "above"])
def test_rk4_rejects_iterate_leaving_strip(sign, message):
    with pytest.raises(IntegrationError) as exc:
        solve_boundary(SpikeSpec(sign), PARAMS, grid_size=101)
    assert str(exc.value) == message


def test_spike_table_stops_at_terminal_node():
    # rho 1 with one node at 0.01: the spline of log rho^2 is flat to
    # roundoff at u = 1, so gamma'(1) is not negative and the first stage fails
    rho = np.where(np.arange(101) == 50, 0.01, 1.0)
    with pytest.raises(IntegrationError, match=r"^boundary ODE undefined at u=1\.0: needs gamma' < 0"):
        solve_boundary(Tabulated(rho), PARAMS)
