"""Value surface diagnostics and degenerate limits."""

import numpy as np
import pytest

from investlearn.boundary import solve_boundary
from investlearn.model import (
    HyperbolicGamma,
    LinearNoise,
    ModelParams,
    SqrtExpansion,
    Tabulated,
    fundamental_G,
    stopping_threshold_c,
    stopping_value_v,
)
from investlearn.value import (
    TOL_C1_PASTING,
    TOL_GRADIENT,
    TOL_PDE_ABOVE,
    TOL_PDE_BELOW_REL,
    TOL_PREMIUM,
    TOL_SMOOTH_FIT,
    ValueSurface,
    build_surface,
    pde_residual_sweep,
    verify_surface,
)

PARAMS = ModelParams(r=0.1, k=0.5)
LINEAR = LinearNoise(C=0.25, D=0.9)
HYP = HyperbolicGamma(A=1.25, beta=0.2)


@pytest.fixture(scope="module")
def linear_surface():
    return build_surface(LINEAR, PARAMS)


@pytest.fixture(scope="module")
def hyperbolic_surface():
    return build_surface(HYP, PARAMS)


@pytest.fixture(scope="module")
def linear_report(linear_surface):
    return verify_surface(linear_surface)


@pytest.fixture(scope="module")
def hyperbolic_report(hyperbolic_surface):
    return verify_surface(hyperbolic_surface)


def test_coefficient_A_vanishes_at_one(linear_surface):
    assert abs(float(linear_surface.coefficient_A(1.0))) <= 1e-12


def test_coefficient_A_positive_interior(linear_surface):
    u = np.linspace(0.0, 0.999, 200)
    assert np.all(linear_surface.coefficient_A(u) > 0.0)


def test_coefficient_A_regression(linear_surface):
    assert float(linear_surface.coefficient_A(0.5)) == pytest.approx(
        0.12142925273452503, rel=1e-10)


def test_value_regression(linear_surface):
    assert float(linear_surface.value(0.0, 0.5)) == pytest.approx(
        0.09747346480428755, rel=1e-10)


def test_value_positive_and_increasing_in_pi(linear_surface):
    pis = np.linspace(0.05, 0.95, 31)
    vals = linear_surface.value(np.full(31, 0.3), pis)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) > 0.0)


def test_value_u_equals_envelope_slope_above(linear_surface):
    # above the boundary V(u, pi) = W(pi) + (pi-k)(h-u), so V_u = k - pi
    for u, pi in ((0.2, 0.8), (0.5, 0.85), (0.1, 0.9)):
        assert float(linear_surface.curve.b_at(u)) < pi
        got = float(linear_surface.value_u(u, pi))
        assert got == pytest.approx(PARAMS.k - pi, abs=1e-10)


def test_verify_linear_passes(linear_report):
    assert linear_report.passed


def test_verify_hyperbolic_passes(hyperbolic_report):
    assert hyperbolic_report.passed


@pytest.mark.parametrize("field,tol", [
    ("smooth_fit_max_vu", TOL_SMOOTH_FIT),
    ("smooth_fit_max_vupi", TOL_SMOOTH_FIT),
    ("c1_pasting_max", TOL_C1_PASTING),
])
def test_boundary_pasting_tolerances(linear_report, hyperbolic_report, field, tol):
    assert getattr(linear_report, field) <= tol
    assert getattr(hyperbolic_report, field) <= tol


def test_pde_residuals(linear_report, hyperbolic_report):
    for rep in (linear_report, hyperbolic_report):
        assert rep.pde.max_below_rel <= TOL_PDE_BELOW_REL
        assert rep.pde.max_above_signed <= TOL_PDE_ABOVE
        assert rep.pde.n_below > 0 and rep.pde.n_above > 0


def test_gradient_bound(linear_report, hyperbolic_report):
    assert linear_report.gradient.worst <= TOL_GRADIENT
    assert hyperbolic_report.gradient.worst <= TOL_GRADIENT


def test_learning_premium(linear_report, hyperbolic_report):
    assert linear_report.premium.worst <= TOL_PREMIUM
    assert hyperbolic_report.premium.worst <= TOL_PREMIUM


def test_continuity_across_boundary(linear_report):
    assert linear_report.continuity_max <= 1e-12


@pytest.mark.parametrize("spec,params", [
    (LinearNoise(C=0.25, D=0.999), PARAMS),
    (HyperbolicGamma(A=1.2001, beta=0.2), PARAMS),
    (LinearNoise(C=0.5, D=0.6), ModelParams(r=0.1, k=0.98)),
    (LinearNoise(C=0.5, D=0.6), ModelParams(r=1e-3, k=0.5)),
    (SqrtExpansion(C=0.3, eps=1e-3), PARAMS),
    (HyperbolicGamma(A=50.0, beta=0.2), PARAMS),
], ids=["linear_D0.999", "hyperbolic_A1.2001", "linear_D0.6_k0.98", "linear_D0.6_r1e-3",
        "sqrt_eps1e-3", "hyperbolic_A50"])
def test_verify_passes_near_family_edges(spec, params):
    # correct surfaces near the edge of each family's admissible range
    # (D -> 1, A -> 1 + beta, steep gamma near u = 0, huge gamma) or of the
    # model's (k -> 1, r -> 0), where the boundary derivatives are hardest
    # to resolve
    report = verify_surface(build_surface(spec, params, grid_size=2001))
    assert report.checks() == {
        "pde": True, "smooth_fit": True, "c1_pasting": True,
        "gradient_bound": True, "learning_premium": True, "all": True}


def test_pde_sweep_with_no_sample_above():
    # b >= 0.99989 everywhere, beyond the sweep's 1 - 1e-3 reach in pi
    surface = build_surface(LinearNoise(C=0.5, D=0.3), ModelParams(r=1e-3, k=0.98))
    assert float(surface.curve.b_values[0]) > 0.999
    pde = pde_residual_sweep(surface)
    assert pde.n_above == 0 and pde.max_above_signed == 0.0
    assert pde.n_below == pde.n_samples and pde.passed


def test_report_dict_shape(linear_surface, linear_report):
    d = linear_report.to_dict()
    assert d["passed"] is True
    assert set(d) == {
        "n_samples", "n_boundary_points", "pde", "smooth_fit_max_vu",
        "smooth_fit_max_vupi", "c1_pasting_max", "smooth_fit_max_vu_at",
        "smooth_fit_max_vupi_at", "c1_pasting_max_at", "gradient", "premium",
        "continuity_max", "log_value_min", "A_terminal", "tolerances", "passed"}
    # each boundary maximum is located at (u, b(u)) on a knot-segment midpoint
    ug = linear_surface.curve.u_grid
    assert d["n_boundary_points"] == ug.size - 1
    for key in ("smooth_fit_max_vu_at", "smooth_fit_max_vupi_at", "c1_pasting_max_at"):
        u, pi = d[key]
        assert np.min(np.abs(0.5 * (ug[:-1] + ug[1:]) - u)) == 0.0
        assert pi == float(linear_surface.curve.b_at(u))
    assert set(d["pde"]) == {
        "n_samples", "n_below", "n_above", "max_below_rel",
        "max_above_signed", "passed"}
    assert set(d["tolerances"]) == {
        "pde_below_rel", "pde_above_signed", "smooth_fit", "c1_pasting",
        "gradient", "premium", "continuity"}


def test_log_value_matches_value(linear_surface):
    u = np.array([0.0, 0.2, 0.5, 0.9, 0.5])
    pi = np.array([0.3, 0.6, 0.95, 0.5, 0.01])
    assert np.allclose(linear_surface.log_value(u, pi), np.log(linear_surface.value(u, pi)),
                       rtol=0.0, atol=1e-12)


def test_positivity_survives_underflow():
    # at A = 50 gamma is so large that A G underflows to 0 in the sample
    # sweep; in log space the value is still positive.
    surface = build_surface(HyperbolicGamma(A=50.0, beta=0.2), PARAMS)
    report = verify_surface(surface)
    assert surface.value(0.0, 0.01) == 0.0
    assert -np.inf < surface.log_value(0.0, 0.01) < -1000.0
    assert -np.inf < report.log_value_min < -1000.0
    assert abs(report.A_terminal) <= 1e-12 and report.continuity_max <= 1e-12
    assert report.pde.passed and report.checks()["gradient_bound"]


def test_premium_strictly_positive_inside(linear_surface):
    # spreading investment strictly beats lump stopping away from the edges
    u, pi = 0.3, 0.6
    v = float(stopping_value_v(LINEAR, PARAMS, u, pi))
    assert float(linear_surface.value(u, pi)) > (1.0 - u) * v


def test_near_constant_noise_degenerates_to_stopping():
    # with D ~ 0 learning-by-doing disappears: the remaining capacity 1 - u
    # is installed in one lump, so A(u) approaches the lump-stopping
    # coefficient (1 - u)(c - k)/G(u, c) and the value collapses onto
    # (1 - u) times the per-unit stopping value
    spec = LinearNoise(C=0.25, D=1e-8)
    surface = build_surface(spec, PARAMS, grid_size=4001)
    for u in (0.1, 0.5, 0.9):
        c = float(stopping_threshold_c(spec, PARAMS, u))
        coeff = (1.0 - u) * (c - PARAMS.k) / float(fundamental_G(spec, PARAMS, u, c))
        assert float(surface.coefficient_A(u)) == pytest.approx(coeff, rel=1e-4)
    us = np.linspace(0.05, 0.9, 8)
    pis = np.linspace(0.1, 0.9, 8)
    for u in us:
        vals = surface.value(np.full(8, u), pis)
        stops = (1.0 - u) * stopping_value_v(spec, PARAMS, u, pis)
        assert np.max(np.abs(vals - stops)) <= 1e-3


def test_surface_rejects_nonmonotone_curve():
    u = np.linspace(0.0, 1.0, 1001)
    spec = Tabulated.from_rho2(1.0 / (4.0 * (1.0 - 0.1 * u - 0.8 * u * u)))
    curve = solve_boundary(spec, PARAMS)
    assert not curve.monotone
    with pytest.raises(ValueError):
        ValueSurface(curve)


def test_value_broadcasts(linear_surface):
    u = np.linspace(0.0, 0.9, 11)
    pi = np.linspace(0.1, 0.9, 11)
    out = linear_surface.value(u, pi)
    assert out.shape == (11,)
    single = float(linear_surface.value(u[3], pi[3]))
    assert single == pytest.approx(float(out[3]), abs=0)
