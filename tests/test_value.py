"""Value surface diagnostics and degenerate limits."""

import numpy as np
import pytest

import investlearn.value
from investlearn.boundary import solve_boundary
from investlearn.model import (
    HyperbolicGamma,
    _Hermite,
    LinearNoise,
    ModelParams,
    SqrtExpansion,
    Tabulated,
    fundamental_G,
    stopping_threshold_c,
    stopping_value_v,
)
from investlearn.value import (
    N_SAMPLES,
    TOL_C1_PASTING,
    TOL_GRADIENT,
    TOL_PDE_ABOVE,
    TOL_PDE_BELOW_REL,
    TOL_PREMIUM,
    TOL_SMOOTH_FIT,
    ValueSurface,
    _Evaluation,
    learning_premium_check,
    low_discrepancy_samples,
    pde_residual_sweep,
    verify_surface,
)

PARAMS = ModelParams(r=0.1, k=0.5)
LINEAR = LinearNoise(C=0.25, D=0.9)
HYP = HyperbolicGamma(A=1.25, beta=0.2)


@pytest.fixture(scope="module")
def linear_surface():
    return ValueSurface(solve_boundary(LINEAR, PARAMS))


@pytest.fixture(scope="module")
def hyperbolic_surface():
    return ValueSurface(solve_boundary(HYP, PARAMS))


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
    report = verify_surface(ValueSurface(solve_boundary(spec, params, grid_size=2001)))
    assert report.checks() == {
        "pde": True, "smooth_fit": True, "c1_pasting": True,
        "gradient_bound": True, "learning_premium": True, "all": True}


def test_pde_sweep_with_no_sample_above():
    # b >= 0.99989 everywhere, beyond the sweep's 1 - 1e-3 reach in pi
    surface = ValueSurface(solve_boundary(LinearNoise(C=0.5, D=0.3), ModelParams(r=1e-3, k=0.98)))
    assert float(surface.curve.b_values[0]) > 0.999
    pde = pde_residual_sweep(_Evaluation(surface, *low_discrepancy_samples()))
    assert pde.n_above == 0 and pde.max_above_signed == 0.0
    assert pde.max_above_signed_at is None and pde.max_below_rel_at is not None
    assert pde.n_below == pde.n_samples and pde.passed


@pytest.mark.parametrize("surface", ["linear_surface", "hyperbolic_surface"])
def test_verify_evaluates_each_point_set_once(request, monkeypatch, surface):
    # the sample sweep and the knot-segment midpoints are each evaluated
    # once, the midpoints again through the pull-back for the continuity
    # check; the rest is the premium's gamma(u) at the samples above the
    # boundary and A(1)
    surface = request.getfixturevalue(surface)
    calls = {"gamma_derivs": 0, "points": 0, "hermite": 0, "samples": 0}

    def counting(fn, key, points=False):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if points:
                calls["points"] += np.size(args[1])
            return fn(*args, **kwargs)
        return wrapper

    spec_type = type(surface.spec)
    monkeypatch.setattr(spec_type, "gamma_derivs",
                        counting(spec_type.gamma_derivs, "gamma_derivs", points=True))
    monkeypatch.setattr(_Hermite, "__call__", counting(_Hermite.__call__, "hermite"))
    monkeypatch.setattr(_Hermite, "derivative", counting(_Hermite.derivative, "hermite"))
    monkeypatch.setattr(investlearn.value, "low_discrepancy_samples",
                        counting(investlearn.value.low_discrepancy_samples, "samples"))
    report = verify_surface(surface)
    n = surface.curve.grid_size
    assert calls["gamma_derivs"] <= 5
    assert calls["points"] <= 2 * (n - 1) + 2 * N_SAMPLES + 1
    assert calls["hermite"] <= 10
    assert calls["samples"] == 1
    assert report.passed


@pytest.mark.parametrize("surface", ["linear_surface", "hyperbolic_surface"])
def test_premium_reads_gamma_below_boundary(request, monkeypatch, surface):
    # gamma(u) is evaluated only at the samples above the boundary, and the
    # worst gap and its location are those stopping_value_v gives
    surface = request.getfixturevalue(surface)
    ev = _Evaluation(surface, *low_discrepancy_samples())
    want = (1.0 - ev.u) * stopping_value_v(surface.spec, surface.params, ev.u, ev.pi) - ev.v
    points = []
    spec_type = type(surface.spec)
    original = spec_type.gamma_derivs

    def counting(self, u, r):
        points.append(np.size(u))
        return original(self, u, r)

    monkeypatch.setattr(spec_type, "gamma_derivs", counting)
    report = learning_premium_check(ev)
    assert 0 < sum(points) == np.count_nonzero(ev.above) < N_SAMPLES
    i = int(np.argmax(want))
    assert (report.worst, report.worst_u, report.worst_pi) == (want[i], ev.u[i], ev.pi[i])


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
        "n_samples", "n_below", "n_above", "max_below_rel", "max_above_signed",
        "max_below_rel_at", "max_above_signed_at", "passed"}
    # each sweep maximum is located at a sample on its side of the boundary
    u_s, pi_s = low_discrepancy_samples()
    for key, below in (("max_below_rel_at", True), ("max_above_signed_at", False)):
        u, pi = d["pde"][key]
        assert np.any((u_s == u) & (pi_s == pi))
        assert (pi <= float(linear_surface.curve.b_at(u))) == below
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
    surface = ValueSurface(solve_boundary(HyperbolicGamma(A=50.0, beta=0.2), PARAMS))
    report = verify_surface(surface)
    assert surface.value(0.0, 0.01) == 0.0
    assert -np.inf < surface.log_value(0.0, 0.01) < -1000.0
    assert -np.inf < report.log_value_min < -1000.0
    assert abs(report.A_terminal) <= 1e-12 and report.continuity_max <= 1e-12
    assert report.pde.passed and report.checks()["gradient_bound"]


@pytest.mark.parametrize("r", [1e-3, 0.1, 1.0])
def test_verify_passes_at_large_gamma_logit(r):
    # k = 0.98 puts b near 1, where gamma logit(b) is large enough that
    # G(u, b) overflows and A(u) underflows on their own; formed as one
    # ratio x exp(log G(u, pi) - log G(u, b)) the surface passes every check
    report = verify_surface(ValueSurface(solve_boundary(HyperbolicGamma(A=50.0, beta=0.2),
                                                        ModelParams(r=r, k=0.98))))
    assert report.checks() == {
        "pde": True, "smooth_fit": True, "c1_pasting": True,
        "gradient_bound": True, "learning_premium": True, "all": True}


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
    surface = ValueSurface(solve_boundary(spec, PARAMS, grid_size=4001))
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


@pytest.mark.parametrize("spec, n", [
    (LINEAR, 101),
    (HYP, 101),
    (SqrtExpansion(C=1.0, eps=1e-2), 401),
], ids=["linear_noise-101", "hyperbolic_gamma-101", "sqrt_expansion-401"])
def test_verify_passes_on_fitted_tables(spec, n):
    # a table of rho^2 sampled from a closed form at the model's r gives a
    # surface that passes every check at each (r, k) of the grid
    failed = []
    for r in (1e-3, 0.1, 1.0):
        tab = Tabulated.from_rho2(spec.rho2(np.linspace(0.0, 1.0, n), r))
        for k in (0.1, 0.5, 0.98):
            report = verify_surface(ValueSurface(solve_boundary(tab, ModelParams(r=r, k=k))))
            if not report.passed:
                failed.append((r, k, [name for name, ok in report.checks().items() if not ok]))
    assert failed == []


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


@pytest.mark.parametrize("pi", [0.0, 1.0, np.array([0.5, 1.0])])
@pytest.mark.parametrize("reader", ["value", "log_value", "value_u"])
def test_readers_reject_belief_outside_open_interval(linear_surface, reader, pi):
    # log G is not finite at pi = 0 or 1, so the readers refuse such a
    # belief, as DiscreteLadder.value and fundamental_G do
    with pytest.raises(ValueError, match=r"pi must lie strictly in \(0, 1\)"):
        getattr(linear_surface, reader)(0.3, pi)
