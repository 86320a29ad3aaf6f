"""Scalar building blocks against high-precision oracle values.

Expected numbers marked '40-digit arithmetic' were computed once with
mpmath at mp.dps = 40 and frozen here.
"""

from dataclasses import asdict

import numpy as np
import pytest

from investlearn.model import (
    ConfigError,
    HyperbolicGamma,
    LinearNoise,
    ModelParams,
    SqrtExpansion,
    Tabulated,
    check_conditions,
    fundamental_G,
    gamma,
    rho,
    sign_function_H,
    spec_from_dict,
    stopping_threshold_c,
    stopping_value_v,
    zero_level_B,
    _worst,
)

PARAMS = ModelParams(r=0.1, k=0.5)
LINEAR = LinearNoise(C=0.25, D=0.9)
HYP = HyperbolicGamma(A=1.25, beta=0.2)


def test_gamma_terminal_value():
    # 40-digit arithmetic: 1/2 + sqrt(1/4 + 0.8*(1-0.9))
    assert float(gamma(LINEAR, PARAMS, 1.0)) == pytest.approx(
        1.0744562646538029, abs=1e-15)


def test_gamma_solves_quadratic():
    u = np.linspace(0.0, 1.0, 101)
    g = gamma(LINEAR, PARAMS, u)
    resid = g * (g - 1.0) - 2.0 * PARAMS.r / rho(LINEAR, PARAMS, u) ** 2
    assert np.max(np.abs(resid)) <= 1e-12


def test_gamma_exceeds_one():
    u = np.linspace(0.0, 1.0, 401)
    for spec in (LINEAR, HYP):
        assert np.all(gamma(spec, PARAMS, u) > 1.0)


def test_gamma_decreasing_when_rho_increases():
    u = np.linspace(0.0, 1.0, 401)
    assert np.all(np.diff(gamma(LINEAR, PARAMS, u)) < 0.0)


def test_fundamental_G_oracle():
    # 40-digit arithmetic: 0.1 * 9**gamma(1)
    assert float(fundamental_G(LINEAR, PARAMS, 1.0, 0.9)) == pytest.approx(
        1.0599657740558809, rel=1e-13)
    assert float(fundamental_G(LINEAR, PARAMS, 0.5, 0.3)) == pytest.approx(
        0.2266966867418553, rel=1e-13)


def test_G_solves_generator_ode():
    # (rho^2/2) pi^2 (1-pi)^2 G'' = r G, checked by central differences
    h = 1e-5
    for u in (0.0, 0.4, 0.9):
        for pi in (0.2, 0.5, 0.8):
            g0 = float(fundamental_G(LINEAR, PARAMS, u, pi))
            gpp = (float(fundamental_G(LINEAR, PARAMS, u, pi + h))
                   - 2.0 * g0
                   + float(fundamental_G(LINEAR, PARAMS, u, pi - h))) / h**2
            r2 = float(rho(LINEAR, PARAMS, u)) ** 2
            lhs = 0.5 * r2 * pi**2 * (1.0 - pi) ** 2 * gpp
            assert lhs == pytest.approx(PARAMS.r * g0, rel=1e-5)


def test_G_vanishes_at_zero_belief():
    assert float(fundamental_G(LINEAR, PARAMS, 0.5, 1e-12)) < 1e-10


def test_stopping_threshold_oracle():
    # 40-digit arithmetic: k*gamma/(k+gamma-1) at u=1
    assert float(stopping_threshold_c(LINEAR, PARAMS, 1.0)) == pytest.approx(
        0.9351941398892446, rel=1e-14)
    u = np.linspace(0.0, 1.0, 301)
    c = stopping_threshold_c(LINEAR, PARAMS, u)
    assert np.all(c > PARAMS.k) and np.all(c < 1.0)


def test_stopping_value_oracle():
    # 40-digit arithmetic, continuation branch
    assert float(stopping_value_v(LINEAR, PARAMS, 0.3, 0.4)) == pytest.approx(
        0.072006747231342855, rel=1e-12)
    # above c the stopping value is just pi - k
    assert float(stopping_value_v(LINEAR, PARAMS, 0.3, 0.97)) == pytest.approx(0.47, abs=1e-15)


def test_stopping_value_continuous_at_threshold():
    c = float(stopping_threshold_c(LINEAR, PARAMS, 0.3))
    lo = float(stopping_value_v(LINEAR, PARAMS, 0.3, c - 1e-9))
    hi = float(stopping_value_v(LINEAR, PARAMS, 0.3, c + 1e-9))
    assert abs(hi - lo) < 1e-7


def test_stopping_value_positive_and_increasing():
    pis = np.linspace(0.05, 0.95, 19)
    v = stopping_value_v(LINEAR, PARAMS, 0.5, pis)
    assert np.all(v > 0.0)
    assert np.all(np.diff(v) > 0.0)


def test_zero_level_closed_form_linear_noise():
    # the H=0 level solves a linear equation when gamma''' drops out:
    # B = (3 gamma - 1) k / (3 gamma + k - 2)
    u = np.linspace(0.0, 1.0, 2001)
    g = gamma(LINEAR, PARAMS, u)
    closed = (3.0 * g - 1.0) * PARAMS.k / (3.0 * g + PARAMS.k - 2.0)
    got = zero_level_B(LINEAR, PARAMS, u)
    assert np.max(np.abs(got - closed)) <= 1e-10
    # 40-digit arithmetic at u=0
    assert float(zero_level_B(LINEAR, PARAMS, 0.0)) == pytest.approx(
        0.58132500607904443, rel=1e-12)


def test_sign_H_flips_across_zero_level():
    for u in (0.1, 0.5, 0.9):
        B = float(zero_level_B(LINEAR, PARAMS, u))
        assert float(sign_function_H(LINEAR, PARAMS, u, B - 1e-4)) \
            * float(sign_function_H(LINEAR, PARAMS, u, B + 1e-4)) < 0.0


def test_hyperbolic_gamma_identity():
    # gamma = A/(u+beta) satisfies 2 gamma'^2 - gamma gamma'' = 0 exactly
    u = np.linspace(0.0, 1.0, 1001)
    g, d1, d2, _ = HYP.gamma_derivs(u, PARAMS.r)
    assert np.max(np.abs(2.0 * d1**2 - g * d2)) <= 1e-12


def test_condition_report_routes():
    assert check_conditions(LINEAR, PARAMS).route == "boundary_above_k"
    assert check_conditions(HYP, PARAMS).route == "cond1"


def test_condition_sign_test_scales_with_gamma():
    # cond1 holds with equality for every hyperbola; at A = 50 the roundoff of
    # 2 gamma'^2 - gamma gamma'' (about 5e-10) exceeds SIGN_TOL in absolute terms
    assert check_conditions(HyperbolicGamma(A=50.0, beta=0.2), PARAMS).route == "cond1"


def test_condition_report_dict_keys():
    d = asdict(check_conditions(LINEAR, PARAMS))
    assert "route" in d


def test_tabulated_constant_rho_matches_closed_form():
    spec = Tabulated(np.full(101, 2.0))
    u = np.linspace(0.0, 1.0, 11)
    g = gamma(spec, PARAMS, u)
    expect = 0.5 + np.sqrt(0.25 + 2.0 * PARAMS.r / 4.0)
    assert np.max(np.abs(g - expect)) < 1e-12
    c = stopping_threshold_c(spec, PARAMS, u)
    assert np.max(np.abs(np.diff(c))) < 1e-12


def test_tabulated_interpolates_linear_noise():
    u = np.linspace(0.0, 1.0, 1001)
    tab = Tabulated.from_rho2(1.0 / (4.0 * (1.0 - 0.9 * u)))
    q = np.linspace(0.0, 1.0, 37)
    assert np.max(np.abs(rho(tab, PARAMS, q) - rho(LINEAR, PARAMS, q))) < 1e-5


# the tables of the verify_surface grid in test_value: (family, nodes)
FITTED = [(LinearNoise(C=0.25, D=0.9), 101), (HYP, 101), (SqrtExpansion(C=1.0, eps=1e-2), 401)]


@pytest.mark.parametrize("spec, n", FITTED)
@pytest.mark.parametrize("r", [0.1, 1.0])
def test_tabulated_gamma_solves_quadratic_between_nodes(spec, n, r):
    # rho^2 and gamma come from one spline of log rho^2, so the root
    # identity gamma (gamma - 1) = 2r / rho^2 holds off the nodes as well
    tab = Tabulated.from_rho2(spec.rho2(np.linspace(0.0, 1.0, n), r))
    u = np.random.default_rng(7).uniform(0.0, 1.0, 5000)
    g = tab.gamma_derivs(u, r)[0]
    assert np.max(np.abs(g * (g - 1.0) * tab.rho2(u, r) / (2.0 * r) - 1.0)) < 1e-14


def test_tabulated_reproduces_cubic_log_rho2():
    # the not-a-knot spline is exact on cubics; roundoff in the k-th
    # derivative grows like eps / h^k
    n = 101
    h = 1.0 / (n - 1)
    coef = np.array([-0.4, 0.7, -1.2, 0.3])  # highest power first
    tab = Tabulated(np.exp(0.5 * np.polyval(coef, np.linspace(0.0, 1.0, n))))
    u = np.concatenate((np.linspace(0.0, 1.0, 1001), np.random.default_rng(3).uniform(0.0, 1.0, 999)))
    got = tab._L.derivatives(u)
    for k, L_k in enumerate(got):
        want = np.polyval(np.polyder(coef, k), u) if k else np.polyval(coef, u)
        assert np.max(np.abs(L_k - want)) < 1e3 * np.finfo(float).eps / h**k
    r = PARAMS.r
    q = 2.0 * r * np.exp(-np.polyval(coef, u))
    assert np.max(np.abs(tab.rho2(u, r) * q / (2.0 * r) - 1.0)) < 1e-14


SPIKE = np.where(np.arange(101) == 50, 0.01, 1.0)  # rho 1 with one node at 0.01


@pytest.mark.parametrize("table", [
    SPIKE,
    *(np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, n)) for seed, n in ((1, 11), (2, 101), (3, 1001))),
    np.where(np.arange(51) % 2 == 0, 1e-8, 1e8),  # the widest alternation the floor allows
], ids=["spike", "random-11", "random-101", "random-1001", "alternating"])
def test_tabulated_gamma_finite_on_positive_tables(table):
    # log rho^2 may overshoot between nodes, but exp keeps rho^2 positive;
    # RuntimeWarnings are errors in this suite
    tab = Tabulated(table)
    u = np.linspace(0.0, 1.0, 100001)
    for r in (1e-3, 0.1, 1.0):
        derivs = tab.gamma_derivs(u, r)
        assert all(np.all(np.isfinite(x)) for x in derivs) and np.all(derivs[0] >= 1.0)
        assert np.all(tab.rho2(u, r) > 0.0)


def test_sqrt_expansion_family_constructs():
    spec = SqrtExpansion(C=0.3)
    u = np.linspace(0.0, 1.0, 51)
    assert np.all(np.isfinite(rho(spec, PARAMS, u)))
    assert np.all(np.diff(rho(spec, PARAMS, u)) > 0.0)


def test_model_params_validation():
    with pytest.raises(ConfigError):
        ModelParams(r=-0.1, k=0.5)
    with pytest.raises(ConfigError):
        ModelParams(r=0.1, k=0.0)
    with pytest.raises(ConfigError):
        ModelParams(r=0.1, k=1.0)


def test_model_params_from_drifts():
    p = ModelParams.from_drifts(mu0=-1.0, mu1=1.0, r=0.1)
    assert p.k == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        ModelParams.from_drifts(mu0=0.5, mu1=1.0, r=0.1)


def test_spec_from_dict_roundtrip():
    # the tabulated spec takes the path load_curve takes: describe() lists rho
    table = Tabulated.from_rho2(LINEAR.rho2(np.linspace(0.0, 1.0, 101), PARAMS.r))
    for spec in (LINEAR, HYP, SqrtExpansion(C=0.3), table):
        clone = spec_from_dict(spec.describe())
        u = np.linspace(0.0, 1.0, 17)
        assert np.allclose(rho(clone, PARAMS, u), rho(spec, PARAMS, u),
                           rtol=0, atol=1e-14)
        for got, want in zip(clone.gamma_derivs(u, PARAMS.r), spec.gamma_derivs(u, PARAMS.r)):
            assert np.array_equal(got, want)


def test_spec_from_dict_errors():
    with pytest.raises(ConfigError):
        spec_from_dict({})
    with pytest.raises(ConfigError):
        spec_from_dict({"family": "no_such_family"})
    with pytest.raises(ConfigError):
        spec_from_dict({"family": "linear_noise", "C": 0.25})
    with pytest.raises(ConfigError):
        spec_from_dict({"family": "linear_noise", "C": 0.25, "D": 0.9, "bogus": 1})
    with pytest.raises(ConfigError):
        spec_from_dict({"family": "tabulated"})


def test_tabulated_rejects_degenerate_noise():
    with pytest.raises(ConfigError):
        Tabulated(np.zeros(101))
    with pytest.raises(ConfigError):
        Tabulated(np.full(5, 1.0))  # too few samples
    bad = np.full(101, 1.0)
    bad[50] = np.nan
    with pytest.raises(ConfigError):
        Tabulated(bad)


def test_worst_point_takes_first_nan_and_keeps_location_types():
    x = np.array([1.0, 3.0, np.nan, 3.0, np.nan])
    n, pi = np.array([0, 0, 1, 1, 2]), np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    worst, at = _worst(x, n, pi)
    assert np.isnan(worst) and at == (1, 0.3) and type(at[0]) is int
    # of equal maxima the first wins, and a mask limits the search
    assert _worst(x[:2], n[:2], pi[:2]) == (3.0, (0, 0.2))
    assert _worst(x, n, pi, side=np.array([True, False, False, True, False])) == (3.0, (1, 0.4))
    assert _worst(x, n, pi, side=np.zeros(5, dtype=bool)) == (0.0, None)
