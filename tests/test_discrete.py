"""Discrete ladder: recursion, monotone condition, oracle cross-check."""

import dataclasses
import hashlib

import numpy as np
import pytest

from investlearn.discrete import (
    ORACLE_NODES,
    ORACLE_PHI_MAX,
    ORACLE_RESIDUAL_TOL,
    DiscreteLadder,
    boundary_equation,
    check_discrete_monotone,
    discrete_verification_suite,
    ladder_from_spec,
    oracle_residual_tol,
    root_tol,
    save_ladder,
    solve_ladder,
    value_iteration_oracle,
)
from investlearn.model import (
    ConfigError,
    HyperbolicGamma,
    LinearNoise,
    ModelParams,
    log_G,
    rho,
    stopping_value_v,
)

PARAMS = ModelParams(r=0.1, k=0.5)
HYP = HyperbolicGamma(A=1.25, beta=0.2)

# regression pins for the five-step hyperbolic ladder
B_PINNED = [
    0.4436726698801188,
    0.4798446612828504,
    0.5342883703657237,
    0.6156581388326481,
    0.7428098004250442,
    0.9615384615384615,
]
A_PINNED = [
    0.9412874615075041,
    0.6694666055064434,
    0.6613520899125105,
    0.6509995954309921,
    0.5872805462986637,
    0.41975293066616054,
]


@pytest.fixture(scope="module")
def hyp_ladder():
    return ladder_from_spec(HYP, PARAMS, 5)


def test_terminal_level_is_stopping_threshold(hyp_ladder):
    # gamma_5 = 25/24 gives c_5 = 25/26 exactly
    assert float(hyp_ladder.b[-1]) == pytest.approx(25.0 / 26.0, abs=1e-10)
    assert float(hyp_ladder.b[-1]) == float(hyp_ladder.c[-1])


def test_boundary_equation_residuals(hyp_ladder):
    for n in range(hyp_ladder.n_levels):
        assert abs(boundary_equation(hyp_ladder, n, float(hyp_ladder.b[n]))) <= 1e-13


def _worst_residual_over_tol(ladder):
    return max(abs(boundary_equation(ladder, n, float(ladder.b[n])))
               / root_tol(ladder.gamma[n], ladder.k) for n in range(ladder.n_levels))


def test_newton_at_160_levels():
    # at most 8 evaluations of f_n per level, the two bracket ends included
    lad = ladder_from_spec(LinearNoise(C=0.25, D=0.9), PARAMS, 160)
    assert _worst_residual_over_tol(lad) <= 1.0
    counts = lad.counters()
    assert counts["levels"] == 161 and len(counts["f_evals"]) == 161
    assert counts["f_evals"][-1] == 0  # b_N = c_N needs no root
    assert max(counts["f_evals"]) <= 8
    assert counts["f_evals_total"] == sum(counts["f_evals"])


def test_newton_from_left_of_the_root():
    # gamma_0 and gamma_1 nearly equal put b_0 above b_1, so Newton starts at
    # b_1, left of the root, and its first step overshoots to the right
    lad = solve_ladder(np.array([3.0, 2.99999, 1.5]), PARAMS)
    assert lad.b[0] > lad.b[1]
    assert _worst_residual_over_tol(lad) <= 1.0
    assert max(lad.f_evals) <= 8


@pytest.mark.parametrize("k", [0.256, 0.7])
def test_coefficient_out_of_float_range_solves(k):
    # G_0(b_0) = (1 - b_0)(b_0 / (1 - b_0))^5000 underflows to 0 at k = 0.256
    # (b_0 = 0.205) and overflows at k = 0.7, so A_0 leaves the float range
    # while log A_0 and the value stay finite
    params = ModelParams(r=0.1, k=k)
    lad = solve_ladder(np.array([5000.0, 1.5]), params)
    assert np.all(np.isfinite(lad.log_A))
    assert not 0.0 < lad.A[0] < np.inf
    assert _worst_residual_over_tol(lad) <= 1.0
    assert discrete_verification_suite(lad).passed
    pis = np.linspace(0.05, 0.95, 181)
    assert np.max(np.abs(lad.value(0, pis) - value_iteration_oracle(lad)(pis))) <= 2e-3


@pytest.mark.parametrize("gammas, k", [([1e308, 1.5], 0.1), ([1e300, 1.5], 0.01)])
def test_float_limit_gamma_raises(gammas, k):
    # gamma_0 (gamma_0 - 1) overflows, so rho_0^2 = 0 and the curvature of V_0
    # is not finite (at 1e308 log A_0 too); this raises before anything
    # overflows with a warning
    with pytest.raises(ArithmeticError, match=r"level 0: .* gamma_0 \(gamma_0 - 1\) = inf"):
        solve_ladder(np.array(gammas), ModelParams(r=0.1, k=k))


def test_thresholds_strictly_increasing(hyp_ladder):
    assert np.all(np.diff(hyp_ladder.b) > 0.0)


def test_pinned_solution(hyp_ladder):
    assert hyp_ladder.b == pytest.approx(B_PINNED, rel=1e-12)
    assert hyp_ladder.A == pytest.approx(A_PINNED, rel=1e-12)


def test_hyperbolic_gamma_saturates_condition(hyp_ladder):
    # sampled hyperbola: the second-difference condition holds with equality
    rep = check_discrete_monotone(hyp_ladder)
    assert rep.all_hold
    assert rep.b_nondecreasing
    assert max(abs(v) for v in rep.condition_values) <= 1e-12


def test_monotone_condition_scales_with_gamma():
    # sampled hyperbola at gamma_0 = 200 000: q_0 comes out 3e-8 from
    # roundoff where the condition holds with equality
    lad = ladder_from_spec(HyperbolicGamma(A=200.0, beta=0.001), PARAMS, 5)
    rep = check_discrete_monotone(lad)
    assert max(abs(v) for v in rep.condition_values) > 1e-10
    assert rep.all_hold


def test_arithmetic_gamma_breaks_condition():
    # the condition is sufficient, not necessary: affine gamma violates it
    # while the solved thresholds still happen to come out ordered
    lad = solve_ladder(np.array([3.0, 2.7, 2.4, 2.1, 1.8, 1.5]), PARAMS)
    rep = check_discrete_monotone(lad)
    assert not rep.all_hold
    assert all(v > 0.0 for v in rep.condition_values)
    assert rep.b_nondecreasing


def test_verification_suite_passes(hyp_ladder):
    rep = discrete_verification_suite(hyp_ladder)
    assert rep.passed
    assert rep.bellman_max_violation <= 1e-10
    assert rep.generator_max_residual <= 1e-8
    assert rep.smooth_fit_max_gap <= 1e-4
    d = rep.to_dict()
    assert d["passed"] is True
    assert d["monotone"]["all_hold"] is True
    assert set(d) == {
        "n_pi", "bellman_max_violation", "generator_max_residual", "smooth_fit_max_gap",
        "bellman_max_at", "generator_max_at", "smooth_fit_max_at", "monotone",
        "tolerances", "passed"}
    # each maximum is located at (level n, pi): smooth fit at a threshold b_n,
    # the generator on the suite's belief grid
    pis = np.linspace(0.001, 0.999, rep.n_pi)
    n, pi = d["smooth_fit_max_at"]
    assert pi == float(hyp_ladder.b[n])
    n, pi = d["generator_max_at"]
    assert 0 <= n <= hyp_ladder.n_levels and pi in pis
    n, pi = d["bellman_max_at"]
    assert 0 <= n <= hyp_ladder.n_levels and (pi in pis or pi == float(hyp_ladder.b[n]))


def _with(ladder, b, A):
    return DiscreteLadder(gamma=ladder.gamma, k=ladder.k, r=ladder.r, b=b, log_A=np.log(A),
                          c=ladder.c)


def test_verification_suite_fails_nan(hyp_ladder):
    # a NaN must fail its check wherever it falls in the order of the levels
    A = hyp_ladder.A.copy()
    A[2] = np.nan
    checks = discrete_verification_suite(_with(hyp_ladder, hyp_ladder.b, A)).checks()
    assert checks == {"bellman": False, "generator": False, "smooth_fit": False,
                      "b_nondecreasing": True}


def test_verification_suite_rejects_shifted_threshold(hyp_ladder):
    # b_2 moved up by 0.1 %, A_2 re-derived so that value matching still
    # holds at the wrong threshold: only optimality is broken
    b, A = hyp_ladder.b.copy(), hyp_ladder.A.copy()
    b[2] *= 1.001
    A[2] = (b[2] - PARAMS.k + hyp_ladder.value(3, b[2])) / float(
        np.exp(log_G(hyp_ladder.gamma[2], b[2])))
    rep = discrete_verification_suite(_with(hyp_ladder, b, A))
    assert rep.checks()["bellman"] is False
    assert rep.checks()["smooth_fit"] is False
    assert not rep.passed


def test_verification_suite_rejects_value_matching_break(hyp_ladder):
    # A_2 low by 1e-8 relative: V_2 steps down at b_2 by about 5e-9, far
    # inside the grid's other gaps and the smooth-fit tolerance, so only the
    # value-matching term of the Bellman check sees it
    A = hyp_ladder.A.copy()
    A[2] *= 1.0 - 1e-8
    rep = discrete_verification_suite(_with(hyp_ladder, hyp_ladder.b, A))
    assert rep.checks() == {
        "bellman": False, "generator": True, "smooth_fit": True, "b_nondecreasing": True}


def _walk(ladder, n, pi, order):
    """V_n (order 0) or a pi-derivative by walking the levels from n up."""
    out = np.zeros(pi.shape)
    rem = np.ones(pi.shape, dtype=bool)
    for m in range(n, ladder.n_levels + 1):
        hold = rem & (pi < ladder.b[m])
        g, x = ladder.gamma[m], pi[hold]
        q = x * (1.0 - x)
        factor = (1.0, (g - x) / q, g * (g - 1.0) / (q * q))[order]
        out[hold] += np.exp(ladder.log_A[m] + log_G(g, x)) * factor
        rem &= ~hold
        out[rem] += (pi[rem] - ladder.k, 1.0, 0.0)[order]
    return out


@pytest.mark.parametrize("ladder", [
    lambda: ladder_from_spec(HYP, PARAMS, 5),
    lambda: ladder_from_spec(LinearNoise(C=0.25, D=0.9), PARAMS, 40),
    lambda: solve_ladder(np.array([3.0, 2.99999, 1.5]), PARAMS),
    lambda: solve_ladder(np.array([20.0, 10.0, 1.5]), ModelParams(r=0.1, k=0.256)),
    lambda: solve_ladder(np.array([5000.0, 1.5]), ModelParams(r=0.1, k=0.256)),
], ids=["hyperbolic-5", "linear-40", "3-2.99999-1.5", "20-10-1.5", "5000-1.5"])
def test_lookup_equals_level_walk(ladder):
    # every threshold is on the grid: a belief equal to b_m stops there
    lad = ladder()
    pis = np.union1d(np.linspace(0.001, 0.999, 999), lad.b)
    for n in range(lad.n_levels + 2):
        np.testing.assert_allclose(lad.value(n, pis), _walk(lad, n, pis, 0), rtol=1e-14, atol=0)
        for order in (1, 2):
            np.testing.assert_allclose(lad._derivative(n, pis, order), _walk(lad, n, pis, order),
                                       rtol=1e-14, atol=0)


def test_vanishing_gamma_gap_recovers_stopping_threshold():
    lad = solve_ladder(np.array([2.0, 2.0 - 1e-8]), PARAMS)
    assert abs(float(lad.b[0]) - float(lad.c[0])) <= 1e-4


@pytest.mark.parametrize(
    "gamma",
    [
        np.array([1.5, 2.0]),          # increasing
        np.array([2.0, 1.0]),          # terminal at 1
        np.array([2.0, np.nan]),       # not finite
        np.array([[2.0, 1.5]]),        # wrong shape
        np.array([]),                  # empty
    ],
)
def test_bad_gamma_rejected(gamma):
    with pytest.raises(ConfigError):
        solve_ladder(gamma, PARAMS)


def test_negative_levels_rejected():
    with pytest.raises(ConfigError):
        ladder_from_spec(HYP, PARAMS, -1)


def test_zero_levels_is_plain_stopping():
    lad = ladder_from_spec(HYP, PARAMS, 0)
    assert lad.n_levels == 0
    assert np.array_equal(lad.u_levels, np.array([0.0]))
    pis = np.linspace(0.01, 0.99, 99)
    want = stopping_value_v(HYP, PARAMS, 0.0, pis)
    got = lad.value(0, pis)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_value_rejects_degenerate_belief(hyp_ladder):
    with pytest.raises(ValueError):
        hyp_ladder.value(0, 0.0)
    with pytest.raises(ValueError):
        hyp_ladder.value(0, np.array([0.5, 1.0]))


def test_value_scalar_and_vector_agree(hyp_ladder):
    pis = np.array([0.2, 0.5, 0.8])
    vec = hyp_ladder.value(0, pis)
    for p, v in zip(pis, vec):
        assert float(hyp_ladder.value(0, float(p))) == v


def test_value_continuous_at_thresholds(hyp_ladder):
    eps = 1e-12
    for m in range(hyp_ladder.n_levels + 1):
        bm = float(hyp_ladder.b[m])
        lo = float(hyp_ladder.value(0, bm - eps))
        hi = float(hyp_ladder.value(0, bm + eps))
        assert abs(hi - lo) <= 1e-9


def test_rho2_matches_rate_spec(hyp_ladder):
    for n in range(hyp_ladder.n_levels + 1):
        u = float(hyp_ladder.u_levels[n])
        assert hyp_ladder.rho2(n) == pytest.approx(float(rho(HYP, PARAMS, u)) ** 2, rel=1e-12)


@pytest.fixture(scope="module")
def oracle3():
    lad = ladder_from_spec(HYP, PARAMS, 3)
    return lad, value_iteration_oracle(lad)


def test_oracle_agreement(oracle3):
    lad, oracle = oracle3
    pis = np.linspace(0.05, 0.95, 20)
    gap = np.max(np.abs(lad.value(0, pis) - oracle(pis)))
    assert gap <= 1e-5


def test_oracle_rejects_scaled_coefficients(oracle3):
    # every A_n low by 1e-4 relative moves V_0 by about 4.5e-5; the oracle
    # reads only rho_n^2, k and r, so it still gives the true value
    lad, oracle = oracle3
    pis = np.linspace(0.05, 0.95, 20)
    gap = np.max(np.abs(_with(lad, lad.b, lad.A * 0.9999).value(0, pis) - oracle(pis)))
    assert gap > 1e-5


@pytest.mark.parametrize("gammas", [[1.5, 1.0001], [1.5, 1.00001], [3.0, 2.0, 1.00001]])
def test_oracle_accepts_terminal_gamma_near_one(gammas):
    # rho_N^2 / (2 h^2) reaches 7e8, and the roundoff of the rows (1.6e-7 at
    # 1.00001) would trip an absolute 1e-8 gate
    lad = solve_ladder(np.array(gammas), PARAMS)
    pis = np.linspace(0.05, 0.95, 20)
    assert np.max(np.abs(lad.value(0, pis) - value_iteration_oracle(lad)(pis))) <= 1e-5


# sha1 of oracle(np.linspace(0.001, 0.999, 2001)).tobytes(), taken with the
# oracle whose three sweeps all ran in Python, one node at a time
ORACLE_PINNED = {
    "hyperbolic-3": (3, "087d5d8a25442515f0422e25c619931785eb80c8"),
    "hyperbolic-5": (5, "7de9e90112dd4151119f2a7db55072ae2dea4111"),
    "1.5-1.0001": ([1.5, 1.0001], "d7697c4cc00ef2ccd5c5e83a913d14ab162cfba9"),
    "1.5-1.00001": ([1.5, 1.00001], "a975fa8762ceb201912ec884c539f3823692c707"),
    "3-2-1.00001": ([3.0, 2.0, 1.00001], "3986a02e0c9249dbe6ef02aa33888382fd9111bb"),
}


@pytest.mark.parametrize("levels, want", list(ORACLE_PINNED.values()), ids=list(ORACLE_PINNED))
def test_oracle_pinned_bit_for_bit(levels, want):
    # an int is a level count of the hyperbolic spec, a list the gamma levels
    if isinstance(levels, int):
        lad = ladder_from_spec(HYP, PARAMS, levels)
    else:
        lad = solve_ladder(np.array(levels), PARAMS)
    got = value_iteration_oracle(lad)(np.linspace(0.001, 0.999, 2001))
    assert hashlib.sha1(got.tobytes()).hexdigest() == want


def test_oracle_rejects_nan_rate():
    # a NaN r makes every row NaN; the gate must not read NaN as a pass
    lad = dataclasses.replace(ladder_from_spec(HYP, PARAMS, 3), r=float("nan"))
    with pytest.raises(ArithmeticError):
        value_iteration_oracle(lad)


def test_oracle_gate_absolute_on_test_ladders():
    # the relative term stays below the floor on every level of the test
    # ladders, since V_n <= (N + 1 - n)(1 - k)
    h = 2.0 * ORACLE_PHI_MAX / (ORACLE_NODES - 1)
    for lad in (ladder_from_spec(HYP, PARAMS, 3), ladder_from_spec(HYP, PARAMS, 5)):
        for n in range(lad.n_levels + 1):
            s = 0.5 * lad.rho2(n) / (h * h)
            v_max = (lad.n_levels + 1 - n) * (1.0 - lad.k)
            assert oracle_residual_tol(s, 2.0 + lad.r / s, v_max) == ORACLE_RESIDUAL_TOL


def test_save_ladder_roundtrip(hyp_ladder, tmp_path):
    out = tmp_path / "ladder.csv"
    save_ladder(hyp_ladder, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,u_n,gamma_n,c_n,b_n,A_n"
    assert len(lines) == hyp_ladder.n_levels + 2
    got_b = np.array([float(row.split(",")[4]) for row in lines[1:]])
    assert np.array_equal(got_b, hyp_ladder.b)
    first = out.read_bytes()
    save_ladder(hyp_ladder, out)
    assert out.read_bytes() == first
