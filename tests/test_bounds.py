"""Tests for the risk upper bounds and their closed-form minimizers."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq, minimize_scalar

from cfkde import bounds
from cfkde.charfun import make_density
from cfkde.kernels import KernelModel, make_builtin
from cfkde.risk import exact_mise, exact_mse, integrated_sq_bias, sinc_exact_mise

GAUSS = make_builtin("gaussian")
EPAN = make_builtin("epanechnikov")
UNIF_K = make_builtin("uniform")
SINC = make_builtin("sinc")

NORMAL = make_density("normal")
UNIFORM = make_density("uniform", a=0.0, b=1.0)
LAPLACE = make_density("laplace", scale=1.2)
FEJER = make_density("fejer")
MIXTURE = make_density(
    "mixture", weights=(0.4, 0.6), means=(-1.0, 1.5), sigmas=(0.6, 1.1)
)


def _slope_root(c1, c2, p):
    # argmin of c1 h^p + c2 / h, located as the root of the exact slope
    return brentq(lambda x: p * c1 * x ** (p - 1.0) - c2 / (x * x),
                  1e-8, 1e8, xtol=1e-300, rtol=8.9e-16)


# ---------------------------------------------------------------------------
# fixed-bandwidth bounds


def test_lemma1_dominates_pointwise_mse():
    res = bounds.lemma1_mse_bound(NORMAL, GAUSS, 0.3, 50)
    assert res.applicable and res.kind == "max_mse"
    for x in (0.0, 0.5, 2.0):
        assert res.bound >= exact_mse(NORMAL, GAUSS, 0.3, 50, x).value


def test_lemma1_flat_transform_stub_inapplicable():
    # phi == 1 makes int |phi| diverge; the result must carry no bound
    stub = KernelModel(
        name="flat", eval=lambda x: np.zeros_like(np.asarray(x, float)),
        cf=lambda t: np.ones_like(np.asarray(t, float)),
        one_minus_cf=lambda t: np.zeros_like(np.asarray(t, float)),
        sq_cf=None, selfconv=None, cf_sup_tail=lambda u: 1.0,
        mu1=0.0, mu2=0.0, roughness=1.0, a_value=math.inf,
        is_density=True, is_sinc=False, zero_mean=True,
    )
    res = bounds.lemma1_mse_bound(NORMAL, stub, 0.5, 10)
    assert not res.applicable
    assert res.bound is None
    assert ("kernel_cf_absolutely_integrable", False) in res.assumptions_checked


def _lemma1_factor(density, kernel, h, n=50):
    res = bounds.lemma1_mse_bound(density, kernel, h, n)
    second = 2.0 * density.sup_bound * kernel.a_value / (n * h)
    return math.sqrt(res.bound - second)


def test_lemma1_factor_never_below_tight_integral():
    # (2 pi)^(-1) int |f| |1 - phi(ht)| by adaptive quadrature with the kinks
    # of |cos(1.5 t)| as breakpoints, and on the half-line for laplace
    epan = make_builtin("epanechnikov")
    mix = make_density("mixture", weights=(0.5, 0.5), means=(-1.5, 1.5),
                       sigmas=(0.5, 0.5))
    kinks = [(k + 0.5) * math.pi / 1.5 for k in range(12)]
    h = 0.5

    def mix_integrand(t):
        return (math.exp(-0.125 * t * t) * abs(math.cos(1.5 * t))
                * float(epan.one_minus_cf(h * t)))

    ref, err = integrate.quad(mix_integrand, 0.0, 40.0, points=kinks,
                              limit=500, epsabs=1e-15, epsrel=1e-13)
    ref /= math.pi
    got = _lemma1_factor(mix, epan, h)
    assert ref - 1e-13 <= got <= ref * (1.0 + 1e-9)

    lap = make_density("laplace")
    ref, err = integrate.quad(
        lambda t: float(GAUSS.one_minus_cf(h * t)) / (1.0 + t * t),
        0.0, np.inf, limit=500, epsabs=1e-15, epsrel=1e-13)
    ref /= math.pi
    got = _lemma1_factor(lap, GAUSS, h)
    # the algebraic tail enters as its certified bound: valid, at most a
    # bit loose (the reference itself is good to about 1e-13)
    assert ref - 1e-13 <= got <= ref * (1.0 + 1e-3)


def test_lemma1_second_term_scaling():
    # isolate the (n h)^(-1) term by differencing in n, then double h
    def second_term(h, n):
        b1 = bounds.lemma1_mse_bound(NORMAL, GAUSS, h, n).bound
        b2 = bounds.lemma1_mse_bound(NORMAL, GAUSS, h, 2 * n).bound
        return 2.0 * (b1 - b2)

    s1 = second_term(0.4, 50)
    s2 = second_term(0.8, 50)
    assert s2 == pytest.approx(0.5 * s1, rel=1e-9)
    expected = 2.0 * NORMAL.sup_bound * GAUSS.a_value / (50 * 0.4)
    assert s1 == pytest.approx(expected, rel=1e-9)


def test_lemma1_uniform_density_inapplicable():
    res = bounds.lemma1_mse_bound(UNIFORM, GAUSS, 0.3, 50)
    assert not res.applicable and res.bound is None


def test_lemma2_dominates_exact_mise_grid():
    for h in (0.1, 0.3, 1.0):
        for n in (10, 100):
            res = bounds.lemma2_mise_bound(NORMAL, GAUSS, h, n)
            assert res.applicable
            assert res.bound >= exact_mise(NORMAL, GAUSS, h, n).value


def test_lemma2_variance_term_is_roughness():
    # by Parseval the n-dependent part must be exactly R(K)/(n h)
    h, n = 0.37, 25
    b1 = bounds.lemma2_mise_bound(NORMAL, GAUSS, h, n).bound
    b2 = bounds.lemma2_mise_bound(NORMAL, GAUSS, h, 2 * n).bound
    quad_r = 0.5 / math.sqrt(math.pi)  # int phi^2 / (2 pi) for the gaussian
    assert 2.0 * (b1 - b2) == pytest.approx(quad_r / (n * h), rel=1e-10)


def test_lemma2_large_n_is_bias_only():
    h = 0.5
    res = bounds.lemma2_mise_bound(NORMAL, GAUSS, h, 10 ** 12)
    assert res.bound == pytest.approx(
        integrated_sq_bias(NORMAL, GAUSS, h).value, rel=1e-6
    )


def test_lemma5_mise_closed_form():
    h, n = 0.6, 40
    res = bounds.lemma5_mise_bound(NORMAL, h, n)
    expected = (NORMAL.cf_sq_tail(1.0 / h) + 2.0 / (n * h)) / (2.0 * math.pi)
    assert res.bound == pytest.approx(expected, rel=1e-12)
    assert res.bound >= sinc_exact_mise(NORMAL, h, n).value


def test_lemma5_maxmse_values_and_gate():
    h, n = 0.6, 40
    res = bounds.lemma5_maxmse_bound(NORMAL, h, n)
    first = NORMAL.cf_abs_tail(1.0 / h) / (2.0 * math.pi)
    expected = first ** 2 + 2.0 * NORMAL.a_p / (math.pi * n * h)
    assert res.bound == pytest.approx(expected, rel=1e-12)
    for x in (-1.0, 0.0, 1.5):
        assert res.bound >= exact_mse(NORMAL, SINC, h, n, x).value
    assert not bounds.lemma5_maxmse_bound(UNIFORM, h, n).applicable


# ---------------------------------------------------------------------------
# conventional-kernel bounds with h_n recipes


def test_thm1_corollary_constant():
    res = bounds.conventional_mise_bound(NORMAL, GAUSS, 2, 1.0, 100)
    assert res.optimal[0] == pytest.approx(0.8203757, rel=1e-6)
    # degree-1 homogeneity in the target scale
    res2 = bounds.conventional_mise_bound(
        make_density("normal", sigma=2.0), GAUSS, 2, 1.0, 100
    )
    assert res2.optimal[0] == pytest.approx(2.0 * res.optimal[0], rel=1e-5)


def test_thm2_corollary_closed_form_at_unit_variation():
    # with V1 = 1 the minimized bound is (9/pi)^(1/3) mu1^(2/3) R^(2/3) n^(-2/3)
    d = dataclasses.replace(LAPLACE, variation={1: 1.0})
    res = bounds.conventional_mise_bound(d, GAUSS, 1, 1.0, 1000)
    expected = ((9.0 / math.pi) ** (1.0 / 3.0) * GAUSS.mu1 ** (2.0 / 3.0)
                * GAUSS.roughness ** (2.0 / 3.0) * 1000 ** (-2.0 / 3.0))
    assert res.optimal[1] == pytest.approx(expected, rel=1e-12)


def test_thm3_minimized_bound_closed_form():
    res = bounds.conventional_maxmse_bound(NORMAL, GAUSS, 3, 1.0, 200)
    v3 = NORMAL.variation[3]
    a = NORMAL.sup_bound
    expected = (5.0 * (36.0 * math.pi ** 2) ** -0.2 * GAUSS.mu2 ** 0.4
                * v3 ** 0.3 * (GAUSS.a_value * a) ** 0.8 * 200 ** -0.8)
    assert res.optimal[1] == pytest.approx(expected, rel=1e-12)


def test_thm4_value_recomputed():
    # a = 1, V2 = 1, gaussian kernel, h0 = 1, n = 100
    d = dataclasses.replace(NORMAL, variation={2: 1.0}, sup_bound=1.0)
    res = bounds.conventional_maxmse_bound(d, GAUSS, 2, 1.0, 100)
    bracket = ((9.0 / (4.0 * math.pi ** 2)) * GAUSS.mu1 ** 2
               + 2.0 * GAUSS.a_value)
    assert res.bound == pytest.approx(bracket * 100 ** (-2.0 / 3.0), rel=1e-12)
    assert res.h_used == pytest.approx(100 ** (-1.0 / 3.0), rel=1e-12)


def test_conventional_dominance_spot():
    for m, mk in ((2, bounds.conventional_mise_bound),
                  (1, bounds.conventional_mise_bound)):
        res = mk(NORMAL, GAUSS, m, 0.9, 50)
        assert res.bound >= exact_mise(NORMAL, GAUSS, res.h_used, 50).value
    xs = np.linspace(-4.0, 4.0, 17)
    for m in (2, 3):
        res = bounds.conventional_maxmse_bound(NORMAL, GAUSS, m, 0.9, 50)
        sup = max(exact_mse(NORMAL, GAUSS, res.h_used, 50, x).value for x in xs)
        assert res.bound >= sup


def test_uniform_kernel_gates_maxmse_bounds():
    # int |phi| diverges for the uniform kernel, so a-weighted bounds drop out
    assert not bounds.lemma1_mse_bound(NORMAL, UNIF_K, 0.3, 50).applicable
    assert not bounds.conventional_maxmse_bound(NORMAL, UNIF_K, 3, 1.0, 50).applicable
    assert not bounds.conventional_maxmse_bound(NORMAL, UNIF_K, 2, 1.0, 50).applicable
    # but the MISE bounds survive
    assert bounds.lemma2_mise_bound(NORMAL, UNIF_K, 0.3, 50).applicable
    assert bounds.conventional_mise_bound(NORMAL, UNIF_K, 2, 1.0, 50).applicable


def test_smoothness_gates_by_density():
    assert not bounds.conventional_mise_bound(UNIFORM, GAUSS, 2, 1.0, 50).applicable
    assert not bounds.conventional_mise_bound(FEJER, GAUSS, 1, 1.0, 50).applicable
    assert not bounds.conventional_maxmse_bound(LAPLACE, GAUSS, 3, 1.0, 50).applicable
    res = bounds.conventional_mise_bound(LAPLACE, GAUSS, 1, 1.0, 50)
    assert res.applicable  # laplace carries V1


# ---------------------------------------------------------------------------
# nonsmooth bound


def test_thm5_value_recomputed_and_dominates():
    h0, n = 1.0, 100
    res = bounds.nonsmooth_mise_bound(UNIFORM, GAUSS, h0, n)
    v = UNIFORM.variation[0]
    log_n = math.log(n)
    bracket = ((4.0 * math.sqrt(2.0) / math.pi)
               * max(math.sqrt(GAUSS.mu1), GAUSS.mu1)
               * max(v ** 1.5, v * v) * max(math.sqrt(h0), h0)
               + GAUSS.roughness / (h0 * log_n))
    assert res.bound == pytest.approx(bracket * log_n ** 2 / math.sqrt(n),
                                      rel=1e-12)
    assert res.h_used == pytest.approx(h0 / (math.sqrt(n) * log_n), rel=1e-12)
    assert res.bound >= exact_mise(UNIFORM, GAUSS, res.h_used, n).value


def test_thm5_small_sample_gate():
    res = bounds.nonsmooth_mise_bound(UNIFORM, GAUSS, 1.0, 15)
    assert not res.applicable and res.bound is None
    assert ("n_at_least_16", False) in res.assumptions_checked
    assert bounds.nonsmooth_mise_bound(UNIFORM, GAUSS, 1.0, 16).applicable


def test_thm5_unimodal_fallback_substitution():
    # strip the variation table; sup bound 1 turns the middle factor into
    # max(2 sqrt 2, 1) = 2 sqrt 2
    d = dataclasses.replace(UNIFORM, variation={}, sup_bound=1.0)
    res = bounds.nonsmooth_mise_bound(d, GAUSS, 1.0, 100)
    assert res.theorem_id == "thm5_unimodal"
    log_n = math.log(100)
    bracket = ((4.0 * math.sqrt(2.0) / math.pi)
               * max(math.sqrt(GAUSS.mu1), GAUSS.mu1) * 2.0 * math.sqrt(2.0)
               + GAUSS.roughness / log_n)
    assert res.bound == pytest.approx(bracket * log_n ** 2 / 10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# sinc-kernel bounds


def test_thm6_value_optimal_and_dominance():
    res = bounds.sinc_mise_bound(UNIFORM, "nonsmooth", 100, h0=0.7)
    v = UNIFORM.variation[0]
    assert res.bound == pytest.approx(
        (v * v * 0.7 + 1.0 / 0.7) / (math.pi * 10.0), rel=1e-12
    )
    assert res.optimal[0] == pytest.approx(1.0 / v, rel=1e-12)
    assert res.optimal[1] == pytest.approx(2.0 * v / (math.pi * 10.0), rel=1e-12)
    assert res.bound >= sinc_exact_mise(UNIFORM, res.h_used, 100).value


def test_thm6_unimodal_fallback():
    d = dataclasses.replace(LAPLACE, variation={})
    res = bounds.sinc_mise_bound(d, "nonsmooth", 100, h0=1.0)
    assert res.theorem_id == "thm6_unimodal"
    a = LAPLACE.sup_bound
    assert res.optimal[0] == pytest.approx(1.0 / (2.0 * a), rel=1e-12)
    assert res.optimal[1] == pytest.approx(4.0 * a / (math.pi * 10.0), rel=1e-12)


def test_thm7_value_and_dominance():
    n = 10 ** 4
    res = bounds.sinc_mise_bound(NORMAL, "smooth", n, h0=1.0, m=2)
    v2 = NORMAL.variation[2]
    bracket = (4.0 * 3.0 / 5.0) * v2 ** (5.0 / 3.0) + 2.0
    assert res.bound == pytest.approx(
        bracket * n ** (-0.8) / (2.0 * math.pi), rel=1e-12
    )
    assert res.h_used == pytest.approx(n ** -0.2, rel=1e-12)
    assert res.bound >= sinc_exact_mise(NORMAL, res.h_used, n).value


def test_thm8_smooth_maxmse_value():
    res = bounds.sinc_maxmse_bound(NORMAL, "smooth", 100, h0=1.0, m=2)
    v2 = NORMAL.variation[2]
    bracket = ((1.5 ** 2) * v2 ** (4.0 / 3.0)
               + 2.0 * (v2 ** (1.0 / 3.0) + v2 ** (2.0 / 3.0) / 2.0))
    assert res.bound == pytest.approx(
        bracket * 100 ** (-2.0 / 3.0) / math.pi ** 2, rel=1e-12
    )
    xs = np.linspace(-3.0, 3.0, 13)
    sup = max(exact_mse(NORMAL, SINC, res.h_used, 100, x).value for x in xs)
    assert res.bound >= sup


def test_thm8_first_order_has_no_minimizer():
    res = bounds.sinc_maxmse_bound(LAPLACE, "smooth", 100, h0=1.0, m=1)
    assert res.applicable and res.optimal is None
    assert res.rate == 0.0
    same = bounds.sinc_maxmse_bound(LAPLACE, "smooth", 400, h0=1.0, m=1)
    assert res.bound == same.bound


def test_thm9_value_gate_and_dominance():
    n = 100
    res = bounds.sinc_mise_bound(NORMAL, "supersmooth", n, h0=1.0)
    alpha, gamma, big_b = NORMAL.supersmooth
    log_n = math.log(n)
    expected = (2.0 * gamma ** (-1.0 / alpha) * log_n ** (1.0 / alpha)
                + big_b) / (2.0 * math.pi * n)
    assert res.bound == pytest.approx(expected, rel=1e-12)
    assert res.h_used == pytest.approx((log_n / gamma) ** (-1.0 / alpha),
                                       rel=1e-12)
    assert res.bound >= sinc_exact_mise(NORMAL, res.h_used, n).value
    small = bounds.sinc_mise_bound(NORMAL, "supersmooth", 100, h0=1e-3)
    assert not small.applicable
    assert not bounds.sinc_mise_bound(UNIFORM, "supersmooth", 100, h0=1.0).applicable


def test_thm10_value_and_dominance():
    n = 100
    res = bounds.sinc_maxmse_bound(NORMAL, "supersmooth", n, h0=1.0)
    alpha, gamma, big_b = NORMAL.supersmooth
    log_n = math.log(n)
    expected = ((2.0 * NORMAL.a_p / (math.pi * gamma ** (1.0 / alpha)))
                * log_n ** (1.0 / alpha)
                + big_b ** 2 / (4.0 * math.pi ** 2 * n)) / n
    assert res.bound == pytest.approx(expected, rel=1e-12)
    xs = np.linspace(-3.0, 3.0, 13)
    sup = max(exact_mse(NORMAL, SINC, res.h_used, n, x).value for x in xs)
    assert res.bound >= sup


def test_thm11_band_limited_both_kinds():
    res = bounds.sinc_mise_bound(FEJER, "bandlimited", 100, h=1.0)
    assert res.bound == pytest.approx(1.0 / (math.pi * 100.0), rel=1e-12)
    assert res.bound >= sinc_exact_mise(FEJER, 1.0, 100).value
    sup_res = bounds.sinc_maxmse_bound(FEJER, "bandlimited", 100, h=1.0)
    assert sup_res.bound == pytest.approx(2.0 / (math.pi ** 2 * 100.0),
                                          rel=1e-12)
    # the band-limit form dominates the sharper transform-integral form
    assert sup_res.bound >= 2.0 * FEJER.a_p / (math.pi * 100.0 * 1.0)
    beyond = bounds.sinc_mise_bound(FEJER, "bandlimited", 100, h=1.2)
    assert not beyond.applicable
    assert not bounds.sinc_mise_bound(NORMAL, "bandlimited", 100, h=1.0).applicable


def test_thm11_fixed_bandwidth_consistency():
    # with h held at the band edge both the bound and the exact risk vanish
    prev_bound, prev_exact = math.inf, math.inf
    for n in (10 ** 2, 10 ** 4, 10 ** 6):
        res = bounds.sinc_mise_bound(FEJER, "bandlimited", n, h=1.0)
        exact = sinc_exact_mise(FEJER, 1.0, n).value
        assert res.bound >= exact
        assert res.bound < prev_bound and exact < prev_exact
        prev_bound, prev_exact = res.bound, exact
    assert prev_bound < 1e-6


# ---------------------------------------------------------------------------
# corollary minimizers against numeric minimization


_COROLLARY_CASES = []
for sigma in (0.7, 1.0, 1.6):
    _COROLLARY_CASES.append(("thm1", sigma))
    _COROLLARY_CASES.append(("thm3", sigma))
for scale in (0.6, 1.2, 2.5):
    _COROLLARY_CASES.append(("thm2", scale))
for sigma in (0.8, 1.0, 1.5):
    _COROLLARY_CASES.append(("thm4", sigma))
for width in (1.0, 2.5, 0.4):
    _COROLLARY_CASES.append(("thm6", width))
for m in (1, 2, 3):
    _COROLLARY_CASES.append(("thm7", m))
for m in (2, 3, 4):
    _COROLLARY_CASES.append(("thm8", m))


@pytest.mark.parametrize("theorem_id,param", _COROLLARY_CASES)
def test_corollary_matches_numeric_minimization(theorem_id, param):
    n = 200
    if theorem_id == "thm1":
        d = make_density("normal", sigma=param)
        res = bounds.conventional_mise_bound(d, GAUSS, 2, 1.0, n)
        c1 = 0.3 / math.pi * GAUSS.mu2 ** 2 * d.variation[2] ** (5.0 / 3.0)
        c2, p, scale = GAUSS.roughness, 4.0, n ** -0.8
        recompute = lambda h0: bounds.conventional_mise_bound(d, GAUSS, 2, h0, n).bound
    elif theorem_id == "thm2":
        d = make_density("laplace", scale=param)
        res = bounds.conventional_mise_bound(d, GAUSS, 1, 1.0, n)
        c1 = 4.0 / (3.0 * math.pi) * GAUSS.mu1 ** 2 * d.variation[1] ** 1.5
        c2, p, scale = GAUSS.roughness, 2.0, n ** (-2.0 / 3.0)
        recompute = lambda h0: bounds.conventional_mise_bound(d, GAUSS, 1, h0, n).bound
    elif theorem_id == "thm3":
        d = make_density("normal", sigma=param)
        res = bounds.conventional_maxmse_bound(d, GAUSS, 3, 1.0, n)
        c1 = 4.0 / (9.0 * math.pi ** 2) * GAUSS.mu2 ** 2 * d.variation[3] ** 1.5
        c2 = 2.0 * d.sup_bound * GAUSS.a_value
        p, scale = 4.0, n ** -0.8
        recompute = lambda h0: bounds.conventional_maxmse_bound(d, GAUSS, 3, h0, n).bound
    elif theorem_id == "thm4":
        d = make_density("normal", sigma=param)
        res = bounds.conventional_maxmse_bound(d, GAUSS, 2, 1.0, n)
        c1 = 9.0 / (4.0 * math.pi ** 2) * GAUSS.mu1 ** 2 * d.variation[2] ** (4.0 / 3.0)
        c2 = 2.0 * d.sup_bound * GAUSS.a_value
        p, scale = 2.0, n ** (-2.0 / 3.0)
        recompute = lambda h0: bounds.conventional_maxmse_bound(d, GAUSS, 2, h0, n).bound
    elif theorem_id == "thm6":
        d = make_density("uniform", a=0.0, b=param)
        res = bounds.sinc_mise_bound(d, "nonsmooth", n, h0=1.0)
        v = d.variation[0]
        c1, c2, p = v * v, 1.0, 1.0
        scale = 1.0 / (math.pi * math.sqrt(n))
        recompute = lambda h0: bounds.sinc_mise_bound(d, "nonsmooth", n, h0=h0).bound
    elif theorem_id == "thm7":
        m = param
        res = bounds.sinc_mise_bound(NORMAL, "smooth", n, h0=1.0, m=m)
        vm = NORMAL.variation[m]
        c1 = 4.0 * (m + 1.0) / (2.0 * m + 1.0) * vm ** ((2.0 * m + 1.0) / (m + 1.0))
        c2, p = 2.0, 2.0 * m
        scale = n ** (-2.0 * m / (2.0 * m + 1.0)) / (2.0 * math.pi)
        recompute = lambda h0: bounds.sinc_mise_bound(NORMAL, "smooth", n, h0=h0, m=m).bound
    else:
        m = param
        res = bounds.sinc_maxmse_bound(NORMAL, "smooth", n, h0=1.0, m=m)
        vm = NORMAL.variation[m]
        c1 = ((m + 1.0) / m) ** 2 * vm ** (2.0 * m / (m + 1.0))
        c2 = 2.0 * (vm ** (1.0 / (m + 1.0)) + vm ** (m / (m + 1.0)) / m)
        p = 2.0 * (m - 1.0)
        scale = n ** (-2.0 * (m - 1.0) / (2.0 * m - 1.0)) / math.pi ** 2
        recompute = lambda h0: bounds.sinc_maxmse_bound(NORMAL, "smooth", n, h0=h0, m=m).bound

    h_star = _slope_root(c1, c2, p)
    assert res.optimal[0] == pytest.approx(h_star, rel=1e-9)
    assert res.optimal[1] == pytest.approx(
        (c1 * h_star ** p + c2 / h_star) * scale, rel=1e-9
    )
    # direct 1-d search over the implementation's own bound agrees in value
    direct = minimize_scalar(recompute, bounds=(h_star / 20.0, h_star * 20.0),
                             method="bounded", options={"xatol": 1e-10})
    assert res.optimal[1] == pytest.approx(direct.fun, rel=1e-9)
    assert res.bound >= res.optimal[1] - 1e-15


# ---------------------------------------------------------------------------
# rate structure


@pytest.mark.parametrize("make", [
    lambda n: bounds.conventional_mise_bound(NORMAL, GAUSS, 2, 0.9, n),
    lambda n: bounds.conventional_mise_bound(LAPLACE, GAUSS, 1, 0.9, n),
    lambda n: bounds.conventional_maxmse_bound(NORMAL, GAUSS, 3, 0.9, n),
    lambda n: bounds.conventional_maxmse_bound(NORMAL, GAUSS, 2, 0.9, n),
    lambda n: bounds.sinc_mise_bound(UNIFORM, "nonsmooth", n, h0=0.7),
    lambda n: bounds.sinc_mise_bound(NORMAL, "smooth", n, h0=0.8, m=2),
    lambda n: bounds.sinc_maxmse_bound(NORMAL, "smooth", n, h0=0.8, m=2),
])
def test_rate_purity(make):
    products = []
    for n in (16, 100, 10 ** 4):
        res = make(n)
        products.append(res.bound * n ** res.rate)
    assert products[1] == pytest.approx(products[0], rel=1e-12)
    assert products[2] == pytest.approx(products[0], rel=1e-12)


def test_thm5_log_envelope_shape():
    h0 = 0.8
    for n in (16, 100, 10 ** 4):
        res = bounds.nonsmooth_mise_bound(UNIFORM, GAUSS, h0, n)
        v = UNIFORM.variation[0]
        log_n = math.log(n)
        bracket = ((4.0 * math.sqrt(2.0) / math.pi)
                   * max(math.sqrt(GAUSS.mu1), GAUSS.mu1)
                   * max(v ** 1.5, v * v) * max(math.sqrt(h0), h0)
                   + GAUSS.roughness / (h0 * log_n))
        assert res.bound * math.sqrt(n) / log_n ** 2 == pytest.approx(
            bracket, rel=1e-12
        )


def test_supersmooth_log_forms():
    alpha, gamma, big_b = NORMAL.supersmooth
    for n in (16, 100, 10 ** 4):
        mise = bounds.sinc_mise_bound(NORMAL, "supersmooth", n, h0=0.9)
        log_hn = math.log(0.9 * n)
        assert mise.bound * 2.0 * math.pi * n == pytest.approx(
            2.0 * gamma ** (-1.0 / alpha) * log_hn ** (1.0 / alpha)
            + big_b / 0.9, rel=1e-12
        )
        sup = bounds.sinc_maxmse_bound(NORMAL, "supersmooth", n, h0=0.9)
        assert sup.bound * n == pytest.approx(
            (2.0 * NORMAL.a_p / (math.pi * gamma ** (1.0 / alpha)))
            * log_hn ** (1.0 / alpha)
            + big_b ** 2 / (4.0 * math.pi ** 2 * n * 0.9), rel=1e-12
        )


# ---------------------------------------------------------------------------
# asymptotic reference


def test_amise_normal_constants():
    h, value = bounds.amise_conventional(NORMAL, GAUSS, 100)
    assert h * 100 ** 0.2 == pytest.approx(1.0592238, rel=1e-6)
    rpp = 3.0 / (8.0 * math.sqrt(math.pi))
    expected = (1.25 * (GAUSS.mu2 ** 2 * GAUSS.roughness ** 4) ** 0.2
                * rpp ** 0.2 * 100 ** -0.8)
    assert value == pytest.approx(expected, rel=1e-8)


def test_amise_ratio_to_minimized_bound():
    res = bounds.conventional_mise_bound(NORMAL, GAUSS, 2, 1.0, 100)
    _, value = bounds.amise_conventional(NORMAL, GAUSS, 100)
    assert res.optimal[1] / value == pytest.approx(1.2911448, rel=1e-6)


def test_amise_gates():
    with pytest.raises(ValueError):
        bounds.amise_conventional(UNIFORM, GAUSS, 100)
    with pytest.raises(ValueError):
        bounds.amise_conventional(NORMAL, SINC, 100)


def test_amise_roughness_resolved_without_warnings():
    # R(p'') is recovered from h = (R(K)/mu2^2)^(1/5) R(p'')^(-1/5) n^(-1/5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h, _ = bounds.amise_conventional(NORMAL, GAUSS, 100)
        bounds.amise_conventional(
            make_density("mixture", weights=(0.5, 0.5), means=(-1.5, 1.5),
                         sigmas=(0.5, 0.5)), GAUSS, 100)
    assert caught == []
    rpp = GAUSS.roughness / GAUSS.mu2 ** 2 / (h * 100 ** 0.2) ** 5
    assert abs(rpp - 3.0 / (8.0 * math.sqrt(math.pi))) <= 1e-12


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_amise_unresolved_roughness_raises():
    wild = dataclasses.replace(
        NORMAL, pdf_deriv=lambda m, x: np.sin(1e3 / (np.abs(x) + 1e-9)))
    with pytest.raises(ValueError, match="error estimate"):
        bounds.amise_conventional(wild, GAUSS, 100)


def test_mixture_bounds_applicable_and_dominant():
    n = 200
    res = bounds.conventional_mise_bound(MIXTURE, GAUSS, 2, 1.0, n)
    assert res.applicable
    assert res.bound >= exact_mise(MIXTURE, GAUSS, res.h_used, n).value
    sup_res = bounds.conventional_maxmse_bound(MIXTURE, GAUSS, 3, 1.0, n)
    xs = np.linspace(-5.0, 6.5, 13)
    sup = max(exact_mse(MIXTURE, GAUSS, sup_res.h_used, n, x).value for x in xs)
    assert sup_res.bound >= sup


# ---------------------------------------------------------------------------
# argument validation


def test_validation_errors():
    with pytest.raises(ValueError):
        bounds.conventional_mise_bound(NORMAL, GAUSS, 3, 1.0, 100)
    with pytest.raises(ValueError):
        bounds.conventional_maxmse_bound(NORMAL, GAUSS, 1, 1.0, 100)
    with pytest.raises(ValueError):
        bounds.conventional_mise_bound(NORMAL, GAUSS, 2, -1.0, 100)
    with pytest.raises(ValueError):
        bounds.lemma2_mise_bound(NORMAL, GAUSS, 0.5, 0)
    with pytest.raises(ValueError):
        bounds.sinc_mise_bound(NORMAL, "mystery", 100, h0=1.0)
    with pytest.raises(ValueError):
        bounds.sinc_mise_bound(NORMAL, "smooth", 100, h0=1.0)
    with pytest.raises(ValueError):
        bounds.sinc_mise_bound(FEJER, "bandlimited", 100)
    with pytest.raises(ValueError):
        bounds.sinc_maxmse_bound(NORMAL, "smooth", 100, h0=1.0)
