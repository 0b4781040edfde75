"""Tests for the risk upper bounds and their closed-form minimizers."""

import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq, minimize_scalar

from cfkde import bounds, risk
from cfkde.charfun import make_density
from cfkde.cli import main
from cfkde.kernels import KernelModel, make_builtin
from cfkde.risk import exact_mise, exact_mse, gauss_panels, integrated_sq_bias

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
    res = bounds.bound("lemma1", NORMAL, GAUSS, 50, h=0.3)
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
    res = bounds.bound("lemma1", NORMAL, stub, 10, h=0.5)
    assert not res.applicable
    assert res.bound is None
    assert ("kernel_cf_absolutely_integrable", False) in res.assumptions_checked


def _lemma1_factor(density, kernel, h, n=50):
    res = bounds.bound("lemma1", density, kernel, n, h=h)
    second = 2.0 * density.sup_bound * kernel.a_value / (n * h)
    return math.sqrt(res.bound - second)


def _symmetric_mixture_factor(m, s, kernel, h):
    # (2 pi)^(-1) int |f| |1 - phi(ht)| for the mixture of N(-m, s^2) and
    # N(m, s^2), f(t) = exp(-s^2 t^2/2) cos(m t), by adaptive quadrature
    # between the kinks (k + 1/2) pi/m of |f|, up to 12/s where |f| < 1e-31
    end = 12.0 / s
    kinks = [(k + 0.5) * math.pi / m for k in range(math.ceil(end * m / math.pi))]
    edges = [0.0, *(t for t in kinks if t < end), end]

    def integrand(t):
        return (math.exp(-0.5 * s * s * t * t) * abs(math.cos(m * t))
                * float(kernel.one_minus_cf(h * t)))

    return sum(integrate.quad(integrand, a, b, limit=500, epsabs=1e-15, epsrel=1e-13)[0]
               for a, b in zip(edges[:-1], edges[1:])) / math.pi


def test_lemma1_factor_never_below_tight_integral():
    # against adaptive quadrature between the kinks of |f| for the mixture,
    # and on the half-line for laplace
    mix = make_density("mixture", weights=(0.5, 0.5), means=(-1.5, 1.5),
                       sigmas=(0.5, 0.5))
    h = 0.5
    ref = _symmetric_mixture_factor(1.5, 0.5, EPAN, h)
    got = _lemma1_factor(mix, EPAN, h)
    assert ref - 1e-13 <= got <= ref * (1.0 + 1e-9)

    lap = make_density("laplace")
    ref, err = integrate.quad(
        lambda t: float(GAUSS.one_minus_cf(h * t)) / (1.0 + t * t),
        0.0, np.inf, limit=500, epsabs=1e-15, epsrel=1e-13)
    ref /= math.pi
    got = _lemma1_factor(lap, GAUSS, h)
    # a_p less the kernel-damped integral, whose tail past T is bounded
    # through the kernel's decay: as tight as the reference (good to about
    # 1e-13)
    assert ref - 1e-13 <= got <= ref * (1.0 + 1e-9)


def test_lemma1_factor_cutoff_follows_the_kernel_decay(monkeypatch):
    # Laplace x gaussian at h = 0.5: |1 - phi| integrated against |f| ran to
    # T = 51,500 on 147,744 nodes; a_p less the integral of |f| min(phi,
    # 2 - phi), whose tail past T is at most s(hT) times |f|'s, stops at T = 15
    counted = []

    def counting(fun, edges, tol, group=None):
        q = gauss_panels(fun, edges, tol, group)
        counted.append(int(np.sum(q.nodes)))
        return q

    monkeypatch.setattr(risk, "gauss_panels", counting)
    factor = risk._abs_bias_factor(make_density("laplace"), GAUSS, 0.5)
    assert len(counted) == 1 and counted[0] <= 1000, counted
    assert math.isfinite(factor) and factor > 0.0


@pytest.mark.parametrize("m, s, h", [(2.5, 0.25, 0.05), (2.0, 0.25, 1.0), (1.0, 0.25, 0.5)])
def test_lemma1_factor_never_below_tight_integral_between_kinks(m, s, h):
    # a kink of |f| closer to a panel edge than any Gauss node once let the
    # 12- and 24-node rules agree on a value up to 2e-7 below the integral
    mix = make_density("mixture", weights=(0.5, 0.5), means=(-m, m), sigmas=(s, s))
    ref = _symmetric_mixture_factor(m, s, GAUSS, h)
    got = _lemma1_factor(mix, GAUSS, h)
    assert ref - 1e-13 <= got <= ref * (1.0 + 1e-9)


def test_lemma1_second_term_scaling():
    # isolate the (n h)^(-1) term by differencing in n, then double h
    def second_term(h, n):
        b1 = bounds.bound("lemma1", NORMAL, GAUSS, n, h=h).bound
        b2 = bounds.bound("lemma1", NORMAL, GAUSS, 2 * n, h=h).bound
        return 2.0 * (b1 - b2)

    s1 = second_term(0.4, 50)
    s2 = second_term(0.8, 50)
    assert s2 == pytest.approx(0.5 * s1, rel=1e-9)
    expected = 2.0 * NORMAL.sup_bound * GAUSS.a_value / (50 * 0.4)
    assert s1 == pytest.approx(expected, rel=1e-9)


def test_lemma1_uniform_density_inapplicable():
    res = bounds.bound("lemma1", UNIFORM, GAUSS, 50, h=0.3)
    assert not res.applicable and res.bound is None


def test_lemma2_dominates_exact_mise_grid():
    for h in (0.1, 0.3, 1.0):
        for n in (10, 100):
            res = bounds.bound("lemma2", NORMAL, GAUSS, n, h=h)
            assert res.applicable
            assert res.bound >= exact_mise(NORMAL, GAUSS, h, n).value


def test_lemma2_variance_term_is_roughness():
    # by Parseval the n-dependent part must be exactly R(K)/(n h)
    h, n = 0.37, 25
    b1 = bounds.bound("lemma2", NORMAL, GAUSS, n, h=h).bound
    b2 = bounds.bound("lemma2", NORMAL, GAUSS, 2 * n, h=h).bound
    quad_r = 0.5 / math.sqrt(math.pi)  # int phi^2 / (2 pi) for the gaussian
    assert 2.0 * (b1 - b2) == pytest.approx(quad_r / (n * h), rel=1e-10)


def test_lemma2_large_n_is_bias_only():
    h = 0.5
    res = bounds.bound("lemma2", NORMAL, GAUSS, 10 ** 12, h=h)
    assert res.bound == pytest.approx(
        integrated_sq_bias(NORMAL, GAUSS, h).value, rel=1e-6
    )


def test_lemma5_mise_closed_form():
    h, n = 0.6, 40
    res = bounds.bound("lemma5_mise", NORMAL, SINC, n, h=h)
    expected = (NORMAL.cf_sq_tail(1.0 / h) + 2.0 / (n * h)) / (2.0 * math.pi)
    assert res.bound == pytest.approx(expected, rel=1e-12)
    assert res.bound >= exact_mise(NORMAL, SINC, h, n).value


def test_lemma5_maxmse_values_and_gate():
    h, n = 0.6, 40
    res = bounds.bound("lemma5_maxmse", NORMAL, SINC, n, h=h)
    first = NORMAL.cf_abs_tail(1.0 / h) / (2.0 * math.pi)
    expected = first ** 2 + 2.0 * NORMAL.a_p / (math.pi * n * h)
    assert res.bound == pytest.approx(expected, rel=1e-12)
    for x in (-1.0, 0.0, 1.5):
        assert res.bound >= exact_mse(NORMAL, SINC, h, n, x).value
    assert not bounds.bound("lemma5_maxmse", UNIFORM, SINC, n, h=h).applicable


# ---------------------------------------------------------------------------
# conventional-kernel bounds with h_n recipes


def test_thm1_corollary_constant():
    res = bounds.bound("thm1", NORMAL, GAUSS, 100, h0=1.0)
    assert res.optimal[0] == pytest.approx(0.8203757, rel=1e-6)
    # degree-1 homogeneity in the target scale
    res2 = bounds.bound("thm1", make_density("normal", sigma=2.0), GAUSS, 100, h0=1.0)
    assert res2.optimal[0] == pytest.approx(2.0 * res.optimal[0], rel=1e-5)


def test_thm2_corollary_closed_form_at_unit_variation():
    # with V1 = 1 the minimized bound is (9/pi)^(1/3) mu1^(2/3) R^(2/3) n^(-2/3)
    d = dataclasses.replace(LAPLACE, variation={1: 1.0})
    res = bounds.bound("thm2", d, GAUSS, 1000, h0=1.0)
    expected = ((9.0 / math.pi) ** (1.0 / 3.0) * GAUSS.mu1 ** (2.0 / 3.0)
                * GAUSS.roughness ** (2.0 / 3.0) * 1000 ** (-2.0 / 3.0))
    assert res.optimal[1] == pytest.approx(expected, rel=1e-12)


def test_thm3_minimized_bound_closed_form():
    res = bounds.bound("thm3", NORMAL, GAUSS, 200, h0=1.0)
    v3 = NORMAL.variation[3]
    a = NORMAL.sup_bound
    expected = (5.0 * (36.0 * math.pi ** 2) ** -0.2 * GAUSS.mu2 ** 0.4
                * v3 ** 0.3 * (GAUSS.a_value * a) ** 0.8 * 200 ** -0.8)
    assert res.optimal[1] == pytest.approx(expected, rel=1e-12)


def test_thm4_value_recomputed():
    # a = 1, V2 = 1, gaussian kernel, h0 = 1, n = 100
    d = dataclasses.replace(NORMAL, variation={2: 1.0}, sup_bound=1.0)
    res = bounds.bound("thm4", d, GAUSS, 100, h0=1.0)
    bracket = ((9.0 / (4.0 * math.pi ** 2)) * GAUSS.mu1 ** 2
               + 2.0 * GAUSS.a_value)
    assert res.bound == pytest.approx(bracket * 100 ** (-2.0 / 3.0), rel=1e-12)
    assert res.h_used == pytest.approx(100 ** (-1.0 / 3.0), rel=1e-12)


def test_conventional_dominance_spot():
    for theorem_id in ("thm1", "thm2"):
        res = bounds.bound(theorem_id, NORMAL, GAUSS, 50, h0=0.9)
        assert res.bound >= exact_mise(NORMAL, GAUSS, res.h_used, 50).value
    xs = np.linspace(-4.0, 4.0, 17)
    for theorem_id in ("thm4", "thm3"):
        res = bounds.bound(theorem_id, NORMAL, GAUSS, 50, h0=0.9)
        sup = max(exact_mse(NORMAL, GAUSS, res.h_used, 50, x).value for x in xs)
        assert res.bound >= sup


def test_uniform_kernel_gates_maxmse_bounds():
    # int |phi| diverges for the uniform kernel, so a-weighted bounds drop out
    assert not bounds.bound("lemma1", NORMAL, UNIF_K, 50, h=0.3).applicable
    assert not bounds.bound("thm3", NORMAL, UNIF_K, 50, h0=1.0).applicable
    assert not bounds.bound("thm4", NORMAL, UNIF_K, 50, h0=1.0).applicable
    # but the MISE bounds survive
    assert bounds.bound("lemma2", NORMAL, UNIF_K, 50, h=0.3).applicable
    assert bounds.bound("thm1", NORMAL, UNIF_K, 50, h0=1.0).applicable


def test_smoothness_gates_by_density():
    assert not bounds.bound("thm1", UNIFORM, GAUSS, 50, h0=1.0).applicable
    assert not bounds.bound("thm2", FEJER, GAUSS, 50, h0=1.0).applicable
    assert not bounds.bound("thm3", LAPLACE, GAUSS, 50, h0=1.0).applicable
    res = bounds.bound("thm2", LAPLACE, GAUSS, 50, h0=1.0)
    assert res.applicable  # laplace carries V1


# ---------------------------------------------------------------------------
# nonsmooth bound


def test_thm5_value_recomputed_and_dominates():
    h0, n = 1.0, 100
    res = bounds.bound("thm5", UNIFORM, GAUSS, n, h0=h0)
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
    res = bounds.bound("thm5", UNIFORM, GAUSS, 15, h0=1.0)
    assert not res.applicable and res.bound is None
    assert ("n_at_least_16", False) in res.assumptions_checked
    assert bounds.bound("thm5", UNIFORM, GAUSS, 16, h0=1.0).applicable


def test_thm5_unimodal_fallback_substitution():
    # strip the variation table; sup bound 1 gives V = 2a = 2 and turns the
    # middle factor into max(V^(3/2), V^2) = 4
    d = dataclasses.replace(UNIFORM, variation={}, sup_bound=1.0)
    res = bounds.bound("thm5", d, GAUSS, 100, h0=1.0)
    assert res.theorem_id == "thm5_unimodal"
    log_n = math.log(100)
    bracket = ((4.0 * math.sqrt(2.0) / math.pi)
               * max(math.sqrt(GAUSS.mu1), GAUSS.mu1) * 4.0
               + GAUSS.roughness / log_n)
    assert res.bound == pytest.approx(bracket * log_n ** 2 / 10.0, rel=1e-12)


def test_thm5_unimodal_fallback_reads_the_bound_with_v_2a():
    # uniform(0, 0.5): a = 2 and V0 = 4 = 2a, so the fallback, which knows
    # only a, must read what the bound with the true V reads (it once put
    # a^2 = 4 where V^2 = 16 belongs, and read 27.4 against 54.7)
    d = make_density("uniform", a=0.0, b=0.5)
    fallback = bounds.bound("thm5", dataclasses.replace(d, variation={}), GAUSS, 100, h0=1.0)
    known = bounds.bound("thm5", dataclasses.replace(d, variation={0: 4.0}), GAUSS, 100, h0=1.0)
    assert fallback.theorem_id == "thm5_unimodal" and known.theorem_id == "thm5"
    assert fallback.bound == known.bound == pytest.approx(54.7, abs=0.05)


# ---------------------------------------------------------------------------
# sinc-kernel bounds


def test_thm6_value_optimal_and_dominance():
    res = bounds.bound("thm6", UNIFORM, SINC, 100, h0=0.7)
    v = UNIFORM.variation[0]
    assert res.bound == pytest.approx(
        (v * v * 0.7 + 1.0 / 0.7) / (math.pi * 10.0), rel=1e-12
    )
    assert res.optimal[0] == pytest.approx(1.0 / v, rel=1e-12)
    assert res.optimal[1] == pytest.approx(2.0 * v / (math.pi * 10.0), rel=1e-12)
    assert res.bound >= exact_mise(UNIFORM, SINC, res.h_used, 100).value


def test_thm6_unimodal_fallback():
    d = dataclasses.replace(LAPLACE, variation={})
    res = bounds.bound("thm6", d, SINC, 100, h0=1.0)
    assert res.theorem_id == "thm6_unimodal"
    a = LAPLACE.sup_bound
    assert res.optimal[0] == pytest.approx(1.0 / (2.0 * a), rel=1e-12)
    assert res.optimal[1] == pytest.approx(4.0 * a / (math.pi * 10.0), rel=1e-12)


def test_thm7_value_and_dominance():
    n = 10 ** 4
    res = bounds.bound("thm7", NORMAL, SINC, n, h0=1.0, m=2)
    v2 = NORMAL.variation[2]
    bracket = (4.0 * 3.0 / 5.0) * v2 ** (5.0 / 3.0) + 2.0
    assert res.bound == pytest.approx(
        bracket * n ** (-0.8) / (2.0 * math.pi), rel=1e-12
    )
    assert res.h_used == pytest.approx(n ** -0.2, rel=1e-12)
    assert res.bound >= exact_mise(NORMAL, SINC, res.h_used, n).value


def test_thm8_smooth_maxmse_value():
    res = bounds.bound("thm8", NORMAL, SINC, 100, h0=1.0, m=2)
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
    res = bounds.bound("thm8", LAPLACE, SINC, 100, h0=1.0, m=1)
    assert res.applicable and res.optimal is None
    assert res.rate == 0.0
    same = bounds.bound("thm8", LAPLACE, SINC, 400, h0=1.0, m=1)
    assert res.bound == same.bound


def test_thm9_value_gate_and_dominance():
    n = 100
    res = bounds.bound("thm9", NORMAL, SINC, n, h0=1.0)
    alpha, gamma, big_b = NORMAL.supersmooth
    log_n = math.log(n)
    expected = (2.0 * gamma ** (-1.0 / alpha) * log_n ** (1.0 / alpha)
                + big_b) / (2.0 * math.pi * n)
    assert res.bound == pytest.approx(expected, rel=1e-12)
    assert res.h_used == pytest.approx((log_n / gamma) ** (-1.0 / alpha),
                                       rel=1e-12)
    assert res.bound >= exact_mise(NORMAL, SINC, res.h_used, n).value
    small = bounds.bound("thm9", NORMAL, SINC, 100, h0=1e-3)
    assert not small.applicable
    assert not bounds.bound("thm9", UNIFORM, SINC, 100, h0=1.0).applicable


def test_thm10_value_and_dominance():
    n = 100
    res = bounds.bound("thm10", NORMAL, SINC, n, h0=1.0)
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
    res = bounds.bound("thm11", FEJER, SINC, 100, h=1.0)
    assert res.bound == pytest.approx(1.0 / (math.pi * 100.0), rel=1e-12)
    assert res.bound >= exact_mise(FEJER, SINC, 1.0, 100).value
    sup_res = bounds.bound("thm11_maxmse", FEJER, SINC, 100, h=1.0)
    assert sup_res.bound == pytest.approx(2.0 / (math.pi ** 2 * 100.0),
                                          rel=1e-12)
    # the band-limit form dominates the sharper transform-integral form
    assert sup_res.bound >= 2.0 * FEJER.a_p / (math.pi * 100.0 * 1.0)
    beyond = bounds.bound("thm11", FEJER, SINC, 100, h=1.2)
    assert not beyond.applicable
    assert not bounds.bound("thm11", NORMAL, SINC, 100, h=1.0).applicable


def test_thm11_fixed_bandwidth_consistency():
    # with h held at the band edge both the bound and the exact risk vanish
    prev_bound, prev_exact = math.inf, math.inf
    for n in (10 ** 2, 10 ** 4, 10 ** 6):
        res = bounds.bound("thm11", FEJER, SINC, n, h=1.0)
        exact = exact_mise(FEJER, SINC, 1.0, n).value
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
        res = bounds.bound("thm1", d, GAUSS, n, h0=1.0)
        c1 = 0.3 / math.pi * GAUSS.mu2 ** 2 * d.variation[2] ** (5.0 / 3.0)
        c2, p, scale = GAUSS.roughness, 4.0, n ** -0.8
        recompute = lambda h0: bounds.bound("thm1", d, GAUSS, n, h0=h0).bound
    elif theorem_id == "thm2":
        d = make_density("laplace", scale=param)
        res = bounds.bound("thm2", d, GAUSS, n, h0=1.0)
        c1 = 4.0 / (3.0 * math.pi) * GAUSS.mu1 ** 2 * d.variation[1] ** 1.5
        c2, p, scale = GAUSS.roughness, 2.0, n ** (-2.0 / 3.0)
        recompute = lambda h0: bounds.bound("thm2", d, GAUSS, n, h0=h0).bound
    elif theorem_id == "thm3":
        d = make_density("normal", sigma=param)
        res = bounds.bound("thm3", d, GAUSS, n, h0=1.0)
        c1 = 4.0 / (9.0 * math.pi ** 2) * GAUSS.mu2 ** 2 * d.variation[3] ** 1.5
        c2 = 2.0 * d.sup_bound * GAUSS.a_value
        p, scale = 4.0, n ** -0.8
        recompute = lambda h0: bounds.bound("thm3", d, GAUSS, n, h0=h0).bound
    elif theorem_id == "thm4":
        d = make_density("normal", sigma=param)
        res = bounds.bound("thm4", d, GAUSS, n, h0=1.0)
        c1 = 9.0 / (4.0 * math.pi ** 2) * GAUSS.mu1 ** 2 * d.variation[2] ** (4.0 / 3.0)
        c2 = 2.0 * d.sup_bound * GAUSS.a_value
        p, scale = 2.0, n ** (-2.0 / 3.0)
        recompute = lambda h0: bounds.bound("thm4", d, GAUSS, n, h0=h0).bound
    elif theorem_id == "thm6":
        d = make_density("uniform", a=0.0, b=param)
        res = bounds.bound("thm6", d, SINC, n, h0=1.0)
        v = d.variation[0]
        c1, c2, p = v * v, 1.0, 1.0
        scale = 1.0 / (math.pi * math.sqrt(n))
        recompute = lambda h0: bounds.bound("thm6", d, SINC, n, h0=h0).bound
    elif theorem_id == "thm7":
        m = param
        res = bounds.bound("thm7", NORMAL, SINC, n, h0=1.0, m=m)
        vm = NORMAL.variation[m]
        c1 = 4.0 * (m + 1.0) / (2.0 * m + 1.0) * vm ** ((2.0 * m + 1.0) / (m + 1.0))
        c2, p = 2.0, 2.0 * m
        scale = n ** (-2.0 * m / (2.0 * m + 1.0)) / (2.0 * math.pi)
        recompute = lambda h0: bounds.bound("thm7", NORMAL, SINC, n, h0=h0, m=m).bound
    else:
        m = param
        res = bounds.bound("thm8", NORMAL, SINC, n, h0=1.0, m=m)
        vm = NORMAL.variation[m]
        c1 = ((m + 1.0) / m) ** 2 * vm ** (2.0 * m / (m + 1.0))
        c2 = 2.0 * (vm ** (1.0 / (m + 1.0)) + vm ** (m / (m + 1.0)) / m)
        p = 2.0 * (m - 1.0)
        scale = n ** (-2.0 * (m - 1.0) / (2.0 * m - 1.0)) / math.pi ** 2
        recompute = lambda h0: bounds.bound("thm8", NORMAL, SINC, n, h0=h0, m=m).bound

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


def test_power_minimum_sweep():
    # the stationarity condition p c1 h*^(p+1) = c2, and no smaller value
    # on either side of h*, over two hundred decades of coefficients
    rng = np.random.default_rng(20)
    for _ in range(400):
        c1, c2 = 10.0 ** rng.uniform(-100.0, 100.0, 2)
        p = float(rng.choice([1.0, 2.0, 4.0, 6.0]))
        h_star, value = bounds._power_minimum(c1, c2, p)
        assert p * c1 * h_star ** (p + 1.0) == pytest.approx(c2, rel=1e-12)
        for h in (h_star * (1.0 - 1e-3), h_star * (1.0 + 1e-3)):
            assert value <= c1 * h ** p + c2 / h


@pytest.mark.parametrize("c1, c2", [
    (0.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
    (1.0, math.nan), (-1.0, 1.0), (1e-300, 1e300)])
def test_power_minimum_rejects_what_has_no_finite_positive_minimum(c1, c2):
    # 0 divides by zero, and 1e-300 against 1e300 puts h* at inf
    with pytest.raises(ValueError, match="no finite positive minimum"):
        bounds._power_minimum(c1, c2, 4.0)


def test_spec_minimum_names_its_inputs_where_the_coefficients_overflow():
    # V_2^(5/3) overflows as a Python float for thm7 at m = 2
    with pytest.raises(ValueError, match="thm7 has no finite positive minimum at v=1e"):
        bounds.SPECS["thm7"].minimum(None, 1e308, m=2)
    h0, value, rate = bounds.SPECS["thm1"].minimum(GAUSS, NORMAL.variation[2])
    res = bounds.bound("thm1", NORMAL, GAUSS, 1, h0=1.0)
    assert (h0, value, rate) == (res.optimal[0], res.optimal[1], res.rate)


# ---------------------------------------------------------------------------
# rate structure


@pytest.mark.parametrize("make", [
    lambda n: bounds.bound("thm1", NORMAL, GAUSS, n, h0=0.9),
    lambda n: bounds.bound("thm2", LAPLACE, GAUSS, n, h0=0.9),
    lambda n: bounds.bound("thm3", NORMAL, GAUSS, n, h0=0.9),
    lambda n: bounds.bound("thm4", NORMAL, GAUSS, n, h0=0.9),
    lambda n: bounds.bound("thm6", UNIFORM, SINC, n, h0=0.7),
    lambda n: bounds.bound("thm7", NORMAL, SINC, n, h0=0.8, m=2),
    lambda n: bounds.bound("thm8", NORMAL, SINC, n, h0=0.8, m=2),
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
        res = bounds.bound("thm5", UNIFORM, GAUSS, n, h0=h0)
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
        mise = bounds.bound("thm9", NORMAL, SINC, n, h0=0.9)
        log_hn = math.log(0.9 * n)
        assert mise.bound * 2.0 * math.pi * n == pytest.approx(
            2.0 * gamma ** (-1.0 / alpha) * log_hn ** (1.0 / alpha)
            + big_b / 0.9, rel=1e-12
        )
        sup = bounds.bound("thm10", NORMAL, SINC, n, h0=0.9)
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
    res = bounds.bound("thm1", NORMAL, GAUSS, 100, h0=1.0)
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
    res = bounds.bound("thm1", MIXTURE, GAUSS, n, h0=1.0)
    assert res.applicable
    assert res.bound >= exact_mise(MIXTURE, GAUSS, res.h_used, n).value
    sup_res = bounds.bound("thm3", MIXTURE, GAUSS, n, h0=1.0)
    xs = np.linspace(-5.0, 6.5, 13)
    sup = max(exact_mse(MIXTURE, GAUSS, sup_res.h_used, n, x).value for x in xs)
    assert sup_res.bound >= sup


# ---------------------------------------------------------------------------
# argument validation


def test_validation_errors():
    # no conventional bound of another smoothness order
    with pytest.raises(ValueError, match="unknown bound"):
        bounds.bound("thm12", NORMAL, GAUSS, 100, h0=1.0)
    with pytest.raises(ValueError):
        bounds.bound("thm1", NORMAL, GAUSS, 100, h0=-1.0)
    with pytest.raises(ValueError):
        bounds.bound("lemma2", NORMAL, GAUSS, 0, h=0.5)
    with pytest.raises(ValueError):
        bounds.bound("mystery", NORMAL, SINC, 100, h0=1.0)
    with pytest.raises(ValueError):
        bounds.bound("thm7", NORMAL, SINC, 100, h0=1.0)
    with pytest.raises(ValueError):
        bounds.bound("thm11", FEJER, SINC, 100)
    with pytest.raises(ValueError):
        bounds.bound("thm8", NORMAL, SINC, 100, h0=1.0)
    with pytest.raises(ValueError, match="needs a kernel"):
        bounds.bound("thm1", NORMAL, None, 100, h0=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_bandwidths_must_be_finite_and_positive(bad):
    # a nan or infinite h0 used to give applicable rows with a nan or inf bound
    for theorem_id in ("lemma1", "thm1", "thm5", "thm9", "thm11"):
        with pytest.raises(ValueError, match="finite and positive"):
            bounds.bound(theorem_id, NORMAL, GAUSS, 100, h=0.5, h0=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            bounds.bound(theorem_id, NORMAL, GAUSS, 100, h=bad, h0=1.0)


def test_overflowing_bound_raises():
    # h0^4 overflows for thm1; thm5 reaches inf without an exception
    with pytest.raises(ValueError, match="thm1 overflows"):
        bounds.bound("thm1", NORMAL, GAUSS, 100, h0=1e300)
    with pytest.raises(ValueError, match="thm5 overflows"):
        bounds.bound("thm5", NORMAL, GAUSS, 100, h0=1e308)
    # only the applicable bound is evaluated
    assert bounds.bound("thm1", UNIFORM, GAUSS, 100, h0=1e300).bound is None


_CLI_ROWS = ["lemma1", "lemma2", "lemma5_mise", "lemma5_maxmse", "thm1", "thm2",
             "thm3", "thm4", "thm5", "thm6", "thm7", "thm8", "thm9", "thm10",
             "thm11", "thm11_maxmse"]


@pytest.mark.parametrize("name", ["normal", "uniform", "fejer"])
def test_bound_table_yields_the_cli_rows_in_order(tmp_path, name):
    density = make_density(name)
    table = list(bounds.bound_table(density, EPAN, 100, 0.5, 1.0, 2))
    assert [res.theorem_id for res, _ in table] == _CLI_ROWS
    for (res, used), spec in zip(table, bounds.SPECS.values()):
        assert used is (SINC if spec.sinc else EPAN)
        assert res.kind == spec.kind
    out = tmp_path / "b.csv"
    assert main(["bounds", "--density", name, "--kernel", "epanechnikov", "--n", "100",
                 "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        assert [row["theorem_id"] for row in csv.DictReader(fh)] == _CLI_ROWS
