"""Tests for kernel models: moments, transforms, and stable branches."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import sici

from cfkde.cli import build_parser
from cfkde.kernels import (
    BUILTIN_KERNELS,
    _polynomial_kernel,
    _tan_roots,
    kernel_from_functions,
    make_builtin,
    scaled_eval,
)

SQRT_PI = math.sqrt(math.pi)
EPS = np.finfo(float).eps


def test_builtin_names():
    assert set(BUILTIN_KERNELS) == {"gaussian", "epanechnikov", "uniform", "sinc"}
    for name in BUILTIN_KERNELS:
        assert make_builtin(name).name == name


def test_unknown_kernel_raises():
    with pytest.raises(ValueError):
        make_builtin("tricube")


def test_gaussian_constants():
    k = make_builtin("gaussian")
    assert_allclose(k.mu1, math.sqrt(2.0 / math.pi), rtol=1e-12)
    assert_allclose(k.mu2, 1.0, rtol=1e-12)
    assert_allclose(k.roughness, 1.0 / (2.0 * SQRT_PI), rtol=1e-12)
    assert_allclose(k.a_value, 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-12)
    assert k.zero_mean and k.is_density and not k.is_sinc


def test_epanechnikov_constants():
    k = make_builtin("epanechnikov")
    assert_allclose(k.mu1, 0.375, rtol=1e-12)
    assert_allclose(k.mu2, 0.2, rtol=1e-12)
    assert_allclose(k.roughness, 0.6, rtol=1e-12)
    # bracketed by a 40000-lobe evaluation with a certified tail
    assert 0.924400991 <= k.a_value <= 0.924408591


def test_uniform_constants():
    k = make_builtin("uniform")
    assert_allclose(k.mu1, 0.5, rtol=1e-12)
    assert_allclose(k.mu2, 1.0 / 3.0, rtol=1e-12)
    assert_allclose(k.roughness, 0.5, rtol=1e-12)
    assert k.a_value == math.inf


def test_sinc_constants():
    k = make_builtin("sinc")
    assert_allclose(k.roughness, 1.0 / math.pi, rtol=1e-12)
    assert_allclose(k.a_value, 1.0 / math.pi, rtol=1e-12)
    assert k.is_sinc and not k.is_density
    assert k.mu1 is None and k.mu2 is None


@pytest.mark.parametrize("name", ["gaussian", "epanechnikov", "uniform"])
def test_cf_matches_quadrature(name):
    k = make_builtin(name)
    lim = 10.0 if name == "gaussian" else 1.0
    for t in (0.0, 0.05, 0.7, 3.0, 11.0):
        ref, _ = integrate.quad(
            lambda x: float(k.eval(x)) * math.cos(t * x), -lim, lim, limit=200
        )
        assert_allclose(float(k.cf(t)), ref, atol=5e-13)


@pytest.mark.parametrize("name", ["gaussian", "epanechnikov", "uniform"])
def test_sq_cf_matches_quadrature(name):
    # sinc is covered by its exact triangle test; its square decays too
    # slowly for a truncated reference integral
    k = make_builtin(name)
    lim = 10.0 if name == "gaussian" else 1.0
    for t in (0.0, 0.1, 0.9, 1.7):
        ref, _ = integrate.quad(
            lambda x: float(k.eval(x)) ** 2 * math.cos(t * x), -lim, lim, limit=400
        )
        assert_allclose(float(k.sq_cf(t)), ref, atol=1e-10)
    # the transform of K^2 at 0 is the roughness
    assert_allclose(float(k.sq_cf(0.0)), k.roughness, rtol=1e-12)


def test_sq_cf_at_zero_is_roughness_sinc():
    k = make_builtin("sinc")
    assert_allclose(float(k.sq_cf(0.0)), k.roughness, rtol=1e-12)


def test_sinc_sq_cf_triangle():
    k = make_builtin("sinc")
    t = np.array([-3.0, -2.0, -0.5, 0.0, 1.0, 1.999, 2.0, 5.0])
    expect = np.maximum(0.0, 2.0 - np.abs(t)) / (2.0 * math.pi)
    assert_allclose(k.sq_cf(t), expect, atol=1e-15)


@pytest.mark.parametrize("name", ["gaussian", "epanechnikov", "uniform"])
def test_selfconv_against_numeric_convolution(name):
    k = make_builtin(name)
    lim = 12.0 if name == "gaussian" else 1.0
    for u in (0.0, 0.3, 1.2, 1.9):
        ref, _ = integrate.quad(
            lambda y: float(k.eval(y)) * float(k.eval(u - y)),
            max(-lim, u - lim), min(lim, u + lim), limit=400,
        )
        assert_allclose(float(k.selfconv(u)), ref, atol=1e-10)


def test_sinc_selfconv_is_identity():
    # the transform is an indicator, so it squares to itself
    k = make_builtin("sinc")
    x = np.linspace(-8, 8, 101)
    assert_allclose(k.selfconv(x), k.eval(x), rtol=1e-14)


def test_selfconv_closed_values():
    g = make_builtin("gaussian")
    assert_allclose(float(g.selfconv(0.7)), math.exp(-0.49 / 4.0) / (2.0 * SQRT_PI),
                    rtol=1e-12)
    e = make_builtin("epanechnikov")
    assert_allclose(float(e.selfconv(0.0)), 0.6, rtol=1e-12)
    assert float(e.selfconv(2.0)) == 0.0
    u = make_builtin("uniform")
    assert_allclose(float(u.selfconv(0.5)), (2.0 - 0.5) / 4.0, rtol=1e-12)
    assert float(u.selfconv(2.5)) == 0.0


@pytest.mark.parametrize("name", ["gaussian", "epanechnikov", "uniform"])
def test_one_minus_cf_stable_and_consistent(name):
    k = make_builtin(name)
    t = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 4.0, 25.0])
    om = k.one_minus_cf(t)
    # agrees with 1 - cf where that is well conditioned
    big = t >= 1e-3
    assert_allclose(om[big], 1.0 - k.cf(t[big]), rtol=1e-9, atol=1e-14)
    # quadratic shrinkage near zero, no cancellation blowup
    tiny = t <= 1e-6
    assert np.all(om[tiny] > 0.0)
    assert np.all(om[tiny] < 1.0 * t[tiny] ** 2)


def test_one_minus_cf_sinc_indicator():
    k = make_builtin("sinc")
    t = np.array([0.0, 0.5, 0.999, 1.0, 1.001, 7.0])
    assert_allclose(k.one_minus_cf(t), np.where(np.abs(t) > 1.0, 1.0, 0.0))


def test_cf_sup_tail_dominates():
    for k in [make_builtin(name) for name in BUILTIN_KERNELS] + list(BETA.values()):
        for u in (0.0, 0.5, 2.0, 10.0, 80.0):
            cap = float(k.cf_sup_tail(u))
            v = np.linspace(u, u + 200.0, 40001)
            assert np.max(np.abs(k.cf(v))) <= cap + 1e-12


def test_scaled_eval():
    k = make_builtin("gaussian")
    x = np.linspace(-3, 3, 11)
    assert_allclose(scaled_eval(k, 0.5, x), k.eval(x / 0.5) / 0.5, rtol=1e-15)
    with pytest.raises(ValueError):
        scaled_eval(k, 0.0, x)
    with pytest.raises(ValueError):
        scaled_eval(k, -1.0, x)
    # the bandwidth rule of the estimators: a nan h gave nan values
    for h in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            scaled_eval(k, h, x)


def test_gaussian_eval_bit_identical_and_leaves_input():
    # the in-place evaluation against the out-of-place formula, bit for bit
    k = make_builtin("gaussian")
    rng = np.random.default_rng(7)
    u = np.concatenate((rng.normal(scale=4.0, size=4096),
                        [0.0, -0.0, 8.57, -8.57, np.inf, -np.inf, np.nan]))
    before = u.copy()
    ref = np.exp(-0.5 * u ** 2) / math.sqrt(2.0 * math.pi)
    got = k.eval(u)
    assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()
    assert u.view(np.uint64).tolist() == before.view(np.uint64).tolist()
    block = u[:4096].reshape(64, 64)
    assert np.array_equal(k.eval(block), ref[:4096].reshape(64, 64))
    for x in (0.3, np.float64(-8.57), np.array(1.5)):
        y = k.eval(x)
        assert np.ndim(y) == 0
        assert y == np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)


def test_kernel_from_functions_triangular():
    def tri(x):
        x = np.asarray(x, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(x))

    def tri_cf(t):
        t = np.asarray(t, dtype=float)
        return np.sinc(t / (2.0 * math.pi)) ** 2

    k = kernel_from_functions("triangular", tri, tri_cf)
    assert_allclose(k.mu1, 1.0 / 3.0, rtol=1e-9)
    assert_allclose(k.mu2, 1.0 / 6.0, rtol=1e-9)
    assert_allclose(k.roughness, 2.0 / 3.0, rtol=1e-9)
    # (1/pi) int_0^inf sinc^2 style transform integrates to exactly 1
    assert_allclose(k.a_value, 1.0, rtol=1e-3)
    assert k.zero_mean and k.is_density


# ---------------------------------------------------------------------------
# the polynomial kernels, generated from their coefficients, against the
# closed forms, Taylor tables and literal fields they were once written with

_EPAN_CF = np.array([3.0 * (-1) ** (k + 1) * 2 * k / math.factorial(2 * k + 1)
                     for k in range(1, 12)])
_EPAN_OM = np.concatenate(([0.0], -_EPAN_CF[1:]))
_EPAN_SQCF = np.array([9.0 * (-1) ** k * 4 * k * (k - 1) / math.factorial(2 * k + 1)
                       for k in range(2, 14)])
_UNIF_OM = np.array([0.0] + [(-1) ** (k + 1) / math.factorial(2 * k + 1)
                             for k in range(1, 11)])
# the Taylor series of sin(u)/u
_UNIF_CF = np.concatenate(([1.0], -_UNIF_OM[1:]))


def _series(coeffs, exact):
    """coeffs as a polynomial in t^2 where |t| < 1, exact(t) elsewhere."""
    def f(t):
        t = np.asarray(t, dtype=float)
        small = np.abs(t) < 1.0
        out = np.empty(t.shape)
        out[small] = np.polynomial.polynomial.polyval(t[small] ** 2, coeffs)
        out[~small] = exact(t[~small])
        return out
    return f


def _epan_selfconv(u):
    u = np.abs(np.asarray(u, dtype=float))
    us = np.where(u <= 2.0, u, 0.0)
    return np.where(u <= 2.0, 3.0 * (2.0 - us) ** 3 * (us * us + 6.0 * us + 4.0) / 160.0, 0.0)


HAND = {
    "epanechnikov": {
        "cf": _series(_EPAN_CF, lambda u: 3.0 * (np.sin(u) - u * np.cos(u)) / u ** 3),
        "one_minus_cf": _series(_EPAN_OM,
                                lambda u: 1.0 - 3.0 * (np.sin(u) - u * np.cos(u)) / u ** 3),
        "sq_cf": _series(_EPAN_SQCF, lambda u: 9.0 * ((3.0 - u * u) * np.sin(u)
                                                      - 3.0 * u * np.cos(u)) / u ** 5),
        "eval": lambda x: np.where(np.abs(x) <= 1.0, 0.75 * (1.0 - x * x), 0.0),
        "selfconv": _epan_selfconv,
        "series": {"cf": _EPAN_CF, "one_minus_cf": _EPAN_OM, "sq_cf": _EPAN_SQCF},
        "fields": {"mu1": 3.0 / 8.0, "mu2": 1.0 / 5.0, "roughness": 3.0 / 5.0,
                   "poly": ((0.75, 0.0, -0.75), (0.6, 0.0, -0.75, 0.375, 0.0, -3.0 / 160.0)),
                   "support": 1.0, "reach": 1.0, "is_density": True, "zero_mean": True},
        # 3 sin u/u^3 - 3 cos u/u^2; 27 sin u/u^5 - 9 sin u/u^3 - 27 cos u/u^4
        "tail_terms": (0.0, ((1.5 / 1j, 1.0, 3), (-1.5 / 1j, -1.0, 3),
                             (-1.5, 1.0, 2), (-1.5, -1.0, 2))),
        "sq_tail_terms": (0.0, ((13.5 / 1j, 1.0, 5), (-13.5 / 1j, -1.0, 5),
                                (-4.5 / 1j, 1.0, 3), (4.5 / 1j, -1.0, 3),
                                (-13.5, 1.0, 4), (-13.5, -1.0, 4))),
    },
    "uniform": {
        "cf": lambda t: np.sinc(np.asarray(t, dtype=float) / np.pi),
        "one_minus_cf": _series(_UNIF_OM, lambda u: 1.0 - np.sin(u) / u),
        "sq_cf": lambda t: 0.5 * np.sinc(np.asarray(t, dtype=float) / np.pi),
        "eval": lambda x: np.where(np.abs(x) <= 1.0, 0.5, 0.0),
        "selfconv": lambda u: np.where(np.abs(u) <= 2.0, (2.0 - np.abs(u)) / 4.0, 0.0),
        "series": {"cf": _UNIF_CF, "one_minus_cf": _UNIF_OM, "sq_cf": 0.5 * _UNIF_CF},
        "fields": {"mu1": 0.5, "mu2": 1.0 / 3.0, "roughness": 0.5,
                   "poly": ((0.5,), (0.5, -0.25)),
                   "support": 1.0, "reach": 1.0, "is_density": True, "zero_mean": True},
        # sin u/u; sin u/(2u)
        "tail_terms": (0.0, ((0.5 / 1j, 1.0, 1), (-0.5 / 1j, -1.0, 1))),
        "sq_tail_terms": (0.0, ((0.25 / 1j, 1.0, 1), (-0.25 / 1j, -1.0, 1))),
    },
}
U = np.concatenate((np.linspace(-50.0, 50.0, 200001), np.geomspace(1e-8, 1e6, 2001)))


@pytest.mark.parametrize("name", ["epanechnikov", "uniform"])
def test_generated_fields_equal_the_hand_written_ones(name):
    k, hand = make_builtin(name), HAND[name]
    for field, value in hand["fields"].items():
        assert getattr(k, field) == value, field
    for field in ("tail_terms", "sq_tail_terms"):
        u0, terms = getattr(k, field)
        assert u0 == hand[field][0]
        assert Counter(terms) == Counter(hand[field][1]), field


def _abs_terms(terms, u):
    # sum |c| / |u|^p over the terms, the size of what the closed form adds up
    return sum(abs(c) * np.abs(u) ** -float(p) for c, _, p in terms[1])


@pytest.mark.parametrize("name", ["epanechnikov", "uniform"])
@pytest.mark.parametrize("field", ["cf", "one_minus_cf", "sq_cf", "eval", "selfconv"])
def test_generated_functions_match_the_closed_forms(name, field):
    k, hand = make_builtin(name), HAND[name]
    got, want = getattr(k, field)(U), hand[field](U)
    small = np.abs(U) < 1.0
    if field in ("eval", "selfconv"):
        coeffs = np.abs(k.poly[0])[::2] if field == "eval" else np.abs(k.poly[1])
        var, edge = (U * U, 1.0) if field == "eval" else (np.abs(U), 2.0)
        scale = np.where(np.abs(U) <= edge, np.polynomial.polynomial.polyval(var, coeffs), 0.0)
    else:
        terms = hand["sq_tail_terms" if field == "sq_cf" else "tail_terms"]
        series = np.abs(hand["series"][field])
        scale = np.where(small, np.polynomial.polynomial.polyval(U * U, series),
                         _abs_terms(terms, np.where(small, 1.0, U)) + (field == "one_minus_cf"))
        if name == "uniform" and field != "one_minus_cf":
            # np.sinc rounds u/pi first; see the mpmath comparison below
            got, want, scale = got[small], want[small], scale[small]
    assert np.all(np.abs(got - want) <= 8.0 * EPS * scale)


def test_uniform_transform_closer_to_mpmath_than_sinc():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    k = make_builtin("uniform")
    u = np.geomspace(10.0, 1e7, 1201)
    exact = [mpmath.sin(mpmath.mpf(x)) / mpmath.mpf(x) for x in u]

    def err(values, half=1):
        return np.array([float(abs(mpmath.mpf(float(v)) - e / half))
                         for v, e in zip(values, exact)])

    new, sinc = err(k.cf(u)), err(np.sinc(u / np.pi))
    assert np.max(new * u) <= 1.5 * EPS
    assert np.max(new * u) <= np.max(sinc * u)
    assert np.max(err(k.sq_cf(u), 2) * u) <= 0.75 * EPS


def test_epanechnikov_a_value_against_the_tan_root_lobes():
    # the lobes between the roots of tan u = u, with the antiderivative
    # 1.5 (Si(u) + cos u/u - sin u/u^2) of 3 (sin u - u cos u)/u^3
    z = _tan_roots(8999)
    f_at = 1.5 * (sici(z)[0] + np.cos(z) / z - np.sin(z) / z ** 2)
    lobes = (abs(f_at[0]) + np.sum(np.abs(np.diff(f_at)))) / math.pi
    a = make_builtin("epanechnikov").a_value
    assert lobes <= a
    assert abs(a - 0.9244058305364248) <= 1e-8 * a


# the symmetric beta kernels (1 - x^2)^s of order s = 2, 3, built like the
# compact built-ins but no built-ins themselves
BETA = {
    "biweight": _polynomial_kernel(
        "biweight", (Fraction(15, 16), 0, Fraction(-15, 8), 0, Fraction(15, 16))),
    "triweight": _polynomial_kernel(
        "triweight", (Fraction(35, 32), 0, Fraction(-105, 32), 0, Fraction(105, 32), 0,
                      Fraction(-35, 32))),
}
BETA_MOMENTS = {"biweight": (Fraction(1, 7), Fraction(5, 7)),
                "triweight": (Fraction(1, 9), Fraction(350, 429))}


def _quad(f, lo=-1.0, hi=1.0, **kw):
    return integrate.quad(lambda x: float(f(x)), lo, hi, limit=200, **kw)[0]


def _term_sum(terms, u):
    return sum((c * np.exp(1j * a * u) * u ** -float(p)).real for c, a, p in terms[1])


@pytest.mark.parametrize("name", ["biweight", "triweight"])
def test_beta_kernel_constants_against_quadrature(name):
    k = BETA[name]
    mu2, rough = BETA_MOMENTS[name]
    assert k.is_density and k.zero_mean and not k.is_sinc
    assert k.mu2 == float(mu2) and k.roughness == float(rough)
    assert_allclose(_quad(k.eval), 1.0, rtol=1e-14)
    assert_allclose(_quad(lambda x: abs(x) * k.eval(x)), k.mu1, rtol=1e-13)
    assert_allclose(_quad(lambda x: x * x * k.eval(x)), k.mu2, rtol=1e-13)
    assert_allclose(_quad(lambda x: k.eval(x) ** 2), k.roughness, rtol=1e-13)
    assert_allclose(k.eval(np.array([-1.0, 1.0, 1.5])), 0.0, atol=0.0)


@pytest.mark.parametrize("name", ["biweight", "triweight"])
def test_beta_kernel_selfconv_against_numeric_convolution(name):
    k = BETA[name]
    for u in (0.0, 0.3, 1.2, 1.9, 1.999):
        ref = _quad(lambda y: k.eval(y) * k.eval(u - y), u - 1.0, 1.0)
        assert_allclose(float(k.selfconv(u)), ref, atol=1e-13)
    assert float(k.selfconv(2.0)) == 0.0 and float(k.selfconv(-2.5)) == 0.0
    # the poly route of the UCV criterion reads the same polynomial
    assert_allclose(np.polynomial.polynomial.polyval(1.2, k.poly[1]), float(k.selfconv(1.2)),
                    rtol=1e-14)


@pytest.mark.parametrize("name", ["biweight", "triweight"])
def test_beta_kernel_transforms_against_quadrature(name):
    k = BETA[name]
    for u in (0.0, 0.05, 0.7, 1.5, 3.0, 11.0, 40.0):
        ref = _quad(k.eval, weight="cos", wvar=u)
        ref_sq = _quad(lambda x: k.eval(x) ** 2, weight="cos", wvar=u)
        assert_allclose(float(k.cf(u)), ref, atol=1e-13)
        assert_allclose(float(k.one_minus_cf(u)), 1.0 - ref, atol=1e-13)
        assert_allclose(float(k.sq_cf(u)), ref_sq, atol=1e-13)
        if u >= 1.5:
            assert_allclose(_term_sum(k.tail_terms, u), ref, atol=1e-12)
            assert_allclose(_term_sum(k.sq_tail_terms, u), ref_sq, atol=1e-12)


@pytest.mark.parametrize("name", ["biweight", "triweight"])
def test_beta_kernel_a_value_against_lobe_quadrature(name):
    # int |phi| lobe by lobe between the sign changes on a fine grid, up to
    # Z near 200 pi, where the rest is (2/pi) |d| / ((p - 1) Z^(p-1)) of the
    # slowest term d trig(u) / u^p to within O(Z^-p)
    k = BETA[name]
    grid = np.linspace(0.0, 200 * math.pi, 200001)
    v = k.cf(grid)
    cuts = [0.0] + [float(g) for g, s in zip(grid[:-1], np.diff(np.sign(v))) if s]
    roots = cuts[:1] + [brentq(lambda t: float(k.cf(t)), g, g + grid[1])
                        for g in cuts[1:]]
    lobes = sum(abs(_quad(k.cf, a, b)) for a, b in zip(roots, roots[1:]))
    p = min(p for _, _, p in k.tail_terms[1])
    d = 2.0 * max(abs(c) for c, _, q in k.tail_terms[1] if q == p)
    rest = 2.0 / math.pi * d / ((p - 1) * roots[-1] ** (p - 1))
    assert lobes / math.pi <= k.a_value
    assert_allclose(k.a_value, (lobes + rest) / math.pi, rtol=1e-7)


def test_beta_kernels_are_no_builtin_and_no_cli_choice():
    _, parsers = build_parser()
    for name in BETA:
        assert name not in BUILTIN_KERNELS
        with pytest.raises(ValueError):
            make_builtin(name)
        for p in parsers.values():
            for action in p._actions:
                if "--kernel" in action.option_strings:
                    assert name not in action.choices


def test_kernel_from_functions_calls_array_functions_once_per_array():
    calls = []

    def tri(x):
        calls.append(np.shape(x))
        return np.maximum(0.0, 1.0 - np.abs(x))

    k = kernel_from_functions("triangular", tri,
                              lambda t: np.sinc(np.asarray(t) / (2.0 * math.pi)) ** 2)
    calls.clear()
    x = np.linspace(-2.0, 2.0, 4001).reshape(1, -1)
    assert_allclose(k.eval(x), np.maximum(0.0, 1.0 - np.abs(x)), rtol=0.0, atol=0.0)
    assert calls == [(1, 4001)]
    assert k.eval(np.array([])).shape == (0,)


def test_kernel_from_functions_falls_back_to_scalar_calls():
    # an array call that raises, one of the wrong shape and one that differs
    # from the scalar calls each leave the function to np.vectorize
    def tri(u):
        return max(0.0, 1.0 - abs(u))

    def tri_cf(t):
        return 1.0 if t == 0.0 else (math.sin(0.5 * t) / (0.5 * t)) ** 2

    for eval_fn in (tri, lambda u: float(np.max(np.maximum(0.0, 1.0 - np.abs(u)))),
                    lambda u: np.maximum(0.0, 1.0 - np.abs(u)) * (1.0 + 1e-9 * (np.ndim(u) > 0))):
        k = kernel_from_functions("triangular", eval_fn, tri_cf)
        x = np.array([[-1.5, -0.5, 0.0], [0.25, 0.5, 2.0]])
        assert_allclose(k.eval(x), np.maximum(0.0, 1.0 - np.abs(x)), rtol=1e-15)
        assert_allclose(k.one_minus_cf(np.array([0.0, 2.0])),
                        [0.0, 1.0 - math.sin(1.0) ** 2], rtol=1e-15, atol=0.0)
