"""Tests for kernel models: moments, transforms, and stable branches."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from cfkde.kernels import (
    BUILTIN_KERNELS,
    kernel_from_functions,
    make_builtin,
    scaled_eval,
)

SQRT_PI = math.sqrt(math.pi)


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
    for name in BUILTIN_KERNELS:
        k = make_builtin(name)
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
