"""Tests for the exact risk routines against independent closed forms."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import erfc, erfcx, ndtr

from cfkde.charfun import make_density
from cfkde.kernels import _polynomial_kernel, kernel_from_functions, make_builtin
from cfkde.risk import (
    RISK_RTOL,
    _WORK,
    _degraded,
    _expint,
    _sq_integrals,
    certified_cutoff,
    exact_bias,
    exact_mise,
    exact_mse,
    integrated_sq_bias,
    mc_mise,
)

SQRT_PI = math.sqrt(math.pi)
SINC = make_builtin("sinc")


def normal_gaussian_mise(sigma: float, h: float, n: int) -> float:
    """Closed form for a normal target with the gaussian kernel."""
    return (
        1.0 / sigma
        - 2.0 / math.sqrt(sigma * sigma + 0.5 * h * h)
        + 1.0 / math.sqrt(sigma * sigma + h * h)
        + (1.0 / h - 1.0 / math.sqrt(h * h + sigma * sigma)) / n
    ) / (2.0 * SQRT_PI)


def normal_pdf(x: float, var: float) -> float:
    return math.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)


@pytest.mark.parametrize("h,n", [(0.05, 50), (0.1, 100), (0.3, 100),
                                 (0.5, 20), (1.0, 1000), (2.0, 10)])
def test_exact_mise_normal_oracle(h, n):
    d = make_density("normal")
    g = make_builtin("gaussian")
    rep = exact_mise(d, g, h, n)
    oracle = normal_gaussian_mise(1.0, h, n)
    assert_allclose(rep.value, oracle, rtol=1e-10)
    assert not rep.degraded
    assert rep.quad_error < 1e-10


def test_exact_mise_normal_oracle_other_sigma():
    d = make_density("normal", sigma=1.7, mu=0.4)
    g = make_builtin("gaussian")
    rep = exact_mise(d, g, 0.25, 64)
    assert_allclose(rep.value, normal_gaussian_mise(1.7, 0.25, 64), rtol=1e-10)


def test_exact_mise_validation():
    d = make_density("normal")
    g = make_builtin("gaussian")
    with pytest.raises(ValueError):
        exact_mise(d, g, 0.0, 10)
    with pytest.raises(ValueError):
        exact_mise(d, g, 0.3, 0)


def test_exact_mise_decreases_in_n():
    d = make_density("laplace")
    g = make_builtin("gaussian")
    vals = [exact_mise(d, g, 0.3, n).value for n in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]


def test_sinc_exact_mise_fejer_pinned():
    f = make_density("fejer")
    n = 100
    assert_allclose(exact_mise(f, SINC, 1.0, n).value, 2.0 / (3.0 * math.pi * n),
                    rtol=1e-12)
    assert_allclose(exact_mise(f, SINC, 0.8, n).value, 11.0 / (12.0 * math.pi * n),
                    rtol=1e-12)
    for h in (1.0, 0.8):
        assert exact_mise(f, SINC, h, n).value <= 1.0 / (math.pi * n * h) + 1e-15


def test_sinc_mise_generic_path_matches_closed_form():
    sk = make_builtin("sinc")
    targets = [make_density("normal"), make_density("fejer"),
               make_density("laplace"), make_density("uniform", a=-1.0, b=1.0)]
    for d in targets:
        for h in (0.3, 0.9, 2.0):
            a = exact_mise(d, sk, h, 37).value
            # (2 pi)^(-1) [ tail(1/h) + (2/h - head(1/h)) / n ]
            tail = d.cf_sq_tail(1.0 / h)
            b = (tail + (2.0 / h - (d.cf_sq_tail(0.0) - tail)) / 37) / (2.0 * math.pi)
            assert_allclose(a, b, rtol=1e-10, atol=1e-15)


def test_sinc_mise_optimal_band_for_bandlimited():
    # once 1/h reaches the transform support the bias vanishes and the
    # risk is purely the variance term
    f = make_density("fejer")
    rep = exact_mise(f, SINC, 0.5, 50)
    head = f.cf_sq_tail(0.0)
    assert_allclose(rep.value, (2.0 / 0.5 - head) / (2.0 * math.pi * 50),
                    rtol=1e-12)


def test_exact_bias_normal_closed_form():
    d = make_density("normal")
    g = make_builtin("gaussian")
    for h in (0.2, 0.7):
        for x in (0.0, 0.5, -1.7):
            got = exact_bias(d, g, h, x).value
            oracle = normal_pdf(x, 1.0 + h * h) - normal_pdf(x, 1.0)
            assert_allclose(got, oracle, atol=1e-12)


def test_exact_bias_laplace_vs_convolution():
    l = make_density("laplace")
    g = make_builtin("gaussian")
    x, h = 0.4, 0.3
    conv, _ = integrate.quad(
        lambda y: float(l.pdf(y)) * normal_pdf(x - y, h * h),
        -40, 40, limit=1000,
    )
    got = exact_bias(l, g, h, x)
    assert_allclose(got.value, conv - float(l.pdf(x)), atol=1e-10)
    assert not got.degraded


def test_exact_bias_gated_without_integrable_transform():
    u = make_density("uniform")
    g = make_builtin("gaussian")
    with pytest.raises(ValueError):
        exact_bias(u, g, 0.3, 0.5)
    with pytest.raises(ValueError):
        exact_mse(u, g, 0.3, 50, 0.5)


def test_exact_bias_sinc_bandlimited():
    f = make_density("fejer")
    sk = make_builtin("sinc")
    # cutoff below the band edge: no bias at all
    assert exact_bias(f, sk, 0.9, 0.3).value == 0.0
    # cutoff inside the band: matches the explicit tail integral
    got = exact_bias(f, sk, 2.0, 0.3).value
    oracle = -integrate.quad(lambda t: (1.0 - t) * math.cos(0.3 * t),
                             0.5, 1.0)[0] / math.pi
    assert_allclose(got, oracle, atol=1e-12)


def test_exact_mse_normal_closed_form():
    d = make_density("normal")
    g = make_builtin("gaussian")
    n = 50
    for h in (0.2, 0.7):
        for x in (0.0, 0.5, -2.3):
            got = exact_mse(d, g, h, n, x).value
            b = normal_pdf(x, 1.0 + h * h) - normal_pdf(x, 1.0)
            second = normal_pdf(x, 1.0 + 0.5 * h * h) / (2.0 * h * SQRT_PI)
            mean = normal_pdf(x, 1.0 + h * h)
            oracle = b * b + (second - mean * mean) / n
            assert_allclose(got, oracle, rtol=1e-12)


def test_exact_mse_positive_and_bias_dominates_at_large_n():
    d = make_density("normal")
    g = make_builtin("gaussian")
    b = exact_bias(d, g, 0.5, 0.0).value
    m = exact_mse(d, g, 0.5, 10 ** 9, 0.0).value
    assert m >= b * b
    assert_allclose(m, b * b, rtol=1e-4)


def test_mc_mise_matches_exact_within_3se():
    d = make_density("normal")
    g = make_builtin("gaussian")
    mean, se = mc_mise(d, g, 0.3, 100, reps=200, seed=11)
    exact = exact_mise(d, g, 0.3, 100).value
    assert se > 0.0
    assert abs(mean - exact) <= 3.0 * se


def test_mc_mise_seeding_prefix_stable():
    d = make_density("normal")
    g = make_builtin("gaussian")
    m1, _ = mc_mise(d, g, 0.4, 30, reps=5, seed=7)
    m2, _ = mc_mise(d, g, 0.4, 30, reps=5, seed=7)
    assert m1 == m2
    _, se1 = mc_mise(d, g, 0.4, 30, reps=1, seed=7)
    assert math.isnan(se1)
    with pytest.raises(ValueError):
        mc_mise(d, g, 0.4, 30, reps=0, seed=7)


def test_mc_mise_grid_draws_each_replicate_once_and_matches_per_h():
    # replicate r is one sample for every h, each h on its own grid: the
    # array call is the per-h calls bit for bit
    d, g = _model("mixture"), make_builtin("epanechnikov")
    hs = np.array([0.05, 0.3, 1.2])
    mean, se = mc_mise(d, g, hs, 40, reps=4, seed=3, grid_points=256)
    assert mean.shape == se.shape == hs.shape
    for i, h in enumerate(hs):
        one = mc_mise(d, g, float(h), 40, reps=4, seed=3, grid_points=256)
        assert isinstance(one[0], float) and (mean[i], se[i]) == one
    m1, s1 = mc_mise(d, g, hs[:1], 40, reps=1, seed=3, grid_points=256)
    assert m1.shape == (1,) and math.isnan(s1[0])


def test_integrated_sq_bias_normal_gaussian_closed_form():
    # the smoothed-minus-true L2 gap has a closed form for this pair
    for sigma, h in ((1.0, 0.3), (1.7, 0.8)):
        d = make_density("normal", sigma=sigma)
        g = make_builtin("gaussian")
        got = integrated_sq_bias(d, g, h)
        s2 = sigma * sigma
        expected = (1.0 / sigma - 2.0 / math.sqrt(s2 + h * h / 2.0)
                    + 1.0 / math.sqrt(s2 + h * h)) / (2.0 * math.sqrt(math.pi))
        assert_allclose(got.value, expected, rtol=1e-10)
        assert got.quad_error < 1e-8


# ---------------------------------------------------------------------------
# cross-check matrix: every built-in density x conventional kernel x three
# decades of h at n = 100, against references that do not use cfkde.risk


GL20 = np.polynomial.legendre.leggauss(20)
GL32 = np.polynomial.legendre.leggauss(32)
ROUGHNESS = {"gaussian": 1.0 / (2.0 * SQRT_PI), "epanechnikov": 0.6,
             "uniform": 0.5, "biweight": 5.0 / 7.0}
MIXTURE_PARAMS = dict(weights=(0.5, 0.5), means=(-1.5, 1.5), sigmas=(0.5, 0.5))
# 15/16 (1 - u^2)^2 on [-1, 1], from the generator of the compact built-ins
BIWEIGHT = _polynomial_kernel("biweight", (Fraction(15, 16), 0, Fraction(-15, 8), 0,
                                           Fraction(15, 16)))


def _kernel(kname):
    return BIWEIGHT if kname == "biweight" else make_builtin(kname)


def _kernel_pdf(name, u):
    if name == "gaussian":
        return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    inside = np.abs(u) <= 1.0
    if name == "biweight":
        return np.where(inside, 0.9375 * (1.0 - u * u) ** 2, 0.0)
    return np.where(inside, 0.75 * (1.0 - u * u) if name == "epanechnikov"
                    else 0.5, 0.0)


def _kernel_cdf(name, v):
    if name == "gaussian":
        return ndtr(v)
    w = np.clip(v, -1.0, 1.0)
    if name == "epanechnikov":
        return 0.5 + 0.75 * (w - w ** 3 / 3.0)
    if name == "biweight":
        return 0.5 + 0.9375 * (w - 2.0 * w ** 3 / 3.0 + w ** 5 / 5.0)
    return 0.5 * (w + 1.0)


def _components(name):
    if name == "normal":
        return ((1.0, 0.0, 1.0),)
    p = MIXTURE_PARAMS
    return tuple(zip(p["weights"], p["means"], p["sigmas"]))


def _pdf(name, x, width=1.0):
    if name == "uniform":
        return np.where((x >= 0.0) & (x <= width), 1.0 / width, 0.0)
    if name == "laplace":
        return 0.5 * np.exp(-np.abs(x))
    return sum(w * np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
               for w, m, s in _components(name))


def _smoothed(name, kname, h, x, width=1.0):
    """(K_h * p)(x): closed forms, else Gauss-Legendre in u split at kinks."""
    if name == "uniform":
        return (_kernel_cdf(kname, x / h) - _kernel_cdf(kname, (x - width) / h)) / width
    if kname == "gaussian" and name == "laplace":
        # 1/4 e^{h^2/2} [e^{-x} erfc(z(x)) + e^{x} erfc(z(-x))], z(y) = (h - y/h)/sqrt 2
        def term(y):
            z = (h - y / h) / math.sqrt(2.0)
            with np.errstate(over="ignore"):
                direct = np.exp(0.5 * h * h - y) * erfc(z)
            return np.where(z >= 0.0, erfcx(np.maximum(z, 0.0))
                            * np.exp(-0.5 * (y / h) ** 2), direct)
        return 0.25 * (term(x) + term(-x))
    if kname == "gaussian":
        return sum(w * np.exp(-0.5 * (x - m) ** 2 / (s * s + h * h))
                   / math.sqrt(2.0 * math.pi * (s * s + h * h))
                   for w, m, s in _components(name))
    nodes, weights = GL32
    cut = np.clip(x / h, -1.0, 1.0) if name == "laplace" else np.zeros_like(x)
    total = np.zeros_like(x)
    for lo, hi in ((-np.ones_like(x), cut), (cut, np.ones_like(x))):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        u = mid[:, None] + half[:, None] * nodes
        total += (_kernel_pdf(kname, u) * _pdf(name, x[:, None] - h * u)) @ weights * half
    return total


def _x_space_mise(name, kname, h, n, width=1.0):
    """int (K_h*p - p)^2 + (R(K)/h - int (K_h*p)^2)/n on x-space panels.

    Panels are at most 0.5 wide, with edges at the target's kinks and at
    kink +- f h, so every piece of the integrand is smooth.  width is that
    of the uniform target, uniform[0, width].
    """
    reach = 12.0 * h if kname == "gaussian" else h
    lo, hi = {"normal": (-12.0, 12.0), "mixture": (-8.0, 8.0),
              "uniform": (0.0, width), "laplace": (-36.0, 36.0)}[name]
    breaks = {lo - reach, hi + reach}
    for k in {"uniform": (0.0, width), "laplace": (0.0,)}.get(name, ()):
        breaks.update(k + s * f * h for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
                      for s in (-1.0, 0.0, 1.0))
    breaks = sorted(b for b in breaks if lo - reach <= b <= hi + reach)
    nodes, weights = GL20
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(a, b, max(1, math.ceil((b - a) / 0.5)) + 1)
        half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
        xs.append((mid[:, None] + half[:, None] * nodes).ravel())
        ws.append(np.outer(half, weights).ravel())
    x, w = np.concatenate(xs), np.concatenate(ws)
    s = _smoothed(name, kname, h, x, width)
    return float(w @ (s - _pdf(name, x, width)) ** 2) + (ROUGHNESS[kname] / h
                                                          - float(w @ (s * s))) / n


def _series(u, terms):
    """sum_k terms(k) u^(2k) for k = 1..12, for the cancellation-prone small u."""
    return sum(terms(k) * u ** (2 * k) for k in range(1, 13))


def _kernel_ft(name, u):
    """phi(u) and 1 - phi(u) from the definitions, without cancellation."""
    u = np.abs(u)
    small = u < 0.5
    us = np.where(small, 1.0, u)
    if name == "gaussian":
        return np.exp(-0.5 * u * u), -np.expm1(-0.5 * u * u)
    if name == "uniform":
        big = np.sin(us) / us
        om = _series(u, lambda k: (-1) ** (k + 1) / math.factorial(2 * k + 1))
    elif name == "biweight":
        big = 15.0 * ((3.0 - us * us) * np.sin(us) - 3.0 * us * np.cos(us)) / us ** 5
        om = _series(u, lambda k: (-1) ** (k + 1) * 15.0 / (
            (2 * k + 1) * (2 * k + 3) * (2 * k + 5) * math.factorial(2 * k)))
    else:
        big = 3.0 * (np.sin(us) - us * np.cos(us)) / us ** 3
        om = _series(u, lambda k: (-1) ** (k + 1) * 6.0 * (k + 1)
                     / math.factorial(2 * k + 3))
    om = np.where(small, om, 1.0 - big)
    return 1.0 - om, om


def _fejer_mise(kname, h, n):
    # |f|^2 = (1 - |t|)^2 on [-1, 1]: a finite Parseval integral, exact to
    # rounding with 64 Gauss-Legendre nodes
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t, w = 0.5 * (nodes + 1.0), 0.5 * weights
    phi, om = _kernel_ft(kname, h * t)
    mod2 = (1.0 - t) ** 2
    bias = float(w @ (mod2 * om * om)) / math.pi
    head = float(w @ (mod2 * phi * phi)) / math.pi
    return bias + (ROUGHNESS[kname] / h - head) / n


def _reference_mise(name, kname, h, n, width=1.0):
    if name == "fejer":
        return _fejer_mise(kname, h, n)
    return _x_space_mise(name, kname, h, n, width)


def _model(name, width=1.0):
    if name == "uniform":
        return make_density(name, a=0.0, b=width)
    return make_density(name, **(MIXTURE_PARAMS if name == "mixture" else {}))


# three decades of bandwidth, on the lattice 10^(k/10)
CROSS_H = (10.0 ** -1.9, 10.0 ** -0.9, 10.0 ** 0.1)
# uniform[0, w] widths, each against every kernel
UNIFORM_WIDTHS = (1.0, 0.4, 2.5)
# cells whose transform tails past the cutoff are integrated exactly
EXACT_TAILS = (("uniform", "epanechnikov"), ("uniform", "uniform"), ("uniform", "biweight"))


@pytest.mark.parametrize("kname", ("gaussian", "epanechnikov", "uniform", "biweight"))
@pytest.mark.parametrize("name", ("normal", "mixture", "uniform", "laplace", "fejer"))
def test_exact_mise_cross_check_matrix(name, kname):
    kernel = _kernel(kname)
    for width in (UNIFORM_WIDTHS if name == "uniform" else (1.0,)):
        density = _model(name, width)
        for h in CROSS_H:
            rep = exact_mise(density, kernel, h, 100)
            ref = _reference_mise(name, kname, h, 100, width)
            if (name, kname) in EXACT_TAILS:
                assert not rep.degraded and rep.nodes <= 50_000, (width, h, rep)
                assert abs(rep.value - ref) <= rep.quad_error + 1e-13, (width, h, rep, ref)
            else:
                assert rep.degraded or abs(rep.value - ref) <= rep.quad_error + 1e-12, (
                    width, h, rep, ref)
            assert rep.cutoff > 0.0 and rep.nodes > 0


@pytest.mark.parametrize("kname", ("epanechnikov", "uniform"))
def test_exact_tails_over_the_bandwidth_lattice(kname):
    # every lattice h in [0.01, 10]: cheap, certified to RISK_RTOL of the
    # integral's scale (int |f|^2/(2 pi) = 1 for uniform[0, 1]), and right
    density, kernel = make_density("uniform"), make_builtin(kname)
    for k in range(-20, 11):
        h = 10.0 ** (k / 10.0)
        rep = exact_mise(density, kernel, h, 100)
        ref = _reference_mise("uniform", kname, h, 100)
        assert rep.nodes <= 50_000 and not rep.degraded, (h, rep)
        assert rep.quad_error <= RISK_RTOL * density.cf_sq_tail(0.0) / (2.0 * math.pi)
        assert abs(rep.value - ref) <= rep.quad_error + 1e-13, (h, rep, ref)


def test_exact_mise_counts_the_rounding_of_its_combination():
    # uniform[0, 1] x epanechnikov: bias/(2 pi) + (R(K)/h - var/(2 pi))/n
    # rounds by up to an ulp of 0.47 at h = 10^-1.9.  quad_error holds that
    # rounding on top of the integrals' own errors (the combination redone in
    # exact arithmetic from the same floats), and against the x-space
    # reference it needs no allowance beyond the reference's final rounding
    density, kernel, n = make_density("uniform"), make_builtin("epanechnikov"), 100
    two_pi = Fraction(2.0 * math.pi)
    for k in range(-20, 11):
        h = 10.0 ** (k / 10.0)
        rep = exact_mise(density, kernel, h, n)
        r = _sq_integrals(density, kernel, h)
        (bias, var), (bias_error, var_error) = r.value[:, 0], r.error[:, 0]
        exact = (Fraction(bias) / two_pi
                 + (Fraction(kernel.roughness) / Fraction(h) - Fraction(var) / two_pi) / n)
        integrals = (bias_error + var_error / n) / (2.0 * math.pi)
        assert abs(Fraction(rep.value) - exact) <= Fraction(rep.quad_error) - Fraction(integrals)
        ref = _reference_mise("uniform", "epanechnikov", h, n)
        assert abs(rep.value - ref) <= rep.quad_error + 0.5 * np.spacing(ref), (h, rep, ref)


def test_exact_tails_keep_the_work_budget():
    # the exact tails' T grows like 1/h: at h = 5e-6 the first panel pass up
    # to it would take 14M node evaluations, so the certified cutoff takes
    # over within the budget
    d, k = make_density("uniform"), make_builtin("epanechnikov")
    rep = exact_mise(d, k, 5e-6, 100)
    assert 2 * rep.nodes <= _WORK and rep.cutoff < 2.0 * math.pi / 5e-6
    assert abs(rep.value - _reference_mise("uniform", "epanechnikov", 5e-6, 100)) <= rep.quad_error
    rep = exact_mise(d, k, 1e-4, 100)
    assert rep.cutoff == pytest.approx(2.0 * math.pi / 1e-4) and not rep.degraded


@pytest.mark.parametrize("kname", ("epanechnikov", "uniform"))
@pytest.mark.parametrize("h", (0.5, 0.5 * (1.0 + 1e-9), 0.5 * (1.0 - 1e-9)))
def test_exact_tails_near_cancelling_frequencies(kname, h):
    # uniform[0, 1] at h = 0.5 makes the phase 1 - 2h of |f|^2 phi^2 exactly
    # 0 (the elementary E_p(0)); a hair either side it is about 1e-9, where
    # E_p comes from its power series
    rep = exact_mise(make_density("uniform"), make_builtin(kname), h, 100)
    ref = _reference_mise("uniform", kname, h, 100)
    assert not rep.degraded
    assert abs(rep.value - ref) <= rep.quad_error + 1e-13, (rep, ref)


# the largest p the term products reach: |f|^2 of the Laplace series (p up
# to 2 x 18) times (1 - phi)^2 of the Epanechnikov kernel (up to 2 x 3)
LARGEST_P = 2 * max(p for _, _, p in make_density("laplace").tail_terms[1]) + 2 * max(
    p for _, _, p in make_builtin("epanechnikov").tail_terms[1])


@pytest.mark.parametrize("p", range(1, LARGEST_P + 1))
def test_expint_matches_mpmath(p):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for y in (0.0, 1e-12, 1e-3, 0.5, 2.0, 30.0, 1e4):
        if p == 1 and y == 0.0:
            continue
        upper = complex(mpmath.expint(p, mpmath.mpc(0.0, -y)))
        # E_p at the conjugate argument is the conjugate
        for sign, exact in ((1.0, upper), (-1.0, upper.conjugate())):
            value, rounding = _expint(p, sign * y)
            assert abs(value[0] - exact) <= rounding[0], (p, sign * y)
            assert abs(value[0] - exact) <= 1e-14 * abs(exact), (p, sign * y)
    with pytest.raises(ValueError):
        _expint(1, 0.0)


def _squared(kernel):
    # the transform of K^2 with its sq_tail_terms, in the shape of a model
    return SimpleNamespace(name=kernel.name + "_sq", tail_terms=kernel.sq_tail_terms,
                           cf=kernel.sq_cf)


@pytest.mark.parametrize("model", [
    make_density("uniform"), make_density("uniform", a=-0.5, b=2.0),
    make_builtin("epanechnikov"), make_builtin("uniform"),
    make_density("laplace"), make_density("laplace", scale=0.3, mu=0.7),
    _squared(make_builtin("epanechnikov")), _squared(make_builtin("uniform"))],
    ids=lambda m: m.name)
def test_tail_terms_reproduce_the_transform(model):
    # the sum is compared in units of the terms' moduli, the scale of its
    # rounding (the transform itself crosses zero); both sides also round the
    # phase a t, by about an ulp of it each
    t0, terms = model.tail_terms
    t = t0 + np.logspace(-2.0, 4.0, 2001)
    pieces = np.array([c * np.exp(1j * a * t) * t ** -float(p) for c, a, p in terms])
    total = pieces.sum(axis=0)
    phase = 2.2e-16 * max(abs(a) for _, a, _ in terms) * t
    assert np.all(np.abs(total - model.cf(t))
                  <= (1e-15 + 2.0 * phase) * np.abs(pieces).sum(axis=0))


# ---------------------------------------------------------------------------
# pointwise risk of the Laplace density against references built without
# cfkde.risk: an x-space convolution (gaussian, epanechnikov, uniform) and
# the transform side in mpmath (sinc)


LAPLACE_MU = 0.7
GL40 = np.polynomial.legendre.leggauss(40)


def _laplace_pdf(y, mu=LAPLACE_MU):
    return 0.5 * np.exp(-np.abs(y - mu))


def _laplace_conv(weight, reach, x, h, mu=LAPLACE_MU):
    """int weight((x - y)/h)/h p(y) dy over |x - y| <= reach, with the pieces
    split at x +- h, x and mu and cut into panels at most min(h, 1)/2 wide,
    on each of which the integrand is smooth."""
    ends = (x - reach, x - h, x, x + h, x + reach, mu)
    breaks = sorted({b for b in ends if x - reach <= b <= x + reach})
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(a, b, max(1, math.ceil((b - a) / (0.5 * min(h, 1.0)))) + 1)
        half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
        y = mid[:, None] + half[:, None] * GL40[0]
        total += float(((weight((x - y) / h) / h * _laplace_pdf(y, mu)) @ GL40[1]) @ half)
    return total


def _laplace_sinc_pointwise(w, h):
    """bias and E K_h^2 of the sinc kernel at x = mu + w, from the transform
    side: -(1/pi) int_{1/h}^inf cos(w t)/(1 + t^2) dt, with the whole line's
    int_0^inf = (pi/2) exp(-|w|), and
    (pi h)^-1 int_0^{2/h} cos(w t)/(1 + t^2) (2 - h t)/(2 pi) dt."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    w, cut = abs(mpmath.mpf(w)), 1 / mpmath.mpf(h)
    head = mpmath.quad(lambda t: mpmath.cos(w * t) / (1 + t * t), mpmath.linspace(0, cut, 11))
    tail = mpmath.pi / 2 * mpmath.exp(-w) - head
    second = mpmath.quad(lambda t: mpmath.cos(w * t) / (1 + t * t) * (2 - h * t),
                         mpmath.linspace(0, 2 * cut, 11))
    return float(-tail / mpmath.pi), float(second / (2 * mpmath.pi ** 2 * h))


def _laplace_pointwise(kname, x, h, mu=LAPLACE_MU):
    """(bias, E K_h(x - X), E K_h^2(x - X)) at x."""
    if kname == "sinc":
        bias, second = _laplace_sinc_pointwise(x - mu, h)
        return bias, float(_laplace_pdf(x, mu)) + bias, second
    reach = 12.0 * h if kname == "gaussian" else h
    mean = _laplace_conv(lambda u: _kernel_pdf(kname, u), reach, x, h, mu)
    second = _laplace_conv(lambda u: _kernel_pdf(kname, u) ** 2 / h, reach, x, h, mu)
    return mean - float(_laplace_pdf(x, mu)), mean, second


@pytest.mark.parametrize("kname", ("gaussian", "epanechnikov", "uniform", "sinc", "biweight"))
@pytest.mark.parametrize("h", (0.05, 0.3, 1.0))
def test_laplace_pointwise_risk_matches_references(kname, h):
    # x - mu = +-h puts a component of the transform tail at zero frequency
    density, kernel, n = make_density("laplace", mu=LAPLACE_MU), _kernel(kname), 50
    xs = LAPLACE_MU + np.array([-h, 0.0, h, 3.0])
    bias, mse = exact_bias(density, kernel, h, xs), exact_mse(density, kernel, h, n, xs)
    for i, x in enumerate(xs):
        b, mean, second = _laplace_pointwise(kname, x, h)
        ref = b * b + (second - mean * mean) / n
        for rep, value in ((bias, b), (mse, ref)):
            assert not rep.degraded[i] and rep.quad_error[i] <= 1e-12, (x, rep)
            assert abs(rep.value[i] - value) <= rep.quad_error[i] + 1e-14, (x, rep, value)


def test_laplace_bias_at_a_zero_frequency_component_is_exact():
    # h = 0.3, x = -0.3 (mu = 0) puts one component of the compact kernels'
    # transform tail at zero frequency, where an extrapolation over
    # half-periods would stall; the exact tail is right to rounding there
    density = make_density("laplace")
    for kname in ("uniform", "epanechnikov"):
        rep = exact_bias(density, make_builtin(kname), 0.3, -0.3)
        b, _, _ = _laplace_pointwise(kname, -0.3, 0.3, mu=0.0)
        assert rep.quad_error <= 1e-12 and abs(rep.value - b) <= rep.quad_error + 1e-14


def test_laplace_bias_of_a_custom_kernel_is_degraded_but_covered():
    # a kernel without tail terms or a sup-tail bound leaves a certified bound
    # of the tail, spent down to the work budget, as the error
    triangular = kernel_from_functions(
        "triangular", lambda u: max(0.0, 1.0 - abs(u)),
        lambda u: 1.0 if u == 0.0 else (math.sin(0.5 * u) / (0.5 * u)) ** 2)
    h = 0.3
    xs = LAPLACE_MU + np.array([-h, 0.0, h, 3.0])
    rep = exact_bias(make_density("laplace", mu=LAPLACE_MU), triangular, h, xs)
    for i, x in enumerate(xs):
        mean = _laplace_conv(lambda u: np.maximum(0.0, 1.0 - np.abs(u)), h, x, h)
        actual = abs(rep.value[i] - (mean - float(_laplace_pdf(x))))
        assert rep.degraded[i] and actual <= rep.quad_error[i], (x, rep)


def test_uniform_uniform_mise_pinned():
    # the value once read 0.00428 here, outside its own error bar
    h = 10.0 ** 0.1
    rep = exact_mise(make_density("uniform"), make_builtin("uniform"), h, 100)
    ref = _reference_mise("uniform", "uniform", h, 100)
    assert_allclose(ref, 0.5507819017, rtol=1e-9)
    assert not rep.degraded
    assert abs(rep.value - ref) <= rep.quad_error + 1e-12


def test_exact_mse_batched_matches_pointwise():
    # kernels with terms (Epanechnikov, uniform) and without (gaussian,
    # whose bias factor is the exact 1 with phi bounded past T)
    d = make_density("laplace")
    xs = np.linspace(-3.0, 3.0, 5)
    for g in map(make_builtin, ("epanechnikov", "uniform", "gaussian")):
        batch = exact_mse(d, g, 0.4, 50, xs)
        assert batch.value.shape == xs.shape and batch.degraded.shape == xs.shape
        for x, v, e in zip(xs, batch.value, batch.quad_error):
            one = exact_mse(d, g, 0.4, 50, float(x))
            assert isinstance(one.value, float) and isinstance(one.degraded, bool)
            assert abs(one.value - v) <= e + one.quad_error + 1e-15, (g.name, x)
        assert isinstance(exact_bias(d, g, 0.3, -0.3).degraded, bool)


def test_exact_mse_clamps_a_variance_negative_within_its_error():
    # at h = 0.01 the gaussian kernel's second moment has no tail terms: the
    # work budget stops T at 508, where its bound leaves an error of 2e-5,
    # and the variance at x = -30 comes out about -1.5e-11, which is no
    # evidence of a failure
    xs = np.linspace(-40.0, 40.0, 9)
    rep = exact_mse(make_density("laplace"), make_builtin("gaussian"), 0.01, 100, xs)
    assert np.all(rep.value >= 0.0) and np.all(rep.degraded)
    assert rep.value[1] <= rep.quad_error[1] < 1e-3


def test_exact_mse_batch_keeps_the_exact_tails_of_each_point():
    # nine points share one work budget; the first panel pass up to their
    # exact tails' T = 636 fits it, so the batch is as exact as each point
    d, k = make_density("laplace"), make_builtin("epanechnikov")
    xs = np.linspace(-40.0, 40.0, 9)
    rep = exact_mse(d, k, 0.01, 100, xs)
    assert not np.any(rep.degraded)
    for x, v, e in zip(xs, rep.value, rep.quad_error):
        one = exact_mse(d, k, 0.01, 100, float(x))
        assert rep.cutoff == one.cutoff and abs(v - one.value) <= e + one.quad_error, x


@pytest.mark.parametrize("dname, kname", (("uniform", "epanechnikov"), ("uniform", "uniform"),
                                          ("laplace", "epanechnikov")))
def test_sq_integrals_batched_exact_tails_match_per_h(dname, kname):
    # one pass over several h sums the exact tails of every h at once, each
    # at its own T, the T of a call of that h alone
    density, kernel = make_density(dname), make_builtin(kname)
    hs = 10.0 ** np.linspace(-1.0, 0.0, 6)
    batch = _sq_integrals(density, kernel, hs)
    assert not np.any(batch.truncation)
    for i, h in enumerate(hs):
        one = _sq_integrals(density, kernel, h)
        assert not np.any(one.truncation)
        assert batch.cutoff[i] == one.cutoff[0], h
        # rows: the bias and the variance integral
        assert np.all(np.abs(batch.value[:, i] - one.value[:, 0])
                      <= batch.error[:, i] + one.error[:, 0]), h


SWEEP_H = np.geomspace(1e-3, 3.0, 7)


@pytest.mark.parametrize("kname", ("gaussian", "epanechnikov", "uniform", "sinc"))
@pytest.mark.parametrize("name", ("normal", "mixture", "uniform", "laplace", "fejer"))
def test_exact_mise_over_a_grid_matches_one_call_per_h(name, kname):
    # one call over seven h against seven calls: each row to its own cutoff,
    # on its own panels, so nothing that a call of its own does not spend
    density, kernel = _model(name), make_builtin(kname)
    batch = exact_mise(density, kernel, SWEEP_H, 100)
    fields = (batch.value, batch.quad_error, batch.truncation, batch.degraded,
              batch.cutoff, batch.nodes)
    assert all(np.shape(f) == SWEEP_H.shape for f in fields)
    ones = [exact_mise(density, kernel, float(h), 100) for h in SWEEP_H]
    for i, one in enumerate(ones):
        assert abs(batch.value[i] - one.value) <= batch.quad_error[i] + one.quad_error
        assert batch.cutoff[i] == one.cutoff and batch.nodes[i] == one.nodes
        assert batch.quad_error[i] <= 1.01 * one.quad_error
        assert one.degraded or not batch.degraded[i]
    one = integrated_sq_bias(density, kernel, SWEEP_H[3])
    isb = integrated_sq_bias(density, kernel, SWEEP_H)
    assert isinstance(one.value, float) and isinstance(one.nodes, int)
    assert abs(isb.value[3] - one.value) <= isb.quad_error[3] + one.quad_error
    assert isb.cutoff[3] == one.cutoff


MSE_H = np.geomspace(1e-3, 3.0, 5)


@pytest.mark.parametrize("kname", ("gaussian", "epanechnikov", "uniform", "sinc"))
@pytest.mark.parametrize("name", ("normal", "laplace", "fejer", "mixture"))
def test_exact_mse_over_a_grid_matches_one_call_per_h(name, kname):
    # one call over five h and the nine points of support_hint against five
    # calls: each row to its own cutoff, on its own panels and breaks
    density, kernel = _model(name), make_builtin(kname)
    xs = np.linspace(*density.support_hint, 9)
    batch = exact_mse(density, kernel, MSE_H, 100, xs)
    assert all(np.shape(f) == MSE_H.shape + xs.shape
               for f in (batch.value, batch.quad_error, batch.degraded))
    assert all(np.shape(f) == MSE_H.shape for f in (batch.truncation, batch.cutoff, batch.nodes))
    for i, h in enumerate(MSE_H):
        one = exact_mse(density, kernel, float(h), 100, xs)
        assert np.shape(one.value) == xs.shape and isinstance(one.nodes, int)
        assert batch.cutoff[i] == one.cutoff and batch.nodes[i] == one.nodes, h
        assert np.all(np.abs(batch.value[i] - one.value)
                      <= batch.quad_error[i] + one.quad_error), h
        assert np.all(batch.quad_error[i] <= 1.01 * one.quad_error), h
        assert np.all(one.degraded | ~batch.degraded[i]), h


def test_wide_grid_keeps_the_small_h_rows():
    # 200 h over three decades: one cutoff for all rows (43.6, that of the
    # certified search at h_min under a budget shared by 200 rows) read
    # h = 0.01 as 0.0265 +- 0.026; each row to its own T reads it as alone
    density, kernel = make_density("uniform"), make_builtin("gaussian")
    hs = np.geomspace(0.01, 10.0, 200)
    batch = exact_mise(density, kernel, hs, 100)
    assert not np.any(batch.degraded)
    one = exact_mise(density, kernel, 0.01, 100)
    assert batch.cutoff[0] == one.cutoff and one.cutoff > 700.0
    assert batch.quad_error[0] <= 1.01 * one.quad_error and one.quad_error < 1e-13
    assert abs(batch.value[0] - one.value) <= batch.quad_error[0] + one.quad_error
    ones = [exact_mise(density, kernel, float(h), 100) for h in hs[::19]]
    assert [o.cutoff for o in ones] == batch.cutoff[::19].tolist()
    assert np.sum(batch.nodes) == np.sum(
        _sq_integrals(density, kernel, hs[:100]).nodes) + np.sum(
        _sq_integrals(density, kernel, hs[100:]).nodes)


@pytest.mark.parametrize("kname", ("gaussian", "epanechnikov", "uniform"))
def test_parametric_curve_rows_match_integrated_sq_bias(kname):
    # the UCV plug-in curve integrates every h of the grid in one pass, each
    # to its own cutoff; row by row it is the normal density's integrated
    # squared bias plus R(K)/(n h)
    from cfkde.selector import _parametric_curve

    kernel, sigma, n = make_builtin(kname), 1.7, 250
    grid = np.geomspace(0.02, 3.0, 12)
    curve = _parametric_curve(sigma, kernel, grid, n)
    isb = integrated_sq_bias(make_density("normal", sigma=sigma), kernel, grid)
    for i, h in enumerate(grid):
        one = integrated_sq_bias(make_density("normal", sigma=sigma), kernel, float(h))
        assert abs(curve[i] - kernel.roughness / (n * h) - one.value) <= (
            2.0 * one.quad_error + 1e-15), h
        assert isb.cutoff[i] == one.cutoff


def test_gauss_panels_error_bounds_an_oscillatory_integral():
    from cfkde.risk import gauss_panels, panel_edges

    # int_0^50 cos(7 t) exp(-t/10) dt and int_0^50 t^2 exp(-t) dt together
    def fun(t):
        return np.stack((np.cos(7.0 * t) * np.exp(-0.1 * t), t * t * np.exp(-t)))

    q = gauss_panels(fun, panel_edges(0.0, 50.0, 7.0), [1e-12, 1e-12])
    a = 0.1 / (0.01 + 49.0)
    exact_cos = a + math.exp(-5.0) * (7.0 * math.sin(350.0) - 0.1 * math.cos(350.0)) / 49.01
    exact_poly = 2.0 - math.exp(-50.0) * (2500.0 + 100.0 + 2.0)
    assert abs(q.value[0] - exact_cos) <= q.error[0] + 1e-15
    assert abs(q.value[1] - exact_poly) <= q.error[1] + 1e-15
    assert np.all(q.error <= 1e-12) and q.nodes > 0



def _panel_edges_by_linspace(lo, hi, omega, breaks=()):
    # the per-piece np.linspace build that panel_edges replaced
    points = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    width = 2.0 * math.pi / omega if omega > 0.0 else math.inf
    pieces = [np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)[:-1]
              for a, b in zip(points[:-1], points[1:])]
    return np.concatenate(pieces + [np.array([hi], dtype=float)])


def test_panel_edges_bit_identical_to_the_linspace_build():
    from cfkde.risk import panel_edges

    rng = np.random.default_rng(12)
    cases = [(0.0, 5.0, 3.0, ()), (0.0, 80.0, 3.0, (60.0,)), (0.0, 1.0, 0.0, ()),
             (-3.0, 7.0, 0.0, (1.0, 2.0, 2.0, -5.0, 7.0, math.nan)),
             (0.0, 80.0, 3.0, tuple(rng.uniform(0.0, 80.0, 15))),
             (0.0, 1e5, 1.3, tuple(rng.uniform(0.0, 1e5, 40))),
             (-0.3, 0.7, 1e4, (0.0, -0.0, 1e-300)), (2.0, 2.0, 1.0, ())]
    for lo, hi, omega, breaks in cases:
        new, old = panel_edges(lo, hi, omega, breaks), _panel_edges_by_linspace(lo, hi, omega, breaks)
        assert new.dtype == old.dtype and np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))


# ---------------------------------------------------------------------------
# certified cutoff


def _counted(cert):
    calls = []

    def wrapped(T):
        calls.append(T)
        return cert(T)

    return wrapped, calls


@pytest.mark.parametrize("crossing", (0.37, 1.0, 3.3, 1000.0, 7.7e5))
def test_certified_cutoff_within_one_percent_of_the_crossing(crossing):
    cert, calls = _counted(lambda T: 1.0 / T)
    T = certified_cutoff(cert, 1.0 / crossing, start=0.0625, limit=2.0 ** 30)
    assert crossing <= T <= 1.01 * crossing
    assert len(calls) <= 2


@pytest.mark.parametrize("cert, tol, start, limit, expected, most_calls", (
    (lambda T: 1.0 / T, 10.0, 0.5, 100.0, 0.5, 1),
    (lambda T: np.ones(np.shape(T)), 0.5, 1.0, 300.0, 300.0, 1),
    (lambda T: 1.0 / T, 1.0 / 500.0, 1.0, 300.0, 300.0, 1),
    (lambda T: 1.0 / T, 1e-9, 50.0, 40.0, 40.0, 0),
), ids=("passes-at-start", "never-passes", "passes-past-limit", "start-past-limit"))
def test_certified_cutoff_edges(cert, tol, start, limit, expected, most_calls):
    cert, calls = _counted(cert)
    assert certified_cutoff(cert, tol, start=start, limit=limit) == expected
    assert len(calls) <= most_calls


def test_certified_cutoff_crossing_between_the_last_rung_and_limit():
    cert, calls = _counted(lambda T: 1.0 / T)
    T = certified_cutoff(cert, 1.0 / 290.0, start=1.0, limit=300.0)
    assert 290.0 <= T <= 1.01 * 290.0 and len(calls) == 2


@pytest.mark.parametrize("h", [math.inf, math.nan, -math.inf])
def test_risk_entry_points_reject_non_finite_h(h):
    # no risk is defined there: an infinite h makes the MISE NaN, a NaN h
    # fails inside the quadrature without saying why
    d, g = make_density("normal"), make_builtin("gaussian")
    for call in (lambda: exact_mise(d, g, h, 100), lambda: integrated_sq_bias(d, g, h),
                 lambda: exact_mise(d, SINC, h, 100), lambda: exact_bias(d, g, h, 0.0),
                 lambda: exact_mse(d, g, h, 100, [0.0, 1.0])):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            call()


def test_non_finite_value_or_error_is_degraded():
    assert not _degraded(1.0, 1e-12)
    assert _degraded(math.nan, 0.0)
    assert _degraded(1.0, math.nan)
    assert _degraded(math.inf, 0.0)
    assert _degraded(1.0, math.inf)
    got = _degraded(np.array([1.0, math.nan, 2.0, 3.0]), np.array([0.0, 0.0, math.inf, 1e-3]))
    assert got.tolist() == [False, True, True, True]
