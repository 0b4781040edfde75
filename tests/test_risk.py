"""Tests for the exact risk routines against independent closed forms."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import erfc, erfcx, ndtr

from cfkde.charfun import make_density
from cfkde.kernels import make_builtin
from cfkde.risk import (
    RISK_RTOL,
    _WORK,
    _expint,
    exact_bias,
    exact_mise,
    exact_mse,
    integrated_sq_bias,
    mc_mise,
    sinc_exact_mise,
)

SQRT_PI = math.sqrt(math.pi)


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
    assert_allclose(sinc_exact_mise(f, 1.0, n).value, 2.0 / (3.0 * math.pi * n),
                    rtol=1e-12)
    assert_allclose(sinc_exact_mise(f, 0.8, n).value, 11.0 / (12.0 * math.pi * n),
                    rtol=1e-12)
    for h in (1.0, 0.8):
        assert sinc_exact_mise(f, h, n).value <= 1.0 / (math.pi * n * h) + 1e-15


def test_sinc_mise_generic_path_matches_closed_form():
    sk = make_builtin("sinc")
    targets = [make_density("normal"), make_density("fejer"),
               make_density("laplace"), make_density("uniform", a=-1.0, b=1.0)]
    for d in targets:
        for h in (0.3, 0.9, 2.0):
            a = exact_mise(d, sk, h, 37).value
            b = sinc_exact_mise(d, h, 37).value
            assert_allclose(a, b, rtol=1e-10, atol=1e-15)


def test_sinc_mise_optimal_band_for_bandlimited():
    # once 1/h reaches the transform support the bias vanishes and the
    # risk is purely the variance term
    f = make_density("fejer")
    rep = sinc_exact_mise(f, 0.5, 50)
    head = f.cf_sq_integral
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
             "uniform": 0.5}
MIXTURE_PARAMS = dict(weights=(0.5, 0.5), means=(-1.5, 1.5), sigmas=(0.5, 0.5))


def _kernel_pdf(name, u):
    if name == "gaussian":
        return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    inside = np.abs(u) <= 1.0
    return np.where(inside, 0.75 * (1.0 - u * u) if name == "epanechnikov"
                    else 0.5, 0.0)


def _kernel_cdf(name, v):
    if name == "gaussian":
        return ndtr(v)
    w = np.clip(v, -1.0, 1.0)
    if name == "epanechnikov":
        return 0.5 + 0.75 * (w - w ** 3 / 3.0)
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
EXACT_TAILS = (("uniform", "epanechnikov"), ("uniform", "uniform"))


@pytest.mark.parametrize("kname", ("gaussian", "epanechnikov", "uniform"))
@pytest.mark.parametrize("name", ("normal", "mixture", "uniform", "laplace", "fejer"))
def test_exact_mise_cross_check_matrix(name, kname):
    kernel = make_builtin(kname)
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
        assert rep.quad_error <= RISK_RTOL * density.cf_sq_integral / (2.0 * math.pi)
        assert abs(rep.value - ref) <= rep.quad_error + 1e-13, (h, rep, ref)


def test_exact_tails_keep_the_work_budget():
    # the exact tails' T grows like 1/h: at h = 1e-5 it would need 3.6M
    # nodes, so the certified cutoff takes over within the budget
    d, k = make_density("uniform"), make_builtin("epanechnikov")
    rep = exact_mise(d, k, 1e-5, 100)
    assert 2 * rep.nodes <= _WORK and rep.cutoff < 2.0 * math.pi / 1e-5
    assert abs(rep.value - _reference_mise("uniform", "epanechnikov", 1e-5, 100)) <= rep.quad_error
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


@pytest.mark.parametrize("p", range(1, 9))
def test_expint_matches_mpmath(p):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for y in (0.0, 1e-12, 1e-3, 0.5, 2.0, 30.0, 1e4):
        if p == 1 and y == 0.0:
            continue
        for sign in (1.0, -1.0):
            value, rounding = _expint(p, sign * y)
            exact = complex(mpmath.expint(p, mpmath.mpc(0.0, -sign * y)))
            assert abs(value[0] - exact) <= rounding[0], (p, sign * y)
            assert abs(value[0] - exact) <= 1e-14 * abs(exact), (p, sign * y)
    with pytest.raises(ValueError):
        _expint(1, 0.0)


@pytest.mark.parametrize("model", [
    make_density("uniform"), make_density("uniform", a=-0.5, b=2.0),
    make_builtin("epanechnikov"), make_builtin("uniform")], ids=lambda m: m.name)
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


def test_uniform_uniform_mise_pinned():
    # the value once read 0.00428 here, outside its own error bar
    h = 10.0 ** 0.1
    rep = exact_mise(make_density("uniform"), make_builtin("uniform"), h, 100)
    ref = _reference_mise("uniform", "uniform", h, 100)
    assert_allclose(ref, 0.5507819017, rtol=1e-9)
    assert not rep.degraded
    assert abs(rep.value - ref) <= rep.quad_error + 1e-12


def test_exact_mse_batched_matches_pointwise():
    d = make_density("laplace")
    g = make_builtin("epanechnikov")
    xs = np.linspace(-3.0, 3.0, 5)
    batch = exact_mse(d, g, 0.4, 50, xs)
    assert batch.value.shape == xs.shape and batch.degraded.shape == xs.shape
    for x, v, e in zip(xs, batch.value, batch.quad_error):
        one = exact_mse(d, g, 0.4, 50, float(x))
        assert isinstance(one.value, float)
        assert abs(one.value - v) <= e + one.quad_error + 1e-15


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

