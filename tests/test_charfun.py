"""Tests for density models and empirical characteristic functions."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
import scipy.integrate
from scipy import integrate
from scipy.optimize import brentq, minimize_scalar

from cfkde import charfun
from cfkde.charfun import (
    BUILTIN_DENSITIES,
    as_sample,
    cf_envelope,
    ecf,
    ecf_sq_unbiased,
    ecf_panel_sums,
    make_density,
    one_minus_cf_bound,
)
from cfkde.kernels import make_builtin
from cfkde.risk import gauss_panels, panel_edges

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


_BUILTINS = [
    make_density("normal", sigma=0.8, mu=0.3),
    make_density("mixture", weights=[0.4, 0.6], means=[-1.0, 1.5],
                 sigmas=[0.6, 1.1]),
    make_density("uniform", a=-0.5, b=2.0),
    make_density("laplace", scale=1.2, mu=-0.4),
    make_density("fejer"),
]


def _all_builtins():
    return _BUILTINS


def test_builtin_names():
    assert set(BUILTIN_DENSITIES) == {"normal", "mixture", "uniform", "laplace",
                                      "fejer"}
    with pytest.raises(ValueError):
        make_density("cauchy")


@pytest.mark.parametrize("density", _all_builtins(), ids=lambda d: d.name)
def test_pdf_integrates_to_one(density):
    lo, hi = density.support_hint
    mass, _ = integrate.quad(lambda x: float(density.pdf(x)), lo, hi, limit=800)
    assert_allclose(mass, 1.0, atol=5e-3 if density.name == "fejer" else 1e-8)


@pytest.mark.parametrize("density", _all_builtins(), ids=lambda d: d.name)
def test_cf_matches_pdf_transform(density):
    lo, hi = density.support_hint
    for t in (0.0, 0.4, 1.3):
        re, _ = integrate.quad(
            lambda x: float(density.pdf(x)) * math.cos(t * x), lo, hi, limit=800
        )
        im, _ = integrate.quad(
            lambda x: float(density.pdf(x)) * math.sin(t * x), lo, hi, limit=800
        )
        tol = 5e-3 if density.name == "fejer" else 1e-8
        assert_allclose(complex(density.cf(t)), complex(re, im), atol=tol)


@pytest.mark.parametrize("density", _all_builtins(), ids=lambda d: d.name)
def test_sup_bound_holds(density):
    lo, hi = density.support_hint
    xs = np.linspace(lo, hi, 20001)
    assert float(np.max(density.pdf(xs))) <= density.sup_bound + 1e-12


def test_normal_variation_constants():
    # int |phi(u) He_{m+1}(u)| du to 12 digits, scaled by sigma^-(m+1)
    d = make_density("normal")
    assert_allclose(d.variation[0], 0.797885, rtol=1e-6)
    assert_allclose(d.variation[1], 0.967883, rtol=1e-6)
    assert_allclose(d.variation[2], 1.510013, rtol=1e-5)
    assert_allclose(d.variation[3], 2.80060, rtol=1e-5)
    assert_allclose(d.variation[4], 5.91009, rtol=1e-5)
    # scaling in sigma
    d2 = make_density("normal", sigma=2.0)
    for m in (0, 1, 2, 3):
        assert_allclose(d2.variation[m], d.variation[m] / 2.0 ** (m + 1), rtol=1e-5)


def test_normal_variation_at_least_closed_form():
    # V_m = int |p^(m+1)| is the sum of |p^(m)| increments between the
    # extrema of p^(m), the roots of He_{m+1}; p^(m) = (-1)^m phi He_m
    for sigma in (1.0, 2.0):
        d = make_density("normal", sigma=sigma)
        for m in range(7):
            roots = np.sort(np.real(np.polynomial.hermite_e.hermeroots([0.0] * (m + 1) + [1.0])))
            pm = np.exp(-0.5 * roots ** 2) / math.sqrt(2.0 * math.pi) \
                * np.polynomial.hermite_e.hermeval(roots, [0.0] * m + [1.0])
            closed = float(np.sum(np.abs(np.diff(np.concatenate(([0.0], pm, [0.0])))))) \
                / sigma ** (m + 1)
            assert d.variation[m] >= closed
            assert d.variation[m] <= closed * (1.0 + 1e-10)


def test_symmetric_mixture_variation():
    # the derivative vanishes exactly on a grid point at the central valley;
    # that sign change must still split the lobes: V0 = 4 p(peak) - 2 p(0)
    d = make_density("mixture", weights=(0.5, 0.5), means=(-1.5, 1.5),
                     sigmas=(0.5, 0.5))
    peak = -minimize_scalar(lambda x: -float(d.pdf(x)), bounds=(1.0, 2.0),
                            method="bounded", options={"xatol": 1e-12}).fun
    assert_allclose(d.variation[0], 4.0 * peak - 2.0 * float(d.pdf(0.0)),
                    rtol=1e-5)
    ref, _ = integrate.quad(lambda x: abs(float(d.pdf_deriv(3, x))), -7.0, 7.0,
                            points=[-2.5, -1.5, -0.5, 0.0, 0.5, 1.5, 2.5],
                            limit=500)
    assert_allclose(d.variation[2], ref, rtol=1e-5)


def test_mixture_variation_finds_root_pairs_inside_a_cell():
    # p' has two roots 4e-4 apart near x = 1.558, inside one cell of the
    # 8193-point grid, where p' keeps its sign at both ends; without them V0
    # would read 2.1e-12 low.  The reference sums |p| increments between
    # the roots of p' found at 30 digits.
    mpmath = pytest.importorskip("mpmath")
    w = 0.4697793450578794 + 1e-8
    d = make_density("mixture", weights=(1.0 - w, w), means=(0.0, 2.2),
                     sigmas=(1.0, 1.0))
    mpmath.mp.dps = 30
    ws, ms = (1 - mpmath.mpf(w), mpmath.mpf(w)), (0, mpmath.mpf("2.2"))

    def p(x):
        return sum(a * mpmath.npdf(x, m, 1) for a, m in zip(ws, ms))

    def dp(x):
        return sum(-a * (x - m) * mpmath.npdf(x, m, 1) for a, m in zip(ws, ms))

    roots = [mpmath.findroot(dp, (a, b), solver="anderson")
             for a, b in ((0.2, 0.4), (1.5, 1.55825), (1.55825, 1.6))]
    vals = [0] + [p(r) for r in roots] + [0]
    exact = float(sum(abs(b - a) for a, b in zip(vals[:-1], vals[1:])))
    assert exact == pytest.approx(0.466131250705963, rel=1e-14)
    assert exact <= d.variation[0] <= exact * (1.0 + 1e-12)


def test_mixture_variation_resolves_a_narrow_component():
    # the 8193-point grid over +-10 of the wide sigma has cells 24 narrow
    # sigmas wide; the narrow component gets points of its own.  The total
    # variation of a sum lies within TV(f) -+ TV(g).
    d = make_density("mixture", weights=(0.5, 0.5), means=(0.0, 0.0),
                     sigmas=(0.001, 10.0))
    for m in range(7):
        narrow, wide = (make_density("normal", sigma=s).variation[m] for s in (0.001, 10.0))
        assert 0.5 * (narrow - wide) <= d.variation[m] <= 0.5 * (narrow + wide) * (1.0 + 1e-13)


@pytest.mark.parametrize("params", (
    # a narrow peak two wide sigmas out: a 4001-point grid over the support
    # steps 10 narrow sigmas and reads 0.1995 where the maximum is 399
    dict(weights=(0.5, 0.5), means=(0.0, 2.0021), sigmas=(1.0, 0.0005)),
    dict(weights=(0.4, 0.6), means=(-1.0, 1.5), sigmas=(0.6, 1.1)),
    dict(weights=(0.5, 0.5), means=(-1.5, 1.5), sigmas=(1.0, 1.0)),
    dict(weights=(0.2, 0.5, 0.3), means=(-3.0, 0.0, 0.4), sigmas=(0.3, 2.0, 0.05)),
))
def test_mixture_sup_bound_is_the_maximum_from_above(params):
    # sup p is read at the extrema of p, so a component far narrower than
    # any fixed grid step still sets it
    d = make_density("mixture", **params)
    at_means = float(np.max(d.pdf(np.asarray(params["means"]))))
    xs = np.linspace(*d.support_hint, 2_000_001)
    i = int(np.argmax(d.pdf(xs)))
    top = max(at_means, float(np.max(d.pdf(np.linspace(xs[i - 1], xs[i + 1], 20001)))))
    assert top <= d.sup_bound <= (1.0 + 1e-12) * top


def _abs_integral_by_lobes(fun, lo, hi, scale):
    # the lobe quadrature the mixture's V_m came from before they were
    # summed from increments: brentq cuts at the grid's sign changes, then
    # Gauss-Legendre panels; returns (value, error estimate)
    grid = np.linspace(lo, hi, 8193)
    vals = np.asarray(fun(grid), dtype=float)
    cuts = [float(x) for x in grid[vals == 0.0]] + [
        brentq(lambda x: float(fun(x)), grid[i], grid[i + 1], xtol=1e-13)
        for i in np.where(vals[:-1] * vals[1:] < 0.0)[0]
    ]
    rough = float(np.trapezoid(np.abs(vals), grid))
    q = gauss_panels(lambda x: np.abs(fun(x)),
                     panel_edges(lo, hi, 2.0 * math.pi / scale, cuts),
                     1e-13 * max(rough, 1e-300))
    return float(q.value[0]), float(q.error[0])


def test_asymmetric_mixture_variation_against_lobe_quadrature():
    sig = (0.3, 1.0, 0.6)
    d = make_density("mixture", weights=(0.2, 0.5, 0.3), means=(-2.0, 0.1, 2.5),
                     sigmas=sig)
    lo, hi = d.support_hint
    for m in range(7):
        ref, err = _abs_integral_by_lobes(lambda x: d.pdf_deriv(m + 1, x), lo, hi,
                                          min(sig))
        assert err <= 1e-12 * ref
        assert ref <= d.variation[m] <= ref * (1.0 + 1e-12)


def _abs_cf_constants(d, kinks):
    # a_p = pi^-1 int_0^(30/s) |cf| and B = 2 int_0^(40/s) exp(gamma t^2)|cf|
    # by adaptive quadrature, with the minima of |cf| as break points
    alpha, gamma, _ = d.supersmooth
    s_min = min(d.params["sigmas"])

    def quad(f, end):
        points = [t for t in kinks if t < end]
        return integrate.quad(f, 0.0, end, points=points, epsabs=1e-300,
                              epsrel=1e-13, limit=5000)[0]

    def mod(t):
        return abs(complex(d.cf(t)))

    return (quad(mod, 30.0 / s_min) / math.pi,
            2.0 * quad(lambda t: math.exp(gamma * t * t) * mod(t), 40.0 / s_min))


def test_mixture_a_p_and_b_against_adaptive_quadrature():
    # the symmetric mixture's |cf| = |cos 1.5 t| exp(-t^2/8) has a kink at
    # every zero of the cosine; the asymmetric one dips to 8e-4 near t = 2
    sym = make_density("mixture", weights=(0.5, 0.5), means=(-1.5, 1.5),
                       sigmas=(0.5, 0.5))
    asym = make_density("mixture", weights=(0.2, 0.5, 0.3), means=(-2.0, 0.1, 2.5),
                        sigmas=(0.3, 1.0, 0.6))
    t = np.linspace(0.0, 140.0, 140001)
    m = np.abs(asym.cf(t))
    dips = t[1:-1][(m[1:-1] < m[:-2]) & (m[1:-1] < m[2:])]
    for d, kinks in ((sym, (2 * np.arange(40) + 1) * math.pi / 3.0), (asym, dips)):
        a_ref, b_ref = _abs_cf_constants(d, kinks)
        assert a_ref * (1.0 - 1e-13) <= d.a_p <= a_ref * (1.0 + 1e-12)
        assert b_ref * (1.0 - 1e-13) <= d.supersmooth[2] <= b_ref * (1.0 + 1e-12)


def test_model_setup_calls_no_scipy_integrate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.integrate called during model set-up")

    for name in dir(scipy.integrate):
        if callable(getattr(scipy.integrate, name)) and not name.startswith("_"):
            monkeypatch.setattr(scipy.integrate, name, refuse)
    # the normal's per-process table is rebuilt, not read
    monkeypatch.setattr(charfun, "_NORMAL_VARIATION", {})
    make_density("normal", sigma=1.3)
    assert len(charfun._NORMAL_VARIATION) == 7
    make_density("mixture", weights=(0.2, 0.5, 0.3), means=(-2.0, 0.1, 2.5),
                 sigmas=(0.3, 1.0, 0.6))
    make_density("mixture", weights=(0.5, 0.5), means=(-1.5, 1.5), sigmas=(0.5, 0.5))


def test_uniform_laplace_fejer_variation():
    u = make_density("uniform", a=0.0, b=2.5)
    assert_allclose(u.variation[0], 2.0 / 2.5, rtol=1e-12)
    assert 1 not in u.variation
    l = make_density("laplace", scale=0.5)
    assert_allclose(l.variation[0], 2.0, rtol=1e-12)
    assert_allclose(l.variation[1], 8.0, rtol=1e-12)
    assert 2 not in l.variation
    f = make_density("fejer")
    # 40000-lobe evaluation with trigamma tail
    assert_allclose(f.variation[0], 0.380230, atol=1e-6)


@pytest.mark.parametrize("density", _all_builtins(), ids=lambda d: d.name)
def test_cf_sq_tail_consistency(density):
    # the tail is continuous at 0, where it is the full integral; tails
    # decrease; moderate T matches a lobe-resolved numeric integral
    assert_allclose(density.cf_sq_tail(0.0), density.cf_sq_tail(1e-9), rtol=1e-8)
    assert density.cf_sq_tail(1.0) >= density.cf_sq_tail(2.0) >= 0.0
    T, big = 2.0, 4000.0
    pieces = np.linspace(T, big, 4001)
    acc = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        acc += integrate.fixed_quad(
            lambda u: np.abs(density.cf(u)) ** 2, a, b, n=12
        )[0]
    ref = 2.0 * acc
    # remaining truncation of the reference is at most 2 * int_big (V0/t)^2
    v0 = density.variation[0]
    slack = 2.0 * v0 * v0 / big
    assert density.cf_sq_tail(T) <= ref + slack + 1e-9
    assert density.cf_sq_tail(T) >= ref - 1e-9


@pytest.mark.parametrize("density", _all_builtins(), ids=lambda d: d.name)
def test_tails_on_an_array_match_the_scalar_calls(density):
    # T = 0, a negative T, and T past the Fejer density's band at 1
    T = np.array([-0.5, 0.0, 1e-9, 0.3, 1.0, 1.7, 12.0, 1e4])
    for tail in (density.cf_sq_tail, density.cf_abs_tail):
        if tail is not None:
            values = tail(T)
            assert values.shape == T.shape
            np.testing.assert_array_equal(values, [tail(float(t)) for t in T])


def test_normal_closed_tails():
    d = make_density("normal", sigma=1.5)
    assert_allclose(d.cf_sq_tail(0.0), SQRT_PI / 1.5, rtol=1e-12)
    ref, _ = integrate.quad(lambda t: math.exp(-1.5 ** 2 * t * t), 0.7, 20.0)
    assert_allclose(d.cf_sq_tail(0.7), 2.0 * ref, rtol=1e-10)
    ref2, _ = integrate.quad(lambda t: math.exp(-0.5 * 1.5 ** 2 * t * t), 0.7, 20.0)
    assert_allclose(d.cf_abs_tail(0.7), 2.0 * ref2, rtol=1e-10)


@pytest.mark.parametrize("scale", [1.0, 0.3])
def test_laplace_tails_keep_their_digits(scale):
    # pi/2 - arctan(u) - u/(1 + u^2), u = b T, cancels to 5e-5 relative at
    # u = 1e4 and goes negative at u = 1e6; u * u overflows past 1e154
    mpmath = pytest.importorskip("mpmath")
    d = make_density("laplace", scale=scale)
    tiny = np.finfo(float).tiny
    # and both sides of the series' switch at 2 arctan(1/u) = 1
    switch = 1.0 / math.tan(0.5)
    u = np.append(np.geomspace(1e-3, 1e300, 240), [switch * (1 - 1e-15), switch * (1 + 1e-15)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sq, ab = d.cf_sq_tail(u / scale), d.cf_abs_tail(u / scale)
    for ui, got_sq, got_ab in zip(u, sq, ab):
        # the direct form at enough digits to survive its cancellation
        with mpmath.workdps(40 + int(3.2 * max(0.0, math.log10(ui)))):
            U = mpmath.mpf(scale) * mpmath.mpf(float(ui / scale))
            refs = ((mpmath.pi / 2 - mpmath.atan(U) - U / (1 + U * U)) / scale,
                    2 * mpmath.acot(U) / scale)
        for got, ref in zip((got_sq, got_ab), refs):
            ref = float(ref)
            assert got >= 0.0
            assert abs(got - ref) <= 1e-13 * ref + tiny, (ui, got, ref)


def test_fejer_closed_forms():
    d = make_density("fejer")
    assert d.cf_cutoff == 1.0
    assert_allclose(d.cf_sq_tail(0.0), 2.0 / 3.0, rtol=1e-12)
    assert_allclose(d.cf_sq_tail(0.25), 2.0 * 0.75 ** 3 / 3.0, rtol=1e-12)
    assert d.cf_sq_tail(1.0) == 0.0
    assert_allclose(d.cf_abs_tail(0.25), 0.75 ** 2, rtol=1e-12)
    # series branch is continuous at the crossover and exact at 0
    assert_allclose(float(d.pdf(0.0)), 1.0 / (2.0 * math.pi), rtol=1e-12)
    assert_allclose(float(d.pdf(0.0499999)), float(d.pdf(0.0500001)), rtol=1e-7)


def test_mixture_cf_sq_integral_closed_form():
    d = make_density("mixture", weights=[0.4, 0.6], means=[-1.0, 1.5],
                     sigmas=[0.6, 1.1])
    ref, _ = integrate.quad(lambda t: float(np.abs(d.cf(t)) ** 2), 0, 40, limit=400)
    assert_allclose(d.cf_sq_tail(0.0), 2.0 * ref, rtol=1e-9)


def test_supersmooth_certificates():
    # the weighted transform integral up to any cutoff stays below the
    # stored certificate; keep the exponent argument out of overflow range
    for d in (make_density("normal", sigma=0.7),
              make_density("mixture", weights=[0.5, 0.5], means=[-1.0, 1.0],
                           sigmas=[0.7, 1.0]),
              make_density("fejer")):
        alpha, gamma, b = d.supersmooth
        hi = min(80.0, (600.0 / gamma) ** (1.0 / alpha))
        if d.cf_cutoff is not None:
            hi = min(hi, d.cf_cutoff)
        ref, _ = integrate.quad(
            lambda t: math.exp(gamma * t ** alpha) * abs(complex(d.cf(t))),
            0.0, hi, limit=600,
        )
        assert 2.0 * ref <= b * (1.0 + 1e-6) + 1e-12


def test_a_p_values():
    n = make_density("normal", sigma=2.0)
    assert_allclose(n.a_p, 1.0 / (2.0 * SQRT_2PI), rtol=1e-12)
    assert make_density("uniform").a_p is None
    l = make_density("laplace", scale=2.0)
    assert_allclose(l.a_p, 0.25, rtol=1e-12)
    f = make_density("fejer")
    assert_allclose(f.a_p, 1.0 / (2.0 * math.pi), rtol=1e-12)


def test_pdf_deriv_normal_and_mixture():
    for d in (make_density("normal", sigma=0.9, mu=0.2),
              make_density("mixture", weights=[0.3, 0.7], means=[0.0, 2.0],
                           sigmas=[0.5, 1.0])):
        for order in (1, 2, 3):
            for x in (-0.7, 0.1, 1.3):
                h = 1e-5
                fd = (float(d.pdf_deriv(order - 1, x + h))
                      - float(d.pdf_deriv(order - 1, x - h))) / (2.0 * h)
                assert_allclose(float(d.pdf_deriv(order, x)), fd, rtol=1e-6,
                                atol=1e-8)


def test_samplers_seeded_and_distributed():
    rng = np.random.default_rng(42)
    for d in _all_builtins():
        x = d.sampler(rng, 50_000)
        assert x.shape == (50_000,)
        # empirical cf close to the model cf at a few frequencies
        s = as_sample(x)
        for t in (0.3, 1.1):
            assert abs(complex(ecf(s, t)) - complex(d.cf(t))) < 0.02
    # reproducibility under the same seed
    d = make_density("fejer")
    a = d.sampler(np.random.default_rng(7), 1000)
    b = d.sampler(np.random.default_rng(7), 1000)
    assert np.array_equal(a, b)


def test_as_sample_validation():
    s = as_sample([3.0, 1.0, 2.0])
    assert np.array_equal(s.values, [1.0, 2.0, 3.0])
    assert s.n == 3
    with pytest.raises(ValueError):
        as_sample([])
    with pytest.raises(ValueError):
        as_sample([1.0, np.nan])
    assert as_sample([5.0]).std() == 0.0
    assert_allclose(as_sample([1.0, 3.0]).std(), math.sqrt(2.0), rtol=1e-12)


def test_ecf_basics():
    s = as_sample([0.5, -1.0, 2.0])
    assert complex(ecf(s, 0.0)) == 1.0 + 0.0j
    t = np.linspace(-4, 4, 9)
    fn = ecf(s, t)
    assert_allclose(fn, np.conj(fn[::-1]), rtol=1e-14)
    manual = np.mean(np.exp(1j * 0.7 * s.values))
    assert_allclose(complex(ecf(s, 0.7)), manual, rtol=1e-14)
    assert np.all(np.abs(fn) <= 1.0 + 1e-14)


def test_ecf_sq_unbiased_pair_sum():
    rng = np.random.default_rng(3)
    x = rng.normal(size=12)
    s = as_sample(x)
    t = np.array([0.0, 0.4, 2.2])
    got = ecf_sq_unbiased(s, t)
    d = x[:, None] - x[None, :]
    for i, tt in enumerate(t):
        ref = (np.sum(np.cos(tt * d)) - 12) / (12 * 11)
        assert_allclose(got[i], ref, atol=1e-12)
    with pytest.raises(ValueError):
        ecf_sq_unbiased(as_sample([1.0]), t)


def test_ecf_sq_unbiased_panels_matches_pointwise():
    # several data blocks, a panel count that is not a square, a far offset
    rng = np.random.default_rng(4)
    s = as_sample(1e5 + rng.normal(size=5000))
    width, panels = 0.37, 23
    t, w, re, im, center = ecf_panel_sums(s.values, width, panels)
    x12, w12 = np.polynomial.legendre.leggauss(12)
    want = (np.arange(panels) + 0.5)[:, None] * width + 0.5 * width * x12
    assert_allclose(t, want.ravel(), rtol=1e-15)
    assert_allclose(w, np.tile(0.5 * width * w12, panels), rtol=1e-15)
    assert center == 0.5 * (s.values[0] + s.values[-1])
    n = s.n
    got = ((re * re + im * im) / n - 1.0) / (n - 1.0)
    assert got.shape == (panels * 12,)
    assert_allclose(got, ecf_sq_unbiased(s, t), atol=1e-13)
    # the sums are those of the centred values
    fn = ecf(as_sample(s.values - center), t[[0, 100, -1]])
    assert_allclose(re[[0, 100, -1]] + 1j * im[[0, 100, -1]], n * fn, atol=1e-10)


@pytest.mark.parametrize("n,panels", [(2, 1), (7, 2), (5000, 23), (400, 300), (2000, 1001)])
def test_ecf_panel_sums_midpoint_matches_direct_sums(n, panels):
    # one node per panel at its centre, weight the panel's width; several
    # blocks of values where panels is large, a far offset
    x = 1e5 + np.random.default_rng(n).normal(size=n)
    width = 0.37
    t, w, re, im, center = ecf_panel_sums(x, width, panels, charfun._MIDPOINT)
    assert_allclose(t, (np.arange(panels) + 0.5) * width, rtol=1e-15)
    assert_allclose(w, np.full(panels, width), rtol=1e-15)
    tx = np.multiply.outer(t, x - center)
    assert np.max(np.abs(re - np.cos(tx).sum(axis=1))) <= 1e-13 * n
    assert np.max(np.abs(im - np.sin(tx).sum(axis=1))) <= 1e-13 * n


def test_ecf_sq_unbiased_is_unbiased():
    # average over many draws approaches |cf|^2, not (1 - 1/n)|cf|^2 + 1/n
    d = make_density("normal")
    rng = np.random.default_rng(11)
    t = 1.0
    n, reps = 8, 4000
    acc = 0.0
    for _ in range(reps):
        s = as_sample(d.sampler(rng, n))
        acc += float(ecf_sq_unbiased(s, t))
    mean = acc / reps
    truth = abs(complex(d.cf(t))) ** 2
    plugin = (1.0 - 1.0 / n) * truth + 1.0 / n
    assert abs(mean - truth) < 0.01
    assert abs(mean - plugin) > 0.05


@pytest.mark.parametrize("density", _all_builtins(), ids=lambda d: d.name)
def test_cf_envelope_dominates(density):
    t = np.linspace(-60, 60, 8001)
    mod = np.abs(density.cf(t))
    for m in sorted(density.variation):
        env = cf_envelope(density, m + 1, t)
        assert np.all(mod <= env * (1.0 + 1e-9) + 1e-12)
    assert float(cf_envelope(density, 1, 0.0)) == 1.0


def test_cf_envelope_missing_order():
    u = make_density("uniform")
    with pytest.raises(ValueError):
        cf_envelope(u, 2, 1.0)
    with pytest.raises(ValueError):
        cf_envelope(u, 0, 1.0)


def test_one_minus_cf_bound_dominates():
    t = np.linspace(-30, 30, 6001)
    for name in ("gaussian", "epanechnikov", "uniform"):
        k = make_builtin(name)
        bound = one_minus_cf_bound(k, t)
        assert np.all(np.abs(1.0 - k.cf(t)) <= bound * (1.0 + 1e-12) + 1e-12)
        frac = one_minus_cf_bound(k, t, alpha=0.6)
        assert np.all(np.abs(1.0 - k.cf(t)) <= frac * (1.0 + 1e-12) + 1e-12)
        assert np.all(frac <= bound + 1e-12)
    with pytest.raises(ValueError):
        one_minus_cf_bound(make_builtin("sinc"), t)
    with pytest.raises(ValueError):
        one_minus_cf_bound(make_builtin("gaussian"), t, alpha=1.5)


def test_mixture_validation():
    with pytest.raises(ValueError):
        make_density("mixture", weights=[0.5, 0.6], means=[0.0, 1.0],
                     sigmas=[1.0, 1.0])
    with pytest.raises(ValueError):
        make_density("mixture", weights=[1.0], means=[0.0], sigmas=[-1.0])
    with pytest.raises(ValueError):
        make_density("uniform", a=1.0, b=1.0)
    with pytest.raises(ValueError):
        make_density("normal", sigma=0.0)
    with pytest.raises(ValueError):
        make_density("fejer", sigma=1.0)


@pytest.mark.parametrize("name, params", (
    ("normal", {"foo": 1.0}),
    ("normal", {"sigma": (1.0, 2.0)}),
    ("normal", {"sigma": "1"}),
    ("normal", {"mu": math.nan}),
    ("laplace", {"scale": True}),
    ("uniform", {"a": None}),
    ("mixture", {"weights": [1.0], "means": [0.0]}),
    ("mixture", {"weights": [[0.5, 0.5]], "means": [0.0, 1.0], "sigmas": [1.0, 1.0]}),
    ("mixture", {"weights": (), "means": (), "sigmas": ()}),
    ("mixture", {"weights": "ab", "means": [0.0], "sigmas": [1.0]}),
))
def test_density_parameters_checked_by_name_and_type(name, params):
    # a wrong name, type or shape is a ValueError, not a TypeError or an
    # IndexError from inside the model
    with pytest.raises(ValueError):
        make_density(name, **params)


def test_mixture_takes_a_number_as_one_component():
    one = make_density("mixture", weights=1.0, means=0.5, sigmas=2.0)
    ref = make_density("normal", sigma=2.0, mu=0.5)
    x = np.linspace(-5.0, 5.0, 11)
    assert_allclose(one.pdf(x), ref.pdf(x), rtol=1e-14)
