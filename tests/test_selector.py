"""Tests for bandwidth selection and sample-size planning."""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from cfkde import bounds, selector
from cfkde.charfun import as_sample, make_density
from cfkde.kernels import _polynomial_kernel, kernel_from_functions, make_builtin

GAUSS = make_builtin("gaussian")
SINC = make_builtin("sinc")
NORMAL = make_density("normal")


# ---------------------------------------------------------------------------
# rule of thumb


def test_rule_of_thumb_constant():
    res = selector.rule_of_thumb_normal(1.0, 1)
    assert res.h == pytest.approx(1.0592238, rel=1e-6)
    assert res.criterion_curve is None
    assert res.metadata["kernel"] == "gaussian"
    # 32^(1/5) = 2 cancels the doubled scale
    res2 = selector.rule_of_thumb_normal(2.0, 32)
    assert res2.h == pytest.approx(1.0592238, rel=1e-6)


def test_rule_of_thumb_equivariance():
    base = selector.rule_of_thumb_normal(1.0, 50)
    for c in (0.5, 3.0):
        assert selector.rule_of_thumb_normal(c, 50).h == c * base.h
    b7 = selector.rule_of_thumb_normal(0.7, 50)
    for c in (0.5, 3.0):
        assert selector.rule_of_thumb_normal(c * 0.7, 50).h == pytest.approx(
            c * b7.h, rel=1e-14
        )


def test_rule_of_thumb_validation():
    with pytest.raises(ValueError):
        selector.rule_of_thumb_normal(0.0, 10)
    with pytest.raises(ValueError):
        selector.rule_of_thumb_normal(1.0, 0)


@pytest.mark.parametrize("sigma", [math.inf, math.nan, -math.inf, 0.0])
def test_scale_must_be_finite_and_positive(sigma):
    # an infinite scale gave h = inf, a grid [inf, nan, ...] and, in the
    # parametric criterion, a ZeroDivisionError
    with pytest.raises(ValueError, match="sigma_hat must be finite"):
        selector.rule_of_thumb_normal(sigma, 100)
    with pytest.raises(ValueError, match="sigma_hat must be finite"):
        selector.default_h_grid(sigma, 100)
    s = as_sample(np.random.default_rng(3).normal(size=50))
    with pytest.raises(ValueError, match="sigma_hat must be finite"):
        selector.cv_bandwidth(s, GAUSS, q_estimator="parametric", sigma_hat=sigma)


# ---------------------------------------------------------------------------
# bound-based rules


def test_bound_rule_mise_constant_and_oracle():
    v2 = NORMAL.variation[2]
    res = selector.bound_rule("mise_thm1", v2, GAUSS, 100)
    assert res.h * 100 ** 0.2 == pytest.approx(0.8204, abs=5e-4)
    parent = bounds.bound("thm1", NORMAL, GAUSS, 100, h0=1.0)
    assert res.h == pytest.approx(parent.optimal[0] * 100 ** -0.2, rel=1e-12)
    # scalar and 1-sequence spellings agree
    assert selector.bound_rule("mise_thm1", (v2,), GAUSS, 100).h == res.h


def test_bound_rule_maxmse_constant_and_minimizer():
    v3 = NORMAL.variation[3]
    a = NORMAL.sup_bound
    res = selector.bound_rule("maxmse_thm3", (v3, a), GAUSS, 100)
    assert res.h * 100 ** 0.2 == pytest.approx(1.1883, abs=5e-4)
    # the rule minimizes its parent bracket, whose variance weight carries
    # the un-normalized transform integral
    c1 = 4.0 / (9.0 * math.pi ** 2) * GAUSS.mu2 ** 2 * v3 ** 1.5
    c2 = 2.0 * a * (2.0 * math.pi * GAUSS.a_value)
    h_star = brentq(lambda x: 4.0 * c1 * x ** 3 - c2 / (x * x), 1e-6, 1e6,
                    xtol=1e-300, rtol=8.9e-16)
    assert res.h * 100 ** 0.2 == pytest.approx(h_star, rel=1e-12)


def test_bound_rule_homogeneity_in_scale():
    c3, c4 = NORMAL.variation[2], NORMAL.variation[3]
    base1 = selector.bound_rule("mise_thm1", c3, GAUSS, 50).h
    base3 = selector.bound_rule(
        "maxmse_thm3", (c4, NORMAL.sup_bound), GAUSS, 50
    ).h
    for c in (0.5, 3.0):
        got1 = selector.bound_rule("mise_thm1", c3 / c ** 3, GAUSS, 50).h
        assert got1 == pytest.approx(c * base1, rel=1e-12)
        got3 = selector.bound_rule(
            "maxmse_thm3", (c4 / c ** 4, NORMAL.sup_bound / c), GAUSS, 50
        ).h
        assert got3 == pytest.approx(c * base3, rel=1e-12)


def test_bound_rule_validation():
    with pytest.raises(ValueError):
        selector.bound_rule("mise_thm1", None, GAUSS, 100)
    with pytest.raises(ValueError):
        selector.bound_rule("maxmse_thm3", 2.8, GAUSS, 100)
    with pytest.raises(ValueError):
        selector.bound_rule("maxmse_thm3", (2.8,), GAUSS, 100)
    with pytest.raises(ValueError):
        selector.bound_rule("unknown", 1.0, GAUSS, 100)
    with pytest.raises(ValueError):
        selector.bound_rule("mise_thm1", 1.5, SINC, 100)


@pytest.mark.parametrize("v", [math.inf, math.nan, 0.0, -1.0])
def test_bound_rule_constants_must_be_finite_and_positive(v):
    for kind, constants, name in (("mise_thm1", v, "v2"), ("maxmse_thm3", (v, 0.4), "v3"),
                                  ("maxmse_thm3", (2.8, v), "a")):
        with pytest.raises(ValueError, match="constant %s, finite and positive" % name):
            selector.bound_rule(kind, constants, GAUSS, 100)


# ---------------------------------------------------------------------------
# cross-validation


def _ucv_oracle(x: np.ndarray, h: float) -> float:
    # classical unbiased cross-validation score with the pair-average
    # normalization for both sums
    n = x.size
    d = x[:, None] - x[None, :]
    off = ~np.eye(n, dtype=bool)
    kk = np.exp(-d * d / (4.0 * h * h))[off].sum() / (2.0 * math.sqrt(math.pi))
    k1 = np.exp(-d * d / (2.0 * h * h))[off].sum() / math.sqrt(2.0 * math.pi)
    return (1.0 / (2.0 * math.sqrt(math.pi) * n * h)
            + (kk - 2.0 * k1) / (n * (n - 1.0) * h))


def test_cv_unbiased_matches_ucv_up_to_constant():
    for i in range(10):
        rng = np.random.default_rng(2000 + i)
        s = as_sample(rng.normal(size=60))
        res = selector.cv_bandwidth(s, GAUSS)
        hs = np.array([h for h, _ in res.criterion_curve])
        qs = np.array([q for _, q in res.criterion_curve])
        us = np.array([_ucv_oracle(s.values, h) for h in hs])
        diff = qs - us
        assert np.max(np.abs(diff - diff.mean())) <= 1e-9
        assert hs[np.argmin(us)] == res.h


def test_cv_result_attains_curve_minimum():
    rng = np.random.default_rng(77)
    s = as_sample(rng.normal(size=40))
    res = selector.cv_bandwidth(s, GAUSS)
    qs = [q for _, q in res.criterion_curve]
    assert min(qs) == dict(res.criterion_curve)[res.h]
    assert res.metadata["n"] == 40
    assert res.method == "ucv"


def test_cv_translation_invariance():
    rng = np.random.default_rng(31)
    s = as_sample(rng.normal(size=35))
    grid = np.geomspace(0.05, 1.5, 40)
    base = selector.cv_bandwidth(s, GAUSS, h_grid=grid)
    for shift in (17.3, -250.0):
        moved = as_sample(s.values + shift)
        res = selector.cv_bandwidth(moved, GAUSS, h_grid=grid)
        assert res.h == base.h


def test_cv_quadrature_fallback_matches_closed_form():
    rng = np.random.default_rng(5)
    s = as_sample(rng.normal(size=30))
    grid = np.geomspace(0.08, 1.2, 12)
    closed = selector.cv_bandwidth(s, GAUSS, h_grid=grid)
    generic = dataclasses.replace(GAUSS, selfconv=None)
    quad = selector.cv_bandwidth(s, generic, h_grid=grid)
    for (h1, q1), (h2, q2) in zip(closed.criterion_curve,
                                  quad.criterion_curve):
        assert h1 == h2
        assert q2 == pytest.approx(q1, rel=1e-6)
    assert quad.h == closed.h


def _pairwise_ucv(x, k, grid, selfconv=None):
    # closed-form pair sum, the oracle for both routes:
    # R/(n h) + 2/(n(n-1) h) sum_{j<l} [(K*K)(d/h) - 2 K(d/h)]
    selfconv = k.selfconv if selfconv is None else selfconv
    x = np.asarray(x, dtype=float)
    n = x.size
    d = np.abs(x[:, None] - x[None, :])[np.triu_indices(n, 1)]
    return np.array([k.roughness / (n * h)
                     + 2.0 * np.sum(selfconv(d / h) - 2.0 * k.eval(d / h))
                     / (n * (n - 1.0) * h) for h in grid])


def _assert_matches(curve, ref, h=None, grid=None):
    assert np.max(np.abs(np.asarray(curve) - ref)) <= 1e-12 * np.max(np.abs(ref))
    if h is not None:
        assert grid[int(np.argmin(ref))] == h


def _check_against_oracle(s, k, h_grid=None, selfconv=None):
    res = selector.cv_bandwidth(s, k, h_grid=h_grid)
    grid = np.array([h for h, _ in res.criterion_curve])
    curve = np.array([q for _, q in res.criterion_curve])
    _assert_matches(curve, _pairwise_ucv(s.values, k, grid, selfconv), res.h, grid)
    return res


def _mixture_sample(n, seed):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(n) < 0.4, rng.normal(-1.0, 0.6, n),
                    rng.normal(1.5, 1.1, n))


@pytest.mark.parametrize("name,route", [("gaussian", "transform"),
                                        ("sinc", "transform"),
                                        ("epanechnikov", "pairs"),
                                        ("uniform", "pairs")])
def test_ucv_matches_pairwise_oracle(name, route):
    res = _check_against_oracle(as_sample(_mixture_sample(150, 11)),
                                make_builtin(name))
    meta = res.metadata
    assert meta["route"] == route
    assert (meta["nodes"] if route == "transform" else meta["pairs"]) > 0


@pytest.mark.parametrize("name", ["gaussian", "sinc"])
def test_ucv_both_routes_match_oracle(name):
    k = make_builtin(name)
    x = np.sort(_mixture_sample(120, 12))
    grid = selector.default_h_grid(float(np.std(x, ddof=1)), x.size, 25)
    ref = _pairwise_ucv(x, k, grid) - k.roughness / (x.size * grid)
    plan = selector._transform_plan(x, k, grid)
    _assert_matches(selector._transform_curve(x, k, grid, plan), ref)
    _assert_matches(selector._pair_curve(x, k, grid)[0], ref)


# the gaussian transform route on midpoint nodes Delta apart, whose aliased
# terms lie 2 reach h_max past every pair distance

def _ucv_sample(name, n, seed):
    if name == "mixture":
        return _mixture_sample(n, seed)
    rng = np.random.default_rng(seed)
    return {"normal": rng.normal, "laplace": rng.laplace, "uniform": rng.uniform}[name](size=n)


def _midpoint_curve(x, grid, plan=None):
    # the transform route alone, whatever the pair route would cost
    x = np.sort(np.asarray(x, dtype=float))
    plan = selector._transform_plan(x, GAUSS, grid) if plan is None else plan
    assert plan.rule == "midpoint"
    return selector._transform_curve(x, GAUSS, grid, plan) + GAUSS.roughness / (x.size * grid)


def _pairwise_gauss(x, grid):
    # _pairwise_ucv for the gaussian at one exp per pair and h:
    # (K*K)(u) = e/(2 sqrt(pi)) and K(u) = e^2/sqrt(2 pi), e = exp(-u^2/4)
    n = x.size
    d2 = (x[:, None] - x[None, :])[np.triu_indices(n, 1)] ** 2
    sums = np.empty(grid.size)
    for i, h in enumerate(grid):
        e = np.exp(d2 * (-0.25 / (h * h)))
        sums[i] = np.sum(e * (0.5 / math.sqrt(math.pi) - e * math.sqrt(2.0 / math.pi)))
    return GAUSS.roughness / (n * grid) + 2.0 * sums / (n * (n - 1.0) * grid)


@pytest.mark.parametrize("n", [2, 30, 399, 2000])
@pytest.mark.parametrize("name", ["normal", "mixture", "laplace", "uniform"])
def test_ucv_gaussian_midpoint_route_matches_oracle(name, n):
    # the 60-point grid up to n = 399: at n = 2000 its oracle takes seconds
    x = _ucv_sample(name, n, 30 + n)
    for size in (20, 60) if n < 2000 else (20,):
        grid = selector.default_h_grid(float(np.std(x, ddof=1)), n, size)
        ref = _pairwise_gauss(x, grid)
        curve = _midpoint_curve(x, grid)
        _assert_matches(curve, ref, grid[int(np.argmin(curve))], grid)


def test_ucv_gaussian_midpoint_route_edge_samples():
    rng = np.random.default_rng(31)
    grid = np.geomspace(0.05, 1.5, 20)
    for x in (0.5 * rng.integers(0, 6, size=400),  # ties
              np.full(50, 2.0),  # one value: qhat is 1 everywhere
              1e6 + rng.normal(size=399)):
        ref = _pairwise_ucv(x, GAUSS, grid)
        curve = _midpoint_curve(x, grid)
        _assert_matches(curve, ref, grid[int(np.argmin(curve))], grid)


@pytest.mark.parametrize("name", ["gaussian", "sinc"])
def test_ucv_transform_rule_and_nodes(name):
    k = make_builtin(name)
    x = _mixture_sample(400, 32)
    res = selector.cv_bandwidth(as_sample(x), k)
    meta, grid = res.metadata, np.array([h for h, _ in res.criterion_curve])
    plan = selector._transform_plan(np.sort(x), k, grid)
    assert meta["route"] == "transform" and meta["panel_width"] == plan.width
    if name == "gaussian":
        # one node a step, each alias 2 reach h_max clear of every pair
        span = float(np.ptp(x))
        assert plan.width * (span + 2.0 * k.reach * grid.max()) <= 2.0 * math.pi
        assert meta["rule"] == "midpoint" and meta["nodes"] == plan.panels
        assert plan.panels == math.ceil(plan.u_cut / (grid.min() * plan.width))
    else:
        # twelve nodes a panel, and a partial panel per h at the band edge
        assert meta["rule"] == "gauss-legendre-12"
        assert meta["nodes"] == 12 * (plan.panels + grid.size)


def test_ucv_custom_kernel_keeps_gauss_legendre_panels():
    # no reach is known for a kernel from functions: no alias margin
    gauss_fn = kernel_from_functions(
        "gauss-fn", lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
        lambda t: math.exp(-0.5 * t * t))
    res = selector.cv_bandwidth(as_sample(_mixture_sample(80, 13)), gauss_fn)
    meta = res.metadata
    assert meta["route"] == "transform" and meta["rule"] == "gauss-legendre-12"
    assert meta["nodes"] % 12 == 0


def test_ucv_midpoint_accuracy_rests_on_the_alias_margin():
    # the same nodes with a margin of reach h_max, or of half that, in place
    # of 2 reach h_max: the farthest pairs alias into the curve (5.6e-13 and
    # 1.4e-6 of max|curve| at this seed; 5e-16 with the full margin)
    x = np.sort(np.random.default_rng(1).normal(size=400))
    grid = selector.default_h_grid(float(np.std(x, ddof=1)), x.size, 20)
    ref = _pairwise_ucv(x, GAUSS, grid)
    plan = selector._transform_plan(x, GAUSS, grid)
    errors = []
    for margin in (2.0, 1.0, 0.5):
        width = 2.0 * math.pi / (np.ptp(x) + margin * GAUSS.reach * grid.max())
        panels = math.ceil(plan.u_cut / (grid.min() * width))
        full = np.minimum(np.ceil(plan.u_cut / (grid * width)), panels).astype(int)
        curve = _midpoint_curve(x, grid, plan._replace(width=width, panels=panels, full=full))
        errors.append(np.max(np.abs(curve - ref)) / np.max(np.abs(ref)))
    assert errors[0] <= 2e-15 and errors[1] > 1e-13 and errors[2] > 1e-8


def test_ucv_criterion_not_finite_is_refused():
    # np.argmin picked the NaN, and h = 1e-320 was selected
    x = _mixture_sample(100, 33)
    # the pair route, as the panels overflow: the sinc K is NaN at d/h = inf
    with pytest.raises(ValueError, match=r"not finite at h = 1e-320"):
        selector.cv_bandwidth(as_sample(x), SINC, h_grid=[0.5, 1e-320, 0.2])
    # the transform route, the only one without K*K: phi is NaN past 4
    nan_phi = dataclasses.replace(
        GAUSS, selfconv=None, cf=lambda u: np.where(np.abs(u) < 4.0, GAUSS.cf(u), np.nan))
    with pytest.raises(ValueError, match=r"not finite at h = 0.5"):
        selector.cv_bandwidth(as_sample(x), nan_phi, h_grid=[0.5, 0.2])


def test_ucv_custom_kernels_match_oracle():
    s = as_sample(_mixture_sample(80, 13))
    # a transform with no self-convolution: the transform route
    gauss_fn = kernel_from_functions(
        "gauss-fn", lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
        lambda t: math.exp(-0.5 * t * t))
    res = _check_against_oracle(s, gauss_fn, selfconv=GAUSS.selfconv)
    assert res.metadata["route"] == "transform"
    # a self-convolution and a transform decaying like 1/t^2: the pair route
    laplace = kernel_from_functions(
        "laplace", lambda x: 0.5 * math.exp(-abs(x)), lambda t: 1.0 / (1.0 + t * t),
        selfconv=lambda u: 0.25 * (1.0 + np.abs(u)) * np.exp(-np.abs(u)))
    res = _check_against_oracle(s, laplace)
    assert res.metadata["route"] == "pairs"


@pytest.mark.parametrize("name", ["gaussian", "sinc"])
def test_ucv_edge_samples_match_oracle(name):
    k = make_builtin(name)
    rng = np.random.default_rng(14)
    _check_against_oracle(as_sample([0.3, 1.7]), k)
    _check_against_oracle(as_sample(0.5 * rng.integers(0, 6, size=90)), k)
    with pytest.warns(UserWarning):
        _check_against_oracle(as_sample([2.0] * 4), k, h_grid=[0.1, 0.4, 1.3])
    offset = _check_against_oracle(as_sample(1e6 + rng.normal(size=200)), k)
    assert offset.metadata["route"] == "transform"
    outlier = _check_against_oracle(
        as_sample(np.append(rng.normal(size=60), 1e4)), k,
        h_grid=np.geomspace(0.05, 2.0, 30))
    assert outlier.metadata["route"] == "pairs"


# the moment form of the pair route: each pair once for the whole grid

COMPACT = ["epanechnikov", "uniform"]


@pytest.mark.parametrize("name", COMPACT)
def test_ucv_moment_route_matches_oracle(name):
    k = make_builtin(name)
    rng = np.random.default_rng(16)
    x = _mixture_sample(300, 17)
    res = _check_against_oracle(as_sample(x), k)
    assert len(res.criterion_curve) == 60
    assert res.metadata["route"] == "pairs"
    # an unsorted grid with a duplicate h
    grid = [0.4, 0.05, 0.9, 0.2, 0.4, 1.7, 0.11]
    res = _check_against_oracle(as_sample(x), k, h_grid=grid)
    assert [h for h, _ in res.criterion_curve] == grid
    _check_against_oracle(as_sample([0.3, 1.7]), k)
    _check_against_oracle(as_sample(0.5 * rng.integers(0, 6, size=90)), k)
    with pytest.warns(UserWarning):
        _check_against_oracle(as_sample([2.0] * 4), k, h_grid=[0.1, 0.4, 1.3])
    _check_against_oracle(as_sample(1e6 + rng.normal(size=200)), k)
    # a scale of 1e-150 is a spread like any other, relative to max |x|
    unit = rng.normal(size=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _check_against_oracle(as_sample(1e-150 * unit), k,
                                    h_grid=1e-150 * selector.default_h_grid(1.0, 200))
    assert res.metadata["route"] == "pairs"
    res = _check_against_oracle(as_sample(1e150 * unit), k)
    assert res.metadata["route"] == "pairs"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ucv_wide_grid_sums_per_h():
    # (2 h_max/h_min)^5 overflows on this grid, so the epanechnikov moments
    # do not apply and the fast sums, which read each h alone, take it; the
    # uniform kernel's degree 1 keeps the moments.  The transform route
    # would need about 1e82 panels: it has no plan
    x = _mixture_sample(50, 19)
    grid = [1e-40, 0.3, 1e40]
    k = make_builtin("epanechnikov")
    assert selector._transform_plan(np.sort(x), k, np.array(grid)) is None
    d = np.abs(x[:, None] - x[None, :])[np.triu_indices(x.size, 1)]
    res = _check_against_oracle(as_sample(x), k, h_grid=grid)
    assert res.metadata["route"] == "fast-sums"
    assert res.metadata["windows"] == _fast_windows(x, k, grid)
    assert res.metadata["rounding"] >= np.max(np.abs(
        np.array([q for _, q in res.criterion_curve]) - _pairwise_ucv(x, k, grid)))
    _check_fast_sums(as_sample(x), make_builtin("uniform"), h_grid=grid)
    res = _check_against_oracle(as_sample(x), make_builtin("uniform"), h_grid=grid)
    assert res.metadata["pairs"] == d.size
    # with neither route usable the grid is refused
    generic = dataclasses.replace(GAUSS, selfconv=None)
    with pytest.raises(ValueError, match="transform plan"):
        selector.cv_bandwidth(as_sample(x), generic, h_grid=grid)


@pytest.mark.parametrize("h", [0.3, 0.1875, 1.0 / 3.0, 1e-3 * math.pi])
def test_ucv_moment_route_pair_edges(h):
    # pairs at d = h and d = 2h and one ulp either side of each: the uniform
    # K jumps at d = h, and the pair window ends at 2 h_max = 2h
    k = make_builtin("uniform")
    x = np.array([0.0, np.nextafter(h, 0.0), h, np.nextafter(h, 2.0 * h),
                  np.nextafter(2.0 * h, 0.0), 2.0 * h, np.nextafter(2.0 * h, 3.0 * h)])
    res = _check_against_oracle(as_sample(x), k, h_grid=[0.5 * h, h])
    d = np.abs(x[:, None] - x[None, :])[np.triu_indices(x.size, 1)]
    assert res.metadata["pairs"] == np.count_nonzero(d <= 2.0 * h) == 20


def test_ucv_moment_route_of_the_biweight():
    # a kernel of the compact built-ins' generator that is no built-in: K of
    # degree 4 and K*K of degree 9 through the same moment sums
    k = _polynomial_kernel("biweight", (Fraction(15, 16), 0, Fraction(-15, 8), 0,
                                        Fraction(15, 16)))
    x = _mixture_sample(300, 17)
    res = _check_against_oracle(as_sample(x), k)
    assert res.metadata["route"] == "pairs"
    _check_against_oracle(as_sample(x), k, h_grid=[0.4, 0.05, 0.9, 0.2, 0.4, 1.7, 0.11])


# the fast-sum form of the pair route: per h, prefix sums of the powers of
# the data read against their cell's first datum


def _fast_windows(x, k, grid):
    # the nonempty windows (j, e_j] of K*K's reach and of K's support
    x = np.sort(np.asarray(x, dtype=float))
    later = np.triu(np.ones((x.size, x.size), dtype=bool), 1)
    d = x[None, :] - x[:, None]
    return sum(int(np.count_nonzero(np.any(later & (d <= w * h), axis=1)))
               for h in grid for w in (2.0 * k.support, k.support))


def _check_fast_sums(s, k, h_grid=None):
    # the fast sums forced: the oracle's curve and argmin, the windows
    # summed, and a rounding bound no smaller than the difference
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selector, "_FAST_OPS", (0.0, 0.0))
        res = selector.cv_bandwidth(s, k, h_grid=h_grid)
    meta = res.metadata
    grid = np.array([h for h, _ in res.criterion_curve])
    curve = np.array([q for _, q in res.criterion_curve])
    ref = _pairwise_ucv(s.values, k, grid)
    _assert_matches(curve, ref, res.h, grid)
    assert meta["route"] == "fast-sums"
    assert meta["windows"] == _fast_windows(s.values, k, grid)
    assert meta["rounding"] >= np.max(np.abs(curve - ref))
    return res


@pytest.mark.parametrize("name", COMPACT)
def test_ucv_fast_sums_match_oracle(name):
    k = make_builtin(name)
    rng = np.random.default_rng(16)
    x = _mixture_sample(300, 17)
    assert len(_check_fast_sums(as_sample(x), k).criterion_curve) == 60
    # an unsorted grid with a duplicate h
    grid = [0.4, 0.05, 0.9, 0.2, 0.4, 1.7, 0.11]
    res = _check_fast_sums(as_sample(x), k, h_grid=grid)
    assert [h for h, _ in res.criterion_curve] == grid
    _check_fast_sums(as_sample([0.3, 1.7]), k)
    _check_fast_sums(as_sample(0.5 * rng.integers(0, 6, size=90)), k)
    with pytest.warns(UserWarning):
        _check_fast_sums(as_sample([2.0] * 4), k, h_grid=[0.1, 0.4, 1.3])
    _check_fast_sums(as_sample(1e6 + rng.normal(size=200)), k)
    unit = rng.normal(size=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_fast_sums(as_sample(1e-150 * unit), k,
                         h_grid=1e-150 * selector.default_h_grid(1.0, 200))
    _check_fast_sums(as_sample(1e150 * unit), k)
    # the distance to a far next cell over h overflows, for data whose
    # windows do not reach it (and so does the oracle's d/h)
    with np.errstate(over="ignore"):
        _check_fast_sums(as_sample(np.append(unit[:50], 1e4)), k, h_grid=[1e-305, 0.5])


@pytest.mark.parametrize("h", [0.3, 0.1875, 1.0 / 3.0, 1e-3 * math.pi])
def test_ucv_fast_sums_pair_edges(h):
    # pairs at d = h and d = 2h and one ulp either side of each: the window
    # ends by the pair route's own test fl(x_l - x_j) <= support h
    x = np.array([0.0, np.nextafter(h, 0.0), h, np.nextafter(h, 2.0 * h),
                  np.nextafter(2.0 * h, 0.0), 2.0 * h, np.nextafter(2.0 * h, 3.0 * h)])
    _check_fast_sums(as_sample(x), make_builtin("uniform"), h_grid=[0.5 * h, h])


def test_ucv_fast_sums_of_the_biweight():
    # K of degree 4 and K*K of degree 9: ten prefix sums per h
    k = _polynomial_kernel("biweight", (Fraction(15, 16), 0, Fraction(-15, 8), 0,
                                        Fraction(15, 16)))
    x = _mixture_sample(300, 17)
    _check_fast_sums(as_sample(x), k)
    _check_fast_sums(as_sample(x), k, h_grid=[0.4, 0.05, 0.9, 0.2, 0.4, 1.7, 0.11])


def test_ucv_fast_sums_on_a_lattice_and_far_from_zero():
    rng = np.random.default_rng(21)
    # integer data and integer h: many pairs at d = h, where the uniform K
    # jumps, and at d = 2h, where the reach ends
    lattice = rng.integers(0, 12, size=200).astype(float)
    _check_fast_sums(as_sample(lattice), make_builtin("uniform"), h_grid=[1.0, 2.0, 3.0, 5.0])
    # |x| near 1e6 with h near 1e-3: each cell is read against its own first
    # datum, so the powers keep the digits of the spread, not of 1e6
    far = 1e6 + 0.01 * rng.normal(size=300)
    for name in COMPACT:
        _check_fast_sums(as_sample(far), make_builtin(name), h_grid=np.geomspace(5e-4, 5e-3, 12))


@pytest.mark.parametrize("name", COMPACT + ["biweight"])
def test_ucv_fast_sums_read_each_h_alone(name):
    # no h reads another h's state: over a grid the sums, the windows and
    # the rounding bound are those of each h run alone, bit for bit, on the
    # inputs of test_ucv_fast_sums_match_oracle
    k = (_polynomial_kernel(name, (Fraction(15, 16), 0, Fraction(-15, 8), 0, Fraction(15, 16)))
         if name == "biweight" else make_builtin(name))
    rng = np.random.default_rng(16)
    x = _mixture_sample(300, 17)
    ties = 0.5 * rng.integers(0, 6, size=90)
    far = 1e6 + rng.normal(size=200)
    unit = rng.normal(size=200)
    cases = [(x, None), (x, [0.4, 0.05, 0.9, 0.2, 0.4, 1.7, 0.11]), ([0.3, 1.7], None),
             (ties, None), ([2.0] * 4, [0.1, 0.4, 1.3]), (far, None),
             (1e-150 * unit, 1e-150 * selector.default_h_grid(1.0, 200)), (1e150 * unit, None),
             (np.append(unit[:50], 1e4), [1e-305, 0.5])]
    for values, grid in cases:
        values = np.sort(np.asarray(values, dtype=float))
        grid = np.asarray(selector.default_h_grid(as_sample(values).std(), values.size)
                          if grid is None else grid)
        with np.errstate(over="ignore"):
            sums, windows, rounding = selector._fast_sums(values, k, grid)
            alone = [selector._fast_sums(values, k, grid[i:i + 1]) for i in range(grid.size)]
        assert sums.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
        assert windows == sum(a[1] for a in alone)
        assert rounding.tobytes() == np.concatenate([a[2] for a in alone]).tobytes()


def test_ucv_fast_sums_memory_is_linear_in_n():
    # the pairs within 2 h_max of the moment form would take about 400 MB
    # here; the fast sums hold O(n degree) floats per grid point
    s = as_sample(np.random.default_rng(15).normal(size=50000))
    tracemalloc.start()
    try:
        res = selector.cv_bandwidth(s, make_builtin("epanechnikov"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.metadata["route"] == "fast-sums" and res.metadata["rounding"] > 0.0
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("name", COMPACT)
def test_kernel_poly_matches_eval_and_selfconv(name):
    k = make_builtin(name)
    k_coef, kk_coef = k.poly
    u = np.linspace(0.0, k.support, 20001)
    poly = np.polynomial.polynomial.polyval
    assert np.max(np.abs(poly(u, k_coef) - k.eval(u))) <= 4 * np.spacing(1.0)
    u = np.linspace(0.0, 2.0 * k.support, 40001)
    assert np.max(np.abs(poly(u, kk_coef) - k.selfconv(u))) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("name", COMPACT)
def test_ucv_moment_route_skips_kernel_calls(name):
    k = make_builtin(name)
    calls = []

    def counting(f):
        def wrapped(u):
            calls.append(np.size(u))
            return f(u)
        return wrapped

    counted = dataclasses.replace(k, eval=counting(k.eval), selfconv=counting(k.selfconv))
    x = _mixture_sample(400, 18)
    res = selector.cv_bandwidth(as_sample(x), counted)
    assert res.metadata["route"] == "pairs" and calls == []
    h_max = max(h for h, _ in res.criterion_curve)
    d = np.abs(x[:, None] - x[None, :])[np.triu_indices(x.size, 1)]
    assert res.metadata["pairs"] == np.count_nonzero(d <= 2.0 * k.support * h_max)
    # without the coefficients the route sums per h, with the same curve
    per_h = selector.cv_bandwidth(as_sample(x), dataclasses.replace(counted, poly=None))
    assert per_h.metadata["route"] == "pairs" and calls != []
    assert per_h.metadata["pairs"] == sum(
        np.count_nonzero(d <= 2.0 * k.support * h) for h, _ in res.criterion_curve)
    _assert_matches([q for _, q in res.criterion_curve],
                    np.array([q for _, q in per_h.criterion_curve]))


def test_ucv_per_h_form_evaluates_sinc_once_per_pair():
    # the sinc kernel's K*K is K, so K*K - 2K is -K exactly: one call of the
    # kernel per block of pairs and h, and the same sums as two calls
    calls = []

    def counting(u):
        calls.append(np.size(u))
        return SINC.eval(u)

    once = dataclasses.replace(SINC, eval=counting, selfconv=counting)
    twice = dataclasses.replace(SINC, selfconv=lambda u: SINC.eval(u))
    rng = np.random.default_rng(0)
    x = np.sort(np.append(rng.normal(size=199), 320.0))
    grid = selector.default_h_grid(float(np.std(x[:-1], ddof=1)), 199, 20)
    blocks = sum(1 for _ in selector._pair_blocks(x, math.inf))
    sums, pairs = selector._per_h_sums(x, once, grid)
    assert len(calls) == blocks * grid.size and sum(calls) == pairs
    ref, ref_pairs = selector._per_h_sums(x, twice, grid)
    assert sums.tobytes() == ref.tobytes() and pairs == ref_pairs


def test_ucv_memory_is_flat_in_n():
    # the pairwise distances alone would take n(n-1)/2 * 8 bytes = 1.6 GB
    s = as_sample(np.random.default_rng(15).normal(size=20000))
    tracemalloc.start()
    try:
        res = selector.cv_bandwidth(s, GAUSS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.metadata["route"] == "transform"
    assert peak < 64 * 2 ** 20


def test_cv_parametric_near_rule_of_thumb_at_large_n():
    rng = np.random.default_rng(123)
    s = as_sample(rng.normal(size=10 ** 4))
    res = selector.cv_bandwidth(s, GAUSS, q_estimator="parametric")
    rot = selector.rule_of_thumb_normal(s.std(), s.n)
    grid = selector.default_h_grid(s.std(), s.n)
    step = grid[1] / grid[0]
    assert rot.h / step <= res.h <= rot.h * step


def test_cv_degenerate_sample_paths():
    s = as_sample([1.0, 1.0, 1.0])
    with pytest.warns(UserWarning):
        res = selector.cv_bandwidth(s, GAUSS, h_grid=[0.1, 0.5, 1.0])
    assert res.h == 0.1
    with pytest.raises(ValueError):
        selector.cv_bandwidth(s, GAUSS)
    with pytest.raises(ValueError):
        selector.cv_bandwidth(s, GAUSS, h_grid=[0.1, 0.5],
                              q_estimator="parametric")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["gaussian", "epanechnikov"])
def test_ucv_tiny_scale_is_not_degenerate(name):
    # degeneracy is judged against max |x|: a normal sample scaled by 1e-150
    # gets the unscaled sample's choice, scaled, from its own default grid
    k = make_builtin(name)
    x = np.random.default_rng(21).normal(size=200)
    res = selector.cv_bandwidth(as_sample(x), k)
    tiny = selector.cv_bandwidth(as_sample(1e-150 * x), k)
    assert tiny.h == pytest.approx(1e-150 * res.h, rel=1e-12)
    # the parametric plug-in is computed at unit scale, so it scales too
    res = selector.cv_bandwidth(as_sample(x), k, q_estimator="parametric")
    tiny = selector.cv_bandwidth(as_sample(1e-150 * x), k, q_estimator="parametric")
    assert tiny.h == pytest.approx(1e-150 * res.h, rel=1e-12)


def test_cv_validation():
    s1 = as_sample([0.3])
    with pytest.raises(ValueError):
        selector.cv_bandwidth(s1, GAUSS)
    rng = np.random.default_rng(4)
    s = as_sample(rng.normal(size=10))
    with pytest.raises(ValueError):
        selector.cv_bandwidth(s, GAUSS, h_grid=[])
    with pytest.raises(ValueError):
        selector.cv_bandwidth(s, GAUSS, h_grid=[0.5, -0.1])
    with pytest.raises(ValueError):
        selector.cv_bandwidth(s, GAUSS, q_estimator="mystery")


def test_default_h_grid_shape():
    grid = selector.default_h_grid(2.0, 32)
    assert grid.size == 60
    assert grid[0] == pytest.approx(0.05 * 2.0 / 2.0, rel=1e-12)
    assert grid[-1] == pytest.approx(3.0 * 2.0 / 2.0, rel=1e-12)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


# ---------------------------------------------------------------------------
# sample-size planning


def test_plan_nonsmooth_example():
    req = selector.PlanRequest(target="mise", epsilon=0.1, variation=2.0,
                               regime="nonsmooth")
    n0 = selector.plan_sample_size(req)
    assert n0 == 163
    c, r = selector.plan_bound_constant(req)
    assert c == pytest.approx(4.0 / math.pi, rel=1e-12)
    assert c * n0 ** -r <= 0.1 < c * (n0 - 1) ** -r


def test_plan_epsilon_equal_constant_gives_one():
    req = selector.PlanRequest(target="mise", epsilon=4.0 / math.pi,
                               variation=2.0, regime="nonsmooth")
    assert selector.plan_sample_size(req) == 1


def test_plan_conventional_mise_matches_linear_scan():
    v2 = 1.5100
    req = selector.PlanRequest(target="mise", epsilon=0.01, v2=v2)
    n0 = selector.plan_sample_size(req, GAUSS)
    stub = dataclasses.replace(NORMAL, variation={2: v2})

    def direct(n):
        return bounds.bound("thm1", stub, GAUSS, n, h0=1.0).optimal[1]

    scan = next(n for n in range(1, 10 ** 4) if direct(n) <= 0.01)
    assert n0 == scan
    assert direct(n0) <= 0.01 < direct(n0 - 1)


def test_plan_maxmse_and_smooth_guarantees():
    req = selector.PlanRequest(target="max_mse", epsilon=0.005,
                               v3=NORMAL.variation[3], a=NORMAL.sup_bound)
    n0 = selector.plan_sample_size(req, GAUSS)
    direct = lambda n: bounds.bound("thm3", NORMAL, GAUSS, n, h0=1.0).optimal[1]
    assert direct(n0) <= 0.005 < direct(n0 - 1)

    req_s = selector.PlanRequest(target="mise", epsilon=0.02,
                                 vm=NORMAL.variation[2], m=2, regime="smooth")
    n1 = selector.plan_sample_size(req_s)
    direct_s = lambda n: bounds.bound("thm7", NORMAL, SINC, n, h0=1.0, m=2).optimal[1]
    assert direct_s(n1) <= 0.02 < direct_s(n1 - 1)


def test_plan_nonsmooth_unimodal_constant():
    req = selector.PlanRequest(target="mise", epsilon=0.05, a=0.5,
                               regime="nonsmooth")
    c, r = selector.plan_bound_constant(req)
    assert c == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert r == 0.5


def test_plan_monotonicity():
    prev = None
    for eps in (0.2, 0.1, 0.05, 0.01):
        req = selector.PlanRequest(target="mise", epsilon=eps, variation=2.0,
                                   regime="nonsmooth")
        n0 = selector.plan_sample_size(req)
        if prev is not None:
            assert n0 >= prev
        prev = n0


def test_plan_stops_where_a_float_stops_counting():
    # at eps = 1e-16, n0 is about 3e19, where n0 + 1 rounds to n0: the
    # certificate read 1.0000000000000002e-16 > eps, and a smaller eps
    # looped for ever
    req = selector.PlanRequest(target="mise", epsilon=1e-16, v2=1.0)
    with pytest.raises(ValueError, match="float counts exactly"):
        selector.plan_sample_size(req, GAUSS)
    req = dataclasses.replace(req, epsilon=1e-12)
    n0 = selector.plan_sample_size(req, GAUSS)
    c, r = selector.plan_bound_constant(req, GAUSS)
    assert c * n0 ** -r <= 1e-12 < c * (n0 - 1) ** -r


def test_plan_validation():
    with pytest.raises(ValueError):
        selector.plan_sample_size(
            selector.PlanRequest(target="mise", epsilon=0.1, v2=1.5)
        )  # conventional route without a kernel
    with pytest.raises(ValueError):
        selector.plan_sample_size(
            selector.PlanRequest(target="mise", epsilon=0.1), GAUSS
        )  # missing v2
    with pytest.raises(ValueError):
        selector.plan_sample_size(
            selector.PlanRequest(target="max_mse", epsilon=0.1, v3=2.8), GAUSS
        )  # missing a
    with pytest.raises(ValueError):
        selector.plan_sample_size(
            selector.PlanRequest(target="max_mse", epsilon=0.1, variation=2.0,
                                 regime="nonsmooth")
        )  # nonsmooth route certifies mise only
    with pytest.raises(ValueError):
        selector.plan_sample_size(
            selector.PlanRequest(target="mise", epsilon=0.1, vm=1.5,
                                 regime="smooth")
        )  # missing m
    with pytest.raises(ValueError):
        selector.plan_sample_size(
            selector.PlanRequest(target="mise", epsilon=-0.1, variation=2.0,
                                 regime="nonsmooth")
        )
    with pytest.raises(ValueError):
        selector.plan_sample_size(
            selector.PlanRequest(target="ise", epsilon=0.1, variation=2.0,
                                 regime="nonsmooth")
        )
    with pytest.raises(ValueError):
        selector.plan_sample_size(
            selector.PlanRequest(target="mise", epsilon=0.1, variation=2.0,
                                 regime="mystery")
        )
