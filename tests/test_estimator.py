"""Tests for grid estimates, the Fourier route, and the density repair."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from cfkde.charfun import as_sample, make_density
from cfkde.estimator import (
    CorrectionInfeasibleError,
    EstimateGrid,
    _PAIR_OPS,
    _grid_plan,
    _grid_sum,
    _sinc_plan,
    _window,
    correct_to_density,
    default_grid,
    estimate_on_grid,
    kde_eval,
    sinc_kde_fourier,
)
from cfkde.kernels import kernel_from_functions, make_builtin
from cfkde.risk import mc_mise


def _all_pairs(values, k, h, x):
    # reference: every datum summed at every point, as the direct sum reads
    x = np.atleast_1d(np.asarray(x, dtype=float))
    values = np.asarray(values, dtype=float)
    return np.array([np.sum(k.eval((xi - values) / h)) for xi in x]) / (values.size * h)


def _assert_reach_sum(values, name, h, x):
    k = make_builtin(name)
    got = kde_eval(as_sample(values), k, h, x)
    ref = _all_pairs(values, k, h, x)
    tol = 2.0 ** -52 * float(k.eval(0.0)) / h + 1e-13 * float(np.max(np.abs(ref)))
    assert np.max(np.abs(np.atleast_1d(got) - ref)) <= tol
    return got


def test_kde_eval_point_examples():
    g = make_builtin("gaussian")
    assert_allclose(kde_eval(as_sample([0.0]), g, 1.0, 0.0),
                    1.0 / math.sqrt(2.0 * math.pi), rtol=1e-12)
    assert_allclose(kde_eval(as_sample([-1.0, 1.0]), g, 1.0, 0.0),
                    math.exp(-0.5) / math.sqrt(2.0 * math.pi), rtol=1e-12)
    s = make_builtin("sinc")
    assert_allclose(kde_eval(as_sample([0.0]), s, 1.0, 0.0), 1.0 / math.pi,
                    rtol=1e-12)


def test_kde_eval_matches_manual_sum():
    rng = np.random.default_rng(0)
    data = rng.normal(size=23)
    s = as_sample(data)
    k = make_builtin("epanechnikov")
    h = 0.4
    xs = np.linspace(-3, 3, 41)
    manual = np.array([
        np.mean([float(k.eval((x - d) / h)) / h for d in data]) for x in xs
    ])
    assert_allclose(kde_eval(s, k, h, xs), manual, rtol=1e-12)
    with pytest.raises(ValueError):
        kde_eval(s, k, 0.0, xs)


def test_kde_eval_scalar_returns_float():
    s = as_sample([0.0, 1.0])
    out = kde_eval(s, make_builtin("gaussian"), 0.5, 0.3)
    assert isinstance(out, float)


@pytest.mark.parametrize("name,npts,tol", [
    ("gaussian", 4001, 1e-6),
    ("epanechnikov", 16001, 1e-6),
    # the uniform kernel's estimate is discontinuous, so the trapezoid
    # rule converges only linearly in the grid step
    ("uniform", 64001, 1e-5),
])
def test_density_kernel_mass_and_nonnegativity(name, npts, tol):
    rng = np.random.default_rng(5)
    s = as_sample(rng.normal(size=60))
    k = make_builtin(name)
    xs = np.linspace(-9, 9, npts)
    ys = kde_eval(s, k, 0.35, xs)
    assert np.all(ys >= 0.0)
    assert_allclose(np.trapezoid(ys, xs), 1.0, atol=tol)


def test_sinc_fourier_point_example():
    assert_allclose(sinc_kde_fourier(as_sample([0.0]), 1.0, 0.0), 1.0 / math.pi,
                    atol=1e-9)


def test_sinc_dual_route_agreement():
    rng = np.random.default_rng(13)
    s = as_sample(rng.normal(size=100))
    k = make_builtin("sinc")
    for h in (0.2, 0.5, 1.3):
        xs = rng.uniform(-5, 5, 50)
        direct = kde_eval(s, k, h, xs)
        fourier = sinc_kde_fourier(s, h, xs)
        assert np.max(np.abs(direct - fourier)) <= 1e-6


def test_sinc_fourier_small_sample_example():
    s = as_sample([0.3, -0.7, 1.1])
    k = make_builtin("sinc")
    assert_allclose(sinc_kde_fourier(s, 0.5, 0.2),
                    kde_eval(s, k, 0.5, 0.2), atol=1e-9)


def test_sinc_estimate_mass_near_one():
    rng = np.random.default_rng(21)
    s = as_sample(rng.normal(size=40))
    xs = np.linspace(-40, 40, 8001)
    ys = sinc_kde_fourier(s, 0.4, xs)
    assert abs(np.trapezoid(ys, xs) - 1.0) < 5e-3


def test_default_grid():
    s = as_sample([0.0, 2.0])
    xs = default_grid(s, 0.5, n_points=256)
    assert xs.size == 256
    pad = 4 * 0.5 + 4 * s.std()
    assert_allclose(xs[0], -pad, rtol=1e-12)
    assert_allclose(xs[-1], 2.0 + pad, rtol=1e-12)
    with pytest.raises(ValueError):
        default_grid(s, -1.0)


def test_estimate_on_grid_and_uniformity_check():
    rng = np.random.default_rng(2)
    s = as_sample(rng.normal(size=30))
    k = make_builtin("gaussian")
    est = estimate_on_grid(s, k, 0.4)
    assert est.xs.size == 512 and not est.corrected and est.xi == 0.0
    assert est.kernel_name == "gaussian"
    bad = np.array([0.0, 0.1, 0.25, 0.3])
    with pytest.raises(ValueError):
        estimate_on_grid(s, k, 0.4, grid=bad)


@pytest.mark.parametrize("centre", [1e4, 1e6, 1e8])
def test_default_grid_far_from_zero_is_uniform(centre):
    # the steps of linspace there differ by an ulp of the centre, more than
    # the 1e-12 the uniformity check used to allow
    s = as_sample(centre + np.random.default_rng(3).normal(size=500))
    for h in (0.01, 0.3):
        xs = default_grid(s, h)
        assert np.ptp(np.diff(xs)) > 1e-12
        est = estimate_on_grid(s, make_builtin("epanechnikov"), h, grid=xs)
        assert np.array_equal(est.xs, xs)
    with pytest.raises(ValueError):  # a step off by far more than that still fails
        estimate_on_grid(s, make_builtin("epanechnikov"), 0.3,
                         grid=np.concatenate([xs[:-1], [xs[-1] + 1e-3 * (xs[1] - xs[0])]]))


def test_correct_constant_toy_grid():
    xs = np.linspace(0.0, 1.0, 101)
    g = EstimateGrid(xs=xs, ys=np.full(101, 2.0), h=0.1, kernel_name="toy")
    out = correct_to_density(g)
    assert_allclose(out.xi, 1.0, atol=1e-8)
    assert_allclose(out.ys, np.ones(101), atol=1e-8)
    assert out.corrected


def test_correct_already_density_is_identity():
    xs = np.linspace(0.0, 1.0, 201)
    g = EstimateGrid(xs=xs, ys=np.ones(201), h=0.1, kernel_name="toy")
    out = correct_to_density(g)
    assert out.xi == 0.0
    assert np.array_equal(out.ys, g.ys)


def test_correct_infeasible_when_mass_short():
    xs = np.linspace(0.0, 1.0, 101)
    g = EstimateGrid(xs=xs, ys=np.full(101, 0.5), h=0.1, kernel_name="toy")
    with pytest.raises(CorrectionInfeasibleError):
        correct_to_density(g)
    # the error is also a ValueError for generic handling
    with pytest.raises(ValueError):
        correct_to_density(g)


def test_corrected_sinc_estimate_valid_density():
    rng = np.random.default_rng(31)
    s = as_sample(rng.normal(size=50))
    k = make_builtin("sinc")
    est = estimate_on_grid(s, k, 0.3, grid=np.linspace(-6, 6, 1201))
    assert np.min(est.ys) < 0.0
    fixed = correct_to_density(est)
    assert np.all(fixed.ys >= 0.0)
    assert_allclose(fixed.mass, 1.0, atol=1e-6)
    assert fixed.xi > 0.0


def test_correction_level_is_exact():
    # the clipped trapezoid mass is piecewise linear in xi, so the level
    # solves it to rounding: a root of the mass on the grid, at unit mass
    xs = np.linspace(-6, 6, 512)
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        est = estimate_on_grid(as_sample(rng.normal(size=200)), make_builtin("sinc"),
                               0.2 + 0.05 * seed, grid=xs)
        fixed = correct_to_density(est)
        assert abs(fixed.mass - 1.0) <= 1e-14
        mass = lambda xi: np.trapezoid(np.maximum(est.ys - xi, 0.0), xs) - 1.0
        root = brentq(mass, 0.0, float(np.max(est.ys)), xtol=1e-300, rtol=8.9e-16)
        assert fixed.xi == pytest.approx(root, rel=1e-12)


def test_correction_idempotent():
    rng = np.random.default_rng(8)
    s = as_sample(rng.normal(size=50))
    est = estimate_on_grid(s, make_builtin("sinc"), 0.3,
                           grid=np.linspace(-6, 6, 1201))
    once = correct_to_density(est)
    twice = correct_to_density(once)
    assert np.max(np.abs(twice.ys - once.ys)) <= 1e-12


def test_correction_improves_ise():
    d = make_density("normal")
    k = make_builtin("sinc")
    xs = np.linspace(-6, 6, 1201)
    truth = d.pdf(xs)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        s = as_sample(rng.normal(size=50))
        est = estimate_on_grid(s, k, 0.3, grid=xs)
        fixed = correct_to_density(est)
        ise_raw = np.trapezoid((est.ys - truth) ** 2, xs)
        ise_fix = np.trapezoid((fixed.ys - truth) ** 2, xs)
        assert ise_fix <= ise_raw + 1e-12


# ---------------------------------------------------------------------------
# the pair route sums only the data within the kernel's reach


_RNG_DATA = np.random.default_rng(77).normal(size=300)


def _clustered(seed):
    # clusters of very different sizes and spreads plus far stragglers, in
    # random order, so the runs of points within reach vary from one to hundreds
    rng = np.random.default_rng(seed)
    return rng.permutation(np.concatenate([
        rng.normal(0.0, 0.01, 400), rng.normal(3.0, 0.5, 150),
        rng.normal(-2.0, 1e-4, 50), rng.uniform(-30.0, 30.0, 10)]))


@pytest.mark.parametrize("name", ["gaussian", "epanechnikov", "uniform"])
@pytest.mark.parametrize("case", ["outside", "single", "tied", "offset", "unsorted",
                                  "clustered"])
def test_reach_sum_matches_all_pairs(name, case):
    h = 0.3
    values, x = _RNG_DATA, np.linspace(-4.0, 4.0, 401)
    if case == "outside":
        # most points lie beyond the data, many further than the reach
        x = np.linspace(-40.0, 40.0, 801)
    elif case == "single":
        values = np.array([0.25])
        x = np.linspace(-2.0, 2.0, 401)
    elif case == "tied":
        values = np.repeat(np.round(_RNG_DATA[:40], 1), 5)
    elif case == "offset":
        values = 1e6 + _RNG_DATA
        x = 1e6 + x
    elif case == "unsorted":
        x = np.random.default_rng(3).permutation(x)
    elif case == "clustered":
        # non-uniform points: the data themselves
        values = x = _clustered(4)
    _assert_reach_sum(values, name, h, x)


@pytest.mark.parametrize("name", ["gaussian", "epanechnikov", "sinc"])
def test_nan_points_stay_nan(name):
    values = _clustered(5)
    x = values.copy()
    x[::7] = np.nan
    got = kde_eval(as_sample(values), make_builtin(name), 0.05, x)
    nan = np.isnan(x)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], _assert_reach_sum(values, name, 0.05, x[~nan]))


def test_runs_wider_than_a_block_keep_memory_flat():
    # every datum reaches all 2^17 points, four blocks' worth: the columns
    # are split, so the pair blocks stay small next to the O(M) arrays
    tri = kernel_from_functions("triangular", lambda u: max(0.0, 1.0 - abs(u)),
                                lambda t: np.sinc(t / (2.0 * math.pi)) ** 2)
    values, x = np.array([0.0, 0.3, 7.0]), np.linspace(-50.0, 50.0, 1 << 17)
    for k in (make_builtin("sinc"), tri):
        assert k.reach == math.inf
        tracemalloc.start()
        try:
            got = kde_eval(as_sample(values), k, 0.5, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20
        ref = _all_pairs(values, k, 0.5, x[::997])
        assert np.max(np.abs(got[::997] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["gaussian", "epanechnikov", "uniform"])
def test_reach_sum_scalar_point(name):
    got = _assert_reach_sum(_RNG_DATA, name, 0.4, 0.1)
    assert isinstance(got, float)


def test_uniform_reach_at_the_support_edge():
    # data at x0 +- h as computed, and one and two ulps either side: each is
    # in or out of the support by the rounding of (x0 - X)/h, which the
    # window must not pre-empt.  At x0 = 0.8630035359078434, h = 0.7 the
    # datum one ulp below x0 - h is still inside: (x0 - X)/h rounds to 1.
    x0, h = 0.8630035359078434, 0.7
    assert (x0 - np.nextafter(x0 - h, -np.inf)) / h == 1.0
    rng = np.random.default_rng(12)
    cases = [(x0, h)] + list(zip(
        np.concatenate([rng.uniform(-5, 5, 20), 1e6 + rng.uniform(-1, 1, 10)]),
        rng.choice([0.1, 0.3, 1.0 / 3.0, 0.7, 1.3], 30)))
    for x0, h in cases:
        edges = np.array([x0 - h, x0 + h])
        below = np.nextafter(edges, -np.inf)
        above = np.nextafter(edges, np.inf)
        values = np.concatenate([[x0], edges, below, above,
                                 np.nextafter(below, -np.inf), np.nextafter(above, np.inf)])
        _assert_reach_sum(values, "uniform", h, [x0, np.nextafter(x0, np.inf)])


def test_kde_eval_rejects_non_finite_bandwidth():
    s = as_sample([0.0, 1.0])
    for h in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            kde_eval(s, make_builtin("gaussian"), h, 0.0)
        with pytest.raises(ValueError):
            sinc_kde_fourier(s, h, 0.0)
        with pytest.raises(ValueError):
            default_grid(s, h)
        with pytest.raises(ValueError):
            estimate_on_grid(s, make_builtin("gaussian"), h, grid=np.linspace(0, 1, 5))


def test_estimate_metadata_pairs_route():
    s = as_sample(_RNG_DATA)
    est = estimate_on_grid(s, make_builtin("epanechnikov"), 0.3, n_points=256)
    assert est.metadata["route"] == "pairs"
    assert est.metadata["reach"] == 0.3
    assert 0 < est.metadata["pairs"] < s.n * 256
    gauss = estimate_on_grid(s, make_builtin("gaussian"), 0.3, n_points=256)
    assert gauss.metadata["reach"] == pytest.approx(0.3 * math.sqrt(106 * math.log(2)))


@pytest.mark.parametrize("outlier,route", [(None, "transform"), (200.0, "pairs")])
def test_sinc_estimate_routes_match_all_pairs(outlier, route):
    values = np.random.default_rng(5).normal(size=400)
    if outlier is not None:
        # a far outlier multiplies the panels of the transform route
        values[0] = outlier
    s = as_sample(values)
    k = make_builtin("sinc")
    est = estimate_on_grid(s, k, 0.3, n_points=512)
    assert est.metadata["route"] == route and est.metadata["reach"] is None
    assert ("nodes" if route == "transform" else "pairs") in est.metadata
    ref = _all_pairs(values, k, 0.3, est.xs)
    assert np.max(np.abs(est.ys - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the repair keeps the provenance
    assert correct_to_density(est).metadata == est.metadata


def test_sinc_pair_counts_two_operations():
    # counted ops / (n M) = 1.23: where the routes cost about the same, a sinc
    # pair takes 1.6-1.8 counted transform operations (rounded to two), so
    # the transform route is the cheaper one
    values = np.random.default_rng(1).normal(size=1000)
    values[0] = 30.0
    s = as_sample(values)
    k = make_builtin("sinc")
    xs = default_grid(s, 0.3, 512)
    plan = _sinc_plan(s.values, 0.3, xs)
    assert 1.0 < plan.ops / (s.n * xs.size) < 2.0
    est = estimate_on_grid(s, k, 0.3, n_points=512)
    assert est.metadata["route"] == "transform"
    ref = _all_pairs(values, k, 0.3, est.xs)
    assert np.max(np.abs(est.ys - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sinc_fourier_offset_data():
    values = 1e6 + np.random.default_rng(6).normal(size=200)
    s = as_sample(values)
    xs = 1e6 + np.linspace(-5.0, 5.0, 101)
    ref = _all_pairs(values, make_builtin("sinc"), 0.4, xs)
    assert np.max(np.abs(sinc_kde_fourier(s, 0.4, xs) - ref)) <= 1e-10 * np.max(ref)


def test_mc_mise_matches_all_pairs_replicates():
    d = make_density("normal")
    k = make_builtin("gaussian")
    h, n, reps, seed = 0.4, 60, 5, 11
    mean, se = mc_mise(d, k, h, n, reps=reps, seed=seed)
    lo, hi = d.support_hint
    xs = np.linspace(lo - 4.0 * h, hi + 4.0 * h, 1024)
    truth = d.pdf(xs)
    ises = [np.trapezoid((_all_pairs(np.sort(d.sampler(np.random.default_rng(seed + r), n)),
                                     k, h, xs) - truth) ** 2, xs) for r in range(reps)]
    assert_allclose(mean, np.mean(ises), rtol=1e-12)
    assert_allclose(se, np.std(ises, ddof=1) / math.sqrt(reps), rtol=1e-10)


def test_estimate_memory_flat_at_large_n():
    # the pair route on the grid estimate_on_grid would use: 10^5 data, each
    # meeting about a hundred points
    s = as_sample(np.random.default_rng(9).normal(size=100_000))
    k = make_builtin("gaussian")
    xs = default_grid(s, 0.05, 2048)
    lo, hi = _window(s.values, k.reach * 0.05, xs)
    tracemalloc.start()
    try:
        kde_eval(s, k, 0.05, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(np.sum(hi - lo)) > 4_000_000
    assert peak < 32 * 2 ** 20


def test_estimate_grid_route_memory_flat_at_large_n():
    # the same inputs through estimate_on_grid take the grid route, whose
    # moments are binned in slices of _BLOCK data
    s = as_sample(np.random.default_rng(9).normal(size=100_000))
    tracemalloc.start()
    try:
        est = estimate_on_grid(s, make_builtin("gaussian"), 0.05, n_points=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.metadata["route"] == "grid" and est.metadata["terms"] > 0
    assert peak < 32 * 2 ** 20


# ---------------------------------------------------------------------------
# the grid route against a long-double sum


_EPS = float(np.finfo(float).eps)


def _long_double_sum(values, h, xs):
    # the gaussian estimate in long double from the data within 40 h of each
    # point; the rest adds less than exp(-800) of a term
    v = values.astype(np.longdouble)
    lo = np.searchsorted(values, xs - 40.0 * h)
    hi = np.searchsorted(values, xs + 40.0 * h, side="right")
    hl = np.longdouble(h)
    out = np.array([np.sum(np.exp(-0.5 * ((np.longdouble(x) - v[a:b]) / hl) ** 2))
                    for x, a, b in zip(xs, lo, hi)])
    two_pi = 2 * np.arccos(np.longdouble(-1.0))
    return out / (np.sqrt(two_pi) * values.size * hl)


# (n, grid points, h in grid steps, where the data lie)
_ORACLE_CASES = [
    (1, 512, 1.0, "inside"), (1, 2048, 50.0, "inside"),
    (2, 64, 3.0, "inside"), (2, 512, 0.3, "inside"), (2, 2048, 1.0, "inside"),
    (1000, 64, 0.05, "inside"), (1000, 512, 1.0, "inside"), (1000, 2048, 50.0, "inside"),
    (1000, 512, 5.0, "tied"), (1000, 512, 1.0, "partly outside"),
    (1000, 512, 2.0, "wholly outside"),
    (20000, 512, 1.0, "inside"), (20000, 2048, 5.0, "inside"),
]


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("n, size, steps, layout", _ORACLE_CASES)
def test_grid_route_matches_long_double_sum(offset, n, size, steps, layout):
    rng = np.random.default_rng(size + n)
    values = rng.normal(size=n)
    if layout == "tied":
        values = np.round(values, 1)
    lo, hi = float(np.min(values)), float(np.max(values))
    if layout == "partly outside":
        lo, hi = lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo)
    elif layout == "wholly outside":  # the data end two h below the grid
        lo = hi + 2.0 * steps * 5.0 / (size - 1)
        hi = lo + 5.0
    else:
        lo, hi = lo - 5.0, hi + 5.0
    values, xs = offset + values, np.linspace(offset + lo, offset + hi, size)
    s, k = as_sample(values), make_builtin("gaussian")
    h = steps * (xs[-1] - xs[0]) / (size - 1)
    est = estimate_on_grid(s, k, h, grid=xs)
    # the route taken is the one the cost model counts cheaper
    a, b = _window(s.values, k.reach * h, xs)
    plan = _grid_plan(s, k, h, xs, math.inf)
    cheaper = "grid" if plan is not None and plan.ops < _PAIR_OPS * np.sum(b - a) else "pairs"
    assert est.metadata["route"] == cheaper
    assert np.all(est.ys >= 0.0)
    # the reference at up to 128 points, the largest value among them
    top = int(np.argmax(est.ys))
    at = np.unique(np.concatenate([np.linspace(0, size - 1, min(size, 128)).astype(int),
                                   np.clip(np.arange(top - 2, top + 3), 0, size - 1)]))
    ref = _long_double_sum(s.values, h, xs[at])
    peak = float(np.max(ref))
    assert peak > 0.0

    def error(ys):
        return float(np.max(np.abs(ys[at] - ref)))

    if cheaper == "grid":
        assert error(est.ys) <= 2e-15 * peak
    else:  # the pair route's own standard, as in _assert_reach_sum
        assert error(est.ys) <= 1e-13 * peak + 2.0 ** -52 * float(k.eval(0.0)) / h
    if plan is not None:
        grid = _grid_sum(s, h, size, plan)
        assert np.all(grid >= 0.0)
        # with one or two data the pair route sums one or two exps, under an
        # ulp of the peak; the grid route's products of three rounded
        # factors get three ulps on top of twice that
        slack = 3.0 * _EPS * peak if n <= 2 else 0.0
        assert error(grid) <= 2e-15 * peak
        assert error(grid) <= 2.0 * error(kde_eval(s, k, h, xs)) + slack
