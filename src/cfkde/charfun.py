"""Density models, empirical characteristic functions, and envelopes.

A DensityModel packages a target density p together with the Fourier-side
quantities the exact-risk and bound formulas need:

    cf(t)            characteristic function (complex)
    variation[m]     V(p^(m)) = int |p^(m+1)|, for the orders where finite
    sup_bound        sup_x p(x)
    a_p              (2 pi)^(-1) int |cf|, None when int |cf| diverges
    supersmooth      (alpha, gamma, B) with B = int exp(gamma |t|^alpha)|cf| < inf
    cf_cutoff        tau with cf = 0 for |t| > tau (band-limited case)
    cf_sq_integral   int |cf|^2
    cf_sq_tail(T)    int_{|t| >= T} |cf|^2, exact or near-exact
    cf_abs_tail(T)   int_{|t| >= T} |cf|, None when divergent
    cf_phases        (lo, hi): cf is a finite sum of exp(i a t) g(t) with
                     lo <= a <= hi and each g free of oscillation; sets the
                     width of the transform-side quadrature panels
    tail_terms       (t0, ((c, a, p), ...)): cf(t) = sum c exp(i a t) t^(-p)
                     exactly for t >= t0 (c complex, a real, p a positive
                     integer), or None; lets the integrated risk take the
                     transform's tail past a cutoff exactly (risk.exact_mise)

Variation constants are computed at construction and stored at full
precision; a constant that comes from a quadrature is stored as its value
plus the error estimate, so that bounds built on it stay upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy import integrate, optimize
from scipy.special import erfc, eval_hermitenorm, polygamma, sici, wofz

from .kernels import KernelModel

__all__ = [
    "DensityModel",
    "Sample",
    "BUILTIN_DENSITIES",
    "make_density",
    "as_sample",
    "ecf",
    "ecf_sq_unbiased",
    "ecf_sq_unbiased_panels",
    "ecf_panel_sums",
    "cf_envelope",
    "one_minus_cf_bound",
]

BUILTIN_DENSITIES = ("normal", "mixture", "uniform", "laplace", "fejer")

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
# Elements per temporary array of the blocked sums here, in estimator and in
# selector: 256 KiB, which stays in a core's L2 cache.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class DensityModel:
    """A target density with its Fourier-side constants."""

    name: str
    params: dict
    pdf: Callable
    cf: Callable
    variation: Dict[int, float]
    sup_bound: Optional[float]
    a_p: Optional[float]
    supersmooth: Optional[Tuple[float, float, float]]
    cf_cutoff: Optional[float]
    unimodal: bool
    cf_sq_integral: float
    cf_sq_tail: Callable
    cf_abs_tail: Optional[Callable]
    pdf_deriv: Optional[Callable]
    sampler: Optional[Callable]
    support_hint: Tuple[float, float]
    cf_phases: Tuple[float, float] = (0.0, 0.0)
    tail_terms: Optional[Tuple[float, Tuple[Tuple[complex, float, int], ...]]] = None


@dataclass(frozen=True)
class Sample:
    """An observed sample, stored sorted ascending."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.size

    def std(self) -> float:
        """Sample standard deviation (ddof = 1); 0.0 for a single point."""
        if self.values.size < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))


def as_sample(data) -> Sample:
    """Validate raw data and wrap it as a sorted Sample."""
    values = np.asarray(data, dtype=float).ravel()
    if values.size < 1:
        raise ValueError("sample must contain at least one observation")
    if not np.all(np.isfinite(values)):
        raise ValueError("sample contains non-finite values")
    return Sample(values=np.sort(values))


# ---------------------------------------------------------------------------
# empirical characteristic function

def ecf(sample: Sample, t):
    """Empirical characteristic function f_n(t) = mean of exp(i t X_j).

    Evaluated as mean cos + i mean sin in blocks of at most _BLOCK
    (t, X_j) pairs, so memory stays flat in the sample size.

    Parameters
    ----------
    sample : Sample
    t : array_like

    Returns
    -------
    complex ndarray (or complex scalar for scalar t)
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    x = sample.values
    acc = np.zeros((2, t_arr.size))
    x_step = min(x.size, _BLOCK)
    t_step = max(1, _BLOCK // x_step)
    for i in range(0, t_arr.size, t_step):
        for j in range(0, x.size, x_step):
            tx = np.multiply.outer(t_arr[i:i + t_step], x[j:j + x_step])
            acc[0, i:i + t_step] += np.cos(tx).sum(axis=1)
            acc[1, i:i + t_step] += np.sin(tx).sum(axis=1)
    out = (acc[0] + 1j * acc[1]) / x.size
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return complex(out[0])
    return out


def _centered(sample: Sample) -> Sample:
    # |f_n|^2 does not change under a shift; centring keeps the phases t x
    # small, and with them their rounding
    v = sample.values
    return Sample(values=v - 0.5 * (v.min() + v.max()))


def ecf_sq_unbiased(sample: Sample, t):
    """Unbiased estimate of |f(t)|^2 from the pair sum over j != k.

    Equals (n(n-1))^(-1) sum_{j != k} cos(t (X_j - X_k)), reduced exactly to
    (n |f_n(t)|^2 - 1) / (n - 1).
    """
    n = sample.n
    if n < 2:
        raise ValueError("ecf_sq_unbiased requires at least two observations")
    fn = ecf(_centered(sample), t)
    mod2 = np.abs(fn) ** 2
    out = (n * mod2 - 1.0) / (n - 1.0)
    return out


def ecf_panel_sums(x: np.ndarray, width: float, panels: int,
                   offsets) -> Tuple[np.ndarray, np.ndarray]:
    """Sums of cos(t x_j) and sin(t x_j) at t = (p + 1/2) width + a.

    Returns two arrays of shape (panels, len(offsets)), for p < panels and
    each offset a.  With p = b L + j and L about sqrt(panels), exp(i t x)
    factors into exp(i (b L + 1/2) w x) exp(i j w x) exp(i a x): the
    trigonometric work per point is panels/L + L + len(offsets), the last
    two factors are combined by angle addition, and the sum over the values
    is four real matrix products per block of them, of the cos and sin of
    the block phase with the cos and sin of the combined phase.  The
    products stay real because a complex one of these thin shapes costs
    milliseconds each through threaded BLAS.  Centre x first: the rounding
    of the phases grows with |t x|.
    """
    x = np.asarray(x, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    run = max(1, round(math.sqrt(panels)))
    blocks = math.ceil(panels / run)
    base = (np.arange(blocks) * run + 0.5) * width
    steps = np.arange(run) * width
    cols = run * offsets.size
    re = np.zeros((blocks, cols))
    im = np.zeros((blocks, cols))
    chunk = max(1, _BLOCK // (blocks + cols))
    # cos and sin of the combined phase, and the one temporary that forms them
    co, so, tmp = (np.empty((min(chunk, x.size), run, offsets.size)) for _ in range(3))
    for s in range(0, x.size, chunk):
        xb = x[s:s + chunk]
        m = xb.size
        jx, ax = np.multiply.outer(xb, steps), np.multiply.outer(xb, offsets)
        cj, sj = np.cos(jx)[:, :, None], np.sin(jx)[:, :, None]
        ca, sa = np.cos(ax)[:, None, :], np.sin(ax)[:, None, :]
        c, d, t = co[:m], so[:m], tmp[:m]
        np.multiply(cj, ca, out=c)
        c -= np.multiply(sj, sa, out=t)
        np.multiply(sj, ca, out=d)
        d += np.multiply(cj, sa, out=t)
        c, d = c.reshape(m, cols), d.reshape(m, cols)
        bx = np.multiply.outer(base, xb)
        cb, sb = np.cos(bx), np.sin(bx)
        re += cb @ c - sb @ d
        im += cb @ d + sb @ c
    return (re.reshape(-1, offsets.size)[:panels],
            im.reshape(-1, offsets.size)[:panels])


def ecf_sq_unbiased_panels(sample: Sample, width: float, panels: int,
                           offsets) -> np.ndarray:
    """ecf_sq_unbiased at t = (p + 1/2) width + a, for p < panels and each offset a.

    Returns an array of shape (panels, len(offsets)), from the factored
    sums of ecf_panel_sums over the centred sample.
    """
    n = sample.n
    if n < 2:
        raise ValueError("ecf_sq_unbiased requires at least two observations")
    re, im = ecf_panel_sums(_centered(sample).values, width, panels, offsets)
    # n |f_n|^2 = |sum exp(i t x)|^2 / n
    return ((re * re + im * im) / n - 1.0) / (n - 1.0)


def cf_envelope(density: DensityModel, m: int, t):
    """Envelope |cf(t)| <= min(1, V_{m-1} / |t|^m) from bounded variation.

    Parameters
    ----------
    density : DensityModel
    m : int
        Envelope order, m >= 1; requires variation order m - 1.
    t : array_like
    """
    if m < 1:
        raise ValueError("envelope order m must be >= 1")
    v = density.variation.get(m - 1)
    if v is None:
        raise ValueError(
            "density %r has no variation constant of order %d" % (density.name, m - 1)
        )
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        env = v / np.where(t == 0.0, 1.0, np.abs(t)) ** m
    return np.where(t == 0.0, 1.0, np.minimum(1.0, env))


def one_minus_cf_bound(kernel: KernelModel, t, alpha: Optional[float] = None):
    """Envelope for |1 - phi(t)| from the kernel's absolute moments.

    Returns min over the available candidates among mu1 |t|, mu2 t^2 / 2
    (zero-mean kernels), 2, and, when alpha in (0, 1) is given,
    mu1^alpha 2^(1-alpha) |t|^alpha.
    """
    if kernel.is_sinc or kernel.mu1 is None:
        raise ValueError("kernel %r has no moment envelope for 1 - cf" % kernel.name)
    t = np.abs(np.asarray(t, dtype=float))
    out = np.minimum(kernel.mu1 * t, 2.0)
    if kernel.mu2 is not None and kernel.zero_mean:
        out = np.minimum(out, 0.5 * kernel.mu2 * t * t)
    if alpha is not None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        out = np.minimum(out, kernel.mu1 ** alpha * 2.0 ** (1.0 - alpha) * t ** alpha)
    return out


# ---------------------------------------------------------------------------
# built-in densities

def _abs_integral_by_lobes(fun, lo: float, hi: float,
                           scale: float) -> Tuple[float, float]:
    """Integrate |fun| over [lo, hi], with panel edges at the sign changes of fun.

    Each lobe is smooth and single-signed, so Gauss-Legendre panels at most
    scale wide resolve it; returns (value, error estimate).
    """
    from .risk import gauss_panels, panel_edges

    grid = np.linspace(lo, hi, 8193)
    vals = np.asarray(fun(grid), dtype=float)
    cuts = [float(x) for x in grid[vals == 0.0]] + [
        optimize.brentq(lambda x: float(fun(x)), grid[i], grid[i + 1], xtol=1e-13)
        for i in np.where(vals[:-1] * vals[1:] < 0.0)[0]
    ]
    rough = float(np.trapezoid(np.abs(vals), grid))
    q = gauss_panels(lambda x: np.abs(fun(x)),
                     panel_edges(lo, hi, 2.0 * math.pi / scale, cuts),
                     1e-13 * max(rough, 1e-300))
    return float(q.value[0]), float(q.error[0])


_NORMAL_ABS_HERMITE: Dict[int, float] = {}


def _abs_hermite_integral(j: int) -> float:
    """int over R of |phi(u) He_j(u)| du for the standard normal phi.

    An upper estimate: the quadrature value plus its error estimate; past
    |u| = 14 the integrand is below 1e-30.
    """
    if j in _NORMAL_ABS_HERMITE:
        return _NORMAL_ABS_HERMITE[j]
    if j == 0:
        val = 1.0
    else:
        roots = np.polynomial.hermite_e.hermeroots([0.0] * j + [1.0])
        pts = sorted(float(r) for r in np.real(roots) if 0.0 < float(np.real(r)) < 14.0)

        def f(u):
            return abs(math.exp(-0.5 * u * u) / _SQRT_2PI * eval_hermitenorm(j, u))

        val_half, err_half = integrate.quad(f, 0.0, 14.0, points=pts, limit=300)
        val = 2.0 * (val_half + err_half)
    _NORMAL_ABS_HERMITE[j] = val
    return val


def _make_normal(sigma: float = 1.0, mu: float = 0.0) -> DensityModel:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    s, m0 = float(sigma), float(mu)

    def pdf(x):
        u = (np.asarray(x, dtype=float) - m0) / s
        return np.exp(-0.5 * u * u) / (s * _SQRT_2PI)

    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * m0 * t - 0.5 * s * s * t * t)

    def pdf_deriv(order, x):
        u = (np.asarray(x, dtype=float) - m0) / s
        base = np.exp(-0.5 * u * u) / _SQRT_2PI
        return (-1.0) ** order * base * eval_hermitenorm(order, u) / s ** (order + 1)

    variation = {
        m: _abs_hermite_integral(m + 1) / s ** (m + 1) for m in range(7)
    }

    def cf_sq_tail(T):
        return (_SQRT_PI / s) * float(erfc(s * max(T, 0.0)))

    def cf_abs_tail(T):
        return (_SQRT_2PI / s) * float(erfc(s * max(T, 0.0) / math.sqrt(2.0)))

    def sampler(rng, size):
        return rng.normal(m0, s, size)

    return DensityModel(
        name="normal",
        params={"sigma": s, "mu": m0},
        pdf=pdf,
        cf=cf,
        variation=variation,
        sup_bound=1.0 / (s * _SQRT_2PI),
        a_p=1.0 / (s * _SQRT_2PI),
        supersmooth=(2.0, s * s / 4.0, 2.0 * _SQRT_PI / s),
        cf_cutoff=None,
        unimodal=True,
        cf_sq_integral=_SQRT_PI / s,
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=cf_abs_tail,
        pdf_deriv=pdf_deriv,
        sampler=sampler,
        support_hint=(m0 - 10.0 * s, m0 + 10.0 * s),
        cf_phases=(m0, m0),
    )


def _make_mixture(weights, means, sigmas) -> DensityModel:
    w = np.asarray(weights, dtype=float)
    mus = np.asarray(means, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    if not (w.size == mus.size == sig.size) or w.size == 0:
        raise ValueError("weights, means, sigmas must have equal nonzero length")
    if np.any(w <= 0) or np.any(sig <= 0):
        raise ValueError("weights and sigmas must be positive")
    if abs(w.sum() - 1.0) > 1e-10:
        raise ValueError("weights must sum to 1")

    def pdf(x):
        x = np.asarray(x, dtype=float)
        u = (x[..., None] - mus) / sig
        return np.sum(w * np.exp(-0.5 * u * u) / (sig * _SQRT_2PI), axis=-1)

    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.sum(
            w * np.exp(1j * t[..., None] * mus - 0.5 * (sig * t[..., None]) ** 2),
            axis=-1,
        )

    def pdf_deriv(order, x):
        x = np.asarray(x, dtype=float)
        u = (x[..., None] - mus) / sig
        base = np.exp(-0.5 * u * u) / _SQRT_2PI
        herm = eval_hermitenorm(order, u)
        return (-1.0) ** order * np.sum(w * base * herm / sig ** (order + 1), axis=-1)

    lo = float(np.min(mus - 10.0 * sig))
    hi = float(np.max(mus + 10.0 * sig))
    s_min = float(np.min(sig))

    variation = {}
    for m in range(7):
        val, err = _abs_integral_by_lobes(
            lambda x, m=m: pdf_deriv(m + 1, x), lo, hi, s_min
        )
        # a constant with a large error estimate is not stored at all
        if err < 1e-7 * max(1.0, val):
            variation[m] = val + err

    # sup p: dense grid then a local polish
    grid = np.linspace(lo, hi, 4001)
    vals = pdf(grid)
    i = int(np.argmax(vals))
    res = optimize.minimize_scalar(
        lambda x: -float(pdf(x)),
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    sup_p = max(float(vals[i]), -float(res.fun))

    # a_p = pi^(-1) int_0^inf |cf| and the supersmooth constant
    # B = 2 int_0^inf exp(gamma t^2) |cf|, both in one quadrature pass;
    # past 30/s_min (40/s_min) the integrands are below exp(-400)
    from .risk import gauss_panels, panel_edges

    gamma = s_min * s_min / 4.0
    a_end, b_end = 30.0 / s_min, 40.0 / s_min

    def setup_integrands(t):
        mod = np.abs(cf(t))
        return np.stack((np.where(t <= a_end, mod, 0.0),
                         np.exp(gamma * t * t) * mod))

    q = gauss_panels(setup_integrands,
                     panel_edges(0.0, b_end, float(np.ptp(mus)), [a_end]),
                     np.full(2, 1e-13 / s_min))
    # both enter upper bounds, so each carries its error estimate
    a_p = float(q.value[0] + q.error[0]) / math.pi
    b_const = 2.0 * float(q.value[1] + q.error[1])

    # |cf|^2 = sum_jk w_j w_k exp(i d t - r^2 t^2), d = mu_j - mu_k,
    # r^2 = (s_j^2 + s_k^2)/2, whose tails are Faddeeva functions:
    # int_T^inf exp(i d t - r^2 t^2) dt = sqrt(pi)/(2r) exp(i d T - r^2 T^2)
    #                                     * w(i r T + d/(2r))
    pair_w = (w[:, None] * w[None, :]).ravel()
    pair_d = (mus[:, None] - mus[None, :]).ravel()
    pair_r = np.sqrt(0.5 * (sig[:, None] ** 2 + sig[None, :] ** 2)).ravel()
    cf_sq_int = float(
        np.sum(pair_w * (_SQRT_PI / pair_r) * np.exp(-0.25 * (pair_d / pair_r) ** 2))
    )

    def cf_sq_tail(T):
        T = max(T, 0.0)
        if T == 0.0:
            return cf_sq_int
        z = 1j * pair_r * T + 0.5 * pair_d / pair_r
        terms = np.exp(1j * pair_d * T - (pair_r * T) ** 2) * wofz(z)
        return max(0.0, float(np.sum(pair_w * (_SQRT_PI / pair_r) * terms.real)))

    def cf_abs_tail(T):
        # certified upper estimate via the component envelope
        T = max(T, 0.0)
        return float(
            np.sum(w * (_SQRT_2PI / sig) * erfc(sig * T / math.sqrt(2.0)))
        )

    def sampler(rng, size):
        idx = rng.choice(w.size, size=size, p=w)
        return rng.normal(mus[idx], sig[idx])

    return DensityModel(
        name="mixture",
        params={"weights": list(map(float, w)), "means": list(map(float, mus)),
                "sigmas": list(map(float, sig))},
        pdf=pdf,
        cf=cf,
        variation=variation,
        sup_bound=sup_p,
        a_p=a_p,
        supersmooth=(2.0, gamma, b_const),
        cf_cutoff=None,
        unimodal=False,
        cf_sq_integral=cf_sq_int,
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=cf_abs_tail,
        pdf_deriv=pdf_deriv,
        sampler=sampler,
        support_hint=(lo, hi),
        cf_phases=(float(mus.min()), float(mus.max())),
    )


def _make_uniform(a: float = 0.0, b: float = 1.0) -> DensityModel:
    if not b > a:
        raise ValueError("uniform density needs b > a")
    a, b = float(a), float(b)
    w = b - a
    c = 0.5 * (a + b)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), 1.0 / w, 0.0)

    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * c * t) * np.sinc(w * t / (2.0 * math.pi))

    def cf_sq_tail(T):
        T = max(T, 0.0)
        if T == 0.0:
            return 2.0 * math.pi / w
        si, _ = sici(w * T)
        x = 0.5 * w * T
        return (4.0 / w) * (0.5 * math.pi - float(si) + math.sin(x) ** 2 / x)

    def sampler(rng, size):
        return rng.uniform(a, b, size)

    return DensityModel(
        name="uniform",
        params={"a": a, "b": b},
        pdf=pdf,
        cf=cf,
        variation={0: 2.0 / w},
        sup_bound=1.0 / w,
        a_p=None,
        supersmooth=None,
        cf_cutoff=None,
        unimodal=True,
        cf_sq_integral=2.0 * math.pi / w,
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=None,
        pdf_deriv=None,
        sampler=sampler,
        support_hint=(a, b),
        cf_phases=(a, b),
        # (exp(i b t) - exp(i a t)) / (i w t) for every t > 0
        tail_terms=(0.0, ((1.0 / (1j * w), b, 1), (-1.0 / (1j * w), a, 1))),
    )


def _make_laplace(scale: float = 1.0, mu: float = 0.0) -> DensityModel:
    if scale <= 0:
        raise ValueError("scale must be positive")
    b, m0 = float(scale), float(mu)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x - m0) / b) / (2.0 * b)

    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * m0 * t) / (1.0 + (b * t) ** 2)

    def cf_sq_tail(T):
        T = max(T, 0.0)
        u = b * T
        return (1.0 / b) * (0.5 * math.pi - math.atan(u) - u / (1.0 + u * u))

    def cf_abs_tail(T):
        T = max(T, 0.0)
        return (2.0 / b) * (0.5 * math.pi - math.atan(b * T))

    def sampler(rng, size):
        return rng.laplace(m0, b, size)

    return DensityModel(
        name="laplace",
        params={"scale": b, "mu": m0},
        pdf=pdf,
        cf=cf,
        # V(p) = 2 sup p; V(p') counts the slope jump at the mode
        variation={0: 1.0 / b, 1: 2.0 / b ** 2},
        sup_bound=1.0 / (2.0 * b),
        a_p=1.0 / (2.0 * b),
        supersmooth=None,
        cf_cutoff=None,
        unimodal=True,
        cf_sq_integral=0.5 * math.pi / b,
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=cf_abs_tail,
        pdf_deriv=None,
        sampler=sampler,
        support_hint=(m0 - 40.0 * b, m0 + 40.0 * b),
        cf_phases=(m0, m0),
    )


def _fejer_variation0() -> float:
    """Total variation of the Fejer density.

    The density has zeros at 2 k pi and secondary maxima at the roots of
    tan(theta) = theta (theta = x / 2), where p = 1 / (2 pi (1 + theta^2)).
    The variation is 2 p(0) + 4 sum_k p(x_k); the remaining tail of the sum
    is evaluated with the trigamma function and bounded above: with
    a = (k + 1/2) pi and 1 + theta^2 >= a^2 - 2, each term exceeds 1/a^2 by
    at most 3/a^4, which sums to at most 1/(pi^4 K^3) past K.
    """
    K = 2000
    k = np.arange(1, K + 1)
    nu = (k + 0.5) * np.pi
    # Newton for sin(theta) - theta cos(theta) = 0, seeded at nu - 1/nu
    theta = nu - 1.0 / nu
    for _ in range(5):
        theta = theta - (np.sin(theta) - theta * np.cos(theta)) / (theta * np.sin(theta))
    ssum = float(np.sum(1.0 / (1.0 + theta * theta)))
    tail = float(polygamma(1, K + 1.5)) / math.pi ** 2 + 1.0 / (math.pi ** 4 * K ** 3)
    return (1.0 + 2.0 * (ssum + tail)) / math.pi


def _make_fejer() -> DensityModel:
    def pdf(x):
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < 0.05
        xs = np.where(small, 1.0, x)
        exact = 2.0 * np.sin(0.5 * xs) ** 2 / (math.pi * xs * xs)
        x2 = x * x
        series = (0.5 - x2 / 24.0 + x2 * x2 / 720.0) / math.pi
        return np.where(small, series, exact)

    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(t)) + 0.0j

    def cf_sq_tail(T):
        T = max(T, 0.0)
        if T >= 1.0:
            return 0.0
        return 2.0 * (1.0 - T) ** 3 / 3.0

    def cf_abs_tail(T):
        T = max(T, 0.0)
        if T >= 1.0:
            return 0.0
        return (1.0 - T) ** 2

    def sampler(rng, size):
        out = np.empty(int(size), dtype=float)
        filled = 0
        while filled < out.size:
            m = max(128, int((out.size - filled) * 1.8))
            pick_center = rng.random(m) < 0.5
            xc = rng.uniform(-2.0, 2.0, m)
            # |X| = 2/U has density 2/x^2 on (2, inf); U in (0, 1]
            xt = 2.0 / (1.0 - rng.random(m))
            xt = np.where(rng.random(m) < 0.5, xt, -xt)
            x = np.where(pick_center, xc, xt)
            env = np.minimum(1.0 / (2.0 * math.pi), 2.0 / (math.pi * np.maximum(x * x, 1e-300)))
            keep = rng.random(m) * env < pdf(x)
            acc = x[keep]
            take = min(acc.size, out.size - filled)
            out[filled : filled + take] = acc[:take]
            filled += take
        return out

    return DensityModel(
        name="fejer",
        params={},
        pdf=pdf,
        cf=cf,
        variation={0: _fejer_variation0()},
        sup_bound=1.0 / (2.0 * math.pi),
        a_p=1.0 / (2.0 * math.pi),
        supersmooth=(1.0, 1.0, 2.0 * (math.e - 2.0)),
        cf_cutoff=1.0,
        unimodal=False,
        cf_sq_integral=2.0 / 3.0,
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=cf_abs_tail,
        pdf_deriv=None,
        sampler=sampler,
        support_hint=(-150.0, 150.0),
    )


def make_density(name: str, **params) -> DensityModel:
    """Construct a built-in density model.

    Parameters
    ----------
    name : {"normal", "mixture", "uniform", "laplace", "fejer"}
    **params
        normal: sigma (default 1), mu (default 0)
        mixture: weights, means, sigmas (equal-length sequences)
        uniform: a, b (default 0, 1)
        laplace: scale (default 1), mu (default 0)
        fejer: no parameters
    """
    if name == "normal":
        return _make_normal(**params)
    if name == "mixture":
        return _make_mixture(**params)
    if name == "uniform":
        return _make_uniform(**params)
    if name == "laplace":
        return _make_laplace(**params)
    if name == "fejer":
        if params:
            raise ValueError("fejer density takes no parameters")
        return _make_fejer()
    raise ValueError(
        "unknown density %r, expected one of %s" % (name, ", ".join(BUILTIN_DENSITIES))
    )
