"""Density models, empirical characteristic functions, and envelopes.

A DensityModel packages a target density p together with the Fourier-side
quantities the exact-risk and bound formulas need:

    cf(t)            characteristic function (complex)
    variation[m]     V(p^(m)) = int |p^(m+1)|, for the orders where finite
    sup_bound        sup_x p(x)
    a_p              (2 pi)^(-1) int |cf|, None when int |cf| diverges
    supersmooth      (alpha, gamma, B) with B = int exp(gamma |t|^alpha)|cf| < inf
    cf_cutoff        tau with cf = 0 for |t| > tau (band-limited case)
    cf_sq_tail(T)    int_{|t| >= T} |cf|^2, exact or near-exact; T <= 0 gives
                     int |cf|^2
    cf_abs_tail(T)   int_{|t| >= T} |cf|, None when divergent; both tails
                     take a float or an array of T, elementwise
    cf_phases        (lo, hi): cf is a finite sum of exp(i a t) g(t) with
                     lo <= a <= hi and each g free of oscillation; sets the
                     width of the transform-side quadrature panels
    tail_terms       (t0, ((c, a, p), ...)): cf(t) = sum c exp(i a t) t^(-p)
                     for t >= t0, exactly or to within rounding (c complex,
                     a real, p a positive integer), or None; lets the
                     integrated and the pointwise risk take the transform's
                     tail past a cutoff exactly (risk.exact_mise,
                     risk.exact_bias): the uniform density's two terms, and
                     the Laplace density's series of 1/(1 + b^2 t^2) in
                     (b t)^-2, whose omitted terms are below (b t)^-18 of
                     |cf| for t >= 8/b
    cf_kinks         points t > 0 that include every kink of |cf| (the
                     zeros of cf) where |cf| is not negligible: the
                     mixture's local minima of |cf| up to 40/min(sigma),
                     () for the other models; the quadrature panels of
                     int |cf| and of the lemma-1 bias factor
                     (risk._abs_bias_factor) break there

Constants are computed at construction and stored at full precision, each
as an upper value, so that bounds built on them stay upper bounds.  The
normal and mixture V_m are increments plus a rounding bound: the sum of
|p^(m)| increments between the sign changes of p^(m+1), plus a bound on the
rounding of those values; a_p and B are a quadrature value plus its error.

ecf_panel_sums is the one panel layer of the transform side: the nodes and
weights of a rule on equal panels (12-point Gauss-Legendre by default, or
the midpoint rule) and the factored sums of the empirical characteristic
function there, which the sinc estimate (estimator) and the UCV criterion's
transform route (selector) integrate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy.special import erfc, eval_hermitenorm, polygamma, sici, wofz

from .kernels import KernelModel, _tan_roots

__all__ = [
    "DensityModel",
    "Sample",
    "BUILTIN_DENSITIES",
    "make_density",
    "as_sample",
    "ecf",
    "ecf_sq_unbiased",
    "ecf_panel_sums",
    "cf_envelope",
    "one_minus_cf_bound",
]

BUILTIN_DENSITIES = ("normal", "mixture", "uniform", "laplace", "fejer")

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
_EPS = float(np.finfo(float).eps)
# Elements per temporary array of the blocked sums here, in estimator and in
# selector: 256 KiB, which stays in a core's L2 cache.
_BLOCK = 1 << 15
# The 12-point Gauss-Legendre rule on [-1, 1]: ecf_panel_sums' panels, the
# selector's partial panels and the lower rule of risk.gauss_panels.
_X12, _W12 = np.polynomial.legendre.leggauss(12)
# The midpoint rule on [-1, 1]: one node at the centre, weight 2.
_MIDPOINT = (np.zeros(1), np.full(1, 2.0))


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
    cf_sq_tail: Callable
    cf_abs_tail: Optional[Callable]
    pdf_deriv: Optional[Callable]
    sampler: Optional[Callable]
    support_hint: Tuple[float, float]
    cf_phases: Tuple[float, float] = (0.0, 0.0)
    tail_terms: Optional[Tuple[float, Tuple[Tuple[complex, float, int], ...]]] = None
    cf_kinks: Tuple[float, ...] = ()


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
                   rule: Tuple[np.ndarray, np.ndarray] = (_X12, _W12)
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Sums of cos(t x_j) and sin(t x_j) at the nodes of a rule on equal panels.

    The values are centred first, x_j - c with c the midpoint of their
    range: the rounding of the phases grows with |t x|.  rule holds the
    node offsets in [-1, 1] and the weights of one panel: by default the
    12-point Gauss-Legendre rule, and _MIDPOINT, offset 0 with weight 2, for
    the midpoint rule.  Returns (t, w, re, im, c): the nodes t and weights w
    of the panels [p width, (p + 1) width), p < panels, and the sums re and
    im at each node, all flat in panel order, and c.  With t = (p + 1/2)
    width + a, a the node's offset in its panel, p = b L + j and L about
    sqrt(panels), exp(i t x) factors into exp(i (b L + 1/2) width x)
    exp(i j width x) exp(i a x).  The block and the run phases are
    cumulative products of exp(i L width x) from exp(i width x/2) and of
    exp(i width x) from 1, so the trigonometric work per value is 6, plus 2
    per node of the rule when it has more than one, whose offsets are then
    added by real angle addition.  The sum over the values is four real
    matrix products per block of them, of the cos and sin of the block phase
    with the cos and sin of the combined phase.  The products stay real
    because a complex one of these thin shapes costs milliseconds each
    through threaded BLAS.  _ecf_panel_ops counts its operations.
    """
    x = np.asarray(x, dtype=float)
    center = 0.5 * (x.min() + x.max())
    x = x - center
    half = 0.5 * width
    offsets, weights = half * rule[0], half * rule[1]
    q = offsets.size
    run = max(1, round(math.sqrt(panels)))
    blocks = math.ceil(panels / run)
    cols = run * q
    re = np.zeros((blocks, cols))
    im = np.zeros((blocks, cols))
    chunk = max(1, _BLOCK // (blocks + cols))
    size = min(chunk, x.size)
    # the run and block phases, the cos and sin of the block phase and of the
    # combined phase, and the one temporary that forms the latter
    rp, bp = np.empty((run, size), complex), np.empty((blocks, size), complex)
    cb, sb = np.empty((blocks, size)), np.empty((blocks, size))
    co, so = np.empty((run, q, size)), np.empty((run, q, size))
    tmp = np.empty((run, q, size)) if q > 1 else None
    for s in range(0, x.size, chunk):
        xb = x[s:s + chunk]
        m = xb.size
        r, b = rp[:, :m], bp[:, :m]
        r[0] = 1.0
        r[1:] = np.exp(1j * width * xb)
        np.cumprod(r, axis=0, out=r)
        b[0] = np.exp(1j * half * xb)
        b[1:] = np.exp(1j * (run * width) * xb)
        np.cumprod(b, axis=0, out=b)
        c, d = co[..., :m], so[..., :m]
        if q > 1:
            ax = np.multiply.outer(offsets, xb)
            ca, sa = np.cos(ax), np.sin(ax)
            cj, sj, t = r.real[:, None, :], r.imag[:, None, :], tmp[..., :m]
            np.multiply(cj, ca, out=c)
            c -= np.multiply(sj, sa, out=t)
            np.multiply(sj, ca, out=d)
            d += np.multiply(cj, sa, out=t)
        else:
            np.copyto(c[:, 0], r.real)
            np.copyto(d[:, 0], r.imag)
        c, d = c.reshape(cols, m).T, d.reshape(cols, m).T
        bc, bs = cb[:, :m], sb[:, :m]
        np.copyto(bc, b.real)
        np.copyto(bs, b.imag)
        re += bc @ c - bs @ d
        im += bc @ d + bs @ c
    nodes = q * panels
    t = ((np.arange(panels) + 0.5)[:, None] * width + offsets).ravel()
    return (t, np.tile(weights, panels), re.ravel()[:nodes], im.ravel()[:nodes],
            float(center))


def _ecf_panel_ops(n: int, panels: int, q: int = _X12.size) -> float:
    # ecf_panel_sums' counted operations on n values with a q-node rule: the
    # cos and sin of the three unit phases and of the offsets, a quarter per
    # step of the cumulative products, and one per 16 node-value products
    # of the matrix products
    return 2 * n * (3 + (q if q > 1 else 0)) + n * math.sqrt(panels) / 2 + q * panels * n / 16


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

def _hermite(u, kmax: int, sign: float = -1.0) -> np.ndarray:
    """phi(u) He_k(u), k <= kmax, on a new first axis; with sign = +1, u >= 0:
    phi(u) A_k(u), He_k with positive coefficients, bounding every term."""
    h = np.empty((kmax + 1,) + np.shape(u))
    h[0] = np.exp(-0.5 * u * u) / _SQRT_2PI
    h[1:2] = u * h[0]
    for k in range(1, kmax):
        h[k + 1] = u * h[k] + sign * k * h[k - 1]
    return h


def _derivs(w, mus, sig, x, kmax: int, bound: bool = False):
    """p^(k)(x), k <= kmax, of the normal mixture, one weight mat-vec per order
    over (components x points); with bound, also a bound on their rounding:
    the recurrence's, the exponent's, the sum's, and u's times d/du."""
    mus, sig, order = mus[:, None], sig[:, None], np.arange(kmax + 1)[:, None]
    u = (x - mus) / sig
    coef = (w * (-1.0) ** order / sig[:, 0] ** (order + 1))[:, None, :]
    h = _hermite(u, kmax + bound)
    p = np.matmul(coef, h[:kmax + 1])[:, 0]
    if not bound:
        return p
    shift = np.abs(u) + (np.abs(x) + np.abs(mus)) / sig
    terms = ((3 * order[:, :, None] + 2 + w.size + u * u) * _hermite(np.abs(u), kmax, 1.0)
             + shift * np.abs(h[1:]))
    return p, _EPS * np.matmul(np.abs(coef), terms)[:, 0]


def _newton(fun, a, b, fa, fb) -> np.ndarray:
    """Roots in the brackets (a, b) of fun, which goes from fa to fb there, by
    safeguarded Newton from the secant point; fun(x, j) gives f and f' for the
    brackets j.  A root is done once |f/f'| or its bracket is a few ulps, so
    only the sign of an f above the rounding is read."""
    j, tol = np.arange(np.size(a)), 4.0 * _EPS * (np.abs(a) + np.abs(b))
    x = a - fa * (b - a) / (fb - fa)
    root, sign_a = x.copy(), np.sign(fa)
    for _ in range(100):
        if not j.size:
            break
        f, fp = fun(x, j)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / fp
        root[j] = x
        go = ~((f == 0.0) | (np.abs(step) <= tol) | (b - a <= tol))
        j, x, a, b, sign_a, tol, f, step = (
            v[go] for v in (j, x, a, b, sign_a, tol, f, step))
        left = np.sign(f) == sign_a
        a, b = np.where(left, x, a), np.where(left, b, x)
        x = x - step
        x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
    return root


def _variation(w, mus, sig, cuts) -> Dict[int, float]:
    """V_m = int |p^(m+1)| as the sum of |p^(m)| increments between cuts[m],
    every sign change of p^(m+1), sorted, past which p^(m) runs to 0; plus a
    bound on its rounding (a cut d off its root costs |p^(m+2)| d^2, less)."""
    sizes = [c.size for c in cuts]
    k = np.repeat(np.arange(len(cuts)), sizes)[None]
    val, err = (np.take_along_axis(v, k, 0)[0] for v in _derivs(
        w, mus, sig, np.concatenate(cuts), len(cuts) - 1, bound=True))
    stops = np.cumsum(sizes)[:-1]
    # each value enters two increments; then the differences and the sum
    return {m: float(np.sum(np.abs(np.diff(v, prepend=0.0, append=0.0))))
            * (1.0 + (v.size + 2) * _EPS) + 2.0 * float(np.sum(e))
            for m, (v, e) in enumerate(zip(np.split(val, stops), np.split(err, stops)))}


# V_m of the standard normal for m < 7, filled once per process
_NORMAL_VARIATION: Dict[int, float] = {}


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

    if not _NORMAL_VARIATION:  # the extrema of p^(m) are the roots of He_(m+1)
        _NORMAL_VARIATION.update(_variation(np.ones(1), np.zeros(1), np.ones(1), [
            np.sort(np.real(np.polynomial.hermite_e.hermeroots([0.0] * m + [1.0])))
            for m in range(1, 8)]))
    # the scaling rounds by at most m + 2 ulps, and stays an upper value
    variation = {m: v / s ** (m + 1) * (1.0 + (m + 3) * _EPS)
                 for m, v in _NORMAL_VARIATION.items()}

    def cf_sq_tail(T):
        return (_SQRT_PI / s) * erfc(s * np.maximum(T, 0.0))

    def cf_abs_tail(T):
        return (_SQRT_2PI / s) * erfc(s * np.maximum(T, 0.0) / math.sqrt(2.0))

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
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=cf_abs_tail,
        pdf_deriv=pdf_deriv,
        sampler=sampler,
        support_hint=(m0 - 10.0 * s, m0 + 10.0 * s),
        cf_phases=(m0, m0),
    )


def _make_mixture(weights, means, sigmas) -> DensityModel:
    w, mus, sig = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (weights, means, sigmas))
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
        return _derivs(w, mus, sig, x.ravel(), order)[order].reshape(x.shape)

    lo = float(np.min(mus - 10.0 * sig))
    hi = float(np.max(mus + 10.0 * sig))
    s_min = float(np.min(sig))

    # V_m = int |p^(m+1)| for m < 7 from the increments of p^(m) between the
    # sign changes of p^(m+1); past lo and hi every component's p^(m+1) has
    # the sign of its Gaussian tail, so the tails add |p^(m)(lo)|, |p^(m)(hi)|
    grid = np.linspace(lo, hi, 8193)
    # a component narrower than 64 cells gets 64 points per sigma of its own;
    # past 10 sigma of every component, p^(m) is below exp(-50) of its scale
    narrow = sig < 64.0 * (grid[1] - grid[0])
    grid = np.unique(np.concatenate([grid] + [np.linspace(m - 10.0 * s, m + 10.0 * s, 1281)
                                              for m, s in zip(mus[narrow], sig[narrow])]))
    p = _derivs(w, mus, sig, grid, 8)
    sgn = np.sign(p)
    k, i = np.nonzero((sgn[:, :-1] * sgn[:, 1:] < 0.0) & (np.arange(9)[:, None] > 0))

    def newton(k, a, b, fa, fb):  # roots of p^(k) in the brackets (a, b)
        return _newton(lambda x, j: np.take_along_axis(
            _derivs(w, mus, sig, x, 9), k[j] + np.array([[0], [1]]), 0), a, b, fa, fb)

    roots = newton(k, grid[i], grid[i + 1], p[k, i], p[k, i + 1])
    # Rolle guard: two roots of p^(m+1) in one cell put a root of p^(m+2)
    # between them; where p^(m+1) keeps its sign over the cell but not at
    # that root, the cell holds such a pair, bracketed on either side of it
    g = np.flatnonzero((k >= 2) & (sgn[k - 1, i] * sgn[k - 1, i + 1] > 0.0))
    mid = _derivs(w, mus, sig, roots[g], 7)[k[g] - 1, np.arange(g.size)]
    split = mid * sgn[k[g] - 1, i[g]] < 0.0
    kk, ig, rg, mid = k[g[split]] - 1, i[g[split]], roots[g[split]], mid[split]
    pair = newton(np.tile(kk, 2), np.append(grid[ig], rg), np.append(rg, grid[ig + 1]),
                  np.append(p[kk, ig], mid), np.append(mid, p[kk, ig + 1]))
    k, roots = np.concatenate((k, kk, kk)), np.concatenate((roots, pair))
    # a grid point where p^(m+1) is exactly 0 stays a cut
    cuts = [np.sort(np.concatenate(([lo, hi], roots[k == m + 1], grid[sgn[m + 1] == 0.0])))
            for m in range(7)]
    variation = _variation(w, mus, sig, cuts)
    # sup p: the largest p over its extrema, cuts[0], each with its rounding
    sup_p = float(np.max(np.add(*_derivs(w, mus, sig, cuts[0], 0, bound=True))))

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

    # |cf| has a kink wherever cf = 0, at a local minimum of |cf|; the minima
    # are where d|cf|^2/dt = 2 Re(cf' conj(cf)) turns from - to +, found on
    # 32 points per period 2 pi/ptp(mus) of |cf|^2, and become panel breaks,
    # here and in the lemma-1 bias factor (cf_kinks)
    def slope(t, _=None):
        z = 1j * mus[:, None] - (sig * sig)[:, None] * t
        e = w[:, None] * np.exp(1j * mus[:, None] * t - 0.5 * (sig[:, None] * t) ** 2)
        f, f1, f2 = e.sum(0), (z * e).sum(0), ((z * z - (sig * sig)[:, None]) * e).sum(0)
        return (f1 * f.conj()).real, (f2 * f.conj()).real + (f1 * f1.conj()).real

    ts = np.linspace(0.0, b_end, math.ceil(16.0 * b_end * float(np.ptp(mus)) / math.pi) + 1)
    d = np.concatenate([slope(c)[0] for c in np.array_split(ts, 1 + ts.size // _BLOCK)])
    i = np.flatnonzero((d[:-1] < 0.0) & (d[1:] > 0.0))
    kinks = _newton(slope, ts[i], ts[i + 1], d[i], d[i + 1])

    q = gauss_panels(setup_integrands,
                     panel_edges(0.0, b_end, float(np.ptp(mus)), [a_end, *kinks]),
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

    def cf_sq_tail(T):
        T = np.maximum(T, 0.0)[..., None]
        z = 1j * pair_r * T + 0.5 * pair_d / pair_r
        terms = np.exp(1j * pair_d * T - (pair_r * T) ** 2) * wofz(z)
        return np.maximum(0.0, np.sum(pair_w * (_SQRT_PI / pair_r) * terms.real, axis=-1))

    def cf_abs_tail(T):
        # certified upper estimate via the component envelope
        T = np.maximum(T, 0.0)[..., None]
        return np.sum(w * (_SQRT_2PI / sig) * erfc(sig * T / math.sqrt(2.0)), axis=-1)

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
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=cf_abs_tail,
        pdf_deriv=pdf_deriv,
        sampler=sampler,
        support_hint=(lo, hi),
        cf_phases=(float(mus.min()), float(mus.max())),
        cf_kinks=tuple(map(float, kinks)),
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
        T = np.maximum(T, 0.0)
        si, _ = sici(w * T)
        x = 0.5 * w * T
        # sin(x)^2/x, which is 0 at x = 0
        return (4.0 / w) * (0.5 * math.pi - si + np.sin(x) * np.sinc(x / math.pi))

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
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=None,
        pdf_deriv=None,
        sampler=sampler,
        support_hint=(a, b),
        cf_phases=(a, b),
        # (exp(i b t) - exp(i a t)) / (i w t) for every t > 0
        tail_terms=(0.0, ((1.0 / (1j * w), b, 1), (-1.0 / (1j * w), a, 1))),
    )


# x - sin x = x^3 sum_j (-1)^j x^(2j)/(2j + 3)!: for x < 1 the first term
# left out is below 6e-17 of the sum
_X_MINUS_SIN = tuple((-1.0) ** j / math.factorial(2 * j + 3) for j in range(8))


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

    def angle(T):
        # x = 2 arctan(1/(b T)), that is pi - 2 arctan(b T) without its cancellation
        return 2.0 * np.arctan2(1.0, b * np.maximum(T, 0.0))

    def cf_sq_tail(T):
        # int_{|t| >= T} dt/(1 + b^2 t^2)^2 = (x - sin x)/(2b); below x = 1,
        # where x - sin x cancels, its Taylor series
        x = angle(T)
        z = x * x
        series = x * z * np.polynomial.polynomial.polyval(z, _X_MINUS_SIN)
        return np.where(x < 1.0, series, x - np.sin(x)) / (2.0 * b)

    def cf_abs_tail(T):
        # int_{|t| >= T} dt/(1 + b^2 t^2) = x/b
        return angle(T) / b

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
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=cf_abs_tail,
        pdf_deriv=None,
        sampler=sampler,
        support_hint=(m0 - 40.0 * b, m0 + 40.0 * b),
        cf_phases=(m0, m0),
        # exp(i mu t) sum_k (-1)^(k-1) (b t)^(-2k), k = 1..9, for t >= 8/b
        tail_terms=(8.0 / b, tuple(((-1.0) ** (k - 1) * b ** (-2 * k), m0, 2 * k)
                                   for k in range(1, 10))),
    )


@functools.cache
def _fejer_variation0() -> float:
    """Total variation of the Fejer density, computed once per process.

    The density has zeros at 2 k pi and secondary maxima at the roots of
    tan(theta) = theta (theta = x / 2), where p = 1 / (2 pi (1 + theta^2)).
    The variation is 2 p(0) + 4 sum_k p(x_k); the remaining tail of the sum
    is evaluated with the trigamma function and bounded above: with
    a = (k + 1/2) pi and 1 + theta^2 >= a^2 - 2, each term exceeds 1/a^2 by
    at most 3/a^4, which sums to at most 1/(pi^4 K^3) past K.
    """
    K = 2000
    theta = _tan_roots(K)
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
        return 2.0 * np.clip(1.0 - T, 0.0, 1.0) ** 3 / 3.0

    def cf_abs_tail(T):
        return np.clip(1.0 - T, 0.0, 1.0) ** 2

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
        cf_sq_tail=cf_sq_tail,
        cf_abs_tail=cf_abs_tail,
        pdf_deriv=None,
        sampler=sampler,
        support_hint=(-150.0, 150.0),
    )


# The parameters of each built-in density: True for a sequence of numbers
# (one per mixture component; a single number is one component), False for
# a number.  The mixture needs all of its parameters.
_DENSITY_PARAMS = {
    "normal": {"sigma": False, "mu": False},
    "mixture": {"weights": True, "means": True, "sigmas": True},
    "uniform": {"a": False, "b": False},
    "laplace": {"scale": False, "mu": False},
    "fejer": {},
}


def _is_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


def _is_numbers(value) -> bool:
    if isinstance(value, np.ndarray):
        value = value.tolist() if value.ndim == 1 else None
    return isinstance(value, (list, tuple)) and len(value) > 0 and all(map(_is_number, value))


def _check_params(name: str, params: dict) -> None:
    kinds = _DENSITY_PARAMS[name]
    for key, value in params.items():
        if key not in kinds:
            raise ValueError("density %r takes %s; got %s" % (
                name, ", ".join(kinds) or "no parameters", key))
        if not (_is_number(value) or kinds[key] and _is_numbers(value)):
            raise ValueError("density parameter %s: %r is not %s" % (
                key, value, "a sequence of finite numbers" if kinds[key] else "a finite number"))
    if name == "mixture" and len(params) < len(kinds):
        raise ValueError("density 'mixture' needs %s" % ", ".join(kinds))


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

    A parameter of another name, a value that is not a finite number (or,
    for the mixture, a sequence of them) and a missing mixture parameter
    raise ValueError.
    """
    if name in _DENSITY_PARAMS:
        _check_params(name, params)
    if name == "normal":
        return _make_normal(**params)
    if name == "mixture":
        return _make_mixture(**params)
    if name == "uniform":
        return _make_uniform(**params)
    if name == "laplace":
        return _make_laplace(**params)
    if name == "fejer":
        return _make_fejer()
    raise ValueError(
        "unknown density %r, expected one of %s" % (name, ", ".join(BUILTIN_DENSITIES))
    )
