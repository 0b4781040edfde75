"""Kernel models for Fourier-side density estimation.

A kernel is described by its spatial form K and its Fourier transform
phi(t) = int exp(i t x) K(x) dx, together with the scalar functionals the
risk formulas consume:

    mu1        int |x| K(x) dx
    mu2        int x^2 K(x) dx
    roughness  int K(x)^2 dx
    a_value    (2 pi)^(-1) int |phi(t)| dt, inf when the integral diverges

The polynomial kernels, epanechnikov and uniform, have every field derived
exactly from the coefficients of K on [-1, 1].  The sinc kernel sin(x)/(pi x)
lives in the same container even though it is not a probability density;
its moment functionals are undefined (None).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import sici

__all__ = [
    "KernelModel",
    "BUILTIN_KERNELS",
    "make_builtin",
    "scaled_eval",
    "kernel_from_functions",
]

BUILTIN_KERNELS = ("gaussian", "epanechnikov", "uniform", "sinc")

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
# exp(-u^2/2) = 2^-53 at u = sqrt(106 ln 2), about 8.572
_GAUSS_REACH = math.sqrt(106.0 * math.log(2.0))


@dataclass(frozen=True)
class KernelModel:
    """Container for a kernel and its Fourier-side description.

    Attributes
    ----------
    name : str
    eval : callable
        Vectorized spatial form K(x).
    cf : callable
        Fourier transform phi(t), real-valued for the built-ins.
    one_minus_cf : callable
        1 - phi(t), computed stably for small t.
    sq_cf : callable or None
        Fourier transform of K^2; equals roughness at t = 0.
    selfconv : callable or None
        Self-convolution (K * K)(u), used by cross-validation.
    cf_sup_tail : callable or None
        u -> an upper bound for sup_{|v| >= u} |phi(v)|, used to certify
        quadrature truncation.
    mu1, mu2 : float or None
        Absolute first moment and second moment; None for the sinc kernel.
    roughness : float
        int K^2.
    a_value : float
        (2 pi)^(-1) int |phi|; may be inf (uniform kernel).
    is_density : bool
    is_sinc : bool
    zero_mean : bool
        True when int x K(x) dx = 0.
    support : float
        Half-width of the support of K (K vanishes for |x| > support); inf
        when K has unbounded support.
    reach : float
        Half-width of the window the estimate sums over: |K(u)| <= 2^-53 K(0)
        for |u| > reach, so the terms left out move the estimate by at most
        2^-53 K(0)/h.  Equals support for a compact K; inf when no such
        window is known (sinc, kernel_from_functions).
    poly : pair of tuples of float, or None
        For the polynomial kernels: the coefficients of K on [0, support]
        and of K*K on [0, 2 support], lowest degree first.  The pair route
        of the UCV criterion then sums each pair once for the whole
        bandwidth grid (selector._ucv_curve).  None for every other kernel.
    tail_terms : (u0, ((c, a, p), ...)) or None
        For the polynomial kernels: phi(u) = sum c exp(i a u) u^(-p) exactly
        for u >= u0 (c complex, a real, p a positive integer).  With the
        density's own terms it lets the integrated and the pointwise risk
        take the tail past a cutoff exactly (risk.exact_mise,
        risk.exact_bias).  None for every other kernel.
    sq_tail_terms : (u0, ((c, a, p), ...)) or None
        The same for sq_cf, the transform of K^2 (risk.exact_mse).
    """

    name: str
    eval: Callable
    cf: Callable
    one_minus_cf: Callable
    sq_cf: Optional[Callable]
    selfconv: Optional[Callable]
    cf_sup_tail: Optional[Callable]
    mu1: Optional[float]
    mu2: Optional[float]
    roughness: float
    a_value: float
    is_density: bool
    is_sinc: bool
    zero_mean: bool
    support: float = math.inf
    reach: float = math.inf
    poly: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None
    tail_terms: Optional[Tuple[float, Tuple[Tuple[complex, float, int], ...]]] = None
    sq_tail_terms: Optional[Tuple[float, Tuple[Tuple[complex, float, int], ...]]] = None


def _check_h(h: float) -> None:
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("bandwidth must be positive and finite, got %r" % (h,))


def _check_count(name: str, value: int) -> None:
    # a sample size or an order from 1 to 2^53, past which a float no
    # longer tells consecutive integers apart
    if not 1 <= value <= 2 ** 53:
        raise ValueError("%s must be an integer from 1 to 2^53, not %r" % (name, value))


def scaled_eval(kernel: KernelModel, h: float, x):
    """Evaluate the rescaled kernel K_h(x) = K(x / h) / h.

    Parameters
    ----------
    kernel : KernelModel
    h : float
        Bandwidth, must be positive and finite.
    x : array_like

    Returns
    -------
    ndarray or float
    """
    _check_h(h)
    x = np.asarray(x, dtype=float)
    return kernel.eval(x / h) / h


# ---------------------------------------------------------------------------
# built-in kernels

def _gauss_eval(x):
    # exp(-x^2/2)/sqrt(2 pi) in place on the one new array x*x, bit for bit
    # the out-of-place arithmetic; a scalar x gives a scalar
    u = np.square(np.asarray(x, dtype=float))
    u *= -0.5
    u = np.exp(u, out=u if u.ndim else None)
    u /= _SQRT_2PI
    return u


def _gauss_cf(t):
    return np.exp(-0.5 * np.asarray(t, dtype=float) ** 2)


def _gauss_om(t):
    return -np.expm1(-0.5 * np.asarray(t, dtype=float) ** 2)


def _gauss_sqcf(t):
    return np.exp(-0.25 * np.asarray(t, dtype=float) ** 2) / (2.0 * _SQRT_PI)


def _sinc_eval(x):
    return np.sinc(np.asarray(x, dtype=float) / np.pi) / np.pi


def _sinc_cf(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, 1.0, 0.0)


def _sinc_om(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, 0.0, 1.0)


def _sinc_sqcf(t):
    t = np.asarray(t, dtype=float)
    return np.maximum(0.0, 2.0 - np.abs(t)) / (2.0 * math.pi)


def _sinc_sup_tail(u):
    u = np.asarray(u, dtype=float)
    return np.where(u > 1.0, 0.0, 1.0)


def _tan_roots(count: int) -> np.ndarray:
    """The first count positive roots of tan z = z, by four Newton steps on
    sin z - z cos z from (k + 1/2) pi - 1/((k + 1/2) pi), k = 1..count."""
    nu = (np.arange(1, count + 1) + 0.5) * np.pi
    z = nu - 1.0 / nu
    for _ in range(4):
        z = z - (np.sin(z) - z * np.cos(z)) / (z * np.sin(z))
    return z


# ---------------------------------------------------------------------------
# polynomial kernels: K = P on [-1, 1] for an even polynomial P.  Their
# transforms are sum_p d[p] trig(u) / u^p, trig = sin for odd p, cos for even p.

# int_z^inf |sin u| g(u) du <= (2/pi) int_z^inf g + _LOBE_EXCESS g(z) for g
# decreasing to 0, and the same with |cos u|: by parts, as the antiderivative
# of |sin u| - 2/pi stays within +-(sin v - 2v/pi) at cos v = 2/pi
_LOBE_EXCESS = 2.0 * (math.sqrt(1.0 - 4.0 / math.pi ** 2) - 2.0 * math.acos(2 / math.pi) / math.pi)


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k, leaving out the additions of zero coefficients."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x
        if c:
            acc = acc + c
    return acc


def _trig_sum(d, u, odd=np.sin, even=np.cos):
    """sum_p d[p] f(u) / u^p, f = odd for odd p and even for even p, u != 0."""
    w = 1.0 / u
    z = w * w
    v = odd(u) * w * _horner(d[1::2], z)
    return v + even(u) * z * _horner(d[2::2], z) if len(d) > 2 else v


def _series_or(series, far):
    """t -> the Taylor series in t^2 where |t| < 1, far(t) elsewhere."""
    def transform(t):
        t = np.asarray(t, dtype=float)
        small = np.abs(t) < 1.0
        out = np.empty(t.shape)
        out[small] = _horner(series, t[small] ** 2)
        out[~small] = far(t[~small])
        return out
    return transform


def _moment(c, k):
    """int_0^1 x^k P(x) dx for the coefficients c of P."""
    return sum(ci / (i + k + 1) for i, ci in enumerate(c))


def _cos_series(c) -> list:
    """Taylor coefficients in t^2 of int K(x) cos(tx) dx, (-1)^k m_2k / (2k)!:
    where |t| < 1 the first left out, m_22 t^22 / 22!, is below 1e-21 m_0."""
    return [float((-1) ** k * 2 * _moment(c, 2 * k) / math.factorial(2 * k)) for k in range(11)]


def _derivatives(c, x0) -> list:
    """P^(r)(x0) for r = 0 .. deg P."""
    return [sum(ck * math.perm(k, r) * x0 ** (k - r) for k, ck in enumerate(c) if k >= r)
            for r in range(len(c))]


def _selfconv_poly(c) -> list:
    """K*K on [0, 2] in u, rounded: with P(1 - s) = sum_i r_i s^i / i!, it is
    int_0^t P(1 - s) P(1 - t + s) ds = sum_k (r * r)_k t^(k+1) / (k+1)! at t = 2 - u."""
    r = [(-1) ** i * v for i, v in enumerate(_derivatives(c, 1))]
    g = [0] + [x / math.factorial(k + 1) for k, x in enumerate(np.convolve(r, r))]
    return [float((-1) ** m * v / math.factorial(m)) for m, v in enumerate(_derivatives(g, 2))]


def _abs_integral(cf, d) -> float:
    """(2 pi)^(-1) int |phi| for phi = cf = sum_p d[p] trig(u) / u^p, d[1] = 0:
    the antiderivative's increments between the roots of phi to 4501 pi, and a
    bound of the rest.  The roots are sign changes on the multiples of pi/2
    (those of the symmetric beta kernels' transforms lie over pi apart), then
    three Newton steps, as an increment's error is of second order in the roots'."""
    u = np.arange(1, 2 * 4501 + 1) * (math.pi / 2.0)
    v = cf(u)
    i = np.flatnonzero(np.sign(v[:-1]) != np.sign(v[1:]))
    z = u[i] + (math.pi / 2.0) * v[i] / (v[i] - v[i + 1])
    for _ in range(3):
        v = cf(z)
        z = z - 1e-7 * v / (cf(z + 1e-7) - v)
    # e[1] Si(u) + sum_p e[p] trig'(u) / u^p, trig' = cos for odd p, sin for
    # even: differentiated it gives d[p] = (-1)^p e[p] - (p - 1) e[p - 1], and
    # it is odd and bounded near 0, so 0 at 0, where the first lobe starts
    e = [0.0] * len(d)
    for p in range(len(d) - 1, 1, -1):
        e[p - 1] = ((-1) ** p * e[p] - d[p]) / (p - 1)
    f_at = e[1] * sici(z)[0] + _trig_sum(e, z, np.cos, np.sin)
    total = abs(f_at[0]) + np.sum(np.abs(np.diff(f_at)))
    tail = sum(abs(x) * (2.0 / math.pi * z[-1] ** (1 - p) / (p - 1) + _LOBE_EXCESS * z[-1] ** -p)
               for p, x in enumerate(d) if p > 1)
    return float(total + tail) / math.pi


def _exp_terms(d):
    """(0, ((c, a, p), ...)) of sum_p d[p] trig(u) / u^p, by
    sin u = (e^(iu) - e^(-iu)) / 2i and cos u = (e^(iu) + e^(-iu)) / 2."""
    return 0.0, tuple((x / 2 / 1j * s if p % 2 else x / 2, s, p)
                      for p, x in reversed(list(enumerate(d))) if x for s in (1.0, -1.0))


def _polynomial_kernel(name: str, coeffs) -> KernelModel:
    """The model of K = P on [-1, 1], zero outside, for the even polynomial P
    with the rational coefficients coeffs, lowest degree first.  Integrating
    2 int_0^1 P(x) cos(ux) dx by parts gives d[j + 1] = 2 (-1)^(j//2) P^(j)(1);
    the terms at x = 0 hold odd derivatives of P, which vanish."""
    c = np.array([Fraction(x) for x in coeffs], dtype=object)
    sq = np.convolve(c, c)
    d, d_sq = ([0.0] + [float(2 * (-1) ** (j // 2) * v) for j, v in enumerate(_derivatives(q, 1))]
               for q in (c, sq))
    poly = tuple(float(x) for x in c)
    series = _cos_series(c)
    conv = _selfconv_poly(c)

    def eval_(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return np.where(ax <= 1.0, _horner(poly, ax), 0.0)

    def selfconv(u):
        # K*K vanishes at 2 itself, where the rounding of the sum need not
        u = np.abs(np.asarray(u, dtype=float))
        inside = u < 2.0
        return np.where(inside, _horner(conv, np.where(inside, u, 0.0)), 0.0)

    cf = _series_or(series, lambda t: _trig_sum(d, t))
    return KernelModel(
        name=name,
        eval=eval_,
        cf=cf,
        one_minus_cf=_series_or([1.0 - series[0]] + [-s for s in series[1:]],
                                lambda t: 1.0 - _trig_sum(d, t)),
        sq_cf=_series_or(_cos_series(sq), lambda t: _trig_sum(d_sq, t)),
        selfconv=selfconv,
        # |phi| <= 1 where |u| < 1, and <= sum_p |d[p]| / |u|^p
        cf_sup_tail=_series_or([1.0], lambda u: np.minimum(1, _horner(np.abs(d), 1 / np.abs(u)))),
        mu1=float(2 * _moment(c, 1)),
        mu2=float(2 * _moment(c, 2)),
        roughness=float(2 * _moment(sq, 0)),
        # a 1/u term leaves int |phi| infinite
        a_value=math.inf if d[1] else _abs_integral(cf, d),
        is_density=2 * _moment(c, 0) == 1,
        is_sinc=False,
        zero_mean=True,
        support=1.0,
        reach=1.0,
        poly=(poly, tuple(conv)),
        tail_terms=_exp_terms(d),
        sq_tail_terms=_exp_terms(d_sq),
    )


_CACHE: dict = {}


def make_builtin(name: str) -> KernelModel:
    """Construct one of the built-in kernels by name.

    Parameters
    ----------
    name : {"gaussian", "epanechnikov", "uniform", "sinc"}

    Returns
    -------
    KernelModel
    """
    if name in _CACHE:
        return _CACHE[name]
    if name == "gaussian":
        model = KernelModel(
            name="gaussian",
            eval=_gauss_eval,
            cf=_gauss_cf,
            one_minus_cf=_gauss_om,
            sq_cf=_gauss_sqcf,
            selfconv=_gauss_sqcf,
            cf_sup_tail=_gauss_cf,
            mu1=math.sqrt(2.0 / math.pi),
            mu2=1.0,
            roughness=1.0 / (2.0 * _SQRT_PI),
            a_value=1.0 / _SQRT_2PI,
            is_density=True,
            is_sinc=False,
            zero_mean=True,
            reach=_GAUSS_REACH,
        )
    elif name == "epanechnikov":
        model = _polynomial_kernel(name, (Fraction(3, 4), Fraction(0), Fraction(-3, 4)))
    elif name == "uniform":
        model = _polynomial_kernel(name, (Fraction(1, 2),))
    elif name == "sinc":
        model = KernelModel(
            name="sinc",
            eval=_sinc_eval,
            cf=_sinc_cf,
            one_minus_cf=_sinc_om,
            sq_cf=_sinc_sqcf,
            selfconv=_sinc_eval,
            cf_sup_tail=_sinc_sup_tail,
            mu1=None,
            mu2=None,
            roughness=1.0 / math.pi,
            a_value=1.0 / math.pi,
            is_density=False,
            is_sinc=True,
            zero_mean=True,
        )
    else:
        raise ValueError(
            "unknown kernel %r, expected one of %s" % (name, ", ".join(BUILTIN_KERNELS))
        )
    _CACHE[name] = model
    return model


def _on_arrays(fn):
    """x -> fn(x) as a float array: one call on the whole array where, on a
    probe, that gives its scalar calls' values to 1e-15; else value by value."""
    call = np.vectorize(fn, otypes=[float])
    probe = np.linspace(-3.0, 40.0, 14).reshape(2, 7)
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, want = np.asarray(fn(probe), dtype=float), call(probe)
        if got.shape == want.shape and np.allclose(got, want, rtol=1e-15, atol=0, equal_nan=True):
            call = fn
    except Exception:  # the array call failed: value by value
        pass
    return lambda x: np.asarray(call(x), dtype=float)


def kernel_from_functions(
    name: str,
    eval_fn: Callable,
    cf_fn: Callable,
    sq_cf: Optional[Callable] = None,
    selfconv: Optional[Callable] = None,
) -> KernelModel:
    """Build a KernelModel from a (spatial form, Fourier transform) pair.

    The scalar functionals are computed by quadrature.  The kernel is
    assumed symmetric about zero; a_value falls back to inf when int |phi|
    does not converge numerically.  eval_fn and cf_fn take whole arrays where
    a probe shows that they can (_on_arrays).
    """
    # imported here, its one user: at module level scipy.integrate would load
    # scipy.optimize and scipy.linalg into every process that imports cfkde
    from scipy import integrate

    cf = _on_arrays(cf_fn)
    mu1, _ = integrate.quad(lambda x: abs(x) * float(eval_fn(x)), -np.inf, np.inf, limit=400)
    mu2, _ = integrate.quad(lambda x: x * x * float(eval_fn(x)), -np.inf, np.inf, limit=400)
    rough, _ = integrate.quad(lambda x: float(eval_fn(x)) ** 2, -np.inf, np.inf, limit=400)
    mass, _ = integrate.quad(lambda x: float(eval_fn(x)), -np.inf, np.inf, limit=400)
    mean, _ = integrate.quad(lambda x: x * float(eval_fn(x)), -np.inf, np.inf, limit=400)
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            a_int, a_err = integrate.quad(
                lambda t: abs(float(cf_fn(t))), 0.0, np.inf, limit=800
            )
        a_value = a_int / math.pi if a_err < 1e-4 * max(1.0, a_int) else math.inf
    except Exception:
        a_value = math.inf
    is_density = abs(mass - 1.0) < 1e-8
    return KernelModel(
        name=name,
        eval=_on_arrays(eval_fn),
        cf=cf,
        one_minus_cf=lambda t: 1.0 - cf(t),
        sq_cf=sq_cf,
        selfconv=selfconv,
        cf_sup_tail=None,
        mu1=float(mu1),
        mu2=float(mu2),
        roughness=float(rough),
        a_value=float(a_value),
        is_density=is_density,
        is_sinc=False,
        zero_mean=abs(mean) < 1e-10,
    )
