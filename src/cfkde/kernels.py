"""Kernel models for Fourier-side density estimation.

A kernel is described by its spatial form K and its Fourier transform
phi(t) = int exp(i t x) K(x) dx, together with the scalar functionals the
risk formulas consume:

    mu1        int |x| K(x) dx
    mu2        int x^2 K(x) dx
    roughness  int K(x)^2 dx
    a_value    (2 pi)^(-1) int |phi(t)| dt, inf when the integral diverges

The sinc kernel sin(x)/(pi x) lives in the same container even though it is
not a probability density; its moment functionals are undefined (None).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import integrate
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
        For a compact K whose K and K*K are polynomials in |u| on their
        supports: the coefficients of K on [0, support] and of K*K on
        [0, 2 support], lowest degree first.  The pair route of the UCV
        criterion then sums each pair once for the whole bandwidth grid
        (selector._ucv_curve).  None for every other kernel.
    tail_terms : (u0, ((c, a, p), ...)) or None
        phi(u) = sum c exp(i a u) u^(-p) exactly for u >= u0 (c complex, a
        real, p a positive integer); set for epanechnikov and uniform, whose
        transforms are trigonometric over powers.  With the density's own
        terms it lets the integrated risk take the tail past a cutoff
        exactly (risk.exact_mise).  None for every other kernel.
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


def scaled_eval(kernel: KernelModel, h: float, x):
    """Evaluate the rescaled kernel K_h(x) = K(x / h) / h.

    Parameters
    ----------
    kernel : KernelModel
    h : float
        Bandwidth, must be positive.
    x : array_like

    Returns
    -------
    ndarray or float
    """
    if h <= 0:
        raise ValueError("bandwidth h must be positive, got %r" % (h,))
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


def _gauss_selfconv(u):
    return np.exp(-0.25 * np.asarray(u, dtype=float) ** 2) / (2.0 * _SQRT_PI)


def _gauss_sup_tail(u):
    return np.exp(-0.5 * np.asarray(u, dtype=float) ** 2)


def _epan_eval(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, 0.75 * (1.0 - x * x), 0.0)


# Taylor coefficients in u^2 of the compact kernels' transforms, used for
# |u| < 1 where the closed forms lose digits to cancellation; at |u| = 1 the
# first omitted term is below 1e-17, so the switch leaves no visible jump.
# 3 (sin u - u cos u)/u^3 = 3 sum_{k>=1} (-1)^(k+1) 2k u^(2k-2)/(2k+1)!
_EPAN_CF = np.array([3.0 * (-1) ** (k + 1) * 2 * k / math.factorial(2 * k + 1)
                     for k in range(1, 12)])
_EPAN_OM = np.concatenate(([0.0], -_EPAN_CF[1:]))
# 9 ((3 - u^2) sin u - 3u cos u)/u^5 = 9 sum_{k>=2} (-1)^k 4k(k-1) u^(2k-4)/(2k+1)!
_EPAN_SQCF = np.array([9.0 * (-1) ** k * 4 * k * (k - 1) / math.factorial(2 * k + 1)
                       for k in range(2, 14)])
# 1 - sin(u)/u = sum_{k>=1} (-1)^(k+1) u^(2k)/(2k+1)!
_UNIF_OM = np.array([0.0] + [(-1) ** (k + 1) / math.factorial(2 * k + 1)
                             for k in range(1, 11)])


def _series(t, coeffs, exact):
    """coeffs as a polynomial in t^2 where |t| < 1, exact(t) elsewhere."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 1.0
    out = np.empty(t.shape)
    out[small] = np.polynomial.polynomial.polyval(t[small] ** 2, coeffs)
    big = ~small
    out[big] = exact(t[big])
    return out


def _epan_cf(t):
    return _series(t, _EPAN_CF,
                   lambda u: 3.0 * (np.sin(u) - u * np.cos(u)) / u ** 3)


def _epan_om(t):
    return _series(t, _EPAN_OM,
                   lambda u: 1.0 - 3.0 * (np.sin(u) - u * np.cos(u)) / u ** 3)


def _epan_sqcf(t):
    return _series(t, _EPAN_SQCF,
                   lambda u: 9.0 * ((3.0 - u * u) * np.sin(u) - 3.0 * u * np.cos(u))
                   / u ** 5)


def _epan_selfconv(u):
    u = np.abs(np.asarray(u, dtype=float))
    inside = u <= 2.0
    us = np.where(inside, u, 0.0)
    val = 3.0 * (2.0 - us) ** 3 * (us * us + 6.0 * us + 4.0) / 160.0
    return np.where(inside, val, 0.0)


def _epan_sup_tail(u):
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        env = 3.0 * (1.0 + u) / np.where(u > 0, u, 1.0) ** 3
    return np.where(u > 0, np.minimum(1.0, env), 1.0)


def _unif_eval(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, 0.5, 0.0)


def _unif_cf(t):
    # sin(t)/t, stable via np.sinc
    return np.sinc(np.asarray(t, dtype=float) / np.pi)


def _unif_om(t):
    return _series(t, _UNIF_OM, lambda u: 1.0 - np.sin(u) / u)


def _unif_sqcf(t):
    return 0.5 * np.sinc(np.asarray(t, dtype=float) / np.pi)


def _unif_selfconv(u):
    u = np.abs(np.asarray(u, dtype=float))
    return np.where(u <= 2.0, (2.0 - u) / 4.0, 0.0)


def _unif_sup_tail(u):
    u = np.asarray(u, dtype=float)
    return np.where(u > 0, np.minimum(1.0, 1.0 / np.where(u > 0, u, 1.0)), 1.0)


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


def _epan_abs_cf_integral() -> float:
    """(2 pi)^(-1) int |phi| for the Epanechnikov kernel.

    phi = 3(sin u - u cos u)/u^3 has the antiderivative
    F(u) = 1.5 (Si(u) + cos(u)/u - sin(u)/u^2), so int |phi| is the sum of
    |F| increments between consecutive roots of tan(u) = u.  The remaining
    tail is added as a slight over-estimate, keeping every bound built on
    this value valid.
    """
    k = np.arange(1, 9000)
    nu = (k + 0.5) * np.pi
    z = nu - 1.0 / nu
    for _ in range(4):
        z = z - (np.sin(z) - z * np.cos(z)) / (z * np.sin(z))
    si, _ = sici(z)
    f_at = 1.5 * (si + np.cos(z) / z - np.sin(z) / z ** 2)
    # first lobe runs from 0 (where F = 0) to the first root
    lobes = np.abs(np.diff(f_at))
    total = abs(f_at[0]) + float(np.sum(lobes))
    z_last = float(z[-1])
    tail = (6.0 / math.pi) / z_last + 4.0 / z_last ** 2
    return (total + tail) / math.pi


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
            selfconv=_gauss_selfconv,
            cf_sup_tail=_gauss_sup_tail,
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
        model = KernelModel(
            name="epanechnikov",
            eval=_epan_eval,
            cf=_epan_cf,
            one_minus_cf=_epan_om,
            sq_cf=_epan_sqcf,
            selfconv=_epan_selfconv,
            cf_sup_tail=_epan_sup_tail,
            mu1=3.0 / 8.0,
            mu2=1.0 / 5.0,
            roughness=3.0 / 5.0,
            a_value=_epan_abs_cf_integral(),
            is_density=True,
            is_sinc=False,
            zero_mean=True,
            support=1.0,
            reach=1.0,
            # 0.75 (1 - u^2); 3 (2 - u)^3 (u^2 + 6u + 4)/160
            poly=((0.75, 0.0, -0.75), (0.6, 0.0, -0.75, 0.375, 0.0, -3.0 / 160.0)),
            # 3 sin u/u^3 - 3 cos u/u^2
            tail_terms=(0.0, ((1.5 / 1j, 1.0, 3), (-1.5 / 1j, -1.0, 3),
                              (-1.5, 1.0, 2), (-1.5, -1.0, 2))),
        )
    elif name == "uniform":
        model = KernelModel(
            name="uniform",
            eval=_unif_eval,
            cf=_unif_cf,
            one_minus_cf=_unif_om,
            sq_cf=_unif_sqcf,
            selfconv=_unif_selfconv,
            cf_sup_tail=_unif_sup_tail,
            mu1=0.5,
            mu2=1.0 / 3.0,
            roughness=0.5,
            a_value=math.inf,
            is_density=True,
            is_sinc=False,
            zero_mean=True,
            support=1.0,
            reach=1.0,
            # 1/2; (2 - u)/4
            poly=((0.5,), (0.5, -0.25)),
            # sin u/u
            tail_terms=(0.0, ((0.5 / 1j, 1.0, 1), (-0.5 / 1j, -1.0, 1))),
        )
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
    does not converge numerically.
    """
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
        eval=lambda x: np.asarray(np.vectorize(eval_fn)(x), dtype=float),
        cf=lambda t: np.asarray(np.vectorize(cf_fn)(t), dtype=float),
        one_minus_cf=lambda t: 1.0 - np.asarray(np.vectorize(cf_fn)(t), dtype=float),
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
