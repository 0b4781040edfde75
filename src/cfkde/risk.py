"""Exact finite-sample risk of kernel density estimates, in Fourier form.

For an estimate with kernel transform phi and bandwidth h, the pointwise
bias and the integrated squared error have closed Fourier expressions in
the target's characteristic function f:

    bias(x) = (2 pi)^(-1) int exp(-i t x) f(t) (phi(h t) - 1) dt
    mise    = (2 pi)^(-1) [ int |f|^2 |1 - phi(h t)|^2 dt
                            + n^(-1) int |phi(h t)|^2 (1 - |f|^2) dt ]

Every transform-side integral here goes through one vectorized engine,
``gauss_panels``: Gauss-Legendre panels one period of the fastest
oscillation wide, a 12-against-24-node error estimate per panel, adaptive
bisection of the panels that miss their share of the tolerance, and the
integrand evaluated a chunk of panels at a time.  The integration range
stops at one cutoff T from ``certified_cutoff``, where the model's
closed-form tail (cf_sq_tail, cf_abs_tail) times the kernel's sup-tail
bounds what is left to within RISK_RTOL of the integral's scale.  Where no
affordable T meets that (a transform decaying only algebraically, for
pointwise risk), the oscillatory tail past T is summed over half-periods
and extrapolated.  For the integrated risk, when the density and the
kernel both carry ``tail_terms`` (their transforms are sums of
c exp(i a t) t^-p past some t0: the uniform density, the uniform and
Epanechnikov kernels), the tail past T is not bounded but integrated
exactly, term by term, as c T^(1-p) E_p(-i a T), and T lies only a few
periods past t0.  Every report carries the accumulated numerical error,
the cutoff and the node count.  The sinc kernel's integrated risk is a
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Tuple, Union

import numpy as np
from scipy.special import digamma

from .charfun import DensityModel, Sample
from .estimator import kde_eval
from .kernels import KernelModel

__all__ = [
    "RISK_RTOL",
    "RiskReport",
    "Quadrature",
    "gauss_panels",
    "panel_edges",
    "certified_cutoff",
    "integrated_sq_bias",
    "exact_mise",
    "sinc_exact_mise",
    "exact_bias",
    "exact_mse",
    "mc_mise",
]

# Relative tolerance of every transform-side integral, against the scale of
# its integrand (int |f|^2 for integrated risk, int |f| for pointwise risk).
RISK_RTOL = 1e-13
# Node evaluations times integrands one integral may spend, and per call of
# the integrand; the second keeps memory flat however many panels there are.
_WORK = 1 << 23
_CHUNK = 1 << 15
_EPS = np.finfo(float).eps

_X12, _W12 = np.polynomial.legendre.leggauss(12)
_X24, _W24 = np.polynomial.legendre.leggauss(24)
_NODES = np.concatenate((_X12, _X24))
_PER_PANEL = _NODES.size


@dataclass(frozen=True)
class RiskReport:
    """A risk value together with its numerical-error budget.

    value, quad_error and degraded are arrays when the risk was asked for
    at an array of points.  cutoff is the transform-side cutoff T and
    nodes the number of quadrature nodes spent.
    """

    value: Union[float, np.ndarray]
    quad_error: Union[float, np.ndarray]
    truncation: float
    degraded: Union[bool, np.ndarray]
    cutoff: float
    nodes: int


class Quadrature(NamedTuple):
    """Values and error estimates of m integrals over the same panels."""

    value: np.ndarray
    error: np.ndarray
    nodes: int


def _degraded(value, quad_error):
    return quad_error > 1e-6 * np.maximum(1.0, np.abs(value))


def panel_edges(lo: float, hi: float, omega: float,
                breaks: Sequence[float] = ()) -> np.ndarray:
    """Edges of panels over [lo, hi], each at most one period 2 pi/omega wide.

    Every break inside (lo, hi) is an edge, so kinks and jumps of the
    integrand fall on panel boundaries.
    """
    points = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    width = 2.0 * math.pi / omega if omega > 0.0 else math.inf
    pieces = [np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)[:-1]
              for a, b in zip(points[:-1], points[1:])]
    return np.concatenate(pieces + [np.array([hi], dtype=float)])


def gauss_panels(fun: Callable, edges, tol) -> Quadrature:
    """Integrate m functions over the panels between consecutive edges.

    fun maps a 1-d array of nodes to an (m, nodes) array (or a 1-d array
    when m = 1).  tol holds the absolute tolerance of each integral over the
    whole range; a panel gets the share of it proportional to its width,
    but never less than a few ulps of its own magnitude.  Each panel is
    integrated with 12 and 24 Gauss-Legendre nodes; the 24-node value is
    kept and |Q24 - Q12| is its error estimate.  Panels that miss their
    share are bisected, until all pass or the next level would exceed the
    work budget (node evaluations times m); then the rest are kept with
    their error estimates, so the reported error stays honest.  The
    reported error also counts the ulp floor of every panel, the rounding
    that no rule can remove.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    tol = np.atleast_1d(np.asarray(tol, dtype=float))
    m = tol.size
    rate = tol / max(edges[-1] - edges[0], np.finfo(float).tiny)
    per_call = max(1, _CHUNK // (_PER_PANEL * m))
    value = np.zeros(m)
    error = np.zeros(m)
    nodes = 0
    while lo.size:
        final = (nodes + 3 * _PER_PANEL * lo.size) * m > _WORK
        redo = []
        for s in range(0, lo.size, per_call):
            a, b = lo[s:s + per_call], hi[s:s + per_call]
            half = 0.5 * (b - a)
            mid = 0.5 * (b + a)
            t = (mid[:, None] + half[:, None] * _NODES).ravel()
            v = np.asarray(fun(t), dtype=float).reshape(m, a.size, _PER_PANEL)
            q12 = (v[..., :12] @ _W12) * half
            q24 = (v[..., 12:] @ _W24) * half
            err = np.abs(q24 - q12)
            floor = 8.0 * _EPS * (np.abs(v[..., 12:]) @ _W24) * half
            ok = np.all(err <= np.maximum(rate[:, None] * (b - a), floor), axis=0)
            if final:
                ok[:] = True
            else:
                ok |= half <= 4.0 * _EPS * np.abs(mid)
            value += q24[:, ok].sum(axis=1)
            error += np.maximum(err, floor)[:, ok].sum(axis=1)
            if not ok.all():
                redo.append((a[~ok], b[~ok]))
        nodes += _PER_PANEL * lo.size
        if not redo:
            break
        a = np.concatenate([r[0] for r in redo])
        b = np.concatenate([r[1] for r in redo])
        mid = 0.5 * (a + b)
        lo, hi = np.concatenate((a, mid)), np.concatenate((mid, b))
    return Quadrature(value, error, nodes)


def certified_cutoff(cert: Callable[[float], float], tol: float,
                     start: float = 1.0, limit: float = math.inf) -> float:
    """Smallest T, to within 1%, with cert(T) <= tol for a decreasing cert.

    Doubles T from start until the certificate passes, then bisects in
    log T.  T never exceeds limit; cert(limit) may still exceed tol, and
    the caller accounts for what is left.
    """
    T = min(start, limit)
    if cert(T) <= tol:
        return T
    below = T
    while T < limit:
        T = min(2.0 * T, limit)
        if cert(T) <= tol:
            break
        below = T
    else:
        return limit
    while T > 1.01 * below:
        mid = math.sqrt(below * T)
        if cert(mid) <= tol:
            T = mid
        else:
            below = mid
    return T


def _cutoff_limit(omega: float, m: int) -> float:
    """Largest T whose starting panels fit in a quarter of the work budget."""
    panels = _WORK / (4.0 * _PER_PANEL * m)
    return panels * 2.0 * math.pi / omega if omega > 0.0 else math.inf


def _decay_breaks(tail: Callable[[float], float], T: float) -> list:
    """Panel breaks at s 2^k, k >= -3, below T, with tail(s) = tail(0)/2.

    The transform is concentrated within a few s of the origin, however
    slowly it oscillates; panels that fine there keep the first levels of
    refinement out of the pre-asymptotic regime.
    """
    s = certified_cutoff(tail, 0.5 * float(tail(0.0)), start=1e-3)
    return [s * 2.0 ** k for k in range(-3, 64) if s * 2.0 ** k < T]


def _sup_tail(kernel: KernelModel) -> Callable:
    """u -> sup_{|v| >= u} |phi(v)|, with 1 when the kernel carries no bound."""
    if kernel.cf_sup_tail is None:
        return lambda u: np.ones_like(np.asarray(u, dtype=float))
    return lambda u: np.asarray(kernel.cf_sup_tail(u), dtype=float)


# ---------------------------------------------------------------------------
# exact oscillatory tails


# E_p(-i y) comes from its power series up to |y| = _SERIES_REACH, where the
# terms are at most e^2 times the value and _SERIES_TERMS of them leave less
# than 1e-30; past it from the continued fraction, evaluated backward from
# depth 16 + 320/|y|, where it has converged to within an ulp (checked
# against mpmath for p <= 12 down to |y| = 1).
_SERIES_REACH = 2.0
_SERIES_TERMS = 36


def _expint(p, y):
    """E_p(-i y) = int_1^inf exp(i y s) s^(-p) ds, and a bound on its rounding.

    p holds integers >= 1 and y reals, broadcast together.  y = 0 gives the
    elementary 1/(p - 1) (divergent for p = 1, which raises); 0 < |y| <= 2
    the power series, E_p(z) = (-z)^(p-1) (psi(p) - ln z)/(p-1)!
    - sum_{k != p-1} (-z)^k / ((k - p + 1) k!), whose rounding is counted as
    a few ulps of the sum of its terms' moduli; larger |y| the continued
    fraction E_p(z) = e^-z / (z + p - p/(z + p + 2 - 2 (p + 1)/(z + p + 4 - ...)))
    (DLMF 8.19.17, Numerical Recipes 6.3), correct to a few ulps.
    """
    p, y = np.broadcast_arrays(np.asarray(p, dtype=int), np.asarray(y, dtype=float))
    p, y = p.ravel(), y.ravel()
    value = np.empty(y.size, dtype=complex)
    scale = np.empty(y.size)
    zero = y == 0.0
    if np.any(zero & (p == 1)):
        raise ValueError("int_T^inf t^-1 dt diverges")
    value[zero] = 1.0 / (p[zero] - 1.0)
    scale[zero] = value[zero].real
    small = ~zero & (np.abs(y) <= _SERIES_REACH)
    if small.any():
        n, ys = p[small], y[small]
        z = -1j * ys
        log_z = np.log(np.abs(ys)) - 0.5j * math.pi * np.sign(ys)
        total = np.where(n > 1, 1.0 / np.maximum(n - 1.0, 1.0),
                         -log_z - np.euler_gamma)
        moduli = np.abs(total)
        term = np.ones(z.size, dtype=complex)
        for k in range(1, _SERIES_TERMS):
            term = term * (-z / k)
            at_pole = k == n - 1
            piece = np.where(at_pole, term * (digamma(n) - log_z),
                             -term / np.where(at_pole, 1.0, k - n + 1.0))
            total = total + piece
            moduli = moduli + np.abs(piece)
        value[small] = total
        scale[small] = moduli
    big = ~zero & ~small
    if big.any():
        n, z = p[big].astype(float), -1j * y[big]
        depth = 16 + math.ceil(320.0 / float(np.min(np.abs(y[big]))))
        level = np.arange(depth + 1.0)[:, None]
        partial_den = z + n + 2.0 * level
        partial_num = -level * (n - 1.0 + level)
        tail = partial_den[depth]
        for i in range(depth, 0, -1):
            tail = partial_den[i - 1] + partial_num[i] / tail
        value[big] = np.exp(-z) / tail
        scale[big] = np.abs(value[big])
    return value, 16.0 * _EPS * scale


class _Terms(NamedTuple):
    """sum c exp(i a t) t^-p over the rows; slack bounds how far the
    computed phase a is from the exact one (0 for a model's own terms)."""

    c: np.ndarray
    a: np.ndarray
    p: np.ndarray
    slack: np.ndarray


def _terms(tail_terms) -> _Terms:
    c, a, p = (np.array(v) for v in zip(*tail_terms[1]))
    return _Terms(c.astype(complex), a.astype(float), p.astype(int), np.zeros(a.size))


def _at_scale(x: _Terms, h: float) -> _Terms:
    """A kernel's terms in t = u/h: c (h t)^-p exp(i a h t)."""
    a = x.a * h
    return _Terms(x.c * h ** -x.p.astype(float), a, x.p,
                  x.slack * h + _EPS * np.abs(a))


def _multiply(x: _Terms, y: _Terms) -> _Terms:
    """Terms of the product of two term sums, equal (a, p) pairs merged."""
    a = np.add.outer(x.a, y.a).ravel()
    p = np.add.outer(x.p, y.p).ravel()
    keys, index = np.unique(a + 1j * p, return_inverse=True)
    c = np.zeros(keys.size, dtype=complex)
    np.add.at(c, index, np.multiply.outer(x.c, y.c).ravel())
    slack = np.zeros(keys.size)
    np.maximum.at(slack, index, np.add.outer(x.slack, y.slack).ravel() + _EPS * np.abs(a))
    return _Terms(c, keys.real, keys.imag.astype(int), slack)


def _tail_sum(x: _Terms, T: float):
    """Re sum int_T^inf c exp(i a t) t^-p dt, and a bound on its rounding.

    Each integral is c T^(1-p) E_p(-i a T).  Besides the rounding of E_p
    and of the products, y = a T may be off by dy = slack T + ulp(y); that
    moves the integral by dy T^(1-p) |E_(p-1)(-i y)|, where
    |E_q(-i y)| <= 2/|y| and, for q >= 2, <= 1/(q - 1).
    """
    y = x.a * T
    e, e_err = _expint(x.p, y)
    weight = x.c * T ** (1.0 - x.p.astype(float))
    dy = x.slack * T + _EPS * np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.minimum(2.0 / np.abs(y),
                           np.where(x.p >= 3, 1.0 / np.maximum(x.p - 2.0, 1.0), np.inf))
        phase = np.where(dy > 0.0, dy * slope, 0.0)
    rounding = np.abs(weight) * (e_err + 8.0 * _EPS * np.abs(e) + phase)
    return float(np.sum(weight * e).real), float(rounding.sum())


def _min_gap(phases) -> float:
    gaps = np.abs(np.subtract.outer(phases, phases))
    gaps = gaps[gaps > 0.0]
    return float(gaps.min()) if gaps.size else math.inf


def _tail_cutoff(density: DensityModel, kernel: KernelModel, h_min: float):
    """Cutoff T for the exact tails: two periods of the slowest oscillation
    of the terms past where both expansions hold, so no term's integral is
    much larger than the tail it sums to.  None when the models carry no
    terms or nothing oscillates."""
    if density.tail_terms is None or kernel.tail_terms is None:
        return None
    (t0, d_terms), (u0, k_terms) = density.tail_terms, kernel.tail_terms
    slow = min(_min_gap([a for _, a, _ in d_terms]),
               h_min * _min_gap([a for _, a, _ in k_terms]))
    if not math.isfinite(slow):
        return None
    return max(float(t0), float(u0) / h_min) + 4.0 * math.pi / slow


def _exact_tails(density: DensityModel, kernel: KernelModel, hs, T: float,
                 variance: bool) -> np.ndarray:
    """int_T^inf |f|^2 (1 - phi(ht))^2 dt and int_T^inf |f|^2 phi(ht)^2 dt
    for every h, each with a bound on its rounding: rows (bias, bias
    rounding, variance, variance rounding).

    With F the density's terms and P the kernel's at h, the integrands
    F F* (1 - P)^2 and F F* P^2 are finite sums of c exp(i a t) t^-p, each
    integrated exactly (``_tail_sum``).
    """
    f = _terms(density.tail_terms)
    mod2 = _multiply(f, f._replace(c=np.conj(f.c), a=-f.a))
    k = kernel.tail_terms
    one_minus = _terms((k[0], ((1.0, 0.0, 0),) + tuple((-c, a, p) for c, a, p in k[1])))
    factors = [_multiply(one_minus, one_minus)]
    if variance:
        factors.append(_multiply(_terms(k), _terms(k)))
    out = np.zeros((4, hs.size))
    for i, h in enumerate(hs):
        for j, factor in enumerate(factors):
            out[2 * j:2 * j + 2, i] = _tail_sum(_multiply(mod2, _at_scale(factor, h)), T)
    return out


# ---------------------------------------------------------------------------
# integrated risk


class _SqIntegrals(NamedTuple):
    """Full-line int |f|^2 (1 - phi(ht))^2 and int |f|^2 phi(ht)^2 per h."""

    bias: np.ndarray
    bias_error: np.ndarray
    var: np.ndarray
    var_error: np.ndarray
    truncation: np.ndarray
    cutoff: float
    nodes: int


def _sq_integrals(density: DensityModel, kernel: KernelModel, hs,
                  variance: bool = True) -> _SqIntegrals:
    """Both |f|^2-damped integrals of the MISE, for every h in one pass.

    When both models carry tail terms, the tails past T are exact
    (``_exact_tails``) and T only has to clear a few periods; that T grows
    like 1/h_min, and past the work budget (h_min below about 3e-5 times
    the density's scale for the uniform one) the certified T is used.
    Otherwise T is certified: beyond it the kernel factor is at most
    s = sup_{|u| >= hT} |phi(u)|, so the bias tail lies in
    [tau (1-s)^2, tau (1+s)^2] and the variance tail in [0, tau s^2], with
    tau = cf_sq_tail(T): the midpoints are added and the half-widths
    counted as error.
    """
    hs = np.atleast_1d(np.asarray(hs, dtype=float))
    total = float(density.cf_sq_integral)
    zeros = np.zeros(hs.size)
    if kernel.is_sinc:
        # phi is the indicator of [-1, 1]: both integrals are tails of |f|^2
        tails = np.array([float(density.cf_sq_tail(1.0 / h)) for h in hs])
        return _SqIntegrals(tails, zeros, total - tails, zeros, zeros,
                            float(1.0 / hs.min()), 0)
    omega = density.cf_phases[1] - density.cf_phases[0] + 2.0 * float(hs.max())
    parts = 2 if variance else 1
    tol = RISK_RTOL * total
    sup_tail = _sup_tail(kernel)
    h_min = float(hs.min())
    if density.cf_cutoff is not None:
        T, exact = float(density.cf_cutoff), False
    else:
        # exact tails while their T fits the work budget, else a certified T
        limit = _cutoff_limit(omega, parts * hs.size)
        T = _tail_cutoff(density, kernel, h_min)
        exact = T is not None and T <= limit
        if not exact:
            T = certified_cutoff(
                lambda c: 2.0 * float(density.cf_sq_tail(c)) * float(sup_tail(h_min * c)),
                0.5 * tol, start=0.0625, limit=limit)

    def integrand(t):
        ft = density.cf(t)
        mod2 = ft.real ** 2 + ft.imag ** 2
        u = hs[:, None] * t[None, :]
        rows = [mod2 * kernel.one_minus_cf(u) ** 2]
        if variance:
            rows.append(mod2 * kernel.cf(u) ** 2)
        return np.concatenate(rows)

    tols = np.full(parts * hs.size, 0.25 * tol)
    q = gauss_panels(integrand, panel_edges(0.0, T, omega,
                                            _decay_breaks(density.cf_sq_tail, T)),
                     tols)
    k = hs.size
    var, var_error = zeros, zeros
    if exact:
        tail = _exact_tails(density, kernel, hs, T, variance)
        bias = 2.0 * (q.value[:k] + tail[0])
        bias_error = 2.0 * (q.error[:k] + tail[1])
        if variance:
            var = 2.0 * (q.value[k:] + tail[2])
            var_error = 2.0 * (q.error[k:] + tail[3])
        return _SqIntegrals(bias, bias_error, var, var_error, zeros, T, q.nodes)
    tau = float(density.cf_sq_tail(T))
    s = sup_tail(hs * T) * np.ones(hs.size)
    bias = 2.0 * q.value[:k] + tau * (1.0 + s * s)
    bias_error = 2.0 * q.error[:k] + 2.0 * tau * s
    if variance:
        var = 2.0 * q.value[k:] + 0.5 * tau * s * s
        var_error = 2.0 * q.error[k:] + 0.5 * tau * s * s
    return _SqIntegrals(bias, bias_error, var, var_error, 2.0 * tau * s, T,
                        q.nodes)


def integrated_sq_bias(density: DensityModel, kernel: KernelModel,
                       h: float) -> RiskReport:
    """Integrated squared bias int bias(x)^2 dx, by certified quadrature.

    Parseval moves the integral to the transform side, where it is
    damped by |f|^2:  (2 pi)^(-1) int |f(t)|^2 |1 - phi(h t)|^2 dt.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    r = _sq_integrals(density, kernel, h, variance=False)
    value = float(r.bias[0]) / (2.0 * math.pi)
    quad_error = float(r.bias_error[0]) / (2.0 * math.pi)
    return RiskReport(value=value, quad_error=quad_error,
                      truncation=float(r.truncation[0]) / (2.0 * math.pi),
                      degraded=bool(_degraded(value, quad_error)),
                      cutoff=r.cutoff, nodes=r.nodes)


def exact_mise(density: DensityModel, kernel: KernelModel, h: float,
               n: int) -> RiskReport:
    """Exact mean integrated squared error, by certified quadrature.

    Only integrals damped by |f|^2 reach the quadrature, both in one pass:
    the kernel-only part of the variance enters exactly as
    int |phi(ht)|^2 dt = 2 pi R(K) / h.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    r = _sq_integrals(density, kernel, h)
    two_pi = 2.0 * math.pi
    value = float(r.bias[0] / two_pi + (kernel.roughness / h - r.var[0] / two_pi) / n)
    quad_error = float((r.bias_error[0] + r.var_error[0] / n) / two_pi)
    return RiskReport(value=value, quad_error=quad_error,
                      truncation=float(r.truncation[0]) / two_pi,
                      degraded=bool(_degraded(value, quad_error)),
                      cutoff=r.cutoff, nodes=r.nodes)


def sinc_exact_mise(density: DensityModel, h: float, n: int) -> RiskReport:
    """Exact mean integrated squared error for the sinc kernel, closed form.

    With the indicator transform the risk reduces to tail and head pieces
    of int |f|^2:  (2 pi)^(-1) [ tail(1/h) + (2/h - head(1/h)) / n ].
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    cutoff = 1.0 / h
    tail = float(density.cf_sq_tail(cutoff))
    head = density.cf_sq_integral - tail
    value = (tail + (2.0 * cutoff - head) / n) / (2.0 * math.pi)
    return RiskReport(value=float(value), quad_error=0.0, truncation=0.0,
                      degraded=False, cutoff=cutoff, nodes=0)


# ---------------------------------------------------------------------------
# pointwise risk


def _wynn(partial):
    """Wynn's epsilon extrapolation of each row of partial sums (r, K).

    Returns the limit estimate with the smallest error estimate over the
    even columns of the epsilon table, and that error estimate: the change
    from the previous entry of its column plus the change from the column
    before.
    """
    best = partial[:, -1]
    best_err = np.abs(partial[:, -1] - partial[:, -2])
    prev = np.zeros((partial.shape[0], partial.shape[1] + 1), dtype=partial.dtype)
    cur = last_even = partial
    with np.errstate(all="ignore"):
        for k in range(1, partial.shape[1]):
            cur, prev = prev[:, 1:cur.shape[1]] + 1.0 / (cur[:, 1:] - cur[:, :-1]), cur
            if k % 2 == 0 and cur.shape[1] >= 2:
                est = cur[:, -1]
                err = np.abs(est - cur[:, -2]) + np.abs(est - last_even[:, -1])
                better = np.isfinite(err) & (err < best_err)
                best = np.where(better, est, best)
                best_err = np.where(better, err, best_err)
                last_even = cur
    return best, best_err


_TAIL_HALF_PERIODS = 40


def _fourier_tail(density: DensityModel, factor, reach: float, T: float, xs,
                  tol: float, bound: float):
    """int_T^inf Re[f(t) a(t) exp(-i t x)] dt for each x, for algebraic decay.

    a is factor(t), a kernel transform at h t whose phase speeds are at most
    reach, or 1 when factor is None.  The integrand is integrated over
    half-periods of its fastest oscillation, all points in one evaluation,
    and the partial sums are extrapolated by Wynn's epsilon algorithm.  A
    point with no oscillation at all is integrated after t = T/u on [0, 1].
    Where the error estimate exceeds the certified bound of the whole tail,
    the tail is dropped and the bound is its error.
    """
    xs = np.asarray(xs, dtype=float)
    lo, hi = density.cf_phases
    nu = np.maximum(np.abs(xs - lo), np.abs(xs - hi)) + reach
    values = np.zeros(xs.size)
    errors = np.zeros(xs.size)
    weight = (lambda t: 1.0) if factor is None else factor
    osc = nu > 0.0
    if osc.any():
        x = xs[osc][:, None, None]
        half = 0.5 * math.pi / nu[osc]
        starts = T + 2.0 * half[:, None] * np.arange(_TAIL_HALF_PERIODS)
        t = starts[:, :, None] + half[:, None, None] * (1.0 + _NODES)
        g = density.cf(t) * weight(t) * np.exp(-1j * x * t)
        q12 = (g[..., :12] @ _W12) * half[:, None]
        q24 = (g[..., 12:] @ _W24) * half[:, None]
        partial = np.cumsum(q24, axis=1)
        limit, err = _wynn(partial)
        # an extrapolation from three quarters of the sums must agree too:
        # a component that barely oscillates escapes the epsilon table's
        # own estimate
        early, _ = _wynn(partial[:, : 3 * _TAIL_HALF_PERIODS // 4])
        values[osc] = limit.real
        errors[osc] = (np.maximum(err, np.abs(limit - early))
                       + np.abs(q24 - q12).sum(axis=1))
    if not osc.all():
        x = xs[~osc][:, None]

        def integrand(u):
            t = T / u
            g = density.cf(t) * weight(t) * np.exp(-1j * x * t)
            return (g * (T / (u * u))).real

        q = gauss_panels(integrand, panel_edges(0.0, 1.0, 0.0),
                         np.full(x.size, tol))
        values[~osc] = q.value
        errors[~osc] = q.error
    failed = ~(errors <= bound)
    values[failed] = 0.0
    errors[failed] = bound
    return values, errors


class _Pointwise(NamedTuple):
    bias: np.ndarray          # int_0^inf Re[f e^{-itx}] (1 - phi(ht)) dt
    bias_error: np.ndarray
    second: np.ndarray        # int_0^inf Re[f e^{-itx}] psi(ht) dt
    second_error: np.ndarray
    cutoff: float
    nodes: int


def _pointwise(density: DensityModel, kernel: KernelModel, h: float, xs,
               second: bool) -> _Pointwise:
    """Half-line transform integrals of the bias (and of E K_h^2), batched over x.

    Past T the bias integrand is at most |f| (1 + s) and the second-moment
    integrand |f| sup|psi|, with psi the transform of K^2; both are bounded
    by the closed form cf_abs_tail.  A density whose transform decays only
    algebraically cannot meet the tolerance at a feasible T: there the tail
    is integrated over half-periods and extrapolated (``_fourier_tail``),
    and its error is counted.
    """
    xs = np.asarray(xs, dtype=float)
    nx = xs.size
    lo, hi = density.cf_phases
    # fastest phase speed of f(t) exp(-i t x) phi(h t) over the points
    omega = float(np.max(np.maximum(np.abs(hi - xs), np.abs(lo - xs)))) + h
    parts = 2 if second else 1
    scale = 0.5 * float(density.cf_abs_tail(0.0))
    sup_tail = _sup_tail(kernel)
    rough = kernel.roughness
    if math.isfinite(kernel.a_value):
        psi_sup = lambda u: min(rough, 2.0 * kernel.a_value * float(sup_tail(0.5 * u)))
    else:
        psi_sup = lambda u: rough
    certs = [(lambda c: 0.5 * float(density.cf_abs_tail(c)) * (1.0 + float(sup_tail(h * c))),
              RISK_RTOL * scale)]
    if second:
        certs.append((lambda c: 0.5 * float(density.cf_abs_tail(c)) * psi_sup(h * c),
                      RISK_RTOL * scale * rough))
    breaks = [1.0 / h, 2.0 / h] if kernel.is_sinc else []
    algebraic = [False] * parts
    if density.cf_cutoff is not None:
        T = float(density.cf_cutoff)
    else:
        limit = _cutoff_limit(omega, parts * nx)
        T = 0.0
        for i, (cert, tol) in enumerate(certs):
            Ti = certified_cutoff(cert, 0.5 * tol, start=0.0625, limit=limit)
            if cert(Ti) > 0.5 * tol:
                algebraic[i] = True
                Ti = min(limit, max([8.0 / h] + breaks))
            T = max(T, Ti)

    def integrand(t):
        ft = density.cf(t)
        tx = xs[:, None] * t[None, :]
        re = ft.real * np.cos(tx) + ft.imag * np.sin(tx)
        u = h * t
        rows = [re * kernel.one_minus_cf(u)]
        if second:
            rows.append(re * kernel.sq_cf(u))
        return np.concatenate(rows)

    tols = np.repeat([0.5 * tol for _, tol in certs], nx)
    breaks += _decay_breaks(density.cf_abs_tail, T)
    q = gauss_panels(integrand, panel_edges(0.0, T, omega, breaks), tols)
    values = q.value.reshape(parts, nx)
    errors = q.error.reshape(parts, nx).copy()
    if density.cf_cutoff is None:
        abs_tail = 0.5 * float(density.cf_abs_tail(T))
        kernel_cf = lambda t: kernel.cf(h * t)
        kernel_sq_cf = lambda t: kernel.sq_cf(h * t)
        # past T: bias = int f e^{-itx} - int f phi(ht) e^{-itx}, second
        # moment = int f psi(ht) e^{-itx}; each piece with its own bound
        pieces = [[(1.0, None, 0.0, abs_tail),
                   (-1.0, kernel_cf, h, abs_tail * float(sup_tail(h * T)))],
                  [(1.0, kernel_sq_cf, h, abs_tail * psi_sup(h * T))]]
        for i, (cert, tol) in enumerate(certs):
            if not algebraic[i]:
                errors[i] += cert(T)
                continue
            for sign, factor, reach, bound in pieces[i]:
                if factor is not None and bound <= 0.25 * tol:
                    errors[i] += bound
                    continue
                val, err = _fourier_tail(density, factor, reach, T, xs,
                                         0.125 * tol, bound)
                values[i] += sign * val
                errors[i] += err
    return _Pointwise(values[0], errors[0],
                      values[1] if second else None,
                      errors[1] if second else None, T, q.nodes)


def _check_pointwise(density: DensityModel) -> None:
    if density.cf_abs_tail is None:
        raise ValueError(
            "density %r lacks an integrable transform; pointwise bias is "
            "not available" % density.name
        )


def _shape(x, arr):
    return float(arr[0]) if np.ndim(x) == 0 else arr.reshape(np.shape(x))


def exact_bias(density: DensityModel, kernel: KernelModel, h: float,
               x) -> RiskReport:
    """Exact pointwise bias of the estimate at x (a point or an array).

    Requires an absolutely integrable characteristic function (the model
    must carry cf_abs_tail); otherwise the inversion integral is not
    certified and a ValueError is raised.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    _check_pointwise(density)
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    r = _pointwise(density, kernel, h, xs, second=False)
    value = -r.bias / math.pi
    quad_error = r.bias_error / math.pi
    return RiskReport(value=_shape(x, value), quad_error=_shape(x, quad_error),
                      truncation=0.0,
                      degraded=_shape(x, _degraded(value, quad_error)),
                      cutoff=r.cutoff, nodes=r.nodes)


def exact_mse(density: DensityModel, kernel: KernelModel, h: float, n: int,
              x) -> RiskReport:
    """Exact pointwise mean squared error at x (a point or an array).

    MSE(x) = bias(x)^2 + n^(-1) [ E K_h^2(x - X) - (E K_h(x - X))^2 ],
    with both expectations written through the transforms: the second
    moment uses the transform of K^2 and the first is p(x) + bias(x).
    Bias and second moment at every x come from one quadrature pass.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_pointwise(density)
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    r = _pointwise(density, kernel, h, xs, second=True)
    b = -r.bias / math.pi
    b_err = r.bias_error / math.pi
    second_moment = r.second / (math.pi * h)
    mean = np.asarray(density.pdf(xs), dtype=float) + b
    var = (second_moment - mean * mean) / n
    if np.any(var < -1e-10):
        raise ValueError(
            "negative variance %.3e indicates quadrature failure" % float(var.min())
        )
    value = b * b + np.maximum(var, 0.0)
    quad_error = (b_err * (2.0 * np.abs(b) + 2.0 * np.abs(mean) / n + b_err)
                  + r.second_error / (math.pi * h) / n)
    return RiskReport(value=_shape(x, value), quad_error=_shape(x, quad_error),
                      truncation=0.0,
                      degraded=_shape(x, _degraded(value, quad_error)),
                      cutoff=r.cutoff, nodes=r.nodes)


def mc_mise(density: DensityModel, kernel: KernelModel, h: float, n: int,
            reps: int = 200, seed: int = 0,
            grid_points: int = 1024) -> Tuple[float, float]:
    """Monte Carlo estimate of the integrated squared error, averaged.

    Returns (mean, standard error); the standard error is NaN for a
    single replicate.  Replicate r uses the generator seeded with
    seed + r, so any prefix of replicates is reproducible.
    """
    if reps < 1:
        raise ValueError("need at least one replicate")
    if density.sampler is None:
        raise ValueError("density %r has no sampler" % density.name)
    lo, hi = density.support_hint
    xs = np.linspace(lo - 4.0 * h, hi + 4.0 * h, grid_points)
    truth = np.asarray(density.pdf(xs), dtype=float)
    ises = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng(seed + r)
        data = np.sort(density.sampler(rng, n))
        ys = kde_eval(Sample(values=data), kernel, h, xs)
        ises[r] = np.trapezoid((ys - truth) ** 2, xs)
    mean = float(np.mean(ises))
    se = float(np.std(ises, ddof=1) / math.sqrt(reps)) if reps > 1 else math.nan
    return mean, se
