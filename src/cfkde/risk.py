"""Exact finite-sample risk of kernel density estimates, in Fourier form.

For an estimate with kernel transform phi and bandwidth h, the pointwise
bias and the integrated squared error have closed Fourier expressions in
the target's characteristic function f:

    bias(x) = (2 pi)^(-1) int exp(-i t x) f(t) (phi(h t) - 1) dt
    mise    = (2 pi)^(-1) [ int |f|^2 |1 - phi(h t)|^2 dt
                            + n^(-1) int |phi(h t)|^2 (1 - |f|^2) dt ]

Every transform-side integral here, the bias factor of the lemma-1 bound
included, is some int_0^inf D(t) G(h t) dt of a density factor D (|f|^2,
Re[f e^{-itx}] or |f|) and a kernel factor G, and goes through one driver,
``_transform_integrals``.  It stops at one cutoff T: the band limit, else
the T of the exact tails while that fits the work budget, raised where
needed until every bounded tail passes its share of RISK_RTOL of the
integral's scale (``certified_cutoff``: two array calls of the
certificate, on a doubling ladder of T and then on 1% rungs).  Up to T it
integrates on ``gauss_panels``: Gauss-Legendre panels one period of the
fastest oscillation wide, broken where an integrand has a kink or a jump
(the sinc kernel's jumps, the kinks of a mixture's |f|) and nowhere else,
a 12-against-24-node error estimate per panel, and adaptive bisection of
the panels that miss their share of the tolerance.
Past T, where the transforms carry ``tail_terms`` (a sum of c exp(i a t)
t^-p: the uniform and Laplace densities, the uniform and Epanechnikov
kernels and the transforms of their squares), the products of D's and G's
terms are integrated exactly, as c T^(1-p) E_p(-i a T), for every h and x
at once; what has no terms is bounded by the closed-form tail of D
(cf_sq_tail, cf_abs_tail) times the kernel's sup-tail, and the bound's
half-width is counted as error.  Every report carries the accumulated
numerical error, the cutoff and the node count.  The sinc kernel's
integrated risk is a closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import digamma

from .charfun import _W12, _X12, DensityModel, Sample
from .estimator import estimate_on_grid
from .kernels import KernelModel, _check_count, _check_h

__all__ = [
    "RISK_RTOL",
    "RiskReport",
    "Quadrature",
    "gauss_panels",
    "panel_edges",
    "certified_cutoff",
    "integrated_sq_bias",
    "exact_mise",
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
    # a value or an error that is not finite is never trusted
    finite = np.isfinite(value) & np.isfinite(quad_error)
    return ~finite | (quad_error > 1e-6 * np.maximum(1.0, np.abs(value)))


def panel_edges(lo: float, hi: float, omega: float,
                breaks: Sequence[float] = ()) -> np.ndarray:
    """Edges of panels over [lo, hi], each at most one period 2 pi/omega wide.

    Every break inside (lo, hi) is an edge, so kinks and jumps of the
    integrand fall on panel boundaries.
    """
    points = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    width = 2.0 * math.pi / omega if omega > 0.0 else math.inf
    # piece (a, b) in c panels has the edges a + j (b - a)/c, j < c, which is
    # np.linspace(a, b, c + 1)[:-1] bit for bit; a last row of one edge is hi
    rows, counts, first = [], [], 0
    for a, b in zip(points[:-1], points[1:]):
        c = max(1, math.ceil((b - a) / width))
        rows.append((a, (b - a) / c, first))
        counts.append(c)
        first += c
    rows.append((hi, 0.0, first))
    counts.append(1)
    start, step, first = np.repeat(np.array(rows).T, counts, axis=1)
    return (np.arange(start.size) - first) * step + start


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


def certified_cutoff(cert: Callable[[np.ndarray], np.ndarray], tol: float,
                     start: float = 1.0, limit: float = math.inf) -> float:
    """Smallest T, to within 1%, with cert(T) <= tol for a decreasing cert.

    cert maps an array of T to an array of certificates and is called at
    most twice: on the doubling ladder start 2^k, which ends at limit, and,
    unless its first rung passes or none does, on 70 rungs 1% apart above
    the last rung that fails, the last of them the doubling rung that
    passes (1.01^70 > 2).  limit must be finite, and T never exceeds it;
    cert(limit) may still exceed tol, and the caller accounts for what is
    left.  Raises ValueError where limit/start is not finite: a bandwidth or
    scale near either end of the float range puts the cutoff past it.
    """
    if start >= limit:
        return limit
    if not math.isfinite(limit / start):
        raise ValueError("no finite cutoff search from %r up to %r: the bandwidth or "
                         "scale lies too near the ends of the float range" % (start, limit))
    ladder = np.append(np.ldexp(start, np.arange(math.ceil(math.log2(limit / start)))), limit)
    ok = cert(ladder) <= tol
    if ok[0] or not ok.any():
        return float(start if ok[0] else limit)
    i = int(np.argmax(ok))
    rungs = np.minimum(ladder[i - 1] * 1.01 ** np.arange(1, 71), ladder[i])
    return float(rungs[np.argmax(cert(rungs) <= tol)])


def _sup_tail(kernel: KernelModel) -> Callable:
    """u -> sup_{|v| >= u} |phi(v)|, with 1 when the kernel carries no bound."""
    return kernel.cf_sup_tail or (lambda u: np.ones(np.shape(u)))


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


_ONE = _terms((0.0, ((1.0, 0.0, 0),)))


def _one_minus(tail_terms) -> _Terms:
    """Terms of 1 - phi for a kernel's terms of phi."""
    return _terms((tail_terms[0], ((1.0, 0.0, 0),)
                   + tuple((-c, a, p) for c, a, p in tail_terms[1])))


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


def _product(d: _Terms, g: _Terms, hs, xs) -> _Terms:
    """Terms of D(t) G(h t) exp(-i t x) on the axes (h, x, term of D, term
    of G): c_d c_g h^-p_g exp(i (a_d + h a_g - x) t) t^-(p_d + p_g), none
    merged, with the rounding of the phase added to the factors' slack."""
    h = hs[:, None, None, None]
    shift = h * g.a
    a = d.a[:, None] + shift - xs[:, None, None]
    c = np.multiply.outer(d.c, g.c) * h ** -g.p.astype(float)
    slack = (d.slack[:, None] + h * g.slack
             + _EPS * (np.abs(shift) + np.abs(d.a[:, None] + shift) + np.abs(a)))
    return _Terms(c, a, np.add.outer(d.p, g.p), slack)


def _tail_sum(x: _Terms, T: float):
    """Re sum int_T^inf c exp(i a t) t^-p dt, and a bound on its rounding.

    The sum runs over the last two axes of the terms' arrays.  Each integral
    is c T^(1-p) E_p(-i a T).  Besides the rounding of E_p and of the
    products, y = a T may be off by dy = slack T + ulp(y); that moves the
    integral by T^(1-p) times at most dy |E_(p-1)(-i y)| <= 2 dy/|y| and
    int_1^inf min(dy s, 2) s^-p ds, which is at most dy/(p - 2) for p >= 3
    and dy (1 + ln(2/dy)) for p = 2 (the bound that holds at y = 0).
    """
    y = x.a * T
    e, e_err = (v.reshape(y.shape) for v in _expint(x.p, y))
    weight = x.c * T ** (1.0 - x.p.astype(float))
    dy = x.slack * T + _EPS * np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.where(x.p >= 3, 1.0 / np.maximum(x.p - 2.0, 1.0),
                        np.where(x.p == 2, 1.0 + np.log(np.maximum(2.0 / dy, 1.0)), np.inf))
        phase = np.where(dy > 0.0, dy * np.minimum(2.0 / np.abs(y), near), 0.0)
    rounding = np.abs(weight) * (e_err + 8.0 * _EPS * np.abs(e) + phase)
    return np.sum(weight * e, axis=(-2, -1)).real, rounding.sum(axis=(-2, -1))


def _min_gap(phases) -> float:
    gaps = np.abs(np.subtract.outer(phases, phases))
    gaps = gaps[gaps > 0.0]
    return float(gaps.min()) if gaps.size else math.inf


def _tail_cutoff(density: DensityModel, kernel_terms, h: float):
    """Cutoff T for the exact tails: two periods of the slowest oscillation
    of the terms past where every expansion holds, so no term's integral is
    much larger than the tail it sums to.  kernel_terms are the kernel's
    expansions in use, each in u = h t.  None when that T is 0."""
    t0, d_terms = density.tail_terms
    start, slow = float(t0), _min_gap([a for _, a, _ in d_terms])
    for u0, k_terms in kernel_terms:
        start = max(start, float(u0) / h)
        slow = min(slow, h * _min_gap([a for _, a, _ in k_terms]))
    T = start + (4.0 * math.pi / slow if math.isfinite(slow) else 0.0)
    return T if T > 0.0 else None


# ---------------------------------------------------------------------------
# the transform-side integrals


class _Row(NamedTuple):
    """A kernel factor G(u), u = h t, of the integrand, past the cutoff T.

    bound maps u = h T and the kernel's sup-tail s there to the (midpoint,
    half-width) of G's part of the tail, as multiples of the density
    factor's tail.  terms are G's tail terms and expansion the kernel's
    (u0, terms) they come from (None for an exact constant); with them,
    rest bounds what they leave (None: nothing).  They replace bound where
    the exact tails' T fits the work budget.  Each row's tolerance is
    weight RISK_RTOL tail(0)/2.
    """

    bound: Callable
    terms: Optional[_Terms] = None
    expansion: Optional[tuple] = None
    rest: Optional[Callable] = None
    weight: float = 1.0


class _Integrals(NamedTuple):
    """int_0^inf D(t) G(h t) dt on the axes (factor, h, x), its error and
    the half-width of its bounded tail; the callers drop the axis they do
    not use."""

    value: np.ndarray
    error: np.ndarray
    truncation: np.ndarray
    cutoff: float
    nodes: int


def _transform_integrals(density: DensityModel, kernel: KernelModel, integrand: Callable,
                         rows, hs, xs, omega: float, tail: Callable,
                         d_terms: Optional[_Terms], breaks: Sequence[float] = (),
                         periods: Optional[float] = None) -> _Integrals:
    """The half-line integrals of the risks for every factor of rows, h in
    hs and x in xs.

    integrand maps t to its rows in (factor, h, x) order; omega is their
    fastest phase speed.  D, the density factor, has the tail tail(T) =
    int_{|t| >= T} |D|, half of it on the half line, and the tail terms
    d_terms (None: none), which the x shift exp(-i t x) is applied to.
    T is the band limit where the density has one.  Else it is the exact
    tails' T (``_tail_cutoff``), where some factor has terms and the first
    panel pass up to that T fits the work budget, raised by one
    ``certified_cutoff`` search until tail(T)/2 times every bound's
    half-width at h_min T is within half its row's tolerance.  The search
    never lowers the exact tails' T; otherwise T stays within periods
    periods of omega (by default the most whose panels fit a quarter of
    the work budget).  The panels up to T break at breaks, the kinks and
    jumps of the integrand, and take half of each row's tolerance.  Past
    T, the product of D's and G's terms is summed over every (h, x) at
    once (``_tail_sum``), and each bound adds tail(T)/2 times its midpoint
    to the value and times its half-width to the error and the truncation.
    """
    shape = (len(rows), hs.size, xs.size)
    sup_tail = _sup_tail(kernel)
    tol = 0.5 * RISK_RTOL * float(tail(0.0)) * np.array([r.weight for r in rows])
    exact, bounds = False, [None] * len(rows)
    if density.cf_cutoff is not None:
        T = float(density.cf_cutoff)
    else:
        # the largest T whose first panel pass fits the work budget
        reach = _WORK / (_PER_PANEL * math.prod(shape)) * 2.0 * math.pi / omega
        limit = 0.25 * reach if periods is None else periods * 2.0 * math.pi / omega
        h_min, T = float(hs.min()), None
        if d_terms is not None and any(r.terms is not None for r in rows):
            T = _tail_cutoff(density, [r.expansion for r in rows if r.expansion], h_min)
        exact = T is not None and T <= reach
        if exact:
            limit = max(limit, T)
        bounds = [r.rest if exact and r.terms is not None else r.bound for r in rows]
        live = [(b, float(t)) for b, t in zip(bounds, tol) if b is not None]

        def cert(c):
            u = h_min * c
            s = sup_tail(u)
            return 0.5 * tail(c) * functools.reduce(np.maximum, [b(u, s)[1] / t for b, t in live])

        if live:
            T = certified_cutoff(cert, 0.5, start=T if exact else 0.0625, limit=limit)
    q = gauss_panels(integrand, panel_edges(0.0, T, omega, breaks),
                     np.repeat(0.5 * tol, hs.size * xs.size))
    value, error = q.value.reshape(shape), q.error.reshape(shape)
    truncation = np.zeros(shape)
    if any(b is not None for b in bounds):
        u = hs[:, None] * T
        tau, s = 0.5 * float(tail(T)), sup_tail(u)
    for j, (row, b) in enumerate(zip(rows, bounds)):
        if exact and row.terms is not None:
            v, r = _tail_sum(_product(d_terms, row.terms, hs, xs), T)
            value[j] += v
            error[j] += r
        if b is not None:
            mid, half = b(u, s)
            value[j] += tau * mid
            truncation[j] = tau * half
            error[j] += truncation[j]
    return _Integrals(value, error, truncation, T, q.nodes)


# ---------------------------------------------------------------------------
# integrated risk


def _sq_integrals(density: DensityModel, kernel: KernelModel, hs,
                  variance: bool = True) -> _Integrals:
    """Both |f|^2-damped integrals of the MISE, for every h in one pass: the
    full-line int |f|^2 (1 - phi(ht))^2 and int |f|^2 phi(ht)^2 on the axes
    (bias or variance, h).

    Past T the kernel factor is at most s = sup_{|u| >= hT} |phi(u)|, so
    with tau the tail of |f|^2 the bias tail lies in [tau (1-s)^2,
    tau (1+s)^2] and the variance tail in [0, tau s^2].  Where both models
    carry tail terms, the tails are exact instead, while their T, which
    grows like 1/h_min, fits the work budget (``_transform_integrals``).
    """
    hs = np.atleast_1d(np.asarray(hs, dtype=float))
    if kernel.is_sinc:
        # phi is the indicator of [-1, 1]: both integrals are tails of |f|^2
        total = float(density.cf_sq_tail(0.0))
        tails = density.cf_sq_tail(1.0 / hs)
        zeros = np.zeros((2, hs.size))
        return _Integrals(np.stack((tails, total - tails)), zeros, zeros,
                          float(1.0 / hs.min()), 0)
    rows = [_Row(lambda u, s: (1.0 + s * s, 2.0 * s)),
            _Row(lambda u, s: (0.5 * s * s,) * 2)][:2 if variance else 1]
    d_terms = None
    if density.tail_terms is not None and kernel.tail_terms is not None:
        f = _terms(density.tail_terms)
        d_terms = _multiply(f, f._replace(c=np.conj(f.c), a=-f.a))
        factors = (_one_minus(kernel.tail_terms), _terms(kernel.tail_terms))
        rows = [r._replace(terms=_multiply(g, g), expansion=kernel.tail_terms)
                for r, g in zip(rows, factors)]

    def integrand(t):
        ft = density.cf(t)
        mod2 = ft.real ** 2 + ft.imag ** 2
        u = hs[:, None] * t[None, :]
        rows = [mod2 * kernel.one_minus_cf(u) ** 2]
        if variance:
            rows.append(mod2 * kernel.cf(u) ** 2)
        return np.concatenate(rows)

    r = _transform_integrals(
        density, kernel, integrand, rows, hs, np.zeros(1),
        density.cf_phases[1] - density.cf_phases[0] + 2.0 * float(hs.max()),
        density.cf_sq_tail, d_terms)
    value, error, truncation = (2.0 * v[..., 0] for v in r[:3])
    return _Integrals(value, error, truncation, r.cutoff, r.nodes)


def integrated_sq_bias(density: DensityModel, kernel: KernelModel,
                       h: float) -> RiskReport:
    """Integrated squared bias int bias(x)^2 dx, by certified quadrature.

    Parseval moves the integral to the transform side, where it is
    damped by |f|^2:  (2 pi)^(-1) int |f(t)|^2 |1 - phi(h t)|^2 dt.
    """
    _check_h(h)
    r = _sq_integrals(density, kernel, h, variance=False)
    value, quad_error, truncation = (float(v[0, 0]) / (2.0 * math.pi) for v in r[:3])
    return RiskReport(value=value, quad_error=quad_error, truncation=truncation,
                      degraded=bool(_degraded(value, quad_error)),
                      cutoff=r.cutoff, nodes=r.nodes)


def exact_mise(density: DensityModel, kernel: KernelModel, h: float,
               n: int) -> RiskReport:
    """Exact mean integrated squared error, by certified quadrature.

    Only integrals damped by |f|^2 reach the quadrature, both in one pass:
    the kernel-only part of the variance enters exactly as
    int |phi(ht)|^2 dt = 2 pi R(K) / h.
    """
    _check_h(h)
    _check_count("n", n)
    r = _sq_integrals(density, kernel, h)
    two_pi = 2.0 * math.pi
    (bias, var), rough = r.value[:, 0] / two_pi, kernel.roughness / h
    value = float(bias + (rough - var) / n)
    # the combination's own rounding: a few ulps of the terms it combines
    quad_error = float((r.error[0, 0] + r.error[1, 0] / n) / two_pi
                       + 4.0 * _EPS * (abs(bias) + (rough + abs(var)) / n))
    return RiskReport(value=value, quad_error=quad_error,
                      truncation=float(r.truncation[0, 0]) / two_pi,
                      degraded=bool(_degraded(value, quad_error)),
                      cutoff=r.cutoff, nodes=r.nodes)


# ---------------------------------------------------------------------------
# pointwise risk


def _pointwise(density: DensityModel, kernel: KernelModel, h: float, xs,
               second: bool) -> _Integrals:
    """Half-line transform integrals of the bias (and of E K_h^2), batched
    over x, on the axes (bias or second moment, x).

    The bias row integrates Re[f(t) e^{-itx}] times 1 - phi(ht), the
    second-moment row times psi(ht), the transform of K^2.  Past T the
    rows are bounded through |f| times 1 + s, with s = sup_{|u| >= hT}
    |phi(u)|, and times sup|psi|.  Where the density carries tail terms,
    they are shifted by e^{-itx} and multiplied by the kernel factor's
    terms (tail_terms for 1 - phi, sq_tail_terms for psi) and integrated
    term by term; a kernel without the bias factor's terms leaves only its
    phi piece to the bound |f| s, and one without psi's terms the whole
    second-moment row to its bound (``_transform_integrals``).
    """
    xs = np.asarray(xs, dtype=float)
    lo, hi = density.cf_phases
    sup_tail = _sup_tail(kernel)
    if math.isfinite(kernel.a_value):
        psi = lambda u, s: (0.0, np.minimum(kernel.roughness,
                                            2.0 * kernel.a_value * sup_tail(0.5 * u)))
    else:
        psi = lambda u, s: (0.0, kernel.roughness)
    bias = lambda u, s: (0.0, 1.0 + s)
    if kernel.tail_terms is None:
        rows = [_Row(bias, _ONE, rest=lambda u, s: (0.0, s))]
    else:
        rows = [_Row(bias, _one_minus(kernel.tail_terms), kernel.tail_terms)]
    if second:
        sq = kernel.sq_tail_terms
        rows.append(_Row(psi, None if sq is None else _terms(sq), sq, weight=kernel.roughness))

    def integrand(t):
        ft = density.cf(t)
        tx = xs[:, None] * t[None, :]
        re = ft.real * np.cos(tx) + ft.imag * np.sin(tx)
        u = h * t
        rows = [re * kernel.one_minus_cf(u)]
        if second:
            rows.append(re * kernel.sq_cf(u))
        return np.concatenate(rows)

    r = _transform_integrals(
        density, kernel, integrand, rows, np.array([h]), xs,
        # fastest phase speed of f(t) exp(-i t x) phi(h t) over the points
        float(np.max(np.maximum(np.abs(hi - xs), np.abs(lo - xs)))) + h,
        density.cf_abs_tail, None if density.tail_terms is None else _terms(density.tail_terms),
        breaks=[1.0 / h, 2.0 / h] if kernel.is_sinc else ())
    return r._replace(value=r.value[:, 0], error=r.error[:, 0])


def _abs_bias_factor(density: DensityModel, kernel: KernelModel,
                     h: float) -> float:
    """Upper estimate of (2 pi)^(-1) int |f(t)| |1 - phi(h t)| dt.

    Past T the factor |1 - phi| lies in [0, 1 + s], s = sup_{|u| >= hT}
    |phi(u)|; the value comes with its error added, so the factor, which
    is squared into an upper bound, is never rounded below its true value.
    The panels break at the kinks of |f| (cf_kinks), where no Gauss node
    would see them.  An algebraic tail stops at 4096 periods; the estimate
    only loosens.
    """
    r = _transform_integrals(
        density, kernel, lambda t: np.abs(density.cf(t)) * np.abs(kernel.one_minus_cf(h * t)),
        [_Row(lambda u, s: (0.5 * (1.0 + s),) * 2)], np.array([h]), np.zeros(1),
        density.cf_phases[1] - density.cf_phases[0] + h,
        density.cf_abs_tail, None, breaks=density.cf_kinks, periods=4096)
    return (r.value + r.error).item() / math.pi


def _pointwise_points(density: DensityModel, h: float, x) -> np.ndarray:
    """The points x as a flat array, once h and the density are checked."""
    _check_h(h)
    if density.cf_abs_tail is None:
        raise ValueError(
            "density %r lacks an integrable transform; pointwise bias is "
            "not available" % density.name
        )
    return np.atleast_1d(np.asarray(x, dtype=float)).ravel()


def _shape(x, arr):
    return arr[0].item() if np.ndim(x) == 0 else arr.reshape(np.shape(x))


def exact_bias(density: DensityModel, kernel: KernelModel, h: float,
               x) -> RiskReport:
    """Exact pointwise bias of the estimate at x (a point or an array).

    Requires an absolutely integrable characteristic function (the model
    must carry cf_abs_tail); otherwise the inversion integral is not
    certified and a ValueError is raised.
    """
    xs = _pointwise_points(density, h, x)
    r = _pointwise(density, kernel, h, xs, second=False)
    value = -r.value[0] / math.pi
    quad_error = r.error[0] / math.pi
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
    xs = _pointwise_points(density, h, x)
    _check_count("n", n)
    r = _pointwise(density, kernel, h, xs, second=True)
    b = -r.value[0] / math.pi
    b_err = r.error[0] / math.pi
    second_moment = r.value[1] / (math.pi * h)
    mean = np.asarray(density.pdf(xs), dtype=float) + b
    var = (second_moment - mean * mean) / n
    quad_error = (b_err * (2.0 * np.abs(b) + 2.0 * np.abs(mean) / n + b_err)
                  + r.error[1] / (math.pi * h) / n)
    if np.any(var < -quad_error):
        raise ValueError(
            "negative variance %.3e indicates quadrature failure" % float(var.min())
        )
    value = b * b + np.maximum(var, 0.0)
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
        ys = estimate_on_grid(Sample(values=data), kernel, h, grid=xs).ys
        ises[r] = np.trapezoid((ys - truth) ** 2, xs)
    mean = float(np.mean(ises))
    se = float(np.std(ises, ddof=1) / math.sqrt(reps)) if reps > 1 else math.nan
    return mean, se
