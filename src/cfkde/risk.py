"""Exact finite-sample risk of kernel density estimates, in Fourier form.

For an estimate with kernel transform phi and bandwidth h, the pointwise
bias and the integrated squared error have closed Fourier expressions in
the target's characteristic function f:

    bias(x) = (2 pi)^(-1) int exp(-i t x) f(t) (phi(h t) - 1) dt
    mise    = (2 pi)^(-1) [ int |f|^2 |1 - phi(h t)|^2 dt
                            + n^(-1) int |phi(h t)|^2 (1 - |f|^2) dt ]

Every transform-side integral here is some int_0^inf D(t) G(h t) dt of a
density factor D (|f|^2, Re[f e^{-itx}] or |f|) and a kernel factor G: the
integrated risk, the pointwise bias and MSE, and the integral that the
lemma-1 bound's bias factor subtracts from a_p.  All go through one driver,
``_transform_integrals``, for a whole grid of h in one call (the pointwise
risk for every x as well).  Each h stops at a cutoff T of its own: the
band limit, else the T of the exact tails while that fits the work budget,
raised where needed until every bounded tail passes its share of RISK_RTOL
of the integral's scale (``certified_cutoff``: two array calls of the
certificate for all h, on doubling ladders of T and then on 1% rungs).  Up
to T it integrates on ``gauss_panels``, each h on panels of its own in
shared integrand calls: Gauss-Legendre panels one period of the fastest
oscillation wide, broken where an integrand has a kink or a jump (the sinc
kernel's jumps, the kinks of a mixture's |f|) and nowhere else, a
12-against-24-node error estimate per panel, and adaptive bisection of the
panels that miss their share of the tolerance.
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
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.special import digamma

from .charfun import _W12, _X12, DensityModel, Sample
from .estimator import _estimate
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

# the cutoff search's fine rungs, 1% apart: 1.01^70 > 2
_RUNGS = 1.01 ** np.arange(1, 71)

_X24, _W24 = np.polynomial.legendre.leggauss(24)
_NODES = np.concatenate((_X12, _X24))
_PER_PANEL = _NODES.size


@dataclass(frozen=True)
class RiskReport:
    """A risk value together with its numerical-error budget.

    value, quad_error and degraded are arrays when the risk was asked for
    at an array of points or of bandwidths.  cutoff is the transform-side
    cutoff T and nodes the number of quadrature nodes spent; these and the
    truncation are arrays too for an array of bandwidths, one per h.
    """

    value: Union[float, np.ndarray]
    quad_error: Union[float, np.ndarray]
    truncation: Union[float, np.ndarray]
    degraded: Union[bool, np.ndarray]
    cutoff: Union[float, np.ndarray]
    nodes: Union[int, np.ndarray]


class Quadrature(NamedTuple):
    """Values and error estimates of m integrals over the same panels, and
    the nodes spent; per group for grouped integrals (``gauss_panels``)."""

    value: np.ndarray
    error: np.ndarray
    nodes: Union[int, np.ndarray]


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


def gauss_panels(fun: Callable, edges, tol, group=None) -> Quadrature:
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

    With group, the group of each panel, edges is the pair (lo, hi) of the
    panels' ends, each group's panels contiguous and the groups in order.
    Each group of m integrals then runs on its own panels as if alone,
    budget included, and fun(t, g) gets the group g of each node (a slice
    for one group); value and error are (m, groups) arrays and nodes holds
    each group's count.
    """
    grouped = group is not None
    if grouped:
        lo, hi = edges
        count = np.bincount(group)
        last = np.cumsum(count) - 1
        span = hi[last] - lo[last - count + 1]
    else:
        edges = np.asarray(edges, dtype=float)
        lo, hi, span = edges[:-1], edges[1:], edges[-1:] - edges[:1]
    tol = np.atleast_1d(np.asarray(tol, dtype=float))
    m = tol.size
    rate = tol[:, None] / np.maximum(span, np.finfo(float).tiny)
    # for one group, no group per panel: a slice costs no gathers
    one = span.size == 1
    group = None if one else group
    per_call = max(1, _CHUNK // (_PER_PANEL * m))
    value = np.zeros((m, span.size))
    error = np.zeros((m, span.size))
    nodes = 0 if one else np.zeros(span.size, dtype=int)
    while lo.size:
        level = _PER_PANEL * (lo.size if one else np.bincount(group, minlength=span.size))
        final = (nodes + 3 * level) * m > _WORK
        nodes += level
        redo = []
        for s in range(0, lo.size, per_call):
            a, b = lo[s:s + per_call], hi[s:s + per_call]
            if one:
                g, r, out = slice(0, 1), rate, final
            else:
                g = group[s:s + per_call]
                r, out = rate[:, g], final[g]
            half = 0.5 * (b - a)
            mid = 0.5 * (b + a)
            t = (mid[:, None] + half[:, None] * _NODES).ravel()
            v = fun(t, g if one else np.repeat(g, _PER_PANEL)) if grouped else fun(t)
            v = np.asarray(v, dtype=float).reshape(m, a.size, _PER_PANEL)
            # einsum, not a BLAS matmul, whose rounding of a panel's sum
            # depends on the panel's place in the call: a panel's sums, and
            # so its bisection, must not depend on the panels beside it
            q12 = np.einsum("...k,k", v[..., :12], _W12) * half
            q24 = np.einsum("...k,k", v[..., 12:], _W24) * half
            err = np.abs(q24 - q12)
            floor = 8.0 * _EPS * np.einsum("...k,k", np.abs(v[..., 12:]), _W24) * half
            ok = np.all(err <= np.maximum(r * (b - a), floor), axis=0)
            ok |= out | (half <= 4.0 * _EPS * np.abs(mid))
            if one:
                value[:, 0] += q24[:, ok].sum(axis=1)
                error[:, 0] += np.maximum(err, floor)[:, ok].sum(axis=1)
            else:
                np.add.at(value.T, g[ok], q24[:, ok].T)
                np.add.at(error.T, g[ok], np.maximum(err, floor)[:, ok].T)
            if not ok.all():
                redo.append((a[~ok], b[~ok]) if one else (a[~ok], b[~ok], g[~ok]))
        if not redo:
            break
        a, b, *g = (np.concatenate(r) for r in zip(*redo))
        mid = 0.5 * (a + b)
        lo, hi = np.concatenate((a, mid)), np.concatenate((mid, b))
        group = None if one else np.concatenate(g * 2)
    if grouped:
        return Quadrature(value, error, np.atleast_1d(nodes))
    return Quadrature(value[:, 0], error[:, 0], nodes)


def certified_cutoff(cert: Callable[[np.ndarray], np.ndarray], tol: float,
                     start=1.0, limit=math.inf):
    """Smallest T, to within 1%, with cert(T) <= tol for a decreasing cert.

    cert maps an array of T to an array of certificates and is called at
    most twice: on the doubling ladder start 2^k, which ends at limit, and,
    unless its first rung passes or none does, on 70 rungs 1% apart above
    the last rung that fails, the last of them the doubling rung that
    passes (1.01^70 > 2).  limit must be finite, and T never exceeds it;
    cert(limit) may still exceed tol, and the caller accounts for what is
    left.  Raises ValueError where limit/start is not finite: a bandwidth or
    scale near either end of the float range puts the cutoff past it.  With
    an array of start (and of limit), one search per row in the same two
    calls, cert mapping (rows, rungs) arrays of T; a row's ladder repeats
    its limit once there.
    """
    scalar = np.ndim(start) == 0
    start = np.atleast_1d(np.asarray(start, dtype=float))
    limit = np.zeros(start.size) + limit
    start = np.minimum(start, limit)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = limit / start
    widest = float(ratio.max())
    if not math.isfinite(widest):
        raise ValueError("no finite cutoff search from %r up to %r: the bandwidth or scale lies "
                         "too near the ends of the float range"
                         % (float(start.min()), float(limit.max())))
    steps = math.ceil(math.log2(widest))
    if steps == 0:
        return float(limit[0]) if scalar else limit
    passes = lambda T: (cert(T[0]) if scalar else cert(T)).reshape(T.shape) <= tol
    ladder = np.minimum(np.ldexp(start[:, None], np.arange(steps + 2)), limit[:, None])
    ok = passes(ladder)
    # the first rung that passes: the start, the limit where none does, or
    # of the rungs 1% apart up from the rung below it
    i, rows = np.argmax(ok, axis=1), np.arange(start.size)
    T = np.where(ok[:, 0], start, limit)
    if i.any():
        rungs = np.minimum(ladder[rows, i - 1, None] * _RUNGS, ladder[rows, i, None])
        T = np.where(i > 0, rungs[rows, np.argmax(passes(rungs), axis=1)], T)
    return float(T[0]) if scalar else T


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


def _tail_sum(x: _Terms, T):
    """Re sum int_T^inf c exp(i a t) t^-p dt, and a bound on its rounding.

    The sum runs over the last two axes of the terms' arrays, and T
    broadcasts against them (a cutoff per h: shape (h, 1, 1, 1)).  Each
    integral is c T^(1-p) E_p(-i a T).  Besides the rounding of E_p and of
    the products, y = a T may be off by dy = slack T + ulp(y); that moves the
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


def _tail_cutoff(density: DensityModel, kernel_terms, hs) -> np.ndarray:
    """Cutoff T for the exact tails at each h of hs: two periods of the
    slowest oscillation of the terms past where every expansion holds, so no
    term's integral is much larger than the tail it sums to.  kernel_terms
    are the kernel's expansions in use, each in u = h t.  0 marks an h
    without one."""
    t0, d_terms = density.tail_terms
    start, slow = np.full(hs.shape, float(t0)), _min_gap([a for _, a, _ in d_terms])
    with np.errstate(over="ignore"):
        for u0, k_terms in kernel_terms:
            start = np.maximum(start, float(u0) / hs)
            slow = np.minimum(slow, hs * _min_gap([a for _, a, _ in k_terms]))
        return start + np.where(np.isfinite(slow), 4.0 * math.pi / slow, 0.0)


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
    the half-width of its bounded tail, with the cutoff and the nodes of
    each h; the callers drop the axis they do not use."""

    value: np.ndarray
    error: np.ndarray
    truncation: np.ndarray
    cutoff: np.ndarray
    nodes: np.ndarray


def _tail_bound(row: _Row, rest, u, s):
    """(midpoint, half-width) of the row's bounded tail at u = h T, h on the
    first axis, and the sup-tail s there: row.bound, but where rest (None:
    nowhere) only what the h's exact tails leave, row.rest (None: 0)."""
    if rest is None:
        return row.bound(u, s)
    part = row.rest(u, s) if row.rest else (0.0, 0.0)
    return tuple(np.where(rest[:, None], p, w) for p, w in zip(part, row.bound(u, s)))


def _panels(T, omega, breaks):
    """The panels of each h up to its T, as ``panel_edges`` lays them out
    with the breaks of that h (a row of breaks): their ends and their h, for
    ``gauss_panels``."""
    if breaks.size:
        edges = [panel_edges(0.0, c, w, b)
                 for c, w, b in zip(T.tolist(), omega.tolist(), breaks.tolist())]
        return (np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges]),
                np.repeat(np.arange(T.size), [e.size - 1 for e in edges]))
    # without breaks, [0, T] in c equal panels, the k-th from k T/c
    count = np.maximum(1.0, np.ceil(T / (2.0 * math.pi / omega))).astype(int)
    group = np.repeat(np.arange(T.size), count)
    k = np.arange(group.size) - np.repeat(np.cumsum(count) - count, count)
    step = (T / count)[group]
    return k * step, np.where(k + 1 == count[group], T[group], (k + 1) * step), group


def _transform_integrals(density: DensityModel, kernel: KernelModel, integrand: Callable,
                         rows, hs, xs, omega, tail: Callable,
                         d_terms: Optional[_Terms], breaks=(),
                         periods: Optional[float] = None) -> _Integrals:
    """The half-line integrals of the risks for every factor of rows, h in
    hs and x in xs, each h to its own cutoff T, as if alone.

    integrand maps nodes t and the h of each to its rows in (factor, x)
    order; omega, per h or one for all, is their fastest phase speed.  D,
    the density factor, has the tail tail(T) = int_{|t| >= T} |D|, half of
    it on the half line, and the tail terms d_terms (None: none), which the
    x shift exp(-i t x) is applied to.  T is the band limit where the
    density has one.  Else it is the exact tails' T (``_tail_cutoff``),
    where some factor has terms and the first panel pass up to that T fits
    the work budget, raised by one ``certified_cutoff`` search, a ladder per
    h, until tail(T)/2 times every bound's half-width at h T is within half
    its row's tolerance.  The search never lowers the exact tails' T;
    otherwise T stays within periods periods of omega (by default the most
    whose panels fit a quarter of the work budget).  One ``gauss_panels``
    call takes every h on panels of its own up to its T, broken at breaks,
    the kinks and jumps of the integrand (one sequence for every h, or an
    (h, breaks) array), with half of each row's tolerance.
    Past T, the product of D's and G's terms is summed over every (h, x) at
    once (``_tail_sum``), and each bound adds tail(T)/2 times its midpoint
    to the value and times its half-width to the error and the truncation.
    """
    shape = (len(rows), hs.size, xs.size)
    omega = np.zeros(hs.size) + omega
    sup_tail = _sup_tail(kernel)
    tol = 0.5 * RISK_RTOL * float(tail(0.0)) * np.array([r.weight for r in rows])
    exact, live = np.zeros(hs.size, dtype=bool), []
    if density.cf_cutoff is not None:
        T = np.full(hs.size, float(density.cf_cutoff))
    else:
        # the largest T whose first panel pass fits the work budget of one h;
        # past the float range at an h near 0, which the search refuses
        with np.errstate(over="ignore"):
            reach = _WORK / (_PER_PANEL * shape[0] * shape[2]) * 2.0 * math.pi / omega
            limit = 0.25 * reach if periods is None else periods * 2.0 * math.pi / omega
        T = np.full(hs.size, 0.0625)
        if d_terms is not None and any(r.terms is not None for r in rows):
            tails_T = _tail_cutoff(density, [r.expansion for r in rows if r.expansion], hs)
            exact = (tails_T > 0.0) & (tails_T <= reach)
            T = np.where(exact, tails_T, T)
            limit = np.where(exact, np.maximum(limit, tails_T), limit)
        # (factor, the h whose exact tails take its terms) with a bound left
        live = [(j, exact & (r.terms is not None)) for j, r in enumerate(rows)]
        live = [(j, rest if rest.any() else None) for j, rest in live
                if rows[j].rest or not rest.all()]

        def cert(c):
            u = hs[:, None] * c
            s = sup_tail(u)
            return 0.5 * tail(c) * functools.reduce(
                np.maximum, [_tail_bound(rows[j], rest, u, s)[1] / tol[j] for j, rest in live])

        if live:
            T = certified_cutoff(cert, 0.5, start=T, limit=limit)
    breaks = np.asarray(breaks, dtype=float)
    lo, hi, group = _panels(T, omega, np.broadcast_to(breaks, (hs.size, breaks.shape[-1])))
    q = gauss_panels(lambda t, g: integrand(t, hs[g]), (lo, hi), np.repeat(0.5 * tol, shape[2]),
                     group)
    value = q.value.reshape(shape[0], shape[2], shape[1]).swapaxes(1, 2)
    error = q.error.reshape(shape[0], shape[2], shape[1]).swapaxes(1, 2)
    truncation = np.zeros(shape)
    if exact.any():
        at = T[exact][:, None, None, None]
        for j, row in enumerate(rows):
            if row.terms is not None:
                v, r = _tail_sum(_product(d_terms, row.terms, hs[exact], xs), at)
                value[j, exact] += v
                error[j, exact] += r
    if live:
        u = (hs * T)[:, None]
        tau, s = 0.5 * tail(T)[:, None], sup_tail(u)
        for j, rest in live:
            mid, half = _tail_bound(rows[j], rest, u, s)
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
    grows like 1/h, fits the work budget (``_transform_integrals``).
    """
    hs = np.atleast_1d(np.asarray(hs, dtype=float))
    if kernel.is_sinc:
        # phi is the indicator of [-1, 1]: both integrals are tails of |f|^2;
        # a cutoff 1/h past the float range leaves no tail
        total = float(density.cf_sq_tail(0.0))
        with np.errstate(over="ignore"):
            cutoff = 1.0 / hs
        finite = np.isfinite(cutoff)
        tails = np.zeros(hs.size)
        tails[finite] = density.cf_sq_tail(cutoff[finite])
        zeros = np.zeros((2, hs.size))
        return _Integrals(np.stack((tails, total - tails)), zeros, zeros,
                          cutoff, np.zeros(hs.size, dtype=int))
    rows = [_Row(lambda u, s: (1.0 + s * s, 2.0 * s)),
            _Row(lambda u, s: (0.5 * s * s,) * 2)][:2 if variance else 1]
    d_terms = None
    if density.tail_terms is not None and kernel.tail_terms is not None:
        f = _terms(density.tail_terms)
        d_terms = _multiply(f, f._replace(c=np.conj(f.c), a=-f.a))
        factors = (_one_minus(kernel.tail_terms), _terms(kernel.tail_terms))
        rows = [r._replace(terms=_multiply(g, g), expansion=kernel.tail_terms)
                for r, g in zip(rows, factors)]

    def integrand(t, h):
        ft = density.cf(t)
        mod2 = ft.real ** 2 + ft.imag ** 2
        u = h * t
        rows = [mod2 * kernel.one_minus_cf(u) ** 2]
        if variance:
            rows.append(mod2 * kernel.cf(u) ** 2)
        return rows

    r = _transform_integrals(
        density, kernel, integrand, rows, hs, np.zeros(1),
        density.cf_phases[1] - density.cf_phases[0] + 2.0 * hs,
        density.cf_sq_tail, d_terms)
    value, error, truncation = (2.0 * v[..., 0] for v in r[:3])
    return _Integrals(value, error, truncation, r.cutoff, r.nodes)


def _bandwidths(h) -> np.ndarray:
    """h as a flat array, each checked."""
    hs = np.atleast_1d(np.asarray(h, dtype=float)).ravel()
    for one in hs.tolist():
        _check_h(one)
    return hs


def _shape(x, arr):
    return arr[0].item() if np.ndim(x) == 0 else arr.reshape(np.shape(x))


def _shaped(h, report: RiskReport) -> RiskReport:
    """A report on the flat array of h in the shape of h: scalars for one."""
    if np.ndim(h) == 0:
        return RiskReport(*(v.item(0) for v in vars(report).values()))
    return RiskReport(*(v.reshape(np.shape(h)) for v in vars(report).values()))


def integrated_sq_bias(density: DensityModel, kernel: KernelModel, h) -> RiskReport:
    """Integrated squared bias int bias(x)^2 dx, by certified quadrature, at
    a bandwidth h or at each of an array of them (one pass, each h to its
    own cutoff).

    Parseval moves the integral to the transform side, where it is
    damped by |f|^2:  (2 pi)^(-1) int |f(t)|^2 |1 - phi(h t)|^2 dt.
    """
    r = _sq_integrals(density, kernel, _bandwidths(h), variance=False)
    value, quad_error, truncation = (v[0] / (2.0 * math.pi) for v in r[:3])
    return _shaped(h, RiskReport(value, quad_error, truncation, _degraded(value, quad_error),
                                 r.cutoff, r.nodes))


def _mise(density: DensityModel, kernel: KernelModel, h, n: int) -> RiskReport:
    """``exact_mise`` on the flat array of h, whatever its shape."""
    hs = _bandwidths(h)
    _check_count("n", n)
    r = _sq_integrals(density, kernel, hs)
    two_pi = 2.0 * math.pi
    with np.errstate(over="ignore"):  # R(K)/h past the float range: an inf, degraded
        (bias, var), rough = r.value / two_pi, kernel.roughness / hs
        value = bias + (rough - var) / n
        # the combination's own rounding: a few ulps of the terms it combines
        quad_error = ((r.error[0] + r.error[1] / n) / two_pi
                      + 4.0 * _EPS * (np.abs(bias) + (rough + np.abs(var)) / n))
    return RiskReport(value, quad_error, r.truncation[0] / two_pi,
                      _degraded(value, quad_error), r.cutoff, r.nodes)


def exact_mise(density: DensityModel, kernel: KernelModel, h, n: int) -> RiskReport:
    """Exact mean integrated squared error, by certified quadrature, at a
    bandwidth h or at each of an array of them.

    Only integrals damped by |f|^2 reach the quadrature, both in one pass
    over every h, each h to its own cutoff: the kernel-only part of the
    variance enters exactly as int |phi(ht)|^2 dt = 2 pi R(K) / h.
    """
    return _shaped(h, _mise(density, kernel, h, n))


# ---------------------------------------------------------------------------
# pointwise risk


def _pointwise(density: DensityModel, kernel: KernelModel, hs, xs,
               second: bool) -> _Integrals:
    """Half-line transform integrals of the bias (and of E K_h^2), batched
    over h and x, on the axes (bias or second moment, h, x), each h to its
    own cutoff.

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

    def integrand(t, h):
        ft = density.cf(t)
        tx = xs[:, None] * t[None, :]
        re = ft.real * np.cos(tx) + ft.imag * np.sin(tx)
        u = h * t
        rows = [re * kernel.one_minus_cf(u)]
        if second:
            rows.append(re * kernel.sq_cf(u))
        return np.concatenate(rows)

    if kernel.is_sinc:
        # the jumps of 1 - phi and of psi, the transform of K^2
        with np.errstate(over="ignore"):
            breaks = np.stack((1.0 / hs, 2.0 / hs), axis=1)
    else:
        breaks = ()
    return _transform_integrals(
        density, kernel, integrand, rows, hs, xs,
        # fastest phase speed of f(t) exp(-i t x) phi(h t) over the points
        np.max(np.maximum(np.abs(hi - xs), np.abs(lo - xs))) + hs,
        density.cf_abs_tail, None if density.tail_terms is None else _terms(density.tail_terms),
        breaks=breaks)


def _abs_bias_factor(density: DensityModel, kernel: KernelModel,
                     h: float) -> float:
    """Upper value of F = (2 pi)^(-1) int |f(t)| |1 - phi(h t)| dt.

    For a real phi, |1 - phi| = 1 - min(phi, 2 - phi), so
    F = a_p - pi^(-1) int_0^inf |f(t)| min(phi(ht), 2 - phi(ht)) dt, a_p the
    model's upper value of pi^(-1) int_0^inf |f| (cf_abs_tail(0)/2 pi where
    it has none).  Past T the kernel factor lies in [-s, s], s =
    sup_{|u| >= hT} |phi(u)|, so the cutoff follows the kernel's decay, not
    that of |f|.  F is squared into an upper bound, so it is never rounded
    below its true value: the integral enters as its value less its error
    (the bounded tail included), and the rounding of the subtraction is
    added.  The panels break at the kinks of |f| (cf_kinks), where no Gauss
    node would see them, and at the sinc kernel's jump.  A tail that decays
    slowly stops at 4096 periods; the estimate only loosens.
    """
    a_p = density.a_p
    if a_p is None:
        a_p = float(density.cf_abs_tail(0.0)) / (2.0 * math.pi)
    r = _transform_integrals(
        density, kernel,
        lambda t, _: np.abs(density.cf(t)) * (1.0 - np.abs(kernel.one_minus_cf(h * t))),
        [_Row(lambda u, s: (0.0, s))], np.array([h]), np.zeros(1),
        density.cf_phases[1] - density.cf_phases[0] + h,
        density.cf_abs_tail, None,
        breaks=density.cf_kinks + ((1.0 / h,) if kernel.is_sinc else ()), periods=4096)
    lower = (r.value - r.error).item() / math.pi
    return a_p - lower + 2.0 * _EPS * (a_p + abs(lower))


def _pointwise_points(density: DensityModel, x) -> np.ndarray:
    """The points x as a flat array, once the density is checked."""
    if density.cf_abs_tail is None:
        raise ValueError(
            "density %r lacks an integrable transform; pointwise bias is "
            "not available" % density.name
        )
    return np.atleast_1d(np.asarray(x, dtype=float)).ravel()


def exact_bias(density: DensityModel, kernel: KernelModel, h: float,
               x) -> RiskReport:
    """Exact pointwise bias of the estimate at x (a point or an array).

    Requires an absolutely integrable characteristic function (the model
    must carry cf_abs_tail); otherwise the inversion integral is not
    certified and a ValueError is raised.
    """
    _check_h(h)
    xs = _pointwise_points(density, x)
    r = _pointwise(density, kernel, np.array([h]), xs, second=False)
    value = -r.value[0, 0] / math.pi
    quad_error = r.error[0, 0] / math.pi
    return RiskReport(value=_shape(x, value), quad_error=_shape(x, quad_error),
                      truncation=0.0,
                      degraded=_shape(x, _degraded(value, quad_error)),
                      cutoff=float(r.cutoff[0]), nodes=int(r.nodes[0]))


def exact_mse(density: DensityModel, kernel: KernelModel, h, n: int,
              x) -> RiskReport:
    """Exact pointwise mean squared error at x (a point or an array), at a
    bandwidth h or at each of an array of them.

    MSE(x) = bias(x)^2 + n^(-1) [ E K_h^2(x - X) - (E K_h(x - X))^2 ],
    with both expectations written through the transforms: the second
    moment uses the transform of K^2 and the first is p(x) + bias(x).
    Bias and second moment at every h and x come from one quadrature pass,
    each h to its own cutoff, as if alone.  For a scalar h, value,
    quad_error and degraded have the shape of x; for an array of h, the
    shape of h followed by that of x, and truncation, cutoff and nodes the
    shape of h.  A variance below minus its error at any h and x raises
    ValueError.
    """
    hs = _bandwidths(h)
    xs = _pointwise_points(density, x)
    _check_count("n", n)
    r = _pointwise(density, kernel, hs, xs, second=True)
    hc = hs[:, None]
    b = -r.value[0] / math.pi
    b_err = r.error[0] / math.pi
    second_moment = r.value[1] / (math.pi * hc)
    mean = np.asarray(density.pdf(xs), dtype=float) + b
    var = (second_moment - mean * mean) / n
    quad_error = (b_err * (2.0 * np.abs(b) + 2.0 * np.abs(mean) / n + b_err)
                  + r.error[1] / (math.pi * hc) / n)
    if np.any(var < -quad_error):
        raise ValueError(
            "negative variance %.3e indicates quadrature failure" % float(var.min())
        )
    value = b * b + np.maximum(var, 0.0)
    degraded = _degraded(value, quad_error)
    if np.ndim(h) == 0:
        return RiskReport(_shape(x, value[0]), _shape(x, quad_error[0]), 0.0,
                          _shape(x, degraded[0]), float(r.cutoff[0]), int(r.nodes[0]))
    per_h, shape = np.shape(h), np.shape(h) + np.shape(x)
    return RiskReport(value.reshape(shape), quad_error.reshape(shape), np.zeros(per_h),
                      degraded.reshape(shape), r.cutoff.reshape(per_h), r.nodes.reshape(per_h))


def mc_mise(density: DensityModel, kernel: KernelModel, h, n: int,
            reps: int = 200, seed: int = 0, grid_points: int = 1024):
    """Monte Carlo estimate of the integrated squared error, averaged, at a
    bandwidth h or at each of an array of them.

    Returns (mean, standard error), arrays in the shape of h for an array;
    the standard error is NaN for a single replicate.  Replicate r uses the
    generator seeded with seed + r, so any prefix of replicates is
    reproducible, and its sample is drawn once for every h.  Each h has its
    own grid of grid_points over the support hint widened by 4h.
    """
    hs = _bandwidths(h).tolist()
    if reps < 1 or grid_points < 2:
        raise ValueError("need at least one replicate and two grid points")
    if density.sampler is None:
        raise ValueError("density %r has no sampler" % density.name)
    lo, hi = density.support_hint
    grids = [np.linspace(lo - 4.0 * b, hi + 4.0 * b, grid_points) for b in hs]
    truths = [np.asarray(density.pdf(xs), dtype=float) for xs in grids]
    ises = np.empty((len(hs), reps))
    for r in range(reps):
        rng = np.random.default_rng(seed + r)
        sample = Sample(values=np.sort(density.sampler(rng, n)))
        for j, (b, xs, truth) in enumerate(zip(hs, grids, truths)):
            ys = _estimate(sample, kernel, b, xs).ys
            ises[j, r] = np.trapezoid((ys - truth) ** 2, xs)
    mean = np.mean(ises, axis=1)
    se = np.std(ises, axis=1, ddof=1) / math.sqrt(reps) if reps > 1 else mean * math.nan
    return _shape(h, mean), _shape(h, se)
