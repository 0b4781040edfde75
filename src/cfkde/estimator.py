"""Kernel density estimates on grids, with a clip-and-renormalize repair.

The estimate at x is the average of scaled kernels centered at the data,
f_h(x) = (n h)^(-1) sum_j K((x - X_j)/h).  It is computed by one of three
exact routes:

* pairs (kde_eval): each point sums only the data within the kernel's reach,
  |x - X_j| <= KernelModel.reach * h: the all-pairs sum for a compact kernel
  (whose window is widened by a few ulps) and for an infinite reach, within
  2^-53 K(0)/h of it for the gaussian.  The points are sorted once and the
  data summed over their runs of points in cache-sized dense blocks; time is
  O(M log M + M log n + n + pairs), memory O(n + M).
* transform (sinc_kde_fourier, sinc kernel only): the estimate's transform
  is the empirical characteristic function cut off at 1/h, so the curve is
  (1/pi) int_0^{1/h} Re[exp(-i t x) f_n(t)] dt on panels half a period of
  the fastest oscillation wide, whose nodes, weights and f_n come from
  charfun.ecf_panel_sums, the panel layer it shares with the UCV
  criterion.  Time is O(n sqrt(panels) + (n + M) panels); the panel count
  grows with the spread of the data and the grid, so one far outlier makes
  it expensive.
* grid (estimate_on_grid, built-in gaussian only): Taylor expansions about
  the grid's own cells, as in the fast Gauss transform (Greengard & Strain
  1991, SIAM J. Sci. Stat. Comput. 12(1)).  With delta = dx/h, a datum
  r h from its nearest cell k and the point m cells away give
  exp(-(m delta - r)^2/2) = exp(-(m delta)^2/2) exp(-r^2/2) sum_p (m delta r)^p/p!,
  so the estimate is sum_p conv(M_p, D_p) over P terms: per-cell moments
  M_p = sum exp(-r^2/2) r^p (binned in slices of the sorted sample) and
  D_p[m] = exp(-(m delta)^2/2) (m delta)^p/p! for |m| <= W =
  ceil(reach/delta + 1/2).  P is the fewest terms whose remainder is at most
  2^-53 K(0) per datum, the standard the reach sets; where more than 40
  would be needed (h well below the grid step) the route does not apply.
  Rounding: r is taken from the cell centres x0 + k dx held as two doubles
  (an exact product and Knuth's two-sum), and each point's own offset c h
  from its centre (linspace rounds by about an ulp of x) enters to first
  order, -c sum v exp(-v^2/2) with v = m delta - r, from the same moments;
  where c^2/2 max|K''| would exceed 2^-53 K(0) the route does not apply.
  Time O(n P + M W P), memory O(M P + _BLOCK).

estimate_on_grid counts the operations of each route that applies (two per
pair; for the transform one per cos or sin and one per 16 node-point
products of a matrix product; for the grid a fixed part and parts per
datum, moment, term and convolution product) and takes the cheapest.
EstimateGrid.metadata records the route with its counts: "pairs" for the
pair route, "nodes" for the transform, "terms" (P) and "cells" (2W + 1,
the cells each value sums) for the grid, and the reach h in data units
(None when unbounded).

correct_to_density repairs an estimate that is not a density (the sinc
kernel takes negative values) by clipping at a level xi >= 0 chosen so
max(y - xi, 0) integrates to one on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .charfun import _BLOCK, _EPS, _X12, Sample, _ecf_panel_ops, ecf_panel_sums
from .kernels import KernelModel, _check_h, make_builtin

__all__ = [
    "EstimateGrid",
    "CorrectionInfeasibleError",
    "default_grid",
    "kde_eval",
    "sinc_kde_fourier",
    "estimate_on_grid",
    "correct_to_density",
]

_MASS_TOL = 1e-9
# Counted operations per pair: where the routes cost about the same, a sinc
# pair takes 1.6-1.8 counted transform operations (22-33 ns against 16-20),
# and a gaussian pair takes 11-12 ns.
_PAIR_OPS = 2
# Counted operations of the grid route: a fixed part, per datum, per datum
# and moment, per term (a moment row and a convolution call) and per product
# of a convolution.  Fitted to in-process timings of both routes over n = 3
# to 10^5, grids of 64 to 2048 points and h from 0.05 to 4 times the normal
# rule's, and rounded up until the grid route was never taken where it ran
# slower: where it is taken it ran in at most 0.82 of the pair route's time.
_GRID_OPS = 40000.0
_DATUM_OPS = 4.0
_MOMENT_OPS = 0.15
_TERM_OPS = 3000.0
_PRODUCTS_PER_OP = 24.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# The grid route holds each datum's truncation to 2^-53 K(0), the standard of
# KernelModel.reach, with at most _MAX_TERMS terms; _SPLIT is Veltkamp's
# splitter, which leaves the 26 leading bits of a double.
_LOG_TOL = -53.0 * math.log(2.0)
_MAX_TERMS = 40
_LOG_FACT = [math.lgamma(k + 1.0) for k in range(_MAX_TERMS + 1)]
_SPLIT = 2.0 ** 27 + 1.0


class CorrectionInfeasibleError(ValueError):
    """Raised when the grid mass is below one, so no clip level works."""


@dataclass(frozen=True)
class EstimateGrid:
    """A density estimate evaluated on a uniform grid.

    metadata records how ys was computed: the route ("pairs", "transform"
    or "grid"), the pair count, the transform's node count or the grid's
    terms and cells, and the reach (the window half-width reach h in data
    units, None when unbounded).
    """

    xs: np.ndarray
    ys: np.ndarray
    h: float
    kernel_name: str
    corrected: bool = False
    xi: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def mass(self) -> float:
        return float(np.trapezoid(self.ys, self.xs))


def _check_uniform(xs: np.ndarray) -> float:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    steps = np.diff(xs)
    step = float(steps[0])
    # linspace rounds each point by up to an ulp of itself, so its steps
    # differ by up to two ulps of the largest |x|; four times that passes
    tol = max(1e-12 * max(abs(step), 1.0), 8.0 * _EPS * float(np.max(np.abs(xs))))
    if not (step > 0 and np.all(np.abs(steps - step) <= tol)):
        raise ValueError("grid must be uniformly spaced and increasing")
    return step


def default_grid(sample: Sample, h: float, n_points: int = 512) -> np.ndarray:
    """Uniform grid covering the data plus a 4h + 4*std margin."""
    _check_h(h)
    if n_points < 2:
        raise ValueError("need at least two grid points")
    pad = 4.0 * h + 4.0 * sample.std()
    lo = float(sample.values[0]) - pad
    hi = float(sample.values[-1]) + pad
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bandwidth %r pads the default grid past the float range" % h)
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n_points)


def _window(data: np.ndarray, reach: float, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # data[lo:hi] holds every datum within reach of each x (all of them for
    # an infinite reach).  The edges are widened by 16 ulps of reach and
    # rounded outward, so a datum whose rounded (x - X)/h can land inside
    # the support is never cut off.
    r = reach * (1.0 + 16.0 * np.finfo(float).eps)
    lo = np.searchsorted(data, np.nextafter(x - r, -np.inf), side="left")
    hi = np.searchsorted(data, np.nextafter(x + r, np.inf), side="right")
    return lo, hi


def kde_eval(sample: Sample, kernel: KernelModel, h: float, x):
    """Evaluate the estimate at the points x by summing the data within reach.

    Each point sums K((x - X_j)/h) over the data within kernel.reach * h of
    it (all when the reach is inf), datum by datum over the sorted points in
    blocks of at most _BLOCK pairs.  Returns a float for scalar x, else an array.
    """
    _check_h(h)
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    order = np.argsort(x_arr, kind="stable")
    pts = x_arr[order]
    out = np.empty(x_arr.size)
    out[order] = _pair_sum(sample, kernel, h, pts, *_window(sample.values, kernel.reach * h, pts))
    out[np.isnan(x_arr)] = np.nan  # undefined at a NaN point
    return float(out[0]) if scalar else out


def _pair_sum(sample: Sample, kernel: KernelModel, h: float, pts: np.ndarray,
              plo: np.ndarray, phi: np.ndarray) -> np.ndarray:
    # the estimate at the sorted points pts, point i summing values[plo[i]:phi[i]];
    # both rise with i, so only values[a:b] reach a point, and datum j of
    # data = values[a:b] meets pts[lo[j]:hi[j]]
    a, b = (int(plo[0]), int(phi[-1])) if pts.size else (0, 0)
    data, steps = sample.values[a:b], np.arange(pts.size + 1)
    lo, hi = (np.repeat(steps, np.diff(np.concatenate(([a], e, [b])))) for e in (phi, plo))
    count, acc, r0, end = hi - lo, np.zeros(pts.size), 0, b - a
    while r0 < end:
        # data r0:r1 times their longest run, <= _BLOCK pairs; shorter runs are padded with
        # points beyond reach (K < 2^-53 K(0) there), a longer run is split into chunks
        widest = np.maximum.accumulate(count[r0:r0 + 1 + _BLOCK // max(1, int(count[r0]))])
        r1 = r0 + max(1, int(np.sum(widest * np.arange(1, widest.size + 1) <= _BLOCK)))
        width = int(widest[r1 - r0 - 1])
        start = np.minimum(lo[r0:r1], pts.size - width)
        for c0 in range(start[0], start[0] + width, _BLOCK):
            cols = (start - start[0])[:, None] + steps[:min(_BLOCK, start[0] + width - c0)]
            u = (pts[c0:][cols] - data[r0:r1, None]) / h
            part = np.bincount(cols.ravel(), weights=kernel.eval(u).ravel())
            acc[c0:c0 + part.size] += part
        r0 = r1
    return acc / (sample.n * h)


class _SincPlan(NamedTuple):
    width: float
    panels: int
    ops: float


def _sinc_plan(data: np.ndarray, h: float, x: np.ndarray) -> _SincPlan:
    # panels half a period pi/omega of the fastest oscillation wide, omega the
    # largest |x - X_j| (at least 1); the panel sums, then cos and sin of t x
    # at every node and point and the matrix products with them
    cutoff = 1.0 / h
    omega = float(max(abs(x.max() - data[0]), abs(data[-1] - x.min()), 1.0))
    periods = cutoff * omega / math.pi
    if not math.isfinite(periods):
        raise ValueError("bandwidth %r puts the sinc kernel's cutoff 1/h past the float range"
                         % (h,))
    panels = max(4, int(math.ceil(periods)))
    nodes = _X12.size * panels
    ops = _ecf_panel_ops(data.size, panels) + nodes * x.size / 16 + 2 * nodes * x.size
    return _SincPlan(cutoff / panels, panels, ops)


def sinc_kde_fourier(sample: Sample, h: float, x) -> np.ndarray:
    """Evaluate the sinc-kernel estimate through its transform.

    The curve equals (1/pi) int_0^{1/h} Re[exp(-i t x) f_n(t)] dt, computed
    with Gauss-Legendre panels sized to the fastest oscillation present;
    f_n on the panels comes from charfun.ecf_panel_sums, and the curve from
    real cos and sin products in blocks of x.
    """
    _check_h(h)
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    data = sample.values
    plan = _sinc_plan(data, h, x_arr)
    t, w, re, im, center = ecf_panel_sums(data, plan.width, plan.panels)
    w = w / (math.pi * data.size)
    wc, ws = w * re, w * im
    xc = x_arr - center
    out = np.empty(x_arr.size)
    step = max(1, _BLOCK // t.size)
    for i in range(0, xc.size, step):
        tx = np.multiply.outer(xc[i:i + step], t)
        out[i:i + step] = np.cos(tx) @ wc + np.sin(tx) @ ws
    return float(out[0]) if scalar else out


class _GridPlan(NamedTuple):
    x0: float
    dx: float
    width: int  # W: a value sums the cells within W steps of its point
    terms: int  # P
    fix: int  # Q, the terms of the offset correction; 0 when every c is 0
    base: int  # the grid index of the first cell kept
    centres: Tuple[np.ndarray, np.ndarray]  # x0 + k dx, k = base.., as hi + lo
    c: np.ndarray  # the offsets of points out[0]..out[1] from x0 + i dx, in units of h
    data: Tuple[int, int]  # values[lo:hi] can lie in the cells kept
    out: Tuple[int, int]  # the points within W cells of a datum
    ops: float


def _grid_terms(delta: float,
                width: int) -> Tuple[Optional[int], Callable[[float], Optional[int]]]:
    # A datum lies |r| <= delta/2 from its cell's centre (rmax adds a margin
    # for the rounding of its cell index), a point m cells away.  Cutting
    # the series of exp(m delta r) after P terms leaves at most
    # y^P/P! exp(|y|), y = m delta rmax, times exp(-(m delta)^2/2 - r^2/2):
    # in all (a rmax)^P/P! exp(-(a - rmax)^2/2) at a = |m| delta, bounded by
    # its largest value over a in [delta, W delta] (peak).  The series of the
    # correction, v exp(-v^2/2), cut after Q terms leaves
    # a y^Q/Q! + rmax y^(Q-1)/(Q-1)! times the same exponential.  Each must
    # be <= 2^-53 in units of K(0), the correction's after its factor c.
    # Returns P (None past _MAX_TERMS) and the map from the largest |c| > 0
    # to Q (None past _MAX_TERMS).
    rmax = 0.5 * delta * (1.0 + 2.0 ** -20)
    lo, hi, log_r = delta, width * delta, math.log(rmax)

    def peak(k):  # max over a in [lo, hi] of k log a - (a - rmax)^2/2
        a = min(max(0.5 * (rmax + math.sqrt(rmax * rmax + 4.0 * k)), lo), hi)
        return k * math.log(a) - 0.5 * (a - rmax) ** 2

    def fix(cmax):  # a sum of two is at most twice the larger
        return next((q for q in range(2, _MAX_TERMS + 1)
                     if q * log_r - _LOG_FACT[q] + math.log(2.0 * cmax)
                     + max(peak(q + 1), math.log(q) + peak(q - 1)) <= _LOG_TOL), None)

    return next((p for p in range(1, _MAX_TERMS + 1)
                 if p * log_r - _LOG_FACT[p] + peak(p) <= _LOG_TOL), None), fix


def _grid_plan(sample: Sample, kernel: KernelModel, h: float, xs: np.ndarray,
               budget: float) -> Optional[_GridPlan]:
    # The grid route's plan for the built-in gaussian, or None where it would
    # count budget operations or more, or cannot hold each datum to the
    # 2^-53 K(0) that the reach accepts.
    if kernel is not make_builtin("gaussian"):
        return None
    size, values = xs.size, sample.values
    x0 = float(xs[0])
    dx = (float(xs[-1]) - x0) / (size - 1)
    width = int(math.ceil(kernel.reach * h / dx + 0.5))
    if size + 2 * width >= 2 ** 26:
        return None
    lo, hi = (int(i) for i in np.searchsorted(values, (x0 - (width + 1) * dx,
                                                        x0 + (size + width) * dx)))
    if hi == lo:
        return None
    first, last = np.rint((values[[lo, hi - 1]] - x0) / dx)
    o0, o1 = max(0, int(first) - width), min(size - 1, int(last) + width)
    products = (o1 - o0 + 1) * (2 * width + 1)

    def count(rows, terms):  # the counted operations with these moments and terms
        return (_GRID_OPS + (hi - lo) * (_DATUM_OPS + rows * _MOMENT_OPS)
                + terms * (_TERM_OPS + products / _PRODUCTS_PER_OP))

    if o1 < o0 or count(1, 1) >= budget:
        return None
    # the offsets only add terms, so count(P, P) is the least the route counts
    terms, fix_terms = _grid_terms(dx / h, width)
    if terms is None or count(terms, terms) >= budget:
        return None
    # x0 + k dx as hi + lo: k times the 26-bit head of dx is exact for
    # |k| < 2^26, the sum with x0 is split by Knuth's two-sum
    base = o0 - width
    k = np.arange(base, o1 + width + 1, dtype=float)
    t = _SPLIT * dx
    dhead = t - (t - dx)
    kd = k * dhead
    s = x0 + kd
    v = s - x0
    centres = (s, ((x0 - (s - v)) + (kd - v)) + k * (dx - dhead))
    c = ((xs[o0:o1 + 1] - centres[0][width:-width]) - centres[1][width:-width]) / h
    cmax = float(np.max(np.abs(c)))
    # the offsets are corrected to first order; the second, c^2/2 max|K''|,
    # must stay within 2^-53 K(0)
    if 0.5 * cmax * cmax > 2.0 ** -53:
        return None
    fix = fix_terms(cmax) if cmax else 0
    if fix is None:
        return None
    ops = count(max(terms, fix), terms + fix)
    if ops >= budget:
        return None
    return _GridPlan(x0, dx, width, terms, fix, base, centres, c, (lo, hi), (o0, o1), ops)


def _grid_sum(sample: Sample, h: float, size: int, plan: _GridPlan) -> np.ndarray:
    # The estimate on the grid from cell moments.  A datum in cell k, r h
    # from x0 + k dx, and the point i = k + m, c h from x0 + i dx, lie
    # (m delta - r + c) h apart, and
    #   exp(-(m delta - r)^2/2) = exp(-(m delta)^2/2) exp(-r^2/2) sum_p (m delta r)^p/p!,
    # so the sum over the data is sum_p conv(M_p, D_p) with the cell moments
    # M_p[k] = sum exp(-r^2/2) r^p and D_p[m] = exp(-(m delta)^2/2) (m delta)^p/p!.
    # The offset c adds -c sum v exp(-v^2/2), v = m delta - r, whose series
    # is sum_p conv(M_p, m delta D_p - D_(p-1)).
    width, terms, fix, base = plan.width, plan.terms, plan.fix, plan.base
    (lo, hi), (o0, o1) = plan.data, plan.out
    chi, clo = plan.centres
    rows = max(terms, fix)
    mom = np.zeros((rows, chi.size))
    for a in range(lo, hi, _BLOCK):
        x = sample.values[a:min(hi, a + _BLOCK)]
        k = np.rint((x - plan.x0) / plan.dx).astype(np.intp)
        k -= base
        keep = slice(*np.searchsorted(k, (0, chi.size)))
        x, k = x[keep], k[keep]
        if k.size == 0:
            continue
        r = ((x - chi[k]) - clo[k]) / h
        starts = np.flatnonzero(np.diff(k, prepend=-1))
        cells = k[starts]
        w = np.exp(-0.5 * r * r)
        for row in mom:
            row[cells] += np.add.reduceat(w, starts)
            w *= r
    md = np.arange(-width, width + 1) * (plan.dx / h)
    dp = np.empty((rows, md.size))
    dp[0] = np.exp(-0.5 * md * md)
    dp[1:] = md / np.arange(1.0, rows)[:, None]
    np.cumprod(dp, axis=0, out=dp)
    out = np.zeros(size)
    ys = out[o0:o1 + 1]
    for p in range(terms):
        ys += np.convolve(mom[p], dp[p], mode="valid")
    if fix:
        gp = md * dp[:fix]
        gp[1:] -= dp[:fix - 1]
        corr = np.zeros(ys.size)
        for p in range(fix):
            corr += np.convolve(mom[p], gp[p], mode="valid")
        ys -= plan.c * corr
    out /= _SQRT_2PI * sample.n * h
    return np.maximum(out, 0.0, out=out)


def estimate_on_grid(
    sample: Sample,
    kernel: KernelModel,
    h: float,
    grid: Optional[np.ndarray] = None,
    n_points: int = 512,
    correct: bool = False,
) -> EstimateGrid:
    """Evaluate the estimate on a uniform grid, optionally repaired.

    Of the routes that hold for the kernel (pairs always; transform for the
    sinc kernel; grid for the built-in gaussian where its terms and the
    grid's rounding allow), the one that counts the fewest operations runs.
    """
    _check_h(h)
    xs = default_grid(sample, h, n_points) if grid is None else np.asarray(grid, dtype=float)
    _check_uniform(xs)
    reach = kernel.reach * h
    plo, phi = _window(sample.values, reach, xs)
    pairs = int(np.sum(phi - plo))
    sinc = _sinc_plan(sample.values, h, xs) if kernel.is_sinc else None
    ops = {"pairs": _PAIR_OPS * pairs,
           "transform": sinc.ops if sinc else math.inf}
    cells = _grid_plan(sample, kernel, h, xs, min(ops.values()))
    ops["grid"] = cells.ops if cells else math.inf
    route = min(ops, key=ops.get)
    if route == "transform":
        ys = sinc_kde_fourier(sample, h, xs)
        meta = {"route": route, "nodes": _X12.size * sinc.panels, "reach": None}
    elif route == "grid":
        ys = _grid_sum(sample, h, xs.size, cells)
        meta = {"route": route, "terms": cells.terms, "cells": 2 * cells.width + 1,
                "reach": reach}
    else:
        ys = _pair_sum(sample, kernel, h, xs, plo, phi)
        meta = {"route": route, "pairs": pairs,
                "reach": reach if math.isfinite(reach) else None}
    est = EstimateGrid(xs=xs, ys=ys, h=float(h), kernel_name=kernel.name,
                       metadata=meta)
    if correct:
        est = correct_to_density(est)
    return est


def correct_to_density(est: EstimateGrid) -> EstimateGrid:
    """Clip the curve at the level xi that restores unit grid mass.

    The clipped trapezoid mass sum w max(y - xi, 0) is S_k - xi W_k while xi
    lies between the k-th and (k+1)-th largest y, with S_k = sum w y and
    W_k = sum w over the k largest; xi = (S_k - 1)/W_k on the segment where
    it crosses one.  A curve whose grid mass is already below one cannot be
    repaired by clipping and raises CorrectionInfeasibleError.
    """
    xs = np.asarray(est.xs, dtype=float)
    ys = np.asarray(est.ys, dtype=float)
    _check_uniform(xs)
    excess = float(np.trapezoid(np.maximum(ys, 0.0), xs)) - 1.0
    if abs(excess) <= _MASS_TOL:
        return replace(est, xs=xs, ys=np.maximum(ys, 0.0), corrected=True, xi=0.0)
    if excess < 0.0:
        raise CorrectionInfeasibleError(
            "grid mass %.6f is below 1; widen the grid or decrease h"
            % (excess + 1.0)
        )
    order = np.argsort(ys)[::-1]
    y, w = ys[order], np.convolve(np.diff(xs), [0.5, 0.5])[order]
    s_k, w_k = np.cumsum(w * y), np.cumsum(w)
    # the mass at xi = y_k grows with k, and is below one while y_k > xi
    k = int(np.searchsorted(s_k - y * w_k, 1.0))
    xi = (s_k[k - 1] - 1.0) / w_k[k - 1]
    return replace(est, xs=xs, ys=np.maximum(ys - xi, 0.0), corrected=True,
                   xi=float(xi))
