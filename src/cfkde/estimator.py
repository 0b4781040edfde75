"""Kernel density estimates on grids, with a clip-and-renormalize repair.

The estimate at x is the average of scaled kernels centered at the data,
f_h(x) = (n h)^(-1) sum_j K((x - X_j)/h).  It is computed by one of two
exact routes:

* pairs (kde_eval): each point sums only the data within the kernel's reach,
  |x - X_j| <= KernelModel.reach * h: the all-pairs sum for a compact kernel
  (whose window is widened by a few ulps) and for an infinite reach, within
  2^-53 K(0)/h of it for the gaussian.  The points are sorted once and the
  data summed over their runs of points in cache-sized dense blocks; time is
  O(M log M + M log n + n + pairs), memory O(n + M).
* transform (sinc_kde_fourier, sinc kernel only): the estimate's transform
  is the empirical characteristic function cut off at 1/h, so the curve is
  (1/pi) int_0^{1/h} Re[exp(-i t x) f_n(t)] dt on 12-node Gauss-Legendre
  panels half a period of the fastest oscillation wide, with f_n on every
  panel from the factored sums of charfun.ecf_panel_sums.  Time is
  O(n sqrt(panels) + (n + M) panels); the panel count grows with the
  spread of the data and the grid, so one far outlier makes it expensive.

estimate_on_grid takes the transform route for the sinc kernel when it
counts fewer operations than the n M pairs (one per cos or sin, two per
sinc pair, one per 16 node-point products of a matrix product), and
records the route in EstimateGrid.metadata.

correct_to_density repairs an estimate that is not a density (the sinc
kernel takes negative values) by clipping at a level xi >= 0 chosen so
max(y - xi, 0) integrates to one on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .charfun import Sample, ecf_panel_sums
from .kernels import KernelModel

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
# Pairs per block of the reach sum, and (x, t) pairs per block of the
# transform route's curve, which keeps memory flat in n and M.
_BLOCK = 1 << 15
_X12, _W12 = np.polynomial.legendre.leggauss(12)
# Counted operations per sinc pair: where the routes cost about the same, a
# pair takes 1.6-1.8 counted transform operations (22-33 ns against 16-20).
_SINC_PAIR_OPS = 2


class CorrectionInfeasibleError(ValueError):
    """Raised when the grid mass is below one, so no clip level works."""


@dataclass(frozen=True)
class EstimateGrid:
    """A density estimate evaluated on a uniform grid.

    metadata records how ys was computed: the route ("pairs" or
    "transform"), the pair count or the transform's node count, and the
    reach (the window half-width reach h in data units, None when
    unbounded).
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


def _check_h(h: float) -> None:
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("bandwidth must be positive and finite, got %r" % (h,))


def _check_uniform(xs: np.ndarray) -> float:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    steps = np.diff(xs)
    step = float(steps[0])
    if step <= 0 or np.any(np.abs(steps - step) > 1e-12 * max(abs(step), 1.0)):
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
    # point i sums values[plo[i]:phi[i]]; both rise with i, so only values[a:b]
    # reach a point, and datum j of data = values[a:b] meets pts[lo[j]:hi[j]]
    plo, phi = _window(sample.values, kernel.reach * h, pts)
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
    out = np.empty(x_arr.size)
    out[order] = acc / (sample.n * h)
    out[np.isnan(x_arr)] = np.nan  # undefined at a NaN point
    return float(out[0]) if scalar else out


class _SincPlan(NamedTuple):
    center: float
    width: float
    panels: int
    ops: float


def _sinc_plan(data: np.ndarray, h: float, x: np.ndarray) -> _SincPlan:
    # panels half a period pi/omega of the fastest oscillation wide, omega the
    # largest |x - X_j| (at least 1); the data and x are centred first
    center = 0.5 * (float(data[0]) + float(data[-1]))
    cutoff = 1.0 / h
    omega = float(max(abs(x.max() - data[0]), abs(data[-1] - x.min()), 1.0))
    panels = max(4, int(math.ceil(cutoff * omega / math.pi)))
    nodes = _X12.size * panels
    # as in selector._ucv_curve: cos and sin of the factored phases, the
    # n-side matrix products, then cos and sin of t x at every node and point
    ops = (2 * data.size * (2 * math.sqrt(panels) + _X12.size)
           + nodes * (data.size + x.size) / 16 + 2 * nodes * x.size)
    return _SincPlan(center, cutoff / panels, panels, ops)


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
    half = 0.5 * plan.width
    re, im = ecf_panel_sums(data - plan.center, plan.width, plan.panels, half * _X12)
    t = ((np.arange(plan.panels)[:, None] + 0.5) * plan.width + half * _X12).ravel()
    w = np.tile(half * _W12, plan.panels) / (math.pi * data.size)
    wc, ws = w * re.ravel(), w * im.ravel()
    xc = x_arr - plan.center
    out = np.empty(x_arr.size)
    step = max(1, _BLOCK // t.size)
    for i in range(0, xc.size, step):
        tx = np.multiply.outer(xc[i:i + step], t)
        out[i:i + step] = np.cos(tx) @ wc + np.sin(tx) @ ws
    return float(out[0]) if scalar else out


def estimate_on_grid(
    sample: Sample,
    kernel: KernelModel,
    h: float,
    grid: Optional[np.ndarray] = None,
    n_points: int = 512,
    correct: bool = False,
) -> EstimateGrid:
    """Evaluate the estimate on a uniform grid, optionally repaired.

    The sinc kernel takes the transform route when it counts fewer
    operations than the n M pairs, at two per pair; every other kernel, and
    the sinc kernel otherwise, the pair route of kde_eval.
    """
    _check_h(h)
    xs = default_grid(sample, h, n_points) if grid is None else np.asarray(grid, dtype=float)
    _check_uniform(xs)
    data = sample.values
    plan = _sinc_plan(data, h, xs) if kernel.is_sinc else None
    if plan is not None and plan.ops < _SINC_PAIR_OPS * data.size * xs.size:
        ys = sinc_kde_fourier(sample, h, xs)
        meta = {"route": "transform", "nodes": _X12.size * plan.panels, "reach": None}
    else:
        ys = kde_eval(sample, kernel, h, xs)
        reach = kernel.reach * h
        lo, hi = _window(data, reach, xs)
        meta = {"route": "pairs", "pairs": int(np.sum(hi - lo)),
                "reach": reach if math.isfinite(reach) else None}
    est = EstimateGrid(xs=xs, ys=ys, h=float(h), kernel_name=kernel.name,
                       metadata=meta)
    if correct:
        est = correct_to_density(est)
    return est


def _clipped_mass(ys: np.ndarray, xs: np.ndarray, xi: float) -> float:
    return float(np.trapezoid(np.maximum(ys - xi, 0.0), xs))


def correct_to_density(est: EstimateGrid) -> EstimateGrid:
    """Clip the curve at the level xi that restores unit grid mass.

    The clipped-mass map xi -> int max(y - xi, 0) is continuous and
    decreasing, so the level is found by bisection.  A curve whose grid
    mass is already below one cannot be repaired by clipping and raises
    CorrectionInfeasibleError.
    """
    xs = np.asarray(est.xs, dtype=float)
    ys = np.asarray(est.ys, dtype=float)
    _check_uniform(xs)
    excess = _clipped_mass(ys, xs, 0.0) - 1.0
    if abs(excess) <= _MASS_TOL:
        return replace(est, xs=xs, ys=np.maximum(ys, 0.0), corrected=True, xi=0.0)
    if excess < 0.0:
        raise CorrectionInfeasibleError(
            "grid mass %.6f is below 1; widen the grid or decrease h"
            % (excess + 1.0)
        )
    lo, hi = 0.0, float(np.max(ys))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = _clipped_mass(ys, xs, mid) - 1.0
        if abs(m) <= _MASS_TOL:
            lo = hi = mid
            break
        if m > 0.0:
            lo = mid
        else:
            hi = mid
    xi = 0.5 * (lo + hi)
    return replace(est, xs=xs, ys=np.maximum(ys - xi, 0.0), corrected=True,
                   xi=float(xi))
