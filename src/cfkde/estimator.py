"""Kernel density estimates on grids, with a clip-and-renormalize repair.

The estimate at x is the average of scaled kernels centered at the data,
f_h(x) = (n h)^(-1) sum_j K((x - X_j)/h).  It is computed by one of two
exact routes:

* pairs (kde_eval): each point sums only the data inside the kernel's reach,
  |x - X_j| <= reach h with reach = KernelModel.reach, found by two binary
  searches in the sorted sample.  The reach is the support of a compact
  kernel (the window is widened by a few ulps, so the sum is the all-pairs
  sum), sqrt(106 ln 2) ~ 8.572 for the gaussian (the terms left out move the
  estimate by at most 2^-53 K(0)/h) and inf for the sinc kernel and for
  kernel_from_functions kernels, where it is the all-pairs sum.  The pairs
  are evaluated in blocks of at most _BLOCK, so memory stays flat; time is
  O(M log n + pairs), pairs being the data within reach summed over the M
  points.
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
_BLOCK = 1 << 18
_X12, _W12 = np.polynomial.legendre.leggauss(12)
# Counted operations per sinc pair: np.sinc is a sine, a product and a
# division, about 41 ns against 17-24 ns per counted transform operation.
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

    Each point sums K((x - X_j)/h) over the data of the sorted sample with
    |x - X_j| <= kernel.reach * h (all of them when the reach is inf), in
    blocks of at most _BLOCK pairs.  Returns a float for scalar x, an
    ndarray otherwise.
    """
    _check_h(h)
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    data = sample.values
    lo, hi = _window(data, kernel.reach * h, x_arr)
    # pair p of point i is datum lo[i] + p - starts[i]
    starts = np.concatenate(([0], np.cumsum(hi - lo)))
    shift = lo - starts[:-1]
    total = int(starts[-1])
    out = np.zeros(x_arr.size)
    for p0 in range(0, total, _BLOCK):
        p1 = min(p0 + _BLOCK, total)
        r0 = int(np.searchsorted(starts, p0, side="right")) - 1
        r1 = int(np.searchsorted(starts, p1, side="left"))
        counts = (np.minimum(starts[r0 + 1:r1 + 1], p1)
                  - np.maximum(starts[r0:r1], p0))
        rows = np.repeat(np.arange(r1 - r0), counts)
        idx = np.arange(p0, p1) + np.repeat(shift[r0:r1], counts)
        vals = kernel.eval((x_arr[r0:r1][rows] - data[idx]) / h)
        out[r0:r1] += np.bincount(rows, weights=vals, minlength=r1 - r0)
    out /= data.size * h
    # a NaN point has an empty window; its estimate stays undefined
    out[np.isnan(x_arr)] = np.nan
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
