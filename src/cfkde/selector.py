"""Bandwidth selection and sample-size planning.

Three families of selectors are provided. ``rule_of_thumb_normal`` rescales
the asymptotically optimal bandwidth for a unit normal target by an estimated
scale. ``bound_rule`` turns the closed-form minimizers of the finite-sample
risk bounds into plug-in bandwidth rules driven by user-supplied derivative
constants. ``cv_bandwidth`` minimizes a transform-side risk criterion over a
bandwidth grid, estimating the unknown squared transform modulus either by the
unbiased statistic (n |f_n|^2 - 1)/(n - 1) or by a normal parametric model.
The unbiased criterion (UCV) is computed exactly by the cheaper of two
routes: on the transform side from the empirical characteristic function on
Gauss-Legendre panels, in O(n sqrt(panels) + n panels/16) operations, or on
the data side from the pairs of points within the kernel's reach, each pair
once for the whole grid when K and K*K are polynomials on their supports.

``plan_sample_size`` inverts a minimized risk bound: given a target accuracy
it returns the smallest sample size whose certified bound falls below it.
"""

import dataclasses
import math
import warnings
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bounds import _power_minimum, amise_conventional
from .charfun import (_BLOCK, Sample, ecf_sq_unbiased, ecf_sq_unbiased_panels,
                      make_density)
from .estimator import _window
from .kernels import KernelModel, make_builtin
from .risk import _sq_integrals, certified_cutoff

__all__ = [
    "SelectorResult",
    "PlanRequest",
    "rule_of_thumb_normal",
    "bound_rule",
    "cv_bandwidth",
    "plan_bound_constant",
    "plan_sample_size",
    "default_h_grid",
]

# A sample whose standard deviation is at most this share of max |x| is
# degenerate: its spread is rounding.
_DEGENERATE_SCALE = 1e-12
# Largest sup |phi| the transform route of the UCV criterion leaves out
# past its cutoff u_cut.
_PHI_TOL = 1e-14
# Counted operations per pair of the pair route's moment form: binning,
# powers and bin sums take about 20-40 ns per pair at n >= 632, against
# 9-23 ns per counted operation of the transform route.
_MOMENT_OPS = 2
# Pairs per bin sum of the moment form.  np.bincount adds in sequence: on
# 2000 tied values one sum per bin was off by 7e-13 of max|curve|.
_MOMENT_CHUNK = 1 << 10
_X12, _W12 = np.polynomial.legendre.leggauss(12)
_NODES = _X12.size
# Most panels a transform plan may count: its per-h counts are int64.
_MAX_PANELS = float(np.iinfo(np.int64).max // _NODES)


@dataclasses.dataclass(frozen=True)
class SelectorResult:
    """A selected bandwidth with its provenance.

    Attributes
    ----------
    method : str
        Identifier of the selection rule.
    h : float
        Selected bandwidth, always positive.
    criterion_curve : tuple of (float, float) or None
        For grid-search selectors, (h, criterion) pairs over the full grid;
        None for closed-form rules.
    metadata : dict
        Sample size, kernel name, and rule-specific constants.  The UCV
        criterion adds its route ("transform" or "pairs"), the transform
        cutoff u_cut and panel_width (None without a usable cutoff), and
        the node count of the transform route or the pairs the pair route
        evaluated: each pair within 2 support h_max once in its moment form
        (kernels with KernelModel.poly), each pair within 2 support h once
        per h otherwise.
    """

    method: str
    h: float
    criterion_curve: Optional[Tuple[Tuple[float, float], ...]]
    metadata: Dict[str, object]


@dataclasses.dataclass(frozen=True)
class PlanRequest:
    """Inputs for sample-size planning.

    Attributes
    ----------
    target : str
        Risk notion to control, "mise" or "max_mse".
    epsilon : float
        Required accuracy, positive.
    v2, v3 : float or None
        Upper bounds on the total variation of the second and third
        derivative of the target density (conventional-kernel routes).
    a : float or None
        Upper bound on the density's maximum (max_mse route, or the
        unimodal fallback of the spectrum-cutoff nonsmooth route).
    variation : float or None
        Upper bound on the total variation of the density itself
        (spectrum-cutoff nonsmooth route).
    vm : float or None
        Upper bound on the total variation of the m-th derivative
        (spectrum-cutoff smooth route).
    m : int or None
        Number of derivatives for the spectrum-cutoff smooth route.
    regime : str or None
        None for a conventional kernel, else "nonsmooth" or "smooth" for
        the spectrum-cutoff kernel.
    """

    target: str
    epsilon: float
    v2: Optional[float] = None
    v3: Optional[float] = None
    a: Optional[float] = None
    variation: Optional[float] = None
    vm: Optional[float] = None
    m: Optional[int] = None
    regime: Optional[str] = None


def rule_of_thumb_normal(sigma_hat: float, n: int) -> SelectorResult:
    """Normal-reference bandwidth rule for the gaussian kernel.

    The constant is recomputed from the asymptotic risk formula for a unit
    normal target each call, then rescaled by ``sigma_hat``; the selected
    bandwidth is exactly linear in the scale estimate.

    Parameters
    ----------
    sigma_hat : float
        Scale estimate, positive.
    n : int
        Sample size.

    Returns
    -------
    SelectorResult
    """
    if not sigma_hat > 0.0:
        raise ValueError("sigma_hat must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    kernel = make_builtin("gaussian")
    h_unit, _ = amise_conventional(make_density("normal"), kernel, n)
    h = sigma_hat * h_unit
    constant = h_unit * n ** 0.2
    return SelectorResult(
        method="rot_normal",
        h=h,
        criterion_curve=None,
        metadata={"n": n, "kernel": kernel.name, "constant": constant,
                  "sigma_hat": sigma_hat},
    )


def bound_rule(kind: str, constants, k: KernelModel, n: int) -> SelectorResult:
    """Bandwidth from the closed-form minimizer of a finite-sample bound.

    Parameters
    ----------
    kind : str
        "mise_thm1" uses the integrated-risk bound for twice-differentiable
        targets and needs the third-derivative variation constant.
        "maxmse_thm3" uses the uniform pointwise-risk bound for three-times
        differentiable targets and needs the fourth-derivative variation
        constant together with a bound on the density maximum.
    constants : float or sequence
        For "mise_thm1": v2 (a float or a 1-sequence). For "maxmse_thm3":
        the pair (v3, a).
    k : KernelModel
        Kernel; must be a probability density.
    n : int
        Sample size.

    Returns
    -------
    SelectorResult
    """
    if not k.is_density:
        raise ValueError("bound_rule requires a density kernel")
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind == "mise_thm1":
        if constants is None:
            raise ValueError("mise_thm1 needs the constant v2")
        v2 = float(constants[0]) if isinstance(constants, (tuple, list)) \
            else float(constants)
        if not v2 > 0.0:
            raise ValueError("v2 must be positive")
        if k.mu2 is None:
            raise ValueError("kernel lacks a second moment")
        h0 = ((5.0 * math.pi / 6.0) * k.roughness / k.mu2 ** 2) ** 0.2 \
            * v2 ** (-1.0 / 3.0)
        h = h0 * n ** -0.2
        meta = {"n": n, "kernel": k.name, "v2": v2, "h0": h0}
    elif kind == "maxmse_thm3":
        if not isinstance(constants, (tuple, list)) or len(constants) != 2:
            raise ValueError("maxmse_thm3 needs the pair (v3, a)")
        v3, a = float(constants[0]), float(constants[1])
        if not (v3 > 0.0 and a > 0.0):
            raise ValueError("v3 and a must be positive")
        if k.mu2 is None:
            raise ValueError("kernel lacks a second moment")
        if not math.isfinite(k.a_value):
            raise ValueError("kernel transform is not absolutely integrable")
        # the transform-integral factor enters here without its 1/(2 pi)
        # normalization, matching the published plug-in recipe
        h0 = ((9.0 * math.pi ** 2 / 8.0) * (2.0 * math.pi * k.a_value) * a
              / k.mu2 ** 2) ** 0.2 * v3 ** -0.3
        h = h0 * n ** -0.2
        meta = {"n": n, "kernel": k.name, "v3": v3, "a": a, "h0": h0}
    else:
        raise ValueError("unknown bound rule kind: %r" % (kind,))
    return SelectorResult(method=kind, h=h, criterion_curve=None,
                          metadata=meta)


def default_h_grid(sigma_hat: float, n: int, size: int = 60) -> np.ndarray:
    """Log-spaced bandwidth grid spanning [0.05, 3] times the n^(-1/5) scale."""
    if not sigma_hat > 0.0:
        raise ValueError("sigma_hat must be positive")
    scale = sigma_hat * n ** -0.2
    return np.geomspace(0.05 * scale, 3.0 * scale, size)


def _phi_cutoff(k: KernelModel) -> Tuple[float, bool]:
    """Smallest u, to within 1%, with sup_{|t| >= u} |phi(t)| <= _PHI_TOL.

    Without a closed-form sup-tail, the largest |phi| over [u, 2u] stands in
    for it.  When the bound reaches zero the transform is band-limited: then
    the band edge itself is returned, to rounding, with True, so that the
    jump of phi there can be a panel edge.
    """
    if k.cf_sup_tail is not None:
        sup, limit = (lambda u: float(k.cf_sup_tail(u))), 2.0 ** 40
    else:
        sup = lambda u: float(np.max(np.abs(k.cf(np.linspace(u, 2.0 * u, 64)))))
        limit = 2.0 ** 24
    u = certified_cutoff(sup, _PHI_TOL, start=1.0, limit=limit)
    if sup(u) > _PHI_TOL:
        raise ValueError("kernel transform tail decays too slowly")
    if sup(u) > 0.0:
        return u, False
    lo = u
    while lo > 0.0 and sup(lo) == 0.0:
        lo *= 0.5
    while np.nextafter(lo, u) < u:
        mid = 0.5 * (lo + u)
        if sup(mid) == 0.0:
            u = mid
        else:
            lo = mid
    return u, True


class _TransformPlan(NamedTuple):
    u_cut: float
    band_limited: bool
    width: float
    panels: int
    full: np.ndarray
    ops: float


def _transform_plan(x: np.ndarray, k: KernelModel,
                    grid: np.ndarray) -> Optional[_TransformPlan]:
    # panels one period 2 pi/span of qhat's fastest oscillation wide, and at
    # most a quarter of phi's range at the largest h, up to u_cut/h_min.
    # Each h takes the whole panels that reach u_cut/h; when phi is
    # band-limited, those below it and one partial panel that ends there.
    # None when there is no cutoff, or when a grid spanning many decades
    # needs more panels than an int64 counts.
    try:
        u_cut, band_limited = _phi_cutoff(k)
    except ValueError:
        return None
    width = u_cut / (4.0 * float(grid.max()))
    span = float(x[-1] - x[0])
    if span > 0.0:
        width = min(width, 2.0 * math.pi / span)
    panels = u_cut / (float(grid.min()) * width)
    if not panels < _MAX_PANELS:
        return None
    panels = math.ceil(panels)
    stops = u_cut / (grid * width)
    full = np.floor(stops) if band_limited else np.ceil(stops)
    full = np.minimum(full, panels).astype(int)
    partial = grid.size if band_limited else 0
    nodes = _NODES * (panels + partial)
    ops = (2 * x.size * (2 * math.sqrt(panels) + _NODES * (1 + partial))
           + _NODES * (int(full.sum()) + partial) + nodes * x.size / 16)
    return _TransformPlan(u_cut, band_limited, width, panels, full, ops)


def _transform_curve(x: np.ndarray, k: KernelModel, grid: np.ndarray,
                     plan: _TransformPlan) -> np.ndarray:
    # (1/pi) int_0^{u_cut/h} qhat(t) (phi(ht)^2 - 2 phi(ht)) dt; the
    # h-independent delta-type term of the expanded square is dropped
    sample = Sample(values=x)
    half = 0.5 * plan.width
    mids = (np.arange(plan.panels) + 0.5) * plan.width
    t = (mids[:, None] + half * _X12).ravel()
    qhat = ecf_sq_unbiased_panels(sample, plan.width, plan.panels, half * _X12)
    wq = (half * _W12 * qhat).ravel()
    if plan.band_limited:
        ends = plan.u_cut / grid
        lo = plan.full * plan.width
        p_half = (0.5 * (ends - lo))[:, None]
        p_t = 0.5 * (ends + lo)[:, None] + p_half * _X12
        p_wq = p_half * _W12 * ecf_sq_unbiased(sample, p_t.ravel()).reshape(p_t.shape)
    else:
        p_t = p_wq = np.empty((grid.size, 0))
    out = np.empty(grid.size)
    for i, h in enumerate(grid):
        m = _NODES * plan.full[i]
        phi = k.cf(h * np.concatenate((t[:m], p_t[i])))
        out[i] = np.dot(np.concatenate((wq[:m], p_wq[i])), phi * (phi - 2.0))
    return out / math.pi


def _pair_count(x: np.ndarray, far: float) -> int:
    # pairs of the sorted sample within distance far, by one binary search
    n = x.size
    if not math.isfinite(far):
        return n * (n - 1) // 2
    return int(np.sum(np.searchsorted(x, x + far, side="right") - np.arange(n) - 1))


def _pair_blocks(x: np.ndarray, far: float):
    # the distances d = x_l - x_j <= far of the pairs j < l of the sorted
    # sample, in blocks of rows of at most about 2 _BLOCK pairs; the window
    # is widened as in kde_eval, so only the test d <= far decides
    n = x.size
    end = _window(x, far, x)[1]
    j = 0
    while j < n - 1:
        rows = max(1, _BLOCK // max(1, int(end[j]) - j))
        while rows > 1 and rows * (int(end[min(j + rows, n) - 1]) - j) > 2 * _BLOCK:
            rows //= 2
        r = np.arange(j, min(j + rows, n - 1))
        c = np.arange(j + 1, int(end[r[-1]]))
        d = x[c][None, :] - x[r][:, None]
        # rebound, so the dense block is freed while the caller works
        d = d[(c[None, :] > r[:, None]) & (d <= far)]
        yield d
        j = int(r[-1]) + 1


def _per_h_sums(x: np.ndarray, k: KernelModel,
                grid: np.ndarray) -> Tuple[np.ndarray, int]:
    # sum_{j<l} [(K*K)(d/h) - 2 K(d/h)] for each h over the pairs with
    # d <= 2 support h, each block's distances sorted once for all h; also
    # returns the pairs evaluated, summed over the grid
    reach = 2.0 * k.support
    far = reach * float(grid.max())
    sums = np.zeros(grid.size)
    pairs = 0
    for d in _pair_blocks(x, far):
        if math.isfinite(far):
            d.sort()
        for i, h in enumerate(grid):
            near = d[:np.searchsorted(d, reach * h, side="right")] \
                if math.isfinite(far) else d
            u = near / h
            sums[i] += np.sum(k.selfconv(u) - 2.0 * k.eval(u))
            pairs += near.size
    return sums, pairs


def _moment_sums(x: np.ndarray, k: KernelModel,
                 grid: np.ndarray) -> Tuple[np.ndarray, int]:
    # the same sums for a kernel with k.poly, each pair evaluated once for
    # the whole grid: a binary search bins d among the sorted edges
    # {support h, 2 support h}, np.bincount sums the powers of
    # v = d/(2 support h_max) in [0, 1] per bin, and the cumulative bin sums
    # S_p(e) over d <= e give sum_{d <= e} c(d/h) = sum_p c_p (2 support
    # h_max/h)^p S_p(e).  For support 1 the edges h and 2h are exact, so the
    # bins hold the pairs of the tests fl(d/h) <= 1 and <= 2.
    deg = max(len(c) for c in k.poly)
    a, b = (np.pad(np.asarray(c, dtype=float), (0, deg - len(c))) for c in k.poly)
    edges = np.concatenate((k.support * grid, 2.0 * k.support * grid))
    order = np.sort(edges)
    far = float(order[-1])
    nb = edges.size
    sums = np.zeros((deg, nb))
    for d in _pair_blocks(x, far):
        # one bin per chunk of _MOMENT_CHUNK pairs and edge: no float sum
        # runs over more terms before the chunks are added
        bins = np.arange(d.size) // _MOMENT_CHUNK
        bins *= nb
        bins += np.searchsorted(order, d)
        size = nb * -(-d.size // _MOMENT_CHUNK)
        v = np.divide(d, far, out=d)
        vp = None
        for p in range(deg):
            vp = None if p == 0 else (v if p == 1 else vp * v)
            if a[p] != 0.0 or b[p] != 0.0:
                sums[p] += np.bincount(bins, vp, size).reshape(-1, nb).sum(axis=0)
    at = np.cumsum(sums, axis=1)[:, np.searchsorted(order, edges, side="right") - 1]
    scale = (far / grid) ** np.arange(deg)[:, None]
    h = grid.size
    out = np.sum(scale * (b[:, None] * at[:, h:] - 2.0 * a[:, None] * at[:, :h]), axis=0)
    return out, int(sums[0].sum())


def _moments_apply(k: KernelModel, grid: np.ndarray) -> bool:
    # the moment sums need k.poly, and (2 support h_max/h)^p must stay far
    # from overflow
    if k.poly is None:
        return False
    deg = max(len(c) for c in k.poly) - 1
    return deg * math.log2(2.0 * k.support * float(grid.max() / grid.min())) < 500.0


def _pair_curve(x: np.ndarray, k: KernelModel,
                grid: np.ndarray) -> Tuple[np.ndarray, int]:
    # 2/(n(n-1) h) sum_{j<l} [(K*K)(d/h) - 2 K(d/h)] over the grid, by the
    # moment sums where they apply, else per h; and the pairs evaluated
    n = x.size
    sums, pairs = (_moment_sums if _moments_apply(k, grid) else _per_h_sums)(x, k, grid)
    return 2.0 * sums / (n * (n - 1.0) * grid), pairs


def _ucv_curve(x: np.ndarray, k: KernelModel,
               grid: np.ndarray) -> Tuple[np.ndarray, Dict[str, object]]:
    """UCV criterion over the grid by whichever exact route counts fewer operations.

    An operation is one evaluation of cos, sin, phi, K or K*K, or 16
    node-point products of a matrix product.  The transform route costs
    2 n (2 sqrt(panels) + 12) evaluations of cos and sin, 24 n per h more for
    a band-limited phi, the phi evaluations, and n/16 per node.  The pair
    route sums (K*K)(d/h) - 2 K(d/h) over the pairs of the sorted sample
    within the kernel's reach, d <= 2 support h, in one of two forms:

    * moments (kernels with KernelModel.poly, epanechnikov and uniform):
      each pair within 2 support h_max is evaluated once for the whole grid
      and costs _MOMENT_OPS operations; the H edges add O(H degree).
    * per h (every other kernel with a selfconv): two kernel evaluations
      per pair within 2 support h, summed over the grid.

    metadata["pairs"] counts the pairs evaluated: once each for the moment
    form, once per h for the per-h form.
    """
    n = x.size
    plan = _transform_plan(x, k, grid)
    reach = 2.0 * k.support
    moments = _moments_apply(k, grid)
    if moments:
        pair_ops = _MOMENT_OPS * _pair_count(x, reach * float(grid.max()))
    elif k.selfconv is not None:
        pair_ops = 2 * sum(_pair_count(x, reach * h) for h in grid)
    else:
        pair_ops = None
    if plan is None and pair_ops is None:
        raise ValueError("kernel %r has neither a transform plan for this grid "
                         "nor a self-convolution" % (k.name,))
    meta = {"u_cut": None if plan is None else plan.u_cut,
            "panel_width": None if plan is None else plan.width}
    if pair_ops is None or (plan is not None and plan.ops <= pair_ops):
        curve = _transform_curve(x, k, grid, plan)
        meta.update(route="transform", nodes=_NODES * (
            plan.panels + (grid.size if plan.band_limited else 0)))
    else:
        curve, pairs = _pair_curve(x, k, grid)
        meta.update(route="pairs", pairs=pairs)
    return curve + k.roughness / (n * grid), meta


def _parametric_curve(sigma: float, k: KernelModel, grid: np.ndarray,
                      n: int) -> np.ndarray:
    # plug-in model for the squared transform modulus: exp(-sigma^2 t^2);
    # the integrated squared bias of every h comes from one quadrature pass,
    # at unit scale (t -> t/sigma), so any positive sigma is representable
    bias = _sq_integrals(make_density("normal"), k, grid / sigma, variance=False).bias
    return bias / (2.0 * math.pi * sigma) + k.roughness / (n * grid)


def cv_bandwidth(s: Sample, k: KernelModel,
                 h_grid: Optional[Sequence[float]] = None,
                 q_estimator: str = "unbiased",
                 sigma_hat: Optional[float] = None) -> SelectorResult:
    """Bandwidth minimizing a transform-side risk criterion over a grid.

    The criterion is the integrated risk with the unknown squared transform
    modulus replaced by an estimate: the criterion value at h is
    (2 pi)^(-1) int qhat(t) (1 - phi(ht))^2 dt + R(K)/(n h), up to an additive
    constant not depending on h.

    Parameters
    ----------
    s : Sample
        Observed sample, at least two points for the unbiased estimator.
    k : KernelModel
        Kernel whose transform phi drives the criterion.
    h_grid : sequence of float, optional
        Candidate bandwidths; defaults to a 60-point log grid scaled by the
        sample standard deviation and n^(-1/5).
    q_estimator : str
        "unbiased" for the unbiased estimator (n |f_n|^2 - 1)/(n - 1),
        "parametric" for the normal plug-in model.
    sigma_hat : float, optional
        Scale for the parametric model; defaults to the sample standard
        deviation.

    Returns
    -------
    SelectorResult
        The grid argmin together with the full criterion curve.
    """
    if q_estimator not in ("unbiased", "parametric"):
        raise ValueError("unknown q_estimator: %r" % (q_estimator,))
    n = s.n
    if q_estimator == "unbiased" and n < 2:
        raise ValueError("unbiased criterion needs at least two points")
    values = np.sort(np.asarray(s.values, dtype=float))
    sigma = s.std() if n >= 2 else 0.0
    scale_floor = _DEGENERATE_SCALE * max(abs(values[0]), abs(values[-1]))
    degenerate = not sigma > scale_floor

    if h_grid is None:
        if degenerate:
            raise ValueError(
                "sample scale is degenerate; supply an explicit h_grid")
        grid = default_h_grid(sigma, n)
    else:
        grid = np.asarray(list(h_grid), dtype=float)
        if grid.size == 0:
            raise ValueError("h_grid must be nonempty")
        if not np.all(np.isfinite(grid)) or not np.all(grid > 0.0):
            raise ValueError("h_grid entries must be positive and finite")
        if degenerate and q_estimator == "unbiased":
            warnings.warn("sample scale is degenerate; criterion favors the "
                          "smallest bandwidth", stacklevel=2)

    if q_estimator == "unbiased":
        curve, extra = _ucv_curve(values, k, grid)
        method = "ucv"
    else:
        scale = sigma if sigma_hat is None else float(sigma_hat)
        if not scale > scale_floor:
            raise ValueError("parametric model needs a positive scale")
        curve = _parametric_curve(scale, k, grid, n)
        method = "cv_parametric"
        extra = {"sigma_hat": scale}

    idx = int(np.argmin(curve))
    pairs = tuple((float(h), float(q)) for h, q in zip(grid, curve))
    meta = {"n": n, "kernel": k.name, "q_estimator": q_estimator}
    meta.update(extra)
    return SelectorResult(method=method, h=float(grid[idx]),
                          criterion_curve=pairs, metadata=meta)


def plan_bound_constant(req: PlanRequest,
                        k: Optional[KernelModel] = None) -> Tuple[float, float]:
    """Constant and rate of the minimized bound used for planning.

    Returns (C, r) such that the certified accuracy at sample size n is
    C * n^(-r).

    Parameters
    ----------
    req : PlanRequest
    k : KernelModel, optional
        Required for the conventional-kernel routes (req.regime None).

    Returns
    -------
    (float, float)
    """
    if req.target not in ("mise", "max_mse"):
        raise ValueError("unknown target: %r" % (req.target,))
    if not req.epsilon > 0.0:
        raise ValueError("epsilon must be positive")

    if req.regime is None:
        if k is None or not k.is_density:
            raise ValueError("conventional planning needs a density kernel")
        if req.target == "mise":
            if req.v2 is None or not req.v2 > 0.0:
                raise ValueError("mise planning needs the constant v2")
            if k.mu2 is None or not k.zero_mean:
                raise ValueError("kernel lacks the required moments")
            c1 = 0.3 / math.pi * k.mu2 ** 2 * req.v2 ** (5.0 / 3.0)
            _, cmin = _power_minimum(c1, k.roughness, 4.0)
            return cmin, 0.8
        if req.v3 is None or req.a is None or not (req.v3 > 0.0 and req.a > 0.0):
            raise ValueError("max_mse planning needs the pair (v3, a)")
        if k.mu2 is None or not k.zero_mean:
            raise ValueError("kernel lacks the required moments")
        if not math.isfinite(k.a_value):
            raise ValueError("kernel transform is not absolutely integrable")
        c1 = 4.0 / (9.0 * math.pi ** 2) * k.mu2 ** 2 * req.v3 ** 1.5
        _, cmin = _power_minimum(c1, 2.0 * req.a * k.a_value, 4.0)
        return cmin, 0.8

    if req.regime == "nonsmooth":
        if req.target != "mise":
            raise ValueError("the nonsmooth route certifies mise only")
        if req.variation is not None and req.variation > 0.0:
            return 2.0 * req.variation / math.pi, 0.5
        if req.a is not None and req.a > 0.0:
            return 4.0 * req.a / math.pi, 0.5
        raise ValueError("nonsmooth planning needs variation or a")
    if req.regime == "smooth":
        if req.target != "mise":
            raise ValueError("the smooth route certifies mise only")
        if req.m is None or req.m < 1:
            raise ValueError("smooth planning needs m >= 1")
        if req.vm is None or not req.vm > 0.0:
            raise ValueError("smooth planning needs the constant vm")
        m = float(req.m)
        cmin = ((4.0 * (m + 1.0)) ** (1.0 / (2.0 * m + 1.0))
                * ((2.0 * m + 1.0) / m) ** (2.0 * m / (2.0 * m + 1.0))
                * req.vm ** (1.0 / (m + 1.0))) / (2.0 * math.pi)
        return cmin, 2.0 * m / (2.0 * m + 1.0)
    raise ValueError("unknown regime: %r" % (req.regime,))


def plan_sample_size(req: PlanRequest,
                     k: Optional[KernelModel] = None) -> int:
    """Smallest sample size whose minimized bound meets the accuracy target.

    Parameters
    ----------
    req : PlanRequest
    k : KernelModel, optional
        Required for the conventional-kernel routes.

    Returns
    -------
    int
        The least n with C * n^(-r) <= req.epsilon.
    """
    c, r = plan_bound_constant(req, k)
    if c <= req.epsilon:
        return 1
    n0 = max(1, math.ceil((c / req.epsilon) ** (1.0 / r)))
    while c * n0 ** -r > req.epsilon:
        n0 += 1
    while n0 > 1 and c * (n0 - 1.0) ** -r <= req.epsilon:
        n0 -= 1
    return n0
