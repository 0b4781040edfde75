"""Bandwidth selection and sample-size planning.

Three families of selectors are provided. ``rule_of_thumb_normal`` rescales
the asymptotically optimal bandwidth for a unit normal target by an estimated
scale. ``bound_rule`` turns the closed-form minimizers of the finite-sample
risk bounds, which each bound's spec owns (bounds.BoundSpec.minimum), into
plug-in bandwidth rules driven by user-supplied derivative constants.
``cv_bandwidth`` minimizes a transform-side risk criterion over a
bandwidth grid, estimating the unknown squared transform modulus either by the
unbiased statistic (n |f_n|^2 - 1)/(n - 1) or by a normal parametric model.
The unbiased criterion (UCV) is computed exactly by the route that counts
the fewest operations: on the transform side from the empirical
characteristic function at the M nodes of charfun.ecf_panel_sums, the panel
layer the sinc estimate also uses, in O(n sqrt(M) + n M/16) operations, or
on the data side from the pairs of points within the kernel's reach.  The
transform side takes one midpoint node per step 2 pi/(span + 2 reach h_max)
where the kernel has a finite reach and a transform that is not
band-limited: every aliased term of the midpoint sum then lies
2 reach h_max past each pair distance, where K*K - 2K is 0 or below
2^-106 K(0).  Otherwise it takes 12-node Gauss-Legendre panels.  The data
side has three forms.  When K and K*K are polynomials on their supports
(KernelModel.poly) it evaluates each pair once for the whole grid (the
moment form), or sums by fast sum updating (Langrene & Warin 2019): per h,
prefix sums of the powers of the data read against the first datum of
their cell, 2 support h wide, in O(n H degree) time and O(n degree)
memory, with an a-priori bound on the rounding.  Other kernels with a
self-convolution evaluate the pairs per h.  A criterion that is not finite
at some h is an error.

``plan_sample_size`` inverts a minimized risk bound: given a target accuracy
it returns the smallest sample size whose certified bound falls below it.
The bound rules and the planner read the caller's constants through one
check, each finite and positive.
"""

import dataclasses
import math
import warnings
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bounds import SPECS, BoundSpec, amise_conventional
from .charfun import (_BLOCK, _EPS, _MIDPOINT, _W12, _X12, Sample, _ecf_panel_ops,
                      ecf_panel_sums, ecf_sq_unbiased, make_density)
from .estimator import _window
from .kernels import KernelModel, _check_count, make_builtin
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
# Counted operations per pair of the pair route's moment form, and more per
# coefficient of K*K: binning, powers and bin sums take about 21 + 2.3 deg
# ns a pair, against 4-14 ns per counted operation of the transform route.
_MOMENT_OPS = (1.6, 0.17)
# Pairs per bin sum of the moment form.  np.bincount adds in sequence: on
# 2000 tied values one sum per bin was off by 7e-13 of max|curve|.
_MOMENT_CHUNK = 1 << 10
# Counted operations of the fast sums per grid point and datum, and more per
# coefficient of K*K: two binary searches and the cells, and per power the
# prefix sums, the gathers and the matrix products, about 180 + 37 deg ns at
# n = 600-1000, where numpy's cost per call and h still shows
_FAST_OPS = (15.0, 2.8)
# Counted operations per node of the transform route's loop over h: phi, its
# product with the weights and their sum
_LOOP_OPS = 2
# Rows whose products the fast sums' matrix products add in sequence; the
# block sums are then added pairwise
_FAST_ROWS = 64
# Width of a fast-sum cell past K*K's reach 2 support h: it keeps a pair
# within reach from landing two cells apart through the rounding of the
# cell index
_CELL_SLACK = 2.0 ** -20
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
        criterion adds its route ("transform", "pairs" or "fast-sums"), the
        transform cutoff u_cut and panel_width (None without a usable
        cutoff); for the transform route its node rule ("midpoint" or
        "gauss-legendre-12") and the nodes laid, partial panels included;
        for the pair route the pairs evaluated: each pair within
        2 support h_max once in its moment form (kernels with
        KernelModel.poly), each pair within 2 support h once per h
        otherwise; for the fast sums (kernels with KernelModel.poly) the
        nonempty windows summed ("windows", at most two per datum and h)
        and "rounding", an a-priori bound on |computed - exact curve| over
        the grid: eps (64 + 4 degree + 40) times the magnitude of the
        expanded terms, scaled as the curve, plus 2 eps |curve|.
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


def _check_scale(sigma_hat: float, floor: float = 0.0) -> None:
    if not (math.isfinite(sigma_hat) and sigma_hat > floor):
        raise ValueError("sigma_hat must be finite and exceed %g, not %r"
                         % (floor, sigma_hat))


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
    _check_scale(sigma_hat)
    _check_count("n", n)
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
    _check_count("n", n)
    if kind not in _RULES:
        raise ValueError("unknown bound rule kind: %r" % (kind,))
    target, names = _RULES[kind]
    if not isinstance(constants, (tuple, list)):
        constants = (constants,)
    if len(constants) != len(names):
        raise ValueError("%s needs the constants (%s)" % (kind, ", ".join(names)))
    spec = SPECS[_PLAN_SPECS[target, None]]
    v, a, _ = _spec_constants(spec, **dict(zip(names, constants)))
    h0 = spec.minimum(k, v, a)[0]
    p = spec.p(None)
    if kind == "maxmse_thm3":
        # the transform-integral factor enters here without its 1/(2 pi)
        # normalization, matching the published plug-in recipe: the
        # minimizer of c1 h^p + 2 pi c2/h
        h0 *= (2.0 * math.pi) ** (1.0 / (p + 1.0))
    meta = {"n": n, "kernel": k.name, **dict(zip(names, (v, a))), "h0": h0}
    # the recipe of both bounds, h_n = h0 n^(-1/(p+1))
    h = h0 * n ** (-1.0 / (p + 1.0))
    return SelectorResult(method=kind, h=h, criterion_curve=None,
                          metadata=meta)


def default_h_grid(sigma_hat: float, n: int, size: int = 60) -> np.ndarray:
    """Log-spaced bandwidth grid spanning [0.05, 3] times the n^(-1/5) scale."""
    _check_scale(sigma_hat)
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
        sup, limit = k.cf_sup_tail, 2.0 ** 40
    else:
        sup = lambda u: np.max(np.abs(k.cf(np.linspace(u, 2.0 * u, 64, axis=-1))), axis=-1)
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
    rule: str
    width: float
    panels: int
    full: np.ndarray
    ops: float


# the node rule of each plan: its name in metadata, and offsets and weights
_NODE_RULES = {"midpoint": _MIDPOINT, "gauss-legendre-12": (_X12, _W12)}


def _transform_plan(x: np.ndarray, k: KernelModel,
                    grid: np.ndarray) -> Optional[_TransformPlan]:
    # Where phi is not band-limited and K has a finite reach, one midpoint
    # node per step Delta = 2 pi/(span + 2 reach h_max): the midpoint sum's
    # error is the aliased sum over its frequencies 2 pi k/Delta, where the
    # transform of the integrand, sum_{j != l} D((omega - d_jl)/h) with
    # D = K*K - 2K, is read at |omega - d| >= 2 reach h_max, past 2 support
    # for a compact K and below 2^-106 K(0) for the gaussian.  Each h takes
    # the nodes up to ceil(u_cut/(h Delta)).  Otherwise (sinc,
    # kernel_from_functions) 12-node Gauss-Legendre panels one period
    # 2 pi/span of qhat's fastest oscillation wide, and at most a quarter of
    # phi's range at the largest h, up to u_cut/h_min; each h takes the
    # whole panels that reach u_cut/h, and when phi is band-limited those
    # below it and one partial panel that ends there.  None when there is
    # no cutoff, or when the panel count is not finite or not below
    # _MAX_PANELS, as on a grid spanning many decades.
    try:
        u_cut, band_limited = _phi_cutoff(k)
    except ValueError:
        return None
    span = float(x[-1] - x[0])
    h_max = float(grid.max())
    if not band_limited and math.isfinite(k.reach):
        rule = "midpoint"
        width = 2.0 * math.pi / (span + 2.0 * k.reach * h_max)
    else:
        rule = "gauss-legendre-12"
        width = u_cut / (4.0 * h_max)
        if span > 0.0:
            width = min(width, 2.0 * math.pi / span)
    step = float(grid.min()) * width
    panels = u_cut / step if step > 0.0 else math.inf
    if not panels < _MAX_PANELS:
        return None
    panels = math.ceil(panels)
    stops = u_cut / (grid * width)
    full = np.floor(stops) if band_limited else np.ceil(stops)
    full = np.minimum(full, panels).astype(int)
    partial = grid.size if band_limited else 0
    q = _NODE_RULES[rule][0].size
    # the panel sums, cos and sin and the products of the partial panels,
    # and the loop over h
    ops = (_ecf_panel_ops(x.size, panels, q) + _NODES * partial * x.size * (2 + 1 / 16)
           + _LOOP_OPS * (q * int(full.sum()) + _NODES * partial))
    return _TransformPlan(u_cut, band_limited, rule, width, panels, full, ops)


def _transform_curve(x: np.ndarray, k: KernelModel, grid: np.ndarray,
                     plan: _TransformPlan) -> np.ndarray:
    # (1/pi) int_0^{u_cut/h} qhat(t) (phi(ht)^2 - 2 phi(ht)) dt; the
    # h-independent delta-type term of the expanded square is dropped
    n = x.size
    rule = _NODE_RULES[plan.rule]
    t, w, re, im, _ = ecf_panel_sums(x, plan.width, plan.panels, rule)
    # the unbiased |f|^2 of ecf_sq_unbiased: n |f_n|^2 = |sum exp(i t x)|^2 / n
    wq = w * (((re * re + im * im) / n - 1.0) / (n - 1.0))
    out = np.empty(grid.size)
    for i, h in enumerate(grid):
        m = rule[0].size * plan.full[i]
        phi = k.cf(h * t[:m])
        out[i] = np.dot(wq[:m], phi * (phi - 2.0))
    if plan.band_limited:
        # each h's partial panel, from its last whole panel to u_cut/h
        ends = plan.u_cut / grid
        lo = plan.full * plan.width
        p_half = (0.5 * (ends - lo))[:, None]
        p_t = 0.5 * (ends + lo)[:, None] + p_half * _X12
        p_wq = p_half * _W12 * ecf_sq_unbiased(Sample(values=x), p_t.ravel()).reshape(p_t.shape)
        phi = k.cf(grid[:, None] * p_t)
        out += np.sum(p_wq * (phi * (phi - 2.0)), axis=1)
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
    # returns the pairs evaluated, summed over the grid.  Where K*K is K
    # (sinc), K - 2K is -K exactly: one evaluation per pair
    same = k.selfconv is k.eval
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
            sums[i] += np.sum(-k.eval(u) if same else k.selfconv(u) - 2.0 * k.eval(u))
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


def _window_end(x: np.ndarray, w: float) -> np.ndarray:
    # for each j, the last l >= j of the sorted sample with
    # fl(x_l - x_j) <= w, the pair route's own test: a binary search past
    # every datum that can pass it, then back past each value that fails,
    # ties and all
    e = np.searchsorted(x, np.nextafter(x + w * (1.0 + 4.0 * _EPS), np.inf), side="right")
    e -= 1
    while True:
        bad = np.flatnonzero(np.take(x, e) - x > w)
        if bad.size == 0:
            return e
        e[bad] = np.searchsorted(x, x[e[bad]], side="left") - 1


def _binomial_matrix(c: Sequence[float], deg: int) -> np.ndarray:
    # P(z - y) = sum_r z^r sum_m M[m, r] (-y)^m for P = sum_k c_k u^k:
    # M[m, r] = c_{m+r} binom(m + r, r)
    out = np.zeros((deg, len(c)))
    for i, ci in enumerate(c):
        for r in range(i + 1):
            out[i - r, r] = ci * math.comb(i, r)
    return out


def _fast_sums(x: np.ndarray, k: KernelModel,
               grid: np.ndarray) -> Tuple[np.ndarray, int, np.ndarray]:
    # The same sums as _moment_sums by fast sum updating, O(n H degree) for
    # the whole grid, one h at a time.  Per h the sorted sample is cut into
    # cells at most W = 2 support h (1 + _CELL_SLACK) wide: a new cell starts
    # at a gap wider than 2 support h, and where floor((x - x_c)/W) steps,
    # x_c the first datum since such a gap, so that the floor's rounding
    # stays below the slack.  Each cell is anchored at its first datum a,
    # y = (x - a)/h.  A pair within K*K's reach 2 support h, or K's support
    # h, never skips a cell, so j's window (j, e_j] splits into the part in
    # j's cell and the part in the next, read against that cell's anchor,
    # t_j = (a' - x_j)/h: every |y|, |t| stays below 2 support
    # (1 + _CELL_SLACK) whatever the span.  With P(z - y) = sum_r Q_r(y) z^r,
    # each part costs one prefix sum per r of the cell-local powers y^r, kept
    # as hi + lo (the error of each step of the cumulative sum is exact), and
    # h's whole sum is the sum of M * (A^T V), elementwise after one
    # degree x columns matrix product.  The arrays are made once per call and
    # reused for every h.  Returns the sums, the nonempty windows summed and,
    # per h, a bound on the sum's rounding from the sum of |M| * (A^T |V|),
    # the magnitude of the expanded terms.
    a, b = k.poly
    da, db = len(a), len(b)
    deg = max(da, db)
    nc = db + da
    M = np.concatenate((_binomial_matrix(b, deg), -2.0 * _binomial_matrix(a, deg)), axis=1)
    signed = ((-1.0) ** np.arange(deg))[:, None] * M
    n = x.size
    # rows padded with at least one zero column, for an empty window
    cols = (n // _FAST_ROWS + 1) * _FAST_ROWS
    gap = np.diff(x)
    idx = np.arange(n)
    sums = np.empty(grid.size)
    terms = np.empty(grid.size)
    windows = 0
    # A[0] = y^r for the own parts, A[1] = t^r for the next-cell parts
    A = np.zeros((2, deg, cols))
    A[:, 0, :n] = 1.0
    powers, y, t = A[0, :, :n], A[0, 1, :n], A[1, 1, :n]
    # V: L at the end of the own parts of K*K's and K's windows, then the
    # cell-local inclusive prefix sums L themselves; own = L(end) - L.
    # W: the next-cell parts, from that cell's start, or the zero column
    V = np.zeros((nc + deg, cols))
    W = np.zeros((nc, cols))
    local = V[nc:]
    # the rows in blocks of _FAST_ROWS, for the matrix products
    blocked = list(zip(A.reshape(2, deg, -1, _FAST_ROWS).transpose(0, 2, 1, 3),
                       [v.reshape(v.shape[0], -1, _FAST_ROWS).transpose(1, 2, 0) for v in (V, W)]))
    acc = np.zeros((2, deg, n + 1))
    hi, err = acc
    base = np.empty((2, deg, n))
    start = np.zeros(n, dtype=np.intp)
    end = np.full(n, n - 1)
    # indices into the rows of L, the padding at the zero column
    pos = np.full(cols, n)
    for i, h in enumerate(grid):
        reach = 2.0 * k.support * h
        e2 = _window_end(x, reach)
        e1 = _window_end(x, k.support * h)
        windows += int(np.count_nonzero(e2 > idx) + np.count_nonzero(e1 > idx))
        # cells: start[j] is the first datum of j's cell, end[j] its last
        split = gap > reach
        np.multiply(split, idx[1:], out=start[1:])
        np.maximum.accumulate(start, out=start)
        q = np.floor((x - np.take(x, start)) / (reach * (1.0 + _CELL_SLACK)))
        split |= q[1:] != q[:-1]
        np.multiply(split, idx[1:], out=start[1:])
        np.maximum.accumulate(start, out=start)
        end[-2::-1] = np.minimum.accumulate(np.where(split[::-1], idx[-2::-1], n - 1))
        far2 = e2 > end
        far1 = e1 > end
        np.subtract(x, np.take(x, start), out=y)
        y /= h
        np.subtract(np.take(x, np.minimum(end + 1, n - 1)), x, out=t)
        # zeroed before the division, which overflows for a far next cell
        t *= far2
        t /= h
        for r in range(2, deg):
            np.multiply(A[:, r - 1, :n], A[:, 1, :n], out=A[:, r, :n])
        np.cumsum(powers, axis=1, out=hi[:, 1:])
        np.subtract(hi[:, 1:], hi[:, :-1], out=err[:, 1:])
        np.subtract(powers, err[:, 1:], out=err[:, 1:])
        np.cumsum(err[:, 1:], axis=1, out=err[:, 1:])
        np.take(acc, start, axis=2, out=base, mode="clip")
        np.subtract(acc[..., 1:], base, out=base)
        np.add(base[0], base[1], out=local[:, :n])
        for own, nxt, part, far, e in ((V[:db], W[:db], local[:db], far2, e2),
                                       (V[db:nc], W[db:], local[:da], far1, e1)):
            pos[:n] = np.where(far, end, e)
            np.take(part, pos, axis=1, out=own, mode="clip")
            pos[:n] = np.where(far, e, n)
            np.take(part, pos, axis=1, out=nxt, mode="clip")
        # products summed over each block's rows in sequence, the blocks pairwise
        own, nxt = (np.ascontiguousarray(np.moveaxis(pw @ v, 0, -1)).sum(axis=-1)
                    for pw, v in blocked)
        at = own[:, :nc]
        start_sums = np.concatenate((own[:, nc:nc + db], own[:, nc:nc + da]), axis=-1)
        sums[i] = np.sum(signed * (at - start_sums) + M * nxt)
        terms[i] = np.sum(np.abs(M) * (at + start_sums + nxt))
    # eps per rounding of each expanded term: y or t and its powers, the
    # prefix sums, L and the own part's difference, and the up to _FAST_ROWS
    # products and additions of a block, about log2 of the blocks pairwise,
    # and the final sum over M
    return sums, windows, _EPS * (_FAST_ROWS + 4 * deg + 40) * terms


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

    An operation is one evaluation of cos, sin, phi, K or K*K, four steps
    of a cumulative product, or 16 node-point products of a matrix product.
    The transform route costs 6 n evaluations of cos and sin (24 n more for
    the offsets of the Gauss-Legendre rule), n sqrt(panels)/2 for the
    cumulative products, 24 n per h more for a band-limited phi, n/16 per
    node, and _LOOP_OPS per node that the loop over h reads.  Its nodes are
    midpoint nodes, one per step 2 pi/(span + 2 reach h_max), where phi is
    not band-limited and the reach is finite (_transform_plan), else
    Gauss-Legendre panels.  The pair route sums (K*K)(d/h) - 2 K(d/h) over
    the pairs of the sorted sample within the kernel's reach,
    d <= 2 support h, in one of three forms:

    * moments (route "pairs"; kernels with KernelModel.poly): each pair
      within 2 support h_max once for the whole grid, at
      _MOMENT_OPS[0] + _MOMENT_OPS[1] deg operations, deg the coefficients
      of K*K; only while (2 support h_max/h_min)^deg stays far from
      overflow (_moments_apply).
    * fast sums (route "fast-sums"; the same kernels): per h, prefix sums
      of the powers of the data in cells 2 support h wide (_fast_sums), one
      h at a time, at _FAST_OPS[0] + _FAST_OPS[1] deg operations per grid
      point and datum.
    * per h (route "pairs"; every other kernel with a selfconv): two kernel
      evaluations per pair within 2 support h, summed over the grid; one
      where K*K is K (sinc), counted as two.

    The weights were fitted to these timings (2-core machine, thread time,
    best of 9, the least of three or four passes; normal samples on their
    default grid, and a gaussian sample with one outlier on the grid of the
    sample without it, 20 points), fast sums against moments:

    * Epanechnikov, 20 points: n = 632 5.0 against 4.6 ms, 800 6.0 against
      6.7, 1589 10.1 against 23.9; 60 points: n = 1589 29.7 against 23.5,
      3000 45.4 against 75.3.
    * uniform, 20 points: n = 399 2.9 against 1.5, 502 3.2 against 2.3,
      632 3.6 against 3.5, 800 3.9 against 4.9; biweight: n = 632 6.8
      against 5.8, 800 7.2 against 8.2.

    and transform against per-h pairs, with the counted ratio:

    * gaussian, outlier at 640, n = 200: 10.2 against 5.4 ms (1.35);
      outlier at 1280, n = 400: 25.3 against 20.2 (1.16); n = 1000, outlier
      at 1280: 46 against 120 (0.51), at 2560: 257 against 118 (1.01).
    * sinc, outlier at 320, n = 200: 8.6 against 10.8 ms, yet counted 1.19:
      its K costs about 2.5 times the gaussian's per pair.

    Besides the sinc case, the one miss seen is uniform at n = 632, where
    the two forms lie within 5% of each other.
    metadata["pairs"] counts the pairs evaluated: once each for the moment
    form, once per h for the per-h form.  On the transform route
    metadata["rule"] names the node rule ("midpoint" or "gauss-legendre-12")
    and metadata["nodes"] counts the nodes laid, partial panels included.
    The fast sums record the nonempty windows summed and "rounding", an
    a-priori bound on |computed - exact curve| over the grid.
    """
    n = x.size
    plan = _transform_plan(x, k, grid)
    reach = 2.0 * k.support
    # the counted operations of each exact route that applies; on a tie the
    # first listed is taken
    ops = {}
    if plan is not None:
        ops["transform"] = plan.ops
    if k.poly is not None:
        deg = max(len(c) for c in k.poly)
        if _moments_apply(k, grid):
            ops["pairs"] = ((_MOMENT_OPS[0] + _MOMENT_OPS[1] * deg)
                            * _pair_count(x, reach * float(grid.max())))
        ops["fast-sums"] = (_FAST_OPS[0] + _FAST_OPS[1] * deg) * n * grid.size
    elif k.selfconv is not None:
        ops["pairs"] = 2 * sum(_pair_count(x, reach * h) for h in grid)
    if not ops:
        raise ValueError("kernel %r has neither a transform plan for this grid "
                         "nor a self-convolution" % (k.name,))
    route = min(ops, key=ops.get)
    meta = {"u_cut": None if plan is None else plan.u_cut,
            "panel_width": None if plan is None else plan.width, "route": route}
    if route == "transform":
        curve = _transform_curve(x, k, grid, plan)
        meta.update(rule=plan.rule, nodes=(
            _NODE_RULES[plan.rule][0].size * plan.panels
            + (_NODES * grid.size if plan.band_limited else 0)))
    elif route == "pairs":
        curve, meta["pairs"] = _pair_curve(x, k, grid)
    else:
        sums, meta["windows"], rounding = _fast_sums(x, k, grid)
        scale = 2.0 / (n * (n - 1.0) * grid)
        curve = scale * sums + k.roughness / (n * grid)
        # and the rounding of the scaling and of the roughness term's sum
        meta["rounding"] = float(np.max(scale * rounding + 2.0 * _EPS * np.abs(curve)))
        return curve, meta
    return curve + k.roughness / (n * grid), meta


def _parametric_curve(sigma: float, k: KernelModel, grid: np.ndarray,
                      n: int) -> np.ndarray:
    # plug-in model for the squared transform modulus: exp(-sigma^2 t^2);
    # the integrated squared bias of every h comes from one quadrature pass,
    # at unit scale (t -> t/sigma), so any positive sigma is representable
    bias = _sq_integrals(make_density("normal"), k, grid / sigma, variance=False).value[0]
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

    # an h near either end of the float range may overflow a term (u^2 of
    # the gaussian K past u = 1e154, where K is 0; R(K)/(n h)) or make one
    # NaN (the sinc K at inf): the curve is checked finite instead
    with np.errstate(over="ignore", invalid="ignore"):
        if q_estimator == "unbiased":
            curve, extra = _ucv_curve(values, k, grid)
            method = "ucv"
        else:
            scale = sigma if sigma_hat is None else float(sigma_hat)
            _check_scale(scale, scale_floor)
            curve = _parametric_curve(scale, k, grid, n)
            method = "cv_parametric"
            extra = {"sigma_hat": scale}
    bad = np.flatnonzero(~np.isfinite(curve))
    if bad.size:
        raise ValueError("the criterion is not finite at h = %r" % (float(grid[bad[0]]),))
    idx = int(np.argmin(curve))
    pairs = tuple((float(h), float(q)) for h, q in zip(grid, curve))
    meta = {"n": n, "kernel": k.name, "q_estimator": q_estimator}
    meta.update(extra)
    return SelectorResult(method=method, h=float(grid[idx]),
                          criterion_curve=pairs, metadata=meta)


# the bound whose minimum over h0 certifies each (target, regime), and the
# target and constants of each bound rule
_PLAN_SPECS = {("mise", None): "thm1", ("max_mse", None): "thm3",
               ("mise", "nonsmooth"): "thm6", ("mise", "smooth"): "thm7"}
_RULES = {"mise_thm1": ("mise", ("v2",)), "maxmse_thm3": ("max_mse", ("v3", "a"))}


def _spec_constants(spec: BoundSpec, v2=None, v3=None, a=None, variation=None,
                    vm=None, m=None) -> Tuple[float, Optional[float], Optional[int]]:
    # the (v, a, m) that spec reads from the caller's constants, by the order
    # of its variation: V2, V3 with a, V (or 2a for a unimodal density
    # bounded by a) or V_m with m >= 1; each must be finite and positive
    def need(name, value):
        if value is None or not (math.isfinite(value) and value > 0.0):
            raise ValueError("%s needs the constant %s, finite and positive, not %r"
                             % (spec.theorem_id, name, value))
        return float(value)

    if spec.order == 2:
        return need("v2", v2), None, None
    if spec.order == 3:
        return need("v3", v3), need("a", a), None
    if spec.order == 0:
        if variation is None and a is not None:
            return 2.0 * need("a", a), None, None
        return need("variation", variation), None, None
    if m is None or m < 1:
        raise ValueError("%s needs an order m >= 1" % spec.theorem_id)
    return need("vm", vm), None, m


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
    if (req.target, req.regime) not in _PLAN_SPECS:
        raise ValueError("no route certifies the target %r under the regime %r"
                         % (req.target, req.regime))
    if not req.epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    spec = SPECS[_PLAN_SPECS[req.target, req.regime]]
    v, a, m = _spec_constants(spec, req.v2, req.v3, req.a, req.variation, req.vm, req.m)
    return spec.minimum(k, v, a, m)[1:]


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
    try:
        n0 = max(1, math.ceil((c / req.epsilon) ** (1.0 / r)))
    except OverflowError:
        n0 = math.inf
    if n0 > 2 ** 53:
        # the loops below step n0 by one, which a float stops telling
        # apart past 2^53
        raise ValueError("epsilon %r needs more samples than a float counts exactly"
                         % (req.epsilon,))
    while c * n0 ** -r > req.epsilon:
        n0 += 1
    while n0 > 1 and c * (n0 - 1.0) ** -r <= req.epsilon:
        n0 -= 1
    return n0
