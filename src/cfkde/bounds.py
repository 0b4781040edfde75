"""Non-asymptotic upper bounds on the risk of kernel density estimates.

Every bound is one BoundSpec in SPECS, in the row order of ``cfkde bounds``.
A spec names the risk kind, whether the bound is for the sinc kernel, its
hypotheses (the kernel's first), the bandwidth recipe

    "h"         a fixed bandwidth h
    "power"     h_n = h0 n^(-1/(p+1))
    "root"      h_n = h0 / sqrt(n)
    "root_log"  h_n = h0 / (sqrt(n) log n)
    "log"       h_n = (log(h0 n) / gamma)^(-1/alpha), from the supersmooth
                certificate (alpha, gamma, B)

and the bound: either the power form (c1 h0^p + c2/h0) n^(-p/(p+1)) / divisor,
whose closed-form minimum over h0 BoundSpec.minimum returns, or a value
function.  The constants come from kernel functionals (mu1, mu2, roughness,
A(K)) and Fourier-side density constants (derivative variations V_m, sup
bound a, supersmooth certificate, band limit).  ``bound`` evaluates one spec
and records which hypotheses were machine-checked; an unsatisfied hypothesis
yields an inapplicable result rather than an error, so bound tables over
(bound x density) grids, ``bound_table``, can render gaps honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

from .charfun import DensityModel
from .kernels import KernelModel, _check_count, make_builtin
from .risk import _abs_bias_factor, gauss_panels, integrated_sq_bias

__all__ = [
    "BoundResult",
    "BoundSpec",
    "SPECS",
    "bound",
    "bound_table",
    "amise_conventional",
]

# Tolerance of R(p'') in amise_conventional.
_RPP_EPSABS, _RPP_EPSREL = 1e-12, 1e-11


@dataclass(frozen=True)
class BoundResult:
    """An evaluated risk bound together with its hypothesis checklist.

    bound is None exactly when some checked hypothesis failed.  rate is
    the exponent r of the leading n^(-r) factor (log factors, where the
    bound has them, ride on top; None for fixed-bandwidth bounds), and
    optimal carries the closed-form (h0, minimized bound) pair when the
    bound admits one.
    """

    theorem_id: str
    kind: str
    n: int
    h_used: Optional[float]
    h0: Optional[float]
    rate: Optional[float]
    bound: Optional[float]
    assumptions_checked: Tuple[Tuple[str, bool], ...]
    optimal: Optional[Tuple[float, float]] = None

    @property
    def applicable(self) -> bool:
        return all(ok for _, ok in self.assumptions_checked)


class _Case(NamedTuple):
    # the inputs of one evaluation; v is the V_order the spec reads, or 2a
    # under the unimodal fallback
    density: DensityModel
    kernel: Optional[KernelModel]
    n: int
    h: Optional[float]
    h0: Optional[float]
    v: Optional[float]


@dataclass(frozen=True)
class BoundSpec:
    """One risk bound: its hypotheses, bandwidth recipe and formula.

    kernel_hypotheses are (name, predicate of the kernel) pairs, checked
    before the (name, predicate of the case) pairs in hypotheses.  order is
    the k of the variation V_k = int |p^(k+1)| the bound reads ("m" for the
    caller's m).  A power-form bound gives p(m), coefficients(kernel, v, a,
    m) -> (c1, c2) with v = V_order and a = sup p, and its divisor; any
    other bound gives value(case) and its rate.
    """

    theorem_id: str
    kind: str
    sinc: bool
    recipe: str
    kernel_hypotheses: Tuple[Tuple[str, Callable[[KernelModel], bool]], ...] = ()
    hypotheses: Tuple[Tuple[str, Callable[[_Case], bool]], ...] = ()
    order: Union[int, str, None] = None
    p: Optional[Callable[[Optional[int]], float]] = None
    coefficients: Optional[Callable[..., Tuple[float, float]]] = None
    divisor: float = 1.0
    value: Optional[Callable[[_Case], float]] = None
    rate: Optional[float] = None

    def minimum(self, kernel: Optional[KernelModel], v: float, a: Optional[float] = None,
                m: Optional[int] = None) -> Tuple[float, float, float]:
        """(h0*, minimum / divisor, rate) of the power form for v, a and m.

        Raises ValueError naming the first kernel hypothesis that fails, and
        where the coefficients or their minimum are not finite and positive.
        """
        for name, ok in self.kernel_hypotheses:
            if kernel is None or not ok(kernel):
                raise ValueError("%s needs a kernel that satisfies %s"
                                 % (self.theorem_id, name))
        try:
            p = self.p(m)
            h_star, value = _power_minimum(*self.coefficients(kernel, v, a, m), p)
        except (OverflowError, ValueError) as exc:
            raise ValueError("%s has no finite positive minimum at v=%r, a=%r, m=%r"
                             % (self.theorem_id, v, a, m)) from exc
        return h_star, value / self.divisor, p / (p + 1.0)


def _power_minimum(c1: float, c2: float, p: float) -> Tuple[float, float]:
    """Minimize c1 h^p + c2/h over h > 0 in closed form; raises ValueError
    unless c1, c2, the minimizer and the minimum are finite and positive."""
    try:
        h_star = (c2 / (p * c1)) ** (1.0 / (p + 1.0))
        value = c1 * h_star ** p + c2 / h_star
    except (OverflowError, ZeroDivisionError):
        h_star = value = math.nan
    if not all(math.isfinite(x) and x > 0.0 for x in (c1, c2, h_star, value)):
        raise ValueError("c1 h^%g + c2/h has no finite positive minimum at c1=%r, c2=%r"
                         % (p, c1, c2))
    return h_star, value


def _log_n(n: int) -> float:
    return math.log(n) if n > 1 else 1.0


def _lemma1(c: _Case) -> float:
    return (_abs_bias_factor(c.density, c.kernel, c.h) ** 2
            + 2.0 * c.density.sup_bound * c.kernel.a_value / (c.n * c.h))


def _thm5(c: _Case) -> float:
    log_n = _log_n(c.n)
    mid = max(c.v ** 1.5, c.v * c.v)
    mu1 = c.kernel.mu1
    c1 = (4.0 * math.sqrt(2.0) / math.pi) * max(math.sqrt(mu1), mu1) * mid
    bracket = c1 * max(math.sqrt(c.h0), c.h0) + c.kernel.roughness / (c.h0 * log_n)
    return bracket * log_n ** 2 / math.sqrt(c.n)


def _thm9(c: _Case) -> float:
    alpha, gamma, big_b = c.density.supersmooth
    log_hn = math.log(c.h0 * c.n)
    return (2.0 * gamma ** (-1.0 / alpha) * log_hn ** (1.0 / alpha)
            + big_b / c.h0) / (2.0 * math.pi * c.n)


def _thm10(c: _Case) -> float:
    alpha, gamma, big_b = c.density.supersmooth
    log_hn = math.log(c.h0 * c.n)
    return ((2.0 * c.density.a_p / (math.pi * gamma ** (1.0 / alpha)))
            * log_hn ** (1.0 / alpha)
            + big_b ** 2 / (4.0 * math.pi ** 2 * c.n * c.h0)) / c.n


_K_DENSITY = ("kernel_is_density", lambda k: bool(k.is_density))
_K_ZERO_MEAN = ("kernel_zero_mean", lambda k: bool(k.zero_mean))
_K_MU1 = ("kernel_mu1_available", lambda k: k.mu1 is not None)
_K_MU2 = ("kernel_mu2_available", lambda k: k.mu2 is not None)
_K_CF_ABS = ("kernel_cf_absolutely_integrable", lambda k: math.isfinite(k.a_value))
_SUP = ("density_sup_bound_available", lambda c: c.density.sup_bound is not None)
_VARIATION = ("derivative_variation_available", lambda c: c.v is not None)
_TOTAL_VARIATION = ("total_variation_available", lambda c: c.v is not None)
_ASSERTED = ("smoothness_class_user_asserted", lambda c: True)
_SUPERSMOOTH = (
    ("supersmooth_certificate_available", lambda c: c.density.supersmooth is not None),
    ("h0_n_log_positive", lambda c: c.h0 * c.n > 1.0),
)
_BAND = (
    ("density_band_limited", lambda c: c.density.cf_cutoff is not None),
    ("h_within_band",
     lambda c: c.density.cf_cutoff is not None and c.h <= 1.0 / c.density.cf_cutoff),
)

SPECS = {spec.theorem_id: spec for spec in (
    # sup-MSE <= {(2 pi)^(-1) int |f| |1 - phi(ht)| dt}^2 + 2 a A(K)/(n h)
    BoundSpec("lemma1", "max_mse", False, "h", (_K_DENSITY, _K_CF_ABS), (
        _SUP, ("density_cf_absolutely_integrable",
               lambda c: c.density.cf_abs_tail is not None)), value=_lemma1),
    # MISE <= (2 pi)^(-1) int |f|^2 |1 - phi(ht)|^2 dt + R(K)/(n h)
    BoundSpec("lemma2", "mise", False, "h", (_K_DENSITY,), value=lambda c: (
        integrated_sq_bias(c.density, c.kernel, c.h).value
        + c.kernel.roughness / (c.n * c.h))),
    # MISE <= (2 pi)^(-1) {int_{|t| >= 1/h} |f|^2 dt + 2/(n h)}
    BoundSpec("lemma5_mise", "mise", True, "h", value=lambda c: (
        float(c.density.cf_sq_tail(1.0 / c.h)) + 2.0 / (c.n * c.h)) / (2.0 * math.pi)),
    # sup-MSE <= {(2 pi)^(-1) int_{|t| >= 1/h} |f| dt}^2 + 2 A(p)/(pi n h)
    BoundSpec("lemma5_maxmse", "max_mse", True, "h", (), (
        ("density_cf_absolutely_integrable",
         lambda c: c.density.cf_abs_tail is not None and c.density.a_p is not None),),
        value=lambda c: (float(c.density.cf_abs_tail(1.0 / c.h)) / (2.0 * math.pi)) ** 2
        + 2.0 * c.density.a_p / (math.pi * c.n * c.h)),
    # {(3/(10 pi)) mu2^2 V2^(5/3) h0^4 + R(K)/h0} n^(-4/5)
    BoundSpec("thm1", "mise", False, "power", (_K_DENSITY, _K_ZERO_MEAN, _K_MU2),
              (_VARIATION, _ASSERTED), order=2, p=lambda m: 4.0,
              coefficients=lambda k, v, a, m: (
                  (3.0 / (10.0 * math.pi)) * k.mu2 ** 2 * v ** (5.0 / 3.0), k.roughness)),
    # {(4/(3 pi)) mu1^2 V1^(3/2) h0^2 + R(K)/h0} n^(-2/3)
    BoundSpec("thm2", "mise", False, "power", (_K_DENSITY, _K_MU1),
              (_VARIATION, _ASSERTED), order=1, p=lambda m: 2.0,
              coefficients=lambda k, v, a, m: (
                  (4.0 / (3.0 * math.pi)) * k.mu1 ** 2 * v ** 1.5, k.roughness)),
    # {(4/(9 pi^2)) mu2^2 V3^(3/2) h0^4 + 2 a A(K)/h0} n^(-4/5)
    BoundSpec("thm3", "max_mse", False, "power",
              (_K_DENSITY, _K_ZERO_MEAN, _K_MU2, _K_CF_ABS),
              (_SUP, _VARIATION, _ASSERTED), order=3, p=lambda m: 4.0,
              coefficients=lambda k, v, a, m: (
                  (4.0 / (9.0 * math.pi ** 2)) * k.mu2 ** 2 * v ** 1.5, 2.0 * a * k.a_value)),
    # {(9/(4 pi^2)) mu1^2 V2^(4/3) h0^2 + 2 a A(K)/h0} n^(-2/3)
    BoundSpec("thm4", "max_mse", False, "power", (_K_DENSITY, _K_MU1, _K_CF_ABS),
              (_SUP, _VARIATION, _ASSERTED), order=2, p=lambda m: 2.0,
              coefficients=lambda k, v, a, m: (
                  (9.0 / (4.0 * math.pi ** 2)) * k.mu1 ** 2 * v ** (4.0 / 3.0),
                  2.0 * a * k.a_value)),
    # (log^2 n / sqrt(n)) {(4 sqrt(2)/pi) max(sqrt(mu1), mu1) max(V^(3/2), V^2)
    #                      max(sqrt(h0), h0) + R(K)/(h0 log n)}, for n >= 16
    BoundSpec("thm5", "mise", False, "root_log", (_K_DENSITY, _K_MU1), (
        _TOTAL_VARIATION, ("n_at_least_16", lambda c: c.n >= 16)),
        order=0, value=_thm5, rate=0.5),
    # (V^2 h0 + 1/h0) / (pi sqrt(n)), minimized at h0 = 1/V to 2 V/(pi sqrt(n))
    BoundSpec("thm6", "mise", True, "root", (), (_TOTAL_VARIATION,), order=0,
              p=lambda m: 1.0, coefficients=lambda k, v, a, m: (v * v, 1.0),
              divisor=math.pi),
    # (2 pi)^(-1) {(4(m+1)/(2m+1)) V_m^((2m+1)/(m+1)) h0^(2m) + 2/h0} n^(-2m/(2m+1))
    BoundSpec("thm7", "mise", True, "power", (), (_VARIATION, _ASSERTED), order="m",
              p=lambda m: 2.0 * m, coefficients=lambda k, v, a, m: (
                  (4.0 * (m + 1.0) / (2.0 * m + 1.0)) * v ** ((2.0 * m + 1.0) / (m + 1.0)),
                  2.0), divisor=2.0 * math.pi),
    # pi^(-2) {((m+1)/m)^2 V_m^(2m/(m+1)) h0^(2(m-1))
    #          + 2 (V_m^(1/(m+1)) + V_m^(m/(m+1))/m)/h0} n^(-2(m-1)/(2m-1))
    BoundSpec("thm8", "max_mse", True, "power", (), (_VARIATION, _ASSERTED), order="m",
              p=lambda m: 2.0 * (m - 1.0), coefficients=lambda k, v, a, m: (
                  ((m + 1.0) / m) ** 2 * v ** (2.0 * m / (m + 1.0)),
                  2.0 * (v ** (1.0 / (m + 1.0)) + v ** (m / (m + 1.0)) / m)),
              divisor=math.pi ** 2),
    # (2 pi n)^(-1) {2 gamma^(-1/alpha) log(h0 n)^(1/alpha) + B/h0}
    BoundSpec("thm9", "mise", True, "log", (), _SUPERSMOOTH, value=_thm9, rate=1.0),
    # n^(-1) {(2 A(p)/(pi gamma^(1/alpha))) log(h0 n)^(1/alpha) + B^2/(4 pi^2 n h0)}
    BoundSpec("thm10", "max_mse", True, "log", (), _SUPERSMOOTH + (
        ("density_cf_absolutely_integrable", lambda c: c.density.a_p is not None),),
        value=_thm10, rate=1.0),
    # 1/(pi n h) for h <= 1/tau, where the estimate is unbiased
    BoundSpec("thm11", "mise", True, "h", (), _BAND,
              value=lambda c: 1.0 / (math.pi * c.n * c.h), rate=1.0),
    # 2 tau/(pi^2 n h) for h <= 1/tau
    BoundSpec("thm11_maxmse", "max_mse", True, "h", (), _BAND,
              value=lambda c: 2.0 * c.density.cf_cutoff / (math.pi ** 2 * c.n * c.h),
              rate=1.0),
)}


def _bandwidth(recipe: str, c: _Case, p: Optional[float]) -> float:
    if recipe == "h":
        return float(c.h)
    if recipe == "power":
        return c.h0 * c.n ** (-1.0 / (p + 1.0))
    if recipe == "root":
        return c.h0 / math.sqrt(c.n)
    if recipe == "root_log":
        return c.h0 / (math.sqrt(c.n) * _log_n(c.n))
    alpha, gamma, _ = c.density.supersmooth
    return (math.log(c.h0 * c.n) / gamma) ** (-1.0 / alpha)


def bound(theorem_id: str, density: DensityModel, kernel: Optional[KernelModel],
          n: int, *, h: Optional[float] = None, h0: Optional[float] = None,
          m: Optional[int] = None) -> BoundResult:
    """Evaluate the bound SPECS[theorem_id] at sample size n.

    The fixed-bandwidth bounds (recipe "h") need h, the others h0; thm7 and
    thm8 also need the smoothness order m >= 1.  kernel is the kernel of
    the conventional bounds; the sinc-kernel bounds do not read it.  When
    the density carries no total variation V but is unimodal and bounded
    by a, thm5 and thm6 fall back on V = 2a and report the ids
    thm5_unimodal and thm6_unimodal.  Raises ValueError for an unknown id,
    a missing input, an n or m outside 1 to 2^53, an h or h0 that is not
    finite and positive, and a bound that overflows.
    """
    spec = SPECS.get(theorem_id)
    if spec is None:
        raise ValueError("unknown bound %r" % (theorem_id,))
    _check_count("n", n)
    for name, width in (("h", h), ("h0", h0)):
        if width is not None and not (math.isfinite(width) and width > 0.0):
            raise ValueError("%s must be finite and positive, not %r" % (name, width))
    fixed = spec.recipe == "h"
    if (h if fixed else h0) is None:
        raise ValueError("%s needs %s" % (theorem_id, "h" if fixed else "h0"))
    if spec.order == "m":
        if m is None:
            raise ValueError("%s needs an order m >= 1" % theorem_id)
        _check_count("m", m)
    if kernel is None and not spec.sinc:
        raise ValueError("%s needs a kernel" % theorem_id)
    order = m if spec.order == "m" else spec.order
    v = None if order is None else density.variation.get(order)
    fallback = (order == 0 and v is None and density.unimodal
                and density.sup_bound is not None)
    if fallback:
        # a unimodal density bounded by a has total variation 2a
        v = 2.0 * density.sup_bound
    case = _Case(density, kernel, n, h, h0, v)
    checks = tuple([(name, bool(ok(kernel))) for name, ok in spec.kernel_hypotheses]
                   + [(name, bool(ok(case))) for name, ok in spec.hypotheses])
    applicable = all(ok for _, ok in checks)
    p = None if spec.p is None else spec.p(m)
    rate = spec.rate if p is None else p / (p + 1.0)
    # the log recipe reads the supersmooth certificate, which may be missing
    h_used = _bandwidth(spec.recipe, case, p) if applicable or spec.recipe != "log" else None
    upper = optimal = None
    if applicable:
        try:
            if p is None:
                upper = spec.value(case)
            else:
                c1, c2 = spec.coefficients(kernel, v, density.sup_bound, m)
                # with h_n = h0/sqrt(n), n^(-1/2) is taken as 1/sqrt(n) too
                scale = (1.0 / (spec.divisor * math.sqrt(n)) if spec.recipe == "root"
                         else n ** -rate / spec.divisor)
                upper = (c1 * h0 ** p + c2 / h0) * scale
                if p > 0.0:
                    h_star, m_star = _power_minimum(c1, c2, p)
                    optimal = (float(h_star), float(m_star * scale))
        except OverflowError:
            upper = math.inf
        if not math.isfinite(upper):
            raise ValueError("%s overflows at n=%d, h=%r, h0=%r" % (theorem_id, n, h, h0))
    return BoundResult(spec.theorem_id + ("_unimodal" if fallback else ""), spec.kind,
                       n=n, h_used=h_used, h0=None if fixed else float(h0),
                       rate=rate, bound=upper, assumptions_checked=checks,
                       optimal=optimal)


def bound_table(density: DensityModel, kernel: KernelModel, n: int, h: float,
                h0: float, m: int) -> Iterator[Tuple[BoundResult, KernelModel]]:
    """Every bound of SPECS in order, each with the kernel it is evaluated
    with: the sinc kernel for the sinc-kernel bounds, else kernel."""
    sinc = make_builtin("sinc")
    for spec in SPECS.values():
        used = sinc if spec.sinc else kernel
        yield bound(spec.theorem_id, density, used, n, h=h, h0=h0, m=m), used


def amise_conventional(density: DensityModel, kernel: KernelModel,
                       n: int) -> Tuple[float, float]:
    """Classical asymptotic-MISE bandwidth and value for a smooth target.

    The AMISE R(K)/(n h) + mu2^2 R(p'') h^4/4 at h = h0 n^(-1/5) is the
    power form (c1 h0^4 + c2/h0) n^(-4/5), c1 = mu2^2 R(p'')/4, c2 = R(K).

    R(p'') is integrated from the model's analytic second derivative over
    its support_hint, on Gauss-Legendre panels (risk.gauss_panels);
    densities without one raise, and so does a quadrature whose error
    estimate exceeds its tolerance (epsabs + epsrel |R(p'')|).
    """
    _check_count("n", n)
    if not kernel.is_density or kernel.mu2 is None or not kernel.zero_mean:
        raise ValueError(
            "kernel %r is not a zero-mean density with a second moment"
            % kernel.name
        )
    if density.pdf_deriv is None:
        raise ValueError(
            "density %r has no analytic derivatives; the asymptotic rule "
            "is unavailable" % density.name
        )
    # 16 panels over support_hint, bisected where they miss their share of
    # epsabs (576 nodes for the unit normal)
    q = gauss_panels(lambda x: density.pdf_deriv(2, x) ** 2,
                     np.linspace(*density.support_hint, 17), _RPP_EPSABS)
    rpp, err = float(q.value[0]), float(q.error[0])
    if not err <= _RPP_EPSABS + _RPP_EPSREL * abs(rpp):
        raise ValueError(
            "R(p'') of density %r is not resolved: error estimate %.3g "
            "for the value %.6g" % (density.name, err, rpp)
        )
    h0, value = _power_minimum(kernel.mu2 ** 2 * rpp / 4.0, kernel.roughness, 4.0)
    return h0 * n ** -0.2, value * n ** -0.8
