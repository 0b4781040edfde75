"""Non-asymptotic upper bounds on the risk of kernel density estimates.

Each bound couples a bandwidth recipe, either a fixed h or a sequence
h_n = h0 * n^(-1/(power)), with an explicit constant built from kernel
functionals (mu1, mu2, roughness, A(K)) and Fourier-side density
constants (derivative variations V_m, sup bound a, supersmooth
certificate, band limit).  Results record which hypotheses were
machine-checked; an unsatisfied hypothesis yields an inapplicable result
rather than an error, so bound tables over (bound x density) grids can
render gaps honestly.  Where the bound has the shape
c1 * h0^p + c2 / h0, the closed-form minimizer over h0 is attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .charfun import DensityModel
from .kernels import KernelModel
from .risk import (RISK_RTOL, _decay_breaks, _sup_tail, certified_cutoff,
                   gauss_panels, integrated_sq_bias, panel_edges)

__all__ = [
    "BoundResult",
    "lemma1_mse_bound",
    "lemma2_mise_bound",
    "lemma5_mise_bound",
    "lemma5_maxmse_bound",
    "conventional_mise_bound",
    "conventional_maxmse_bound",
    "nonsmooth_mise_bound",
    "sinc_mise_bound",
    "sinc_maxmse_bound",
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


def _check_hn(h0: float, n: int) -> None:
    if h0 <= 0:
        raise ValueError("h0 must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")


def _check_fixed(h: float, n: int) -> None:
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")


def _power_minimum(c1: float, c2: float, p: float) -> Tuple[float, float]:
    """Minimize c1 * h^p + c2 / h over h > 0, in closed form."""
    h_star = (c2 / (p * c1)) ** (1.0 / (p + 1.0))
    return h_star, c1 * h_star ** p + c2 / h_star


def _abs_bias_factor(density: DensityModel, kernel: KernelModel,
                     h: float) -> float:
    """Upper estimate of (2 pi)^(-1) int |f(t)| |1 - phi(h t)| dt.

    The head up to the cutoff T is integrated on Gauss-Legendre panels;
    its error estimate and the certified tail cf_abs_tail(T) (1 + s) / (2 pi),
    with s = sup_{|u| >= hT} |phi(u)|, are added, so the factor, which is
    squared into an upper bound, is never rounded below its true value.
    """
    scale = float(density.cf_abs_tail(0.0)) / (2.0 * math.pi)
    tol = RISK_RTOL * scale
    sup_tail = _sup_tail(kernel)

    def tail(T):
        return float(density.cf_abs_tail(T)) * (1.0 + float(sup_tail(h * T))) \
            / (2.0 * math.pi)

    omega = density.cf_phases[1] - density.cf_phases[0] + h
    if density.cf_cutoff is not None:
        T = float(density.cf_cutoff)
    else:
        # an algebraic tail stops at 4096 periods; the bound only loosens
        T = certified_cutoff(tail, 0.5 * tol, start=0.0625,
                             limit=4096 * 2.0 * math.pi / omega)

    def integrand(t):
        return np.abs(density.cf(t)) * np.abs(kernel.one_minus_cf(h * t))

    edges = panel_edges(0.0, T, omega, _decay_breaks(density.cf_abs_tail, T))
    q = gauss_panels(integrand, edges, 0.5 * math.pi * tol)
    return float(q.value[0] + q.error[0]) / math.pi + tail(T)


def lemma1_mse_bound(density: DensityModel, kernel: KernelModel, h: float,
                     n: int) -> BoundResult:
    """Fixed-bandwidth bound on sup_x MSE for a conventional kernel.

    sup-MSE <= {(2 pi)^(-1) int |f| |1 - phi(ht)| dt}^2 + 2 a A(K)/(n h),
    where a bounds the density and A(K) = (2 pi)^(-1) int |phi|.  Needs
    both transforms absolutely integrable and the density bounded.
    """
    _check_fixed(h, n)
    checks = [
        ("kernel_is_density", bool(kernel.is_density)),
        ("kernel_cf_absolutely_integrable", math.isfinite(kernel.a_value)),
        ("density_sup_bound_available", density.sup_bound is not None),
        ("density_cf_absolutely_integrable", density.cf_abs_tail is not None),
    ]
    bound = None
    if all(ok for _, ok in checks):
        first = _abs_bias_factor(density, kernel, h)
        bound = first ** 2 + 2.0 * density.sup_bound * kernel.a_value / (n * h)
    return BoundResult("lemma1", "max_mse", n=n, h_used=float(h), h0=None,
                       rate=None, bound=bound,
                       assumptions_checked=tuple(checks))


def lemma2_mise_bound(density: DensityModel, kernel: KernelModel, h: float,
                      n: int) -> BoundResult:
    """Fixed-bandwidth MISE bound for a conventional kernel.

    MISE <= (2 pi)^(-1) int |f|^2 |1 - phi(ht)|^2 dt + R(K)/(n h); the
    second term is (2 pi n h)^(-1) int |phi|^2 by Parseval.
    """
    _check_fixed(h, n)
    checks = [("kernel_is_density", bool(kernel.is_density))]
    bound = None
    if all(ok for _, ok in checks):
        bias_part = integrated_sq_bias(density, kernel, h)
        bound = bias_part.value + kernel.roughness / (n * h)
    return BoundResult("lemma2", "mise", n=n, h_used=float(h), h0=None,
                       rate=None, bound=bound,
                       assumptions_checked=tuple(checks))


def lemma5_mise_bound(density: DensityModel, h: float, n: int) -> BoundResult:
    """Fixed-bandwidth MISE bound for the sinc-kernel estimate.

    MISE <= (2 pi)^(-1) { int_{|t| >= 1/h} |f|^2 dt + 2/(n h) }; exact up
    to the closed-form tail the density model carries.
    """
    _check_fixed(h, n)
    tail = float(density.cf_sq_tail(1.0 / h))
    bound = (tail + 2.0 / (n * h)) / (2.0 * math.pi)
    return BoundResult("lemma5_mise", "mise", n=n, h_used=float(h), h0=None,
                       rate=None, bound=bound, assumptions_checked=())


def lemma5_maxmse_bound(density: DensityModel, h: float,
                        n: int) -> BoundResult:
    """Fixed-bandwidth bound on sup_x MSE for the sinc-kernel estimate.

    sup-MSE <= {(2 pi)^(-1) int_{|t| >= 1/h} |f| dt}^2 + 2 A(p)/(pi n h),
    with A(p) = (2 pi)^(-1) int |f|.
    """
    _check_fixed(h, n)
    checks = [
        ("density_cf_absolutely_integrable",
         density.cf_abs_tail is not None and density.a_p is not None),
    ]
    bound = None
    if all(ok for _, ok in checks):
        first = float(density.cf_abs_tail(1.0 / h)) / (2.0 * math.pi)
        bound = first ** 2 + 2.0 * density.a_p / (math.pi * n * h)
    return BoundResult("lemma5_maxmse", "max_mse", n=n, h_used=float(h),
                       h0=None, rate=None, bound=bound,
                       assumptions_checked=tuple(checks))


def conventional_mise_bound(density: DensityModel, kernel: KernelModel,
                            m: int, h0: float, n: int) -> BoundResult:
    """MISE bound for an m-times differentiable target, conventional kernel.

    m = 2 uses h_n = h0 n^(-1/5) and needs a zero-mean kernel with a
    second moment plus the variation V2 of p'':
        { (3/(10 pi)) mu2^2 V2^(5/3) h0^4 + R(K)/h0 } n^(-4/5).
    m = 1 uses h_n = h0 n^(-1/3) and needs mu1 plus the variation V1 of p':
        { (4/(3 pi)) mu1^2 V1^(3/2) h0^2 + R(K)/h0 } n^(-2/3).
    The closed-form minimizer over h0 is attached as optimal.
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    _check_hn(h0, n)
    v = density.variation.get(m)
    checks = [
        ("kernel_is_density", bool(kernel.is_density)),
        ("derivative_variation_available", v is not None),
        ("smoothness_class_user_asserted", True),
    ]
    if m == 2:
        checks.insert(1, ("kernel_zero_mean", bool(kernel.zero_mean)))
        checks.insert(2, ("kernel_mu2_available", kernel.mu2 is not None))
        rate = 4.0 / 5.0
        power = 5
    else:
        checks.insert(1, ("kernel_mu1_available", kernel.mu1 is not None))
        rate = 2.0 / 3.0
        power = 3
    h_used = h0 * n ** (-1.0 / power)
    theorem_id = "thm1" if m == 2 else "thm2"
    bound = None
    optimal = None
    if all(ok for _, ok in checks):
        if m == 2:
            c1 = (3.0 / (10.0 * math.pi)) * kernel.mu2 ** 2 * v ** (5.0 / 3.0)
            p = 4.0
        else:
            c1 = (4.0 / (3.0 * math.pi)) * kernel.mu1 ** 2 * v ** 1.5
            p = 2.0
        c2 = kernel.roughness
        scale = n ** (-rate)
        bound = (c1 * h0 ** p + c2 / h0) * scale
        h_star, m_star = _power_minimum(c1, c2, p)
        optimal = (float(h_star), float(m_star * scale))
    return BoundResult(theorem_id, "mise", n=n, h_used=float(h_used),
                       h0=float(h0), rate=rate, bound=bound,
                       assumptions_checked=tuple(checks), optimal=optimal)


def conventional_maxmse_bound(density: DensityModel, kernel: KernelModel,
                              m: int, h0: float, n: int) -> BoundResult:
    """sup-MSE bound for an m-times differentiable target, conventional kernel.

    m = 3 uses h_n = h0 n^(-1/5) and needs a zero-mean kernel, the
    variation V3 of p''', a bound a on the density, and A(K):
        { (4/(9 pi^2)) mu2^2 V3^(3/2) h0^4 + 2 a A(K)/h0 } n^(-4/5).
    m = 2 uses h_n = h0 n^(-1/3) with V2 and mu1 instead:
        { (9/(4 pi^2)) mu1^2 V2^(4/3) h0^2 + 2 a A(K)/h0 } n^(-2/3).
    """
    if m not in (2, 3):
        raise ValueError("m must be 2 or 3")
    _check_hn(h0, n)
    v = density.variation.get(m)
    checks = [
        ("kernel_is_density", bool(kernel.is_density)),
        ("kernel_cf_absolutely_integrable", math.isfinite(kernel.a_value)),
        ("density_sup_bound_available", density.sup_bound is not None),
        ("derivative_variation_available", v is not None),
        ("smoothness_class_user_asserted", True),
    ]
    if m == 3:
        checks.insert(1, ("kernel_zero_mean", bool(kernel.zero_mean)))
        checks.insert(2, ("kernel_mu2_available", kernel.mu2 is not None))
        rate = 4.0 / 5.0
        power = 5
    else:
        checks.insert(1, ("kernel_mu1_available", kernel.mu1 is not None))
        rate = 2.0 / 3.0
        power = 3
    h_used = h0 * n ** (-1.0 / power)
    theorem_id = "thm3" if m == 3 else "thm4"
    bound = None
    optimal = None
    if all(ok for _, ok in checks):
        if m == 3:
            c1 = (4.0 / (9.0 * math.pi ** 2)) * kernel.mu2 ** 2 * v ** 1.5
            p = 4.0
        else:
            c1 = (9.0 / (4.0 * math.pi ** 2)) * kernel.mu1 ** 2 * v ** (4.0 / 3.0)
            p = 2.0
        c2 = 2.0 * density.sup_bound * kernel.a_value
        scale = n ** (-rate)
        bound = (c1 * h0 ** p + c2 / h0) * scale
        h_star, m_star = _power_minimum(c1, c2, p)
        optimal = (float(h_star), float(m_star * scale))
    return BoundResult(theorem_id, "max_mse", n=n, h_used=float(h_used),
                       h0=float(h0), rate=rate, bound=bound,
                       assumptions_checked=tuple(checks), optimal=optimal)


def nonsmooth_mise_bound(density: DensityModel, kernel: KernelModel,
                         h0: float, n: int) -> BoundResult:
    """MISE bound for a bounded-variation target, conventional kernel.

    Uses h_n = h0 / (sqrt(n) log n) and needs n >= 16.  With V the total
    variation of the density,

        (log^2 n / sqrt(n)) [ (4 sqrt(2)/pi) max(sqrt(mu1), mu1)
                              * max(V^(3/2), V^2) * max(sqrt(h0), h0)
                              + R(K)/(h0 log n) ].

    When V is unavailable, a unimodal density bounded by a falls back to
    the substitution max(2 sqrt(2) a^(3/2), a^2) for the middle factor.
    """
    _check_hn(h0, n)
    v0 = density.variation.get(0)
    fallback = v0 is None and density.unimodal and density.sup_bound is not None
    checks = [
        ("kernel_is_density", bool(kernel.is_density)),
        ("kernel_mu1_available", kernel.mu1 is not None),
        ("total_variation_available", v0 is not None or fallback),
        ("n_at_least_16", n >= 16),
    ]
    theorem_id = "thm5_unimodal" if fallback else "thm5"
    log_n = math.log(n) if n > 1 else 1.0
    h_used = h0 / (math.sqrt(n) * log_n)
    bound = None
    if all(ok for _, ok in checks):
        if fallback:
            a = density.sup_bound
            mid = max(2.0 * math.sqrt(2.0) * a ** 1.5, a * a)
        else:
            mid = max(v0 ** 1.5, v0 * v0)
        mu_factor = max(math.sqrt(kernel.mu1), kernel.mu1)
        c1 = (4.0 * math.sqrt(2.0) / math.pi) * mu_factor * mid
        bracket = c1 * max(math.sqrt(h0), h0) + kernel.roughness / (h0 * log_n)
        bound = bracket * log_n ** 2 / math.sqrt(n)
    return BoundResult(theorem_id, "mise", n=n, h_used=float(h_used),
                       h0=float(h0), rate=0.5, bound=bound,
                       assumptions_checked=tuple(checks))


def _require_h0(h0: Optional[float], regime: str) -> float:
    if h0 is None:
        raise ValueError("regime %r needs h0" % regime)
    return float(h0)


def _supersmooth_checks(density: DensityModel, h0: float,
                        n: int) -> List[Tuple[str, bool]]:
    return [
        ("supersmooth_certificate_available", density.supersmooth is not None),
        ("h0_n_log_positive", h0 * n > 1.0),
    ]


def sinc_mise_bound(density: DensityModel, regime: str, n: int,
                    h0: Optional[float] = None, h: Optional[float] = None,
                    m: Optional[int] = None) -> BoundResult:
    """MISE bound for the sinc-kernel estimate, by smoothness regime.

    nonsmooth   h_n = h0/sqrt(n); needs the total variation V (or, as a
                fallback, a unimodal density bounded by a with V = 2a):
                (V^2 h0 + 1/h0) / (pi sqrt(n)), minimized at h0 = 1/V
                with value 2 V / (pi sqrt(n)).
    smooth      h_n = h0 n^(-1/(2m+1)); needs the variation V_m of the
                m-th derivative:  (2 pi)^(-1) { (4(m+1)/(2m+1))
                V_m^((2m+1)/(m+1)) h0^(2m) + 2/h0 } n^(-2m/(2m+1)).
    supersmooth h_n = {log(h0 n)/gamma}^(-1/alpha); needs the
                (alpha, gamma, B) certificate and h0 n > 1:
                (2 pi n)^(-1) { 2 gamma^(-1/alpha) log(h0 n)^(1/alpha)
                + B/h0 }.
    bandlimited fixed h <= 1/tau; the estimate is unbiased and
                MISE <= 1/(pi n h).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if regime == "nonsmooth":
        h0 = _require_h0(h0, regime)
        _check_hn(h0, n)
        v0 = density.variation.get(0)
        fallback = (v0 is None and density.unimodal
                    and density.sup_bound is not None)
        checks = [("total_variation_available", v0 is not None or fallback)]
        theorem_id = "thm6_unimodal" if fallback else "thm6"
        h_used = h0 / math.sqrt(n)
        bound = None
        optimal = None
        if all(ok for _, ok in checks):
            v = 2.0 * density.sup_bound if fallback else v0
            scale = 1.0 / (math.pi * math.sqrt(n))
            bound = (v * v * h0 + 1.0 / h0) * scale
            h_star, m_star = _power_minimum(v * v, 1.0, 1.0)
            optimal = (float(h_star), float(m_star * scale))
        return BoundResult(theorem_id, "mise", n=n, h_used=float(h_used),
                           h0=h0, rate=0.5, bound=bound,
                           assumptions_checked=tuple(checks), optimal=optimal)
    if regime == "smooth":
        if m is None or m < 1:
            raise ValueError("smooth regime needs an order m >= 1")
        h0 = _require_h0(h0, regime)
        _check_hn(h0, n)
        vm = density.variation.get(m)
        checks = [("derivative_variation_available", vm is not None),
                  ("smoothness_class_user_asserted", True)]
        rate = 2.0 * m / (2.0 * m + 1.0)
        h_used = h0 * n ** (-1.0 / (2.0 * m + 1.0))
        bound = None
        optimal = None
        if all(ok for _, ok in checks):
            c1 = (4.0 * (m + 1.0) / (2.0 * m + 1.0)) * vm ** ((2.0 * m + 1.0) / (m + 1.0))
            c2 = 2.0
            p = 2.0 * m
            scale = n ** (-rate) / (2.0 * math.pi)
            bound = (c1 * h0 ** p + c2 / h0) * scale
            h_star, m_star = _power_minimum(c1, c2, p)
            optimal = (float(h_star), float(m_star * scale))
        return BoundResult("thm7", "mise", n=n, h_used=float(h_used), h0=h0,
                           rate=rate, bound=bound,
                           assumptions_checked=tuple(checks), optimal=optimal)
    if regime == "supersmooth":
        h0 = _require_h0(h0, regime)
        _check_hn(h0, n)
        checks = _supersmooth_checks(density, h0, n)
        bound = None
        h_used = None
        if all(ok for _, ok in checks):
            alpha, gamma, big_b = density.supersmooth
            log_hn = math.log(h0 * n)
            h_used = (log_hn / gamma) ** (-1.0 / alpha)
            bound = (2.0 * gamma ** (-1.0 / alpha) * log_hn ** (1.0 / alpha)
                     + big_b / h0) / (2.0 * math.pi * n)
        return BoundResult("thm9", "mise", n=n, h_used=h_used, h0=h0,
                           rate=1.0, bound=bound,
                           assumptions_checked=tuple(checks))
    if regime == "bandlimited":
        if h is None:
            raise ValueError("regime 'bandlimited' needs a fixed h")
        _check_fixed(h, n)
        tau = density.cf_cutoff
        checks = [
            ("density_band_limited", tau is not None),
            ("h_within_band", tau is not None and h <= 1.0 / tau),
        ]
        bound = None
        if all(ok for _, ok in checks):
            bound = 1.0 / (math.pi * n * h)
        return BoundResult("thm11", "mise", n=n, h_used=float(h), h0=None,
                           rate=1.0, bound=bound,
                           assumptions_checked=tuple(checks))
    raise ValueError("unknown regime %r" % regime)


def sinc_maxmse_bound(density: DensityModel, regime: str, n: int,
                      h0: Optional[float] = None, h: Optional[float] = None,
                      m: Optional[int] = None) -> BoundResult:
    """sup-MSE bound for the sinc-kernel estimate, by smoothness regime.

    smooth      h_n = h0 n^(-1/(2m-1)); needs the variation V_m:
                pi^(-2) { ((m+1)/m)^2 V_m^(2m/(m+1)) h0^(2(m-1))
                + 2 (V_m^(1/(m+1)) + V_m^(m/(m+1))/m)/h0 } n^(-2(m-1)/(2m-1)).
                The closed-form minimizer exists for m >= 2.
    supersmooth needs the (alpha, gamma, B) certificate, A(p), h0 n > 1:
                n^(-1) { (2 A(p)/(pi gamma^(1/alpha))) log(h0 n)^(1/alpha)
                + B^2/(4 pi^2 n h0) }.
    bandlimited fixed h <= 1/tau:  sup-MSE <= 2 tau/(pi^2 n h).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if regime == "smooth":
        if m is None or m < 1:
            raise ValueError("smooth regime needs an order m >= 1")
        h0 = _require_h0(h0, regime)
        _check_hn(h0, n)
        vm = density.variation.get(m)
        checks = [("derivative_variation_available", vm is not None),
                  ("smoothness_class_user_asserted", True)]
        rate = 2.0 * (m - 1.0) / (2.0 * m - 1.0)
        h_used = h0 * n ** (-1.0 / (2.0 * m - 1.0))
        bound = None
        optimal = None
        if all(ok for _, ok in checks):
            c1 = ((m + 1.0) / m) ** 2 * vm ** (2.0 * m / (m + 1.0))
            c2 = 2.0 * (vm ** (1.0 / (m + 1.0)) + vm ** (m / (m + 1.0)) / m)
            p = 2.0 * (m - 1.0)
            scale = n ** (-rate) / math.pi ** 2
            bound = (c1 * h0 ** p + c2 / h0) * scale
            if m >= 2:
                h_star, m_star = _power_minimum(c1, c2, p)
                optimal = (float(h_star), float(m_star * scale))
        return BoundResult("thm8", "max_mse", n=n, h_used=float(h_used),
                           h0=h0, rate=rate, bound=bound,
                           assumptions_checked=tuple(checks), optimal=optimal)
    if regime == "supersmooth":
        h0 = _require_h0(h0, regime)
        _check_hn(h0, n)
        checks = _supersmooth_checks(density, h0, n)
        checks.append(("density_cf_absolutely_integrable",
                       density.a_p is not None))
        bound = None
        h_used = None
        if all(ok for _, ok in checks):
            alpha, gamma, big_b = density.supersmooth
            log_hn = math.log(h0 * n)
            h_used = (log_hn / gamma) ** (-1.0 / alpha)
            bound = ((2.0 * density.a_p / (math.pi * gamma ** (1.0 / alpha)))
                     * log_hn ** (1.0 / alpha)
                     + big_b ** 2 / (4.0 * math.pi ** 2 * n * h0)) / n
        return BoundResult("thm10", "max_mse", n=n, h_used=h_used, h0=h0,
                           rate=1.0, bound=bound,
                           assumptions_checked=tuple(checks))
    if regime == "bandlimited":
        if h is None:
            raise ValueError("regime 'bandlimited' needs a fixed h")
        _check_fixed(h, n)
        tau = density.cf_cutoff
        checks = [
            ("density_band_limited", tau is not None),
            ("h_within_band", tau is not None and h <= 1.0 / tau),
        ]
        bound = None
        if all(ok for _, ok in checks):
            bound = 2.0 * tau / (math.pi ** 2 * n * h)
        return BoundResult("thm11_maxmse", "max_mse", n=n, h_used=float(h),
                           h0=None, rate=1.0, bound=bound,
                           assumptions_checked=tuple(checks))
    raise ValueError("unknown regime %r" % regime)


def amise_conventional(density: DensityModel, kernel: KernelModel,
                       n: int) -> Tuple[float, float]:
    """Classical asymptotic-MISE bandwidth and value for a smooth target.

    h     = { R(K)/mu2^2 }^(1/5) R(p'')^(-1/5) n^(-1/5)
    amise = (5/4) { mu2^2 R(K)^4 }^(1/5) R(p'')^(1/5) n^(-4/5)

    R(p'') is integrated from the model's analytic second derivative over
    its support_hint, on Gauss-Legendre panels (risk.gauss_panels);
    densities without one raise, and so does a quadrature whose error
    estimate exceeds its tolerance (epsabs + epsrel |R(p'')|).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
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
    h = ((kernel.roughness / kernel.mu2 ** 2) ** 0.2 * rpp ** -0.2
         * n ** -0.2)
    value = (1.25 * (kernel.mu2 ** 2 * kernel.roughness ** 4) ** 0.2
             * rpp ** 0.2 * n ** -0.8)
    return float(h), float(value)
