"""Acceptance suite: eight criteria, one printed PASS/FAIL line each.

Each criterion is a separate test; the printed line summarizes the outcome
so the suite's transcript reads as a checklist.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from cfkde import bounds, selector
from cfkde.charfun import as_sample, make_density
from cfkde.estimator import estimate_on_grid, kde_eval, sinc_kde_fourier
from cfkde.kernels import make_builtin
from cfkde.risk import exact_mise, exact_mse, mc_mise

GAUSS = make_builtin("gaussian")
SINC = make_builtin("sinc")
NORMAL = make_density("normal")
MIXTURE = make_density(
    "mixture", weights=(0.4, 0.6), means=(-1.0, 1.5), sigmas=(0.6, 1.1)
)
UNIFORM = make_density("uniform", a=0.0, b=1.0)
FEJER = make_density("fejer")


def _report(num, label, body):
    try:
        body()
    except BaseException:
        print("criterion %d (%s): FAIL" % (num, label))
        raise
    print("criterion %d (%s): PASS" % (num, label))


# ---------------------------------------------------------------------------


def test_criterion_1_reference_constants():
    def body():
        # derivative-variation constants by direct quadrature
        v2, _ = quad(lambda x: abs(NORMAL.pdf_deriv(3, x)), -12.0, 12.0,
                     limit=200)
        v3, _ = quad(lambda x: abs(NORMAL.pdf_deriv(4, x)), -12.0, 12.0,
                     limit=200)
        assert v2 == pytest.approx(1.5100, abs=5e-4)
        assert v3 == pytest.approx(2.8006, abs=5e-4)
        assert NORMAL.variation[2] == pytest.approx(v2, abs=5e-4)
        assert NORMAL.variation[3] == pytest.approx(v3, abs=5e-4)
        # bandwidth-rule constants, computed through the library
        r1 = selector.bound_rule("mise_thm1", v2, GAUSS, 100)
        assert r1.h * 100 ** 0.2 == pytest.approx(0.8204, abs=5e-4)
        r3 = selector.bound_rule("maxmse_thm3", (v3, NORMAL.sup_bound),
                                 GAUSS, 100)
        assert r3.h * 100 ** 0.2 == pytest.approx(1.1883, abs=5e-4)
        rot = selector.rule_of_thumb_normal(1.0, 1)
        assert rot.h == pytest.approx(1.0592, abs=5e-4)
        # minimized bound over minimized asymptotic risk
        res = bounds.bound("thm1", NORMAL, GAUSS, 100, h0=1.0)
        _, amise_value = bounds.amise_conventional(NORMAL, GAUSS, 100)
        assert res.optimal[1] / amise_value == pytest.approx(1.2911, abs=1e-3)

    _report(1, "reference constants", body)


def test_criterion_2_exact_risk_validity():
    def body():
        def oracle(h, n):
            s = 1.0
            return (1.0 / s - 2.0 / math.sqrt(s * s + h * h / 2.0)
                    + 1.0 / math.sqrt(s * s + h * h)
                    + (1.0 / h - 1.0 / math.sqrt(h * h + s * s)) / n
                    ) / (2.0 * math.sqrt(math.pi))

        for h, n in ((0.1, 10), (0.3, 100), (0.5, 50), (0.8, 20),
                     (1.0, 1000), (2.0, 16)):
            got = exact_mise(NORMAL, GAUSS, h, n).value
            assert got == pytest.approx(oracle(h, n), rel=1e-8)
        mean, se = mc_mise(NORMAL, GAUSS, 0.3, 100, reps=2000, seed=20260816)
        assert abs(mean - oracle(0.3, 100)) <= 3.0 * se

    _report(2, "exact risk vs oracle and Monte Carlo", body)


def test_criterion_3_dominance_suite():
    def body():
        checked = 0
        for density in (NORMAL, MIXTURE, UNIFORM, FEJER):
            lo, hi = density.support_hint
            xs = np.linspace(max(lo, -12.0), min(hi, 12.0), 5)
            for n in (16, 50, 200, 1000):
                for res, k_used in bounds.bound_table(
                    density, GAUSS, n, 0.5, 1.0, 2
                ):
                    if not res.applicable:
                        continue
                    if res.kind == "mise":
                        exact = exact_mise(density, k_used, res.h_used,
                                           n).value
                    else:
                        exact = max(
                            exact_mse(density, k_used, res.h_used, n,
                                      float(x)).value
                            for x in xs
                        )
                    assert res.bound + 1e-9 >= exact, (
                        density.name, res.theorem_id, n
                    )
                    checked += 1
        assert checked >= 150

    _report(3, "bound dominance over exact risk", body)


def test_criterion_4_corollary_minimizers():
    def body():
        def check(res, c1, c2, p, scale, recompute):
            h_star = brentq(
                lambda x: p * c1 * x ** (p - 1.0) - c2 / (x * x),
                1e-8, 1e8, xtol=1e-300, rtol=8.9e-16,
            )
            assert res.optimal[0] == pytest.approx(h_star, rel=1e-9)
            assert res.optimal[1] == pytest.approx(
                (c1 * h_star ** p + c2 / h_star) * scale, rel=1e-9
            )
            direct = minimize_scalar(
                recompute, bounds=(h_star / 20.0, h_star * 20.0),
                method="bounded", options={"xatol": 1e-10},
            )
            assert res.optimal[1] == pytest.approx(direct.fun, rel=1e-9)

        n = 200
        for sigma in (0.7, 1.0, 1.6):
            d = make_density("normal", sigma=sigma)
            res = bounds.bound("thm1", d, GAUSS, n, h0=1.0)
            check(res, 0.3 / math.pi * GAUSS.mu2 ** 2
                  * d.variation[2] ** (5.0 / 3.0),
                  GAUSS.roughness, 4.0, n ** -0.8,
                  lambda h0, d=d: bounds.bound("thm1", d, GAUSS, n, h0=h0).bound)
            res = bounds.bound("thm3", d, GAUSS, n, h0=1.0)
            check(res, 4.0 / (9.0 * math.pi ** 2) * GAUSS.mu2 ** 2
                  * d.variation[3] ** 1.5,
                  2.0 * d.sup_bound * GAUSS.a_value, 4.0, n ** -0.8,
                  lambda h0, d=d: bounds.bound("thm3", d, GAUSS, n, h0=h0).bound)
            res = bounds.bound("thm4", d, GAUSS, n, h0=1.0)
            check(res, 9.0 / (4.0 * math.pi ** 2) * GAUSS.mu1 ** 2
                  * d.variation[2] ** (4.0 / 3.0),
                  2.0 * d.sup_bound * GAUSS.a_value, 2.0, n ** (-2.0 / 3.0),
                  lambda h0, d=d: bounds.bound("thm4", d, GAUSS, n, h0=h0).bound)
        for scale in (0.6, 1.2, 2.5):
            d = make_density("laplace", scale=scale)
            res = bounds.bound("thm2", d, GAUSS, n, h0=1.0)
            check(res, 4.0 / (3.0 * math.pi) * GAUSS.mu1 ** 2
                  * d.variation[1] ** 1.5,
                  GAUSS.roughness, 2.0, n ** (-2.0 / 3.0),
                  lambda h0, d=d: bounds.bound("thm2", d, GAUSS, n, h0=h0).bound)
        for width in (1.0, 2.5, 0.4):
            d = make_density("uniform", a=0.0, b=width)
            res = bounds.bound("thm6", d, SINC, n, h0=1.0)
            v = d.variation[0]
            check(res, v * v, 1.0, 1.0, 1.0 / (math.pi * math.sqrt(n)),
                  lambda h0, d=d: bounds.bound("thm6", d, SINC, n, h0=h0).bound)
        for m in (1, 2, 3):
            res = bounds.bound("thm7", NORMAL, SINC, n, h0=1.0, m=m)
            vm = NORMAL.variation[m]
            check(res, 4.0 * (m + 1.0) / (2.0 * m + 1.0)
                  * vm ** ((2.0 * m + 1.0) / (m + 1.0)),
                  2.0, 2.0 * m,
                  n ** (-2.0 * m / (2.0 * m + 1.0)) / (2.0 * math.pi),
                  lambda h0, m=m: bounds.bound("thm7", NORMAL, SINC, n, h0=h0, m=m).bound)
        for m in (2, 3, 4):
            res = bounds.bound("thm8", NORMAL, SINC, n, h0=1.0, m=m)
            vm = NORMAL.variation[m]
            check(res, ((m + 1.0) / m) ** 2 * vm ** (2.0 * m / (m + 1.0)),
                  2.0 * (vm ** (1.0 / (m + 1.0)) + vm ** (m / (m + 1.0)) / m),
                  2.0 * (m - 1.0),
                  n ** (-2.0 * (m - 1.0) / (2.0 * m - 1.0)) / math.pi ** 2,
                  lambda h0, m=m: bounds.bound("thm8", NORMAL, SINC, n, h0=h0, m=m).bound)

    _report(4, "closed-form minimizers vs numeric minimization", body)


def test_criterion_5_spectrum_cutoff_machinery():
    def body():
        # dual evaluation routes agree pointwise
        rng = np.random.default_rng(7)
        s = as_sample(rng.normal(size=40))
        xs = rng.uniform(-4.0, 4.0, size=50)
        direct = kde_eval(s, SINC, 0.4, xs)
        fourier = sinc_kde_fourier(s, 0.4, xs)
        assert np.max(np.abs(direct - fourier)) <= 1e-6
        # band-limited closed form: the exact risk is (1/h - 1/3)/(pi n),
        # which is 2/(3 pi n) at the band edge h = 1
        n = 50
        for h in (1.0, 0.8):
            got = exact_mise(FEJER, SINC, h, n).value
            expected = (1.0 / h - 1.0 / 3.0) / (math.pi * n)
            assert abs(got - expected) <= 1e-9
            assert got <= 1.0 / (math.pi * n * h) + 1e-12
        # correction yields a bona fide density and never hurts the ISE
        for i in range(20):
            rng = np.random.default_rng(900 + i)
            sample = as_sample(rng.normal(size=50))
            raw = estimate_on_grid(sample, SINC, 0.3)
            fixed = estimate_on_grid(sample, SINC, 0.3, correct=True)
            assert abs(fixed.mass - 1.0) <= 1e-6
            assert float(np.min(fixed.ys)) >= 0.0
            truth = NORMAL.pdf(raw.xs)
            ise_raw = float(np.trapezoid((raw.ys - truth) ** 2, raw.xs))
            ise_fix = float(np.trapezoid((fixed.ys - truth) ** 2, fixed.xs))
            assert ise_fix <= ise_raw + 1e-12

    _report(5, "spectrum-cutoff dual route, closed form, correction", body)


def test_criterion_6_cross_validation_equivalence():
    def body():
        def ucv(x, h):
            n = x.size
            d = x[:, None] - x[None, :]
            off = ~np.eye(n, dtype=bool)
            kk = np.exp(-d * d / (4.0 * h * h))[off].sum() \
                / (2.0 * math.sqrt(math.pi))
            k1 = np.exp(-d * d / (2.0 * h * h))[off].sum() \
                / math.sqrt(2.0 * math.pi)
            return (1.0 / (2.0 * math.sqrt(math.pi) * n * h)
                    + (kk - 2.0 * k1) / (n * (n - 1.0) * h))

        for i in range(10):
            rng = np.random.default_rng(3000 + i)
            s = as_sample(rng.normal(size=60))
            res = selector.cv_bandwidth(s, GAUSS)
            hs = np.array([h for h, _ in res.criterion_curve])
            qs = np.array([q for _, q in res.criterion_curve])
            us = np.array([ucv(s.values, h) for h in hs])
            diff = qs - us
            assert np.max(np.abs(diff - diff.mean())) <= 1e-9
            assert hs[int(np.argmin(us))] == res.h

    _report(6, "criterion equals textbook cross-validation", body)


def test_criterion_7_planner_guarantees():
    def body():
        v2, v3, a = 1.5100, 2.8006, NORMAL.sup_bound
        stub2 = dataclasses.replace(NORMAL, variation={2: v2})
        stub3 = dataclasses.replace(NORMAL, variation={3: v3}, sup_bound=a)
        cases = [
            (selector.PlanRequest(target="mise", epsilon=0.01, v2=v2), GAUSS,
             lambda n: bounds.bound("thm1", stub2, GAUSS, n, h0=1.0).optimal[1]),
            (selector.PlanRequest(target="mise", epsilon=0.002, v2=v2), GAUSS,
             lambda n: bounds.bound("thm1", stub2, GAUSS, n, h0=1.0).optimal[1]),
            (selector.PlanRequest(target="max_mse", epsilon=0.01, v3=v3,
                                  a=a), GAUSS,
             lambda n: bounds.bound("thm3", stub3, GAUSS, n, h0=1.0).optimal[1]),
            (selector.PlanRequest(target="mise", epsilon=0.1, variation=2.0,
                                  regime="nonsmooth"), None,
             lambda n: bounds.bound("thm6", UNIFORM, SINC, n, h0=1.0).optimal[1]),
            (selector.PlanRequest(target="mise", epsilon=0.02,
                                  vm=NORMAL.variation[2], m=2,
                                  regime="smooth"), None,
             lambda n: bounds.bound("thm7", NORMAL, SINC, n, h0=1.0, m=2).optimal[1]),
        ]
        for req, kernel, direct in cases:
            n0 = selector.plan_sample_size(req, kernel)
            assert direct(n0) <= req.epsilon, (req.target, req.epsilon)
            assert direct(n0 - 1) > req.epsilon, (req.target, req.epsilon)

    _report(7, "planner certificates", body)


def test_criterion_8_rate_structure():
    def body():
        makers = [
            lambda n: bounds.bound("thm1", NORMAL, GAUSS, n, h0=0.9),
            lambda n: bounds.bound("thm2", make_density("laplace"), GAUSS, n, h0=0.9),
            lambda n: bounds.bound("thm3", NORMAL, GAUSS, n, h0=0.9),
            lambda n: bounds.bound("thm4", NORMAL, GAUSS, n, h0=0.9),
            lambda n: bounds.bound("thm6", UNIFORM, SINC, n, h0=0.7),
            lambda n: bounds.bound("thm7", NORMAL, SINC, n, h0=0.8, m=2),
            lambda n: bounds.bound("thm8", NORMAL, SINC, n, h0=0.8, m=2),
        ]
        for make in makers:
            products = [make(n).bound * n ** make(n).rate
                        for n in (16, 100, 10 ** 4)]
            assert products[1] == pytest.approx(products[0], rel=1e-12)
            assert products[2] == pytest.approx(products[0], rel=1e-12)
        # the nonsmooth bound follows the log^2 n / sqrt(n) envelope
        h0 = 0.8
        v = UNIFORM.variation[0]
        for n in (16, 100, 10 ** 4):
            res = bounds.bound("thm5", UNIFORM, GAUSS, n, h0=h0)
            log_n = math.log(n)
            bracket = ((4.0 * math.sqrt(2.0) / math.pi)
                       * max(math.sqrt(GAUSS.mu1), GAUSS.mu1)
                       * max(v ** 1.5, v * v) * max(math.sqrt(h0), h0)
                       + GAUSS.roughness / (h0 * log_n))
            envelope = bracket * log_n ** 2 / math.sqrt(n)
            assert res.bound == pytest.approx(envelope, rel=1e-12)

    _report(8, "rate purity and log envelope", body)
