"""Kernel density estimation through the Fourier transform.

The package evaluates kernel density estimates, computes their exact
finite-sample risk (bias, MSE, MISE) by transform-side quadrature, certifies
non-asymptotic upper bounds on MISE and worst-case MSE for conventional and
spectrum-cutoff kernels, selects bandwidths (normal reference rule,
bound-minimizing rules, cross-validation), and plans the sample size needed
to certify a target accuracy.
"""

from .bounds import (
    SPECS,
    BoundResult,
    BoundSpec,
    amise_conventional,
    bound,
    bound_table,
)
from .charfun import (
    BUILTIN_DENSITIES,
    DensityModel,
    Sample,
    as_sample,
    cf_envelope,
    ecf,
    ecf_sq_unbiased,
    make_density,
    one_minus_cf_bound,
)
from .estimator import (
    CorrectionInfeasibleError,
    EstimateGrid,
    correct_to_density,
    default_grid,
    estimate_on_grid,
    kde_eval,
    sinc_kde_fourier,
)
from .kernels import (
    BUILTIN_KERNELS,
    KernelModel,
    kernel_from_functions,
    make_builtin,
)
from .risk import (
    RiskReport,
    exact_bias,
    exact_mise,
    exact_mse,
    integrated_sq_bias,
    mc_mise,
)
from .selector import (
    PlanRequest,
    SelectorResult,
    bound_rule,
    cv_bandwidth,
    default_h_grid,
    plan_bound_constant,
    plan_sample_size,
    rule_of_thumb_normal,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BoundSpec",
    "BUILTIN_DENSITIES",
    "BUILTIN_KERNELS",
    "CorrectionInfeasibleError",
    "DensityModel",
    "EstimateGrid",
    "KernelModel",
    "PlanRequest",
    "RiskReport",
    "SPECS",
    "Sample",
    "SelectorResult",
    "amise_conventional",
    "as_sample",
    "bound",
    "bound_rule",
    "bound_table",
    "correct_to_density",
    "cv_bandwidth",
    "default_grid",
    "default_h_grid",
    "ecf",
    "ecf_sq_unbiased",
    "estimate_on_grid",
    "cf_envelope",
    "one_minus_cf_bound",
    "exact_bias",
    "exact_mise",
    "exact_mse",
    "integrated_sq_bias",
    "kde_eval",
    "kernel_from_functions",
    "make_builtin",
    "make_density",
    "mc_mise",
    "plan_bound_constant",
    "plan_sample_size",
    "rule_of_thumb_normal",
    "sinc_kde_fourier",
]
