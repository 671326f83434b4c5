"""Numerical verification of the cos(2y) log-power integral identities.

Each identity is evaluated by up to four independent routes (definite
integral, Hurwitz-zeta closed form, alternating series, Hankel-contour
integral) and the pairwise residuals are reported.
"""

from .complexfn import (
    BranchedConstant,
    DomainError,
    PoleError,
    bernoulli_numbers,
    complex_pow,
    gamma,
    log_gamma,
    principal_log,
)
from .hurwitz import (
    ConvergenceError,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    zeta_neg_int_oracle,
)
from .quad import QuadConfig, QuadResult, integrate_finite, integrate_semi_infinite
from .identities import (
    CaseError,
    DEFAULT_A_GRID,
    DEFAULT_K_GRID,
    DEFAULT_VERDICT_TOL,
    IdentityCase,
    RegionError,
    RouteResult,
    SweepResult,
    VerificationReport,
    alternating_sum,
    case_violation,
    catalan_case,
    catalan_reference,
    contour_cauchy_check,
    integrand,
    lhs_integral,
    loggamma_case,
    residual_ok,
    rhs_contour,
    rhs_series,
    rhs_zeta,
    sweep,
    verify,
)

__version__ = "0.1.0"
