"""Four-route evaluation of the cos(2y) * log-power integral family.

The identity under test, for a = r e^{i theta} with theta in [0, 2 pi):

    integral_0^{pi/2} cos(2y) log^k(a tan y) dy
        = 2^{k-1} k pi^k i^{k+1} ( zeta(1-k, 1/4 - i log(a)/(2 pi))
                                 - zeta(1-k, 3/4 - i log(a)/(2 pi)) )

Routes:

* lhs_integral  -- the definite integral, after u = log(tan y);
* rhs_zeta      -- the Hurwitz-zeta closed form (valid for general k);
* rhs_series    -- the alternating series, Re(k) < 1;
* rhs_contour   -- the Hankel contour reduced to two rays, Re(k) < 1 and
                   k non-integer.

The inner logarithm log(a tan y) is always (ln r + i theta) + log(tan y);
the outer power is the principal branch on that fixed value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .complexfn import TWO_PI, BranchedConstant, DomainError, complex_pow, gamma
from .hurwitz import ConvergenceError, hurwitz_zeta
from .quad import QuadConfig, QuadResult, integrate_semi_infinite

__all__ = [
    "IdentityCase",
    "VerificationReport",
    "SweepResult",
    "RegionError",
    "CaseError",
    "DEFAULT_K_GRID",
    "DEFAULT_A_GRID",
    "case_violation",
    "residual_ok",
    "alternating_sum",
    "catalan_reference",
    "integrand",
    "lhs_integral",
    "rhs_zeta",
    "rhs_series",
    "rhs_contour",
    "contour_cauchy_check",
    "catalan_case",
    "loggamma_case",
    "verify",
    "sweep",
]

_CAUCHY_NODES = 256

DEFAULT_K_GRID: tuple[complex, ...] = (
    -1.5 + 0j, -1.0 + 0j, -0.5 + 0j, 0.5 + 0j, 0.5 + 0.3j, 2.0 + 0j, 3.0 + 0j,
)
DEFAULT_A_GRID: tuple[BranchedConstant, ...] = (
    BranchedConstant(1.0),
    BranchedConstant(2.0),
    BranchedConstant(0.5),
    BranchedConstant(1.0, math.pi / 3.0),
    BranchedConstant(2.0, 3.0 * math.pi / 4.0),
)


class RegionError(ValueError):
    """The requested route is outside its region of validity."""


class CaseError(ValueError):
    """The (k, a) pair violates a case invariant."""


@dataclass(frozen=True)
class IdentityCase:
    """One (k, a) instance of the identity plus its evaluation configuration."""

    k: complex
    a: BranchedConstant
    quad_cfg: QuadConfig = QuadConfig()
    verdict_atol: float = 1e-6
    verdict_rtol: float = 1e-6


@dataclass
class VerificationReport:
    """Per-route results in evaluation order: a quadrature route keeps its
    QuadResult, a closed form its bare value."""

    case: IdentityCase
    routes: dict[str, QuadResult | complex] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    verdict: str = "partial"
    notes: list[str] = field(default_factory=list)

    # read-only views of the four verify routes
    lhs = property(lambda self: self.routes.get("lhs"))
    zeta_value = property(lambda self: self.routes.get("zeta"))
    series_value = property(lambda self: self.routes.get("series"))
    contour_value = property(lambda self: self.routes.get("contour"))


@dataclass
class SweepResult:
    reports: list[VerificationReport]
    notes: list[str]


def case_violation(k: complex, a: BranchedConstant) -> str | None:
    """Reason the (k, a) pair is invalid for the definite integral, or None."""
    k = complex(k)
    if a.theta == 0.0 and k.real < 0.0 and a.r != 1.0:
        return "a positive real with Re(k) < 0 requires a = 1"
    if a.theta == 0.0 and a.r == 1.0 and k.real <= -2.0:
        return "integrand not integrable at y = pi/4 for a = 1 with Re(k) <= -2"
    return None


def residual_ok(x: complex, y: complex, atol: float, rtol: float) -> bool:
    """Scale-aware comparison rule |x - y| <= atol + rtol*max(|x|, |y|)."""
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y))


def _everywhere(k: complex) -> None:
    """Region of a route that applies to every valid case."""
    return None


def _series_region(k: complex) -> str | None:
    """Why the alternating series does not apply at k, or None."""
    return "Re(k) >= 1" if k.real >= 1.0 else None


def _contour_region(k: complex) -> str | None:
    """Why the two-ray contour does not apply at k, or None."""
    if k.real >= 1.0:
        return "Re(k) >= 1"
    if abs(k.imag) <= 1e-12 and abs(k.real - round(k.real)) <= 1e-12:
        return "integer k"
    return None


def alternating_sum(term: Callable[[int], complex], rtol: float = 1e-13,
                    n_cap: int = 500) -> complex:
    """Accelerated sum_{n>=0} (-1)^n term(n) by iterated averaging of partial sums.

    The averaging table applies binomial weights to the partial sums, which
    converges geometrically for smooth alternating terms.
    """
    row: list[complex] = []
    partial = 0j
    sign = 1.0
    prev = None
    hits = 0
    for n in range(n_cap):
        partial += sign * term(n)
        sign = -sign
        new = [partial]
        for v in row:
            new.append(0.5 * (new[-1] + v))
        row = new
        est = row[-1]
        if prev is not None and n >= 6:
            if abs(est - prev) <= rtol * max(1e-300, abs(est)):
                hits += 1
                if hits >= 2:
                    return est
            else:
                hits = 0
        prev = est
    raise ConvergenceError(f"alternating series acceleration stalled after {n_cap} terms")


def catalan_reference() -> float:
    """Catalan's constant from the accelerated series sum (-1)^n / (2n+1)^2."""
    return alternating_sum(lambda n: complex(1.0 / (2 * n + 1) ** 2), 1e-14, 200).real


def integrand(y: float, k: complex, a: BranchedConstant) -> complex:
    """cos(2y) * log^k(a tan y) at interior y, with the removable point at
    y = pi/4 (a = 1) stabilised via cos(2y) = -tanh(log(tan y))."""
    if not 0.0 < y < 0.5 * math.pi:
        raise DomainError("y must lie strictly inside (0, pi/2)")
    k = complex(k)
    u = math.log(math.tan(y))
    z = complex(math.log(a.r) + u, a.theta)
    if z == 0:
        if a.theta == 0.0 and a.r == 1.0:
            if k == -1:
                return -1.0 + 0j  # limit of -tanh(u) * u^{-1}
            if k.real > -1.0:
                return 0j
        elif k.real > 0.0:
            return 0j
        raise DomainError("log(a tan y) = 0 with Re(k) too negative")
    if a.theta == 0.0 and a.r == 1.0 and abs(u) < 1e-6:
        return -math.tanh(u) * complex_pow(z, k)
    return math.cos(2.0 * y) * complex_pow(z, k)


def _half_sech(u: float) -> float:
    """1 / (2 cosh u), or 0 for |u| > 700 where it underflows."""
    au = abs(u)
    if au > 700.0:
        return 0.0
    return math.exp(-au) / (1.0 + math.exp(-2.0 * au))


def _u_integrand(k: complex, log_a: complex) -> Callable[[float], complex]:
    """Integrand of -tanh(u) (log a + u)^k / (2 cosh u) on the real u line."""

    def h(u: float) -> complex:
        w = _half_sech(u)
        if w == 0.0:  # the power factor cannot rescue an underflowed sech
            return 0j
        z = complex(log_a.real + u, log_a.imag)
        return -math.tanh(u) * complex_pow(z, k) * w

    return h


def _split_quad(h: Callable[[float], complex], split: float,
                cfg: QuadConfig) -> QuadResult:
    right = integrate_semi_infinite(lambda t: h(split + t), cfg)
    left = integrate_semi_infinite(lambda t: h(split - t), cfg)
    return QuadResult(
        right.value + left.value,
        right.err_estimate + left.err_estimate,
        right.n_evals + left.n_evals,
        right.converged and left.converged,
    )


def lhs_integral(case: IdentityCase) -> QuadResult:
    """The definite integral via u = log(tan y):

    -integral_{-inf}^{inf} tanh(u) (log a + u)^k / (2 cosh u) du,
    split at the branch point u = -ln(r) when theta = 0, else at u = 0.
    """
    msg = case_violation(case.k, case.a)
    if msg is not None:
        raise CaseError(msg)
    log_a = case.a.log_value
    split = -math.log(case.a.r) if case.a.theta == 0.0 else 0.0
    return _split_quad(_u_integrand(complex(case.k), log_a), split, case.quad_cfg)


def rhs_zeta(case: IdentityCase) -> complex:
    """The Hurwitz-zeta closed form; k = 0 short-circuits to 0."""
    k = complex(case.k)
    if k == 0:
        return 0j
    log_a = case.a.log_value
    q_shift = -1j * log_a / TWO_PI
    s = 1.0 - k
    z1 = hurwitz_zeta(s, 0.25 + q_shift)
    z3 = hurwitz_zeta(s, 0.75 + q_shift)
    pref = (cmath.exp((k - 1.0) * math.log(2.0))
            * k
            * cmath.exp(k * math.log(math.pi))
            * cmath.exp(0.5j * math.pi * (k + 1.0)))
    return pref * (z1 - z3)


def rhs_series(case: IdentityCase) -> complex:
    """The accelerated alternating series

    -pi * k * sum_{n>=0} (-1)^n (pi i (2n+1)/2 + log a)^{k-1},

    valid for Re(k) < 1.  The Gamma(k+1)/Gamma(k) ratio has been simplified
    analytically to k, so non-positive integer k needs no special casing.
    """
    k = complex(case.k)
    reason = _series_region(k)
    if reason is not None:
        raise RegionError(f"series route does not apply: {reason}")
    if k == 0:
        return 0j
    log_a = case.a.log_value

    def term(n: int) -> complex:
        return complex_pow(0.5j * math.pi * (2 * n + 1) + log_a, k - 1.0)

    return -math.pi * k * alternating_sum(term, 1e-13, 500)


def rhs_contour(case: IdentityCase) -> QuadResult:
    """The Hankel contour reduced to two rays along the positive imaginary axis.

    With w = i t on either side of the cut (arguments pi/2 and pi/2 - 2 pi),
    the contour integral collapses to

    Gamma(k+1) * (1/4) e^{-i pi k/2} (e^{2 pi i k} - 1)
        * integral_0^inf e^{i t log a} t^{-k} sech(pi t / 2) dt,

    validated against rhs_series / rhs_zeta (see the test suite).  For
    integer k the branch difference vanishes; see contour_cauchy_check.
    """
    k = complex(case.k)
    reason = _contour_region(k)
    if reason is not None:
        raise RegionError(f"contour route does not apply: {reason}")
    log_a = case.a.log_value
    theta = log_a.imag
    ln_r = log_a.real
    pref = (0.25 * (cmath.exp(2j * math.pi * k) - 1.0)
            * cmath.exp(-0.5j * math.pi * k) * gamma(k + 1.0))

    def f(t: float) -> complex:
        if t > 450.0:  # sech underflows; t^{-k} may overflow
            return 0j
        e = math.exp(-math.pi * t)
        sech = 2.0 * math.exp(-0.5 * math.pi * t) / (1.0 + e)
        osc = cmath.exp(complex(-t * theta, t * ln_r))
        return osc * cmath.exp(-k * math.log(t)) * sech

    res = integrate_semi_infinite(f, case.quad_cfg)
    scale = abs(pref)
    return QuadResult(pref * res.value, scale * res.err_estimate,
                      res.n_evals, res.converged)


def contour_cauchy_check(y: complex, k: int) -> complex:
    """(1/2 pi i) closed-circle integral of e^{wy} w^{-k-1} dw, which must
    equal y^k / Gamma(k+1) for non-negative integer k.

    Trapezoid rule on the unit circle; geometric convergence in the node
    count.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError("k must be a non-negative integer")
    y = complex(y)
    if abs(y) > 10.0:
        raise DomainError("|y| must not exceed 10")
    total = 0j
    for j in range(_CAUCHY_NODES):
        w = cmath.exp(2j * math.pi * j / _CAUCHY_NODES)
        total += cmath.exp(w * y) * w ** (-k)
    return total / _CAUCHY_NODES


def _route_values(rep: VerificationReport) -> dict[str, complex]:
    """The values fit for comparison: closed forms and converged quadratures."""
    return {name: r.value if isinstance(r, QuadResult) else r
            for name, r in rep.routes.items()
            if not isinstance(r, QuadResult) or r.converged}


def _fill_verdict(rep: VerificationReport, values: dict[str, complex],
                  atol: float, rtol: float) -> None:
    names = list(values)
    ok = True
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            rep.residuals[f"{x}|{y}"] = abs(values[x] - values[y])
            if not residual_ok(values[x], values[y], atol, rtol):
                ok = False
    if len(values) < 2:
        rep.verdict = "partial"
    else:
        rep.verdict = "pass" if ok else "fail"


def verify(case: IdentityCase) -> VerificationReport:
    """Run every applicable route for the case and compare them pairwise."""
    msg = case_violation(case.k, case.a)
    if msg is not None:
        raise CaseError(msg)
    k = complex(case.k)
    rep = VerificationReport(case)
    # The route table is built per call, so that route functions replaced on
    # the module (for instance by a tracer) are the ones that run.
    for name, evaluate, region in (("lhs", lhs_integral, _everywhere),
                                   ("zeta", rhs_zeta, _everywhere),
                                   ("series", rhs_series, _series_region),
                                   ("contour", rhs_contour, _contour_region)):
        reason = region(k)
        if reason is not None:
            rep.notes.append(f"{name} skipped: {reason}")
            continue
        try:
            result = evaluate(case)
        except (DomainError, ConvergenceError, OverflowError) as exc:
            rep.notes.append(f"{name} failed: {exc}")
            continue
        rep.routes[name] = result
        if isinstance(result, QuadResult) and not result.converged:
            rep.notes.append(f"{name} quadrature did not converge")
    values = _route_values(rep)
    _fill_verdict(rep, values, case.verdict_atol, case.verdict_rtol)
    return rep


def catalan_case(quad_cfg: QuadConfig = QuadConfig()) -> VerificationReport:
    """The k = -1, a = 1 instance, checked against -4 G / pi."""
    case = IdentityCase(-1.0 + 0j, BranchedConstant(1.0), quad_cfg=quad_cfg,
                        verdict_atol=1e-8, verdict_rtol=1e-8)
    g = catalan_reference()
    target = complex(-4.0 * g / math.pi)
    rep = VerificationReport(case)
    rep.notes.append(f"reference: -4G/pi with G = {g:.16f} from the accelerated series")
    for name, evaluate in (("lhs", lhs_integral), ("zeta", rhs_zeta),
                           ("series", rhs_series)):
        rep.routes[name] = evaluate(case)
    values = _route_values(rep)
    ok = len(values) == 3
    for name, v in values.items():
        rep.residuals[f"{name}|reference"] = abs(v - target)
        if not residual_ok(v, target, case.verdict_atol, case.verdict_rtol):
            ok = False
    rep.verdict = "pass" if ok else ("fail" if len(values) >= 2 else "partial")
    return rep


def loggamma_case(quad_cfg: QuadConfig = QuadConfig()) -> VerificationReport:
    """The k-derivative instance at k = 1, a = 1.

    Cross-compares (route names in parentheses):

    * (direct) the integral of cos(2y) log(tan y) log(log(tan y)), with
      the inner logarithm of a negative value taken as ln|.| + i pi;
    * (closed) the closed form (pi/4)(log(81 Gamma^4(-3/4)
      / (4 pi^2 e^2 Gamma^4(-1/4))) - pi i);
    * (fd) the central finite-difference k-derivative of rhs_zeta, with
      step 1e-4.
    """
    case = IdentityCase(1.0 + 0j, BranchedConstant(1.0), quad_cfg=quad_cfg)

    def h(u: float) -> complex:
        w = _half_sech(u)
        if w == 0.0:
            return 0j
        lu = cmath.log(complex(u, 0.0))  # ln|u| + i pi for u < 0
        return -math.tanh(u) * u * lu * w

    quad = _split_quad(h, 0.0, quad_cfg)

    g34 = gamma(-0.75 + 0j)
    g14 = gamma(-0.25 + 0j)
    ratio4 = (g34 / g14) ** 4
    closed = 0.25 * math.pi * (cmath.log(81.0 / (4.0 * math.pi ** 2 * math.e ** 2) * ratio4)
                               - 1j * math.pi)

    def gz(kv: complex) -> complex:
        return rhs_zeta(IdentityCase(kv, BranchedConstant(1.0), quad_cfg=quad_cfg))

    step = 1e-4
    fd = (gz(1.0 + step) - gz(1.0 - step)) / (2.0 * step)
    rep = VerificationReport(case, {"direct": quad, "closed": closed, "fd": fd})

    direct = quad.value
    rep.residuals["direct|closed"] = abs(direct - closed)
    rep.residuals["direct|fd"] = abs(direct - fd)
    rep.residuals["closed|fd"] = abs(closed - fd)
    ok = (quad.converged
          and residual_ok(direct, closed, 1e-6, 1e-6)
          and residual_ok(direct, fd, 1e-5, 1e-5)
          and residual_ok(closed, fd, 1e-5, 1e-5))
    rep.verdict = "pass" if ok else "fail"
    return rep


def sweep(k_list: Sequence[complex], a_list: Sequence[BranchedConstant],
          quad_cfg: QuadConfig = QuadConfig(),
          verdict_atol: float = 1e-6,
          verdict_rtol: float = 1e-6) -> SweepResult:
    """Verify the Cartesian product of cases, in deterministic input order.

    Pairs violating the case invariants are skipped with a note.
    """
    if not k_list or not a_list:
        raise ValueError("k_list and a_list must be non-empty")
    reports: list[VerificationReport] = []
    notes: list[str] = []
    for k in k_list:
        for a in a_list:
            msg = case_violation(complex(k), a)
            if msg is not None:
                notes.append(f"skipped k={k}, a=(r={a.r}, theta={a.theta}): {msg}")
                continue
            reports.append(verify(IdentityCase(
                complex(k), a, quad_cfg=quad_cfg,
                verdict_atol=verdict_atol, verdict_rtol=verdict_rtol)))
    if not reports:
        notes.append("no valid cases after invariant filtering")
    return SweepResult(reports, notes)
