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
from dataclasses import dataclass
from typing import Callable, Sequence

from .complexfn import TWO_PI, BranchedConstant, DomainError, complex_pow, gamma
from .hurwitz import ConvergenceError, hurwitz_zeta
from .quad import QuadConfig, QuadResult, integrate_semi_infinite

__all__ = [
    "IdentityCase",
    "RouteResult",
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
_EPS = 2.2e-16  # double-precision machine epsilon

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


@dataclass(frozen=True)
class RouteResult:
    """What one route gave; its key in VerificationReport.routes names it.

    status is ok (the value is compared), unconverged (a quadrature stopped
    short of its tolerance; its last iterate is kept but not compared),
    skipped (outside the route's region) or failed (the route raised), and
    reason says why it is not ok.  value, err_estimate and n_evals are None
    when the route did not run; a closed form has err_estimate 0.0, n_evals 0.
    """

    value: complex | None
    err_estimate: float | None = 0.0
    n_evals: int | None = 0
    status: str = "ok"
    reason: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """One record per route in evaluation order, the residual of every pair
    of ok routes, and the verdict."""

    case: IdentityCase
    routes: dict[str, RouteResult]
    residuals: dict[str, float]
    verdict: str

    # views of the verify routes: a record, or for zeta and series its value
    lhs = property(lambda self: self.routes.get("lhs"))
    zeta_value = property(lambda self: getattr(self.routes.get("zeta"), "value", None))
    series_value = property(lambda self: getattr(self.routes.get("series"), "value", None))
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


def _lhs_ray(k: complex, log_a: complex, split: float, sign: float,
             subtract: bool) -> Callable[[float], complex]:
    """t -> h(split + sign t) for h(u) = -tanh(u) (log a + u)^k / (2 cosh u).

    _half_sech and the principal power exp(k log z) are written out inline:
    this is the hot loop of the lhs route.  A node that rounds onto the split
    point adds nothing, as integrate_finite does for a node rounded onto an
    endpoint; there log a + u can be exactly 0, where z^k is undefined for
    Re(k) <= 0.  With subtract (a = 1 only) the ray returns
    h(u) - c t^{k+1} e^{-t}, written as u^k (u e^{-|u|} / 2 - tanh(u) / (2 cosh u));
    see lhs_integral.
    """
    re, im = log_a.real, log_a.imag
    exp, tanh, cexp, clog = math.exp, math.tanh, cmath.exp, cmath.log
    k_is_zero = k == 0

    def h(t: float) -> complex:
        u = split + sign * t
        au = abs(u)
        if au > 700.0 or u == split:  # sech underflows / the split point
            return 0j
        e = exp(-au)
        w = e / (1.0 + exp(-2.0 * au))
        power = 1.0 + 0j if k_is_zero else cexp(k * clog(complex(re + u, im)))
        if subtract:
            return power * (0.5 * u * e - tanh(u) * w)
        return -tanh(u) * power * w

    return h


def _loggamma_ray(sign: float) -> Callable[[float], complex]:
    """t -> h(sign t) for h(u) = -tanh(u) u log(u) / (2 cosh u), with the
    logarithm of a negative u taken as ln|u| + i pi."""

    def h(t: float) -> complex:
        u = sign * t
        w = _half_sech(u)
        if w == 0.0:
            return 0j
        return -math.tanh(u) * u * cmath.log(complex(u, 0.0)) * w

    return h


def _split_quad(ray: Callable[[float], Callable[[float], complex]],
                cfg: QuadConfig) -> QuadResult:
    """The integral over the real line as the sum over the two rays out of
    the split point: ray(1.0) runs right, ray(-1.0) left, each over t > 0."""
    right = integrate_semi_infinite(ray(1.0), cfg)
    left = integrate_semi_infinite(ray(-1.0), cfg)
    return QuadResult(
        right.value + left.value,
        right.err_estimate + left.err_estimate,
        right.n_evals + left.n_evals,
        right.converged and left.converged,
    )


def lhs_integral(case: IdentityCase) -> QuadResult:
    """The definite integral via u = log(tan y):

    -integral_{-inf}^{inf} tanh(u) (log a + u)^k / (2 cosh u) du.

    The u line is split into two rays, each integrated over (0, inf) by
    exp-sinh quadrature, which clusters nodes at the ray's start.  For
    theta = 0 the split is the branch point u = -ln(r), where log a + u
    vanishes and the integrand may be singular; otherwise it is u = 0, the
    sign change of tanh.  A node that rounds onto the split point adds
    nothing.

    Ray-start singularities are subtracted in closed form (Davis and
    Rabinowitz, Methods of Numerical Integration, 2.12).  If a ray integrand
    f behaves like c t^p near t = 0, exp-sinh, whose smallest node is
    x = e^{-317}, misses about x^{p+1} / |p+1| of the mass and needs every
    level as Re p -> -1.  So for Re p < -1/2 the ray integrates
    f(t) - c t^p e^{-t}, which is O(t^{p+1}) at the start and converges in a
    few levels, and c Gamma(p+1), the integral of c t^p e^{-t}, is added back.
    The smooth weight e^{-t} leaves no kink, which a cut at (0, delta] would.
    The add-back cancels against the ray integral, so the error estimate
    gains the rounding floor eps |c Gamma(p+1)|.  For Re p >= -1/2 the plain
    rule converges at its usual depth and is kept unchanged.

    Only a = 1 has a singular ray start: the split is u = 0 and
    tanh(u) / (2 cosh u) = u/2 + O(u^3), so the right ray starts like
    -t^{k+1}/2 and the left ray, where u^k = t^k e^{i pi k}, like
    e^{i pi k} t^{k+1}/2.  Then p = k + 1, the subtraction applies for
    Re k < -3/2, and the two add-backs sum to Gamma(k+2) (e^{i pi k} - 1) / 2.
    """
    msg = case_violation(case.k, case.a)
    if msg is not None:
        raise CaseError(msg)
    k = complex(case.k)
    log_a = case.a.log_value
    split = -math.log(case.a.r) if case.a.theta == 0.0 else 0.0
    subtract = case.a.theta == 0.0 and case.a.r == 1.0 and k.real < -1.5
    res = _split_quad(lambda sign: _lhs_ray(k, log_a, split, sign, subtract),
                      case.quad_cfg)
    if not subtract:
        return res
    half_g = 0.5 * gamma(k + 2.0)
    turn = cmath.exp(1j * math.pi * k)
    floor = _EPS * abs(half_g) * (1.0 + abs(turn))
    return QuadResult(res.value + half_g * (turn - 1.0), res.err_estimate + floor,
                      res.n_evals, res.converged)


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

    The ray integrand starts like t^{-k}: c = 1 and p = -k.  For Re k > 1/2,
    that is Re p < -1/2, the ray-start singularity is subtracted in closed
    form as in lhs_integral, with the weight e^{-pi t/2} of the sech tail
    instead of e^{-t}: the ray integrates t^{-k} (e^{i t log a}
    sech(pi t/2) - e^{-pi t/2}), which is O(t^{1-k}) at the start, and
    Gamma(1-k) (pi/2)^{k-1}, the integral of t^{-k} e^{-pi t/2}, is added
    back before the prefactor.  That weight reuses the sech exponential and
    needs fewer evaluations than e^{-t}.
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

    neg_k, neg_pi, neg_half_pi = -k, -math.pi, -0.5 * math.pi
    exp, log, cexp = math.exp, math.log, cmath.exp
    subtract = k.real > 0.5

    def f(t: float) -> complex:
        if t > 450.0:  # sech underflows; t^{-k} may overflow
            return 0j
        e = exp(neg_pi * t)
        q = exp(neg_half_pi * t)
        sech = 2.0 * q / (1.0 + e)
        osc = cexp(complex(-t * theta, t * ln_r))
        if subtract:
            return cexp(neg_k * log(t)) * (osc * sech - q)
        return osc * cexp(neg_k * log(t)) * sech

    res = integrate_semi_infinite(f, case.quad_cfg)
    value, err = res.value, res.err_estimate
    if subtract:
        back = gamma(1.0 - k) * cexp((k - 1.0) * log(0.5 * math.pi))
        value += back
        err += _EPS * abs(back)
    scale = abs(pref)
    return QuadResult(pref * value, scale * err, res.n_evals, res.converged)


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


def _run_route(case: IdentityCase, evaluate: Callable[[IdentityCase], object],
               region: Callable[[complex], str | None] = _everywhere) -> RouteResult:
    """Run one route on the case and record the outcome: the region's reason
    to skip it, the exception it raised, or what it returned.  A quadrature
    returns a QuadResult, a closed form its bare value."""
    reason = region(complex(case.k))
    if reason is not None:
        return RouteResult(None, None, None, "skipped", reason)
    try:
        result = evaluate(case)
    except (DomainError, ConvergenceError, OverflowError) as exc:
        return RouteResult(None, None, None, "failed", str(exc))
    if not isinstance(result, QuadResult):
        return RouteResult(result)
    if result.converged:
        return RouteResult(result.value, result.err_estimate, result.n_evals)
    return RouteResult(result.value, result.err_estimate, result.n_evals,
                       "unconverged", "quadrature did not converge")


def _judge(case: IdentityCase, routes: dict[str, RouteResult]) -> VerificationReport:
    """Compare every pair of ok routes by residual_ok at the case's tolerances.

    The verdict is fail if any pair disagrees.  Otherwise it is pass if at
    least two routes are ok and every route that ran is ok, else partial.
    """
    ok = [(name, r.value) for name, r in routes.items() if r.status == "ok"]
    residuals = {}
    agree = True
    for i, (x, vx) in enumerate(ok):
        for y, vy in ok[i + 1:]:
            residuals[f"{x}|{y}"] = abs(vx - vy)
            agree = agree and residual_ok(vx, vy, case.verdict_atol, case.verdict_rtol)
    if not agree:
        verdict = "fail"
    elif len(ok) >= 2 and all(r.status in ("ok", "skipped") for r in routes.values()):
        verdict = "pass"
    else:
        verdict = "partial"
    return VerificationReport(case, routes, residuals, verdict)


def _verify_routes(case: IdentityCase) -> dict[str, RouteResult]:
    # The route table is built per call, so that route functions replaced on
    # the module (for instance by a tracer) are the ones that run.
    return {name: _run_route(case, evaluate, region)
            for name, evaluate, region in (("lhs", lhs_integral, _everywhere),
                                           ("zeta", rhs_zeta, _everywhere),
                                           ("series", rhs_series, _series_region),
                                           ("contour", rhs_contour, _contour_region))}


def verify(case: IdentityCase) -> VerificationReport:
    """Run every applicable route for the case and compare them pairwise."""
    msg = case_violation(case.k, case.a)
    if msg is not None:
        raise CaseError(msg)
    return _judge(case, _verify_routes(case))


def catalan_case(quad_cfg: QuadConfig = QuadConfig()) -> VerificationReport:
    """The k = -1, a = 1 instance, with the route "reference" holding -4 G / pi
    for Catalan's constant G from the accelerated series."""
    case = IdentityCase(-1.0 + 0j, BranchedConstant(1.0), quad_cfg=quad_cfg,
                        verdict_atol=1e-8, verdict_rtol=1e-8)
    routes = _verify_routes(case)
    routes["reference"] = RouteResult(complex(-4.0 * catalan_reference() / math.pi))
    return _judge(case, routes)


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
    ratio4 = (gamma(-0.75 + 0j) / gamma(-0.25 + 0j)) ** 4
    closed = 0.25 * math.pi * (cmath.log(81.0 / (4.0 * math.pi ** 2 * math.e ** 2) * ratio4)
                               - 1j * math.pi)
    step = 1e-4
    fd = (rhs_zeta(IdentityCase(1.0 + step, case.a))
          - rhs_zeta(IdentityCase(1.0 - step, case.a))) / (2.0 * step)
    return _judge(case, {
        "direct": _run_route(case, lambda c: _split_quad(_loggamma_ray, c.quad_cfg)),
        "closed": RouteResult(closed),
        "fd": RouteResult(fd),
    })


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
