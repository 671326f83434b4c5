"""Four-route evaluation of the cos(2y) * log-power integral family.

The identity under test, for a = r e^{i theta} with theta in [0, 2 pi):

    integral_0^{pi/2} cos(2y) log^k(a tan y) dy
        = 2^{k-1} k pi^k i^{k+1} ( zeta(1-k, 1/4 - i log(a)/(2 pi))
                                 - zeta(1-k, 3/4 - i log(a)/(2 pi)) )

Routes:

* lhs_integral  -- the definite integral, after u = log(tan y);
* rhs_zeta      -- the Hurwitz-zeta closed form (valid for general k);
* rhs_series    -- the alternating series, Re(k) < 1;
* rhs_contour   -- the Hankel contour reduced to two rays, Re(k) < 1.

The inner logarithm log(a tan y) is always (ln r + i theta) + log(tan y);
the outer power is the principal branch on that fixed value.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .complexfn import EPS, TWO_PI, BranchedConstant, DomainError, complex_pow, gamma
from .hurwitz import ConvergenceError, hurwitz_zeta
from .quad import QuadConfig, QuadResult, integrate_line, integrate_semi_infinite

__all__ = [
    "IdentityCase",
    "RouteResult",
    "VerificationReport",
    "RegionError",
    "DEFAULT_K_GRID",
    "DEFAULT_A_GRID",
    "DEFAULT_VERDICT_TOL",
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
_LIFT = 0.25 * math.pi  # the lifted line Im u = pi/4, mid-strip (see lhs_integral)
_LIFT_THETA = 0.5  # below it the lhs lifts off the real u line (see _plan)

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
DEFAULT_VERDICT_TOL = 1e-6  # both parts of the verdict rule, unless set per case


class RegionError(ValueError):
    """The requested route is outside its region of validity."""


class _IdentityCase(NamedTuple):
    k: complex
    a: BranchedConstant
    quad_cfg: QuadConfig
    verdict_atol: float
    verdict_rtol: float


class IdentityCase(_IdentityCase):
    """One (k, a) instance, k stored as a complex, plus its evaluation configuration."""

    __slots__ = ()

    def __new__(cls, k: complex, a: BranchedConstant, quad_cfg: QuadConfig = QuadConfig(),
                verdict_atol: float = DEFAULT_VERDICT_TOL,
                verdict_rtol: float = DEFAULT_VERDICT_TOL) -> IdentityCase:
        # a route reads a's fields and the quadrature quad_cfg's, deep inside
        if not isinstance(a, BranchedConstant):
            raise TypeError(f"a must be a BranchedConstant, got {type(a).__name__}")
        if not isinstance(quad_cfg, QuadConfig):
            raise TypeError(f"quad_cfg must be a QuadConfig, got {type(quad_cfg).__name__}")
        # a nan or infinite k has no route; refuse it before any route runs
        if not cmath.isfinite(k):
            raise ValueError(f"k must be finite, got {k}")
        # written so that nan fails too: every residual_ok against nan is False
        if not 0.0 <= verdict_atol < math.inf:
            raise ValueError("verdict_atol must be finite and >= 0")
        if not 0.0 <= verdict_rtol < math.inf:
            raise ValueError("verdict_rtol must be finite and >= 0")
        return super().__new__(cls, complex(k), a, quad_cfg, verdict_atol, verdict_rtol)

    # _replace builds through _make; route it through the checks above
    _make = classmethod(lambda cls, fields: cls(*fields))


class RouteResult(NamedTuple):
    """What one route gave; its key in VerificationReport.routes names it.

    status is ok (the value is compared), unconverged (its QuadResult fails
    _run_route's rule; the value is kept but not compared),
    skipped (outside the route's region) or failed (the route raised or gave
    a value that is not finite), and reason says why it is not ok.  An ok
    lhs whose y-integral diverges holds the analytic continuation, and its
    reason says so (see _plan); any other ok record has reason "".  value,
    err_estimate and n_evals are None when the route did not run or failed;
    a closed form has err_estimate 0.0, n_evals 0.  method names the variant
    that ran (see _plan), and is "" when the route did not run.
    """

    value: complex | None
    err_estimate: float | None = 0.0
    n_evals: int | None = 0
    status: str = "ok"
    reason: str = ""
    method: str = ""


class VerificationReport(NamedTuple):
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


def case_violation(k: complex, a: BranchedConstant) -> str | None:
    """Why perfbench's workloads and the tests' seeded draws leave the
    (k, a) pair out, or None.

    The package does not enforce it: verify runs every case, and where the
    y-integral diverges the lhs gives its analytic continuation (see _plan).
    Its bound Re(k) < 0 on real a != 1 is wider than that region, which
    starts at Re(k) <= -1.  Besides its own test, perfbench's workload
    filter and the tests' seeded draws are its only callers: it fixes the
    inputs they draw."""
    k = complex(k)
    if a.theta == 0.0 and k.real < 0.0 and a.r != 1.0:
        return "a positive real with Re(k) < 0 requires a = 1"
    if a.theta == 0.0 and a.r == 1.0 and k.real <= -2.0:
        return "integrand not integrable at y = pi/4 for a = 1 with Re(k) <= -2"
    return None


def residual_ok(x: complex, y: complex, atol: float, rtol: float) -> bool:
    """Scale-aware comparison rule |x - y| <= atol + rtol*max(|x|, |y|)."""
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y))


@lru_cache(maxsize=1)
def _plan(case: IdentityCase) -> Mapping[str, tuple[str, str]]:
    """(method, reason) of each verify route at the case: "" and why the
    case is outside the route's region, or the variant the route runs and
    the reason its ok record holds, "" unless the value is not that of the
    definite integral.  Every variant chosen on (k, a) is chosen here.

    One slot keeps the plan of the last case, read-only, since every caller
    gets the same object: verify plans a case once, and each route it runs,
    still a public route(case) callable, finds the plan there.  Equal cases
    share it, twins whose k or theta differ only in a zero's sign among
    them; no rule below reads that sign.

    The lhs lifts below theta = _LIFT_THETA = 0.5 and runs on the real line
    above it.  The line's cost falls as theta grows and the lift's does not
    move: over 60 seeded cases per theta (Re k in [-1, 3], |Im k| <= 5,
    ln r in [-1.5, 1.5]) the lift took about 9,200 evaluations at every
    theta, the line 13,900 at theta = 0.4, 11,500 at 0.5 and 8,500 at 0.7,
    and the two took the same time at 0.5.

    The series and the contour skip only Re(k) >= 1; integer k needs no
    skip (see rhs_contour).  On the real axis the y-integral diverges where
    log^k(a tan y) is not integrable at its zero, tan y = 1/r: for
    Re(k) <= -1, or at a = 1, where cos(2y) vanishes there too, for
    Re(k) <= -2.  The lifted lhs line stays pi/4 away from that zero, so its
    value is the analytic continuation."""
    k, a = case.k, case.a
    lhs = ("lift" if a.theta < _LIFT_THETA else "line", "")
    if a.theta == 0.0 and a.r != 1.0 and k.real <= -1.0:
        lhs = ("lift", "continuation: the y-integral diverges for real a != 1 at Re(k) <= -1")
    elif a.theta == 0.0 and a.r == 1.0 and k.real <= -2.0:
        lhs = ("lift", "continuation: the y-integral diverges for a = 1 at Re(k) <= -2")
    zero = "zero" if k == 0 else ""
    if k.real >= 1.0:
        series = contour = ("", "Re(k) >= 1")
    else:
        series = (zero or "cvz", "")
        contour = (zero or "rays", "")
    return MappingProxyType({"lhs": lhs, "zeta": (zero or "em", ""), "series": series,
                             "contour": contour})


_CVZ_PASSES = (20, 40, 80, 160, 320)  # d overflows a double past n = 402


@lru_cache(maxsize=None)
def _cvz_weights(n: int) -> tuple[float, tuple[float, ...]]:
    """d and the weights c_0 .. c_{n-1} of alternating_sum's pass at n."""
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    weights = []
    for j in range(n):
        c = b - c
        weights.append(c)
        b = (j + n) * (j - n) * b / ((j + 0.5) * (j + 1))
    return d, tuple(weights)


def alternating_sum(term: Callable[[int], complex]) -> complex:
    """sum_{j>=0} (-1)^j term(j) by Algorithm 1 of Cohen, Villegas and Zagier,
    "Convergence acceleration of alternating series", Exp. Math. 9 (2000):
    one O(n) pass with fixed weights c_j / d, its error about 5.8^-n for
    moment sequences.  Complex terms are not moments, so passes run at
    n = 20, 40, ..., 320 over cached terms (each term(j) is called once), and
    the sum is the first pass within 1e-13 relative of the one before.  The
    cap is 320 because d = cosh(n log(3+sqrt 8)) overflows past n = 402.
    The weights of each n are built once per process (_cvz_weights).
    """
    terms: list[complex] = []
    prev = None
    for n in _CVZ_PASSES:
        terms.extend(map(term, range(len(terms), n)))
        d, weights = _cvz_weights(n)
        s = 0j
        for c, a in zip(weights, terms):
            s += c * a
        est = s / d
        if prev is not None and abs(est - prev) <= 1e-13 * abs(est):
            return est
        prev = est
    raise ConvergenceError("alternating series acceleration stalled after 320 terms")


# i pi (2n + 1) / 2, the part of the series' base that does not depend on
# the case, for every n that alternating_sum's last pass reads
_SERIES_BASE = tuple(0.5j * math.pi * (2 * n + 1) for n in range(_CVZ_PASSES[-1]))


def catalan_reference() -> float:
    """Catalan's constant from the accelerated series sum (-1)^n / (2n+1)^2."""
    return alternating_sum(lambda n: complex(1.0 / (2 * n + 1) ** 2)).real


def integrand(y: float, k: complex, a: BranchedConstant) -> complex:
    """cos(2y) * log^k(a tan y) at interior y, as -tanh(u) (log a + u)^k with
    u = log(tan y).  Where log a + u = 0 exactly, complex_pow gives 0 for
    Re(k) > 0 and raises DomainError otherwise; at a = 1 no double y hits it."""
    if not 0.0 < y < 0.5 * math.pi:
        raise DomainError("y must lie strictly inside (0, pi/2)")
    u = math.log(math.tan(y))
    return -math.tanh(u) * complex_pow(a.log_value + u, k)


def _lhs_weight(u: float) -> float:
    """-tanh(u) / (2 cosh u), the lhs's weight, as -tanh(u) e / (1 + e^2)
    with e = e^{-|u|}: odd in u, and 0 where |u| > 700, where sech
    underflows and the quadrature calls no integrand."""
    au = abs(u)
    if au > 700.0:
        return 0.0
    e = math.exp(-au)
    return -math.tanh(u) * (e / (1.0 + e * e))


def _lift_weight(y: float) -> complex:
    """G(x) / (1 + y) at x = log(1 + y), G(x) = g(x + i pi/4) with g =
    _lhs_weight continued off the real axis: the lift's y-weight on both
    half-lines.  It decays like y^-2; on the ray's nodes y <= e^317, so
    x <= 317 and cosh stays finite.  It is read at y, once per node when
    the quadrature builds its table; the table hands the half-lines x."""
    z = complex(math.log1p(y), _LIFT)
    return -cmath.tanh(z) / (2.0 * cmath.cosh(z) * (1.0 + y))


def lhs_integral(case: IdentityCase) -> QuadResult:
    """The definite integral via u = log(tan y):

    -integral_{-inf}^{inf} tanh(u) (log a + u)^k / (2 cosh u) du,

    that is integral_{-inf}^{inf} h(u) du with h(u) = (log a + u)^k g(u),
    where the quadrature keeps the weight g(u) = -tanh(u) / (2 cosh u) in
    its node table.  Away from the real axis (line: theta >= _LIFT_THETA)
    it is one call of the sinh rule u = pi/2 sinh t over the whole line, one
    power per node; log a + u has imaginary part theta > 0, so it is never
    on the power's cut.

    Near the real axis (lift: theta < _LIFT_THETA) the branch point
    u = -ln r - i theta of (log a + u)^k lies on the line or theta below it,
    and the rule converges slowly or not at all.  But h is analytic in
    0 < Im u < pi/2 (its cut is on Im u = -theta, g's poles at +-i pi/2)
    and decays at both ends, so the line moves to Im u = pi/4, where the
    rule converges at the rate the strip's width sets (Mori and Sugihara
    2001).  At a = 1 the branch point is u = 0 itself, where h is
    O(u^{k+1}), integrable for Re k > -2, and the line passes pi/4 above
    it.  With L = log a + i pi/4, G(x) = g(x + i pi/4) and, g being odd and
    real on the real axis, g(-x + i pi/4) = -conj G(x), that is two
    half-lines, one power per node against the one complex weight G.  L - x,
    with imaginary part theta + pi/4 > 0, is off the power's cut, so
    conj((L - x)^k) = (conj L - x)^{conj k} bit for bit:

    integral_0^inf (L + x)^k G(x) dx - conj integral_0^inf (conj L - x)^{conj k} G(x) dx.

    G decays like e^{-x}, for which exp-sinh, built for algebraic decay,
    is not the double-exponential map: it puts only two level-0 nodes in
    1 <= x <= 40.  So each half-line runs in x = log(1 + y), one exp-sinh
    call against the y-weight G(log(1 + y)) / (1 + y) (_lift_weight), which
    decays like y^-2.  In x, its nodes log(1 + exp(pi/2 sinh t)) follow the
    sinh rule's pi/2 sinh t at the top and cluster at 0 as exp-sinh's do.
    The quadrature's table holds those x (log1p_nodes), so each half-line's
    integrand is the power alone.

    h is analytic in k too, and the lifted line integral converges at every
    k.  So where the y-integral diverges (theta = 0, Re(k) <= -1, or <= -2 at
    a = 1: see _plan) it is the analytic continuation, which the closed form
    also gives.
    """
    k = case.k
    method = _plan(case)["lhs"][0]
    log_a = case.a.log_value
    if method == "lift":
        lift = log_a + 1j * _LIFT
        lift_c, k_c = lift.conjugate(), k.conjugate()

        def right(x: float) -> complex:
            return (lift + x) ** k

        def left(x: float) -> complex:
            return (lift_c - x) ** k_c

        r = integrate_semi_infinite(right, case.quad_cfg, weight=_lift_weight, log1p_nodes=True)
        m = integrate_semi_infinite(left, case.quad_cfg, weight=_lift_weight, log1p_nodes=True)
        return QuadResult(r.value - m.value.conjugate(), r.err_estimate + m.err_estimate,
                          r.n_evals + m.n_evals, r.converged and m.converged)

    def power(u: float) -> complex:
        return (log_a + u) ** k

    return integrate_line(power, case.quad_cfg, weight=_lhs_weight)


def rhs_zeta(case: IdentityCase) -> QuadResult:
    """The Hurwitz-zeta closed form, exact (err_estimate 0.0, n_evals 0,
    converged); k = 0 short-circuits to 0."""
    k = case.k
    if _plan(case)["zeta"][0] == "zero":
        return QuadResult(0j, 0.0, 0, True)
    log_a = case.a.log_value
    q_shift = -1j * log_a / TWO_PI
    s = 1.0 - k
    z1 = hurwitz_zeta(s, 0.25 + q_shift)
    z3 = hurwitz_zeta(s, 0.75 + q_shift)
    pref = 2.0 ** (k - 1.0) * k * math.pi ** k * cmath.exp(0.5j * math.pi * (k + 1.0))
    return QuadResult(pref * (z1 - z3), 0.0, 0, True)


def rhs_series(case: IdentityCase) -> QuadResult:
    """The alternating series

    -pi * k * sum_{n>=0} (-1)^n (pi i (2n+1)/2 + log a)^{k-1},

    valid for Re(k) < 1, exact as rhs_zeta is; if 320 terms do not settle
    it, alternating_sum raises ConvergenceError and the route fails.  The
    Gamma(k+1)/Gamma(k) ratio is simplified to k, so non-positive integer k
    needs no special case.  pi i (2n+1)/2 does not depend on the case, so
    each term reads it from _SERIES_BASE, one entry per term that
    alternating_sum can ask for, and adds log a.
    """
    k = case.k
    method, reason = _plan(case)["series"]
    if not method:
        raise RegionError(f"series route does not apply: {reason}")
    if method == "zero":
        return QuadResult(0j, 0.0, 0, True)
    log_a = case.a.log_value
    base = _SERIES_BASE
    km1 = k - 1.0

    # the base has imaginary part pi (n + 1/2) + theta > 0, so it is never 0
    def term(n: int) -> complex:
        return (base[n] + log_a) ** km1

    return QuadResult(-math.pi * k * alternating_sum(term), 0.0, 0, True)


def _contour_weight(y: float) -> float:
    """e^{-pi t/2} tanh(pi t/2) / (t (1 + y)) at t = log(1 + y): the
    contour's y-weight, with no cut-off.  It tends to pi/2 as y -> 0, which
    is never a node, and decays like y^{-1-pi/2}; on the ray's nodes
    y <= e^317, so t <= 317, and it underflows to 0 only past t = 287,
    where the quadrature calls no integrand.  It is read at y, once per
    node when the quadrature builds its table; the table hands the ray t."""
    t = math.log1p(y)
    x = 0.5 * math.pi * t
    return math.exp(-x) * math.tanh(x) / (t * (1.0 + y))


@lru_cache(maxsize=1)
def _contour_pref(k: complex) -> complex:
    """log pref of rhs_contour, which depends on k alone.  One slot keeps it
    for the last k, as every a of one k in a sweep shares it.  A raise
    (gamma's, or pref's underflow) is not kept, so the next call with that
    k raises it again."""
    half_pi_i = 0.5j * math.pi
    pref = half_pi_i * k * cmath.exp(half_pi_i * k) / gamma(1.0 - k)
    if not pref:  # e^{i pi k/2} underflowed, at Im k >~ 474: no log to fold
        raise ArithmeticError("contour prefactor underflows")
    return cmath.log(pref)


def rhs_contour(case: IdentityCase) -> QuadResult:
    """The Hankel contour reduced to two rays along the positive imaginary axis.

    With w = i t on either side of the cut (arguments pi/2 and pi/2 - 2 pi),
    the contour integral collapses to pref times
    integral_0^inf e^{i t log a} t^{-k} sech(pi t / 2) dt, validated against
    rhs_series / rhs_zeta (see the test suite), where

    pref = Gamma(k+1) (1/4) e^{-i pi k/2} (e^{2 pi i k} - 1)
         = (pi/2) i k e^{i pi k/2} / Gamma(1-k)

    by e^{2 pi i k} - 1 = 2 i e^{i pi k} sin(pi k) and Euler's reflection
    formula.  The second form is finite for Re(k) < 1, integers included,
    and has no rounded phase of e^{2 pi i k} to cancel against 1.  At k = 0
    it is 0, and the route gives 0 with no work (_plan's zero).

    The ray's start is singular: the integrand behaves like t^{-k} near
    t = 0.  There exp-sinh, whose smallest node is e^{-317}, misses about
    t^{1-k} / |1-k| of the mass and needs every level as Re k -> 1.  So the
    ray subtracts the singularity in closed form (Davis and Rabinowitz,
    Methods of Numerical Integration, 2.12).  With beta = pi/2 - i log a,
    whose real part pi/2 + theta is positive,

    e^{i t log a} sech(pi t/2) = e^{-beta t} (1 + tanh(pi t/2)),

    and the constant term of 1 + tanh integrates in closed form: the
    integral of t^{-k} e^{-beta t} is Gamma(1-k) beta^{k-1}.  So the ray
    integrates pref e^{i t log a} t^{-k} e^{-pi t/2} tanh(pi t/2), which is
    O(t^{1-k}) at the start and converges in a few levels, and the route
    adds back pref Gamma(1-k) beta^{k-1} = (pi/2) i k e^{i pi k/2} beta^{k-1},
    formed at each call.  The subtracted term is smooth and leaves no kink,
    which a cut at (0, delta] would.

    The ray decays like e^{-(pi/2 + theta) t}, for which exp-sinh, built for
    algebraic decay, is not the double-exponential map.  So it runs in
    t = log(1 + y), as the lhs's lift does, one exp-sinh call against the
    y-weight e^{-pi t/2} tanh(pi t/2) / (t (1 + y)) (_contour_weight), which
    decays like y^{-1-pi/2}.  The weight does not depend on the case, so the
    quadrature keeps it in its node table, beside the node t itself
    (log1p_nodes), and the ray evaluates only the factor before it at t,
    with pref folded in as log pref, which _contour_pref keeps for the last
    k: e^{i t log a + log pref} t^{1-k}.  So the quadrature meets the case's
    tolerance in the route's units, and a value below atol is computed to
    atol, as the lhs's is.  The estimate is the ray's plus
    (8 + |log pref|) eps |value|, the rounding of pref.
    """
    k = case.k
    method, reason = _plan(case)["contour"]
    if not method:
        raise RegionError(f"contour route does not apply: {reason}")
    if method == "zero":
        return QuadResult(0j, 0.0, 0, True)
    log_a = case.a.log_value
    i_log_a = complex(-log_a.imag, log_a.real)  # i log a, built once
    log_pref = _contour_pref(k)
    one_k, cexp = 1.0 - k, cmath.exp

    def f(t: float) -> complex:
        return cexp(t * i_log_a + log_pref) * t ** one_k

    res = integrate_semi_infinite(f, case.quad_cfg, weight=_contour_weight, log1p_nodes=True)
    half_pi_i = 0.5j * math.pi
    beta = complex(0.5 * math.pi + log_a.imag, -log_a.real)
    value = res.value + half_pi_i * k * cmath.exp(half_pi_i * k) * beta ** (k - 1.0)
    err = res.err_estimate + (8.0 + abs(log_pref)) * EPS * abs(value)
    return QuadResult(value, err, res.n_evals, res.converged)


def contour_cauchy_check(y: complex, k: int) -> complex:
    """(1/2 pi i) closed-circle integral of e^{wy} w^{-k-1} dw, which must
    equal y^k / Gamma(k+1) for non-negative integer k.

    Trapezoid rule on the unit circle; geometric convergence in the node
    count.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError("k must be a non-negative integer")
    y = complex(y)
    if not abs(y) <= 10.0:  # written so that nan fails too
        raise DomainError("|y| must not exceed 10")
    total = 0j
    for j in range(_CAUCHY_NODES):
        w = cmath.exp(2j * math.pi * j / _CAUCHY_NODES)
        total += cmath.exp(w * y) * w ** (-k)
    return total / _CAUCHY_NODES


def _run_route(case: IdentityCase, evaluate: Callable[[IdentityCase], QuadResult],
               method: str, reason: str = "") -> RouteResult:
    """Run one route by method on the case and record the outcome: skipped
    for reason, if method is "", without calling evaluate; the DomainError
    or ArithmeticError (ConvergenceError among them) it raised; or the
    QuadResult it returned, ok with reason if it converged and its estimate
    is below max(|value|, atol), which a quadrature whose parts each meet
    the tolerance need not be (the lift's half-lines, ROADMAP item 13).  A
    value or estimate that is not finite fails.  Any other error propagates."""
    if not method:
        return RouteResult(None, None, None, "skipped", reason)
    try:
        value, err, n_evals, converged = evaluate(case)
    except (DomainError, ArithmeticError) as exc:
        return RouteResult(None, None, None, "failed", str(exc), method)
    if not (cmath.isfinite(value) and math.isfinite(err)):
        return RouteResult(None, None, None, "failed", "non-finite value", method)
    if converged and (err < case.quad_cfg.atol or err < abs(value)):
        return RouteResult(value, err, n_evals, "ok", reason, method)
    return RouteResult(value, err, n_evals, "unconverged", "quadrature did not converge",
                       method)


def _judge(case: IdentityCase, routes: dict[str, RouteResult]) -> VerificationReport:
    """Compare every pair of ok routes by residual_ok at the case's tolerances.

    The verdict is fail if any pair disagrees.  Otherwise it is pass if at
    least two routes are ok and every route that ran is ok, else partial.
    """
    ok = [(name, r.value) for name, r in routes.items() if r.status == "ok"]
    residuals = {}
    agree = True
    atol, rtol = case.verdict_atol, case.verdict_rtol
    for i, (x, vx) in enumerate(ok):
        for y, vy in ok[i + 1:]:
            residuals[x + "|" + y] = abs(vx - vy)
            agree = agree and residual_ok(vx, vy, atol, rtol)
    if not agree:
        verdict = "fail"
    elif len(ok) >= 2 and all(r.status in ("ok", "skipped") for r in routes.values()):
        verdict = "pass"
    else:
        verdict = "partial"
    return VerificationReport(case, routes, residuals, verdict)


def _verify_routes(case: IdentityCase) -> dict[str, RouteResult]:
    # Each route is looked up on the module at call time, so that route
    # functions replaced there (for instance by a tracer) are the ones that run.
    plan = _plan(case)
    return {"lhs": _run_route(case, lhs_integral, *plan["lhs"]),
            "zeta": _run_route(case, rhs_zeta, *plan["zeta"]),
            "series": _run_route(case, rhs_series, *plan["series"]),
            "contour": _run_route(case, rhs_contour, *plan["contour"])}


def verify(case: IdentityCase) -> VerificationReport:
    """Run every applicable route for the case and compare them pairwise.
    Every (k, a) has a report: where the y-integral diverges, the lhs and
    the closed forms give its analytic continuation."""
    return _judge(case, _verify_routes(case))


def catalan_case(quad_cfg: QuadConfig = QuadConfig()) -> VerificationReport:
    """The k = -1, a = 1 instance, with the route "reference" holding -4 G / pi
    for Catalan's constant G from the accelerated series."""
    case = IdentityCase(-1.0 + 0j, BranchedConstant(1.0), quad_cfg=quad_cfg,
                        verdict_atol=1e-8, verdict_rtol=1e-8)
    routes = _verify_routes(case)
    routes["reference"] = RouteResult(complex(-4.0 * catalan_reference() / math.pi),
                                      method="cvz")
    return _judge(case, routes)


def loggamma_case(quad_cfg: QuadConfig = QuadConfig()) -> VerificationReport:
    """The k-derivative instance at k = 1, a = 1.

    Cross-compares (route names in parentheses):

    * (direct) the integral of cos(2y) log(tan y) log(log(tan y)), with
      the inner logarithm of a negative value taken as ln|.| + i pi: as
      -tanh(u) u log(u) / (2 cosh u) over the u line, folded onto one ray
      t = |u| as t (2 ln t + i pi) against the lhs's weight
      -tanh(t) / (2 cosh t), since u log u has its branch point on the
      line;
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
    fd = (rhs_zeta(IdentityCase(1.0 + step, case.a)).value
          - rhs_zeta(IdentityCase(1.0 - step, case.a)).value) / (2.0 * step)
    i_pi = 1j * math.pi

    def direct(t: float) -> complex:
        return t * (2.0 * math.log(t) + i_pi)

    return _judge(case, {
        "direct": _run_route(case, lambda c: integrate_semi_infinite(
            direct, c.quad_cfg, weight=_lhs_weight), "fold"),
        "closed": RouteResult(closed, method="gamma"),
        "fd": RouteResult(fd, method="fd"),
    })


def sweep(k_list: Sequence[complex], a_list: Sequence[BranchedConstant],
          quad_cfg: QuadConfig = QuadConfig(),
          verdict_atol: float = DEFAULT_VERDICT_TOL,
          verdict_rtol: float = DEFAULT_VERDICT_TOL) -> list[VerificationReport]:
    """Verify the Cartesian product of cases; one report per case, in
    deterministic input order."""
    if not k_list or not a_list:
        raise ValueError("k_list and a_list must be non-empty")
    return [verify(IdentityCase(k, a, quad_cfg=quad_cfg,
                                verdict_atol=verdict_atol, verdict_rtol=verdict_rtol))
            for k in k_list for a in a_list]
