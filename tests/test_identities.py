import cmath
import functools
import itertools
import math
import random
import sys
from typing import NamedTuple

import pytest

from zetaquad import identities, quad
from zetaquad.complexfn import BranchedConstant, DomainError, complex_pow, gamma
from zetaquad.hurwitz import ConvergenceError
from zetaquad.identities import (
    CaseError,
    IdentityCase,
    RegionError,
    RouteResult,
    alternating_sum,
    case_violation,
    catalan_case,
    catalan_reference,
    contour_cauchy_check,
    integrand,
    lhs_integral,
    loggamma_case,
    rhs_contour,
    rhs_series,
    rhs_zeta,
    sweep,
    verify,
)
from zetaquad.quad import QuadConfig, QuadResult, integrate_finite, integrate_semi_infinite

A_ONE = BranchedConstant(1.0)
CATALAN_REF = 0.9159655941772190
CATALAN_TARGET = -4.0 * CATALAN_REF / math.pi  # -1.1662436161232751


def case(k, a=A_ONE, **kw):
    return IdentityCase(complex(k), a, **kw)


class TestIntegrand:
    def test_removable_point_k_minus_one(self):
        # limit of -tanh(u)/u as u -> 0
        assert integrand(math.pi / 4, -1.0, A_ONE) == pytest.approx(-1.0)

    def test_removable_point_positive_k(self):
        # log(2 tan y) is exactly zero one ulp above atan(1/2)
        y = math.nextafter(math.atan(0.5), 1.0)
        assert integrand(y, 2.0, BranchedConstant(2.0)) == 0

    def test_direct_substitution(self):
        ref = math.cos(2 * math.pi / 3) * math.log(math.tan(math.pi / 3))
        got = integrand(math.pi / 3, 1.0, A_ONE)
        assert got == pytest.approx(ref)
        assert ref == pytest.approx(-0.5 * math.log(math.sqrt(3.0)))

    def test_interior_only(self):
        with pytest.raises(DomainError):
            integrand(0.0, 1.0, A_ONE)

    def test_zero_log_rejected_when_too_singular(self):
        y = math.nextafter(math.atan(0.5), 1.0)
        with pytest.raises(DomainError):
            integrand(y, -1.5, BranchedConstant(2.0))

    def test_stabilised_form_matches_direct_nearby(self):
        # the -tanh(u) u^k form is an exact identity, not an approximation
        y = math.pi / 4 + 1e-7
        u = math.log(math.tan(y))
        direct = math.cos(2 * y) * complex(u) ** 1.5
        assert abs(integrand(y, 1.5, A_ONE) - direct) <= 1e-6 * abs(direct)


class TestLhsIntegral:
    def test_k_one(self):
        # Fourier series of log(tan y) gives exactly -pi/2
        r = lhs_integral(case(1.0))
        assert r.converged
        assert abs(r.value + math.pi / 2) <= 1e-8

    def test_k_two_antisymmetry(self):
        r = lhs_integral(case(2.0))
        assert abs(r.value) <= 1e-9

    def test_k_minus_one_catalan(self):
        r = lhs_integral(case(-1.0))
        assert abs(r.value - CATALAN_TARGET) <= 1e-8

    def test_invalid_case(self):
        with pytest.raises(CaseError):
            lhs_integral(case(-0.5, BranchedConstant(2.0)))

    @pytest.mark.parametrize("k, a, calls", [
        (0.5, BranchedConstant(2.0, 3.0 * math.pi / 4.0), 1),
        (0.5, A_ONE, 1),
        (-1.8, A_ONE, 1),  # the subtracted a = 1 integrand
        (0.5, BranchedConstant(2.0), 2),
    ])
    def test_quadrature_calls(self, monkeypatch, k, a, calls):
        # At split 0 the odd weight folds both rays into one call; at
        # theta = 0, r != 1 the rays from the branch point are two calls.
        made = []

        def counting(*args, **kwargs):
            made.append(args)
            return integrate_semi_infinite(*args, **kwargs)

        monkeypatch.setattr(identities, "integrate_semi_infinite", counting)
        lhs_integral(case(k, a))
        assert len(made) == calls

    @pytest.mark.parametrize("k", [0.5j, 0j, 0.3j, -0.7j])
    @pytest.mark.parametrize("r", [2.0, 0.5, 3.0])
    def test_re_k_zero_with_real_a(self, k, r):
        # At the branch point u = -ln r, (log a + u)^k is undefined for
        # Re(k) <= 0; the rays from it raise +-t, which no node rounds to 0.
        mpmath = pytest.importorskip("mpmath")
        res = lhs_integral(case(k, BranchedConstant(r)))
        with mpmath.workdps(20):
            ln_r = mpmath.log(r)

            def h(u):
                z = mpmath.mpc(ln_r + u, 0)
                return -mpmath.tanh(u) * mpmath.power(z, k) / (2 * mpmath.cosh(u))

            ref = complex(mpmath.quad(h, [-mpmath.inf, -ln_r, mpmath.inf]))
        assert res.converged
        assert abs(res.value - ref) <= 1e-12 * max(1.0, abs(ref))


class TestRhsZeta:
    def test_catalan_instance(self):
        assert abs(rhs_zeta(case(-1.0)) - CATALAN_TARGET) <= 1e-10

    def test_k_two_vanishes(self):
        # zeta(-1, 1/4) = zeta(-1, 3/4) = 1/96; the difference cancels
        assert abs(rhs_zeta(case(2.0))) <= 1e-9

    def test_k_three(self):
        # zeta(-2, 1/4) = -1/64, zeta(-2, 3/4) = 1/64
        ref = -3.0 * math.pi ** 3 / 8.0
        assert abs(rhs_zeta(case(3.0)) - ref) <= 1e-8 * abs(ref)

    def test_k_zero_short_circuit(self):
        assert rhs_zeta(case(0.0)) == 0


class TestRhsSeries:
    def test_catalan_instance(self):
        assert abs(rhs_series(case(-1.0)) - CATALAN_TARGET) <= 1e-10

    def test_k_zero(self):
        assert rhs_series(case(0.0, BranchedConstant(2.0, 1.0))) == 0

    def test_matches_zeta_at_half(self):
        c = case(0.5)
        s = rhs_series(c)
        z = rhs_zeta(c)
        assert abs(s - z) <= 1e-9 * abs(z)

    def test_region(self):
        with pytest.raises(RegionError):
            rhs_series(case(1.5))

    def test_acceleration_reference(self):
        # log(2) = sum (-1)^n / (n+1)
        got = alternating_sum(lambda n: complex(1.0 / (n + 1)))
        assert abs(got - math.log(2.0)) <= 1e-12

    def test_acceleration_stall_raises(self):
        # sum (-1)^n (-1)^n = 1 + 1 + ... diverges, so the passes never settle
        with pytest.raises(ConvergenceError,
                           match="alternating series acceleration stalled after 320 terms"):
            alternating_sum(lambda n: complex((-1) ** n))

    def test_stalled_series_route_fails(self):
        # |term| carries e^{-Im(k) arg z}, which grows by about e^32 while
        # arg z turns towards pi/2, so 320 terms do not settle; only the
        # series record is asserted, since the contour here is ok but wrong
        # (ROADMAP item 7; the oracle map's im_k_scan-contour pair)
        k = complex(-2.402712820710665, -22.341628507476607)
        a = BranchedConstant(289713255917.29846, 1.9720497447425476)
        assert verify(case(k, a)).routes["series"] == RouteResult(
            None, None, None, "failed", "alternating series acceleration stalled after 320 terms")


class TestRhsContour:
    def test_matches_series_at_half(self):
        c = case(0.5)
        r = rhs_contour(c)
        s = rhs_series(c)
        assert r.converged
        assert abs(r.value - s) <= 1e-6 * abs(s)

    def test_matches_zeta_a_two(self):
        c = case(-0.5, BranchedConstant(2.0))
        r = rhs_contour(c)
        z = rhs_zeta(c)
        assert abs(r.value - z) <= 1e-6 * abs(z)

    def test_integer_k_rejected(self):
        with pytest.raises(RegionError):
            rhs_contour(case(2.0))
        with pytest.raises(RegionError):
            rhs_contour(case(-1.0))


class TestCauchyCheck:
    def test_residue_examples(self):
        assert contour_cauchy_check(1.0, 3) == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert contour_cauchy_check(2.0, 1) == pytest.approx(2.0, abs=1e-12)
        assert contour_cauchy_check(0.5 + 0.5j, 0) == pytest.approx(1.0, abs=1e-12)

    def test_grid(self):
        for k in range(7):
            for y in (1.0, 2.0, 0.5 + 0.5j):
                got = contour_cauchy_check(complex(y), k)
                ref = complex(y) ** k / gamma(k + 1.0)
                assert abs(got - ref) <= 1e-10

    def test_preconditions(self):
        with pytest.raises(DomainError):
            contour_cauchy_check(11.0, 2)
        with pytest.raises(DomainError):
            contour_cauchy_check(1.0, -1)


class TestSpecialCases:
    def test_catalan_reference_digits(self):
        assert abs(catalan_reference() - CATALAN_REF) <= 1e-15

    def test_catalan_case(self):
        rep = catalan_case()
        assert rep.verdict == "pass"
        assert {n: r.status for n, r in rep.routes.items()} == {
            "lhs": "ok", "zeta": "ok", "series": "ok", "contour": "skipped", "reference": "ok"}
        assert abs(rep.routes["reference"].value - CATALAN_TARGET) <= 1e-12
        assert {"lhs|reference", "zeta|reference", "series|reference"} <= set(rep.residuals)
        assert all(r <= 1e-8 for r in rep.residuals.values())
        assert abs(rep.lhs.value - CATALAN_TARGET) <= 1e-8

    def test_loggamma_case(self):
        rep = loggamma_case()
        assert rep.verdict == "pass"
        assert [r.status for r in rep.routes.values()] == ["ok", "ok", "ok"]
        closed = rep.routes["closed"].value
        # imaginary part is exactly -pi^2/4
        assert abs(closed.imag + math.pi ** 2 / 4) <= 1e-10
        # real part from reference Gamma(1/4) = 3.6256099082219083,
        # Gamma(3/4) = 1.2254167024651776: -1.0499107141929197
        assert closed.real == pytest.approx(-1.0499107141929197, abs=1e-10)
        assert rep.residuals["direct|closed"] <= 1e-6
        assert rep.residuals["closed|fd"] <= 1e-5


class TestVerify:
    def test_catalan_three_routes(self):
        rep = verify(case(-1.0))
        assert rep.verdict == "pass"
        assert rep.lhs is not None and rep.zeta_value is not None
        assert rep.series_value is not None
        assert rep.contour_value == RouteResult(None, None, None, "skipped", "integer k")
        assert set(rep.residuals) == {"lhs|zeta", "lhs|series", "zeta|series"}

    def test_k_three_two_routes(self):
        rep = verify(case(3.0))
        assert rep.verdict == "pass"
        assert rep.series_value is None and rep.contour_value.status == "skipped"
        assert set(rep.residuals) == {"lhs|zeta"}

    def test_four_routes_complex_case(self):
        rep = verify(case(0.5 + 0.3j, BranchedConstant(2.0, 3 * math.pi / 4)))
        assert rep.verdict == "pass"
        assert len(rep.residuals) == 6

    def test_invariant_enforced(self):
        with pytest.raises(CaseError):
            verify(case(-1.0, BranchedConstant(0.5)))

    @pytest.mark.parametrize("k,r", [(0.5 + 0.3j, 1.0), (0.5, 2.0), (-1.7 + 0.2j, 1.0)])
    def test_negative_zero_theta_is_theta_zero(self, k, r):
        # the left lhs ray took argument -pi at theta = -0.0: the lhs came
        # out as the conjugate of zeta's value and the verdict was fail
        rep = verify(case(k, BranchedConstant(r, -0.0)))
        assert rep == verify(case(k, BranchedConstant(r)))
        assert rep.verdict == "pass"

    def test_skip_notes(self):
        skipped = RouteResult(None, None, None, "skipped", "Re(k) >= 1")
        routes = verify(case(3.0)).routes
        assert list(routes) == ["lhs", "zeta", "series", "contour"]
        assert [r.status for r in routes.values()] == ["ok", "ok", "skipped", "skipped"]
        assert routes["series"] == routes["contour"] == skipped
        assert [(r.status, r.reason) for r in verify(case(-1.0)).routes.values()] == [
            ("ok", ""), ("ok", ""), ("ok", ""), ("skipped", "integer k")]

    def test_failed_route_noted_and_left_out(self, monkeypatch):
        def boom(c):
            raise ConvergenceError("boom")

        # verify looks the route up on the module at call time
        monkeypatch.setattr(identities, "rhs_zeta", boom)
        rep = verify(case(-1.0))
        assert rep.routes["zeta"] == RouteResult(None, None, None, "failed", "boom")
        assert rep.zeta_value is None
        assert set(rep.residuals) == {"lhs|series"}
        # lhs and series agree, but a route that ran did not give a value
        assert rep.verdict == "partial"

    def test_overflowing_routes_noted(self):
        rep = verify(case(201.0))
        assert rep.verdict == "partial"
        assert [(name, r.status, r.reason) for name, r in rep.routes.items()] == [
            ("lhs", "failed", "complex exponentiation"),
            ("zeta", "failed", "complex exponentiation"),
            ("series", "skipped", "Re(k) >= 1"),
            ("contour", "skipped", "Re(k) >= 1")]
        assert all(r.value is None for r in rep.routes.values())
        assert rep.residuals == {}

    def test_underflowing_power_noted(self):
        # at this a the lhs ray hits log a + u = 0 exactly, so z = 1e-200 i and
        # z^-2 underflows inside Python's integral power (a ZeroDivisionError)
        a = BranchedConstant(0.36787944117144233, 1e-200)
        assert verify(case(-2.0, a)).routes["lhs"] == RouteResult(
            None, None, None, "failed", "0.0 to a negative or complex power")


class TestSweep:
    def test_single_case_consistency(self):
        res = sweep([complex(-1.0)], [A_ONE])
        assert len(res.reports) == 1
        direct = verify(case(-1.0))
        assert res.reports[0].residuals == direct.residuals
        assert res.reports[0].verdict == direct.verdict

    def test_skip_notes(self):
        res = sweep([complex(-0.5)], [BranchedConstant(2.0), A_ONE])
        assert len(res.reports) == 1
        assert len(res.notes) == 1 and "skipped" in res.notes[0]

    def test_empty_after_filtering(self):
        res = sweep([complex(-0.5)], [BranchedConstant(2.0)])
        assert res.reports == []
        assert any("no valid cases" in n for n in res.notes)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            sweep([], [A_ONE])

    @pytest.mark.parametrize("field", ["verdict_atol", "verdict_rtol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-9])
    def test_verdict_tolerances_must_be_finite(self, field, value):
        # a nan tolerance would make every residual comparison False
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            case(0.5, **{field: value})
        with pytest.raises(ValueError, match=field):
            sweep([complex(-0.5)], [BranchedConstant(2.0)], **{field: value})

    @pytest.mark.parametrize("k", [complex(math.nan), complex(0.5, math.inf),
                                   complex(math.inf, 0.3)])
    def test_non_finite_k_rejected(self, k):
        # verify used to raise "cannot convert float NaN to integer" or "math
        # domain error" from inside a route
        with pytest.raises(ValueError, match=r"k must be finite, got \("):
            IdentityCase(k, A_ONE)
        with pytest.raises(ValueError, match="k must be finite"):
            sweep([k], [A_ONE])

    def test_overflowing_case_does_not_stop_sweep(self):
        res = sweep([2, 201], [A_ONE])
        assert [r.verdict for r in res.reports] == ["pass", "partial"]


class TestCrossRouteProperties:
    def test_series_zeta_identity_random(self):
        rng = random.Random(99)
        done = 0
        while done < 20:
            k = complex(rng.uniform(-2.0, 0.85), rng.uniform(-1.0, 1.0))
            if abs(k) < 0.2:
                continue
            a = BranchedConstant(rng.uniform(0.5, 2.0),
                                 rng.uniform(0.1, 2 * math.pi - 0.1))
            c = IdentityCase(k, a)
            s = rhs_series(c)
            z = rhs_zeta(c)
            assert abs(s - z) <= 1e-9 * max(abs(s), abs(z))
            done += 1

    def test_substitution_consistency(self):
        # y-domain quadrature oracle vs the u = log(tan y) route
        cfg = QuadConfig()
        for k, a in ((1.0, A_ONE), (3.0, A_ONE), (0.5, BranchedConstant(2.0))):
            c = IdentityCase(complex(k), a)
            splits = [0.0, math.pi / 4, math.pi / 2]
            if a.r != 1.0 and a.theta == 0.0:
                splits.append(math.atan(1.0 / a.r))  # branch point of the power
            splits = sorted(set(splits))
            total = 0j
            for lo, hi in zip(splits, splits[1:]):
                total += integrate_finite(lambda y: integrand(y, complex(k), a),
                                          lo, hi, cfg).value
            assert abs(total - lhs_integral(c).value) <= 1e-8


# The lhs and contour integrands as composed before they were fused: per-node
# lambdas over a u-line h calling complex_pow, with the fixed weights written
# out as their own helpers.  The fused integrands must reproduce them bit for
# bit, except where the contour's ray-start singularity is subtracted
# (Re k > 1/2), which changes the values on purpose.  The lhs reference is
# h(u) = power(u) g(u) for a weight g built from the half-sech helper, which
# takes e^{-2|u|} as the square of e^{-|u|}: at split 0 the odd g folds the
# two rays into one call of power(t) - power(-t) against g as the
# quadrature's weight, and g with the a = 1 subtraction (Re k < -3/2) is just
# another weight; at theta = 0, r != 1 the rays from the branch point raise
# +-t, which log a + u equals there, and multiply by g per node.  The contour
# reference integrates e^{i t log a} t^{-k} against its own sech(pi t/2)
# helper as the quadrature's weight.  The log-Gamma integrand is compared
# with its one-ray fold built from the same lhs weight.
def _reference_half_sech(u):
    au = abs(u)
    if au > 700.0:
        return 0.0
    e = math.exp(-au)
    return e / (1.0 + e * e)


def _reference_weight(u):
    return -math.tanh(u) * _reference_half_sech(u)


def _reference_weight_sub(u):
    # minus the ray-start term c t^{k+1} e^{-t} of the folded integrand, over
    # its power
    return _reference_weight(u) + 0.5 * u * math.exp(-abs(u))


def _reference_lhs(c):
    k = complex(c.k)
    log_a = c.a.log_value
    if c.a.theta == 0.0 and c.a.r != 1.0:
        split = -math.log(c.a.r)

        def ray(sign):
            def h(t):
                w = _reference_weight(split + sign * t)
                return 0j if w == 0.0 else complex_pow(complex(sign * t, 0.0), k) * w

            return integrate_semi_infinite(h, c.quad_cfg)

        right, left = ray(1.0), ray(-1.0)
        return QuadResult(right.value + left.value, right.err_estimate + left.err_estimate,
                          right.n_evals + left.n_evals, right.converged and left.converged)

    def power(u):
        return complex_pow(complex(log_a.real + u, log_a.imag), k)

    subtract = c.a == A_ONE and k.real < -1.5
    g = _reference_weight_sub if subtract else _reference_weight
    # g is odd: h(t) + h(-t) = (power(t) - power(-t)) g(t); past t = 700 g is 0
    res = integrate_semi_infinite(lambda t: 0j if t > 700.0 else power(t) - power(-t),
                                  c.quad_cfg, weight=g)
    if not subtract:
        return res
    # the closed-form add-back, with the rounding of its Gamma value and phase
    half_g = 0.5 * gamma(k + 2.0)
    turn = cmath.exp(1j * math.pi * k)
    err = 2.2e-16 * abs(half_g) * (1.0 + abs(turn) * (1.0 + math.pi * abs(k)))
    return QuadResult(res.value + half_g * (turn - 1.0), res.err_estimate + err,
                      res.n_evals, res.converged)


def _reference_sech(t):
    if t > 450.0:
        return 0.0
    return 2.0 * math.exp(-0.5 * math.pi * t) / (1.0 + math.exp(-math.pi * t))


def _reference_contour(c):
    k = complex(c.k)
    log_a = c.a.log_value
    theta = log_a.imag
    ln_r = log_a.real
    turn = cmath.exp(2j * math.pi * k)
    pref = 0.25 * (turn - 1.0) * cmath.exp(-0.5j * math.pi * k) * gamma(k + 1.0)

    def f(t):
        if t > 450.0:
            return 0j
        return cmath.exp(complex(-t * theta, t * ln_r)) * t ** -k

    res = integrate_semi_infinite(f, c.quad_cfg, weight=_reference_sech)
    # the rounding of e^{2 pi i k}'s phase, relative to e^{2 pi i k} - 1
    err = res.err_estimate + (abs(res.value) * 2.2e-16 * (1.0 + 2.0 * math.pi * abs(k))
                              * abs(turn) / abs(turn - 1.0))
    scale = abs(pref)
    return QuadResult(pref * res.value, scale * err, res.n_evals, res.converged)


def _reference_loggamma_direct(cfg):
    # h(t) + h(-t) for h(u) = -tanh(u) u log(u) / (2 cosh u), where
    # log(-t) = log(t) + i pi, as t (2 log t + i pi) against the lhs weight
    return integrate_semi_infinite(lambda t: t * (2.0 * math.log(t) + 1j * math.pi),
                                   cfg, weight=_reference_weight)


def _assert_bit_identical(got, ref):
    assert got == ref
    assert repr(got) == repr(ref)  # also tells -0.0 from 0.0


CAPS = (13, 40, 10 ** 6)


@pytest.mark.parametrize("k", [0, -1, 2, 0.5 + 0.3j, -1.99 + 0.3j, 0.995 + 0.4j,
                               -1.5, 0.5])
def test_fused_integrands_match_reference(k):
    k = complex(k)
    compared = 0
    for a in (A_ONE, BranchedConstant(2.0), BranchedConstant(0.5),
              BranchedConstant(2.0, 3.0 * math.pi / 4.0), BranchedConstant(1.3, 2.0)):
        for cap in CAPS:
            c = case(k, a, quad_cfg=QuadConfig(max_evals=cap))
            if case_violation(k, a) is None:
                _assert_bit_identical(lhs_integral(c), _reference_lhs(c))
                compared += 1
            if identities._contour_region(k) is None and k.real <= 0.5:
                _assert_bit_identical(rhs_contour(c), _reference_contour(c))
                compared += 1
    assert compared >= 6


def _node_columns(levels=range(5)):
    """The x columns of the quadrature's node tables at the given levels."""
    return [x for level in levels for x in quad._nodes(level, None)[0]]


def test_lhs_weight_is_exactly_odd():
    # the split-0 fold integrates h(t) + h(-t) as (power(t) - power(-t)) g(t)
    for x in _node_columns() + [0.0, 0.3, 700.0, 700.5]:
        assert identities._lhs_weight(-x) == -identities._lhs_weight(x), x
        assert identities._lhs_weight_sub(-x) == -identities._lhs_weight_sub(x), x


def _rel_close(got, ref, rel=1e-15):
    return abs(got - ref) <= rel * abs(ref)


def test_fixed_weights_match_their_definitions():
    # against -tanh(u) / (2 cosh u) and 1 / cosh(pi t / 2) written out
    # directly, wherever those are normal floats (cosh overflows past 710)
    compared = 0
    for x in _node_columns():
        for u in (x, -x):
            if abs(u) < 710.0:
                ref = -math.tanh(u) / (2.0 * math.cosh(u))
                if abs(ref) >= sys.float_info.min:
                    assert _rel_close(identities._lhs_weight(u), ref), u
                    compared += 1
        if 0.5 * math.pi * x < 710.0:
            ref = 1.0 / math.cosh(0.5 * math.pi * x)
            if ref >= sys.float_info.min:
                assert _rel_close(identities._contour_weight(x), ref), x
                compared += 1
    assert compared >= 300


def test_contour_weight_is_zero_past_450():
    assert identities._contour_weight(450.0) > 0.0
    beyond = [x for x in _node_columns() if x > 450.0]
    for t in beyond + [math.nextafter(450.0, math.inf), 451.0, 1e300, math.inf]:
        assert repr(identities._contour_weight(t)) == "0.0", t


@pytest.mark.parametrize("k", [0.5, -1.5, 2.0, 3.0, -0.25, 0.5 + 0.3j, -1.99 + 0.3j,
                               3.0 - 4.0j, 1e-3j])
def test_real_base_power_matches_complex_base(k):
    # the theta = 0 rays raise the float +-t to the complex k: CPython promotes
    # it to complex(+-t, 0.0), so -t keeps argument pi
    k = complex(k)
    for x in _node_columns():
        for t in (x, -x):
            try:
                ref = (t + 0j) ** k
            except OverflowError:
                with pytest.raises(OverflowError):
                    t ** k
                continue
            got = t ** k
            assert repr(got) == repr(ref), (t, k)


def _zeta_oracle(mpmath, k, a):
    """The closed form by mpmath.zeta at 30 digits."""
    with mpmath.workdps(30):
        k = mpmath.mpc(k)
        shift = -1j * mpmath.mpc(math.log(a.r), a.theta) / (2 * mpmath.pi)
        pref = 2 ** (k - 1) * k * mpmath.pi ** k * mpmath.exp(0.5j * mpmath.pi * (k + 1))
        return complex(pref * (mpmath.zeta(1 - k, 0.25 + shift)
                               - mpmath.zeta(1 - k, 0.75 + shift)))


def test_series_matches_zeta_oracle():
    # The series route against the closed form at 30 digits: seeded draws
    # over Re k in [-2, 1), |Im k| <= 1 and any a (rhs_series has no case
    # invariants), plus |Im k| = 10 and 20, which take the n = 80 pass.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(11)
    cases = [(complex(rng.uniform(-2.0, 1.0), rng.uniform(-1.0, 1.0)),
              BranchedConstant(math.exp(rng.uniform(-1.5, 1.5)), rng.uniform(0.0, 2.0 * math.pi)))
             for _ in range(40)]
    cases += [(0.5 + y * 1j, BranchedConstant(1.0, 0.5)) for y in (10.0, -10.0, 20.0, -20.0)]
    for k, a in cases:
        ref = _zeta_oracle(mpmath, k, a)
        got = rhs_series(case(k, a))
        assert abs(got - ref) <= 2e-14 * max(1.0, abs(ref)), (k, a, got, ref)


@pytest.mark.parametrize("cap", CAPS)
def test_loggamma_direct_matches_reference(cap):
    cfg = QuadConfig(max_evals=cap)
    routes = loggamma_case(cfg).routes
    got = routes["direct"]
    ref = _reference_loggamma_direct(cfg)
    _assert_bit_identical((got.value, got.err_estimate, got.n_evals),
                          (ref.value, ref.err_estimate, ref.n_evals))
    assert got.status == ("ok" if ref.converged else "unconverged")
    if cfg == QuadConfig():
        assert abs(got.value - routes["closed"].value) <= got.err_estimate


def test_case_violation_rules():
    assert case_violation(-0.5 + 0j, BranchedConstant(2.0)) is not None
    assert case_violation(-2.5 + 0j, A_ONE) is not None
    assert case_violation(0.5 + 0j, BranchedConstant(2.0)) is None
    assert case_violation(-0.5 + 0j, BranchedConstant(2.0, 1.0)) is None


# The oracle map (ROADMAP aim 3): named strata of seeded cases, each case
# paired once with its _zeta_oracle value and verified once under its
# stratum's QuadConfig.  One rule holds for every (stratum, route) pair; a
# known defect is a strict xfail pair in KNOWN that names its ROADMAP item.
ROUTES = ("lhs", "zeta", "series", "contour")


def _draw(seed, n, re_k, draw_a):
    """n seeded valid cases with Re k in re_k and |Im k| <= 5, the i-th a from
    draw_a(rng, i); a draw that violates the case invariants is drawn again."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < n:
        k = complex(rng.uniform(*re_k), rng.uniform(-5.0, 5.0))
        a = draw_a(rng, len(cases))
        if case_violation(k, a) is None:
            cases.append((k, a))
    return cases


def _mixed_a(rng, i):
    """a = 1, a real r in [0.5, 3] and r@theta with theta in [0, 2 pi), in turn."""
    return (A_ONE if i % 3 == 0 else BranchedConstant(rng.uniform(0.5, 3.0)) if i % 3 == 1
            else BranchedConstant(rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * math.pi)))


def _far_real_a(rng, i):
    """A real a with |ln r| in [30, 700], on either side of 1."""
    return BranchedConstant(math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(30.0, 700.0)))


def _subtracted_rays():
    """Both regions of the ray-start subtraction, as (lhs cases, contour
    cases): the lhs at a = 1 with Re k in (-2, -3/2) and the contour with
    Re k in (1/2, 1), where the plain rule cannot integrate the cases nearest
    Re k = -2 and Re k = 1.  Then real k next to the poles of Gamma(k+2) and
    Gamma(1-k), where the rounded phase of e^{i pi k} (lhs) and e^{2 pi i k}
    (contour) is most of the error, so the estimate must count it."""
    rng = random.Random(6)
    lhs = [(complex(rng.uniform(-2.0, -1.5), rng.uniform(-5.0, 5.0)), A_ONE) for _ in range(50)]
    contour = [(complex(rng.uniform(0.5, 1.0), rng.uniform(-5.0, 5.0)),
                BranchedConstant(rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * math.pi)))
               for _ in range(50)]
    lhs += [(complex(k), A_ONE)
            for k in [-1.992391089181134] + [rng.uniform(-2.0, -1.97) for _ in range(15)]]
    contour.append((0.9989215872380072 + 0j, BranchedConstant(0.771)))
    contour += [(complex(rng.uniform(0.979, 0.9995)),
                 BranchedConstant(rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * math.pi)))
                for _ in range(15)]
    return lhs, contour


def _im_k_scan():
    """ROADMAP item 7's scan over large |Im k| and |ln r|, and item 13's case."""
    grid = itertools.product((0.5, 2.0), (0.5, -0.5), (0.0, 5.0, 15.0, 27.0, -27.0),
                             (5.0, -5.0, 10.0, -10.0, 20.0, -20.0))
    return [(complex(re_k, im_k), BranchedConstant(math.exp(ln_r), theta))
            for theta, re_k, ln_r, im_k in grid] + [(-0.5 - 20j, BranchedConstant(1e12, 2.0))]


class Stratum(NamedTuple):
    draw: object  # () -> [(k, a)]
    cfg: QuadConfig = QuadConfig()
    own: str | None = None  # the route that must be ok in every case


MAIN = functools.partial(_draw, 7, 100, (-1.95, 8.0), _mixed_a)
STRATA = {
    "main": Stratum(MAIN),
    # a looser tolerance stops the quadrature at shallower levels, where the
    # extrapolated stop leans hardest on its contraction ratios
    "main@1e-8": Stratum(MAIN, QuadConfig(atol=1e-8, rtol=1e-8)),
    "main@1e-6": Stratum(MAIN, QuadConfig(atol=1e-6, rtol=1e-6)),
    "main@40evals": Stratum(MAIN, QuadConfig(max_evals=40)),
    "main@400evals": Stratum(MAIN, QuadConfig(max_evals=400)),
    "large_re_k": Stratum(functools.partial(_draw, 8, 40, (9.0, 25.0), _mixed_a)),
    "rays_lhs": Stratum(lambda: _subtracted_rays()[0], own="lhs"),
    "rays_contour": Stratum(lambda: _subtracted_rays()[1], own="contour"),
    "im_k_scan": Stratum(_im_k_scan),
    "far_real_a": Stratum(lambda: _draw(9, 30, (0.0, 1.0), _far_real_a)
                          + [(0.5 + 0j, BranchedConstant(2.7e43))]),
}


def _known(item, why):
    return pytest.mark.xfail(raises=AssertionError, reason=f"ROADMAP item {item}: {why}")


KNOWN = {
    ("main@1e-6", "lhs"): _known(7, "at 1e-6 the lhs at k = 3.30+4.79i, a = 2.658 is 8.2e-7 "
                                    "off, against an estimate of 6.8e-7"),
    ("large_re_k", "zeta"): _known(3, "hurwitz_zeta returns wrong values with no error for "
                                      "Re s < -8, so zeta is ok but off"),
    ("large_re_k", "lhs"): _known(13, "12 of 40 lhs records lie outside their estimate, by "
                                      "up to 4.3x: the 8 EPS |value| floor ignores |k|"),
    ("rays_contour", "lhs"): _known(13, "at k = 0.9965, a = 1.407@0.0337 the lhs is ok after "
                                        "88 evaluations and 8.1e-10 off, against 1.2e-10"),
    ("im_k_scan", "lhs"): _known(13, "a peak between level-0 nodes and an early stop leave "
                                     "ok lhs records far outside their estimate"),
    ("im_k_scan", "contour"): _known(7, "at Im k <= -10 the contour judges convergence in the "
                                        "units of its ray integral, far below |pref|"),
    ("im_k_scan", "zeta"): _known(3, "at ln r = 27 and Im k in {-10, -20} (Im q near -4.3) "
                                     "zeta is ok but off"),
    ("far_real_a", "lhs"): _known(9, "at theta = 0 and |ln r| >~ 100 the lhs ray's sech peak "
                                     "sits between two level-0 nodes, so levels 0 and 1 agree "
                                     "on a value near 0 and the lhs reports ok"),
}


@functools.lru_cache(maxsize=None)
def _paired(draw):
    mpmath = pytest.importorskip("mpmath")
    return [(k, a, _zeta_oracle(mpmath, k, a)) for k, a in draw()]


@functools.lru_cache(maxsize=None)
def _reports(name):
    s = STRATA[name]
    return [(verify(case(k, a, quad_cfg=s.cfg)), ref) for k, a, ref in _paired(s.draw)]


@pytest.mark.parametrize("name, route", [
    pytest.param(name, route, marks=KNOWN.get((name, route), ()), id=f"{name}-{route}")
    for name in STRATA for route in ROUTES])
def test_oracle_map(name, route):
    # An ok value is within 1e-6 + 1e-6 |ref| of the oracle, an ok quadrature
    # also within its own estimate, with no slack (ROADMAP item 7's gate), and
    # the stratum's own route is ok in every case.  Under an evaluation cap
    # some verdict must be partial, or the cap did not bite.
    s = STRATA[name]
    missed = []
    for rep, ref in _reports(name):
        r = rep.routes[route]
        if r.status == "ok":
            bound = 1e-6 + 1e-6 * abs(ref)
            if route in ("lhs", "contour"):
                bound = min(bound, r.err_estimate)
            if abs(r.value - ref) > bound:
                missed.append((rep.case, r, ref))
        elif route == s.own:
            missed.append((rep.case, r))
    assert missed == []
    if s.cfg.max_evals < QuadConfig().max_evals:
        assert "partial" in {rep.verdict for rep, _ in _reports(name)}


@pytest.mark.parametrize("k", [0.5, 2.5])
@pytest.mark.parametrize("log_r,theta", [(30.0, 0.0), (-30.0, 0.0), (300.0, 1.0), (-300.0, 1.0)])
def test_lhs_far_from_unit_a_matches_zeta(k, log_r, theta):
    # the lhs rays peak near t = |ln r|, far out on the exp-sinh mesh, where
    # the quadrature trims its tails after level 0
    rep = verify(case(k, BranchedConstant(math.exp(log_r), theta)))
    lhs, zeta = rep.routes["lhs"], rep.routes["zeta"]
    assert lhs.status == "ok"
    assert abs(lhs.value - zeta.value) <= 1e-12 * abs(zeta.value)
