import ast
import cmath
import csv
import functools
import inspect
import io
import itertools
import math
import random
import sys
from array import array
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from typing import NamedTuple

import pytest

from zetaquad import cli, hurwitz, identities, quad
from zetaquad.complexfn import BranchedConstant, DomainError, complex_pow, gamma
from zetaquad.hurwitz import ConvergenceError
from zetaquad.identities import (
    IdentityCase,
    RegionError,
    RouteResult,
    alternating_sum,
    case_violation,
    catalan_case,
    catalan_reference,
    contour_cauchy_check,
    integrand,
    residual_ok,
    lhs_integral,
    loggamma_case,
    rhs_contour,
    rhs_series,
    rhs_zeta,
    sweep,
    verify,
)
from zetaquad.quad import (QuadConfig, QuadResult, integrate_finite, integrate_line,
                           integrate_semi_infinite)

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

    @pytest.mark.parametrize("k, a, calls", [
        (0.5, BranchedConstant(2.0, 3.0 * math.pi / 4.0), 1),
        (0.5, A_ONE, 2),
        (-1.8, A_ONE, 2),  # next to a = 1's edge Re k = -2
        (0.5, BranchedConstant(2.0), 2),
        (0.5, BranchedConstant(1.0, 0.1), 2),
        (0.5, BranchedConstant(2.0, 0.25), 2),
        (0.5, BranchedConstant(2.0, 0.5), 1),
    ])
    def test_quadrature_calls(self, monkeypatch, k, a, calls):
        # From theta = 0.5 up the whole line is one call; below it the
        # half-lines of the lifted line are two calls.
        made = []
        for name, integrate in (("integrate_line", integrate_line),
                                ("integrate_semi_infinite", integrate_semi_infinite)):
            def counting(*args, integrate=integrate, **kwargs):
                made.append(args)
                return integrate(*args, **kwargs)

            monkeypatch.setattr(identities, name, counting)
        lhs_integral(case(k, a))
        assert len(made) == calls

    @pytest.mark.parametrize("k, a, n_evals", [(0.5, BranchedConstant(2.0), 138),
                                               (0.5 - 10j, A_ONE, 217)])
    def test_lift_cost(self, k, a, n_evals):
        # The lift's half-lines run in x = log(1 + y), where exp-sinh meets
        # the y^-2 decay it is built for; a change that gives that saving
        # back shows here.  (0.5, 2) is the benchmark's pinned verify case.
        r = lhs_integral(case(k, a))
        assert (r.converged, r.n_evals) == (True, n_evals)

    @pytest.mark.parametrize("k", [0.5j, 0j, 0.3j, -0.7j])
    @pytest.mark.parametrize("r", [2.0, 0.5, 3.0])
    def test_re_k_zero_with_real_a(self, k, r):
        # At the branch point u = -ln r, (log a + u)^k is undefined for
        # Re(k) <= 0; the lifted line passes pi/4 above it.
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

    @pytest.mark.parametrize("k", [-1.9 + 0.4j, 0.5 - 10j, 2.5])
    def test_a_one_lifts_as_its_theta_limit(self, k):
        # a = 1 lifts like every theta < 0.5: L = log a + i pi/4 is exactly
        # i pi/4 at a = 1 and at a = 1@1e-300, so the two agree bit for bit
        _assert_bit_identical(lhs_integral(case(k, A_ONE)),
                              lhs_integral(case(k, BranchedConstant(1.0, 1e-300))))

    @pytest.mark.parametrize("dk", [1e-10, 1e-8, 1e-6])
    def test_a_one_next_to_k_minus_two(self, dk):
        # the integrand is O(u^{k+1}) at u = 0, almost 1/u here; the lifted
        # line passes pi/4 above it, so nothing cancels as k -> -2
        c = case(-2.0 + dk)
        res, ref = lhs_integral(c), rhs_series(c).value
        assert res.converged
        assert abs(res.value - ref) <= 1e-13 * max(1.0, abs(ref))


class TestRhsZeta:
    def test_catalan_instance(self):
        assert abs(rhs_zeta(case(-1.0)).value - CATALAN_TARGET) <= 1e-10

    def test_k_two_vanishes(self):
        # zeta(-1, 1/4) = zeta(-1, 3/4) = 1/96; the difference cancels
        assert abs(rhs_zeta(case(2.0)).value) <= 1e-9

    def test_k_three(self):
        # zeta(-2, 1/4) = -1/64, zeta(-2, 3/4) = 1/64
        ref = -3.0 * math.pi ** 3 / 8.0
        assert abs(rhs_zeta(case(3.0)).value - ref) <= 1e-8 * abs(ref)

    def test_k_zero_short_circuit(self):
        assert rhs_zeta(case(0.0)).value == 0

    # 1 - k rounds to 1, zeta's pole, for real 0 < k <= 5.5e-17, and next to
    # it the two zeta values cancel their 1/k pole terms
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 20: zeta fails at its own pole for real k <= 5.5e-17 "
                              "and is 5e-6 relative off at k = 1e-11")
    @pytest.mark.parametrize("k", [1e-17, 5e-17, 1e-11])
    @pytest.mark.parametrize("a", [BranchedConstant(2.0), BranchedConstant(1.0, 1.0)])
    def test_tiny_real_k_matches_oracle(self, k, a):
        mpmath = pytest.importorskip("mpmath")
        zeta = verify(case(k, a)).routes["zeta"]
        ref = _zeta_oracle(mpmath, k, a)
        assert zeta.status == "ok"
        assert abs(zeta.value - ref) <= 1e-12 * abs(ref)


class TestRhsSeries:
    def test_catalan_instance(self):
        assert abs(rhs_series(case(-1.0)).value - CATALAN_TARGET) <= 1e-10

    def test_k_zero(self):
        assert rhs_series(case(0.0, BranchedConstant(2.0, 1.0))).value == 0

    def test_matches_zeta_at_half(self):
        c = case(0.5)
        s = rhs_series(c).value
        z = rhs_zeta(c).value
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

    # (ratio modulus, ratio argument) of z w^j: the pass at which the sum
    # settles grows as -w nears 1; past an argument of about 2.3 at modulus
    # 0.9 no pass settles
    SETTLE = {40: (0.9, 0.0), 80: (0.9, 0.5), 160: (0.9, 1.0), 320: (0.9, 1.5),
              "stall": (0.9, 2.5)}

    @pytest.mark.parametrize("settles", list(SETTLE))
    def test_acceleration_matches_reference(self, settles):
        rng = random.Random(f"cvz-{settles}")
        modulus, argument = self.SETTLE[settles]
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = cmath.rect(modulus, argument + rng.uniform(-0.05, 0.05))
            terms = [z * w ** j for j in range(320)]
            called = []

            def term(j):
                called.append(j)
                return terms[j]

            expected = _reference_alternating_sum(terms)
            if settles == "stall":
                assert expected is None
                with pytest.raises(ConvergenceError):
                    alternating_sum(term)
                assert called == list(range(320))
                continue
            assert expected[1] == settles
            assert alternating_sum(term) == expected[0]
            assert called == list(range(settles))


def _reference_alternating_sum(terms):
    """The acceleration with the weight recurrence inline, as it was before
    the weights were cached: (sum, n of the settling pass), or None if no
    pass settles."""
    prev = None
    for n in (20, 40, 80, 160, 320):
        d = (3.0 + math.sqrt(8.0)) ** n
        d = 0.5 * (d + 1.0 / d)
        b = -1.0
        c = -d
        s = 0j
        for j, a in enumerate(terms[:n]):
            c = b - c
            s += c * a
            b = (j + n) * (j - n) * b / ((j + 0.5) * (j + 1))
        est = s / d
        if prev is not None and abs(est - prev) <= 1e-13 * abs(est):
            return est, n
        prev = est
    return None


class TestRhsContour:
    def test_matches_series_at_half(self):
        c = case(0.5)
        r = rhs_contour(c)
        s = rhs_series(c).value
        assert r.converged
        assert abs(r.value - s) <= 1e-6 * abs(s)

    def test_matches_zeta_a_two(self):
        c = case(-0.5, BranchedConstant(2.0))
        r = rhs_contour(c)
        z = rhs_zeta(c).value
        assert abs(r.value - z) <= 1e-6 * abs(z)

    @pytest.mark.parametrize("k, a, n_evals", [(0.5, BranchedConstant(2.0), 69),
                                               (0.9, BranchedConstant(2.0), 69),
                                               (-1.99 + 0.3j, A_ONE, 62)])
    def test_ray_cost(self, k, a, n_evals):
        # The ray runs in t = log(1 + y), where exp-sinh meets the
        # y^{-1-pi/2} decay it is built for; a change that gives that saving
        # back shows here.  (0.5, 2) is the benchmark's pinned verify case,
        # and (0.9, 2) lies next to Re k = 1, where the ray start is most
        # singular before its subtraction.
        r = rhs_contour(case(k, a))
        assert (r.converged, r.n_evals) == (True, n_evals)

    @pytest.mark.parametrize("k", [-30.5, -40.5])
    @pytest.mark.parametrize("r", [2.0, 0.5])
    def test_large_negative_k_within_estimate(self, k, r):
        # |pref| = (pi/2) |k| / |Gamma(1 - k)| is about 1e-49 at k = -40.5,
        # and its rounding, about |log pref| eps relative, is part of the
        # estimate: 3.1e-22 off against 1.5e-21 at k = -40.5, a = 2
        mpmath = pytest.importorskip("mpmath")
        a = BranchedConstant(r)
        got = rhs_contour(case(k, a))
        assert got.converged
        assert abs(got.value - _zeta_oracle(mpmath, k, a)) <= got.err_estimate

    # a value below atol is ok by its estimate's being below atol, and each
    # of these stops after 17 evaluations, 1.0-1.4x outside its estimate
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 13: a contour value below atol can lie just "
                              "outside its estimate")
    @pytest.mark.parametrize("k", [-30.5, -30.5 - 0.7j, -35.5 - 0.7j])
    def test_value_below_atol_within_estimate(self, k):
        mpmath = pytest.importorskip("mpmath")
        a = BranchedConstant(2.0, 1.0)
        got = rhs_contour(case(k, a))
        assert got.converged
        assert abs(got.value - _zeta_oracle(mpmath, k, a)) <= got.err_estimate

    def test_underflowed_prefactor_fails(self):
        # e^{i pi k/2} underflows past Im k = 474 while Gamma(1 - k) stays
        # finite at Re k = -50, so pref is 0 and has no log to fold into the
        # ray: the route raises, and verify records it as failed
        c = case(-50 + 480j, BranchedConstant(2.0, 1.0))
        with pytest.raises(ArithmeticError, match="contour prefactor underflows"):
            rhs_contour(c)
        assert verify(c).routes["contour"].status == "failed"

    def test_next_to_integer_k_matches_series(self):
        # the reflection prefactor is finite at k = 0, -1, -2, ..., and has
        # no rounded phase of e^{2 pi i k} to cancel next to them
        with pytest.raises(RegionError):
            rhs_contour(case(2.0))
        ks = [n + d for n in (0, -1, -2, -3) for d in (0.0, 2e-12, -2e-12, 1e-9, -1e-9)]
        for k in ks + [1.0 - 1e-11]:
            for a in (BranchedConstant(2.0), BranchedConstant(1.2), BranchedConstant(2.0, 1.0)):
                c = case(k, a)
                r, s = rhs_contour(c), rhs_series(c).value
                assert r.converged, (k, a)
                assert abs(r.value - s) <= 1e-12 * max(1.0, abs(s)), (k, a)


class TestCauchyCheck:
    def test_residue_examples(self):
        assert contour_cauchy_check(1.0, 3) == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert contour_cauchy_check(2.0, 1) == pytest.approx(2.0, abs=1e-12)
        assert contour_cauchy_check(0.5 + 0.5j, 0) == pytest.approx(1.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            contour_cauchy_check(11.0, 2)
        with pytest.raises(DomainError):
            contour_cauchy_check(1.0, -1)
        with pytest.raises(DomainError):
            contour_cauchy_check(complex("nan"), 2)


class TestSpecialCases:
    def test_catalan_reference_digits(self):
        assert abs(catalan_reference() - CATALAN_REF) <= 1e-15

    def test_catalan_case(self):
        rep = catalan_case()
        assert rep.verdict == "pass"
        assert {n: r.status for n, r in rep.routes.items()} == {
            "lhs": "ok", "zeta": "ok", "series": "ok", "contour": "ok", "reference": "ok"}
        assert abs(rep.routes["reference"].value - CATALAN_TARGET) <= 1e-12
        assert {"lhs|reference", "zeta|reference", "series|reference", "contour|reference",
                "lhs|contour", "zeta|contour", "series|contour"} <= set(rep.residuals)
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


def _never_called(c):
    pytest.fail("a route ran that verify must not call")


class TestVerify:
    def test_k_three_two_routes(self, monkeypatch):
        # a skipped route is recorded without being called
        monkeypatch.setattr(identities, "rhs_series", _never_called)
        monkeypatch.setattr(identities, "rhs_contour", _never_called)
        rep = verify(case(3.0))
        assert rep.verdict == "pass"
        assert rep.series_value is None and rep.contour_value.status == "skipped"
        assert [rep.routes[name].reason for name in ("series", "contour")] == ["Re(k) >= 1"] * 2
        assert set(rep.residuals) == {"lhs|zeta"}

    @pytest.mark.parametrize("k,r", [(0.5 + 0.3j, 1.0), (0.5, 2.0), (-1.7 + 0.2j, 1.0)])
    def test_negative_zero_theta_is_theta_zero(self, k, r):
        # the left lhs ray took argument -pi at theta = -0.0: the lhs came
        # out as the conjugate of zeta's value and the verdict was fail
        rep = verify(case(k, BranchedConstant(r, -0.0)))
        assert rep == verify(case(k, BranchedConstant(r)))
        assert rep.verdict == "pass"

    def test_failed_route_noted_and_left_out(self, monkeypatch):
        def boom(c):
            raise ConvergenceError("boom")

        # verify looks the route up on the module at call time
        monkeypatch.setattr(identities, "rhs_zeta", boom)
        rep = verify(case(-1.0))
        # the record names the method that was to run
        assert rep.routes["zeta"] == RouteResult(None, None, None, "failed", "boom", "em")
        # a numeric failure, caught as an ArithmeticError
        assert issubclass(ConvergenceError, ArithmeticError)
        assert rep.zeta_value is None
        assert set(rep.residuals) == {"lhs|series", "lhs|contour", "series|contour"}
        # lhs, series and contour agree, but a route that ran did not give a value
        assert rep.verdict == "partial"

    # (value, estimate, converged) and the record's status under the one rule
    # for every route: ok only if converged with the estimate below
    # max(|value|, atol), here atol = 1e-10
    @pytest.mark.parametrize("value,err,converged,status", [
        (3 + 4j, 4.99, True, "ok"), (3 + 4j, 5.0, True, "unconverged"),
        (1e-12, 0.99e-10, True, "ok"), (1e-12, 1e-10, True, "unconverged"),
        (0j, 0.0, True, "ok"), (3 + 4j, 0.0, False, "unconverged")])
    def test_one_rule_decides_ok(self, monkeypatch, value, err, converged, status):
        monkeypatch.setattr(identities, "rhs_zeta",
                            lambda c: QuadResult(complex(value), err, 7, converged))
        rep = verify(case(-1.0, quad_cfg=QuadConfig(atol=1e-10)))
        reason = "" if status == "ok" else "quadrature did not converge"
        assert rep.routes["zeta"] == RouteResult(value, err, 7, status, reason, "em")
        assert ("lhs|zeta" in rep.residuals) == (status == "ok")


class TestSweep:
    def test_single_case_consistency(self):
        reports = sweep([complex(-1.0)], [A_ONE])
        assert len(reports) == 1
        direct = verify(case(-1.0))
        assert reports[0].residuals == direct.residuals
        assert reports[0].verdict == direct.verdict

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
        reports = sweep([2, 201], [A_ONE])
        assert [r.verdict for r in reports] == ["pass", "partial"]

    # k-major, as a sweep runs, so that each k's twin with a zero part of
    # the other sign finds the slot k filled: 0.5+0j right after 0.5-0j and
    # the reverse; -1+-0j, where zeta's value is +-0 imaginary;
    # -9.4e-224+-0j, where the contour's pref has a zero real part of k's
    # imaginary sign; 0.75+-0j; +-0+2i, a zero real part; 0.75+0.2i, twice;
    # a k >= 1; and -50+480i, where the contour prefactor underflows, after
    # another k and after itself
    MEMO_KS = (complex(0.5, -0.0), 0.5 + 0j, complex(0.5, -0.0), -1 + 0j, complex(-1, -0.0),
               -1 + 0j, complex(-9.405158893803899e-224, 0.0),
               complex(-9.405158893803899e-224, -0.0), 0.75 + 0j, complex(0.75, -0.0),
               complex(0.0, 2.0), complex(-0.0, 2.0), 0.75 + 0.2j, -50 + 480j, -50 + 480j,
               2.0 + 1.0j, 0.75 + 0.2j)
    MEMO_AS = (A_ONE, BranchedConstant(2.0, 1.0), BranchedConstant(0.5))

    def test_memos_isolate_cases(self):
        # every memo holds one case's plan or one k's factors (identities) or
        # one s's tail weights (hurwitz): a sweep must give each case the
        # record it gets alone
        alone = []
        for k in self.MEMO_KS:
            for a in self.MEMO_AS:
                _clear_memos()
                alone.append(repr(verify(case(k, a))))
        _clear_memos()
        assert [repr(rep) for rep in sweep(self.MEMO_KS, self.MEMO_AS)] == alone
        assert identities._contour_pref.cache_info().hits > 0
        assert identities._plan.cache_info().hits > 0

    def test_verify_plans_a_case_once(self):
        # verify plans the case, and each of the four routes it runs finds
        # that plan in the slot
        _clear_memos()
        rep = verify(case(0.5 + 0.3j, BranchedConstant(2.0, 1.0)))
        assert [r.status for r in rep.routes.values()] == ["ok"] * 4
        info = identities._plan.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        # every caller reads the one kept plan, so none may change it
        with pytest.raises(TypeError):
            identities._plan(rep.case)["lhs"] = ("line", "")

    @pytest.mark.parametrize("k, twin", [(0.75 + 0j, complex(0.75, -0.0)),
                                         (complex(0.0, 2.0), complex(-0.0, 2.0))])
    def test_signed_zero_twins_share_a_plan(self, k, twin):
        # the twins are equal keys, so the second reads the first's plan;
        # planned alone, each gets that same plan
        plan = identities._plan.__wrapped__
        for first, second in ((k, twin), (twin, k)):
            _clear_memos()
            kept = identities._plan(case(first))
            assert identities._plan(case(second)) is kept
            assert plan(case(first)) == kept == plan(case(second))

    @pytest.mark.parametrize("before", [None, 0.5 + 0j, -50 + 480j, -50.5 + 480j])
    def test_underflowing_prefactor_is_not_memoised(self, before):
        # the same failed reason whatever ran before, and no exception kept:
        # the slot neither gains an entry nor serves a hit
        _clear_memos()
        if before is not None:
            verify(case(before, A_ONE))
        info = identities._contour_pref.cache_info()
        contour = verify(case(-50 + 480j, A_ONE)).routes["contour"]
        assert contour == RouteResult(None, None, None, "failed", "contour prefactor underflows",
                                      "rays")
        after = identities._contour_pref.cache_info()
        assert (after.hits, after.currsize) == (info.hits, info.currsize)


def _clear_memos():
    identities._plan.cache_clear()
    identities._contour_pref.cache_clear()
    hurwitz._value_weights.cache_clear()


def _reference_judge(case, routes):
    """_judge as it read with one residual_ok call per pair."""
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
    return identities.VerificationReport(case, routes, residuals, verdict)


@functools.lru_cache(maxsize=None)
def _workloads():
    """The benchmark's workloads module, loaded from its file."""
    spec = spec_from_file_location("_perfbench_workloads", Path(__file__).resolve().parents[1]
                                   / "perfbench" / "workloads.py")
    module = module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 4])
def test_judge_matches_residual_ok_on_grid_reports(seed):
    # each grid report judged again at tolerances that make some pairs fail
    verdicts = set()
    for k, a in _workloads().inputs("grid", seed):
        rep = verify(case(k, a))
        assert repr(rep) == repr(_reference_judge(rep.case, rep.routes))
        for tol in (1e-9, 1e-13, 0.0):
            tight = rep.case._replace(verdict_atol=tol, verdict_rtol=tol)
            judged = identities._judge(tight, rep.routes)
            assert repr(judged) == repr(_reference_judge(tight, rep.routes))
            verdicts.add(judged.verdict)
    assert {"pass", "fail"} <= verdicts


def _atol_for(threshold, scaled):
    """An atol >= 0 with atol + scaled == threshold in floating point."""
    atol = threshold - scaled
    for _ in range(64):
        if atol >= 0.0 and atol + scaled == threshold:
            return atol
        atol = math.nextafter(atol, math.inf if atol + scaled < threshold else -math.inf)
    raise AssertionError(f"no atol puts the threshold at {threshold!r}")


@pytest.mark.parametrize("x, y, rtol", [
    (1 + 0j, 0.999997 + 0j, 2.0 ** -20), (0j, 3e-9 + 4e-9j, 0.0),
    (2 + 1j, 2.00001 + 0.99999j, 1e-6), (-7.5e-3 + 1e-3j, -7.5e-3 + 1.0000007e-3j, 1e-9)])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_judge_rule_at_its_boundary(x, y, rtol, ulps):
    # the residual exactly on atol + rtol max(|x|, |y|), or one ulp to either
    # side of it: above it the pair disagrees
    residual = abs(x - y)
    threshold = residual
    for _ in range(abs(ulps)):
        threshold = math.nextafter(threshold, math.inf if ulps > 0 else -math.inf)
    atol = _atol_for(threshold, rtol * max(abs(x), abs(y)))
    c = case(0.5, verdict_atol=atol, verdict_rtol=rtol)
    routes = {"p": RouteResult(x), "q": RouteResult(y),
              "s": RouteResult(None, None, None, "skipped", "Re(k) >= 1")}
    rep = identities._judge(c, routes)
    assert repr(rep) == repr(_reference_judge(c, routes))
    assert rep.residuals == {"p|q": residual}
    assert rep.verdict == ("fail" if ulps < 0 else "pass")


def test_judge_rule_fails_a_nan_residual():
    # residual_ok is False against nan, and so is the rule written out
    routes = {"p": RouteResult(complex(math.nan, 0.0)), "q": RouteResult(1 + 0j),
              "r": RouteResult(1 + 0j)}
    rep = identities._judge(case(0.5), routes)
    assert repr(rep) == repr(_reference_judge(case(0.5), routes))
    assert rep.verdict == "fail"


@pytest.mark.parametrize("k", [0.0, -0.5 + 0.3j, 2.0 - 1.0j])
@pytest.mark.parametrize("route", [lhs_integral, rhs_zeta, rhs_series, rhs_contour],
                         ids=lambda f: f.__name__)
def test_every_route_returns_a_quad_result(route, k):
    # one record type for _run_route to judge; a closed form's is exact
    c = case(k, BranchedConstant(2.0, 1.0))
    if k.real >= 1.0 and route in (rhs_series, rhs_contour):
        with pytest.raises(RegionError):
            route(c)
        return
    res = route(c)
    assert type(res) is QuadResult and res.converged
    if route in (rhs_zeta, rhs_series):
        assert (res.err_estimate, res.n_evals) == (0.0, 0)


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
            s = rhs_series(c).value
            z = rhs_zeta(c).value
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
# bit.  The lhs reference is h(u) = power(u) g(u) for a weight g built from
# the half-sech helper, which takes e^{-2|u|} as the square of e^{-|u|}:
# for theta >= 0.5 it runs on the whole real line, u = (pi/2) sinh t, one
# power per node against g as the quadrature's weight; for every
# theta < 0.5, a = 1 included, the line
# is lifted to Im u = pi/4 and split at Re u = 0, whose half-lines raise
# L +- x, L = log a + i pi/4, at x = log(1 + y) on the ray's y nodes,
# against the y-weights G(x) / (1 + y), G(x) = g(x + i pi/4), and
# g(-x + i pi/4) / (1 + y) = -conj G(x) / (1 + y), written with cmath.
# lhs_integral sums the left half-line as -conj of (conj L - x)^{conj k}
# against G alone, which gives the same bits.  The contour reference
# integrates pref e^{i t log a} t^{1-k}, pref folded into the exponent as
# log pref, at t = log(1 + y) on the ray's y nodes, against its own
# e^{-pi t/2} tanh(pi t/2) / (t (1 + y)) helper as the quadrature's weight,
# and adds back the subtracted term's closed form.  The log-Gamma
# integrand is compared with its one-ray fold built from the same lhs
# weight.
def _reference_half_sech(u):
    au = abs(u)
    if au > 700.0:
        return 0.0
    e = math.exp(-au)
    return e / (1.0 + e * e)


def _reference_weight(u):
    return -math.tanh(u) * _reference_half_sech(u)


def _reference_lift_weight(y):
    z = complex(math.log1p(y), 0.25 * math.pi)
    return -cmath.tanh(z) / (2.0 * cmath.cosh(z) * (1.0 + y))


def _reference_lift_mirror(y):
    return -_reference_lift_weight(y).conjugate()


def _reference_lhs(c):
    k = complex(c.k)
    log_a = c.a.log_value
    if identities._plan(c)["lhs"][0] == "lift":
        lift = complex(log_a.real, log_a.imag + 0.25 * math.pi)

        def half(sign, weight):
            def h(y):
                return complex_pow(complex(lift.real + sign * math.log1p(y), lift.imag), k)

            return integrate_semi_infinite(h, c.quad_cfg, weight=weight)

        right = half(1.0, _reference_lift_weight)
        left = half(-1.0, _reference_lift_mirror)
        return QuadResult(right.value + left.value, right.err_estimate + left.err_estimate,
                          right.n_evals + left.n_evals, right.converged and left.converged)

    def power(u):
        return complex_pow(complex(log_a.real + u, log_a.imag), k)

    return integrate_line(power, c.quad_cfg, weight=_reference_weight)


def _reference_contour_weight(y):
    t = math.log1p(y)
    x = 0.5 * math.pi * t
    return math.exp(-x) * math.tanh(x) / (t * (1.0 + y))


def _reference_contour(c):
    # the ray written in y, pref e^{i t log a} t^{1-k} against
    # e^{-pi t/2} tanh(pi t/2) / (t (1 + y)), and the add-back
    # pref Gamma(1-k) beta^{k-1}, beta = pi/2 - i log a
    k = complex(c.k)
    log_a = c.a.log_value
    theta = log_a.imag
    ln_r = log_a.real
    # Euler's reflection form of (1/4)(e^{2 pi i k} - 1) e^{-i pi k/2} Gamma(k+1)
    pref = 0.5j * math.pi * k * cmath.exp(0.5j * math.pi * k) / gamma(1.0 - k)
    log_pref = cmath.log(pref)

    def f(y):
        t = math.log1p(y)
        return (cmath.exp(complex(-t * theta + log_pref.real, t * ln_r + log_pref.imag))
                * t ** (1.0 - k))

    res = integrate_semi_infinite(f, c.quad_cfg, weight=_reference_contour_weight)
    beta = complex(0.5 * math.pi + theta, -ln_r)
    value = res.value + 0.5j * math.pi * k * cmath.exp(0.5j * math.pi * k) * beta ** (k - 1.0)
    err = res.err_estimate + (8.0 + abs(log_pref)) * 2.2e-16 * abs(value)
    return QuadResult(value, err, res.n_evals, res.converged)


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
                               -1.5, 0.5, 1.66 - 19.5j, 0.5 + 20j, 7.43 - 13.3j])
def test_fused_integrands_match_reference(k):
    k = complex(k)
    compared = 0
    # a = 2 puts the branch point u = -log 2 under the level-0 node y = 1,
    # x = log 2, of the mirrored half-line; 2@0.1, 1@0.1 and 2@0.25 are
    # lifted, 2@0.5 is on the line;
    # a = e^{+-27} with |Im k| near 20 sets |e^{i pi k}| and the powers at
    # their extremes, where a lost sign of zero or conjugate would show
    for a in (A_ONE, BranchedConstant(2.0), BranchedConstant(0.5), BranchedConstant(math.e),
              BranchedConstant(2.0, 3.0 * math.pi / 4.0), BranchedConstant(1.3, 2.0),
              BranchedConstant(2.0, 0.1), BranchedConstant(1.0, 0.1), BranchedConstant(2.0, 0.25),
              BranchedConstant(2.0, 0.5),
              BranchedConstant(math.exp(27.0)), BranchedConstant(math.exp(-27.0))):
        for cap in CAPS:
            c = case(k, a, quad_cfg=QuadConfig(max_evals=cap))
            _assert_bit_identical(lhs_integral(c), _reference_lhs(c))
            compared += 1
            if identities._plan(c)["contour"] == ("rays", ""):
                _assert_bit_identical(rhs_contour(c), _reference_contour(c))
                compared += 1
    assert compared >= 6


def _node_columns(levels=range(5)):
    """The x's of the ray's unweighted node tables at the given levels; their
    weights dx/dt are never 0, so the tables hold every node."""
    tables = {level: quad._table(level, quad._exp_sinh, None) for level in levels}
    return [x for level, table in tables.items() for group in (table if level else [table])
            for x, _ in group]


def test_lhs_weight_is_exactly_odd():
    # the log-Gamma direct route folds h(t) + h(-t) onto one ray through
    # g(-t) = -g(t)
    for x in _node_columns() + [0.0, 0.3, 700.0, 700.5]:
        assert identities._lhs_weight(-x) == -identities._lhs_weight(x), x


def _rel_close(got, ref, rel=1e-15):
    return abs(got - ref) <= rel * abs(ref)


def _written_contour_weight(y):
    """e^{-pi t/2} tanh(pi t/2) / (t (1 + y)) at t = log(1 + y), with tanh
    written out as sinh / cosh."""
    t = math.log1p(y)
    x = 0.5 * math.pi * t
    return math.exp(-x) * math.sinh(x) / math.cosh(x) / t / (1.0 + y)


def test_fixed_weights_match_their_definitions():
    # against -tanh(u) / (2 cosh u) and e^{-pi t/2} tanh(pi t/2) / (t (1 + y))
    # at t = log(1 + y) written out directly, wherever those are normal
    # floats (cosh overflows past 710)
    compared = 0
    for x in _node_columns():
        for u in (x, -x):
            if abs(u) < 710.0:
                ref = -math.tanh(u) / (2.0 * math.cosh(u))
                if abs(ref) >= sys.float_info.min:
                    assert _rel_close(identities._lhs_weight(u), ref), u
                    compared += 1
        ref = _written_contour_weight(x)
        if ref >= sys.float_info.min:
            assert _rel_close(identities._contour_weight(x), ref), x
            compared += 1
    assert compared >= 300


def test_contour_weight_has_no_cut_off():
    # every node y of every level, at t = log(1 + y) <= 317: the y-weight
    # e^{-pi t/2} tanh(pi t/2) / (t (1 + y)), which decays like
    # y^{-1-pi/2}, tends to pi/2 at y = 0, which is never a node, and is 0
    # only where its value is below the normal floats, past t = 287, where
    # it underflows; so the quadrature calls the ray's integrand at every
    # node below that, and no cut-off guards t^{1-k}
    nodes = _node_columns(range(11))
    assert max(math.log1p(y) for y in nodes) == _TOP_X < 317.0
    assert min(nodes) > 0.0
    assert _rel_close(identities._contour_weight(min(nodes)), 0.5 * math.pi)
    zero = 0
    for y in nodes:
        t = math.log1p(y)
        got = identities._contour_weight(y)
        if got == 0.0:
            assert t > 287.0 and _written_contour_weight(y) == 0.0, y
            zero += 1
        else:
            assert got > 0.0, y
    assert 0 < zero < 0.01 * len(nodes)


@pytest.mark.parametrize("k", [0.5, -1.5, 2.0, 3.0, -0.25, 0.5 + 0.3j, -1.99 + 0.3j,
                               3.0 - 4.0j, 1e-3j])
def test_real_base_power_matches_complex_base(k):
    # the contour raises the float t to the complex -k: CPython promotes it
    # to complex(t, 0.0), and a negative float keeps argument pi
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


def _bits(values):
    """The bytes of a list of complex numbers, so that -0.0 and 0.0 differ."""
    return array("d", [p for z in values for p in (z.real, z.imag)]).tobytes()


# The ray's top node y = e^{316.85...} sits at x = log(1 + y) = _TOP_X.
_TOP_X = math.log1p(quad._table(0, quad._exp_sinh, None)[-1][0])


# y = 1 is the level-0 node at t = 0, so at split log 2 = log(1 + 1) one
# node of the lifted half-line with sign +1 passes right above the branch
# point u = log 2, and at split +-_TOP_X the top node of one half-line
# passes above it;
# 699.5 and 700.5 put the branch point past every node
@pytest.mark.parametrize("split", [s * m for s in (0.0, 1e-3, 0.7, 30.0, 699.5, 700.5, _TOP_X)
                                   for m in (1.0, -1.0)] + [1.0, math.log1p(1.0)])
def test_ray_integrand_inlines_lhs_weight(split, monkeypatch):
    # the lhs at a = e^{-split} (theta = 0.1 at split 0)
    # hands the quadrature the lifted half-lines in x = log(1 + y), on the
    # table's log1p(y) nodes: at x = log1p(y) for every node y of every
    # level the integrands give the bits of (L + x)^k and
    # (conj L - x)^{conj k}, L = log a + i pi/4, against the one table
    # y-weight G(x) / (1 + y), where G continues the lhs weight to
    # Im u = pi/4; the left half-line's sum is conjugated and negated, as
    # g(-x + i pi/4) is -conj G(x).  Re k = 0, where (log a + u)^k is
    # undefined at the branch point on the real line.
    k = 0.3j
    a = BranchedConstant(math.exp(-split), 0.1 if split == 0.0 else 0.0)
    made = []

    def capturing(f, cfg, weight=None, *, log1p_nodes=False):
        made.append((f, weight, log1p_nodes))
        return QuadResult(0j, 0.0, 0, True)

    monkeypatch.setattr(identities, "integrate_semi_infinite", capturing)
    lhs_integral(case(k, a))
    assert [(w, tag) for _, w, tag in made] == [(identities._lift_weight, True)] * 2
    lift = a.log_value + 1j * 0.25 * math.pi
    nodes = _node_columns(range(11))
    above = 0
    for (f, _, _), sign in zip(made, (1.0, -1.0)):
        got = [f(math.log1p(y)) for y in nodes]
        ref = []
        for y in nodes:
            z = complex(lift.real + sign * math.log1p(y), sign * lift.imag)
            ref.append(z ** (k if sign > 0.0 else k.conjugate()))
            above += z.real == 0.0
        assert _bits(got) == _bits(ref), next(
            (sign, y, g, r) for y, g, r in zip(nodes, got, ref) if repr(g) != repr(r))
    for y in nodes:
        z = complex(math.log1p(y), 0.25 * math.pi)
        assert _rel_close(made[0][1](y), -cmath.tanh(z) / (2.0 * cmath.cosh(z)) / (1.0 + y)), y
        assert _rel_close(-made[1][1](y).conjugate(), -cmath.tanh(-z.conjugate())
                          / (2.0 * cmath.cosh(-z.conjugate())) / (1.0 + y)), y
    if split in (math.log1p(1.0), _TOP_X, -_TOP_X):
        assert above == 1


# k on both sides of Re k = 1/2, 0.995+0.4i next to Re k = 1; a = 1, 2@0.1
# and e^{+-27}, where t i log a is largest at the top node
@pytest.mark.parametrize("k", [0.5, -1.5 + 0.3j, 0.75, 0.995 + 0.4j])
@pytest.mark.parametrize("a", [A_ONE, BranchedConstant(2.0, 0.1), BranchedConstant(math.exp(27.0)),
                               BranchedConstant(math.exp(-27.0))])
def test_contour_integrand_runs_at_t(k, a, monkeypatch):
    # the contour hands the quadrature its ray in t = log(1 + y), on the
    # table's log1p(y) nodes, against _contour_weight: at t = log1p(y) for
    # every node y of every level the integrand gives the bits of the ray
    # written in y, pref e^{i t log a} t^{1-k}, pref folded in as log pref
    k = complex(k)
    c = case(k, a)
    assert identities._plan(c)["contour"] == ("rays", "")
    made = []

    def capturing(f, cfg, weight=None, *, log1p_nodes=False):
        made.append((f, weight, log1p_nodes))
        return QuadResult(0j, 0.0, 0, True)

    monkeypatch.setattr(identities, "integrate_semi_infinite", capturing)
    rhs_contour(c)
    [(f, weight, tag)] = made
    assert (weight, tag) == (identities._contour_weight, True)
    log_a = a.log_value
    i_log_a = complex(-log_a.imag, log_a.real)
    pref = 0.5j * math.pi * k * cmath.exp(0.5j * math.pi * k) / gamma(1.0 - k)
    log_pref = cmath.log(pref)

    def in_y(y):
        t = math.log1p(y)
        return cmath.exp(t * i_log_a + log_pref) * t ** (1.0 - k)

    nodes = _node_columns(range(11))
    got = [f(math.log1p(y)) for y in nodes]
    ref = [in_y(y) for y in nodes]
    assert _bits(got) == _bits(ref), next(
        (y, g, r) for y, g, r in zip(nodes, got, ref) if repr(g) != repr(r))


def test_lift_weights():
    # every node y of every level, at x = log(1 + y): the y-weight
    # G(x) / (1 + y), G(x) = g(x + i pi/4), from cmath's tanh and cosh, bit
    # for bit, and never 0, so the quadrature calls the integrand at every
    # node; g(-x + i pi/4) / (1 + y), on which the left half-line rests, is
    # exactly -conj of it; and G agrees with the closed form
    # -e^{-x} e^{-i pi/4} (1 + i q) / (1 - i q)^2, q = e^{-2x}, of
    # -tanh(z) / (2 cosh z), which is how the real weight is written
    nodes = _node_columns(range(11))
    assert max(math.log1p(y) for y in nodes) == _TOP_X < 317.0
    compared = 0
    for y in nodes + [0.0]:
        got = identities._lift_weight(y)
        assert got != 0, y
        x = math.log1p(y)
        z = complex(x, 0.25 * math.pi)
        assert _bits([got]) == _bits([-cmath.tanh(z) / (2.0 * cmath.cosh(z) * (1.0 + y))]), y
        mirror = -z.conjugate()
        assert _bits([-cmath.tanh(mirror) / (2.0 * cmath.cosh(mirror) * (1.0 + y))]) == _bits(
            [-got.conjugate()]), y
        q = math.exp(-2.0 * x)
        closed = -math.exp(-x) * cmath.exp(-0.25j * math.pi) * (1 + 1j * q) / (1 - 1j * q) ** 2
        if abs(closed) >= sys.float_info.min:
            assert _rel_close(got * (1.0 + y), closed), y
            compared += 1
    assert compared >= 300


def _zeta_oracle(mpmath, k, a):
    """The closed form by mpmath.zeta at 30 digits; 0 at k = 0, where the
    prefactor's factor k meets the pole of zeta(1 - k, .)."""
    if k == 0:
        return 0j
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
        got = rhs_series(case(k, a)).value
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
    """The two regions where a ray starts at a singularity, as (lhs cases,
    contour cases).  The lhs at a = 1 with Re k in (-2, -3/2), where the
    lifted line passes pi/4 above the branch point u = 0, at which the
    integrand is almost 1/u; then real k next to Re k = -2.  The contour with
    Re k in (1/2, 1), where the ray-start singularity t^{-k} is strongest and
    the ray, unsubtracted, could not integrate the cases nearest Re k = 1;
    then real k next to the pole of Gamma(1-k), where the prefactor's
    1/Gamma(1-k) tends to 0 and the add-back is most of the value."""
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


def _small_theta():
    """ROADMAP item 17's band 0 < theta < 0.5 next to the real axis: theta
    log-uniform in [1e-10, 0.5], r in [0.1, 30] (never 1), Re k in (-1, 3]
    and |Im k| <= 5.  The band lies below _plan's switch, so every lhs
    lifts."""
    rng = random.Random(17)
    cases = []
    while len(cases) < 120:
        k = complex(rng.uniform(-1.0, 3.0), rng.uniform(-5.0, 5.0))
        r = rng.uniform(0.1, 30.0)
        if k.real > -1.0 and r != 1.0:
            cases.append((k, BranchedConstant(r, 10.0 ** rng.uniform(-10.0, math.log10(0.5)))))
    return cases


def _lift_scan():
    """The lift off the region map: theta = 0, Re k in [0, 8], |Im k| <= 20
    and ln r in [-27, 27]."""
    rng = random.Random(32)
    return [(complex(rng.uniform(0.0, 8.0), rng.uniform(-20.0, 20.0)),
             BranchedConstant(math.exp(rng.uniform(-27.0, 27.0)))) for _ in range(150)]


def _near_integer_k():
    """The contour next to and at k = n, n in {0, -1, -2, -3}: 80 seeded
    draws k = n + delta, |delta| log-uniform in [1e-14, 1e-1] of either sign
    and delta = 0 in a quarter of them, Im k = 0 in half of them and
    |Im k| <= 1 in the other half, r in [0.5, 3] and theta in [0, 2 pi)."""
    rng = random.Random(37)
    cases = []
    for i in range(80):
        delta = (0.0 if i % 8 < 2
                 else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -1.0))
        im_k = 0.0 if i % 2 == 0 else rng.uniform(-1.0, 1.0)
        cases.append((complex(rng.choice((0, -1, -2, -3)) + delta, im_k),
                      BranchedConstant(rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * math.pi))))
    return cases


def _real_axis(seed, re_k, draw_r):
    """ROADMAP item 26's (k, a) half, where the y-integral may diverge and the
    lhs gives the analytic continuation: 60 seeded cases on the real axis,
    Re k in re_k, |Im k| <= 5 and r from draw_r(rng)."""
    rng = random.Random(seed)
    return [(complex(rng.uniform(*re_k), rng.uniform(-5.0, 5.0)), BranchedConstant(draw_r(rng)))
            for _ in range(60)]


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
    "main@200evals": Stratum(MAIN, QuadConfig(max_evals=200)),
    "large_re_k": Stratum(functools.partial(_draw, 8, 40, (9.0, 25.0), _mixed_a)),
    "rays_lhs": Stratum(lambda: _subtracted_rays()[0], own="lhs"),
    "rays_contour": Stratum(lambda: _subtracted_rays()[1], own="contour"),
    "im_k_scan": Stratum(_im_k_scan),
    "far_real_a": Stratum(lambda: _draw(9, 30, (0.0, 1.0), _far_real_a)
                          + [(0.5 + 0j, BranchedConstant(2.7e43))]),
    "small_theta": Stratum(_small_theta, own="lhs"),
    "lift_scan": Stratum(_lift_scan),
    "real_a_neg_k": Stratum(functools.partial(_real_axis, 26, (-4.0, 0.0),
                                              lambda rng: rng.uniform(0.5, 3.0)), own="lhs"),
    "a_one_below_2": Stratum(functools.partial(_real_axis, 26, (-5.0, -2.0), lambda rng: 1.0),
                             own="lhs"),
    "near_integer_k": Stratum(_near_integer_k, own="contour"),
}


def _known(item, why):
    return pytest.mark.xfail(raises=AssertionError, reason=f"ROADMAP item {item}: {why}")


KNOWN = {
    ("large_re_k", "zeta"): _known(3, "hurwitz_zeta returns wrong values with no error for "
                                      "Re s < -8, so zeta is ok but off"),
    ("large_re_k", "lhs"): _known(13, "1 of 40 ok lhs records lies outside its estimate, a "
                                      "line record by 1.06x at 2.4e-15 relative: the 8 EPS "
                                      "|value| floor ignores |k|"),
    ("im_k_scan", "lhs"): _known(13, "24 of 105 ok lhs records lie outside their estimate, "
                                     "21 of them at |ln r| = 27, by up to 400x and 1.1e-8 "
                                     "relative: a peak between level-0 nodes and an early "
                                     "stop"),
    ("im_k_scan", "zeta"): _known(3, "at ln r = 27 and Im k in {-10, -20} (Im q near -4.3) "
                                     "zeta is ok but off"),
    ("lift_scan", "lhs"): _known(13, "19 of 137 ok lhs records lie outside their estimate: a "
                                     "lifted half-line passes the branch point pi/4 away at "
                                     "x = |ln r|, and at ln r = -26.9 the worst is 1.4e-9 off, "
                                     "186x its estimate"),
    ("lift_scan", "zeta"): _known(3, "at k = 7.43-13.30i, ln r = 17.0 zeta is ok but 1.4e-6 off"),
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


# Every (route, method) that _plan can return, written out, so that a new
# variant lands with a stratum that draws it (ROADMAP item 22's gate).  The
# exact "zero" of zeta, series and contour at k = 0 is drawn by
# near_integer_k.
PLAN_METHODS = {("lhs", "line"), ("lhs", "lift"), ("zeta", "em"), ("zeta", "zero"),
                ("series", "cvz"), ("series", "zero"), ("contour", "rays"),
                ("contour", "zero")}


def _plan_strings():
    """_plan's string literals, its docstring left out: the routes and the
    methods, and the reasons, which have spaces."""
    tree = ast.parse(inspect.getsource(identities._plan)).body[0]
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value != ast.get_docstring(tree, clean=False)}


def test_oracle_map_draws_every_method():
    # each method is ok in at least one record of some stratum, where
    # test_oracle_map checks its value against the oracle ...
    drawn = {(route, r.method) for name in STRATA for rep, _ in _reports(name)
             for route, r in rep.routes.items() if r.status == "ok"}
    assert drawn == PLAN_METHODS
    # ... and _plan names no method that PLAN_METHODS leaves out
    words = {w for w in _plan_strings() if w and " " not in w} - set(ROUTES)
    assert words == {method for _, method in PLAN_METHODS}


def test_every_plan_reason_is_pinned():
    # each reason _plan can give, a skip or an ok record's note, is the
    # pinned outcome of some OUTCOMES row, so a new one lands with its row
    pinned = {r[1] for want in OUTCOMES.values() for r in want[1:] if r is not None}
    assert {w for w in _plan_strings() if " " in w} <= pinned


# The route-outcome table: a CLI literal pair (k, a), with any extra verify
# argv, maps to the verdict and each route's (status, reason) in ROUTES
# order; None leaves one unpinned.  One rule checks every row, in the library
# and through the CLI's JSON and CSV.  A change that moves an outcome on
# purpose edits its row.
OK = ("ok", "")
UNC = ("unconverged", "quadrature did not converge")
EXP = ("failed", "complex exponentiation")
CONT_REAL = ("ok", "continuation: the y-integral diverges for real a != 1 at Re(k) <= -1")
CONT_ONE = ("ok", "continuation: the y-integral diverges for a = 1 at Re(k) <= -2")
RE_K = ("skipped", "Re(k) >= 1")
OUTCOMES = {
    ("-1", "1"): ("pass", OK, OK, OK, OK),
    # 2e-12 from k = -1: the contour's prefactor rounds no phase of
    # e^{2 pi i k} against 1 there, so all four routes agree
    ("-1.000000000002", "2"): ("pass", CONT_REAL, OK, OK, OK),
    ("3", "1"): ("pass", OK, OK, RE_K, RE_K),
    ("0.5+0.3i", "2@2.356194490192345"): ("pass", OK, OK, OK, OK),
    # past the double range, and a CSV keeps a case whose routes all fail
    ("201", "1"): ("partial", EXP, EXP, RE_K, RE_K),
    ("150", "3@1"): ("partial", EXP, EXP, RE_K, RE_K),
    # the prefactor 2^(k-1) k pi^k times zeta(1 - k, .) overflows, which
    # would otherwise stop the report rendering
    **{(k, "2"): ("partial", EXP, ("failed", "non-finite value"), RE_K, RE_K)
       for k in ("130", "140", "145")},
    # the fold's node at t = 1 met log a - t = 1e-200 i, whose square
    # underflows inside Python's integral power (a ZeroDivisionError); the
    # lifted line keeps pi/4 away from the branch point
    ("-2", "0.36787944117144233@1e-200"): ("pass", OK, OK, OK, OK),
    # |term| carries e^{-Im(k) arg z}, which grows by about e^32 while arg z
    # turns towards pi/2, so 320 terms do not settle; the contour's ray,
    # judged in the route's units, cancels and does not converge; the lhs
    # stops short of its tolerance, 8.8e-4 off with an estimate of 1.4e-4
    ("-2.402712820710665-22.341628507476607i", "289713255917.29846@1.9720497447425476"):
        (None, UNC, OK, ("failed", "alternating series acceleration stalled after 320 terms"),
         UNC),
    # an estimate not below max(|value|, atol) says nothing of the value, so
    # the record is unconverged, whatever the quadrature's own test said: at
    # k = 10 the lhs gives 7.3e-10 with an estimate of 5.2e-4, at k = 20
    # 4.0e2 with 1.5e4, and at k = -100.5 4.1e-6 with 1.3e-5, where the
    # value is 3.9e-18 (ROADMAP items 7 and 13)
    ("10", "1"): ("partial", UNC, OK, RE_K, RE_K),
    ("20", "1"): ("partial", UNC, OK, RE_K, RE_K),
    ("-100.5", "1"): ("partial", UNC, OK, OK, OK),
    # a starved or stalled quadrature is flagged, not compared; at 0.5+400i
    # the contour stops at 4e-9+6e-9i, and the true value is about 1e-200
    ("0.5", "1", "--max-evals", "40"): ("partial", UNC, OK, OK, UNC),
    ("-1.99", "1", "--max-evals", "40"): ("partial", UNC, OK, OK, UNC),
    ("0.5+400i", "3@1"): ("partial", OK, OK, OK, UNC),
    # a = 1 lifts like a = 1@1e-300; folded, (t^k - (-t)^k) carries
    # |1 - e^{i pi k}| = e^{10 pi}, the integral is a tiny part of its terms,
    # and the rounding floor keeps the quadrature from converging.  The
    # contour's ray, judged in the route's units, cancels too: it stalls
    # (8,197 evaluations) and is unconverged
    ("0.5-10i", "1"): ("partial", OK, OK, OK, UNC),
    # at k = 0 the closed forms and the contour are exactly 0, with no work
    ("0", "2"): ("pass", OK, OK, OK, OK),
    # on the real axis the y-integral diverges at Re k <= -1, or at a = 1 at
    # Re k <= -2; the lifted line gives the analytic continuation, and the
    # lhs record says so.  At -1 < Re k < 0 it converges, and is the value.
    ("-1.5", "2"): ("pass", CONT_REAL, OK, OK, OK),
    ("-2.5", "1"): ("pass", CONT_ONE, OK, OK, OK),
    ("-0.5", "2"): ("pass", OK, OK, OK, OK),
}
# The method each route ran by on each OUTCOMES row, in ROUTES order: ""
# where the route was skipped, and the method that ran where it failed.
OUTCOME_METHODS = {
    ("-1", "1"): ("lift", "em", "cvz", "rays"),
    ("-1.000000000002", "2"): ("lift", "em", "cvz", "rays"),
    ("3", "1"): ("lift", "em", "", ""),
    ("0.5+0.3i", "2@2.356194490192345"): ("line", "em", "cvz", "rays"),
    ("201", "1"): ("lift", "em", "", ""),
    ("150", "3@1"): ("line", "em", "", ""),
    **{(k, "2"): ("lift", "em", "", "") for k in ("130", "140", "145")},
    ("-2", "0.36787944117144233@1e-200"): ("lift", "em", "cvz", "rays"),
    ("-2.402712820710665-22.341628507476607i", "289713255917.29846@1.9720497447425476"):
        ("line", "em", "cvz", "rays"),
    ("10", "1"): ("lift", "em", "", ""),
    ("20", "1"): ("lift", "em", "", ""),
    ("-100.5", "1"): ("lift", "em", "cvz", "rays"),
    ("0.5", "1", "--max-evals", "40"): ("lift", "em", "cvz", "rays"),
    ("-1.99", "1", "--max-evals", "40"): ("lift", "em", "cvz", "rays"),
    ("0.5+400i", "3@1"): ("line", "em", "cvz", "rays"),
    ("0.5-10i", "1"): ("lift", "em", "cvz", "rays"),
    ("0", "2"): ("lift", "zero", "zero", "zero"),
    ("-1.5", "2"): ("lift", "em", "cvz", "rays"),
    ("-2.5", "1"): ("lift", "em", "cvz", "rays"),
    ("-0.5", "2"): ("lift", "em", "cvz", "rays"),
}


@pytest.mark.parametrize("row", OUTCOMES, ids=" ".join)
def test_outcomes(row, capsys):
    # verify gives the pinned outcomes; a record has a value, an estimate and
    # its work exactly when it is ok or unconverged; only ok routes are
    # compared; and the CLI prints this report, exiting 0 only on pass
    k, a, *extra = row
    argv = ["verify", f"--k={k}", "--a", a, *extra]
    ns = cli.build_parser().parse_args(argv)
    cfg = QuadConfig(ns.atol, ns.rtol, ns.max_evals)
    rep = verify(IdentityCase(cli.parse_complex(k), cli.parse_branched(a), cfg,
                              ns.verdict_atol, ns.verdict_rtol))
    assert list(rep.routes) == list(ROUTES)
    want = OUTCOMES[row]
    got = (rep.verdict, *((r.status, r.reason) for r in rep.routes.values()))
    assert tuple(g if w is not None else None for g, w in zip(got, want)) == want
    assert list(OUTCOME_METHODS) == list(OUTCOMES)
    assert tuple(r.method for r in rep.routes.values()) == OUTCOME_METHODS[row]
    for r in rep.routes.values():
        if r.status in ("ok", "unconverged"):
            assert None not in (r.value, r.err_estimate, r.n_evals)
            assert r.n_evals <= 2 * cfg.max_evals
        else:
            assert (r.value, r.err_estimate, r.n_evals) == (None, None, None)
    ok = [name for name, r in rep.routes.items() if r.status == "ok"]
    assert set(rep.residuals) == {f"{x}|{y}" for x, y in itertools.combinations(ok, 2)}
    code = 0 if rep.verdict == "pass" else 1
    assert cli.main(argv) == code
    assert capsys.readouterr() == (cli.dumps_fixed({"reports": [cli.report_to_dict(rep)]})
                                   + "\n", "")
    assert cli.main([*argv, "--format", "csv"]) == code
    out = capsys.readouterr().out
    assert out == cli.reports_to_csv([rep])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [(x[4], x[9], x[10], x[11], x[12], x[5:9] == [""] * 4) for x in rows] == [
        (name, r.status, r.reason, rep.verdict, r.method, r.value is None)
        for name, r in rep.routes.items()]


@pytest.mark.parametrize("k", [0.5, 2.5])
@pytest.mark.parametrize("log_r,theta", [(30.0, 0.0), (-30.0, 0.0), (300.0, 1.0), (-300.0, 1.0)])
def test_lhs_far_from_unit_a_matches_zeta(k, log_r, theta):
    # the lhs integrand turns sharply near t = |ln r|, its branch point's
    # distance along the line, far out on the exp-sinh mesh, where the
    # quadrature trims its tails after level 0
    rep = verify(case(k, BranchedConstant(math.exp(log_r), theta)))
    lhs, zeta = rep.routes["lhs"], rep.routes["zeta"]
    assert lhs.status == "ok"
    assert abs(lhs.value - zeta.value) <= 1e-12 * abs(zeta.value)
