import math
import random

import pytest

from zetaquad import identities
from zetaquad.complexfn import BranchedConstant, DomainError, gamma
from zetaquad.hurwitz import ConvergenceError
from zetaquad.identities import (
    CaseError,
    IdentityCase,
    RegionError,
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
from zetaquad.quad import QuadConfig, integrate_finite

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
        assert abs(catalan_reference() - CATALAN_REF) <= 1e-12

    def test_catalan_case(self):
        rep = catalan_case()
        assert rep.verdict == "pass"
        assert rep.residuals
        assert all(r <= 1e-8 for r in rep.residuals.values())
        assert abs(rep.lhs.value - CATALAN_TARGET) <= 1e-8

    def test_loggamma_case(self):
        rep = loggamma_case()
        assert rep.verdict == "pass"
        closed = rep.routes["closed"]
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
        assert rep.series_value is not None and rep.contour_value is None
        assert len(rep.residuals) == 3

    def test_k_three_two_routes(self):
        rep = verify(case(3.0))
        assert rep.verdict == "pass"
        assert rep.series_value is None and rep.contour_value is None
        assert set(rep.residuals) == {"lhs|zeta"}

    def test_four_routes_complex_case(self):
        rep = verify(case(0.5 + 0.3j, BranchedConstant(2.0, 3 * math.pi / 4)))
        assert rep.verdict == "pass"
        assert len(rep.residuals) == 6

    def test_invariant_enforced(self):
        with pytest.raises(CaseError):
            verify(case(-1.0, BranchedConstant(0.5)))

    def test_skip_notes(self):
        assert verify(case(3.0)).notes == ["series skipped: Re(k) >= 1",
                                           "contour skipped: Re(k) >= 1"]
        assert verify(case(-1.0)).notes == ["contour skipped: integer k"]

    def test_failed_route_noted_and_left_out(self, monkeypatch):
        def boom(c):
            raise ConvergenceError("boom")

        # verify looks the route up on the module at call time
        monkeypatch.setattr(identities, "rhs_zeta", boom)
        rep = verify(case(-1.0))
        assert "zeta failed: boom" in rep.notes
        assert "zeta" not in rep.routes
        assert set(rep.residuals) == {"lhs|series"}
        assert rep.verdict == "pass"

    def test_overflowing_routes_noted(self):
        rep = verify(case(201.0))
        assert rep.verdict == "partial"
        assert rep.notes == ["lhs failed: math range error",
                             "zeta failed: math range error",
                             "series skipped: Re(k) >= 1",
                             "contour skipped: Re(k) >= 1"]


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


def test_case_violation_rules():
    assert case_violation(-0.5 + 0j, BranchedConstant(2.0)) is not None
    assert case_violation(-2.5 + 0j, A_ONE) is not None
    assert case_violation(0.5 + 0j, BranchedConstant(2.0)) is None
    assert case_violation(-0.5 + 0j, BranchedConstant(2.0, 1.0)) is None
