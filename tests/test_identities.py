import cmath
import functools
import math
import random

import pytest

from zetaquad import identities
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

    @pytest.mark.parametrize("k", [0.5j, 0j, 0.3j, -0.7j])
    @pytest.mark.parametrize("r", [2.0, 0.5, 3.0])
    def test_re_k_zero_with_real_a(self, k, r):
        # Nodes near the branch point u = -ln r round onto it, where
        # (log a + u)^k is undefined for Re(k) <= 0; they must add nothing.
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
            ("lhs", "failed", "math range error"),
            ("zeta", "failed", "math range error"),
            ("series", "skipped", "Re(k) >= 1"),
            ("contour", "skipped", "Re(k) >= 1")]
        assert all(r.value is None for r in rep.routes.values())
        assert rep.residuals == {}


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


# The lhs, contour and log-Gamma integrands as composed before they were
# fused: per-node lambdas over a u-line h calling _half_sech and complex_pow.
# The fused integrands must reproduce them bit for bit, except where the
# ray-start singularity is subtracted (lhs at a = 1 with Re k < -3/2, contour
# with Re k > 1/2), which changes the values on purpose.
def _reference_half_sech(u):
    au = abs(u)
    if au > 700.0:
        return 0.0
    return math.exp(-au) / (1.0 + math.exp(-2.0 * au))


def _reference_split_quad(h, split, cfg):
    right = integrate_semi_infinite(lambda t: h(split + t), cfg)
    left = integrate_semi_infinite(lambda t: h(split - t), cfg)
    return QuadResult(
        right.value + left.value,
        right.err_estimate + left.err_estimate,
        right.n_evals + left.n_evals,
        right.converged and left.converged,
    )


def _reference_lhs(c):
    k = complex(c.k)
    log_a = c.a.log_value

    def h(u):
        w = _reference_half_sech(u)
        if w == 0.0:
            return 0j
        z = complex(log_a.real + u, log_a.imag)
        return -math.tanh(u) * complex_pow(z, k) * w

    split = -math.log(c.a.r) if c.a.theta == 0.0 else 0.0
    return _reference_split_quad(h, split, c.quad_cfg)


def _reference_contour(c):
    k = complex(c.k)
    log_a = c.a.log_value
    theta = log_a.imag
    ln_r = log_a.real
    pref = (0.25 * (cmath.exp(2j * math.pi * k) - 1.0)
            * cmath.exp(-0.5j * math.pi * k) * gamma(k + 1.0))

    def f(t):
        if t > 450.0:
            return 0j
        e = math.exp(-math.pi * t)
        sech = 2.0 * math.exp(-0.5 * math.pi * t) / (1.0 + e)
        osc = cmath.exp(complex(-t * theta, t * ln_r))
        return osc * cmath.exp(-k * math.log(t)) * sech

    res = integrate_semi_infinite(f, c.quad_cfg)
    scale = abs(pref)
    return QuadResult(pref * res.value, scale * res.err_estimate,
                      res.n_evals, res.converged)


def _reference_loggamma_direct(cfg):
    def h(u):
        w = _reference_half_sech(u)
        if w == 0.0:
            return 0j
        lu = cmath.log(complex(u, 0.0))
        return -math.tanh(u) * u * lu * w

    return _reference_split_quad(h, 0.0, cfg)


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
        if k.real == 0.0 and a.theta == 0.0 and a.r != 1.0:
            continue  # the reference raises there; see test_re_k_zero_with_real_a
        lhs_subtracted = a == A_ONE and k.real < -1.5
        for cap in CAPS:
            c = case(k, a, quad_cfg=QuadConfig(max_evals=cap))
            if case_violation(k, a) is None and not lhs_subtracted:
                _assert_bit_identical(lhs_integral(c), _reference_lhs(c))
                compared += 1
            if identities._contour_region(k) is None and k.real <= 0.5:
                _assert_bit_identical(rhs_contour(c), _reference_contour(c))
                compared += 1
    assert compared >= 6


def _zeta_oracle(mpmath, k, a):
    """The closed form by mpmath.zeta at 30 digits."""
    with mpmath.workdps(30):
        k = mpmath.mpc(k)
        shift = -1j * mpmath.mpc(math.log(a.r), a.theta) / (2 * mpmath.pi)
        pref = 2 ** (k - 1) * k * mpmath.pi ** k * mpmath.exp(0.5j * mpmath.pi * (k + 1))
        return complex(pref * (mpmath.zeta(1 - k, 0.25 + shift)
                               - mpmath.zeta(1 - k, 0.75 + shift)))


def test_subtracted_rays_match_zeta_oracle():
    # Both regions of the ray-start subtraction: the lhs at a = 1 with
    # Re k in (-2, -3/2) and the contour with Re k in (1/2, 1).  The plain
    # rule cannot integrate the cases nearest Re k = -2 and Re k = 1.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(6)
    cases = []
    for _ in range(50):
        k = complex(rng.uniform(-2.0, -1.5), rng.uniform(-5.0, 5.0))
        cases.append((lhs_integral, k, A_ONE))
    for _ in range(50):
        k = complex(rng.uniform(0.5, 1.0), rng.uniform(-5.0, 5.0))
        a = BranchedConstant(rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * math.pi))
        cases.append((rhs_contour, k, a))
    for route, k, a in cases:
        res = route(case(k, a))
        ref = _zeta_oracle(mpmath, k, a)
        assert res.converged, (route.__name__, k, a)
        assert abs(res.value - ref) <= max(res.err_estimate, 1e-10 * max(1.0, abs(ref))), \
            (route.__name__, k, a, res, ref)


@pytest.mark.parametrize("cap", CAPS)
def test_loggamma_direct_matches_reference(cap):
    cfg = QuadConfig(max_evals=cap)
    got = loggamma_case(cfg).routes["direct"]
    ref = _reference_loggamma_direct(cfg)
    _assert_bit_identical((got.value, got.err_estimate, got.n_evals),
                          (ref.value, ref.err_estimate, ref.n_evals))
    assert got.status == ("ok" if ref.converged else "unconverged")


def test_case_violation_rules():
    assert case_violation(-0.5 + 0j, BranchedConstant(2.0)) is not None
    assert case_violation(-2.5 + 0j, A_ONE) is not None
    assert case_violation(0.5 + 0j, BranchedConstant(2.0)) is None
    assert case_violation(-0.5 + 0j, BranchedConstant(2.0, 1.0)) is None


@functools.lru_cache(maxsize=None)  # the tests below share the oracle values
def _region_map(seed, n, re_k):
    """n seeded valid cases with Re k in re_k and |Im k| <= 5, each paired with
    its mpmath oracle value.  The constants cycle through a = 1, a real
    r in [0.5, 3] and r@theta with theta in [0, 2 pi); a draw that violates
    the case invariants is drawn again."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(seed)
    cases = []
    while len(cases) < n:
        k = complex(rng.uniform(*re_k), rng.uniform(-5.0, 5.0))
        kind = len(cases) % 3
        a = (A_ONE if kind == 0 else BranchedConstant(rng.uniform(0.5, 3.0)) if kind == 1
             else BranchedConstant(rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * math.pi)))
        if case_violation(k, a) is None:
            cases.append((k, a, _zeta_oracle(mpmath, k, a)))
    return cases


def _wrong_ok_routes(rep, ref):
    """The ok routes of a report that miss the oracle by more than 1e-6 + 1e-6 |ref|."""
    return [(name, r.value) for name, r in rep.routes.items()
            if r.status == "ok" and abs(r.value - ref) > 1e-6 + 1e-6 * abs(ref)]


MAIN_REGION = (7, 100, (-1.95, 8.0))


def test_region_map_ok_routes_match_oracle():
    # Aim 3 across every route's region: a route either meets the tolerance
    # against the oracle or reports a status other than ok.
    wrong = []
    for k, a, ref in _region_map(*MAIN_REGION):
        rep = verify(case(k, a))
        wrong += [(k, a, name, value, ref) for name, value in _wrong_ok_routes(rep, ref)]
    assert wrong == []


@pytest.mark.parametrize("cap", [40, 400])
def test_region_map_starved_quadrature_never_passes_wrong(cap):
    # Under an evaluation cap most quadratures stop unconverged.  A quadrature
    # that does claim convergence must be right, and a pass must still mean
    # that every ok route is right.
    verdicts = set()
    for k, a, ref in _region_map(*MAIN_REGION):
        rep = verify(case(k, a, quad_cfg=QuadConfig(max_evals=cap)))
        verdicts.add(rep.verdict)
        assert _wrong_ok_routes(rep, ref) == [], (k, a, rep)
    assert "partial" in verdicts


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: hurwitz_zeta returns wrong values with no "
                          "error for Re s < -8, so zeta is ok but off")
def test_region_map_large_re_k_ok_routes_match_oracle():
    wrong = []
    for k, a, ref in _region_map(8, 40, (9.0, 25.0)):
        rep = verify(case(k, a))
        wrong += [(k, a, name) for name, _ in _wrong_ok_routes(rep, ref)]
    assert wrong == []
