import cmath
import math
import random

import pytest

from zetaquad.complexfn import PoleError, log_gamma
from zetaquad.hurwitz import (
    hurwitz_zeta,
    hurwitz_zeta_ds,
    zeta_neg_int_oracle,
)

GAMMA_QUARTER = 3.6256099082219083
CATALAN_REF = 0.9159655941772190


def brute_force_zeta(s: complex, q: complex, n_terms: int = 20000) -> complex:
    """Independent oracle: direct partial sum plus an integral-rule tail.

    sum_{n>=N} (n+q)^{-s} ~ (N+q)^{1-s}/(s-1) + (N+q)^{-s}/2 + s (N+q)^{-s-1}/12.
    Adequate to ~1e-14 relative for Re(s) >= 2 and the N used here.
    """
    total = 0j
    for n in range(n_terms):
        total += (n + q) ** (-s)
    x = n_terms + q
    total += x ** (1 - s) / (s - 1) + 0.5 * x ** (-s) + s * x ** (-s - 1) / 12.0
    return total


class TestValues:
    def test_riemann_two(self):
        ref = math.pi ** 2 / 6
        assert abs(hurwitz_zeta(2.0, 1.0) - ref) <= 1e-12 * ref

    def test_s_zero_closed_form(self):
        assert hurwitz_zeta(0.0, 0.25) == pytest.approx(0.25, abs=1e-13)

    def test_quarter_brute_force(self):
        # zeta(2, 1/4) = pi^2 + 8G; both the brute-force oracle and the
        # Catalan reference agree on 17.197329154507109
        oracle = brute_force_zeta(2.0, 0.25)
        assert oracle.real == pytest.approx(math.pi ** 2 + 8 * CATALAN_REF, rel=1e-12)
        got = hurwitz_zeta(2.0, 0.25)
        assert abs(got - oracle) <= 1e-12 * abs(oracle)

    def test_pole(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 0.5)


class TestDerivative:
    # Lerch formula: zeta'(0, q) = log Gamma(q) - log(2 pi)/2
    def test_q_one(self):
        ref = -0.5 * math.log(2 * math.pi)
        assert hurwitz_zeta_ds(0.0, 1.0) == pytest.approx(ref, abs=1e-12)

    def test_q_half(self):
        ref = -0.5 * math.log(2.0)
        assert hurwitz_zeta_ds(0.0, 0.5) == pytest.approx(ref, abs=1e-12)

    def test_q_quarter(self):
        # log Gamma(1/4) - log(2 pi)/2 = 0.36908399149340472 (reference Gamma(1/4))
        ref = math.log(GAMMA_QUARTER) - 0.5 * math.log(2 * math.pi)
        assert ref == pytest.approx(0.36908399149340472, abs=1e-14)
        assert hurwitz_zeta_ds(0.0, 0.25) == pytest.approx(ref, abs=1e-12)

    def test_lerch_sweep(self):
        for q in (0.25, 1.0 / 3.0, 0.5, 0.75, 1.0, 1.5):
            lhs = hurwitz_zeta_ds(0.0, complex(q))
            rhs = log_gamma(complex(q)) - 0.5 * math.log(2 * math.pi)
            assert abs(lhs - rhs) <= 1e-10

    def test_finite_difference_cross_check(self):
        h = 1e-5
        for s, q in ((2.0, 0.7), (0.5 + 0.2j, 1.3 - 0.4j)):
            fd = (hurwitz_zeta(s + h, q) - hurwitz_zeta(s - h, q)) / (2 * h)
            assert abs(hurwitz_zeta_ds(s, q) - fd) <= 1e-8 * max(1.0, abs(fd))


class TestNegIntOracle:
    def test_n_zero(self):
        for q in (0.25, 0.9, 1 + 0.5j):
            assert zeta_neg_int_oracle(0, q) == pytest.approx(0.5 - q)

    def test_n_one_quarter(self):
        # B_2(1/4) = 1/16 - 1/4 + 1/6 = -1/48, then -B_2(q)/2 = 1/96
        assert zeta_neg_int_oracle(1, 0.25) == pytest.approx(1.0 / 96.0, rel=1e-13)

    def test_n_two_three_quarters(self):
        # B_3(3/4) = -3/64, then -B_3(q)/3 = 1/64
        assert zeta_neg_int_oracle(2, 0.75) == pytest.approx(1.0 / 64.0, rel=1e-13)

    def test_cap(self):
        with pytest.raises(ValueError):
            zeta_neg_int_oracle(21, 0.5)

    def test_agreement_with_engine(self):
        for n in range(5):
            for q in (0.25, 0.5, 0.75, 1.0, 1 + 0.5j):
                engine = hurwitz_zeta(complex(-n), complex(q))
                oracle = zeta_neg_int_oracle(n, complex(q))
                assert abs(engine - oracle) <= 1e-11 * max(1.0, abs(oracle))


class TestProperties:
    def test_recurrence(self):
        rng = random.Random(2024)
        done = 0
        while done < 50:
            s = complex(rng.uniform(-6, 6), rng.uniform(-2, 2))
            q = complex(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0))
            if abs(s) > 6 or abs(s - 1) < 0.2:
                continue
            lhs = hurwitz_zeta(s, q) - hurwitz_zeta(s, q + 1) - q ** (-s)
            scale = max(abs(hurwitz_zeta(s, q)), 1.0)
            assert abs(lhs) <= 1e-11 * scale
            done += 1

    def test_conjugation(self):
        for s, q in ((2.3 + 0.7j, 0.6 + 0.2j), (0.4 - 1.1j, 1.5 - 0.8j)):
            a = hurwitz_zeta(s.conjugate(), q.conjugate())
            b = hurwitz_zeta(s, q).conjugate()
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))

    def test_riemann_reduction(self):
        for s in (2.0, 3.0, 4.0):
            oracle = brute_force_zeta(s, 1.0)
            got = hurwitz_zeta(s, 1.0)
            assert abs(got - oracle) <= 1e-12 * abs(oracle)

    def test_preshift_region(self):
        # Re(q) <= 0 handled through the recurrence; the Bernoulli
        # polynomial closed form is valid there by continuation
        q = -0.3 + 0.2j
        assert abs(hurwitz_zeta(-2.0, q) - zeta_neg_int_oracle(2, q)) <= 1e-11
