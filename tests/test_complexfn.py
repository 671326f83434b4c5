import cmath
import functools
import math
import random
from fractions import Fraction

import pytest

from zetaquad.complexfn import (
    EPS,
    BranchedConstant,
    DomainError,
    PoleError,
    bernoulli_numbers,
    complex_pow,
    gamma,
    log_gamma,
)
from zetaquad.hurwitz import _tail_steps

# >= 15-digit reference values
GAMMA_QUARTER = 3.6256099082219083
SQRT_PI = 1.7724538509055160


def _sample_points(n, rng):
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if min(abs(z - m) for m in range(-6, 1)) >= 0.1 and \
           min(abs((1 - z) - m) for m in range(-6, 1)) >= 0.1:
            pts.append(z)
    return pts


class TestComplexPow:
    def test_zeroth_power(self):
        assert complex_pow(1j, 0.0) == 1

    def test_principal_square_root(self):
        assert complex_pow(-1.0, 0.5) == pytest.approx(1j)
        # the sign of a zero imaginary part picks the side of the cut, as in cmath.log
        assert complex_pow(complex(-2.0, -0.0), 0.5).imag == pytest.approx(-math.sqrt(2.0))
        assert complex_pow(complex(-2.0, 0.0), 0.5).imag == pytest.approx(math.sqrt(2.0))

    def test_i_to_zero(self):
        # the k + 1 exponent of the closed form at k = -1
        assert complex_pow(1j, -1 + 1.0) == 1

    def test_zero_base(self):
        assert complex_pow(0.0, 2.5) == 0
        with pytest.raises(DomainError):
            complex_pow(0.0, -1.0)
        with pytest.raises(DomainError):
            complex_pow(0.0, 1j)

    def test_integer_power_matches_multiplication(self):
        rng = random.Random(7)
        for _ in range(40):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 0.1:
                continue
            m = rng.randint(-4, 4)
            direct = 1 + 0j
            for _ in range(abs(m)):
                direct *= z
            if m < 0:
                direct = 1 / direct
            got = complex_pow(z, complex(m))
            assert abs(got - direct) <= 1e-12 * abs(direct)

    def test_matches_mpmath_principal_power(self):
        # |z| log-uniform over the double range with a random argument, a
        # fifth of the draws on the real axis of either sign (imaginary part
        # +0.0); Re k in [-2, 8], real k for a third of the draws.  A power
        # carries the rounding of k log z, so the bound grows with |k log z|.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(23)
        compared = 0
        worst = 0.0
        with mpmath.workdps(30):
            for i in range(4000):
                mod = 10.0 ** rng.uniform(-300.0, 300.0)
                if i % 5 == 0:
                    z = complex(rng.choice((-mod, mod)), 0.0)
                else:
                    z = cmath.rect(mod, rng.uniform(-math.pi, math.pi))
                k = complex(rng.uniform(-2.0, 8.0), 0.0 if i % 3 == 0 else rng.uniform(-5.0, 5.0))
                ref = mpmath.mpc(z) ** mpmath.mpc(k)
                if not 1e-290 <= abs(ref) <= 1e290:
                    continue
                ref = complex(ref)
                ratio = abs(complex_pow(z, k) - ref) / (
                    4.0 * EPS * abs(ref) * (1.0 + abs(k * cmath.log(z))))
                worst = max(worst, ratio)
                compared += 1
        assert compared >= 1800
        assert worst <= 1.0, worst


class TestGamma:
    def test_half(self):
        assert abs(gamma(0.5) - SQRT_PI) <= 1e-13 * SQRT_PI

    def test_factorial(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_negative_three_quarters(self):
        # recurrence: Gamma(-3/4) = -(4/3) Gamma(1/4)
        ref = -(4.0 / 3.0) * GAMMA_QUARTER
        assert abs(gamma(-0.75) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("z", [0.0, -1.0, -5.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            gamma(z)

    def test_reflection(self):
        rng = random.Random(11)
        for z in _sample_points(100, rng):
            val = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
            assert abs(val - 1) <= 1e-12

    def test_recurrence(self):
        rng = random.Random(12)
        for z in _sample_points(100, rng):
            lhs = gamma(z + 1)
            assert abs(lhs - z * gamma(z)) <= 1e-12 * abs(lhs)

    def test_near_poles_match_mpmath(self):
        # exp of the whole log Gamma: no rounded sin(pi z) from a reflection
        # (which was 3.3e-11 off at n = 30, delta = 1e-4)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n in range(1, 31):
                for delta in (1e-2, -1e-2, 1e-4, -1e-4, 0.3, -0.3):
                    z = -n + delta
                    ref = complex(mpmath.gamma(mpmath.mpf(z)))
                    assert abs(gamma(z) - ref) <= 1e-12 * abs(ref), (n, delta)

    def test_conjugation(self):
        rng = random.Random(13)
        for z in _sample_points(50, rng):
            a = gamma(z.conjugate())
            b = gamma(z).conjugate()
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


class TestLogGamma:
    def test_one_and_two(self):
        assert abs(log_gamma(1.0)) <= 1e-13
        assert abs(log_gamma(2.0)) <= 1e-13

    def test_quarter(self):
        ref = math.log(GAMMA_QUARTER)
        assert abs(log_gamma(0.25) - ref) <= 1e-12

    def test_real_on_positive_axis(self):
        for x in (0.3, 1.7, 4.2):
            assert log_gamma(x).imag == 0.0

    def test_exp_recovers_gamma(self):
        rng = random.Random(14)
        for z in _sample_points(60, rng):
            g = gamma(z)
            assert abs(cmath.exp(log_gamma(z)) - g) <= 1e-11 * abs(g)

    def test_pole(self):
        with pytest.raises(PoleError):
            log_gamma(-2.0)

    @pytest.mark.parametrize("fn", [log_gamma, gamma])
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(0.5, math.inf),
                                   complex(math.nan, 0.0)])
    def test_non_finite_refused(self, fn, z):
        # refused before the pole test, whose math.floor raises on an
        # infinite real part; past it a nan would give gamma nan+nanj
        with pytest.raises(DomainError, match="z must be finite"):
            fn(z)

    def test_shift_cap(self):
        # the recurrence would shift |Re z| times; beyond the cap it refuses
        mpmath = pytest.importorskip("mpmath")
        z = -199999.5 + 0.5j
        with mpmath.workdps(30):
            ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        assert abs(log_gamma(z) - ref) <= 1e-12 * abs(ref)
        for z in (-200000.5 + 0.5j, -1e15 + 0.5j):
            with pytest.raises(DomainError, match="too many shifts"):
                log_gamma(z)
            with pytest.raises(DomainError, match="too many shifts"):
                gamma(z)


@functools.lru_cache(maxsize=None)
def _bernoulli_reference(n_max):
    """B_0..B_{n_max} from the defining recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0
    in exact rationals, each rounded once to a float."""
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(n):
            if b[j]:
                acc += math.comb(n + 1, j) * b[j]
        b.append(-acc / (n + 1))
    return tuple(float(x) for x in b)


class TestBernoulli:
    @pytest.mark.parametrize("n_max", [1, 2, 3, 52, 53, 200])
    def test_bit_identical_to_exact_recurrence(self, n_max):
        # the tangent-number table rounds each B_n once, as float(Fraction) does
        ref = _bernoulli_reference(200)[:n_max + 1]
        assert [repr(x) for x in bernoulli_numbers(n_max)] == [repr(x) for x in ref]

    def test_tail_coefficients_unchanged(self):
        # hurwitz's B_2j / (2j)! for j = 1 .. 26, from the reference table,
        # with the float offsets 2j - 1 and 2j of s in P_{j+1}(s) / P_j(s)
        ref = _bernoulli_reference(200)
        expected = [ref[2 * j] / math.factorial(2 * j) for j in range(1, 27)]
        steps = _tail_steps()
        assert [repr(c) for c, _, _ in steps] == [repr(x) for x in expected]
        assert [(repr(odd), repr(even)) for _, odd, even in steps] == [
            (repr(2.0 * j - 1.0), repr(2.0 * j)) for j in range(1, 27)]

    def test_first_values(self):
        t = bernoulli_numbers(2)
        assert t == (1.0, -0.5, pytest.approx(1.0 / 6.0))

    def test_odd_vanish(self):
        t = bernoulli_numbers(15)
        for n in range(3, 16, 2):
            assert t[n] == 0.0

    def test_b12(self):
        assert bernoulli_numbers(12)[12] == pytest.approx(-691.0 / 2730.0, rel=1e-14)

    def test_independent_exact_rational_oracle(self):
        # Akiyama-Tanigawa algorithm, exact rationals, B_1 = -1/2 convention
        n_max = 20
        a = [Fraction(1, m + 1) for m in range(n_max + 1)]
        oracle = []
        for m in range(n_max + 1):
            for j in range(m, 0, -1):
                a[j - 1] = j * (a[j - 1] - a[j])
            oracle.append(a[0])
        # Akiyama-Tanigawa yields B_1 = +1/2; flip to the B^- convention
        oracle[1] = -oracle[1]
        table = bernoulli_numbers(n_max)
        for n, frac in enumerate(oracle):
            assert table[n] == pytest.approx(float(frac), abs=1e-15)

    def test_cap(self):
        with pytest.raises(DomainError):
            bernoulli_numbers(201)
        with pytest.raises(DomainError):
            bernoulli_numbers(0)


class TestBranchedConstant:
    def test_log_value(self):
        a = BranchedConstant(2.0, 3 * math.pi / 4)
        assert a.log_value == complex(math.log(2.0), 3 * math.pi / 4)

    def test_invariants(self):
        with pytest.raises(DomainError):
            BranchedConstant(0.0)
        with pytest.raises(DomainError):
            BranchedConstant(1.0, -0.1)
        with pytest.raises(DomainError):
            BranchedConstant(1.0, 2 * math.pi)

    def test_negative_zero_argument_normalised(self):
        # -0.0 passes 0 <= theta; kept, it would put log a + u on the lower
        # edge of the cut, where a negative real takes argument -pi
        for a in (BranchedConstant(2.0, -0.0), BranchedConstant(2.0)._replace(theta=-0.0)):
            assert math.copysign(1.0, a.theta) == 1.0
            assert math.copysign(1.0, a.log_value.imag) == 1.0

    @pytest.mark.parametrize("r,message", [(math.inf, "modulus must be finite, got inf"),
                                           (math.nan, "modulus must be positive, got nan")])
    def test_non_finite_modulus_rejected(self, r, message):
        # an infinite r used to be accepted, and verify then raised
        # "cannot convert float NaN to integer"
        with pytest.raises(DomainError, match=message):
            BranchedConstant(r)
