import cmath
import functools
import itertools
import math
import random

import pytest

from zetaquad.complexfn import DomainError, PoleError, log_gamma
from zetaquad.identities import DEFAULT_A_GRID, DEFAULT_K_GRID, sweep
from zetaquad.hurwitz import (
    _N_CAP,
    _TAIL_TERMS,
    _TOLERANCE,
    ConvergenceError,
    _tail_steps,
    _value_weights,
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


def _assert_rows(rows):
    """The zeta map's one rule on rows (fn, s, q, reference, tol):
    |fn(s, q) - ref| <= tol max(1, |ref|)."""
    missed = [(fn.__name__, s, q, fn(s, q), ref) for fn, s, q, ref, tol in rows
              if not abs(fn(s, q) - ref) <= tol * max(1.0, abs(ref))]
    assert rows and missed == []


class TestValues:
    def test_s_zero_closed_form(self):
        _assert_rows([(hurwitz_zeta, 0.0, 0.25, 0.25, 1e-13)])

    def test_quarter_brute_force(self):
        # zeta(2, 1/4) = pi^2 + 8G; both the brute-force oracle and the
        # Catalan reference agree on 17.197329154507109
        oracle = brute_force_zeta(2.0, 0.25)
        assert oracle.real == pytest.approx(math.pi ** 2 + 8 * CATALAN_REF, rel=1e-12)
        _assert_rows([(hurwitz_zeta, 2.0, 0.25, oracle, 1e-12)])

    def test_pole(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 0.5)


HALF_LOG_TWO_PI = 0.5 * math.log(2 * math.pi)


class TestDerivative:
    # Lerch formula: zeta'(0, q) = log Gamma(q) - log(2 pi)/2
    def test_q_one(self):
        _assert_rows([(hurwitz_zeta_ds, 0.0, 1.0, -HALF_LOG_TWO_PI, 1e-12)])

    def test_q_half(self):
        _assert_rows([(hurwitz_zeta_ds, 0.0, 0.5, -0.5 * math.log(2.0), 1e-12)])

    def test_q_quarter(self):
        # log Gamma(1/4) - log(2 pi)/2 = 0.36908399149340472 (reference Gamma(1/4))
        ref = math.log(GAMMA_QUARTER) - HALF_LOG_TWO_PI
        assert ref == pytest.approx(0.36908399149340472, abs=1e-14)
        _assert_rows([(hurwitz_zeta_ds, 0.0, 0.25, ref, 1e-12)])

    def test_lerch_sweep(self):
        _assert_rows([(hurwitz_zeta_ds, 0.0, q, log_gamma(complex(q)) - HALF_LOG_TWO_PI, 1e-12)
                     for q in (0.25, 1.0 / 3.0, 0.5, 0.75, 1.0, 1.5)])

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
        with pytest.raises(ValueError):
            zeta_neg_int_oracle(-1, 0.5)


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
        _assert_rows([(hurwitz_zeta, s, 1.0, brute_force_zeta(s, 1.0), 1e-12)
                     for s in (2.0, 3.0, 4.0)])

    def test_preshift_region(self):
        # Re(q) <= 0: the direct sum runs from n = 0 past the first n with
        # Re(n + q) > 0; the Bernoulli polynomial closed form is valid there
        # by continuation
        q = -0.3 + 0.2j
        _assert_rows([(hurwitz_zeta, -2.0, q, zeta_neg_int_oracle(2, q), 1e-11)])


# The engine before the direct sum was extended across doublings: every pass
# re-sums all direct terms and carries the value and the derivative together.
# Kept as the reference for the single-quantity engine, with its powers
# written as the engine writes them, Python's principal **.  At Re s >= 1 a
# pass ends at the first monitored tail term at or below stop_rel times
# max(1, |monitored sum before the tail|); below, stop_rel is None and every
# pass sums the full tail.  passes, if given, gets each pass's N.
def _reference_em_pass(s, q, n_direct, coefs, monitor_derivative, stop_rel):
    v = 0j
    d = 0j
    for i in range(n_direct):
        w = i + q
        lw = cmath.log(w)
        p = w ** -s
        v += p
        d -= lw * p
    x = n_direct + q
    lx = cmath.log(x)
    xs = x ** -s
    sm1 = s - 1.0
    v += x * xs / sm1
    d += x * xs * (-lx / sm1 - 1.0 / (sm1 * sm1))
    v += 0.5 * xs
    d -= 0.5 * lx * xs
    stop = None if stop_rel is None else stop_rel * max(1.0, abs(d if monitor_derivative else v))
    prod = s
    dprod = 1.0 + 0j
    pw = x ** -(s + 1.0)
    step = 1.0 / (x * x)
    neglected = math.inf
    prev_mag = math.inf
    for j, c in enumerate(coefs, 1):
        term = c * prod * pw
        dterm = c * (dprod - prod * lx) * pw
        mag = abs(dterm) if monitor_derivative else abs(term)
        if stop is not None and mag <= stop:
            neglected = mag
            break
        if j == _TAIL_TERMS + 1:
            neglected = mag
            break
        if j >= 3 and mag > prev_mag:
            neglected = mag
            break
        v += term
        d += dterm
        prev_mag = mag
        for i in (2 * j - 1, 2 * j):
            dprod = dprod * (s + i) + prod
            prod = prod * (s + i)
        pw *= step
    return v, d, neglected


def _reference_hurwitz_pair(s, q, monitor_derivative, passes=None):
    s = complex(s)
    q = complex(q)
    if s == 1:
        raise PoleError("hurwitz zeta pole at s = 1")
    if q.imag == 0.0 and q.real <= 0.0 and q.real == math.floor(q.real):
        raise DomainError(f"hurwitz zeta undefined at non-positive integer q = {int(q.real)}")
    coefs = [c for c, _, _ in _tail_steps()]
    m = max(0, math.floor(-q.real) + 1)
    n = m + 1
    if s.real >= 1.0:
        reach = abs(s.imag) + 2.0 * math.log(1.0 / _TOLERANCE)
        stop_rel = 0.01 * _TOLERANCE
    else:
        # |Im s| + 20 + ln(gap), gap = |s - n| for the non-positive integer n
        # nearest s, used only at Re s <= 1/2 with gap < 1; at gap = 0, |Im s|
        reach = abs(s.imag)
        gap = abs(s - round(s.real)) if s.real <= 0.5 else 1.0
        if gap:
            reach += 20.0
            if gap < 1.0:
                reach += math.log(gap)
        stop_rel = None
    while n - m < _N_CAP and 2.0 * math.pi * abs(n + q) < reach:
        n = 2 * n - m
    while True:
        if passes is not None:
            passes.append(n)
        v, d, neglected = _reference_em_pass(s, q, n, coefs, monitor_derivative, stop_rel)
        ref = abs(d) if monitor_derivative else abs(v)
        if neglected <= _TOLERANCE * max(1.0, ref):
            return v, d
        if n - m >= _N_CAP:
            raise ConvergenceError(
                f"tail term {neglected:.3e} above tolerance at N = {n}")
        n = 2 * n - m


def _reference_zeta(s, q):
    return _reference_hurwitz_pair(s, q, False)[0]


def _reference_zeta_ds(s, q):
    return _reference_hurwitz_pair(s, q, True)[1]


def _outcome(fn, s, q):
    """The value's repr, or the exception's type and message."""
    try:
        return repr(fn(s, q))
    except Exception as exc:  # the exception is the outcome
        return (type(exc).__name__, str(exc))


def _reference_points():
    rng = random.Random(9)
    points = [(complex(rng.uniform(-10.0, 12.0), rng.uniform(-60.0, 60.0)),
               complex(rng.uniform(-2.5, 2.0), rng.uniform(-1.0, 1.0)))
              for _ in range(400)]
    points += [(complex(n), complex(q)) for n in range(-4, 5) if n != 1
               for q in (0.25, 0.75, 1 + 0.5j)]
    # near the non-positive integers, where the first N depends on ln|s + n|
    points += [(s, complex(q)) for n in range(7)
               for s in (complex(-n - 1e-3), complex(-n + 1e-3), complex(-n, 1e-9))
               for q in (0.25, 0.75, 1 + 0.5j)]
    points += [(2 + 0j, -1.5 + 0j), (0.5 - 3j, -0.5 + 0j), (1 + 0j, 0.5 + 0j),
               (2 + 0j, -2 + 0j), (2 + 0j, 0j)]
    return points


class TestReferenceEngine:
    def test_outcomes_match_reference(self):
        outcomes = set()
        for s, q in _reference_points():
            value = _outcome(hurwitz_zeta, s, q)
            assert value == _outcome(_reference_zeta, s, q), (s, q)
            derivative = _outcome(hurwitz_zeta_ds, s, q)
            assert derivative == _outcome(_reference_zeta_ds, s, q), (s, q)
            outcomes.update(o[0] for o in (value, derivative) if isinstance(o, tuple))
        # the pole and the non-positive integer q are compared, not only values
        assert {"PoleError", "DomainError"} <= outcomes

    def test_repeated_s_matches_reference(self):
        # Calls in sweep order, where the tail weights of s are reused: q,
        # then q + 1/2, as rhs_zeta calls, with the value and derivative
        # calls interleaved; each pair twice, so below Re s = 1 every value
        # call after the first of an s reads the weights the first one built.
        for s, q in _reference_points():
            for _ in range(2):
                for q_call in (q, q + 0.5):
                    assert (_outcome(hurwitz_zeta, s, q_call)
                            == _outcome(_reference_zeta, s, q_call)), (s, q_call)
                    assert (_outcome(hurwitz_zeta_ds, s, q_call)
                            == _outcome(_reference_zeta_ds, s, q_call)), (s, q_call)

    @pytest.mark.parametrize("x", [2.0, -3.0, 0.5, -2.5])
    def test_signed_zero_imaginary_part_of_s(self, x):
        # s = x + 0j and x - 0j are equal, so in either order the second call
        # reads the weights the first built (below Re s = 1; at x = 2 each call
        # forms its own); they differ only in the signs of zero parts, and
        # adding a signed zero to a sum begun at +0j changes nothing
        for q, imags in itertools.product((0.25, 0.75, 0.25 + 0.1j),
                                          ((0.0, -0.0), (-0.0, 0.0))):
            _value_weights.cache_clear()
            for imag in imags:
                s = complex(x, imag)
                assert _outcome(hurwitz_zeta, s, q) == _outcome(_reference_zeta, s, q)
                assert _outcome(hurwitz_zeta_ds, s, q) == _outcome(_reference_zeta_ds, s, q)

    def test_default_sweep_reuses_value_weights(self):
        # rhs_zeta's two calls share s, and sweep runs every a of one k back
        # to back: one miss per distinct k with Re s = Re(1 - k) < 1, every
        # other call there a hit; the 3 k with Re s >= 1 form their weights
        # as they sum them and do not read the memo
        _value_weights.cache_clear()
        sweep(DEFAULT_K_GRID, DEFAULT_A_GRID)
        info = _value_weights.cache_info()
        assert (info.misses, info.hits) == (4, 36)


def _passes(s, q, monitor_derivative=False):
    """The N of each pass the reference makes for (s, q)."""
    passes = []
    _reference_hurwitz_pair(s, q, monitor_derivative, passes)
    return passes


class TestPassCount:
    # The reference's passes are the engine's, since TestReferenceEngine
    # matches their outcomes bit for bit, doublings included.
    def test_half_starts_at_n_4(self):
        # Re s = 1/2, gap 1/2: 2 pi |N + q| >= 20 + ln(1/2) first at N = 4,
        # where the tail meets the tolerance at q = 3/4 but not at q = 1/4
        for fn in (False, True):
            assert _passes(0.5, 0.25, fn) == [4, 8]
            assert _passes(0.5, 0.75, fn) == [4]

    @pytest.mark.parametrize("n", range(7))
    def test_integer_s_keeps_first_start(self, n):
        # gap 0: the tail's 1/Gamma(s) factor vanishes, so the value's tail
        # is exact at N = m + 1 and no reach is added
        for q, m in ((0.25, 0), (0.75, 0), (1 + 0.5j, 0), (-1.5 + 0.2j, 2)):
            assert _passes(complex(-n), q)[0] == m + 1
            assert _passes(complex(-n), q, True)[0] == m + 1

    def test_workload_box_below_re_s_1(self):
        # the zeta map's "workload" stratum at Re s < 1: 92 points, each
        # function once, and half the calls take one pass
        counts = [len(_passes(s, q, fn)) for s, q in _box_points(*_WORKLOAD_BOX)
                  if s.real < 1.0
                  for fn in (False, True)]
        assert (len(counts), sum(counts), counts.count(1)) == (184, 276, 92)


class TestShiftBound:
    def test_far_negative_q_refused(self):
        # without the bound the direct sum would take about 10^12 terms
        for fn in (hurwitz_zeta, hurwitz_zeta_ds):
            with pytest.raises(DomainError, match="below -200000"):
                fn(2.0, -1e12 + 0.5)

    def test_non_finite_q_refused(self):
        # refused before math.floor(-Re q), which raises on nan and inf
        for fn in (hurwitz_zeta, hurwitz_zeta_ds):
            for q in (complex("nan"), math.inf, -math.inf, complex(0.5, math.inf)):
                with pytest.raises(DomainError, match="q must be finite"):
                    fn(2.0, q)

    def test_non_finite_s_refused(self):
        # refused before the tail, where a nan s gives a nan term, an
        # infinite one a ZeroDivisionError, and 1/(s - 1)^2 a false overflow
        for fn in (hurwitz_zeta, hurwitz_zeta_ds):
            for s in (complex("nan"), math.inf, -math.inf, complex(0.5, math.inf)):
                with pytest.raises(DomainError, match="s must be finite"):
                    fn(s, 0.5)

    def test_bound_edge_still_shifts(self):
        q = -float(_N_CAP) + 0.5
        assert _outcome(hurwitz_zeta, 2.0, q) == _outcome(_reference_zeta, 2.0, q)
        # the terms n + q run over the half-integers from -199999.5 up, so
        # the sum is pi^2 less the tail beyond 200000, about 5e-6
        assert abs(hurwitz_zeta(2.0, q) - (math.pi ** 2 - 5e-6)) <= 1e-10


    @pytest.mark.parametrize("fn,s,q", [(hurwitz_zeta, 2.0, 0.0), (hurwitz_zeta, 2.0, -3.0),
                                        (hurwitz_zeta_ds, -2.0, -1.0)])
    def test_non_positive_integer_q_refused(self, fn, s, q):
        with pytest.raises(DomainError, match="non-positive integer q"):
            fn(s, q)


class TestOverflow:
    @pytest.mark.parametrize("s,q", [(-1.5, 1e200), (-3.0, 1e100), (-0.5, 1e300),
                                     (-1.5, 1e130)])
    def test_overflowing_sum_refused(self, s, q):
        # x x^{-s} = (N + q)^{1-s} is not a finite float, so neither is the sum
        for fn in (hurwitz_zeta, hurwitz_zeta_ds):
            with pytest.raises(OverflowError, match="zeta sum overflows at N = "):
                fn(s, q)


class TestNanTail:
    def test_nan_tail_term_refused(self):
        # (1e155 + 1)^-2 overflows to nan in Python's integral power, and a
        # larger N only makes it worse: value and derivative refuse the
        # first tail, without doubling N
        for fn in (hurwitz_zeta, hurwitz_zeta_ds):
            with pytest.raises(ConvergenceError, match="^tail term nan above tolerance at N = 1$"):
                fn(2, 1e155)


class TestDerivativeNearPole:
    @pytest.mark.parametrize("s", [1 + 1e-161j, 1 + 1e-163j, 1 + 1e-200j])
    def test_unrepresentable_pole_term_raises_overflow(self, s):
        # 1/(s - 1)^2 overflows (1e-161) or divides by an underflowed 0
        with pytest.raises(OverflowError, match="overflows"):
            hurwitz_zeta_ds(s, 0.5)

    def test_representable_pole_term_unchanged(self):
        s = 1 + 1e-150j
        assert _outcome(hurwitz_zeta_ds, s, 0.5) == _outcome(_reference_zeta_ds, s, 0.5)
        assert cmath.isfinite(hurwitz_zeta_ds(s, 0.5))


# The zeta map (ROADMAP aim 3): named strata of seeded rows against mpmath,
# each reference computed once and checked by _assert_rows; a known defect is
# a strict xfail (stratum, fn) pair in KNOWN that names its ROADMAP item.
BOTH = (hurwitz_zeta, hurwitz_zeta_ds)


def _with_mpmath(points, tol):
    """Rows for both functions at each (s, q), against mpmath at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return [(fn, s, q, complex(mpmath.zeta(s, q, d)), tol) for s, q in points
                for fn, d in zip(BOTH, (0, 1))]


def _nonpositive_q():
    # Re(q) in [-3, 0], where the direct sum starts below Re(n + q) = 0; a
    # quarter of the draws on the real axis, none near a pole in s or q
    rng = random.Random(31)
    points = []
    for i in range(150):
        s = complex(rng.uniform(-6.0, 8.0), rng.uniform(-20.0, 20.0))
        q = complex(rng.uniform(-3.0, 0.0), 0.0 if i % 4 == 0 else rng.uniform(-1.0, 1.0))
        if abs(s - 1) >= 0.2 and min(abs(q + m) for m in range(4)) >= 0.05:
            points.append((s, q))
    assert len(points) >= 120
    return _with_mpmath(points, 1e-8)


def _zeta_map_q(rng):
    """A q in the benchmark's zeta map: Re q in [0.25, 1.75], |Im q| <= 0.25."""
    return complex(rng.uniform(0.25, 1.75), rng.uniform(-0.25, 0.25))


def _box_points(seed, n, re_s, im_s):
    """n seeded (s, q) with Re s in re_s, |Im s| <= im_s and q in the zeta map."""
    rng = random.Random(seed)
    return [(complex(rng.uniform(*re_s), rng.uniform(-im_s, im_s)), _zeta_map_q(rng))
            for _ in range(n)]


def _box(seed, n, re_s, im_s, tol):
    return _with_mpmath(_box_points(seed, n, re_s, im_s), tol)


def _re_s_at_least_1():
    # Re s in [1, 12], |Im s| <= 60, where one Euler-Maclaurin pass sums a
    # short tail: q from the benchmark's zeta map, and every fourth draw with
    # Re q in [-3, 0]; none near a pole in s or q.  The tolerance is met
    # since that pass stops at a hundredth of the engine's; the full 26-term
    # tail at a smaller N was up to 7.2e-14 off here.
    rng = random.Random(61)
    points = []
    for i in range(200):
        s = complex(rng.uniform(1.0, 12.0), rng.uniform(-60.0, 60.0))
        if i % 4 == 3:
            q = complex(rng.uniform(-3.0, 0.0), rng.uniform(-1.0, 1.0))
        else:
            q = _zeta_map_q(rng)
        if abs(s - 1) >= 0.2 and min(abs(q + m) for m in range(4)) >= 0.05:
            points.append((s, q))
    assert len(points) >= 190
    return _with_mpmath(points, 3e-14)


def _below_re_s_1():
    # Re s in [-2, 1), |Im s| <= 60, where the first N depends on how near s
    # lies to a non-positive integer: every fifth draw lies 1e-12 to 1e-1
    # from 0, -1 or -2, at a random angle; q from the zeta map, none near
    # the pole at s = 1.
    rng = random.Random(71)
    points = []
    for i in range(200):
        if i % 5 == 4:
            gap = 10.0 ** rng.uniform(-12.0, -1.0)
            s = rng.choice((0, -1, -2)) + cmath.rect(gap, rng.uniform(-math.pi, math.pi))
        else:
            s = complex(rng.uniform(-2.0, 1.0), rng.uniform(-60.0, 60.0))
        if abs(s - 1) >= 0.2:
            points.append((s, _zeta_map_q(rng)))
    assert len(points) >= 195
    return _with_mpmath(points, 5e-13)


# the benchmark's zeta map: Re s in [-6, 10], |Im s| <= 50
_WORKLOAD_BOX = (43, 200, (-6.0, 10.0), 50.0)
ZETA_STRATA = {  # name: () -> rows for both functions
    "nonpositive_q": _nonpositive_q,
    "workload": functools.partial(_box, *_WORKLOAD_BOX, 1e-9),
    "below_re_s_minus_9": functools.partial(_box, 51, 40, (-25.0, -9.0), 20.0, 1e-9),
    "re_s_at_least_1": _re_s_at_least_1,
    "below_re_s_1": _below_re_s_1,
}
_ITEM_3 = pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 3: below Re s = -8.8 "
                            "the engine returns wrong values with no error")
KNOWN = {("below_re_s_minus_9", fn): _ITEM_3 for fn in BOTH}


@functools.lru_cache(maxsize=None)
def _rows(name):
    return ZETA_STRATA[name]()


@pytest.mark.parametrize("name, fn", [
    pytest.param(name, fn, marks=KNOWN.get((name, fn), ()), id=f"{name}-{fn.__name__}")
    for name in ZETA_STRATA for fn in BOTH])
def test_zeta_map(name, fn):
    _assert_rows([row for row in _rows(name) if row[0] is fn])


# Two points inside the benchmark's zeta map where the derivative misses the
# engine's own tolerance 1e-13 by _assert_rows' rule without raising: the
# direct sum's cancellation, which its log factors make worse (ROADMAP item 3).
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: hurwitz_zeta_ds is 2.6e-12 and 8e-12 relative off")
@pytest.mark.parametrize("s, q", [
    pytest.param(-6 + 1e-6, 0.8 + 0.1j, id="near_minus_6"),
    pytest.param(-4.937330517269479 - 8.955073809227073j,
                 0.5837070316911317 - 0.09288602555877917j, id="zeta_seed_1"),
])
def test_derivative_misses_inside_the_zeta_map(s, q):
    _assert_rows([row for row in _with_mpmath([(s, q)], 1e-13) if row[0] is hurwitz_zeta_ds])
