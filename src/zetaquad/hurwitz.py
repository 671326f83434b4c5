"""Hurwitz zeta zeta(s, q) and its s-derivative via Euler-Maclaurin summation.

The expansion is

    zeta(s, q) = sum_{n=0}^{N-1} (n+q)^{-s}
               + (N+q)^{1-s} / (s-1)
               + (N+q)^{-s} / 2
               + sum_{j=1}^{M} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * (N+q)^{-s-2j+1}

with M at most 25.  Let m count the direct terms with Re(n + q) <= 0 (none
when Re(q) > 0).  N - m runs through the powers of two, so the tail always
starts at Re(N + q) > 1.  The first N tried is the first at which
2 pi |N + q| reaches |Im s| plus a margin: 2 ln(1/tolerance) at Re(s) >= 1,
and 20 + ln(gap) below, where gap = |s - n| is the distance to the nearest
non-positive integer n, counted only at Re(s) <= 1/2 with gap < 1; at gap = 0
the margin is 0.  Below that N a tail seldom converges in one pass, and at
Re(s) >= 1 needs many terms.  A tail
ends at its first neglected term: the 26th, the first (j >= 3) larger than
the one before, or, at Re(s) >= 1 only, the first within a hundredth of the
tolerance.  N - m doubles until that term drops below the fixed tolerance
1e-13, relative to the quantity being computed once that exceeds 1; each
doubling adds only the new direct terms to the sum kept from the
previous one.  N - m reaching _N_CAP unconverged, or a nan tail term, raises
ConvergenceError, and a sum that is not finite, as where (N+q)^{1-s}
overflows, OverflowError.  A call sums only the quantity it returns:
hurwitz_zeta the expansion above, hurwitz_zeta_ds its term-by-term
s-derivative.  A non-finite s or q, a non-positive integer q, where a direct
term has no value, and Re(q) < -_N_CAP, which would take more direct terms
than the cap on summed terms, raise DomainError.  All powers are Python's
principal ``**``, the branch fixed in complexfn.

The tail's factors that depend on s alone come from the recurrence
P_{j+1} = P_j (s+2j-1)(s+2j) from P_1 = s: for the value B_{2j}/(2j)! P_j(s),
for the derivative B_{2j}/(2j)!, P_j(s) and dP_j/ds by the product rule.
At Re(s) >= 1 each pass forms them as it sums its few terms.  Below, every
pass sums all 26, from weights built once per call, and one memo keeps the
value's weights of the last such s, as rhs_zeta's two calls share s, and so
does every a of one k in a sweep.  It is keyed on the value of s: the
weights of 0.5+0j and 0.5-0j differ only in the signs of zero parts, and
every sum here starts at +0j, to which adding a signed zero changes nothing.
The derivative builds its weights on every call, since no route repeats its
s.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .complexfn import DomainError, PoleError, _is_nonpositive_integer, bernoulli_numbers

__all__ = [
    "ConvergenceError",
    "hurwitz_zeta",
    "hurwitz_zeta_ds",
    "zeta_neg_int_oracle",
]


class ConvergenceError(ArithmeticError):
    """A sum missed its tolerance: a numeric failure, so an ArithmeticError."""


_TAIL_TERMS = 25
_TOLERANCE = 1e-13
_N_CAP = 200_000
_MARGIN = math.log(1.0 / _TOLERANCE)
_LOW_MARGIN = 20.0  # about 2/3 _MARGIN: the first N's reach below Re s = 1
_SHORT_STOP = 0.01 * _TOLERANCE  # at Re s >= 1 a term this small, relative, ends a tail


@lru_cache(maxsize=None)
def _tail_steps() -> tuple[tuple[float, float, float], ...]:
    """(B_{2j}/(2j)!, 2j - 1, 2j) for j = 1 .. _TAIL_TERMS + 1, at index j - 1:
    the coefficient of term j and the offsets of s in P_{j+1}(s) / P_j(s)."""
    bern = bernoulli_numbers(2 * _TAIL_TERMS + 2)
    return tuple((bern[2 * j] / math.factorial(2 * j), 2.0 * j - 1.0, 2.0 * j)
                 for j in range(1, _TAIL_TERMS + 2))


@lru_cache(maxsize=1)
def _value_weights(s: complex) -> tuple[complex, ...]:
    """B_{2j}/(2j)! P_j(s), P_j(s) = s(s+1)...(s+2j-2), for
    j = 1 .. _TAIL_TERMS + 1 at index j - 1."""
    prod = s
    weights = []
    append = weights.append
    for c, odd, even in _tail_steps():
        append(c * prod)
        prod = prod * (s + odd) * (s + even)
    return tuple(weights)


def _derivative_weights(s: complex) -> list[tuple[float, complex, complex]]:
    """(B_{2j}/(2j)!, P_j(s), dP_j/ds) for _value_weights' j, dP_j/ds by the
    product rule."""
    prod = s
    dprod = 1.0 + 0j
    weights = []
    append = weights.append
    for c, odd, even in _tail_steps():
        append((c, prod, dprod))
        a = s + odd
        b = s + even
        dprod = dprod * a + prod
        prod = prod * a
        dprod = dprod * b + prod
        prod = prod * b
    return weights


def _hurwitz(s: complex, q: complex, derivative: bool) -> complex:
    """zeta(s, q), or d/ds zeta(s, q) if derivative; see the module docstring."""
    s = complex(s)
    q = complex(q)
    if s == 1:
        raise PoleError("hurwitz zeta pole at s = 1")
    if not cmath.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    if not cmath.isfinite(q):
        raise DomainError(f"q must be finite, got {q}")
    if -q.real > _N_CAP:
        raise DomainError(
            f"Re(q) = {q.real:g} below -{_N_CAP}: too many shifts to Re(q) > 0")
    if _is_nonpositive_integer(q):
        raise DomainError(
            f"hurwitz zeta undefined at non-positive integer q = {int(q.real)}")
    sm1 = s - 1.0
    neg_s = -s
    isnan = math.isnan
    if derivative:
        sq = sm1 * sm1
        inv_sq = 1.0 / sq if sq else complex(math.inf)
        if not cmath.isfinite(inv_sq):
            raise OverflowError(f"1/(s - 1)^2 overflows at |s - 1| = {abs(sm1):.3g}")
    direct = 0j  # sum of the summands n < done, extended as N doubles
    done = 0
    m = max(0, math.floor(-q.real) + 1)  # how many direct terms have Re(n + q) <= 0
    n = m + 1
    # Skip, without summing a tail, the doublings at which no tail can meet
    # the tolerance.  A tail term shrinks by about |s + 2j|^2 / (2 pi |N + q|)^2
    # per step, so a tail needs 2 pi |N + q| > |Im s|.  For Re s >= 1 the
    # first N has 2 pi |N + q| >= |Im s| + 2 ln(1/tolerance), so the smallest
    # term, near e^{-2 pi |N + q|} relative to the sum, lies far below the
    # tolerance: one pass sums a few terms, forming each weight as it goes,
    # and stops at the first within a hundredth of the tolerance.  (A reach
    # of twice |Im s| shortens the tail less than it lengthens the direct
    # sum, and doubles N at |Im s| = 1e5.)  Below Re s = 1 every direct term
    # adds to the direct sum's cancellation, so the reach stops short of
    # that: |Im s| + _LOW_MARGIN takes about half the calls in one pass of
    # the full tail, and the doubling the rest.  The terms there also carry
    # a factor 1/Gamma(s), which vanishes at the non-positive integers n, so
    # within gap = |s - n| < 1 of one they are about gap times smaller and
    # the reach drops by ln(1/gap); at gap = 0 it is |Im s| alone.  Every
    # pass there sums the full tail against weights built once per call.
    if s.real >= 1.0:
        reach = abs(s.imag) + 2.0 * _MARGIN
        weights = None  # formed by each pass as it sums its terms
    else:
        reach = abs(s.imag)
        gap = abs(s - round(s.real)) if s.real <= 0.5 else 1.0
        if gap:
            reach += _LOW_MARGIN
            if gap < 1.0:
                reach += math.log(gap)
        weights = _derivative_weights(s) if derivative else _value_weights(s)
    while n - m < _N_CAP and 2.0 * math.pi * abs(n + q) < reach:
        n = 2 * n - m
    while True:
        if derivative:
            for i in range(done, n):
                w = i + q
                direct += -(cmath.log(w) * w ** neg_s)
        else:
            for i in range(done, n):
                direct += (i + q) ** neg_s
        x = n + q
        xs = x ** neg_s
        # Bernoulli tail: term_j = B_{2j}/(2j)! * P_j(s) * x^{-(s+2j-1)} with
        # P_j(s) = s(s+1)...(s+2j-2), whose s-only factors are the weights.
        # mag ends at the first neglected term, or at a nan term.
        pw = x ** -(s + 1.0)
        step = 1.0 / (x * x)
        prev_mag = math.inf
        if derivative:
            lx = cmath.log(x)
            total = direct + x * xs * (-lx / sm1 - inv_sq)
            total -= 0.5 * lx * xs
            if weights is None:
                stop = _SHORT_STOP * max(1.0, abs(total))
                prod = s
                dprod = 1.0 + 0j
                for j, (c, odd, even) in enumerate(_tail_steps(), 1):
                    term = c * (dprod - prod * lx) * pw
                    mag = abs(term)
                    if (mag <= stop or j > _TAIL_TERMS or (j >= 3 and mag > prev_mag)
                            or isnan(mag)):
                        break  # a small enough or a turned tail stops here
                    total += term
                    prev_mag = mag
                    pw *= step
                    a = s + odd
                    b = s + even
                    dprod = dprod * a + prod
                    prod = prod * a
                    dprod = dprod * b + prod
                    prod = prod * b
            else:
                for j, (c, prod, dprod) in enumerate(weights, 1):
                    term = c * (dprod - prod * lx) * pw
                    mag = abs(term)
                    if j > _TAIL_TERMS or (j >= 3 and mag > prev_mag) or isnan(mag):
                        break  # a turned tail stops here
                    total += term
                    prev_mag = mag
                    pw *= step
        else:
            total = direct + x * xs / sm1
            total += 0.5 * xs
            if weights is None:
                stop = _SHORT_STOP * max(1.0, abs(total))
                prod = s
                for j, (c, odd, even) in enumerate(_tail_steps(), 1):
                    term = c * prod * pw
                    mag = abs(term)
                    if (mag <= stop or j > _TAIL_TERMS or (j >= 3 and mag > prev_mag)
                            or isnan(mag)):
                        break  # a small enough or a turned tail stops here
                    total += term
                    prev_mag = mag
                    pw *= step
                    prod = prod * (s + odd) * (s + even)
            else:
                for j, cw in enumerate(weights, 1):
                    term = cw * pw
                    mag = abs(term)
                    if j > _TAIL_TERMS or (j >= 3 and mag > prev_mag) or isnan(mag):
                        break  # a turned tail stops here
                    total += term
                    prev_mag = mag
                    pw *= step
        if isnan(mag):
            # an overflowed x^{-s} or x^{-(s+1)}, or an overflowed P_j(s)
            # times an underflowed power: a larger N only makes the power
            # worse and leaves P_j(s) as it is, so do not double
            raise ConvergenceError(f"tail term nan above tolerance at N = {n}")
        if not cmath.isfinite(total):
            raise OverflowError(f"zeta sum overflows at N = {n}")
        if mag <= _TOLERANCE * max(1.0, abs(total)):
            return total
        if n - m >= _N_CAP:
            raise ConvergenceError(f"tail term {mag:.3e} above tolerance at N = {n}")
        done, n = n, 2 * n - m


def hurwitz_zeta(s: complex, q: complex) -> complex:
    """zeta(s, q) for finite complex s != 1 and q, q not a non-positive integer.

    Raises OverflowError where the sum is not a finite float, as at
    (s, q) = (-1.5, 1e200), where (N+q)^{1-s} overflows.  Below about
    Re(s) = -8.8 the result can be wrong without an error (ROADMAP item 3;
    the strict xfail stratum below_re_s_minus_9 of tests/test_hurwitz.py
    tracks it)."""
    return _hurwitz(s, q, derivative=False)


def hurwitz_zeta_ds(s: complex, q: complex) -> complex:
    """d/ds zeta(s, q), by term-by-term differentiation of the same expansion.

    Raises OverflowError for |s - 1| below about 7.5e-155, where the
    expansion's 1/(s - 1)^2 is not a finite float, and where the sum is not
    one, as hurwitz_zeta does.  Below about Re(s) = -8.8 the result can be
    wrong without an error, as hurwitz_zeta's can."""
    return _hurwitz(s, q, derivative=True)


def zeta_neg_int_oracle(n: int, q: complex) -> complex:
    """Exact closed form zeta(-n, q) = -B_{n+1}(q) / (n+1) via Bernoulli polynomials."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")
    if n > 20:
        raise ValueError(f"n = {n} exceeds the cap of 20")
    q = complex(q)
    m = n + 1
    bern = bernoulli_numbers(m)
    poly = 0j
    for j in range(m + 1):
        poly += math.comb(m, j) * bern[j] * q ** (m - j)
    return -poly / m
