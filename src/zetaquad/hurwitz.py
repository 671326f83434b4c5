"""Hurwitz zeta zeta(s, q) and its s-derivative via Euler-Maclaurin summation.

The expansion is

    zeta(s, q) = sum_{n=0}^{N-1} (n+q)^{-s}
               + (N+q)^{1-s} / (s-1)
               + (N+q)^{-s} / 2
               + sum_{j=1}^{M} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * (N+q)^{-s-2j+1}

with M = 25 and N doubled from 1 until the first neglected tail term drops
below the fixed tolerance 1e-13 (relative once |value| exceeds 1).  Callers
with Re(q) <= 0 are pre-shifted through the recurrence
zeta(s, q) = zeta(s, q+1) + q^{-s} automatically.  All powers use the
principal branch fixed in complexfn.
"""

from __future__ import annotations

import cmath
import math

from .complexfn import PoleError, bernoulli_numbers, complex_pow, principal_log

__all__ = [
    "ConvergenceError",
    "hurwitz_zeta",
    "hurwitz_zeta_ds",
    "zeta_neg_int_oracle",
]


class ConvergenceError(RuntimeError):
    """The asymptotic tail failed to reach the requested tolerance."""


_TAIL_TERMS = 25
_TOLERANCE = 1e-13
_N_CAP = 200_000


def _pow(w: complex, e: complex) -> complex:
    """w**e with an exact-ish fast path for small real integer exponents."""
    if e.imag == 0.0 and e.real == round(e.real) and abs(e.real) <= 64.0:
        return w ** int(e.real)
    return cmath.exp(e * cmath.log(w))


def _em_pass(s: complex, q: complex, n_direct: int, bern: tuple[float, ...],
             monitor_derivative: bool) -> tuple[complex, complex, float]:
    """One Euler-Maclaurin evaluation; returns (value, d/ds value, |first neglected|).

    The neglected-term magnitude monitors the value tail or the derivative
    tail depending on which quantity the caller is converging.  If the
    asymptotic tail starts increasing it is truncated at its smallest term.
    """
    v = 0j
    d = 0j
    for i in range(n_direct):
        w = i + q
        lw = cmath.log(w)
        p = _pow(w, -s)
        v += p
        d -= lw * p
    x = n_direct + q
    lx = cmath.log(x)
    xs = _pow(x, -s)
    sm1 = s - 1.0
    v += x * xs / sm1
    d += x * xs * (-lx / sm1 - 1.0 / (sm1 * sm1))
    v += 0.5 * xs
    d -= 0.5 * lx * xs

    # Bernoulli tail: term_j = B_{2j}/(2j)! * P_j(s) * x^{-(s+2j-1)}
    # with P_j(s) = s(s+1)...(s+2j-2); (P, dP) advanced by the product rule.
    prod = s
    dprod = 1.0 + 0j
    pw = _pow(x, -(s + 1.0))
    step = 1.0 / (x * x)
    neglected = math.inf
    prev_mag = math.inf
    for j in range(1, _TAIL_TERMS + 2):
        c = bern[2 * j] / math.factorial(2 * j)
        term = c * prod * pw
        dterm = c * (dprod - prod * lx) * pw
        mag = abs(dterm) if monitor_derivative else abs(term)
        if j == _TAIL_TERMS + 1:
            neglected = mag
            break
        if j >= 3 and mag > prev_mag:
            neglected = mag  # asymptotic tail turned; truncate before this term
            break
        v += term
        d += dterm
        prev_mag = mag
        for i in (2 * j - 1, 2 * j):
            dprod = dprod * (s + i) + prod
            prod = prod * (s + i)
        pw *= step
    return v, d, neglected


def _hurwitz_pair(s: complex, q: complex,
                  monitor_derivative: bool) -> tuple[complex, complex]:
    s = complex(s)
    q = complex(q)
    if s == 1:
        raise PoleError("hurwitz zeta pole at s = 1")
    shift_v = 0j
    shift_d = 0j
    while q.real <= 0.0:
        lq = principal_log(q)
        p = cmath.exp(-s * lq)
        shift_v += p
        shift_d -= lq * p
        q += 1
    bern = bernoulli_numbers(2 * _TAIL_TERMS + 2)
    n = 1
    while True:
        v, d, neglected = _em_pass(s, q, n, bern, monitor_derivative)
        ref = abs(d) if monitor_derivative else abs(v)
        if neglected <= _TOLERANCE * max(1.0, ref):
            return v + shift_v, d + shift_d
        if n >= _N_CAP:
            raise ConvergenceError(
                f"tail term {neglected:.3e} above tolerance at N = {n}")
        n *= 2


def hurwitz_zeta(s: complex, q: complex) -> complex:
    """zeta(s, q) for complex s != 1 and complex q (pre-shifted if Re(q) <= 0)."""
    return _hurwitz_pair(s, q, monitor_derivative=False)[0]


def hurwitz_zeta_ds(s: complex, q: complex) -> complex:
    """d/ds zeta(s, q), by term-by-term differentiation of the same expansion."""
    return _hurwitz_pair(s, q, monitor_derivative=True)[1]


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
