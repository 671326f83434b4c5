"""Branch-fixed complex elementary functions, the Gamma family, and Bernoulli numbers.

Every other module builds on the conventions fixed here:

* the principal argument lives in (-pi, pi], closed on top; a negative real
  with imaginary part -0.0 takes argument -pi, as cmath.log does;
* complex powers are Python's principal z ** k = exp(k * cmath.log(z)),
  integral exponents up to 100 in magnitude by repeated multiplication;
* Bernoulli numbers use the B_1 = -1/2 sign convention.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "BranchedConstant",
    "DomainError",
    "PoleError",
    "complex_pow",
    "gamma",
    "log_gamma",
    "bernoulli_numbers",
]

TWO_PI = 2.0 * math.pi
EPS = 2.2e-16  # double-precision machine epsilon

BERNOULLI_CAP = 200


class DomainError(ValueError):
    """Argument outside the domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class _BranchedConstant(NamedTuple):
    r: float
    theta: float


class BranchedConstant(_BranchedConstant):
    """A nonzero constant stored in polar form so its logarithm is branch-fixed.

    The logarithm is ln(r) + i*theta with theta kept in [0, 2*pi); it is
    never re-reduced to the principal sheet.
    """

    __slots__ = ()

    def __new__(cls, r: float, theta: float = 0.0) -> BranchedConstant:
        if not r > 0.0:
            raise DomainError(f"modulus must be positive, got {r}")
        if r == math.inf:
            raise DomainError(f"modulus must be finite, got {r}")
        if not 0.0 <= theta < TWO_PI:
            raise DomainError(f"argument must lie in [0, 2*pi), got {theta}")
        # -0.0 passes the check above but would put log a + u on the lower
        # edge of the cut, where a negative real takes argument -pi
        return super().__new__(cls, r, theta + 0.0)

    # _replace builds through _make; route it through the checks above
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_complex(cls, z: complex) -> BranchedConstant:
        """z on the sheet: r = |z| and theta its principal argument, plus
        2*pi when that is negative.  A sum that rounds up to 2*pi (a negative
        argument no further from 0 than half an ulp of 2*pi, about 4.4e-16)
        is stored as the double just below 2*pi."""
        z = complex(z)
        if z == 0:
            raise DomainError("constant a must be nonzero")
        try:
            r = abs(z)
        except OverflowError:
            raise DomainError("modulus out of range") from None
        theta = math.atan2(z.imag, z.real)
        if theta < 0.0:
            theta += TWO_PI
            if theta == TWO_PI:
                theta = math.nextafter(TWO_PI, 0.0)
        return cls(r, theta)

    @property
    def log_value(self) -> complex:
        return complex(math.log(self.r), self.theta)


def complex_pow(z: complex, k: complex) -> complex:
    """Python's principal z ** k = exp(k * cmath.log(z)), integral k up to
    100 in magnitude by repeated multiplication (-2 - 0.0i has argument -pi);
    0**k = 0 when Re(k) > 0."""
    z = complex(z)
    k = complex(k)
    if z == 0:
        if k.real > 0.0:
            return 0j
        raise DomainError("0**k undefined for Re(k) <= 0")
    return z ** k


# Lanczos rational approximation, g = 671/128 (Numerical Recipes set);
# relative error around 1e-15 in the right half-plane.
_LANCZOS_G = 5.2421875
_LANCZOS_C0 = 0.999999999999997092
_LANCZOS_COF = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)
_SQRT_TWO_PI = 2.5066282746310005
_SHIFT_CAP = 200_000  # log_gamma refuses Re(z) < -_SHIFT_CAP rather than shift that often


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def gamma(z: complex) -> complex:
    """Gamma(z) = exp(log_gamma(z)), with log_gamma's PoleError at a pole; a
    negative real z gets a rounding-level imaginary part (i*pi per shift)."""
    return cmath.exp(log_gamma(z))


def log_gamma(z: complex) -> complex:
    """A branch of log Gamma continuous on the cut plane, real for z > 0."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"log_gamma: z must be finite, got {z}")
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z = {z}")
    if z.real < -_SHIFT_CAP:
        raise DomainError(f"log_gamma: Re(z) = {z.real} below -{_SHIFT_CAP}: too many shifts")
    shift = 0j
    while z.real < 1.5:
        shift += cmath.log(z)
        z += 1
    t = z + _LANCZOS_G
    y = z
    ser = _LANCZOS_C0 + 0j
    for c in _LANCZOS_COF:
        y += 1
        ser += c / y
    return (z + 0.5) * cmath.log(t) - t + cmath.log(_SQRT_TWO_PI * ser / z) - shift


@lru_cache(maxsize=None)
def _bernoulli_floats(n_max: int) -> tuple[float, ...]:
    # B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) from the tangent numbers T_m,
    # built in exact integers by the in-place recurrence of Brent and Harvey,
    # "Fast computation of Bernoulli, Tangent and Secant numbers" (2011),
    # arXiv:1108.0286.  int / int rounds correctly, so each B_n is the double
    # nearest the exact rational
    m_max = n_max // 2
    t = [0, 1] + [0] * (m_max - 1)  # t[m] = T_m, 1-based
    for m in range(2, m_max + 1):
        t[m] = (m - 1) * t[m - 1]
    for k in range(2, m_max + 1):
        for j in range(k, m_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    b = [1.0, -0.5] + [0.0] * (n_max - 1)
    for m in range(1, m_max + 1):
        b[2 * m] = (-1) ** (m - 1) * 2 * m * t[m] / (4 ** m * (4 ** m - 1))
    return tuple(b)


def bernoulli_numbers(n_max: int) -> tuple[float, ...]:
    """B_0..B_{n_max} (B_1 = -1/2 convention); the cached tuple is shared."""
    if not isinstance(n_max, int) or n_max < 1:
        raise DomainError("n_max must be a positive integer")
    if n_max > BERNOULLI_CAP:
        raise DomainError(f"n_max = {n_max} exceeds the cap of {BERNOULLI_CAP}")
    return _bernoulli_floats(n_max)
