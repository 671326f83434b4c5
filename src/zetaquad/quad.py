"""Complex-valued quadrature on the semi-infinite ray and on finite intervals.

One double-exponential rule does both jobs: the exp-sinh trapezoid rule on
(0, inf), x = exp(pi/2 sinh t), with level doubling.  Each refinement halves
the mesh and reuses the previous nodes, and the level-to-level difference
supplies the error estimate.  A finite interval (a, b) is mapped onto the ray
by y = a + (b - a) x / (1 + x), which makes the same rule double-exponential
at both ends (Takahasi-Mori 1974; Mori-Sugihara 2001).  Endpoints are never
evaluated; nodes are strictly interior by construction.

The nodes and weights do not depend on the integrand, so the rule keeps one
table per level, built on first use and shared by every later call.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .complexfn import EPS

__all__ = ["QuadConfig", "QuadResult", "integrate_finite", "integrate_semi_infinite"]

_HALF_PI = 0.5 * math.pi
_MAX_LEVEL = 10
_MIN_EVALS = 13  # the level-0 node count, always evaluated


@dataclass(frozen=True)
class QuadConfig:
    atol: float = 1e-10
    rtol: float = 1e-10
    max_evals: int = 10 ** 6

    def __post_init__(self) -> None:
        # written so that nan fails too
        if not 1e-15 <= self.atol < math.inf:
            raise ValueError("atol must be finite and >= 1e-15")
        if not 1e-15 <= self.rtol < math.inf:
            raise ValueError("rtol must be finite and >= 1e-15")
        if not _MIN_EVALS <= self.max_evals <= 10 ** 7:
            raise ValueError(f"max_evals must lie in [{_MIN_EVALS}, 1e7]")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    n_evals: int
    converged: bool


_DEFAULT_CFG = QuadConfig()


@lru_cache(maxsize=None)
def _nodes(level: int) -> tuple[array, array]:
    """Columns x = exp(pi/2 sinh t) and cosh t for the t = j*h, h = 2^-level,
    that a level adds over [-6, 6], ascending: every j at level 0, odd j after."""
    h = math.ldexp(1.0, -level)
    n = int(6.0 / h)
    xs = array("d")
    coshs = array("d")
    for j in range(-n, n + 1) if level == 0 else range(-n | 1, n + 1, 2):
        t = j * h
        xs.append(math.exp(_HALF_PI * math.sinh(t)))
        coshs.append(math.cosh(t))
    return xs, coshs


def integrate_semi_infinite(f: Callable[[float], complex],
                            cfg: QuadConfig = _DEFAULT_CFG) -> QuadResult:
    """Integral of f over (0, inf) by exp-sinh quadrature.

    f must decay at least exponentially at infinity; an integrable
    singularity at the origin is allowed.  Refinement stops after
    _MAX_LEVEL levels (12,289 evaluations), or earlier at cfg.max_evals.
    """
    total = 0j
    value = 0j
    n_evals = 0
    err = math.inf
    converged = False
    for level in range(_MAX_LEVEL + 1):
        xs, coshs = _nodes(level)
        if n_evals + len(xs) > cfg.max_evals:
            break
        for x, cosh_t in zip(xs, coshs):
            total += f(x) * x * _HALF_PI * cosh_t
        n_evals += len(xs)
        value, prev = math.ldexp(1.0, -level) * total, value
        if level == 0:
            continue
        err = max(abs(value - prev), 8.0 * EPS * abs(value))
        if err <= cfg.atol + cfg.rtol * abs(value):
            converged = True
            break
    if not math.isfinite(err):
        err = abs(value)
    return QuadResult(value, err, n_evals, converged)


def integrate_finite(f: Callable[[float], complex], a: float, b: float,
                     cfg: QuadConfig = _DEFAULT_CFG) -> QuadResult:
    """Integral of f over (a, b): the exp-sinh rule on x in (0, inf) applied
    to f(y) (b - a) / (1 + x)^2 with y = a + (b - a) x / (1 + x).

    Endpoint algebraic/logarithmic singularities are tolerated; interior
    singular points must be handled by the caller splitting the interval.
    """
    if not a < b:
        raise ValueError("requires a < b")
    width = b - a

    def mapped(x: float) -> complex:
        r = 1.0 / (1.0 + x)
        # y from the near endpoint, without cancellation
        y = a + width * x * r if x < 1.0 else b - width * r
        if not a < y < b:  # a node rounded onto an endpoint adds nothing
            return 0j
        return f(y) * (width * r * r)

    return integrate_semi_infinite(mapped, cfg)
