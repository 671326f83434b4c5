"""Complex-valued quadrature on finite intervals and the semi-infinite ray.

Both routines are double-exponential (tanh-sinh / exp-sinh) trapezoid rules
with level doubling: each refinement halves the mesh and reuses previous
nodes, and the level-to-level difference supplies the error estimate.
Endpoints are never evaluated; nodes are strictly interior by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["QuadConfig", "QuadResult", "integrate_finite", "integrate_semi_infinite"]

_HALF_PI = 0.5 * math.pi
_MAX_LEVEL = 10


@dataclass(frozen=True)
class QuadConfig:
    atol: float = 1e-10
    rtol: float = 1e-10
    max_evals: int = 10 ** 6

    def __post_init__(self) -> None:
        if self.atol < 1e-15:
            raise ValueError("atol must be >= 1e-15")
        if self.rtol < 1e-15:
            raise ValueError("rtol must be >= 1e-15")
        if not 1 <= self.max_evals <= 10 ** 7:
            raise ValueError("max_evals must lie in [1, 1e7]")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    n_evals: int
    converged: bool


_DEFAULT_CFG = QuadConfig()


def _refine(sample: Callable[[float], complex], t_max: float,
            cfg: QuadConfig) -> QuadResult:
    """Trapezoid-with-doubling driver over t in (-t_max, t_max)."""
    n_evals = 0
    h = 1.0
    total = 0j
    n0 = int(t_max / h)
    for j in range(-n0, n0 + 1):
        total += sample(j * h)
        n_evals += 1
    value = h * total
    err = math.inf
    converged = False
    for _ in range(_MAX_LEVEL):
        h *= 0.5
        n_new = int(t_max / h)
        odd = range(-n_new | 1, n_new + 1, 2)  # the new nodes, in ascending order
        if n_evals + len(odd) > cfg.max_evals:
            break
        for j in odd:
            total += sample(j * h)
        n_evals += len(odd)
        new_value = h * total
        err = abs(new_value - value)
        value = new_value
        err = max(err, 8.0 * 2.2e-16 * abs(value))
        if err <= cfg.atol + cfg.rtol * abs(value):
            converged = True
            break
    if not math.isfinite(err):
        err = abs(value)
    return QuadResult(value, err, n_evals, converged)


def integrate_finite(f: Callable[[float], complex], a: float, b: float,
                     cfg: QuadConfig = _DEFAULT_CFG) -> QuadResult:
    """Integral of f over (a, b) by tanh-sinh quadrature.

    Endpoint algebraic/logarithmic singularities are tolerated; interior
    singular points must be handled by the caller splitting the interval.
    """
    if not a < b:
        raise ValueError("requires a < b")
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def sample(t: float) -> complex:
        u = _HALF_PI * math.sinh(t)
        au = abs(u)
        eu = math.exp(-2.0 * au)
        # distance of the node from the near endpoint, computed without
        # cancellation: 1 - tanh(|u|) = 2 exp(-2|u|) / (1 + exp(-2|u|))
        dist = half * 2.0 * eu / (1.0 + eu)
        if t >= 0.0:
            x = b - dist
        else:
            x = a + dist
        if not a < x < b:
            return 0j
        sech = 2.0 * math.exp(-au) / (1.0 + eu)
        w = half * _HALF_PI * math.cosh(t) * sech * sech
        return f(x) * w

    return _refine(sample, 4.5, cfg)


def integrate_semi_infinite(f: Callable[[float], complex],
                            cfg: QuadConfig = _DEFAULT_CFG) -> QuadResult:
    """Integral of f over (0, inf) by exp-sinh quadrature.

    f must decay at least exponentially at infinity; an integrable
    singularity at the origin is allowed.
    """

    def sample(t: float) -> complex:
        u = _HALF_PI * math.sinh(t)
        x = math.exp(u)
        return f(x) * x * _HALF_PI * math.cosh(t)

    return _refine(sample, 6.0, cfg)
