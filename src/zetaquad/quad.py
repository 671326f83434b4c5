"""Complex-valued quadrature on finite intervals and the semi-infinite ray.

Both routines are double-exponential (tanh-sinh / exp-sinh) trapezoid rules
with level doubling: each refinement halves the mesh and reuses previous
nodes, and the level-to-level difference supplies the error estimate.
Endpoints are never evaluated; nodes are strictly interior by construction.

The nodes and weights do not depend on the integrand, so each rule keeps one
table per level, built on first use and shared by every later call.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

__all__ = ["QuadConfig", "QuadResult", "integrate_finite", "integrate_semi_infinite"]

_HALF_PI = 0.5 * math.pi
_MAX_LEVEL = 10
_MIN_EVALS = 13  # the larger level-0 node count (exp-sinh), always evaluated


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
        if not _MIN_EVALS <= self.max_evals <= 10 ** 7:
            raise ValueError(f"max_evals must lie in [{_MIN_EVALS}, 1e7]")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    n_evals: int
    converged: bool


_DEFAULT_CFG = QuadConfig()


def _level_abscissae(t_max: float, level: int) -> list[float]:
    """The t a level adds, ascending: every j*h at level 0, odd j after."""
    h = math.ldexp(1.0, -level)
    n = int(t_max / h)
    js = range(-n, n + 1) if level == 0 else range(-n | 1, n + 1, 2)
    return [j * h for j in js]


@lru_cache(maxsize=None)
def _exp_sinh_nodes(level: int) -> tuple[array, array]:
    """Columns x = exp(pi/2 sinh t) and cosh t over t in [-6, 6]."""
    xs = array("d")
    coshs = array("d")
    for t in _level_abscissae(6.0, level):
        xs.append(math.exp(_HALF_PI * math.sinh(t)))
        coshs.append(math.cosh(t))
    return xs, coshs


@lru_cache(maxsize=None)
def _tanh_sinh_nodes(level: int) -> tuple[array, array, array, int]:
    """Columns exp(-2|u|), cosh t and sech u, u = pi/2 sinh t, over t in
    [-4.5, 4.5], and the number of leading nodes with t < 0."""
    eus = array("d")
    coshs = array("d")
    sechs = array("d")
    ts = _level_abscissae(4.5, level)
    for t in ts:
        au = abs(_HALF_PI * math.sinh(t))
        eu = math.exp(-2.0 * au)
        eus.append(eu)
        coshs.append(math.cosh(t))
        sechs.append(2.0 * math.exp(-au) / (1.0 + eu))
    return eus, coshs, sechs, sum(t < 0.0 for t in ts)


def _refine(nodes: Callable[[int], tuple], add: Callable[[tuple, complex], complex],
            cfg: QuadConfig) -> QuadResult:
    """Trapezoid rule with level doubling; add(nodes(level), total) sums one level."""
    table = nodes(0)
    total = add(table, 0j)
    n_evals = len(table[0])  # every column holds one entry per node
    h = 1.0
    value = h * total
    err = math.inf
    converged = False
    for level in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        table = nodes(level)
        if n_evals + len(table[0]) > cfg.max_evals:
            break
        total = add(table, total)
        n_evals += len(table[0])
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
    width = half * 2.0
    w0 = half * _HALF_PI

    def add(table: tuple, total: complex) -> complex:
        eus, coshs, sechs, n_neg = table
        for i, (eu, cosh_t, sech) in enumerate(zip(eus, coshs, sechs)):
            # distance of the node from the near endpoint, computed without
            # cancellation: 1 - tanh(|u|) = 2 exp(-2|u|) / (1 + exp(-2|u|))
            dist = width * eu / (1.0 + eu)
            x = a + dist if i < n_neg else b - dist
            if a < x < b:  # a node rounded onto an endpoint adds nothing
                total += f(x) * (w0 * cosh_t * sech * sech)
        return total

    return _refine(_tanh_sinh_nodes, add, cfg)


def integrate_semi_infinite(f: Callable[[float], complex],
                            cfg: QuadConfig = _DEFAULT_CFG) -> QuadResult:
    """Integral of f over (0, inf) by exp-sinh quadrature.

    f must decay at least exponentially at infinity; an integrable
    singularity at the origin is allowed.
    """

    def add(table: tuple, total: complex) -> complex:
        for x, cosh_t in zip(*table):
            total += f(x) * x * _HALF_PI * cosh_t
        return total

    return _refine(_exp_sinh_nodes, add, cfg)
