"""Complex-valued quadrature on the real line, the semi-infinite ray and
finite intervals.

One level loop serves two double-exponential node maps on one t grid: the
exp-sinh trapezoid rule on (0, inf), x = exp(pi/2 sinh t), and the sinh
rule on (-inf, inf), u = pi/2 sinh t, for integrands that decay like
e^{-|u|} at both ends (Takahasi-Mori 1974; Mori-Sugihara 2001).  Each
refinement halves the mesh and reuses the previous nodes.  The
level-to-level difference supplies the error estimate; once three
differences in a row contract, it is extrapolated one level ahead
(Borwein-Bailey-Girgensohn), so a call need not run the level that would
only confirm it.  On the ray the estimate also counts the mass below the
smallest node.  A finite interval (a, b) is mapped onto the ray by
y = a + (b - a) x / (1 + x), which makes the exp-sinh rule
double-exponential at both ends.  Endpoints are never evaluated; nodes are
strictly interior by construction.

Level 0 (step 1 in t) also decides where the later levels sample.  A unit
interval of t at either end whose two level-0 end terms are both below EPS
times the L1 norm of the level-0 terms is never refined.  This assumes the
weighted integrand is unimodal at the scale of one step (see
integrate_semi_infinite), and the error estimate pays for every interval
skipped.  n_evals counts only the nodes of the intervals kept.

The nodes and weights do not depend on the integrand, so each map keeps one
table of (x, w) pairs per level, built on first use and shared by every
later call (_table).  A level's loop walks it without boxing a number per
node and calls the integrand itself: on CPython 3.11 a call through the
builtin map, from C into a Python function, costs more.  A caller whose
integrand is f(x) g(x) with a fixed weight g, the same in every call (the
lhs's -tanh(u) / (2 cosh u) or its complex continuation, the contour's
e^{-pi t/2} tanh(pi t/2) / (t (1 + y)) at t = log(1 + y)), passes g
separately, and its table holds the weights w g(x) instead, so each node
costs one f(x) alone.
The lift's half-lines and the contour's ray are written in x = log(1 + y)
against a y-weight; their table, tagged for it, holds the node log1p(y)
beside w g(y), so no node costs a log1p either (integrate_semi_infinite's
log1p_nodes).
A node whose tabled weight is exactly 0, past g's tail cut-off or where it
underflows, adds nothing and f is not called there; n_evals and the
max_evals budget still count it.  So past level 0 a table holds only the
pairs with w != 0, grouped by unit interval of t, and the loop tests no
weight per node.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from .complexfn import EPS

__all__ = ["QuadConfig", "QuadResult", "integrate_finite", "integrate_line",
           "integrate_semi_infinite"]

_HALF_PI = 0.5 * math.pi
_MAX_LEVEL = 10
_MIN_EVALS = 13  # the level-0 node count, always evaluated
_SPAN = _MIN_EVALS - 1  # unit intervals of t in [-6, 6]


class _QuadConfig(NamedTuple):
    atol: float
    rtol: float
    max_evals: int


class QuadConfig(_QuadConfig):
    """A call stops once its estimate is <= atol + rtol |value|, atol and rtol
    in [1e-15, 1e-3], or before it would pass max_evals evaluations, in [13, 1e7]."""

    __slots__ = ()

    def __new__(cls, atol: float = 1e-10, rtol: float = 1e-10,
                max_evals: int = 10 ** 6) -> QuadConfig:
        # written so that nan fails too; a tolerance above 1e-3 lets level 1
        # pass a value that is still far off
        if not 1e-15 <= atol <= 1e-3:
            raise ValueError("atol must lie in [1e-15, 1e-3]")
        if not 1e-15 <= rtol <= 1e-3:
            raise ValueError("rtol must lie in [1e-15, 1e-3]")
        if not _MIN_EVALS <= max_evals <= 10 ** 7:
            raise ValueError(f"max_evals must lie in [{_MIN_EVALS}, 1e7]")
        return super().__new__(cls, atol, rtol, max_evals)

    # _replace builds through _make; route it through the checks above
    _make = classmethod(lambda cls, fields: cls(*fields))


class QuadResult(NamedTuple):
    """n_evals counts the nodes visited, as the max_evals budget does;
    converged: err_estimate met the tolerance before the budget or last level."""
    value: complex
    err_estimate: float
    n_evals: int
    converged: bool


_DEFAULT_CFG = QuadConfig()


def _exp_sinh(t: float) -> tuple[float, float]:
    """The ray's node map: x = exp(pi/2 sinh t) on (0, inf), and dx/dt."""
    x = math.exp(_HALF_PI * math.sinh(t))
    return x, x * _HALF_PI * math.cosh(t)


def _exp_sinh_log1p(t: float) -> tuple[float, float]:
    """_exp_sinh's (y, dy/dt), tagged for an integrand in x = log(1 + y):
    _table stores log1p(y) as the node beside the weight it computes from y."""
    return _exp_sinh(t)


def _sinh(t: float) -> tuple[float, float]:
    """The line's node map: u = pi/2 sinh t on (-inf, inf), and du/dt."""
    return _HALF_PI * math.sinh(t), _HALF_PI * math.cosh(t)


@lru_cache(maxsize=None)
def _table(level: int, node_map: Callable[[float], tuple[float, float]],
           weight: Callable[[float], complex] | None) -> tuple:
    """The (x, w) pairs of node_map (_exp_sinh or _sinh), w = dx/dt, or
    dx/dt g(x) given a weight g, real or complex, at the t = j*h,
    h = 2^-level, that a level adds over [-6, 6], ascending.  The tag
    _exp_sinh_log1p pairs log1p(y) with _exp_sinh's w = dy/dt g(y), the
    weight still computed from y, so an integrand in x = log(1 + y) takes
    its x from the table and no node costs a log1p.  Level 0 holds
    all 13, j = -6 .. 6, zero weights included: the trim and the below-node
    fit read every one.  A later level holds its odd j with w != 0 in _SPAN
    groups: group u holds the pairs of t in (u - 6, u - 5), so that groups
    [lo, hi) hold the level's kept nodes.  One table is kept per level, map
    and weight object, so g should be a module-level function.  No argument
    has a default: the cache keys _table(0, m) and _table(0, m, None) apart,
    so every caller passes all three."""
    h = math.ldexp(1.0, -level)
    n = int(6.0 / h)
    tagged = node_map is _exp_sinh_log1p
    pairs = []
    for j in range(-n, n + 1) if level == 0 else range(-n | 1, n + 1, 2):
        x, w = node_map(j * h)
        pairs.append((math.log1p(x) if tagged else x, w if weight is None else w * weight(x)))
    if level == 0:
        return tuple(pairs)
    per_unit = 1 << (level - 1)
    return tuple(tuple([pair for pair in pairs[j:j + per_unit] if pair[1]])
                 for j in range(0, len(pairs), per_unit))


# the ray's two smallest level-0 nodes and their unweighted dx/dt, the
# fixed inputs of the below-node fit (see integrate_semi_infinite)
_X0, _DXDT0 = _exp_sinh(-6.0)
_X1, _DXDT1 = _exp_sinh(-5.0)
_LOG_X1_X0 = math.log(_X1 / _X0)


def _integrate(f: Callable[[float], complex], cfg: QuadConfig,
               node_map: Callable[[float], tuple[float, float]],
               weight: Callable[[float], complex] | None) -> QuadResult:
    """The level loop of both rules, on node_map's nodes (see
    integrate_semi_infinite for the trim and the stop rule).  Only the ray
    has a singular end, so only the ray, in y or tagged in log(1 + y), adds
    the mass below its first node y0, fitted in y on the same terms."""
    terms = [f(x) * w if w else 0j for x, w in _table(0, node_map, weight)]
    total = 0j
    for term in terms:
        total += term
    mags = [abs(term) for term in terms]
    thr = EPS * sum(mags)
    kept = [j for j, mag in enumerate(mags) if mag > thr]
    # the kept window in level-0 steps: unit intervals [lo, hi) of [0, _SPAN)
    lo, hi = (max(kept[0] - 1, 0), min(kept[-1] + 1, _SPAN)) if kept else (0, _SPAN)
    dropped = lo + _SPAN - hi
    trim_err = dropped * thr if dropped else 0.0
    if node_map is not _sinh:
        # the mass below the smallest node, from |f g| = c x^p through the
        # first two; the unweighted dx/dt divides the terms back to |f g|
        f0, f1 = mags[0] / _DXDT0, mags[1] / _DXDT1
        if f0 and f1:
            p1 = (math.log(f1) - math.log(f0)) / _LOG_X1_X0 + 1.0
            trim_err += f0 * _X0 / p1 if p1 > 0.0 else math.inf
    value = total
    n_evals = len(terms)
    err = math.inf
    d1 = d2 = math.nan  # the two previous level differences, newest first
    converged = False
    span = hi - lo
    for level in range(1, _MAX_LEVEL + 1):
        # a level's new nodes are 2^(level-1) per unit interval, ascending
        n_new = span << (level - 1)
        if n_evals + n_new > cfg.max_evals:
            break
        for segment in _table(level, node_map, weight)[lo:hi]:
            for x, w in segment:
                total += f(x) * w
        n_evals += n_new
        # ldexp also resets errno.  CPython's complex abs reads errno when a
        # part is nan, so after an underflowing math.exp in f the abs below
        # would otherwise raise OverflowError
        value, prev = math.ldexp(1.0, -level) * total, value
        d = est = abs(value - prev)
        if d < d1 < d2:
            est = min(d, max(d * max(d / d1, d1 / d2), n_evals * thr))
        d1, d2 = d, d1
        err = max(est, 8.0 * EPS * abs(value)) + trim_err
        if err <= cfg.atol + cfg.rtol * abs(value):
            converged = True
            break
    if not math.isfinite(err):
        err = abs(value)
    return QuadResult(value, err, n_evals, converged)


def integrate_semi_infinite(f: Callable[[float], complex],
                            cfg: QuadConfig = _DEFAULT_CFG,
                            weight: Callable[[float], complex] | None = None, *,
                            log1p_nodes: bool = False) -> QuadResult:
    """Integral of f over (0, inf) by exp-sinh quadrature, or of f * weight.

    With log1p_nodes, f is called at x = log(1 + y) in place of each node
    y, that is, the integral of f(log(1 + y)) g(y) dy, for an integrand
    written in x against a y-weight g such as the lift's or the contour's;
    the table holds x (see _table), so no node costs a log1p.  Every term,
    and so the value, estimate and n_evals, has the bits of the call
    without it on f(log1p(y)).

    A weight g that does not depend on the call, such as the lhs's
    -tanh(u) / (2 cosh u) or the contour's
    e^{-pi t/2} tanh(pi t/2) / (t (1 + y)) at t = log(1 + y), is folded
    into the node table once (see _table), so each node costs one f(x)
    evaluation and one multiplication; everything
    below applies to the product f g, whose terms are f(x) (w g(x)), and g
    may be complex.  A node whose
    tabled weight is exactly 0 adds nothing, and f is not called there (g
    owns its tail cut-off, where f may overflow); n_evals still counts it.

    f must decay at least exponentially at infinity; an integrable
    singularity at the origin is allowed.  Refinement stops after
    _MAX_LEVEL levels (at most 12,289 evaluations), or earlier at
    cfg.max_evals.

    Tail trim: let thr = EPS * sum |term_j| over the 13 level-0 terms
    term_j = f(x_j) w_j at t_j = j (f g when weighted), and let t_lo, t_hi
    be the outermost level-0 nodes with |term| > thr.  Every later level
    evaluates only its new nodes strictly inside (t_lo - 1, t_hi + 1), so a
    unit interval of t is dropped only when the terms at both its ends are
    <= thr.  If no term exceeds thr, nothing is trimmed.  This is safe when
    |term(t)| is unimodal at the scale of the level-0 step: its peak then
    lies within one step of the largest level-0 term, so on a dropped
    interval |term| is bounded by the interval's inner end, which is <= thr.
    The error estimate gains thr for each dropped interval, and n_evals
    (which the cfg.max_evals budget counts) counts only the kept nodes.

    Mass below the smallest node x0 = e^{-317}: |f g| = c x^p fitted through
    the two smallest level-0 nodes puts c x0^(p+1) / (p+1) on (0, x0), and
    the estimate gains it (no bound, so no convergence, when p <= -1).
    For x^{-0.9} e^{-1000 x} that mass is 1.0e-13, twice what the level
    differences alone would estimate.

    Stop rule.  Let d, d1, d2 be the differences between the last four level
    values, newest first.  The estimate is d, but when d < d1 < d2 it is
    min(d, max(d * max(d/d1, d1/d2), n_evals * thr)): the next difference,
    predicted from the worse of the last two contraction ratios, so that DE
    convergence that zig-zags (a ray whose differences shrink by 1e-5 and
    then by only 8e-3) is not taken at its best ratio.  Its floor
    n_evals * thr = n EPS sum|term| bounds the rounding of the n-term sum
    (Higham), and the cap d keeps it from ever exceeding the plain
    difference, so no call refines deeper than it would on d alone.
    The error estimate is that estimate raised to at least 8 EPS |value|,
    a floor, not an added term, plus the trim and below-node terms.
    """
    return _integrate(f, cfg, _exp_sinh_log1p if log1p_nodes else _exp_sinh, weight)


def integrate_line(f: Callable[[float], complex],
                   cfg: QuadConfig = _DEFAULT_CFG,
                   weight: Callable[[float], complex] | None = None) -> QuadResult:
    """Integral of f over (-inf, inf), or of f * weight, by the sinh rule on
    u = pi/2 sinh t, whose dt-weight is pi/2 cosh t (Takahasi-Mori 1974).

    Its nodes u are the ray's log x, on the same t grid, and the levels,
    the weight's node table, the tail trim, the stop rule and the
    cfg.max_evals budget are integrate_semi_infinite's.  f g must decay
    at least exponentially at both ends, as f times the lhs's weight
    -tanh(u) / (2 cosh u) does; the outermost nodes are at |u| = 317.
    Neither end is singular, so there is no below-node term.
    """
    return _integrate(f, cfg, _sinh, weight)


def integrate_finite(f: Callable[[float], complex], a: float, b: float,
                     cfg: QuadConfig = _DEFAULT_CFG) -> QuadResult:
    """Integral of f over (a, b): the exp-sinh rule on x in (0, inf) applied
    to f(y) (b - a) / (1 + x)^2 with y = a + (b - a) x / (1 + x).

    Endpoint algebraic/logarithmic singularities are tolerated; interior
    singular points must be handled by the caller splitting the interval.
    The ray's tail trim applies to the mapped integrand: nodes that round
    onto an endpoint add exact zeros, so such tails are skipped after level 0.
    """
    width = b - a
    if not 0.0 < width < math.inf:  # written so that nan fails too
        raise ValueError("requires a < b and a finite width b - a")

    def mapped(x: float) -> complex:
        r = 1.0 / (1.0 + x)
        # y from the near endpoint, without cancellation
        y = a + width * x * r if x < 1.0 else b - width * r
        if not a < y < b:  # a node rounded onto an endpoint adds nothing
            return 0j
        return f(y) * (width * r * r)

    return integrate_semi_infinite(mapped, cfg)
