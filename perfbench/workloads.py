"""Seeded inputs, the operations that run on them, and the failure classifier.

Inputs are a pure function of (workload, seed).  Every continuous coordinate
is drawn by Latin-hypercube stratification: the range is cut into as many
equal strata as there are draws, one draw lands uniformly in each stratum,
and the strata are shuffled.  The inputs still cover the region uniformly,
but the mix of cheap and expensive (or passing and failing) cases varies far
less between seeds than with independent draws, which is what keeps the
seed-to-seed spread of the end-to-end metrics small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from zetaquad import cli, hurwitz, identities
from zetaquad.complexfn import BranchedConstant
from zetaquad.identities import IdentityCase, residual_ok

WORKLOADS = ("grid", "edge", "zeta")

# The CLI-default verdict rule; a route or a zeta value that misses the
# reference by more than this fails.
VERDICT_ATOL = 1e-6
VERDICT_RTOL = 1e-6

GRID_NK = 20
GRID_NA = 20
# Two edges are left out because their cost would let one draw dominate a
# pass or its tail and swing it by ~30% between seeds:
# * Re k in [0.7, 1) from the grid, the bulk traffic at shallow quadrature
#   levels: as Re k -> 1 the contour route doubles its evaluations in steps
#   (more so for larger |Im k|) up to its 12,289-evaluation cap, and one k
#   there is a row of 5-6% of the grid, so whether a draw lands there decided
#   the grid's p95 (the edge workload's first stratum covers Re k -> 1);
# * 0 < theta < 0.25 with r != 1 from every workload: the branch point of
#   (log a + u)^k nears the real u-line and lhs costs ~350/theta evaluations,
#   a Pareto tail.
GRID_GAP = (0.7, 1.0)
THETA_MIN = 0.25
EDGE_PER_STRATUM = 70
ZETA_SIDE = 20  # 400 points
# Below about Re s = -8.8 hurwitz_zeta and hurwitz_zeta_ds return wrong values
# (ROADMAP item 2).  The zeta map and edge's large-Re(k) stratum (s = 1 - k)
# keep to Re s >= -6, where every operation is right with a margin, so that
# one new wrong value shows as a failure.
ZETA_RE_S = (-6.0, 10.0)
EDGE_RE_K = (3.0, 1.0 - ZETA_RE_S[0])

# The case every setup measurement verifies once after import.
WARMUP_K = 0.5 + 0.3j
WARMUP_A = (2.0, 3.0 * math.pi / 4.0)


@dataclass(frozen=True)
class ZetaPoint:
    derivative: int  # 0: hurwitz_zeta, 1: hurwitz_zeta_ds
    s: complex
    q: complex


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws, one uniform draw inside each of n equal strata of (lo, hi), shuffled."""
    width = (hi - lo) / n
    values = [lo + width * (i + rng.uniform(0.01, 0.99)) for i in range(n)]
    rng.shuffle(values)
    return values


def _halves(rng: random.Random, n: int) -> list[bool]:
    """Exactly n // 2 True flags in random order."""
    flags = [i < n // 2 for i in range(n)]
    rng.shuffle(flags)
    return flags


def _imag_parts(rng: random.Random, n: int, half_width: float) -> list[float]:
    """Half exactly zero, half stratified in [-half_width, half_width]."""
    spread = iter(_strata(rng, n - n // 2, -half_width, half_width))
    return [0.0 if real else next(spread) for real in _halves(rng, n)]


def _constants(rng: random.Random, n: int, theta_min: float) -> list[BranchedConstant]:
    """a = r e^{i theta}: ln r stratified in [-1.5, 1.5]; half theta = 0, half
    stratified in [theta_min, 2 pi)."""
    log_r = _strata(rng, n, -1.5, 1.5)
    thetas = iter(_strata(rng, n - n // 2, theta_min, 2.0 * math.pi))
    return [BranchedConstant(math.exp(lr), 0.0 if real else next(thetas))
            for lr, real in zip(log_r, _halves(rng, n))]


def grid_lists(seed: int) -> tuple[list[complex], list[BranchedConstant]]:
    """The seeded k-list and a-list of the grid workload."""
    rng = random.Random(f"grid:{seed}")
    lo, hi = GRID_GAP
    re_k = [x if x < lo else x + (hi - lo)
            for x in _strata(rng, GRID_NK, -2.0, 3.0 - (hi - lo))]
    ks = [complex(x, y) for x, y in zip(re_k, _imag_parts(rng, GRID_NK, 1.0))]
    return ks, _constants(rng, GRID_NA, THETA_MIN)


def grid_cases(seed: int) -> list[tuple[complex, BranchedConstant]]:
    """Cartesian k x a in sweep order, invalid pairs skipped as sweep skips them."""
    ks, consts = grid_lists(seed)
    return [(k, a) for k in ks for a in consts
            if identities.case_violation(k, a) is None]


def edge_cases(seed: int) -> list[tuple[complex, BranchedConstant]]:
    """Three equal strata at the region edges, unshared pairs, shuffled together."""
    rng = random.Random(f"edge:{seed}")
    n = EDGE_PER_STRATUM
    cases: list[tuple[complex, BranchedConstant]] = []
    # Re k -> 1 from below: the contour integrand ~ t^(-1+delta) at the origin
    deltas = [10.0 ** x for x in _strata(rng, n, -3.0, -1.5)]
    for d, im, a in zip(deltas, _imag_parts(rng, n, 1.0), _constants(rng, n, THETA_MIN)):
        cases.append((complex(1.0 - d, im), a))
    # a = 1 with Re k -> -2 from above: the lhs integrand ~ u^(k) at the split,
    # and every case reaches lhs's 24,578-evaluation cap (delta >= 0.1 would
    # converge in a few hundred)
    deltas = [10.0 ** x for x in _strata(rng, n, -3.0, -1.5)]
    for d, im in zip(deltas, _imag_parts(rng, n, 1.0)):
        cases.append((complex(-2.0 + d, im), BranchedConstant(1.0)))
    # large Re k: zeta runs at negative s
    re_k = _strata(rng, n, *EDGE_RE_K)
    for x, im, a in zip(re_k, _imag_parts(rng, n, 1.0), _constants(rng, n, THETA_MIN)):
        cases.append((complex(x, im), a))
    rng.shuffle(cases)
    return cases


def zeta_points(seed: int) -> list[ZetaPoint]:
    """Distinct (s, q) over the region map, half value and half s-derivative calls.

    s is stratified jointly, one point in each cell of a ZETA_SIDE x ZETA_SIDE
    grid over the s-rectangle, because the cost of a call varies over both
    coordinates of s; q is stratified per coordinate.
    """
    rng = random.Random(f"zeta:{seed}")
    side = ZETA_SIDE
    n = side * side
    re_lo, re_hi = ZETA_RE_S
    re_w, im_w = (re_hi - re_lo) / side, 100.0 / side
    s_values = [complex(re_lo + re_w * (i + rng.uniform(0.01, 0.99)),
                        -50.0 + im_w * (j + rng.uniform(0.01, 0.99)))
                for i in range(side) for j in range(side)]
    rng.shuffle(s_values)
    coords = zip(s_values, _strata(rng, n, 0.25, 1.75), _strata(rng, n, -0.25, 0.25),
                 _halves(rng, n))
    return [ZetaPoint(int(ds), s, complex(qr, qi)) for s, qr, qi, ds in coords]


def inputs(workload: str, seed: int) -> list:
    if workload == "grid":
        return grid_cases(seed)
    if workload == "edge":
        return edge_cases(seed)
    if workload == "zeta":
        return zeta_points(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations

def verify_case(k: complex, a: BranchedConstant) -> identities.VerificationReport:
    """One grid/edge operation, looked up through the module so a tracer sees it."""
    return identities.verify(IdentityCase(k, a))


def zeta_call(p: ZetaPoint) -> complex:
    """One zeta operation, looked up through the module so a tracer sees it."""
    fn = hurwitz.hurwitz_zeta_ds if p.derivative else hurwitz.hurwitz_zeta
    return fn(p.s, p.q)


def render(reports: list) -> str:
    """The sweep-shaped JSON document the CLI would print for these reports."""
    return cli.dumps_fixed({"reports": [cli.report_to_dict(r) for r in reports]})


# ---------------------------------------------------------------------------
# failure classifier

def compared_routes(rep: identities.VerificationReport) -> dict[str, complex]:
    """The routes whose values entered the verdict, read off its residual keys."""
    values = {
        "lhs": rep.lhs.value if rep.lhs is not None else None,
        "zeta": rep.zeta_value,
        "series": rep.series_value,
        "contour": rep.contour_value.value if rep.contour_value is not None else None,
    }
    names: set[str] = set()
    for pair in rep.residuals:
        names.update(pair.split("|"))
    return {n: values[n] for n in sorted(names) if values.get(n) is not None}


def classify_report(rep: identities.VerificationReport | BaseException,
                    reference: complex) -> str | None:
    """Why a grid/edge operation failed, or None when it did not."""
    if isinstance(rep, BaseException):
        return "raised"
    if rep.verdict == "fail":
        return "verdict_fail"
    if rep.verdict == "pass":
        for name, value in compared_routes(rep).items():
            if not residual_ok(value, reference, VERDICT_ATOL, VERDICT_RTOL):
                return f"pass_but_{name}_off"
    return None


def classify_value(value: complex | BaseException, reference: complex) -> str | None:
    """Why a zeta operation failed, or None when it did not."""
    if isinstance(value, BaseException):
        return "raised"
    if not residual_ok(value, reference, VERDICT_ATOL, VERDICT_RTOL):
        return "value_off"
    return None
