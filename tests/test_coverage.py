"""The coverage map (ROADMAP item 23): how much of the region gets three
agreeing routes.

verify runs once on each cell of a fixed grid over Re k, Im k, ln r and
theta.  Per Re k band the map counts the cells by verdict and number of ok
routes, and over every cell it counts the records by route and method.
It measures coverage, not correctness: the oracle map in test_identities.py
checks the ok values.  A change that moves a count on purpose edits it here
and says so in CHANGES.md.
"""

import collections
import functools
import itertools
import math

from zetaquad.complexfn import BranchedConstant
from zetaquad.identities import IdentityCase, verify

RE_K = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 5.0, 10.0, 20.0)
IM_K = (0.0, 3.0, -10.0)
LN_R = (0.0, 1.0, -1.0, 10.0, -10.0)
THETA = (0.0, 0.01, 1.0, 3.0, 6.0)

# a cell's verdict and the number of its ok routes, with 3+ for three or
# four.  On the real axis the lhs is the analytic continuation at Re k <= -1
# for a != 1 and at Re k <= -2 for a = 1
COLUMNS = ("fail/2", "fail/3+", "partial/1", "partial/2", "partial/3+", "pass/2", "pass/3+")
TABLE = {
    -2.5: (0, 0, 0, 2, 7, 0, 66),
    -1.5: (0, 0, 0, 0, 9, 0, 66),
    -0.5: (0, 0, 0, 5, 10, 0, 60),
    0.5: (0, 0, 0, 5, 15, 0, 55),
    1.5: (0, 0, 0, 0, 0, 75, 0),
    2.5: (0, 0, 0, 0, 0, 75, 0),
    5.0: (0, 0, 0, 0, 0, 75, 0),
    10.0: (4, 0, 1, 0, 0, 70, 0),
    20.0: (42, 0, 1, 0, 0, 32, 0),
}
# (route, method) over all 675 cells; "" is a skipped route
METHODS = {
    ("lhs", "line"): 405, ("lhs", "lift"): 270,
    ("zeta", "em"): 675,
    ("series", "cvz"): 300, ("series", ""): 375,
    ("contour", "rays"): 300, ("contour", ""): 375,
}


@functools.lru_cache(maxsize=None)
def _cells():
    """(Re k, report) per grid cell."""
    cells = []
    for re_k, im_k, ln_r, theta in itertools.product(RE_K, IM_K, LN_R, THETA):
        k, a = complex(re_k, im_k), BranchedConstant(math.exp(ln_r), theta)
        cells.append((re_k, verify(IdentityCase(k, a))))
    return cells


def _column(rep):
    ok = sum(r.status == "ok" for r in rep.routes.values())
    return f"{rep.verdict}/{'3+' if ok >= 3 else ok}"


def test_verdicts_per_re_k_band():
    counts = collections.defaultdict(collections.Counter)
    for re_k, rep in _cells():
        counts[re_k][_column(rep)] += 1
    assert {re_k: tuple(c[col] for col in COLUMNS) for re_k, c in counts.items()} == TABLE
    assert sum(map(sum, TABLE.values())) == len(RE_K) * len(IM_K) * len(LN_R) * len(THETA) == 675


def test_methods_over_valid_cells():
    counts = collections.Counter((name, r.method) for _, rep in _cells()
                                 for name, r in rep.routes.items())
    assert dict(counts) == METHODS
