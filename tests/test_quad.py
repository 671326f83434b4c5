import cmath
import math
import random

import pytest

from zetaquad import identities, quad
from zetaquad.identities import DEFAULT_A_GRID, DEFAULT_K_GRID, sweep
from zetaquad.quad import (QuadConfig, _exp_sinh, _sinh, _table, integrate_finite, integrate_line,
                           integrate_semi_infinite)

CFG = QuadConfig()


def check_reference(result, truth):
    assert result.converged
    assert abs(result.value - truth) <= CFG.atol + CFG.rtol * abs(truth)
    # error honesty
    assert abs(result.value - truth) <= 3.0 * result.err_estimate


class TestFinite:
    def test_constant(self):
        check_reference(integrate_finite(lambda x: 1.0 + 0j, 0.0, 1.0), 1.0)

    def test_cos_two_y(self):
        r = integrate_finite(lambda y: complex(math.cos(2 * y)), 0.0, math.pi / 2)
        assert r.converged
        assert abs(r.value) <= 1e-10

    def test_log_endpoint_singularity(self):
        check_reference(integrate_finite(lambda x: complex(math.log(x)), 0.0, 1.0), -1.0)

    def test_inverse_sqrt_endpoint(self):
        check_reference(integrate_finite(lambda x: complex(x ** -0.5), 0.0, 1.0), 2.0)

    def test_strong_algebraic_endpoint(self):
        # the nearest node sits e^-317 from the endpoint, so the tail left
        # out is about 10 * (e^-317)^0.1 = 2e-13
        check_reference(integrate_finite(lambda x: complex(x ** -0.9), 0.0, 1.0), 10.0)

    def test_complex_integrand(self):
        truth = (cmath.exp(1j) - 1) / 1j
        check_reference(integrate_finite(lambda x: cmath.exp(1j * x), 0.0, 1.0), truth)

    def test_bad_interval(self):
        # reversed, unbounded, of overflowing width b - a, or nan
        for a, b in [(1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308),
                     (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                integrate_finite(lambda x: 0j, a, b)

    def test_endpoints_never_evaluated(self):
        seen = []

        def f(x):
            seen.append(x)
            return complex(math.log(x) * math.log(2.0 - x))

        integrate_finite(f, 0.0, 2.0)
        assert all(0.0 < x < 2.0 for x in seen)


class TestSemiInfinite:
    def test_exponential(self):
        check_reference(integrate_semi_infinite(lambda t: complex(math.exp(-t))), 1.0)

    def test_sech(self):
        # closed antiderivative (4/pi) arctan(tanh(pi t / 4)) gives exactly 1
        def f(t):
            e = math.exp(-math.pi * t)
            return complex(2 * math.exp(-math.pi * t / 2) / (1 + e))

        check_reference(integrate_semi_infinite(f), 1.0)

    def test_singular_origin(self):
        def f(t):
            return complex(t ** -0.5 * math.exp(-t))

        r = integrate_semi_infinite(f)
        assert r.converged
        assert abs(r.value - math.sqrt(math.pi)) <= 1e-9

    def test_non_integrable_origin(self):
        # like 1/x at 0 the mass below the smallest node is unbounded, so
        # the call never converges and its estimate says so; an integrand
        # that overflows there must not raise
        r = integrate_semi_infinite(lambda t: complex(math.exp(-t) / t))
        assert not r.converged
        assert r.err_estimate >= abs(r.value)
        r = integrate_semi_infinite(lambda t: complex(math.inf if t < 1e-100 else math.exp(-t)))
        assert not r.converged

    def test_max_evals_cap(self):
        cfg = QuadConfig(atol=1e-15, rtol=1e-15, max_evals=50)
        r = integrate_semi_infinite(lambda t: complex(math.exp(-t)), cfg)
        assert r.n_evals <= 50
        assert not r.converged


class TestLine:
    # sech u, e^{-u^2} and u^2 sech u over (-inf, inf)
    @pytest.mark.parametrize("f,truth", [
        (lambda u: complex(1.0 / math.cosh(u)), math.pi),
        (lambda u: complex(math.exp(-u * u)), math.sqrt(math.pi)),
        (lambda u: complex(u * u / math.cosh(u)), math.pi ** 3 / 4.0),
    ], ids=["sech", "gauss", "u2_sech"])
    def test_reference_integrals(self, f, truth):
        r = integrate_line(f)
        assert r.converged
        assert abs(r.value - truth) <= r.err_estimate


@pytest.mark.parametrize("max_evals,count", [(40, 25), (100, 97), (10 ** 7, 12_289)])
def test_node_counts(max_evals, count):
    # random terms f(x) w of one size never settle and are
    # never trimmed, so every level the budget allows is run in full; on
    # the line w = du/dt grows at both ends, so f(u) may be random itself
    cfg = QuadConfig(atol=1e-15, rtol=1e-15, max_evals=max_evals)
    for integrate, scale in ((integrate_semi_infinite, lambda x: 1.0 / x),
                             (integrate_line, lambda u: 1.0)):
        rng = random.Random(0)
        calls = []

        def f(x):
            calls.append(x)
            return complex(rng.random()) * scale(x)

        r = integrate(f, cfg)
        assert not r.converged
        assert r.n_evals == len(calls) == count


@pytest.mark.parametrize("max_evals,semi,finite", [
    (40, 28, 37), (100, 76, 69), (10 ** 7, 1_036, 8_197)])
def test_trimmed_node_counts(max_evals, semi, finite):
    # random values never settle.  On the ray the terms grow like x, so only
    # t in (5, 6] is refined; on (0, 1) the mapped terms beyond |t| = 3 are
    # below EPS times the level-0 sum (for t >= 4 the node rounds onto the
    # endpoint 1 and adds an exact zero).  Only evaluated nodes are counted.
    cfg = QuadConfig(atol=1e-15, rtol=1e-15, max_evals=max_evals)
    rng = random.Random(0)
    calls = []

    def f(x):
        calls.append(x)
        return complex(rng.random())

    r = integrate_semi_infinite(f, cfg)
    assert not r.converged
    assert r.n_evals == len(calls) == semi
    r = integrate_finite(f, 0.0, 1.0, cfg)
    assert not r.converged
    assert r.n_evals == finite


@pytest.mark.parametrize("max_evals", [13, 14, 25, 26, 40, 100])
def test_budget_respected(max_evals):
    cfg = QuadConfig(atol=1e-15, rtol=1e-15, max_evals=max_evals)
    f = lambda x: complex(math.sin(1e6 * x))  # never settles
    assert integrate_semi_infinite(f, cfg).n_evals <= max_evals
    assert integrate_line(f, cfg).n_evals <= max_evals
    assert integrate_finite(f, 0.0, 1.0, cfg).n_evals <= max_evals


# The per-node rules the cached tables replaced: every node recomputes its
# sinh/exp/cosh, and the tail trim tests each node against the window.  The
# tables must reproduce them bit for bit, with the same stop rule: the level
# difference, extrapolated once the last three contract, and the mass below
# the smallest node.  With trim=False the reference is the rule before the
# trim: every node of every level is evaluated.  With ray=False it is the
# line's rule, which has no below-node term.

def _reference_refine(sample, t_max, cfg, trim=True, ray=True):
    h = 1.0
    n0 = int(t_max / h)
    terms = [sample(j * h) for j in range(-n0, n0 + 1)]
    n_evals = len(terms)
    total = 0j
    for term in terms:
        total += term
    value = h * total
    thr = 2.2e-16 * sum(abs(term) for term in terms)
    big = [j for j in range(-n0, n0 + 1) if abs(terms[j + n0]) > thr]
    t_lo, t_hi = (big[0], big[-1]) if trim and big else (-math.inf, math.inf)
    dropped = sum(1 for m in range(-n0, n0) if m + 1 <= t_lo - 1 or m >= t_hi + 1)
    trim_err = dropped * thr if dropped else 0.0
    # fit |f| = c x^p through the two smallest nodes and add its integral
    # over (0, x(-t_max))
    x0, x1 = (math.exp(math.pi / 2 * math.sinh(t)) for t in (-n0, 1 - n0))
    f0 = abs(terms[0]) / (x0 * (math.pi / 2) * math.cosh(-n0))
    f1 = abs(terms[1]) / (x1 * (math.pi / 2) * math.cosh(1 - n0))
    if ray and f0 != 0.0 and f1 != 0.0:
        p = (math.log(f1) - math.log(f0)) / math.log(x1 / x0)
        trim_err += f0 * x0 / (p + 1.0) if p + 1.0 > 0.0 else math.inf
    diffs = []
    err = math.inf
    converged = False
    level = 0
    for _ in range(10):
        h *= 0.5
        n_new = int(t_max / h)
        odd = [j for j in range(-n_new | 1, n_new + 1, 2) if t_lo - 1 < j * h < t_hi + 1]
        if n_evals + len(odd) > cfg.max_evals:
            break
        for j in odd:
            total += sample(j * h)
        n_evals += len(odd)
        level += 1
        new_value = h * total
        diffs.append(abs(new_value - value))
        value = new_value
        err = diffs[-1]
        if len(diffs) >= 3 and diffs[-3] > diffs[-2] > err:
            # the worse of the last two contraction ratios, floored at the
            # rounding of the n_evals-term sum
            ratio = max(err / diffs[-2], diffs[-2] / diffs[-3])
            err = min(err, max(err * ratio, n_evals * thr))
        err = max(err, 8.0 * 2.2e-16 * abs(value)) + trim_err
        if err <= cfg.atol + cfg.rtol * abs(value):
            converged = True
            break
    if not math.isfinite(err):
        err = abs(value)
    return (value, err, n_evals, converged), level


def _finite_sample(f, a, b):
    # y = a + (b - a) x / (1 + x) on the exp-sinh node x, dy/dx = (b - a) / (1 + x)^2
    def sample(t):
        x = math.exp(math.pi / 2 * math.sinh(t))
        r = 1.0 / (1.0 + x)
        y = a + (b - a) * x * r if x < 1.0 else b - (b - a) * r
        g = f(y) * ((b - a) * r * r) if a < y < b else 0j
        return g * (x * (math.pi / 2) * math.cosh(t))

    return sample


def _semi_infinite_sample(f):
    def sample(t):
        x = math.exp(math.pi / 2 * math.sinh(t))
        return f(x) * (x * (math.pi / 2) * math.cosh(t))

    return sample


def _line_sample(f):
    # u = (pi/2) sinh t, du/dt = (pi/2) cosh t
    def sample(t):
        return f(math.pi / 2 * math.sinh(t)) * (math.pi / 2 * math.cosh(t))

    return sample


_CAPS = (13, 40, 100, 10 ** 4, 10 ** 7)
_TOLS = (1e-15, 1e-10, 1e-4)
_NEVER = lambda x: complex(math.sin(1e6 * x), math.cos(3e5 * x))


def _recorded(f):
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


def _check_against_reference(run, sample, f, ray=True):
    """run(g, cfg) matches the trimmed per-node reference bit for bit."""
    for cap in _CAPS:
        for tol in _TOLS:
            cfg = QuadConfig(atol=tol, rtol=tol, max_evals=cap)
            g, seen = _recorded(f)
            r = run(g, cfg)
            g_ref, seen_ref = _recorded(f)
            ref, _ = _reference_refine(sample(g_ref), 6.0, cfg, ray=ray)
            assert (r.value, r.err_estimate, r.n_evals, r.converged) == ref
            assert seen == seen_ref


def _check_trim_keeps_value(sample, ray=True):
    """Uncapped, the trimmed rule stops at the same level as the untrimmed
    one with the same value and no more evaluations.  Its estimate is no
    smaller, except by the rounding floor's share thr of each node it skips:
    the floor n_evals * thr counts only evaluated nodes.
    At tolerance 1e-15 the trim's own share of the estimate (up to 12 EPS
    times the level-0 L1 norm) can exceed the tolerance, so the trimmed rule
    refines further and the two are not compared there."""
    thr = 2.2e-16 * sum(abs(sample(float(j))) for j in range(-6, 7))
    for tol in (1e-10, 1e-4):
        cfg = QuadConfig(atol=tol, rtol=tol)
        trimmed, level = _reference_refine(sample, 6.0, cfg, ray=ray)
        full, full_level = _reference_refine(sample, 6.0, cfg, trim=False, ray=ray)
        assert level == full_level
        assert trimmed[0] == full[0]
        assert trimmed[1] >= full[1] - (full[2] - trimmed[2]) * thr
        assert trimmed[2] <= full[2]


_SEMI = {
    "smooth": lambda x: complex(math.exp(-x)),
    "singular": lambda x: complex(x ** -0.5 * math.exp(-x)),     # at 0
    "oscillatory": lambda x: cmath.exp((-1.0 + 10j) * x),
    "never": _NEVER,
}


@pytest.mark.parametrize("name", _SEMI)
def test_semi_infinite_matches_per_node_reference(name):
    f = _SEMI[name]
    _check_against_reference(integrate_semi_infinite, _semi_infinite_sample, f)
    if f is not _NEVER:
        _check_trim_keeps_value(_semi_infinite_sample(f))


_LINE = {
    "sech": lambda u: complex(1.0 / math.cosh(u)),
    "off_centre": lambda u: complex(math.exp(-(u - 30.0) ** 2 / 50.0)),
    # off 0, so that no part of the value cancels to 0, where the trimmed
    # terms would move the rounding noise left in it
    "oscillatory": lambda u: cmath.exp(3j * u) / math.cosh(u - 1.0),
    "never": _NEVER,
}


@pytest.mark.parametrize("name", _LINE)
def test_line_matches_per_node_reference(name):
    f = _LINE[name]
    _check_against_reference(integrate_line, _line_sample, f, ray=False)
    if f is not _NEVER:
        _check_trim_keeps_value(_line_sample(f), ray=False)


@pytest.mark.parametrize("make", [
    lambda a, b: lambda x: complex(x * x - a * x + 1.0),                  # smooth
    lambda a, b: lambda x: complex(math.log(x - a) + (b - x) ** -0.5),    # singular ends
    lambda a, b: lambda x: cmath.exp(40j * (x - a) / (b - a)),            # oscillatory
    lambda a, b: _NEVER,
], ids=["smooth", "singular", "oscillatory", "never"])
@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-3.0, 2.5), (1e-9, 1e-8)])
def test_finite_matches_per_node_reference(make, a, b):
    f = make(a, b)
    _check_against_reference(lambda g, cfg: integrate_finite(g, a, b, cfg),
                             lambda g: _finite_sample(g, a, b), f)
    if f is not _NEVER:
        _check_trim_keeps_value(_finite_sample(f, a, b))


@pytest.mark.parametrize("c,p", [
    (1e-3, -0.9), (1e-3, 0.0), (1e-3, 2.0), (1.0, -0.9), (1.0, 0.0), (1.0, 2.0),
    (1e8, -0.9), (1e8, 0.0), (1e8, 2.0)])
def test_trim_keeps_scaled_gamma_integrals(c, p):
    # x^p e^(-x/c) puts its mass anywhere from x ~ 1e-3 to x ~ 1e8, so the
    # level-0 window moves with c; the trimmed tails must never cut into it.
    # At c = 1e-3, p = -0.9 the 1e-13 below the smallest node x = e^-317
    # must be in the estimate
    r = integrate_semi_infinite(lambda x: complex(x ** p * math.exp(-x / c)))
    truth = math.gamma(p + 1) * c ** (p + 1)
    assert r.converged
    assert abs(r.value - truth) <= r.err_estimate


# Weights for the weighted rule, one object each, since the rule keeps one
# node table per weight object.
_DECAY = {c: (lambda x, c=c: math.exp(-x / c)) for c in (1e-3, 1.0, 1e8)}
_INVERSE_POWER = lambda x: x ** -0.9


def _cut_sech(u):
    """sech u, and 0 past |u| = 40, inside the line's outermost nodes."""
    return 0.0 if abs(u) > 40.0 else 1.0 / math.cosh(u)


@pytest.mark.parametrize("level", [0, 1, 4])
def test_weighted_nodes_share_the_x_column(level):
    # the same x's bit for bit and the weights w0 g(x), w0 the unweighted
    # table's; past level 0 both hold only the pairs with w != 0, and on the
    # ray g underflows at the top nodes, so the weighted groups drop those
    g = _DECAY[1.0]
    for node_map in (_exp_sinh, _sinh):
        plain = _table(level, node_map, None)
        weighted = _table(level, node_map, g)
        if level == 0:
            assert repr(weighted) == repr(tuple((x, w * g(x)) for x, w in plain))
            continue
        assert len(weighted) == len(plain)
        for got, group in zip(weighted, plain):
            assert repr(list(got)) == repr([(x, w * g(x)) for x, w in group if w * g(x)])


@pytest.mark.parametrize("level", [1, 2, 6])
@pytest.mark.parametrize("node_map, weight", [
    (_exp_sinh, None), (_exp_sinh, _DECAY[1e-3]), (_sinh, _cut_sech)])
def test_segments_hold_the_nonzero_weight_nodes_in_order(level, node_map, weight):
    # a level past 0 walks its table's groups, one per unit interval of t,
    # so the pairs of groups [lo, hi) must be node_map's at the odd
    # multiples of h = 2^-level in (lo - 6, hi - 6) with w != 0, ascending;
    # both weights given are 0 at some nodes
    h = math.ldexp(1.0, -level)
    groups = _table(level, node_map, weight)
    assert len(groups) == quad._SPAN
    zeros = 0
    for lo, hi in ((0, quad._SPAN), (3, 9), (5, 6)):
        want = []
        for j in range(((lo - 6) << level) + 1, (hi - 6) << level, 2):
            x, w = node_map(j * h)
            if weight is not None:
                w *= weight(x)
            if w:
                want.append((x, w))
            else:
                zeros += 1
        assert repr([pair for group in groups[lo:hi] for pair in group]) == repr(want)
    assert (weight is None) == (zeros == 0)


def test_below_node_constants_are_the_tables():
    # the below-node fit reads its two nodes and their dx/dt as constants
    (x0, w0), (x1, w1) = _table(0, _exp_sinh, None)[:2]
    assert (quad._X0, quad._X1, quad._DXDT0, quad._DXDT1) == (x0, x1, w0, w1)
    assert quad._LOG_X1_X0 == math.log(x1 / x0)


@pytest.mark.parametrize("c,p", [
    (1e-3, -0.9), (1e-3, 0.0), (1e-3, 2.0), (1.0, -0.9), (1.0, 0.0), (1.0, 2.0),
    (1e8, -0.9), (1e8, 0.0), (1e8, 2.0)])
def test_weight_runs_like_the_unsplit_integrand(c, p):
    # x^p e^(-x/c) as f = x^p against the weight e^(-x/c): the same levels,
    # the same convergence, and an estimate that bounds the true error
    whole = integrate_semi_infinite(lambda x: complex(x ** p * math.exp(-x / c)))
    split = integrate_semi_infinite(lambda x: complex(x ** p), weight=_DECAY[c])
    truth = math.gamma(p + 1) * c ** (p + 1)
    assert (split.n_evals, split.converged) == (whole.n_evals, whole.converged)
    assert abs(split.value - truth) <= split.err_estimate


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e8])
def test_weight_below_node_fit_sees_the_weight(c):
    # the singular factor in the weight: the fit must divide the terms by the
    # unweighted dx/dt, or it sees |f| ~ 1 and misses the 1e-13 below the
    # smallest node at c = 1e-3
    whole = integrate_semi_infinite(lambda x: complex(x ** -0.9 * math.exp(-x / c)))
    split = integrate_semi_infinite(lambda x: complex(math.exp(-x / c)),
                                    weight=_INVERSE_POWER)
    truth = math.gamma(0.1) * c ** 0.1
    assert (split.n_evals, split.converged) == (whole.n_evals, whole.converged)
    assert abs(split.value - truth) <= split.err_estimate


def test_weighted_tables_are_built_once():
    # the lhs passes module-level weights, so a second sweep adds no table
    sweep(DEFAULT_K_GRID, DEFAULT_A_GRID)
    size = _table.cache_info().currsize
    sweep(DEFAULT_K_GRID, DEFAULT_A_GRID)
    assert _table.cache_info().currsize == size


@pytest.mark.parametrize("weight,rate", [(identities._lhs_weight, 0.99)])
@pytest.mark.parametrize("cfg", [CFG, QuadConfig(1e-15, 1e-15), QuadConfig(max_evals=40)])
def test_zero_weight_nodes_are_not_evaluated(weight, rate, cfg):
    # The lhs weight is 0 past its cut-off, where the integrands it
    # multiplies may overflow (the y-weights of the lift and the contour
    # need none: see test_lift_weights and test_contour_weight_has_no_cut_off).
    # f grows almost as fast as the weight decays, so the refined window
    # reaches past the cut-off, where f raises.  The result
    # must be that of f guarded to 0j there, bit for bit and with the same
    # n_evals, which still counts the skipped nodes: four at level 0 and
    # more on later levels.
    _check_zero_weight_nodes_skipped(integrate_semi_infinite, weight, rate, cfg)


@pytest.mark.parametrize("cfg", [CFG, QuadConfig(1e-15, 1e-15), QuadConfig(max_evals=40)])
def test_line_skips_zero_weight_nodes(cfg):
    # as on the ray: past |u| = 40 the six outer level-0 nodes and more on
    # later levels are counted but not evaluated
    _check_zero_weight_nodes_skipped(integrate_line, _cut_sech, 0.99, cfg)


def _check_zero_weight_nodes_skipped(integrate, weight, rate, cfg):
    def grow(x):
        return cmath.exp(complex(rate, 0.5) * x)

    called = []

    def raising(x):
        if weight(x) == 0:
            raise AssertionError(f"f called at x = {x}, past the weight's cut-off")
        called.append(x)
        return grow(x)

    def guarded(x):
        return 0j if weight(x) == 0 else grow(x)

    got = integrate(raising, cfg, weight=weight)
    ref = integrate(guarded, cfg, weight=weight)
    assert repr(got) == repr(ref)
    assert got.n_evals > len(called) + 4


class TestProperties:
    def test_additivity(self):
        f = lambda x: complex(math.sin(x) + x * x)
        whole = integrate_finite(f, 0.0, 2.0)
        p1 = integrate_finite(f, 0.0, 0.7)
        p2 = integrate_finite(f, 0.7, 2.0)
        budget = whole.err_estimate + p1.err_estimate + p2.err_estimate
        assert abs(p1.value + p2.value - whole.value) <= max(budget, 1e-12)

    def test_linearity(self):
        f = lambda x: complex(math.exp(-x))
        g = lambda x: complex(math.cos(x))
        alpha, beta = 2.5, -1.25 + 0.5j
        combined = integrate_finite(lambda x: alpha * f(x) + beta * g(x), 0.0, 3.0)
        split = alpha * integrate_finite(f, 0.0, 3.0).value \
            + beta * integrate_finite(g, 0.0, 3.0).value
        assert abs(combined.value - split) <= 1e-9

    def test_converged_implies_within_tolerance(self):
        r = integrate_finite(lambda x: complex(x ** 3), 0.0, 1.0)
        assert r.converged
        assert r.err_estimate <= CFG.atol + CFG.rtol * abs(r.value)

    def test_config_validation(self):
        for field in ("atol", "rtol"):
            for value in (1e-16, 2e-3, 0.5, 1e300, math.nan, math.inf):
                with pytest.raises(ValueError, match=rf"{field} must lie in \[1e-15, 1e-3\]"):
                    QuadConfig(**{field: value})
            for value in (1e-15, 1e-3):
                QuadConfig(**{field: value})
        with pytest.raises(ValueError):
            QuadConfig(max_evals=10 ** 8)
        with pytest.raises(ValueError, match=r"\[13, 1e7\]"):
            QuadConfig(max_evals=12)
