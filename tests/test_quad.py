import cmath
import math
import random

import pytest

from zetaquad.quad import QuadConfig, integrate_finite, integrate_semi_infinite

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

    def test_complex_integrand(self):
        truth = (cmath.exp(1j) - 1) / 1j
        check_reference(integrate_finite(lambda x: cmath.exp(1j * x), 0.0, 1.0), truth)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: 0j, 1.0, 0.0)

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

    def test_max_evals_cap(self):
        cfg = QuadConfig(atol=1e-15, rtol=1e-15, max_evals=50)
        r = integrate_semi_infinite(lambda t: complex(math.exp(-t)), cfg)
        assert r.n_evals <= 50
        assert not r.converged


@pytest.mark.parametrize("max_evals,semi,finite", [
    (40, 25, 37), (100, 97, 73), (10 ** 7, 12_289, 9_217)])
def test_node_counts(max_evals, semi, finite):
    # random values never settle, so every level the budget allows is run
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
    assert integrate_finite(f, 0.0, 1.0, cfg).n_evals <= max_evals


# The per-node rules the cached tables replaced: every node recomputes its
# sinh/exp/cosh.  The tables must reproduce them bit for bit.

def _reference_refine(sample, t_max, cfg):
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
    for _ in range(10):
        h *= 0.5
        n_new = int(t_max / h)
        odd = range(-n_new | 1, n_new + 1, 2)
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
    return value, err, n_evals, converged


def _reference_finite(f, a, b, cfg):
    half = 0.5 * (b - a)

    def sample(t):
        u = math.pi / 2 * math.sinh(t)
        au = abs(u)
        eu = math.exp(-2.0 * au)
        dist = half * 2.0 * eu / (1.0 + eu)
        x = b - dist if t >= 0.0 else a + dist
        if not a < x < b:
            return 0j
        sech = 2.0 * math.exp(-au) / (1.0 + eu)
        return f(x) * (half * (math.pi / 2) * math.cosh(t) * sech * sech)

    return _reference_refine(sample, 4.5, cfg)


def _reference_semi_infinite(f, cfg):
    def sample(t):
        x = math.exp(math.pi / 2 * math.sinh(t))
        return f(x) * x * (math.pi / 2) * math.cosh(t)

    return _reference_refine(sample, 6.0, cfg)


_CAPS = (13, 40, 100, 10 ** 4, 10 ** 7)
_TOLS = (1e-15, 1e-10, 1e-4)
_NEVER = lambda x: complex(math.sin(1e6 * x), math.cos(3e5 * x))


def _recorded(f):
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


@pytest.mark.parametrize("f", [
    lambda x: complex(math.exp(-x)),                         # smooth
    lambda x: complex(x ** -0.5 * math.exp(-x)),             # singular at 0
    lambda x: cmath.exp((-1.0 + 10j) * x),                   # oscillatory
    _NEVER,
], ids=["smooth", "singular", "oscillatory", "never"])
def test_semi_infinite_matches_per_node_reference(f):
    for cap in _CAPS:
        for tol in _TOLS:
            cfg = QuadConfig(atol=tol, rtol=tol, max_evals=cap)
            g, seen = _recorded(f)
            r = integrate_semi_infinite(g, cfg)
            g_ref, seen_ref = _recorded(f)
            ref = _reference_semi_infinite(g_ref, cfg)
            assert (r.value, r.err_estimate, r.n_evals, r.converged) == ref
            assert seen == seen_ref


@pytest.mark.parametrize("make", [
    lambda a, b: lambda x: complex(x * x - a * x + 1.0),                  # smooth
    lambda a, b: lambda x: complex(math.log(x - a) + (b - x) ** -0.5),    # singular ends
    lambda a, b: lambda x: cmath.exp(40j * (x - a) / (b - a)),            # oscillatory
    lambda a, b: _NEVER,
], ids=["smooth", "singular", "oscillatory", "never"])
@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-3.0, 2.5), (1e-9, 1e-8)])
def test_finite_matches_per_node_reference(make, a, b):
    f = make(a, b)
    for cap in _CAPS:
        for tol in _TOLS:
            cfg = QuadConfig(atol=tol, rtol=tol, max_evals=cap)
            g, seen = _recorded(f)
            r = integrate_finite(g, a, b, cfg)
            g_ref, seen_ref = _recorded(f)
            ref = _reference_finite(g_ref, a, b, cfg)
            assert (r.value, r.err_estimate, r.n_evals, r.converged) == ref
            assert seen == seen_ref


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
        with pytest.raises(ValueError):
            QuadConfig(atol=1e-16)
        with pytest.raises(ValueError):
            QuadConfig(max_evals=10 ** 8)
        with pytest.raises(ValueError, match=r"\[13, 1e7\]"):
            QuadConfig(max_evals=12)
