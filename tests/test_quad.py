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
