"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Tolerances are pinned here and must not be loosened to make a run green.
"""

import json
import math
import random
import time

from zetaquad.cli import main
from zetaquad.complexfn import BranchedConstant, gamma, log_gamma
from zetaquad.hurwitz import hurwitz_zeta, hurwitz_zeta_ds, zeta_neg_int_oracle
from zetaquad.identities import (
    DEFAULT_A_GRID,
    DEFAULT_K_GRID,
    IdentityCase,
    catalan_reference,
    contour_cauchy_check,
    lhs_integral,
    loggamma_case,
    rhs_contour,
    rhs_series,
    rhs_zeta,
    sweep,
)

# Real part of the log-Gamma closed form, derived from the reference values
# Gamma(1/4) = 3.6256099082219083 and Gamma(3/4) = 1.2254167024651776.
LOGGAMMA_REAL = -1.0499107141929197


def _gate(number: int, label: str, collect, printer=print):
    try:
        problems = collect()
    except Exception as exc:  # a crash must still print its FAIL line
        problems = [f"raised {exc!r}"]
    status = "PASS" if not problems else "FAIL"
    printer(f"{status} criterion {number}: {label}")
    assert not problems, f"criterion {number} ({label}): " + "; ".join(problems)


def test_criterion_1_catalan():
    def collect():
        t0 = time.perf_counter()
        problems = []
        g = catalan_reference()
        target = -4.0 * g / math.pi
        case = IdentityCase(-1.0 + 0j, BranchedConstant(1.0))
        for name, value in (("lhs_integral", lhs_integral(case).value),
                            ("rhs_zeta", rhs_zeta(case).value),
                            ("rhs_series", rhs_series(case).value)):
            if abs(value - target) > 1e-8:
                problems.append(f"{name} off by {abs(value - target):.3e}")
        if abs(target + 1.1662436) > 1e-6:
            problems.append("reference -4G/pi does not match -1.1662436")
        elapsed = time.perf_counter() - t0
        if elapsed >= 5.0:
            problems.append(f"runtime {elapsed:.2f}s >= 5s")
        return problems

    _gate(1, "Catalan instance, three routes within 1e-8 in < 5s", collect)


def test_criterion_2_default_sweep():
    def collect():
        t0 = time.perf_counter()
        problems = []
        reports = sweep(list(DEFAULT_K_GRID), list(DEFAULT_A_GRID))
        if not reports:
            problems.append("sweep produced no reports")
        for rep in reports:
            if rep.verdict != "pass":
                problems.append(
                    f"k={rep.case.k}, a=(r={rep.case.a.r}, theta={rep.case.a.theta})"
                    f" verdict {rep.verdict}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 60.0:
            problems.append(f"runtime {elapsed:.2f}s >= 60s")
        return problems

    _gate(2, "default sweep grid, all route pairs within 1e-6 in < 60s", collect)


def test_criterion_3_series_zeta_equivalence():
    def collect():
        problems = []
        rng = random.Random(314159)
        done = 0
        while done < 20:
            k = complex(rng.uniform(-2.0, 0.9), rng.uniform(-1.0, 1.0))
            if abs(k) < 0.2 or k.real >= 0.9:
                continue
            a = BranchedConstant(rng.uniform(0.5, 2.0),
                                 rng.uniform(0.1, 2.0 * math.pi - 0.1))
            c = IdentityCase(k, a)
            s = rhs_series(c).value
            z = rhs_zeta(c).value
            if abs(s - z) > 1e-9 * max(abs(s), abs(z)):
                problems.append(f"k={k}, a=(r={a.r}, theta={a.theta}): "
                                f"relative gap {abs(s - z) / max(abs(s), abs(z)):.3e}")
            done += 1
        return problems

    _gate(3, "20 seeded cases: series vs zeta within 1e-9 relative", collect)


def test_criterion_4_contour_route():
    def collect():
        problems = []
        a_values = (BranchedConstant(1.0), BranchedConstant(2.0),
                    BranchedConstant(1.0, math.pi / 3.0))
        for k in (-1.5, -0.5, 0.5):
            for a in a_values:
                c = IdentityCase(complex(k), a)
                got = rhs_contour(c)
                ref = rhs_zeta(c).value
                if not got.converged:
                    problems.append(f"k={k}, r={a.r}, theta={a.theta}: not converged")
                elif abs(got.value - ref) > 1e-6 * abs(ref):
                    problems.append(
                        f"k={k}, r={a.r}, theta={a.theta}: "
                        f"relative gap {abs(got.value - ref) / abs(ref):.3e}")
        return problems

    _gate(4, "contour vs zeta within 1e-6 relative on the 3x3 grid", collect)


def test_criterion_5_loggamma_case():
    def collect():
        problems = []
        rep = loggamma_case()
        closed = rep.routes["closed"].value
        if abs(closed.imag + math.pi ** 2 / 4.0) > 1e-10:
            problems.append(f"imag part off by {abs(closed.imag + math.pi ** 2 / 4):.3e}")
        if abs(closed.real - LOGGAMMA_REAL) > 1e-9:
            problems.append(f"real part {closed.real!r} != {LOGGAMMA_REAL!r}")
        if rep.residuals["direct|closed"] > 1e-6:
            problems.append(f"direct|closed residual {rep.residuals['direct|closed']:.3e}")
        for key in ("direct|fd", "closed|fd"):
            if rep.residuals[key] > 1e-5:
                problems.append(f"{key} residual {rep.residuals[key]:.3e}")
        if rep.verdict != "pass":
            problems.append(f"verdict {rep.verdict}")
        return problems

    _gate(5, "log-Gamma case: three evaluations agree, closed form correct", collect)


def test_criterion_6_zeta_engine():
    def collect():
        problems = []
        if abs(hurwitz_zeta(2.0, 1.0) - math.pi ** 2 / 6.0) > 1e-12:
            problems.append("zeta(2, 1) != pi^2/6 @ 1e-12")
        for q in (0.25, 0.5, 0.75, 1.0 + 0.5j):
            if abs(hurwitz_zeta(0.0, q) - (0.5 - q)) > 1e-12:
                problems.append(f"zeta(0, {q}) != 1/2 - q @ 1e-12")
        for n in range(5):
            for q in (0.25, 0.5, 0.75, 1.0, 1.0 + 0.5j):
                gap = abs(hurwitz_zeta(complex(-n), complex(q))
                          - zeta_neg_int_oracle(n, complex(q)))
                if gap > 1e-11 * max(1.0, abs(zeta_neg_int_oracle(n, complex(q)))):
                    problems.append(f"zeta(-{n}, {q}) vs Bernoulli oracle: {gap:.3e}")
        for q in (0.25, 0.5, 1.0, 1.5):
            lerch = log_gamma(complex(q)) - 0.5 * math.log(2.0 * math.pi)
            if abs(hurwitz_zeta_ds(0.0, complex(q)) - lerch) > 1e-10:
                problems.append(f"zeta'(0, {q}) vs Lerch formula @ 1e-10")
        return problems

    _gate(6, "zeta engine reference values and oracles", collect)


def test_criterion_7_cauchy_kernel():
    def collect():
        problems = []
        for k in range(7):
            for y in (1.0, 2.0, 0.5 + 0.5j):
                got = contour_cauchy_check(complex(y), k)
                ref = complex(y) ** k / gamma(k + 1.0)
                if abs(got - ref) > 1e-10:
                    problems.append(f"k={k}, y={y}: gap {abs(got - ref):.3e}")
        return problems

    _gate(7, "Cauchy kernel check matches y^k/k! to 1e-10", collect)


def test_criterion_8_known_values():
    def collect():
        problems = []
        targets = ((1.0, -math.pi / 2.0), (3.0, -3.0 * math.pi ** 3 / 8.0))
        for k, ref in targets:
            c = IdentityCase(complex(k), BranchedConstant(1.0))
            for name, value in (("lhs_integral", lhs_integral(c).value),
                                ("rhs_zeta", rhs_zeta(c).value)):
                if abs(value - ref) > 1e-8:
                    problems.append(f"k={k} {name}: gap {abs(value - ref):.3e}")
        c = IdentityCase(2.0 + 0j, BranchedConstant(1.0))
        for name, value in (("lhs_integral", lhs_integral(c).value),
                            ("rhs_zeta", rhs_zeta(c).value)):
            if abs(value) > 1e-9:
                problems.append(f"k=2 {name}: magnitude {abs(value):.3e}")
        return problems

    _gate(8, "known-value regressions at k = 1, 2, 3 with a = 1", collect)


def test_criterion_9_cli_contract(capsys):
    def collect():
        problems = []
        if main(["verify", "--k", "-1", "--a", "1"]) != 0:
            problems.append("pass case did not exit 0")
        first = capsys.readouterr().out
        if main(["verify", "--k", "-1", "--a", "1"]) != 0:
            problems.append("repeat pass case did not exit 0")
        second = capsys.readouterr().out
        if first != second:
            problems.append("identical invocations differ byte-for-byte")
        try:
            doc = json.loads(first)
            if doc["reports"][0]["verdict"] != "pass":
                problems.append("pass case verdict is not 'pass'")
        except (json.JSONDecodeError, KeyError, IndexError) as exc:
            problems.append(f"report is not well-formed JSON: {exc}")
        if main(["verify", "--k", "0.5", "--a", "1",
                 "--verdict-atol", "1e-18", "--verdict-rtol", "1e-18"]) != 1:
            problems.append("forced-fail case did not exit 1")
        capsys.readouterr()
        try:
            main(["verify", "--bogus"])
            problems.append("malformed flag did not abort")
        except SystemExit as exc:
            if exc.code != 2:
                problems.append(f"malformed flag exited {exc.code}, expected 2")
        capsys.readouterr()
        return problems

    def printer(line):  # capsys would otherwise swallow the verdict line
        with capsys.disabled():
            print(line)

    _gate(9, "CLI exit codes (0/1/2) and byte-identical JSON", collect, printer)
