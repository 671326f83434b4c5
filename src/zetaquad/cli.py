"""Command-line front end: verify single cases, sweep grids, emit reports.

Commands:

* verify    -- one (k, a) case, all applicable routes
* sweep     -- Cartesian grid of cases (default grid if none given)
* constants -- the Catalan and log-Gamma special cases
* zeta      -- print hurwitz_zeta(s, q)
* selftest  -- run the module invariant suites

Reports are JSON (default) or CSV, on stdout or in the --output file; the CSV
columns are k_re, k_im, a_r, a_theta, route, value_re, value_im, err_est,
n_evals, status, reason, verdict (one row per route).  Diagnostics go to
stderr.  Only verify and sweep take --verdict-atol / --verdict-rtol.
A negative literal other than a plain decimal (-0.5+0.3i, -1e-3) must be
attached with '=', as in --k=-0.5+0.3i, or argparse reads it as an option.
Exit codes: 0 every verdict pass, 1 any fail or partial, 2 usage error, an
argument the engine cannot evaluate or an --output file it cannot write.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import re
import sys
from typing import Any, Sequence

from .complexfn import TWO_PI, BranchedConstant, gamma
from .hurwitz import ConvergenceError, hurwitz_zeta, zeta_neg_int_oracle
from .identities import (
    DEFAULT_A_GRID,
    DEFAULT_K_GRID,
    DEFAULT_VERDICT_TOL,
    IdentityCase,
    RouteResult,
    VerificationReport,
    catalan_case,
    contour_cauchy_check,
    loggamma_case,
    sweep,
    verify,
)
from .quad import QuadConfig, integrate_finite, integrate_semi_infinite

__all__ = ["CliParseError", "parse_complex", "parse_branched", "render_complex",
           "dumps_fixed", "build_parser", "main", "entry"]


class CliParseError(ValueError):
    """A command-line argument the CLI cannot use: a malformed literal (the
    message carries the position) or an --output file it cannot write."""


# ---------------------------------------------------------------------------
# complex / polar literal grammar

_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _scan_number(text: str, i: int, what: str) -> tuple[float, int]:
    m = _NUMBER.match(text, i)
    if m is None:
        raise CliParseError(f"expected {what} at position {i}: {text!r}")
    end = m.end()
    if m.group(1) is None and text.startswith(("e", "E"), end):
        raise CliParseError(f"malformed exponent at position {end}: {text!r}")
    value = float(m.group())
    if not math.isfinite(value):
        raise CliParseError(f"number out of range at position {i}: {text!r}")
    return value, end


def parse_complex(text: str) -> complex:
    """Rectangular literal: optional sign, decimal real part, optional signed
    imaginary part with trailing 'i'."""
    s = text.strip()
    if not s:
        raise CliParseError(f"empty complex literal: {text!r}")
    re_part, i = _scan_number(s, 0, "real part")
    if i == len(s):
        return complex(re_part, 0.0)
    if s[i] not in "+-":
        raise CliParseError(f"unexpected character at position {i}: {text!r}")
    im_part, i = _scan_number(s, i, "imaginary part")
    if i >= len(s) or s[i] != "i":
        raise CliParseError(f"expected trailing 'i' at position {i}: {text!r}")
    if i + 1 != len(s):
        raise CliParseError(f"trailing input at position {i + 1}: {text!r}")
    return complex(re_part, im_part)


def parse_branched(text: str) -> BranchedConstant:
    """Polar 'r@theta' (theta already in [0, 2*pi), not normalised) or a
    rectangular literal converted to polar."""
    s = text.strip()
    if "@" in s:
        at = s.index("@")
        r, i = _scan_number(s, 0, "modulus")
        if i != at or r <= 0 or s[0] in "+-":
            raise CliParseError(f"modulus must be a positive decimal: {text!r}")
        th, j = _scan_number(s, at + 1, "argument")
        if j != len(s):
            raise CliParseError(f"trailing input in argument: {text!r}")
        if not 0.0 <= th < TWO_PI:
            raise CliParseError(f"argument must lie in [0, 2*pi): {text!r}")
        return BranchedConstant(r, th)
    z = parse_complex(s)
    if z == 0:
        raise CliParseError(f"constant a must be nonzero: {text!r}")
    try:
        r = abs(z)
    except OverflowError:
        raise CliParseError(f"modulus out of range: {text!r}") from None
    theta = math.atan2(z.imag, z.real)
    if theta < 0.0:
        theta += TWO_PI
    return BranchedConstant(r, theta)


# ---------------------------------------------------------------------------
# deterministic rendering (17 significant digits)

def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite value in report")
    return format(x, ".17g")


def render_complex(z: complex) -> str:
    if z.imag >= 0:
        return f"{_fmt(z.real)}+{_fmt(z.imag)}i"
    return f"{_fmt(z.real)}-{_fmt(-z.imag)}i"


def dumps_fixed(obj: Any, indent: int = 0) -> str:
    """JSON text with fixed key order (insertion) and fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {dumps_fixed(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + dumps_fixed(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"unserialisable value: {obj!r}")


def _complex_dict(z: complex) -> dict[str, float]:
    return {"re": float(z.real), "im": float(z.imag)}


def _route_dict(r: RouteResult) -> dict[str, Any]:
    return {
        "value": None if r.value is None else _complex_dict(r.value),
        "err_estimate": r.err_estimate,
        "n_evals": r.n_evals,
        "status": r.status,
        "reason": r.reason,
    }


def report_to_dict(rep: VerificationReport) -> dict[str, Any]:
    return {
        "case": {
            "k": _complex_dict(rep.case.k),
            "a": {"r": rep.case.a.r, "theta": rep.case.a.theta},
        },
        "routes": {name: _route_dict(r) for name, r in rep.routes.items()},
        "residuals": {k: float(v) for k, v in rep.residuals.items()},
        "verdict": rep.verdict,
    }


def reports_to_csv(reps: Sequence[VerificationReport]) -> str:
    """One row per route record; a record with no value has empty value cells."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["k_re", "k_im", "a_r", "a_theta", "route", "value_re", "value_im",
                "err_est", "n_evals", "status", "reason", "verdict"])
    for rep in reps:
        base = [_fmt(rep.case.k.real), _fmt(rep.case.k.imag),
                _fmt(rep.case.a.r), _fmt(rep.case.a.theta)]
        for route, r in rep.routes.items():
            cells = (["", "", "", ""] if r.value is None
                     else [_fmt(r.value.real), _fmt(r.value.imag), _fmt(r.err_estimate),
                           str(r.n_evals)])
            w.writerow(base + [route, *cells, r.status, r.reason, rep.verdict])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zetaquad",
                                description="Multi-route verification of "
                                            "cos(2y) log-power integrals")
    sub = p.add_subparsers(dest="command", required=True)
    quad_defaults = QuadConfig()

    def add_common(sp: argparse.ArgumentParser, verdict_flags: bool = True) -> None:
        sp.add_argument("--atol", type=float, default=quad_defaults.atol,
                        help="quadrature absolute tolerance")
        sp.add_argument("--rtol", type=float, default=quad_defaults.rtol,
                        help="quadrature relative tolerance")
        sp.add_argument("--max-evals", type=int, default=quad_defaults.max_evals,
                        help="evaluation budget per quadrature call, at least 13 "
                             "(the lhs integral is one call, or one per half-line "
                             "when a is a positive real other than 1); a call "
                             "evaluates at most 12289 nodes, so a larger budget "
                             "changes nothing")
        if verdict_flags:
            sp.add_argument("--verdict-atol", type=float, default=DEFAULT_VERDICT_TOL,
                            help="pass/fail residual rule, absolute part")
            sp.add_argument("--verdict-rtol", type=float, default=DEFAULT_VERDICT_TOL,
                            help="pass/fail residual rule, relative part")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None, help="write report here instead of stdout")

    sp = sub.add_parser("verify", help="verify one (k, a) case")
    sp.add_argument("--k", required=True, help="complex literal, e.g. 0.5+0.3i")
    sp.add_argument("--a", required=True, help="'x+yi' or polar 'r@theta'")
    add_common(sp)

    sp = sub.add_parser("sweep", help="verify a grid of cases")
    sp.add_argument("--k-list", default=None, help="comma-separated complex literals")
    sp.add_argument("--a-list", default=None, help="comma-separated constants")
    add_common(sp)

    # the special cases carry their own fixed verdict tolerances
    sp = sub.add_parser("constants", help="Catalan and log-Gamma special cases")
    add_common(sp, verdict_flags=False)

    sp = sub.add_parser("zeta", help="print hurwitz_zeta(s, q)")
    sp.add_argument("--s", required=True)
    sp.add_argument("--q", required=True)

    sub.add_parser("selftest", help="run the module invariant suites")
    return p


def _quad_cfg(ns: argparse.Namespace) -> QuadConfig:
    return QuadConfig(atol=ns.atol, rtol=ns.rtol, max_evals=ns.max_evals)


def _emit(text: str, path: str | None) -> None:
    if path:
        # only the file: a closed stdout (BrokenPipeError) is handled in entry()
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliParseError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_reports(reps: list[VerificationReport], notes: list[str],
                  ns: argparse.Namespace) -> int:
    if ns.format == "csv":
        text = reports_to_csv(reps)
    else:
        doc: dict[str, Any] = {"reports": [report_to_dict(r) for r in reps]}
        if notes:
            doc["notes"] = notes
        text = dumps_fixed(doc)
    _emit(text, ns.output)
    for n in notes:
        print(f"note: {n}", file=sys.stderr)
    return 0 if reps and all(r.verdict == "pass" for r in reps) else 1


# ---------------------------------------------------------------------------
# selftest battery

def _selftest_checks() -> list[tuple[str, bool]]:
    import cmath
    import random

    checks: list[tuple[str, bool]] = []
    rng = random.Random(1234)

    ok = True
    for _ in range(100):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if min(abs(z - n) for n in range(-5, 1)) < 0.1 or abs(z.imag) < 0.05:
            continue
        refl = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        ok = ok and abs(refl - 1) <= 1e-12
        ok = ok and abs(gamma(z + 1) - z * gamma(z)) <= 1e-12 * abs(gamma(z + 1))
    checks.append(("gamma reflection/recurrence", ok))

    ok = True
    for _ in range(50):
        s = complex(rng.uniform(-6, 6), rng.uniform(-2, 2))
        if abs(s - 1) < 0.2:
            continue
        q = complex(rng.uniform(0.1, 3), rng.uniform(-1, 1))
        lhs = hurwitz_zeta(s, q) - hurwitz_zeta(s, q + 1) - q ** (-s)
        ok = ok and abs(lhs) <= 1e-11 * max(1.0, abs(hurwitz_zeta(s, q)))
    checks.append(("hurwitz recurrence", ok))

    ok = True
    for n in range(5):
        for q in (0.25, 0.5, 0.75, 1.0, 1 + 0.5j):
            a = hurwitz_zeta(complex(-n), complex(q))
            b = zeta_neg_int_oracle(n, complex(q))
            ok = ok and abs(a - b) <= 1e-11 * max(1.0, abs(b))
    checks.append(("zeta negative-integer oracle", ok))

    r = integrate_finite(lambda x: complex(math.log(x)), 0.0, 1.0)
    checks.append(("exp-sinh mapped log endpoint", r.converged and abs(r.value + 1) < 1e-10))
    r = integrate_semi_infinite(lambda t: complex(t ** -0.5 * math.exp(-t)))
    checks.append(("exp-sinh singular origin",
                   r.converged and abs(r.value - math.sqrt(math.pi)) < 1e-9))

    ok = True
    for kk in range(7):
        for y in (1.0, 2.0, 0.5 + 0.5j):
            v = contour_cauchy_check(complex(y), kk)
            ok = ok and abs(v - complex(y) ** kk / gamma(kk + 1.0)) <= 1e-10
    checks.append(("cauchy kernel", ok))

    checks.append(("catalan instance", catalan_case().verdict == "pass"))
    return checks


# ---------------------------------------------------------------------------

def main(argv: Sequence[str] | None = None) -> int:
    """Parse argv (default sys.argv[1:]), run the command, return the exit code."""
    ns = build_parser().parse_args(argv)
    cmd = ns.command
    try:
        if cmd == "verify":
            case = IdentityCase(parse_complex(ns.k), parse_branched(ns.a),
                                quad_cfg=_quad_cfg(ns),
                                verdict_atol=ns.verdict_atol,
                                verdict_rtol=ns.verdict_rtol)
            return _emit_reports([verify(case)], [], ns)

        if cmd == "sweep":
            k_list = ([parse_complex(t) for t in ns.k_list.split(",")]
                      if ns.k_list is not None else list(DEFAULT_K_GRID))
            a_list = ([parse_branched(t) for t in ns.a_list.split(",")]
                      if ns.a_list is not None else list(DEFAULT_A_GRID))
            res = sweep(k_list, a_list, quad_cfg=_quad_cfg(ns),
                        verdict_atol=ns.verdict_atol,
                        verdict_rtol=ns.verdict_rtol)
            return _emit_reports(res.reports, res.notes, ns)

        if cmd == "constants":
            cfg = _quad_cfg(ns)
            return _emit_reports([catalan_case(cfg), loggamma_case(cfg)], [], ns)

        if cmd == "zeta":
            try:
                value = hurwitz_zeta(parse_complex(ns.s), parse_complex(ns.q))
            except (ArithmeticError, ConvergenceError) as exc:  # s beyond the engine's reach
                raise ValueError(str(exc)) from exc
            print(render_complex(value))
            return 0

        # selftest, the only command left
        all_ok = True
        for name, ok in _selftest_checks():
            print(f"{'PASS' if ok else 'FAIL'} {name}")
            all_ok = all_ok and ok
        return 0 if all_ok else 1
    except ValueError as exc:  # CliParseError and DomainError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # The reader went away (say `zetaquad sweep | head -1`).  Point stdout
        # at devnull so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
