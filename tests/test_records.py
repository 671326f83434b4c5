"""What callers rely on in the package's records, which are named tuples:
the repr, equality and hash by field, immutability, and the checks that the
validated records run however they are built."""

import math
import random

import pytest

from zetaquad.cli import build_parser, parse_branched, parse_complex
from zetaquad.complexfn import BranchedConstant, DomainError
from zetaquad.identities import (
    DEFAULT_VERDICT_TOL,
    IdentityCase,
    RouteResult,
    VerificationReport,
    sweep,
)
from zetaquad.quad import QuadConfig, QuadResult

A = BranchedConstant(2.0, 0.5)
CASE = IdentityCase(0.5 + 0.3j, A, QuadConfig(max_evals=400))
ROUTE = RouteResult(None, None, None, "skipped", "Re(k) >= 1")
REPORT = VerificationReport(CASE, {"series": ROUTE}, {}, "partial")

RECORDS = [A, QuadConfig(), QuadResult(1j, 0.0, 13, True), CASE, ROUTE, REPORT]


REPRS = [
    (A, "BranchedConstant(r=2.0, theta=0.5)"),
    (QuadConfig(), "QuadConfig(atol=1e-10, rtol=1e-10, max_evals=1000000)"),
    (QuadResult(1j, 0.0, 13, True),
     "QuadResult(value=1j, err_estimate=0.0, n_evals=13, converged=True)"),
    (CASE, "IdentityCase(k=(0.5+0.3j), a=BranchedConstant(r=2.0, theta=0.5), "
           "quad_cfg=QuadConfig(atol=1e-10, rtol=1e-10, max_evals=400), "
           "verdict_atol=1e-06, verdict_rtol=1e-06)"),
    (RouteResult(0.5j),
     "RouteResult(value=0.5j, err_estimate=0.0, n_evals=0, status='ok', reason='', "
     "method='')"),
    (REPORT, "VerificationReport(case=" + repr(CASE) + ", routes={'series': "
             "RouteResult(value=None, err_estimate=None, n_evals=None, status='skipped', "
             "reason='Re(k) >= 1', method='')}, residuals={}, verdict='partial')"),
]


@pytest.mark.parametrize("record,text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr(record, text):
    assert repr(record) == text


def test_equality_and_hash_by_field():
    assert BranchedConstant(2.0, 0.5) == A and hash(BranchedConstant(2.0, 0.5)) == hash(A)
    assert BranchedConstant(1.0) == BranchedConstant(1.0, 0.0)
    assert BranchedConstant(2.0, 0.25) != A
    assert QuadConfig(max_evals=400) == QuadConfig(1e-10, 1e-10, 400)
    assert hash(QuadConfig(max_evals=400)) == hash(QuadConfig(1e-10, 1e-10, 400))
    assert IdentityCase(0.5 + 0.3j, A, QuadConfig(max_evals=400)) == CASE
    assert hash(IdentityCase(0.5 + 0.3j, A, QuadConfig(max_evals=400))) == hash(CASE)
    assert IdentityCase(0.5 + 0.3j, A) != CASE
    # k is stored as a complex however it is given
    for k, spelled in ((0.5, 0.5 + 0j), (2, 2 + 0j)):
        assert IdentityCase(k, A) == IdentityCase(spelled, A)
        assert hash(IdentityCase(k, A)) == hash(IdentityCase(spelled, A))
        assert type(IdentityCase(k, A).k) is complex
    assert RouteResult(0.5j) == RouteResult(0.5j, 0.0, 0, "ok", "")
    # a named tuple is iterable and equals the plain tuple of its fields
    assert tuple(A) == (2.0, 0.5) and A == (2.0, 0.5)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls,args,kwargs,exc,message", [
    (BranchedConstant, (0.0,), {}, DomainError, "modulus must be positive, got 0.0"),
    (BranchedConstant, (), {"r": -1.0}, DomainError, "modulus must be positive, got -1.0"),
    (BranchedConstant, (1.0, 7.0), {}, DomainError, r"argument must lie in \[0, 2\*pi\)"),
    (BranchedConstant, (1.0,), {"theta": -0.1}, DomainError, "argument must lie in"),
    (QuadConfig, (1e-2,), {}, ValueError, r"atol must lie in \[1e-15, 1e-3\]"),
    (QuadConfig, (), {"atol": math.nan}, ValueError, "atol must lie in"),
    (QuadConfig, (1e-10, 0.5), {}, ValueError, r"rtol must lie in \[1e-15, 1e-3\]"),
    (QuadConfig, (), {"rtol": 0.0}, ValueError, "rtol must lie in"),
    (QuadConfig, (1e-10, 1e-10, 12), {}, ValueError, r"max_evals must lie in \[13, 1e7\]"),
    (QuadConfig, (), {"max_evals": 10 ** 8}, ValueError, "max_evals must lie in"),
    (IdentityCase, (math.nan, A), {}, ValueError, "k must be finite, got nan"),
    (IdentityCase, (), {"k": complex(0.5, math.inf), "a": A}, ValueError, "k must be finite"),
    (IdentityCase, (0.5, A, QuadConfig(), -1.0), {}, ValueError,
     "verdict_atol must be finite and >= 0"),
    (IdentityCase, (0.5, A), {"verdict_atol": math.inf}, ValueError,
     "verdict_atol must be finite and >= 0"),
    (IdentityCase, (0.5, A, QuadConfig(), 0.0, math.nan), {}, ValueError,
     "verdict_rtol must be finite and >= 0"),
    (IdentityCase, (0.5, A), {"verdict_rtol": -1e-9}, ValueError,
     "verdict_rtol must be finite and >= 0"),
    # refused here, not as an AttributeError from inside a route or quad
    (IdentityCase, (0.5, 2.0), {}, TypeError, "a must be a BranchedConstant, got float"),
    (IdentityCase, (0.5, A, None), {}, TypeError, "quad_cfg must be a QuadConfig, got NoneType"),
])
def test_validation(cls, args, kwargs, exc, message):
    with pytest.raises(exc, match=message):
        cls(*args, **kwargs)


def test_replace_runs_the_checks():
    with pytest.raises(DomainError, match="modulus must be positive"):
        A._replace(r=0.0)
    with pytest.raises(ValueError, match="max_evals must lie in"):
        QuadConfig()._replace(max_evals=1)
    with pytest.raises(ValueError, match="verdict_atol must be finite"):
        CASE._replace(verdict_atol=math.nan)
    # a plain tuple equals A, but it is not a BranchedConstant
    with pytest.raises(TypeError, match="a must be a BranchedConstant, got tuple"):
        CASE._replace(a=(2.0, 0.5))


def test_replace_keeps_the_class():
    assert A._replace(theta=1.0) == BranchedConstant(2.0, 1.0)
    assert type(QuadConfig()._replace(atol=1e-12)) is QuadConfig
    one = CASE._replace(k=1)
    assert type(one) is IdentityCase and type(one.k) is complex
    assert one == IdentityCase(1 + 0j, A, QuadConfig(max_evals=400))
    assert hash(one) == hash(IdentityCase(1 + 0j, A, QuadConfig(max_evals=400)))


def test_report_views():
    routes = {"lhs": RouteResult(1j, 1e-12, 26), "zeta": RouteResult(2j),
              "series": ROUTE}
    rep = VerificationReport(CASE, routes, {}, "pass")
    assert rep.lhs is routes["lhs"]
    assert rep.zeta_value == 2j
    assert rep.series_value is None
    assert rep.contour_value is None


@pytest.mark.parametrize("argv", [["verify", "--k", "1", "--a", "1"], ["sweep"],
                                  ["constants"]])
def test_cli_defaults_match_the_records(argv):
    ns = build_parser().parse_args(argv)
    assert QuadConfig(ns.atol, ns.rtol, ns.max_evals) == QuadConfig()
    if argv[0] != "constants":
        default_case = IdentityCase(0.5, A)
        assert ns.verdict_atol == default_case.verdict_atol == DEFAULT_VERDICT_TOL == 1e-6
        assert ns.verdict_rtol == default_case.verdict_rtol == 1e-6


def test_sweep_default_verdict_tolerances():
    (rep,) = sweep([2.0], [BranchedConstant(1.0)])
    assert (rep.case.verdict_atol, rep.case.verdict_rtol) == (1e-6, 1e-6)


def _parent_from_complex(z):
    """The reference: the rectangular mapping as the CLI ran it before the
    record owned it.  An argument that rounds up to 2*pi is refused."""
    theta = math.atan2(z.imag, z.real)
    if theta < 0.0:
        theta += 2 * math.pi
    return BranchedConstant(abs(z), theta)


def _bits(a):
    return a.r.hex(), a.theta.hex()


JUST_BELOW_TWO_PI = math.nextafter(2 * math.pi, 0.0)
SHEET_EDGE = [complex(x, y) for y in (-1e-300, -1e-17, -4.4e-16, -5e-16, -0.0, 0.0)
              for x in (1.0, 1e-300, 1e300)] + [complex(-1.0, 0.0), complex(-1.0, -0.0)]


@pytest.mark.parametrize("z", SHEET_EDGE, ids=repr)
def test_from_complex_at_the_sheet_edge(z):
    a = BranchedConstant.from_complex(z)
    assert 0.0 <= a.theta < 2 * math.pi and math.copysign(1.0, a.theta) == 1.0
    assert a.r == abs(z)
    try:
        parent = _parent_from_complex(z)
    except DomainError:  # the argument rounded onto 2*pi
        assert a.theta == JUST_BELOW_TWO_PI
    else:
        assert _bits(a) == _bits(parent)


@pytest.mark.parametrize("z,message", [(0j, "constant a must be nonzero"),
                                       (complex(1e308, 1.5e308), "modulus out of range")])
def test_from_complex_refusals(z, message):
    with pytest.raises(DomainError) as exc:
        BranchedConstant.from_complex(z)
    assert str(exc.value) == message


def _literal(rng):
    """A rectangular literal: ordinary parts, parts of any exponent, or a
    real part with an imaginary part just below the positive real axis."""
    kind = rng.random()
    if kind < 0.5:
        x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
    elif kind < 0.75:
        x, y = (rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(-320, 307)
                for _ in range(2))
    else:
        x = rng.random() * 10.0 ** rng.randint(-300, 300)
        y = -rng.random() * 10.0 ** rng.randint(-330, -14)
    if rng.random() < 0.1:
        return repr(x)
    return f"{x!r}{'-' if math.copysign(1.0, y) < 0 else '+'}{abs(y)!r}i"


def test_rectangular_literals_map_as_before():
    # bit for bit as the CLI mapped them, save an argument that rounded onto
    # 2*pi: it was refused, and is now stored just below 2*pi
    rng = random.Random(20190501)
    rounded = 0
    for _ in range(2000):
        text = _literal(rng)
        try:
            parent = _parent_from_complex(parse_complex(text))
        except DomainError as exc:
            assert "got 6.283185307179586" in str(exc), text
            rounded += 1
            a = parse_branched(text)
            assert a.theta == JUST_BELOW_TWO_PI and a.r == abs(parse_complex(text)), text
        else:
            assert _bits(parse_branched(text)) == _bits(parent), text
    assert 50 <= rounded <= 1000
