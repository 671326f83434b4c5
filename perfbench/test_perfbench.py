"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import workloads  # noqa: E402
from reference import case_reference, zeta_reference  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from zetaquad import hurwitz, identities  # noqa: E402
from zetaquad.complexfn import BranchedConstant  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)
    assert workloads.inputs(workload, 7) != workloads.inputs(workload, 8)


@pytest.mark.parametrize("seed", range(1, 6))
def test_generated_cases_are_valid(seed):
    for workload in ("grid", "edge"):
        for k, a in workloads.inputs(workload, seed):
            assert identities.case_violation(k, a) is None, (workload, k, a)


def test_zeta_points_are_distinct():
    points = workloads.zeta_points(3)
    assert len({(p.s, p.q) for p in points}) == len(points) == workloads.ZETA_SIDE ** 2


def _classify_case(k: complex, a: BranchedConstant) -> str | None:
    ref = case_reference(k, a.r, a.theta)["value"]
    return workloads.classify_report(identities.verify(identities.IdentityCase(k, a)),
                                     complex(*ref))


def test_classifier_fails_large_re_k_case():
    # zetaquad verify --k 25.5 --a 1@0.5: the zeta route is wrong at s = -24.5
    assert _classify_case(25.5 + 0j, BranchedConstant(1.0, 0.5)) == "verdict_fail"


def test_classifier_passes_catalan_case():
    assert _classify_case(-1.0 + 0j, BranchedConstant(1.0)) is None


def test_classifier_zeta_values():
    s, q = -24.5 + 0j, 0.3 + 0.2j
    assert workloads.classify_value(hurwitz.hurwitz_zeta(s, q),
                                    complex(*zeta_reference(0, s, q))) == "value_off"
    s, q = 2.0 + 0j, 0.25 + 0j
    assert workloads.classify_value(hurwitz.hurwitz_zeta_ds(s, q),
                                    complex(*zeta_reference(1, s, q))) is None
    assert workloads.classify_value(ValueError("x"), 0j) == "raised"


def test_self_time_arithmetic_on_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 7.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    t.reset(keep_records=True)
    # outer [0, 10] > a [1, 3], b [4, 7] > c [4.5, 5]
    t.enter("outer")
    t.enter("a")
    t.exit()
    t.enter("b")
    t.enter("c")
    t.exit()
    t.exit()
    t.exit()
    assert dict(t.self_s) == {"a": 2.0, "c": 0.5, "b": 2.5, "outer": 5.0}
    assert sum(t.self_s.values()) == 10.0
    assert [(name, parent) for _, name, _, _, parent in t.records] == [
        ("a", "outer"), ("c", "b"), ("b", "outer"), ("outer", None)]


def test_install_traces_and_restores():
    original = identities.verify
    t = Tracer()
    t.reset(keep_records=False)
    uninstall = install(t)
    try:
        identities.verify(identities.IdentityCase(0.5 + 0j, BranchedConstant(2.0)))
    finally:
        uninstall()
    assert identities.verify is original
    assert t.calls["identities.verify"] == 1
    assert t.calls["quad"] == 3  # two lhs half-lines and the contour
    assert t.calls["hurwitz"] == 2
    assert t.calls["identities.series.term"] > 0
    assert t.counts["quad.evals"] > 0
