"""zetaquad benchmark: seeded workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
``--seconds 0`` runs only the untimed correctness check.  A fuller record of
every run goes to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
RESULTS = HERE / "results"

SETUP_REPEATS = 11
# Set-up samples are divided by the mean start time of the bare interpreters
# run just before and just after them, and reported at this bare start time
# (the reference machine's, 2-core VM, Python 3.11).  On that VM, medians of
# 11 set-up samples ranged over 45% within minutes while their ratios to the
# bare starts ranged over 9%; the in-process calibration kernel does not
# track process start-up.
BARE_REFERENCE_S = 0.060

SETUP_CODE = """\
import zetaquad.cli
from zetaquad.complexfn import BranchedConstant
from zetaquad.identities import IdentityCase, verify
verify(IdentityCase({k!r}, BranchedConstant({r!r}, {theta!r})))
"""


def _use_checkout_source() -> None:
    """Import zetaquad from this checkout's src/ and nowhere else."""
    if not (SRC / "zetaquad" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'zetaquad'}")
    sys.path[:0] = [str(HERE), str(SRC)]
    import zetaquad

    if Path(zetaquad.__file__).resolve().parent != SRC / "zetaquad":
        raise SystemExit(f"error: zetaquad imported from {zetaquad.__file__}, not {SRC}")


_use_checkout_source()

import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from zetaquad import cli  # noqa: E402
from zetaquad.complexfn import BranchedConstant  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zetaquad").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if not a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# references

def load_references(workload: str, seed: int, items: list, inputs_key: str) -> list:
    """mpmath references, computed once per input set in a child process and cached."""
    path = CACHE / f"ref-{workload}-{seed}-{inputs_key}.json"
    if not path.is_file():
        CACHE.mkdir(exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "reference.py"), workload, str(seed),
                        str(path)], env=_child_env(), check=True, timeout=170)
    raw = json.loads(path.read_text(encoding="utf-8"))
    if len(raw) != len(items):
        raise RuntimeError(f"reference cache {path} does not match the inputs")
    return raw


def _c(pair: list[float]) -> complex:
    return complex(pair[0], pair[1])


# ---------------------------------------------------------------------------
# passes

def _interpreter_s(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code``."""
    t0 = time.perf_counter()
    # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantise the measurement
    with subprocess.Popen([sys.executable, "-c", code], env=_child_env(),
                          stdout=subprocess.DEVNULL) as proc:
        status = proc.wait()
    if status != 0:
        raise RuntimeError(f"set-up interpreter exited with status {status}")
    return time.perf_counter() - t0


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the CLI and verify one
    case, and of the bare interpreters (``-c pass``) run between them, one
    more bare than set-up."""
    k = workloads.WARMUP_K
    r, theta = workloads.WARMUP_A
    code = SETUP_CODE.format(k=k, r=r, theta=theta)
    bare = [_interpreter_s("pass")]
    setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(_interpreter_s(code))
        bare.append(_interpreter_s("pass"))
    return setup, bare


def run_pass(workload: str, items: list, tracer=None, cal=None) -> dict:
    """One pass over the inputs: every operation, then (grid, edge) the render.

    Returns the outputs, per-operation start times and latencies, the render's
    start time and duration, and the pass wall time.  With a tracer, each
    operation carries its index as op id and the render is a ``cli.render``
    span.  With a calibration, its kernel runs between operations and its time
    is left out of the pass wall time.
    """
    clock = time.perf_counter
    op = workloads.zeta_call if workload == "zeta" else (
        lambda case: workloads.verify_case(*case))
    outputs: list = []
    latency: list[float] = []
    starts: list[float] = []
    cal_before = cal.spent if cal is not None else 0.0
    start = clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op_id = i
        if cal is not None:
            cal.maybe_sample()
        t0 = clock()
        try:
            out = op(item)
        except Exception as exc:  # a failed operation, classified later
            out = exc
        latency.append(clock() - t0)
        starts.append(t0)
        outputs.append(out)
    text = None
    render_s = 0.0
    t0 = clock()
    if workload != "zeta":
        if tracer is not None:
            tracer.op_id = -1
            tracer.enter("cli.render")
        try:
            text = workloads.render([o for o in outputs if not isinstance(o, Exception)])
        finally:
            if tracer is not None:
                tracer.exit()
        render_s = clock() - t0
    wall = clock() - start - (cal.spent - cal_before if cal is not None else 0.0)
    return {"outputs": outputs, "starts": starts, "latency": latency, "text": text,
            "render_start": t0, "render_s": render_s, "wall": wall}


def fingerprint(workload: str, result: dict) -> str:
    """Rendered JSON of a pass's outputs (zeta values rendered as the CLI prints them)."""
    errors = [f"{i}: {type(o).__name__}: {o}" for i, o in enumerate(result["outputs"])
              if isinstance(o, Exception)]
    if workload != "zeta":
        return result["text"] + "\n" + "\n".join(errors)
    rows = [cli.render_complex(o) if not isinstance(o, Exception) else "error"
            for o in result["outputs"]]
    return cli.dumps_fixed(rows) + "\n" + "\n".join(errors)


def classify(workload: str, outputs: list, refs: list) -> list[str | None]:
    if workload == "zeta":
        return [workloads.classify_value(o, _c(r)) for o, r in zip(outputs, refs)]
    return [workloads.classify_report(o, _c(r["value"])) for o, r in zip(outputs, refs)]


@dataclass
class Passes:
    summaries: list[dict]  # one per pass
    first: dict  # the first pass's raw result; its outputs are the ones classified
    text: str  # the fingerprint every pass had to reproduce
    same: bool  # whether every pass reproduced it
    op_mean_ref: list[float] | None  # per operation, mean latency at reference speed


def timed_passes(workload: str, items: list, seconds: float, reference_text: str | None,
                 tracer=None, cal=None, keep_records: bool = False) -> Passes:
    """Whole passes until ``seconds`` have gone by (at least one).

    Every pass must reproduce ``reference_text``, or the first pass's
    fingerprint when that is None.  With a tracer, ``keep_records`` keeps the
    span records of the first pass.  With a calibration, a pass's times are
    divided by their slowness once three kernel samples have ended after it
    (the last passes' after the final samples), so that every operation has
    samples on both sides.
    """
    summaries: list[dict] = []
    # passes whose slowness is not final yet: summary, op starts, latencies,
    # render start and time.  A pass waits only for the next three samples,
    # about 0.75 s, so memory does not grow with the run.
    pending: list[tuple] = []
    op_sum = [0.0] * len(items)

    def normalise(summary: dict, starts: list, latency: list, r0: float,
                  render_s: float) -> None:
        nonlocal op_sum
        ref = [d / cal.slowness(t, t + d) for t, d in zip(starts, latency)]
        render_ref = render_s / cal.slowness(r0, r0 + render_s)
        summary["ref_ops_per_s"] = len(items) / (sum(ref) + render_ref)
        op_sum = [a + b for a, b in zip(op_sum, ref)]

    first: dict = {}
    same = True
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.reset(keep_records=keep_records and not summaries)
        res = run_pass(workload, items, tracer, cal)
        summary = {
            "wall": res["wall"],
            "ops_per_s": len(items) / res["wall"],
            "p50": statistics.median(res["latency"]),
            "p95": statistics.quantiles(res["latency"], n=20)[18],
            "op_wall": sum(res["latency"]),
            "render_s": res["render_s"],
            "bytes": len(res["text"].encode("utf-8")) if res["text"] else 0,
        }
        if cal is not None:
            pending.append((summary, res["starts"], res["latency"], res["render_start"],
                            res["render_s"]))
            while pending and cal.samples_after(pending[0][3] + pending[0][4]) >= 3:
                normalise(*pending.pop(0))
        if tracer is not None:
            summary["trace"] = trace_summary(tracer)
        text = fingerprint(workload, res)
        if not summaries:
            first = res
            reference_text = reference_text if reference_text is not None else text
        same = same and text == reference_text
        summaries.append(summary)
        if time.perf_counter() >= deadline:
            break
    if cal is None:
        return Passes(summaries, first, reference_text, same, None)
    cal.sample_after()
    for args in pending:
        normalise(*args)
    mean_ref = [t / len(summaries) for t in op_sum]
    return Passes(summaries, first, reference_text, same, mean_ref)


# ---------------------------------------------------------------------------
# traced run

HURWITZ_TOL = 1e-9  # q of a traced hurwitz call vs q of its reference entry


def hurwitz_failures(workload: str, calls: list[tuple], refs: list) -> int:
    """Hurwitz calls that raised or missed their mpmath value by the verdict rule."""
    failed = 0
    for op_id, _s, q, value in calls:
        if isinstance(value, Exception):
            failed += 1
            continue
        if workload == "zeta":
            expected = _c(refs[op_id])
        else:
            matches = [_c(z) for qr, z in refs[op_id]["hurwitz"]
                       if abs(_c(qr) - q) <= HURWITZ_TOL]
            if not matches:
                raise RuntimeError(f"no reference for hurwitz call at q={q}")
            expected = matches[0]
        if workloads.classify_value(value, expected) is not None:
            failed += 1
    return failed


def trace_summary(tracer) -> dict:
    summary = {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "hurwitz_calls": list(tracer.hurwitz_calls),
    }
    if tracer.records is not None:
        summary["records"] = tracer.records
    return summary


def exact_counters(t: dict) -> dict[str, int]:
    """The counters that must repeat exactly for one seed."""
    return {
        "quad.evals": t["counts"].get("quad.evals", 0),
        "identities.series.terms": t["calls"].get("identities.series.term", 0),
        "hurwitz.calls": t["calls"].get("hurwitz", 0),
        "complexfn.complex_pow.calls": t["calls"].get("complexfn.complex_pow", 0),
    }


def per_layer_metrics(workload: str, traced: list[dict], untraced: list[dict],
                      refs: list) -> tuple[dict, dict]:
    """Per-layer metrics, counts from the first traced pass and times averaged
    over traced passes; plus the self-time accounting."""
    first = traced[0]["trace"]
    calls, counts = first["calls"], first["counts"]

    def mean_self(name: str) -> float:
        return statistics.fmean(p["trace"]["self_s"].get(name, 0.0) for p in traced)

    quad_calls = calls.get("quad", 0)
    m: dict[str, tuple[float, str]] = {
        "quad.calls": (quad_calls, "count"),
        "quad.evals": (counts.get("quad.evals", 0), "count"),
        "quad.self_s": (mean_self("quad"), "s"),
        "quad.integrand_s": (mean_self("quad.integrand"), "s"),
        "quad.unconverged": (counts.get("quad.unconverged", 0), "count"),
        "quad.converged_ratio": (
            (quad_calls - counts.get("quad.unconverged", 0)) / quad_calls
            if quad_calls else 0.0, "ratio"),
        "complexfn.complex_pow.calls": (calls.get("complexfn.complex_pow", 0), "count"),
        "complexfn.complex_pow.self_s": (mean_self("complexfn.complex_pow"), "s"),
        "complexfn.gamma.calls": (calls.get("complexfn.gamma", 0), "count"),
        "complexfn.bernoulli_numbers.calls": (
            calls.get("complexfn.bernoulli_numbers", 0), "count"),
        "complexfn.bernoulli_numbers.self_s": (
            mean_self("complexfn.bernoulli_numbers"), "s"),
        "hurwitz.calls": (calls.get("hurwitz", 0), "count"),
        "hurwitz.self_s": (mean_self("hurwitz"), "s"),
        "hurwitz.failed": (hurwitz_failures(workload, first["hurwitz_calls"], refs),
                           "count"),
    }
    for route in ("lhs", "zeta", "series", "contour", "verify"):
        m[f"identities.{route}.self_s"] = (mean_self(f"identities.{route}"), "s")
    m["identities.series.terms"] = (calls.get("identities.series.term", 0), "count")
    m["identities.alternating_sum.self_s"] = (mean_self("identities.alternating_sum"), "s")
    for route in ("lhs", "zeta", "series", "contour"):
        m[f"identities.route_failed.{route}"] = (
            counts.get(f"identities.route_failed.{route}", 0), "count")
    m["cli.render_s"] = (mean_self("cli.render"), "s")
    m["cli.bytes"] = (traced[0]["bytes"], "bytes")

    untraced_rate = statistics.median(p["ops_per_s"] for p in untraced)
    traced_rate = statistics.median(p["ops_per_s"] for p in traced)
    traced_wall = statistics.fmean(p["op_wall"] + p["render_s"] for p in traced)
    untraced_wall = statistics.fmean(p["op_wall"] + p["render_s"] for p in untraced)
    # medians: robust to a pass that the machine slowed
    overhead = (statistics.median(p["op_wall"] + p["render_s"] for p in traced)
                - statistics.median(p["op_wall"] + p["render_s"] for p in untraced))
    # Self times telescope to the top-level spans, so the unattributed time is
    # only the loop glue around them; it is reported, not checked.
    self_sum = statistics.fmean(sum(p["trace"]["self_s"].values()) for p in traced)
    m["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    m["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    m["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.self_sum_s"] = (self_sum, "s")
    accounting = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "self_sum_s": self_sum,
        "unattributed_s": traced_wall - self_sum,
        "tracing_overhead_s": overhead,
        "self_s_by_span": {name: statistics.fmean(p["trace"]["self_s"].get(name, 0.0)
                                                  for p in traced)
                           for name in sorted(first["self_s"])},
        "calls_by_span": dict(sorted(calls.items())),
    }
    return m, accounting


# ---------------------------------------------------------------------------

def _state_check(workload: str, inputs_key: str, record: dict) -> bool:
    """Compare exact counters with an earlier run on the same inputs and source.

    The first run of a (workload, inputs, source) stores them; later runs must
    match.  Returns False on a mismatch.
    """
    key = f"{workload}-{inputs_key}-{_source_digest()[:16]}"
    path = CACHE / f"counters-{key}.json"
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8")) == record
    CACHE.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return True


def metadata(args: argparse.Namespace, n_items: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "ops_per_pass": n_items,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")

    items = workloads.inputs(args.workload, args.seed)
    inputs_key = _sha256(repr(items))[:16]
    refs = load_references(args.workload, args.seed, items, inputs_key)
    info = metadata(args, len(items))
    metrics: dict[str, tuple[float, str]] = {}
    # pays lazy set-up (the Bernoulli fractions) before anything is timed
    workloads.verify_case(workloads.WARMUP_K, BranchedConstant(*workloads.WARMUP_A))

    if args.seconds == 0:
        run = timed_passes(args.workload, items, 0.0, None)
    elif not args.trace:
        setup, bare = measure_setup()
        setup_ratio = [2.0 * t / (b0 + b1) for t, b0, b1 in zip(setup, bare, bare[1:])]
        cal = Calibration()
        run = timed_passes(args.workload, items, args.seconds, None, cal=cal)
        op_ms = [1e3 * t for t in run.op_mean_ref]
        metrics = {
            "setup_s": (BARE_REFERENCE_S * statistics.median(setup_ratio), "s"),
            "ops_per_s": (statistics.median(p["ref_ops_per_s"] for p in run.summaries),
                          "1/s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "op_ms_p95": (statistics.quantiles(op_ms, n=20)[18], "ms"),
        }
        info["calibration_samples_s"] = cal.durations
        info["setup_samples_s"] = setup
        info["bare_interpreter_samples_s"] = bare
        info["passes"] = run.summaries
        info["latency_samples"] = len(items)
        info["samples_beyond_p95"] = len(items) - int(0.95 * len(items))
    else:
        # Traced and untraced passes alternate, so that both see the same
        # machine and their difference is the tracing overhead.
        run = timed_passes(args.workload, items, 0.0, None)
        untraced, traced = run.summaries, []
        tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        while len(traced) < 2 or time.perf_counter() < deadline:
            uninstall = install(tracer)
            try:
                t = timed_passes(args.workload, items, 0.0, run.text, tracer,
                                 keep_records=not traced)
            finally:
                uninstall()
            u = timed_passes(args.workload, items, 0.0, run.text)
            traced += t.summaries
            untraced += u.summaries
            run.same = run.same and t.same and u.same
        metrics, accounting = per_layer_metrics(args.workload, traced, untraced, refs)
        counters = [exact_counters(p["trace"]) for p in traced]
        info["exact_counters"] = counters[0]
        info["counters_repeat_in_run"] = all(c == counters[0] for c in counters)
        info["counters_repeat_across_runs"] = _state_check(args.workload, inputs_key,
                                                           counters[0])
        info["self_time_accounting"] = accounting
        info["passes_untraced"] = len(untraced)
        info["passes_traced"] = len(traced)
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with spans.open("w", encoding="utf-8") as fh:
            for rec in traced[0]["trace"]["records"]:
                fh.write(json.dumps(rec) + "\n")
        info["spans_file"] = str(spans.relative_to(ROOT))
        for p_ in traced:
            del p_["trace"]

    reasons = classify(args.workload, run.first["outputs"], refs)
    attempted = len(items)
    failed = sum(r is not None for r in reasons)
    if args.seconds > 0 and not args.trace:
        # Jeffreys estimate of the failure rate: never 0, so a workload with no
        # failures still reads a value that one new failure moves.
        metrics["failed_share"] = ((failed + 0.5) / (attempted + 1), "ratio")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info["outputs_repeat_exactly"] = run.same
    info["render_sha256"] = _sha256(run.text)
    info["failure_reasons"] = {r: reasons.count(r) for r in sorted(set(reasons) - {None})}
    info["failed_ops"] = [i for i, r in enumerate(reasons) if r is not None]
    # Every workload is chosen so that no operation fails at the seed commit,
    # so a failed operation is a wrong output.
    correct = failed == 0 and run.same and info.get(
        "counters_repeat_in_run", True) and info.get("counters_repeat_across_runs", True)

    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(info, result=out), indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  python {info['python']}  "
          f"nproc {info['nproc']}  commit {info['git_commit']}")
    print(f"attempted {attempted}  failed {failed}  reasons {info['failure_reasons']}  "
          f"outputs repeat {run.same}  render sha256 {info['render_sha256'][:16]}")
    for name, (v, u) in metrics.items():
        print(f"  {name:38s} {v:14.6g} {u}")
    if "passes" in info:
        print(f"  ({len(run.summaries)} timed passes of {attempted} ops; ops_per_s is the "
              f"median over passes; percentiles over the {attempted} ops' mean latencies, "
              f"{info['samples_beyond_p95']} beyond p95; times at reference speed from "
              f"{len(info['calibration_samples_s'])} calibration samples; raw ops_per_s "
              f"{statistics.median(p['ops_per_s'] for p in run.summaries):.6g})")
    if "self_time_accounting" in info:
        a = info["self_time_accounting"]
        print(f"  self-time sum {a['self_sum_s']:.4f} s vs traced wall "
              f"{a['traced_wall_s']:.4f} s (unattributed {a['unattributed_s']:.2e} s); "
              f"tracing overhead {a['tracing_overhead_s']:.4f} s; exact counters "
              f"{info['exact_counters']} repeat in run {info['counters_repeat_in_run']}, "
              f"across runs {info['counters_repeat_across_runs']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
