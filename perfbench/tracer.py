"""Outside-in tracing: spans around the package's public entry points.

The package is never edited.  ``install`` rebinds module attributes at the
names callers look up at call time, and returns a function that restores
them.  ``identities`` binds its imports by name, so its copies are the ones
wrapped; ``hurwitz.bernoulli_numbers`` likewise.  The integrand handed to
``integrate_semi_infinite`` and the term handed to ``alternating_sum`` are
wrapped on the way in.

Each span's self time is its duration minus the durations of its direct
child spans, accumulated per span name.  Self times of all names therefore
partition the traced wall time, up to the wrappers' own cost.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable

from zetaquad import hurwitz, identities
from zetaquad.quad import QuadResult

ROUTES = ("lhs", "zeta", "series", "contour")

# Spans called thousands of times per operation are aggregated only; the
# others are also kept as records (op id, name, start, end, parent).
FINE = frozenset({"quad.integrand", "complexfn.complex_pow", "identities.series.term"})


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # [name, child time, start]
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.records: list[tuple] | None = None
        self.hurwitz_calls: list[tuple] = []  # (op id, s, q, value or exception)
        self.op_id = -1

    def reset(self, keep_records: bool) -> None:
        """Start a new pass: clear totals; keep span records only if asked."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.hurwitz_calls.clear()
        self.records = [] if keep_records else None

    def enter(self, name: str) -> None:
        self.stack.append([name, 0.0, self.clock()])

    def exit(self) -> None:
        end = self.clock()
        name, child, start = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = None
        if self.stack:
            self.stack[-1][1] += duration
            parent = self.stack[-1][0]
        if self.records is not None and name not in FINE:
            self.records.append((self.op_id, name, start, end, parent))

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def wrap_route(self, route: str, fn: Callable) -> Callable:
        """A route span that also counts the route's raises and unconverged results."""
        inner = self.wrap(f"identities.{route}", fn)

        def traced(*args, **kwargs):
            try:
                result = inner(*args, **kwargs)
            except Exception:
                self.counts[f"identities.route_failed.{route}"] += 1
                raise
            if isinstance(result, QuadResult) and not result.converged:
                self.counts[f"identities.route_failed.{route}"] += 1
            return result
        return traced

    def wrap_quad(self, fn: Callable) -> Callable:
        def quad(f, *args, **kwargs):
            self.enter("quad")
            try:
                res = fn(self.wrap("quad.integrand", f), *args, **kwargs)
            finally:
                self.exit()
            self.counts["quad.evals"] += res.n_evals
            if not res.converged:
                self.counts["quad.unconverged"] += 1
            return res
        return quad

    def wrap_alternating_sum(self, fn: Callable) -> Callable:
        def alternating_sum(term, *args, **kwargs):
            self.enter("identities.alternating_sum")
            try:
                return fn(self.wrap("identities.series.term", term), *args, **kwargs)
            finally:
                self.exit()
        return alternating_sum

    def wrap_hurwitz(self, fn: Callable) -> Callable:
        """A hurwitz span that also records each call's arguments and outcome."""
        inner = self.wrap("hurwitz", fn)

        def traced(s, q, *args, **kwargs):
            try:
                value = inner(s, q, *args, **kwargs)
            except Exception as exc:
                self.hurwitz_calls.append((self.op_id, complex(s), complex(q), exc))
                raise
            self.hurwitz_calls.append((self.op_id, complex(s), complex(q), value))
            return value
        return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the entry points; the returned function puts the originals back."""
    patches = {
        (identities, "verify"): tracer.wrap("identities.verify", identities.verify),
        (identities, "integrate_semi_infinite"): tracer.wrap_quad(
            identities.integrate_semi_infinite),
        (identities, "alternating_sum"): tracer.wrap_alternating_sum(
            identities.alternating_sum),
        (identities, "complex_pow"): tracer.wrap("complexfn.complex_pow",
                                                 identities.complex_pow),
        (identities, "gamma"): tracer.wrap("complexfn.gamma", identities.gamma),
        (identities, "hurwitz_zeta"): tracer.wrap_hurwitz(identities.hurwitz_zeta),
        (hurwitz, "hurwitz_zeta"): tracer.wrap_hurwitz(hurwitz.hurwitz_zeta),
        (hurwitz, "hurwitz_zeta_ds"): tracer.wrap_hurwitz(hurwitz.hurwitz_zeta_ds),
        (hurwitz, "bernoulli_numbers"): tracer.wrap("complexfn.bernoulli_numbers",
                                                    hurwitz.bernoulli_numbers),
    }
    for route, fn_name in zip(ROUTES, ("lhs_integral", "rhs_zeta", "rhs_series",
                                       "rhs_contour")):
        patches[(identities, fn_name)] = tracer.wrap_route(
            route, getattr(identities, fn_name))
    originals = {key: getattr(*key) for key in patches}
    for (module, name), fn in patches.items():
        setattr(module, name, fn)

    def uninstall() -> None:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)
    return uninstall
