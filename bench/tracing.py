"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each locrep module from the
outside, at the name each caller looks the function up under (a module
that did ``from .gf2m import solve_column`` holds its own reference, so
that name is wrapped too).  ``GF2m`` and ``LinearCode`` instances forbid
setattr, so their methods are wrapped on the class.  Nothing in the
package is edited; ``uninstall`` puts every original back.

Each wrapped call is a span (name, start, end, parent).  Spans stay in
memory and are written once, when the run ends.  ``GF2m.mul`` and
``GF2m.inv`` run tens of millions of times per pass, so they are only
counted, never timed.  The runner uninstalls the wrappers while it
checks an answer, so the checks are not traced.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from functools import wraps

from locrep import bounds, cli, gf2m, linear_code, regsets, repair, square

# (owner, attribute, layer name).  Several sites may share a layer name
# when one function is reachable under several names.
SPAN_SITES = (
    (gf2m, "is_irreducible", "gf2m.is_irreducible"),
    (gf2m.GF2m, "__init__", "gf2m.field_init"),
    (gf2m, "matrix_rank", "gf2m.matrix_rank"),
    (repair, "solve_column", "gf2m.solve_column"),
    (linear_code.LinearCode, "entropy", "linear_code.entropy"),
    (linear_code, "min_distance", "linear_code.min_distance"),
    (square, "min_distance", "linear_code.min_distance"),
    (linear_code, "loads", "linear_code.loads"),
    (regsets, "minimal_regsets", "regsets.minimal_regsets"),
    (repair, "minimal_regsets", "regsets.minimal_regsets"),
    (regsets, "phi_profile", "regsets.phi_profile"),
    (regsets, "verify_locality", "regsets.verify_locality"),
    (repair, "verify_locality", "regsets.verify_locality"),
    (square, "build_square_code", "square.build_square_code"),
    (square, "verify_optimal_distance", "square.verify_optimal_distance"),
    (repair, "plan_repair", "repair.plan_repair"),
    (repair, "execute_repair", "repair.execute_repair"),
    (repair, "repair_tolerance", "repair.repair_tolerance"),
    (bounds, "bound_report", "bounds"),
    (bounds, "compare_table_csv", "bounds"),
    (bounds, "s_value", "bounds"),
    (square, "s_value", "bounds"),
    (cli, "main", "cli.main"),
)

COUNT_SITES = (
    (gf2m.GF2m, "mul", "gf2m.mul"),
    (gf2m.GF2m, "inv", "gf2m.inv"),
)

# Layers entered tens of thousands to millions of times per pass are
# timed and counted, but no span record is kept for them.
_UNRECORDED = frozenset({"linear_code.entropy", "gf2m.matrix_rank"})


class Tracer:
    """Counts, busy time and self time per layer, plus recorded spans.

    ``busy`` adds a span's duration only when no span of the same layer
    encloses it, so recursion and nested entry points are not counted
    twice.  Self time is a span's duration minus the time its direct
    child spans cover.
    """

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.under: Counter[tuple[str, str]] = Counter()  # (parent, child)
        self.sets_found = 0
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._open: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, span id, child seconds]
        self._next_id = 1
        # (owner, attribute, original, wrapper); built while nothing is
        # installed, so the originals are the package's own functions.
        self._sites = []
        for sites, wrap in ((SPAN_SITES, self._span), (COUNT_SITES, self._count)):
            for owner, attr, name in sites:
                orig = owner.__dict__[attr]
                self._sites.append((owner, attr, orig, wrap(name, orig)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._sites:
            setattr(owner, attr, orig)

    def run_request(self, label: str, call):
        """Run one benchmark request as the root span of all its spans."""
        return self._span("request " + label, call)()

    def _count(self, name, fn):
        calls = self.calls

        @wraps(fn)
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    def _span(self, name, fn):
        tracer = self
        record = name not in _UNRECORDED

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = 0
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, span_id, 0.0]
            tracer._open[name] += 1
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._open[name] -= 1
                dur = (end - start) * 1e-9
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if not tracer._open[name]:
                    tracer.busy[name] += dur
                if parent is not None:
                    parent[2] += dur
                    tracer.under[parent[0], name] += 1
                if record:
                    parent_id = parent[1] if parent is not None else 0
                    tracer.spans.append((span_id, parent_id, name, start, end))
            if name == "regsets.minimal_regsets":
                tracer.sets_found += len(result)
            return result

        return traced
