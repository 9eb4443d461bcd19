"""Per-layer tracing from outside the package.

The tracer swaps a timing wrapper in for each public name listed in
``SPANS``, in every ``stabilitylab`` module namespace that binds the same
function object (``stability.alpha_mask`` and ``enumeration.alpha_mask`` are
both replaced), and puts the originals back on ``uninstall``.  Calls inside
the package go through module globals, so the wrappers see them without any
change under ``src/``.

Each wrapper pushes a frame on a span stack.  A frame holds the span name,
the time its child spans covered, and the id of the benchmark operation it
belongs to.  Spans are aggregated per (name, parent name) as count, total
seconds and self seconds (duration minus the time child spans covered), so
memory stays bounded however many calls a run makes.

A name that a later version of the package no longer has is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from harness import PACKAGE

#: (span name, home module, attribute)
SPANS = (
    ("canonical.refine_colors", "canonical", "refine_colors"),
    ("canonical.canonical_data", "canonical", "canonical_data"),
    ("enumeration.extend_level", "enumeration", "extend_level"),
    ("enumeration.verify_theorem", "enumeration", "verify_theorem"),
    ("independence.alpha_mask", "independence", "alpha_mask"),
    ("stability.stable_fast", "stability", "stable_fast"),
    ("stability.tight_stable_fast", "stability", "tight_stable_fast"),
    ("stability.is_stable", "stability", "is_stable"),
    ("stability.max_alpha_drop", "stability", "max_alpha_drop"),
    ("critical.is_alpha_critical", "critical", "is_alpha_critical"),
    ("critical.critical_reduce", "critical", "critical_reduce"),
    ("critical.classify_defect", "critical", "classify_defect"),
    ("critical.defect", "critical", "defect"),
    ("structure.perfect_matching_tight10", "structure", "perfect_matching_tight10"),
    ("structure.odd_cycle_matching_decomposition", "structure", "odd_cycle_matching_decomposition"),
    ("structure.two_cycles_or_subdivision_decomposition", "structure", "two_cycles_or_subdivision_decomposition"),
    ("structure.five_graph_decomposition", "structure", "five_graph_decomposition"),
    ("structure.hall_matching", "structure", "hall_matching"),
    ("structure.validate_decomposition", "structure", "validate_decomposition"),
    ("graph6.write_graph6", "graph6", "write_graph6"),
    ("graph6.parse_graph6", "graph6", "parse_graph6"),
    ("cli.main", "cli", "main"),
)

REFINE = "canonical.refine_colors"
CANON = "canonical.canonical_data"
EXTEND = "enumeration.extend_level"
VERIFY = "enumeration.verify_theorem"
ALPHA = "independence.alpha_mask"
MAIN = "cli.main"
SCAN = frozenset(s for s, home, _ in SPANS if home == "stability")
CRITICAL = frozenset(s for s, home, _ in SPANS if home == "critical")
CERTIFICATES = frozenset(s for s, home, _ in SPANS if home == "structure")
GRAPH6 = frozenset(s for s, home, _ in SPANS if home == "graph6")
OPERATION = "bench.operation"
#: spans whose result length is summed (classes emitted by the augmentation)
COUNT_RESULTS = frozenset({EXTEND})


class Tracer:
    def __init__(self, mods) -> None:
        self.agg: dict[tuple[str, str], list] = {}
        self.via: dict[tuple[str, str], int] = {}
        self.results: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._ops = 0
        modules = [
            (name.rpartition(".")[2], mod)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self._swaps: list[tuple[object, str, object, object]] = []
        for span, home, attr in SPANS:
            fn = getattr(getattr(mods, home, None), attr, None)
            if not callable(fn):
                self.absent.append(span)
                continue
            for via, mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._swaps.append((mod, key, fn, self._wrap(fn, span, via)))

    def install(self) -> None:
        for mod, key, _, wrapper in self._swaps:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn, _ in self._swaps:
            setattr(mod, key, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, fn, span: str, via: str):
        stack = self._stack
        agg = self.agg
        via_counts = self.via
        via_key = (span, via)
        results = self.results if span in COUNT_RESULTS else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0, parent[2] if parent else 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                key = (span, parent[0] if parent else "-")
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                via_counts[via_key] = via_counts.get(via_key, 0) + 1
            if results is not None:
                results[span] = results.get(span, 0) + len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    @contextmanager
    def operation(self, label: str):
        """Root span of one benchmark call; its spans share the operation id."""
        self._ops += 1
        frame = [OPERATION, 0.0, self._ops]
        self._stack.append(frame)
        try:
            yield
        finally:
            if self._stack.pop() is not frame:
                raise RuntimeError(f"span stack out of balance after {label}")

    # -- aggregation -----------------------------------------------------

    def _sum(self, names, field: int, parents=None, exclude_parents=frozenset()) -> float:
        total = 0
        for (name, parent), rec in self.agg.items():
            if name not in names or parent in exclude_parents:
                continue
            if parents is not None and parent not in parents:
                continue
            total += rec[field]
        return total

    def counters(self) -> dict[str, int]:
        """Exact counts that must repeat across traced runs of one seed."""
        scans = self._sum(SCAN, 0, exclude_parents=SCAN)
        return {
            "alpha_calls": self._sum({ALPHA}, 0),
            "refine_calls": self._sum({REFINE}, 0),
            "canonical_data_calls": self._sum({CANON}, 0),
            "classes_out": self.results.get(EXTEND, 0),
            "scans": scans,
            "scan_alpha_calls": self._sum({ALPHA}, 0, parents=SCAN),
        }

    def layer_metrics(self, passes: int, scale: float) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-pass layer metrics, and the names whose spans are all absent.

        Seconds are multiplied by ``scale``, the host-speed factor that turns
        them into reference seconds.
        """
        calls = lambda names, **kw: self._sum(names, 0, **kw) / passes
        self_s = lambda names: self._sum(names, 2) / passes * scale
        gate_refines = self.via.get((REFINE, "enumeration"), 0) / passes
        classes_out = self.results.get(EXTEND, 0) / passes
        alpha_calls = calls({ALPHA})
        scans = calls(SCAN, exclude_parents=SCAN)
        a, r, x = frozenset({ALPHA}), frozenset({REFINE}), frozenset({EXTEND})
        c = frozenset({CANON})
        table = (
            ("canonical.refine_colors.calls", calls({REFINE}), "count", (r,)),
            ("canonical.refine_colors.self_s", self_s({REFINE}), "s", (r,)),
            ("canonical.canonical_data.calls", calls({CANON}), "count", (c,)),
            ("canonical.canonical_data.self_s", self_s({CANON}), "s", (c,)),
            ("enumeration.extend_level.self_s", self_s({EXTEND}), "s", (x,)),
            ("enumeration.gate.refine_calls", gate_refines, "count", (r,)),
            ("enumeration.classes_out", classes_out, "count", (x,)),
            (
                "enumeration.gate.accept_ratio",
                classes_out / gate_refines if gate_refines else 0.0,
                "ratio",
                (x, r),
            ),
            ("independence.alpha_mask.calls", alpha_calls, "count", (a,)),
            ("independence.alpha_mask.self_s", self_s({ALPHA}), "s", (a,)),
            (
                "independence.alpha_mask.us_per_call",
                self_s({ALPHA}) / alpha_calls * 1e6 if alpha_calls else 0.0,
                "us",
                (a,),
            ),
            ("stability.scan.calls", scans, "count", (SCAN,)),
            ("stability.scan.self_s", self_s(SCAN), "s", (SCAN,)),
            (
                "stability.alpha_per_scan",
                calls({ALPHA}, parents=SCAN) / scans if scans else 0.0,
                "ratio",
                (SCAN, a),
            ),
            ("critical.self_s", self_s(CRITICAL), "s", (CRITICAL,)),
            ("critical.alpha_calls", calls({ALPHA}, parents=CRITICAL), "count", (CRITICAL, a)),
            (
                "enumeration.filter_alpha_calls",
                self.via.get((ALPHA, "enumeration"), 0) / passes,
                "count",
                (a,),
            ),
            ("enumeration.verify_theorem.self_s", self_s({VERIFY}), "s", (frozenset({VERIFY}),)),
            (
                "structure.certificates.calls",
                calls(CERTIFICATES, exclude_parents=CERTIFICATES),
                "count",
                (CERTIFICATES,),
            ),
            ("structure.certificates.self_s", self_s(CERTIFICATES), "s", (CERTIFICATES,)),
            ("graph6.self_s", self_s(GRAPH6), "s", (GRAPH6,)),
            ("cli.main.self_s", self_s({MAIN}), "s", (frozenset({MAIN}),)),
        )
        absent = frozenset(self.absent)
        metrics = {}
        missing = []
        for name, value, unit, needs in table:
            # a metric is absent when any span group it is built from is absent
            if any(group <= absent for group in needs):
                missing.append(name)
            metrics[name] = (value, unit)
        return metrics, missing
