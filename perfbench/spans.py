"""Outside-in span tracing of treeburn's public functions.

The tracer wraps functions from the benchmark side: it replaces every
module-level binding of each wrapped function (and the `Graph.is_connected`
method) with a wrapper that records one span per call, and puts the original
bindings back when it is uninstalled.  No source file of the program changes.

A span is (name, start, end, parent).  Spans are kept in memory, in call
order, and are written out once, when the benchmark ends.  Self time is a
span's duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# The exact fallback inside construct is reported apart from the calls the
# benchmark makes itself.
EXACT_FROM_BENCH = "exact.burning_number.bench"
EXACT_FROM_CONSTRUCT = "exact.burning_number.construct"

# (span name, module, attribute) for every wrapped function.  Span names are
# "<module>.<function>", the prefix of the per-layer metric names.
TARGETS = (
    ("graphs.build_graph", "graphs", "build_graph"),
    ("graphs.as_tree", "graphs", "as_tree"),
    ("graphs.induced_subtree", "graphs", "induced_subtree"),
    ("graphs.component_vertices_beyond", "graphs", "component_vertices_beyond"),
    ("graphs.augment_degree2", "graphs", "augment_degree2"),
    ("graphs.degree2_census", "graphs", "degree2_census"),
    ("graphs.bfs_distances", "graphs", "bfs_distances"),
    ("engine.simulate", "engine", "simulate"),
    ("engine.greedy_schedule", "engine", "greedy_schedule"),
    ("engine.canonicalize", "engine", "canonicalize"),
    ("engine.validate_sequence", "engine", "validate_sequence"),
    ("construct.construct_general", "construct", "construct_general"),
    ("construct.construct_no_deg2", "construct", "construct_no_deg2"),
    ("construct.find_separator", "construct", "find_separator"),
    ("construct.smooth", "construct", "smooth"),
    ("construct.lift_sequence", "construct", "lift_sequence"),
    ("construct.project_to_subtree", "construct", "project_to_subtree"),
    ("certs.document_from_certificate", "certs", "document_from_certificate"),
    ("certs.dump_document", "certs", "dump_document"),
    ("certs.verify_document", "certs", "verify_document"),
    ("cli.parse_edge_list", "cli", "parse_edge_list"),
)
IS_CONNECTED = "graphs.is_connected"
BURNING_NUMBER = "exact.burning_number"
RECURSIVE = "construct.construct_no_deg2"
CONSTRUCT_ROOT = "construct.construct_general"

LAYERS = ("graphs", "engine", "construct", "exact", "certs", "cli")
# Every span name the tracer can emit, grouped by layer.
SPAN_NAMES = tuple(
    sorted(
        [name for name, _, _ in TARGETS]
        + [IS_CONNECTED, EXACT_FROM_BENCH, EXACT_FROM_CONSTRUCT, "certs.load"],
        key=lambda s: LAYERS.index(s.split(".")[0]),
    )
)


class Tracer:
    """Records spans while installed and not paused."""

    def __init__(self):
        self.recording = False
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.construct_depth = 0
        self.in_recursion = False
        self.levels = 0  # every construct_no_deg2 invocation, nested ones too
        self._restore: list = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        opens_construct = name in (CONSTRUCT_ROOT, RECURSIVE)

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_name = name
            if name == RECURSIVE:
                tracer.levels += 1
                if tracer.in_recursion:  # only the outermost call gets a span
                    return fn(*args, **kwargs)
            elif name == BURNING_NUMBER:
                span_name = EXACT_FROM_CONSTRUCT if tracer.construct_depth else EXACT_FROM_BENCH
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            if opens_construct:
                tracer.construct_depth += 1
            if name == RECURSIVE:
                tracer.in_recursion = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if name == RECURSIVE:
                    tracer.in_recursion = False
                if opens_construct:
                    tracer.construct_depth -= 1
                stack.pop()
                record = spans[idx]
                record[1] = start
                record[2] = end

        return wrapper

    def install(self, modules: dict, extra: tuple = ()) -> None:
        """Wrap every TARGETS function in every module that binds it.

        `modules` maps short names ("graphs", "engine", ...) to the imported
        treeburn modules; `extra` is (name, module, attribute) triples for
        the benchmark's own functions, such as its JSON load.
        """
        bindings = list(modules.values())
        for name, mod_key, attr in TARGETS:
            fn = getattr(modules[mod_key], attr)
            self._rebind(bindings, fn, self._wrap(name, fn))
        fn = modules["exact"].burning_number
        self._rebind(bindings, fn, self._wrap(BURNING_NUMBER, fn))
        graph_cls = modules["graphs"].Graph
        method = graph_cls.is_connected
        self._restore.append((graph_cls, "is_connected", method))
        setattr(graph_cls, "is_connected", self._wrap(IS_CONNECTED, method))
        for name, module, attr in extra:
            fn = getattr(module, attr)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def _rebind(self, bindings, fn, wrapper) -> None:
        for module in bindings:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.construct_depth = 0
        self.in_recursion = False
        self.levels = 0

    @contextmanager
    def recording_on(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        was = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = was

    # -- reduction ------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) - child_time[i]
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        spans = self.spans
        count = 0
        for span_name, _, _, parent in spans:
            if span_name != name:
                continue
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = spans[parent][3]
        return count

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]


def write_spans(path, spans: list, meta: dict) -> None:
    """Write spans as one JSON document: times in ns from the first start."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    rows = [
        [index[name], round((start - origin) * 1e9), round((end - origin) * 1e9), parent]
        for name, start, end, parent in spans
    ]
    doc = {
        "meta": meta,
        "names": names,
        "columns": ["name", "start_ns", "end_ns", "parent"],
        "spans": rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
