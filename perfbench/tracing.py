"""Spans around calls into each thinrod layer, and the per-layer metrics.

Tracing lives entirely in the benchmark: `install` swaps public names in
the namespace of the module that calls them (for example `cli.build_frame`
or `engine.deflated_resolvent`) for wrappers that record a span per call,
and `uninstall` puts the originals back.  A span is (name, start, end,
parent); parents come from a thread-local stack, and a span opened on a
thread with an empty stack (the sweep pool's workers) is parented to the
command's root span.  A layer's self time is its span time minus the
union of its child spans.

H-applies are counted inside the wrapped `solve_direct` by swapping
`op.H` for a `csr_matrix` subclass whose `@` records columns and time;
the product itself is the parent class's, so outputs are unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps

import scipy.sparse as sp


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store, safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict = defaultdict(float)
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            s = Span(len(self.spans), name, parent, time.perf_counter())
            self.spans.append(s)
            if root:
                self.root = s.id
        stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)


# ----------------------------------------------------------------------
# interval arithmetic
# ----------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, spans) -> float:
    """Span duration minus the part of it covered by its direct children."""
    kids = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in spans
        if c.parent == span.id
    ]
    return span.duration - union_length([k for k in kids if k[1] > k[0]])


def busy(spans, name: str) -> float:
    return sum((s.duration for s in spans if s.name == name), 0.0)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


class _CountingCSR(sp.csr_matrix):
    """CSR matrix whose `@` records (columns, seconds) per product.

    Shares the index and value arrays of the matrix it wraps.  Matrices
    derived from it (abs, transpose, ...) have no `applies` list and are
    not counted.
    """

    applies = None

    def __matmul__(self, other):
        t0 = time.perf_counter()
        out = super().__matmul__(other)
        if self.applies is not None:
            cols = other.shape[1] if getattr(other, "ndim", 1) == 2 else 1
            self.applies.append((cols, time.perf_counter() - t0))
        return out


def _spanned(tracer: Tracer, name: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _spanned_solve(tracer: Tracer, fn):
    @wraps(fn)
    def solve_direct(op, K, *args, **kwargs):
        H = op.H
        counting = _CountingCSR(H)
        counting.applies = []
        op.H = counting
        tracer.peak("direct_oracle.unknowns", op.n)
        tracer.peak("direct_oracle.nnz_H", H.nnz)
        try:
            with tracer.span("direct_oracle.solve_direct"):
                sol = fn(op, K, *args, **kwargs)
        except Exception:
            tracer.add("direct_oracle.solve_direct.failed", 1)
            raise
        finally:
            op.H = H
            _record_applies(tracer, counting.applies, H.nnz, op.n)
        tracer.add("direct_oracle.pairs", sol.lam.size)
        for entry in sol.history:
            stage = str(entry.get("stage", ""))
            tracer.add("direct_oracle.lobpcg_warnings", len(entry.get("warnings", ())))
            tracer.add("direct_oracle.polish_sweeps", stage.startswith("polish"))
        return sol

    return solve_direct


def _record_applies(tracer: Tracer, applies, nnz: int, n: int) -> None:
    cols = sum(c for c, _ in applies)
    tracer.add("direct_oracle.h_apply.calls", len(applies))
    tracer.add("direct_oracle.h_apply.cols", cols)
    tracer.add("direct_oracle.h_apply.s", sum(t for _, t in applies))
    # computed, not measured: 2 flops per stored entry and column; bytes
    # are one pass over CSR values (8 B) and column indices (4 B), the row
    # pointer, and one read plus one write of each 8-byte column.
    tracer.add("direct_oracle.h_apply.gflop_computed", 2.0 * nnz * cols / 1e9)
    tracer.add(
        "direct_oracle.h_apply.gbyte_computed",
        sum(12.0 * nnz + 4.0 * (n + 1) + 16.0 * n * c for c, _ in applies) / 1e9,
    )


def install(tracer: Tracer):
    """Wrap every traced name; returns a callable that restores them."""
    from thinrod import asymptotic_engine as engine
    from thinrod import cli
    from thinrod import direct_oracle as oracle

    targets = [
        (cli, "build_frame", "geometry.build_frame"),
        (cli, "solve_section", "cross_section.solve_section"),
        (engine, "deflated_resolvent", "cross_section.deflated_resolvent"),
        (cli, "solve_reduced", "curve_operator.solve_reduced"),
        (engine, "solve_reduced", "curve_operator.solve_reduced"),
        (engine, "deflated_reduced_resolvent",
         "curve_operator.deflated_reduced_resolvent"),
        (engine, "apply_Fj", "asymptotic_engine.apply_Fj"),
        (engine, "run_recurrence", "asymptotic_engine.run_recurrence"),
        (oracle, "assemble", "direct_oracle.assemble"),
        (oracle, "compare", "direct_oracle.compare"),
    ]
    saved = []
    for module, attr, name in targets:
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, _spanned(tracer, name, fn))
    saved.append((oracle, "solve_direct", oracle.solve_direct))
    oracle.solve_direct = _spanned_solve(tracer, oracle.solve_direct)

    def uninstall():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return uninstall


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced command, keyed by metric name.

    Names absent from the run (for example every direct_oracle span on an
    expand run) read 0.
    """
    spans, c = tracer.spans, tracer.counters
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def count(name):
        return len(by_name[name])

    solves = by_name["direct_oracle.solve_direct"]
    solve_busy = busy(spans, "direct_oracle.solve_direct")
    solve_span = union_length([(s.start, s.end) for s in solves])
    root = [s for s in spans if s.id == tracer.root]
    reduced = ("curve_operator.solve_reduced",
               "curve_operator.deflated_reduced_resolvent")
    pairs = c["direct_oracle.pairs"]
    return {
        "geometry.build_frame.s": busy(spans, "geometry.build_frame"),
        "cross_section.solve_section.s": busy(spans, "cross_section.solve_section"),
        "cross_section.deflated_resolvent.s":
            busy(spans, "cross_section.deflated_resolvent"),
        "cross_section.deflated_resolvent.calls":
            count("cross_section.deflated_resolvent"),
        "curve_operator.s": sum(busy(spans, n) for n in reduced),
        "curve_operator.calls": sum(count(n) for n in reduced),
        "asymptotic_engine.apply_Fj.s": busy(spans, "asymptotic_engine.apply_Fj"),
        "asymptotic_engine.apply_Fj.calls": count("asymptotic_engine.apply_Fj"),
        "asymptotic_engine.run_recurrence.self_s": sum(
            self_time(s, spans) for s in by_name["asymptotic_engine.run_recurrence"]
        ),
        "direct_oracle.unknowns": c["direct_oracle.unknowns"],
        "direct_oracle.nnz_H": c["direct_oracle.nnz_H"],
        "direct_oracle.assemble.s": busy(spans, "direct_oracle.assemble"),
        "direct_oracle.solve_direct.busy_s": solve_busy,
        "direct_oracle.solve_direct.rest_s": solve_busy - c["direct_oracle.h_apply.s"],
        "direct_oracle.solve_direct.failed": c["direct_oracle.solve_direct.failed"],
        "direct_oracle.h_apply.calls": c["direct_oracle.h_apply.calls"],
        "direct_oracle.h_apply.cols": c["direct_oracle.h_apply.cols"],
        "direct_oracle.h_apply.s": c["direct_oracle.h_apply.s"],
        "direct_oracle.h_apply.gflop_computed": c["direct_oracle.h_apply.gflop_computed"],
        "direct_oracle.h_apply.gbyte_computed": c["direct_oracle.h_apply.gbyte_computed"],
        "direct_oracle.h_cols_per_pair":
            c["direct_oracle.h_apply.cols"] / pairs if pairs else 0.0,
        "direct_oracle.lobpcg_warnings": c["direct_oracle.lobpcg_warnings"],
        "direct_oracle.polish_sweeps": c["direct_oracle.polish_sweeps"],
        "direct_oracle.solve_direct.span_s": solve_span,
        "direct_oracle.solve_direct.concurrency":
            solve_busy / solve_span if solve_span > 0 else 0.0,
        "direct_oracle.compare.s": busy(spans, "direct_oracle.compare"),
        "cli.self_s": self_time(root[0], spans) if root else 0.0,
    }
