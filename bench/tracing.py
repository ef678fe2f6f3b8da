"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's side, around the calls the CLI
makes into each layer.  For one traced request the tracer replaces the
names the CLI resolves at call time with timing wrappers, and restores
them when the request ends, so untraced requests run the plain code:

* ``conflicts_of``, ``solve_max_parallelism`` and ``solve_spacing`` are
  imported into ``wronoc.cli`` by name, so they are wrapped there;
* ``parse_instance``, ``instance_digest`` and the ``check_*`` functions
  are called through their modules, so they are wrapped on the module.

Each span is ``(id, name, start_ns, end_ns, parent_id, request_id)``.
Garbage-collector pauses are taken from ``gc.callbacks`` and counted per
request; they overlap whatever span was running and are not spans.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

REQUEST = "cli.request"  # the root span of each traced request


class Tracer:
    """Spans and counters of the traced requests of one benchmark run."""

    def __init__(self, cli, model, verify):
        self._targets = (
            (cli, "conflicts_of", "conflict.build", self._count_pairs),
            (cli, "solve_max_parallelism", "parallelism.solve",
             self._counter("parallelism")),
            (cli, "solve_spacing", "spacing.solve", self._counter("spacing")),
            (model, "parse_instance", "model.parse", self._count_resonances),
            (model, "instance_digest", "model.digest", None),
            (verify, "check_parallelism_solution", "verify.check", None),
            (verify, "check_spacing_solution", "verify.check", None),
        )
        self._cli = cli
        self.origin_ns = time.perf_counter_ns()
        self.spans: list[tuple[int, str, int, int, int | None, int]] = []
        self.counts: Counter = Counter()
        self.sizes: dict[str, list[int]] = {"conflict.pairs": [], "model.resonances": []}
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self.requests = 0  # also the id of the current traced request
        self._stack: list[int] = []
        self._next_id = 0
        self._gc_start = 0

    # --- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, time.perf_counter_ns(), parent

    def _close(self, name: str, opened: tuple[int, int, int | None]) -> None:
        end = time.perf_counter_ns()
        span_id, start, parent = opened
        self._stack.pop()
        self.spans.append((span_id, name, start - self.origin_ns,
                           end - self.origin_ns, parent, self.requests))

    def _wrap(self, original, name, observe):
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(name, opened)
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def _count_pairs(self, conflicts) -> None:
        self.sizes["conflict.pairs"].append(len(conflicts))

    def _count_resonances(self, instance) -> None:
        self.sizes["model.resonances"].append(
            sum(len(e.resonances) for e in instance.radii))

    def _counter(self, layer: str):
        def observe(solution) -> None:
            # Statuses are optimal, infeasible and incumbent-timeout.
            self.counts[f"{layer}.{solution.status.removeprefix('incumbent-')}"] += 1
        return observe

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def request(self):
        """Trace one CLI request: wrap the layer entry points, record spans."""
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _, _ in self._targets]
        for (owner, attr, name, observe), (_, _, original) in zip(self._targets, originals):
            setattr(owner, attr, self._wrap(original, name, observe))
        self.requests += 1
        gc.callbacks.append(self._on_gc)
        opened = self._open()
        try:
            yield
        finally:
            self._close(REQUEST, opened)
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    @contextmanager
    def conflict_alloc_probe(self, peaks: list[int]):
        """Record the ``tracemalloc`` peak inside each ``conflicts_of`` call.

        Used on an untimed probe request only: tracing allocations slows
        every allocation, which would distort the layer timings.
        """
        original = self._cli.conflicts_of

        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self._cli.conflicts_of = probed
        try:
            yield
        finally:
            self._cli.conflicts_of = original

    # --- derived figures ---------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus child-span time.

        Spans of one request run on one thread, so children never overlap
        and their durations add up to the part of the parent they cover.
        """
        child_ns: Counter = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: Counter = Counter()
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += end - start - child_ns[span_id]
        return dict(totals)

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
            "spans": self.spans,
        }
