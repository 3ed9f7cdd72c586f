"""Span tracing for the benchmark's traced run.

Spans are recorded around calls into each layer of the simulator, from
the benchmark's own files: for the duration of one traced run the public
methods named in ``LAYERS`` are replaced on their classes by timing
wrappers, and the originals are put back when the run ends.  Nothing
under ``src/`` changes, and untraced runs execute the unpatched code.

A span is (id, parent id, layer, start, end, request id).  A layer's
self time is the span's duration minus the time its child spans cover,
so the self times of all spans add up to the time covered by top-level
spans; whatever the traced run spent outside every span is ``other``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.cluster import router as router_module
from repro.cluster.driver import ClusterDriver
from repro.cluster.replica import Replica
from repro.core.matcher import ExpertMapMatcher, IncrementalTrajectoryMatch
from repro.core.policy import FMoEPolicy
from repro.core.store import ExpertMapStore
from repro.moe.model import RequestSession
from repro.serving.engine import ServingEngine
from repro.serving.memory import TransferChannel
from repro.serving.pool import ExpertPool

#: Layer name -> (class, public methods wrapped).  ``workloads.traffic``
#: and ``setup.build_world`` wrap module functions the benchmark calls
#: itself (see :meth:`SpanRecorder.iterate` and :meth:`SpanRecorder.call`).
LAYERS: dict[str, list[tuple[type, tuple[str, ...]]]] = {
    "workloads.traffic": [],
    "cluster.driver": [(ClusterDriver, ("run",))],
    "cluster.router": [
        (cls, ("select",))
        for cls in vars(router_module).values()
        if isinstance(cls, type)
        and cls.__module__ == router_module.__name__
        and "select" in vars(cls)
        and not getattr(cls, "_is_protocol", False)
    ],
    "cluster.replica": [(Replica, ("serve",))],
    "serving.engine": [(ServingEngine, ("run", "serve_step"))],
    "moe.gate": [(RequestSession, ("next_iteration",))],
    "core.policy": [
        (
            FMoEPolicy,
            (
                "on_request_start",
                "on_iteration_start",
                "on_gate_output",
                "on_iteration_end",
                "on_expert_served",
                "on_request_end",
                "eviction_score_matrix",
            ),
        )
    ],
    "core.matcher": [
        (IncrementalTrajectoryMatch, ("observe_layer",)),
        (ExpertMapMatcher, ("match_semantic",)),
    ],
    "core.store": [
        (ExpertMapStore, ("add", "semantic_scores", "trajectory_scores"))
    ],
    "serving.pool": [
        (
            ExpertPool,
            ("prefetch", "load_on_demand", "evict", "insert_blocking"),
        )
    ],
    "serving.memory": [(TransferChannel, ("schedule", "load_urgent"))],
    "setup.build_world": [],
    "setup.warm": [(FMoEPolicy, ("warm",))],
}


class SpanRecorder:
    """In-memory span log with per-layer self time and call counts."""

    def __init__(self) -> None:
        self.layer_names = list(LAYERS)
        self._code = {name: i for i, name in enumerate(self.layer_names)}
        self.self_s = {name: 0.0 for name in self.layer_names}
        self.calls = {name: 0 for name in self.layer_names}
        self.spans: list[tuple[int, int, int, float, float, int]] = []
        self._stack: list[list] = []  # [id, layer, start, child_seconds]
        self._next_id = 0
        self.request_id = -1
        # Counters measured where the work happens.
        self.prefetch_issued = 0
        self.prefetch_rejected = 0
        self.prefetch_useful = 0
        self.ondemand_loads = 0
        self.evictions = 0
        self.store_adds = 0
        self.store_replacements = 0
        self._pending_prefetch: set[tuple[int, object]] = set()

    # -------------------------------------------------------------- #
    # Span bookkeeping
    # -------------------------------------------------------------- #

    def enter(self, layer: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, layer, start, child = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            parent = top[0]
        self.spans.append(
            (span_id, parent, self._code[layer], start, end, self.request_id)
        )

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span of ``layer``."""
        self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def iterate(self, layer: str, iterable):
        """Yield from ``iterable`` with one span per ``next`` call."""
        iterator = iter(iterable)
        while True:
            self.enter(layer)
            try:
                item = next(iterator)
            except StopIteration:
                self.exit()
                return
            self.request_id = item.request_id
            self.exit()
            yield item

    def covered_seconds(self) -> float:
        """Host seconds inside top-level spans (= sum of all self times)."""
        return sum(
            end - start
            for _, parent, _, start, end, _ in self.spans
            if parent == 0
        )

    def write(self, path: Path) -> Path:
        """Write the span log as columns of one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        np.savez_compressed(
            path,
            layers=np.array(self.layer_names),
            span_id=rows[:, 0].astype(np.int64),
            parent_id=rows[:, 1].astype(np.int64),
            layer=rows[:, 2].astype(np.int16),
            start=rows[:, 3],
            end=rows[:, 4],
            request_id=rows[:, 5].astype(np.int64),
        )
        return path

    # -------------------------------------------------------------- #
    # Wrappers
    # -------------------------------------------------------------- #

    def _wrapper(self, layer: str, cls: type, name: str, original):
        recorder = self

        def traced(obj, *args, **kwargs):
            recorder.enter(layer)
            try:
                return original(obj, *args, **kwargs)
            finally:
                recorder.exit()

        counted = _COUNTED.get((cls, name))
        if counted is None:
            return traced

        def traced_and_counted(obj, *args, **kwargs):
            return counted(recorder, traced, obj, *args, **kwargs)

        return traced_and_counted

    @contextmanager
    def patched(self):
        """Wrap every ``LAYERS`` method for the duration of the block."""
        saved = []
        try:
            for layer, targets in LAYERS.items():
                for cls, names in targets:
                    for name in names:
                        # Inherited hooks are wrapped on the subclass and
                        # removed again afterwards (``own`` is None).
                        saved.append((cls, name, vars(cls).get(name)))
                        original = getattr(cls, name)
                        wrapper = self._wrapper(layer, cls, name, original)
                        setattr(cls, name, wrapper)
            yield self
        finally:
            for cls, name, own in reversed(saved):
                if own is None:
                    delattr(cls, name)
                else:
                    setattr(cls, name, own)


# ------------------------------------------------------------------ #
# Counters taken at the layer boundaries
# ------------------------------------------------------------------ #


def _count_replica_serve(rec, traced, replica, request):
    rec.request_id = request.request_id
    return traced(replica, request)


def _count_serve_step(rec, traced, engine, batch, *args, **kwargs):
    batch = list(batch)
    if batch:
        rec.request_id = batch[0].request_id
    return traced(engine, batch, *args, **kwargs)


def _count_prefetch(rec, traced, pool, expert, issue_time):
    status = traced(pool, expert, issue_time)
    if status == "scheduled":
        rec.prefetch_issued += 1
        rec._pending_prefetch.add((id(pool), expert))
    elif status == "rejected":
        rec.prefetch_rejected += 1
    return status


def _count_load_on_demand(rec, traced, pool, expert, now):
    fresh = not pool.is_tracked(expert)
    result = traced(pool, expert, now)
    if fresh:
        # A fresh copy replaces any cancelled prefetch of this expert.
        rec.ondemand_loads += 1
        rec._pending_prefetch.discard((id(pool), expert))
    return result


def _count_evict(rec, traced, pool, expert):
    if pool.is_tracked(expert):
        rec.evictions += 1
        rec._pending_prefetch.discard((id(pool), expert))
    return traced(pool, expert)


def _count_expert_served(rec, traced, policy, expert, hit, now):
    if hit:
        key = (id(policy.engine.pool), expert)
        if key in rec._pending_prefetch:
            rec._pending_prefetch.discard(key)
            rec.prefetch_useful += 1
    return traced(policy, expert, hit, now)


def _count_store_add(rec, traced, store, *args, **kwargs):
    before = store.replacements
    slot = traced(store, *args, **kwargs)
    rec.store_adds += 1
    rec.store_replacements += store.replacements - before
    return slot


_COUNTED = {
    (Replica, "serve"): _count_replica_serve,
    (ServingEngine, "serve_step"): _count_serve_step,
    (ExpertPool, "prefetch"): _count_prefetch,
    (ExpertPool, "load_on_demand"): _count_load_on_demand,
    (ExpertPool, "evict"): _count_evict,
    (FMoEPolicy, "on_expert_served"): _count_expert_served,
    (ExpertMapStore, "add"): _count_store_add,
}
