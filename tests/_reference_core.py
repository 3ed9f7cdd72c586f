"""Independent reference paths for differential tests of the engine.

The engine serves every run through one core: streamed trajectory
matching, a dense eviction-score matrix, prefetch blocks, and an all-hit
fast path.  :func:`reference_engine` swaps each of those for a reference
path on one freshly built engine, so a test can demand byte-identical
reports between the two:

(a) trajectory matching re-matches the full observed prefix every layer
    (:class:`ReferenceTrajectoryMatch`, the naive reading of Eq. 5);
(b) eviction declines the dense matrix, so the pool sorts candidates by
    one ``eviction_priority`` call each;
(c) prefetch blocks are issued entry by entry
    (:func:`reference_issue_prefetch_block`: a Python sort and one pool
    call per entry) instead of by the engine's argsort-and-skip loop;
(d) a :class:`~repro.obs.sinks.NullSink` recorder is attached, so every
    layer goes through the general serve loop instead of the all-hit
    fast path.

(a) and (c) live here; (b) and (d) are production paths other callers
run.  (c) applies to any policy on its own via :func:`use_reference_issuer`.
"""

from __future__ import annotations

import numpy as np

from repro.core.matcher import MatchResult
from repro.core.store import ExpertMapStore
from repro.obs.sinks import NullSink
from repro.serving.events import EventKind
from repro.types import ExpertId


def reference_engine(engine) -> None:
    """Route one fMoE engine through the reference paths (a)–(d).

    Usable as ``run_system(..., mutate=reference_engine)``; mutates the
    engine's policy and pool hooks in place.
    """
    policy = engine.policy
    matcher = policy.matcher
    # (a) Full-prefix re-match instead of the streamed session.
    matcher.incremental_session = lambda batch_size: ReferenceTrajectoryMatch(
        matcher.store, batch_size
    )
    # (b) No dense matrix: per-candidate ``eviction_priority`` sort.
    policy.eviction_score_matrix = lambda now: None

    # (c) Per-entry prefetch issue.
    use_reference_issuer(engine)
    # (d) A recorder disables the all-hit fast path.
    engine.set_recorder(NullSink())


def use_reference_issuer(engine) -> None:
    """Issue this engine's prefetch blocks entry by entry.

    Usable as ``run_system(..., mutate=use_reference_issuer)`` for any
    policy; replaces the engine's ``_issue_prefetch_block`` in place.
    """
    engine._issue_prefetch_block = (
        lambda action, block, breakdown, issue_time:
        reference_issue_prefetch_block(
            engine, action, block, breakdown, issue_time
        )
    )


def reference_issue_prefetch_block(
    engine, action, block, breakdown, issue_time
) -> None:
    """The straightforward prefetch issuer.

    Sort the entries by priority with Python's stable descending sort,
    offer each to ``pool.prefetch`` (already tracked experts answer
    ``"present"`` without side effects), and charge one ``add_async``
    per scheduled copy.  A ``block_until_arrival`` action then waits for
    the latest scheduled copy to land.
    """
    ids, priorities = block
    if len(ids) == 0:
        return
    width = engine.config.experts_per_layer
    entries = sorted(
        zip(ids.tolist(), priorities.tolist()),
        key=lambda entry: entry[1],
        reverse=True,
    )
    load_seconds = engine.hardware.expert_load_seconds(engine.config)
    latest_arrival = engine._now
    scheduled = 0
    for flat, _ in entries:
        expert = ExpertId(*divmod(flat, width))
        if engine.pool.prefetch(expert, issue_time) == "scheduled":
            scheduled += 1
            breakdown.add_async("prefetch_transfer", load_seconds)
            arrival = engine.pool.arrival_time(expert)
            if arrival is not None:
                latest_arrival = max(latest_arrival, arrival)
    if scheduled:
        engine._emit(EventKind.PREFETCH_ISSUED, detail=float(scheduled))
    if action.block_until_arrival and latest_arrival > engine._now:
        breakdown.add_sync("sync_prefetch_wait", latest_arrival - engine._now)
        engine._now = latest_arrival


class ReferenceTrajectoryMatch:
    """The naive per-layer full-prefix trajectory search.

    This is the straightforward reading of the paper's Eq. 5: every layer,
    re-match the entire observed prefix against every stored map —
    O(C·l·J) work at layer ``l``, O(C·L²·J) per iteration.  It is the
    independent oracle the parity suite checks the streaming engine
    against, and it is *bitwise identical* to
    :class:`IncrementalTrajectoryMatch` by construction: the refold adds
    the same per-layer ``rows @ stored.T`` products and squared-norm
    reductions in the same left-to-right order the incremental session
    folds them, so every float lands on the identical value.
    """

    def __init__(self, store: ExpertMapStore, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self.layers_observed = 0
        self._rows: list[np.ndarray] = []

    def observe_layer(self, rows: np.ndarray) -> MatchResult | None:
        """Fold in one layer's gate outputs, then re-match from scratch."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[0] != self.batch_size:
            raise ValueError(
                f"expected batch {self.batch_size}, got {rows.shape[0]}"
            )
        if self.layers_observed >= self.store.num_layers:
            raise ValueError("all layers already observed")
        size = len(self.store)
        if size == 0:
            return None
        self._rows.append(rows)
        self.layers_observed += 1
        dots = np.zeros((self.batch_size, size))
        query_sq = np.zeros(self.batch_size)
        stored_sq = np.zeros(size)
        for layer, observed in enumerate(self._rows):
            # Read the store the way a straightforward implementation
            # would: the float32 maps as stored, upcast for the math
            # (exact, so the scores stay bitwise identical to the
            # incremental session's pre-flattened float64 cache).
            stored_rows = self.store._maps[:size, layer].astype(np.float64)
            dots += observed @ stored_rows.T
            query_sq += (observed**2).sum(axis=1)
            stored_sq += (stored_rows**2).sum(axis=1)
        denom = np.sqrt(np.outer(query_sq, stored_sq))
        denom[denom == 0.0] = 1.0
        scores = dots / denom
        best = np.argmax(scores, axis=1)
        return MatchResult(
            indices=best,
            scores=scores[np.arange(self.batch_size), best],
        )
