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
(c) every prefetch block becomes a ``PrefetchInstruction`` list, the
    form baseline policies emit;
(d) a :class:`~repro.obs.sinks.NullSink` recorder is attached, so every
    layer goes through the general serve loop instead of the all-hit
    fast path.

Only (a) lives here; (b)–(d) are production paths other callers run.
"""

from __future__ import annotations

import numpy as np

from repro.core.matcher import MatchResult
from repro.core.store import ExpertMapStore
from repro.obs.sinks import NullSink
from repro.serving.engine import PrefetchInstruction
from repro.types import ExpertId


def reference_engine(engine) -> None:
    """Route one fMoE engine through the reference paths (a)–(d).

    Usable as ``run_system(..., mutate=reference_engine)``; mutates the
    engine's policy and pool hooks in place.
    """
    policy = engine.policy
    matcher = policy.matcher
    width = engine.config.experts_per_layer
    # (a) Full-prefix re-match instead of the streamed session.
    matcher.incremental_session = lambda batch_size: ReferenceTrajectoryMatch(
        matcher.store, batch_size
    )
    # (b) No dense matrix: per-candidate ``eviction_priority`` sort.
    policy.eviction_score_matrix = lambda now: None

    # (c) Prefetch blocks become instruction lists, in emission order.
    def as_instructions(hook):
        def wrapped(*args):
            action = hook(*args)
            block = action.prefetch_block
            if block is not None:
                ids, priorities = block
                action.prefetch = [
                    PrefetchInstruction(
                        expert=ExpertId(*divmod(int(i), width)),
                        priority=float(p),
                    )
                    for i, p in zip(ids, priorities)
                ]
                action.prefetch_block = None
            return action

        return wrapped

    policy.on_iteration_start = as_instructions(policy.on_iteration_start)
    policy.on_gate_output = as_instructions(policy.on_gate_output)
    # (d) A recorder disables the all-hit fast path.
    engine.set_recorder(NullSink())


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
