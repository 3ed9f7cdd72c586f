"""The assembled fMoE offloading policy (paper §3.2 workflow, §4 design).

Per iteration the policy follows the paper's five steps:

1. *Context collection* (synchronous, cheap): embeddings + observed
   trajectory views.
2. *Expert map matching*: semantic search guides the first ``d`` layers at
   iteration start; trajectory search fires after every revealed layer for
   layer ``l + d``.  Matching is asynchronous — it delays when prefetch
   instructions reach the PCIe queue but never blocks compute.
3. *Guided prefetching*: similarity-aware thresholds δ = clip(1 − score)
   choose how many experts to hedge with; issue order follows
   PRI = p / (l − l_now).
4. *Serving*: the engine resolves hits/misses against the pool; the policy
   supplies the 1/(p·freq) eviction priority.
5. *Map update*: the completed iteration's context is inserted into the
   store (with redundancy-based deduplication once at capacity).

Ablation switches reproduce the paper's Fig. 12a variants: trajectory-only
(``use_semantic=False``), no dynamic threshold (``dynamic_threshold=False``
prefetches a fixed top-K), and the full design.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.baselines.base import BasePolicy, LFUTracker, LRUTracker
from repro.core.cache import FMoECacheScorer
from repro.core.matcher import (
    ExpertMapMatcher,
    IncrementalTrajectoryMatch,
)
from repro.core.overheads import OverheadModel
from repro.core.prefetch import (
    select_prefetch_counts,
    select_prefetch_experts,
    selection_threshold,
)
from repro.core.store import ExpertMapStore
from repro.errors import ConfigError
from repro.serving.engine import IterationContext, PolicyAction
from repro.types import ExpertId


class FMoEPolicy(BasePolicy):
    """Fine-grained expert offloading with expert-map guidance."""

    name = "fmoe"

    def __init__(
        self,
        prefetch_distance: int = 3,
        store_capacity: int = 1024,
        use_semantic: bool = True,
        use_trajectory: bool = True,
        dynamic_threshold: bool = True,
        max_prefetch_factor: float = 4.0,
        overheads: OverheadModel | None = None,
        update_store_online: bool = True,
        eviction_algorithm: str = "fmoe",
        shared_store: ExpertMapStore | None = None,
    ) -> None:
        super().__init__()
        if prefetch_distance < 1:
            raise ConfigError("prefetch_distance must be >= 1")
        if store_capacity < 1:
            raise ConfigError("store_capacity must be >= 1")
        if max_prefetch_factor < 1.0:
            raise ConfigError("max_prefetch_factor must be >= 1")
        if not (use_semantic or use_trajectory):
            raise ConfigError(
                "at least one of semantic/trajectory search must be enabled"
            )
        if eviction_algorithm not in ("fmoe", "lru", "lfu"):
            raise ConfigError(
                "eviction_algorithm must be one of 'fmoe', 'lru', 'lfu'"
            )
        self.prefetch_distance = prefetch_distance
        self.store_capacity = store_capacity
        self.use_semantic = use_semantic
        self.use_trajectory = use_trajectory
        self.dynamic_threshold = dynamic_threshold
        self.max_prefetch_factor = max_prefetch_factor
        self.overheads = overheads or OverheadModel()
        self.update_store_online = update_store_online
        self.eviction_algorithm = eviction_algorithm
        self._shared_store = shared_store
        """Externally owned store to attach to instead of building one —
        cluster replicas configured for a shared store all learn into (and
        search) the same map collection."""
        # Recency/frequency bookkeeping only for the Fig. 12b ablations
        # that evict by it; the fMoE scorer keeps its own visit counts.
        tracker = {"lru": LRUTracker, "lfu": LFUTracker}.get(eviction_algorithm)
        self._tracker: LRUTracker | LFUTracker | None = (
            tracker() if tracker is not None else None
        )
        self.store: ExpertMapStore | None = None
        self.matcher: ExpertMapMatcher | None = None
        self.scorer: FMoECacheScorer | None = None
        self._trajectory_session: IncrementalTrajectoryMatch | None = None
        self._max_prefetch_count = 0
        # Running totals of the best match scores (Fig. 14a): a sum and a
        # count each, so a long-lived engine keeps O(1) state.
        self.semantic_score_count = 0
        self.trajectory_score_count = 0
        self._semantic_score_sum = 0.0
        self._trajectory_score_sum = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, engine) -> None:
        super().attach(engine)
        config = engine.config
        distance = min(self.prefetch_distance, config.num_layers)
        if self._shared_store is not None:
            store = self._shared_store
            if (
                store.num_layers != config.num_layers
                or store.num_experts != config.experts_per_layer
                or store.embedding_dim != config.embedding_dim
            ):
                raise ConfigError(
                    "shared store dimensions "
                    f"(L={store.num_layers}, J={store.num_experts}, "
                    f"h={store.embedding_dim}) do not match the model "
                    f"(L={config.num_layers}, J={config.experts_per_layer}, "
                    f"h={config.embedding_dim})"
                )
            self.store = store
        else:
            self.store = ExpertMapStore(
                capacity=self.store_capacity,
                num_layers=config.num_layers,
                num_experts=config.experts_per_layer,
                embedding_dim=config.embedding_dim,
                prefetch_distance=distance,
            )
        self.matcher = ExpertMapMatcher(
            self.store,
            base_seconds=self.overheads.map_match_base_seconds,
            per_record_seconds=self.overheads.map_match_per_record_seconds,
        )
        self.scorer = FMoECacheScorer(
            config.num_layers, config.experts_per_layer
        )
        self._max_prefetch_count = int(
            math.ceil(self.max_prefetch_factor * config.top_k)
        )

    def warm(self, traces: Sequence) -> None:
        if self.store is None:
            raise ConfigError("policy must be attached before warming")
        for trace in traces:
            for iteration_map in trace.iteration_maps:
                self.store.add(trace.embedding, iteration_map)

    # ------------------------------------------------------------------ #
    # Selection helpers
    # ------------------------------------------------------------------ #

    def _select(self, row: np.ndarray, score: float) -> np.ndarray:
        """Expert indices to prefetch for one layer given the match score."""
        if self.dynamic_threshold:
            threshold = selection_threshold(score)
            return select_prefetch_experts(
                row,
                threshold,
                self.config.top_k,
                max_count=self._max_prefetch_count,
            )
        top = np.argsort(row)[::-1][: self.config.top_k]
        return top

    def _prefetch_block_for_lanes(
        self,
        rows32: np.ndarray,
        scores: np.ndarray,
        targets: np.ndarray,
        gaps: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Prefetch selection over N lanes as one (flat ids, priorities) block.

        ``rows32`` is ``(N, J)`` float32 map rows in emission order,
        ``scores``/``targets``/``gaps`` the per-lane match score, target
        layer, and layer gap ``l − l_now``.  Returns (flat ids,
        priorities): per lane, the experts :meth:`_select` picks for its
        row and score, in lane-major order, each with priority
        PRI = p / gap — one argsort/cumsum pass instead of one Python call
        per lane.
        """
        rows = rows32.astype(np.float64)
        width = rows.shape[1]
        if rows.shape[0] == 1:
            # Single lane (unbatched iterations): the per-row selector is
            # the batched one's per-lane identity and skips the lane
            # bookkeeping below.
            row = rows[0]
            selected = self._select(row, float(scores[0]))
            flat = int(targets[0]) * width + selected
            priorities = row[selected] / int(gaps[0])
            return flat.astype(np.int64), priorities
        if self.dynamic_threshold:
            thresholds = np.clip(1.0 - scores, 0.0, 1.0)
            order, counts = select_prefetch_counts(
                rows,
                thresholds,
                self.config.top_k,
                max_count=self._max_prefetch_count,
            )
        else:
            order = np.argsort(rows, axis=1)[:, ::-1]
            counts = np.full(rows.shape[0], self.config.top_k, dtype=np.int64)
        mask = np.arange(width)[None, :] < counts[:, None]
        selected = order[mask]
        lanes = np.repeat(np.arange(rows.shape[0]), counts)
        flat = targets[lanes] * width + selected
        priorities = rows[lanes, selected] / gaps[lanes]
        return flat.astype(np.int64), priorities

    # ------------------------------------------------------------------ #
    # Engine hooks
    # ------------------------------------------------------------------ #

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        assert self.store is not None and self.matcher is not None
        assert self.scorer is not None
        self.scorer.reset_predictions()
        # One trajectory match per iteration, streamed: each layer's gate
        # output folds in incrementally, O(C·J) per layer.
        if self.use_trajectory and not self.store.is_empty:
            self._trajectory_session = self.matcher.incremental_session(
                ctx.batch_size
            )
        else:
            self._trajectory_session = None
        action = PolicyAction(
            sync_overheads={
                "context_collect": self.overheads.context_collect_seconds
            }
        )
        if not self.use_semantic or self.store.is_empty:
            return action
        result = self.matcher.match_semantic(ctx.embeddings)
        if result is None:
            return action
        self._semantic_score_sum += sum(result.scores.tolist())
        self.semantic_score_count += ctx.batch_size
        # Semantic search covers layers [0, d); with trajectory search
        # disabled it must carry the entire iteration.
        horizon = (
            min(self.prefetch_distance, self.config.num_layers)
            if self.use_trajectory
            else self.config.num_layers
        )
        # One (B, horizon, J) gather covers every (request, layer) lane;
        # the b-major/layer-inner emission order is the row-major reshape.
        # Prediction merges are an elementwise maximum, so folding the
        # batch first is order-independent.
        matched = self.store.gather_maps(result.indices)[:, :horizon, :]
        merged = matched.max(axis=0)
        for layer in range(horizon):
            self.scorer.update_prediction_row(layer, merged[layer])
        lanes = matched.reshape(-1, self.config.experts_per_layer)
        layers = np.tile(np.arange(horizon), ctx.batch_size)
        action.prefetch_block = self._prefetch_block_for_lanes(
            lanes,
            np.repeat(result.scores, horizon),
            layers,
            layers + 1,
        )
        action.async_overheads = {"map_match": self.matcher.match_seconds()}
        return action

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        assert self.store is not None and self.matcher is not None
        assert self.scorer is not None
        if layer > 0:
            # The forward pass moved past layer-1: its experts are now the
            # least valuable residents (layer-sequential reuse, §4.5).
            self.scorer.mark_layer_done(layer - 1)
        session = self._trajectory_session
        target = layer + self.prefetch_distance
        # A match at a layer whose target lies past the model would be
        # thrown away, so the last ``d`` layers skip it.
        if session is None or target >= self.config.num_layers:
            return PolicyAction()
        result = session.observe_layer(ctx.observed[:, layer, :])
        if result is None:
            return PolicyAction()
        self._trajectory_score_sum += sum(result.scores.tolist())
        self.trajectory_score_count += ctx.batch_size
        if ctx.batch_size == 1:
            # Unbatched iterations skip the gather: one matched row, one
            # selection, flat ids built in place.
            row32 = self.matcher.matched_row(result, 0, target)
            self.scorer.update_prediction_row(target, row32)
            row = row32.astype(np.float64)
            selected = self._select(row, float(result.scores[0]))
            flat = target * self.config.experts_per_layer + selected
            return PolicyAction(
                prefetch_block=(
                    flat.astype(np.int64),
                    row[selected] / (target - layer),
                ),
                async_overheads={"map_match": self.matcher.match_seconds()},
            )
        rows = self.store.gather_rows(result.indices, target)
        self.scorer.update_prediction_row(target, rows.max(axis=0))
        shape = np.full(ctx.batch_size, target, dtype=np.int64)
        return PolicyAction(
            prefetch_block=self._prefetch_block_for_lanes(
                rows,
                result.scores,
                shape,
                shape - layer,
            ),
            async_overheads={"map_match": self.matcher.match_seconds()},
        )

    def on_iteration_end(self, ctx: IterationContext) -> PolicyAction:
        assert self.store is not None
        if not self.update_store_online:
            return PolicyAction()
        for b in range(ctx.batch_size):
            self.store.add(ctx.embeddings[b], ctx.observed[b])
        return PolicyAction(
            async_overheads={
                "map_update": self.overheads.map_update_seconds
                * ctx.batch_size
            }
        )

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        assert self.scorer is not None
        self.scorer.touch(expert)
        if self._tracker is not None:
            self._tracker.touch(expert, now)

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        """Dispatch on the configured cache algorithm (Fig. 12b ablation)."""
        if self._tracker is not None:
            return self._tracker.eviction_priority(expert, now)
        assert self.scorer is not None
        return self.scorer.eviction_priority(expert, now)

    def eviction_score_matrix(self, now: float) -> np.ndarray | None:
        """Dense flat ``(L·J,)`` score matrix for the pool's victim sort.

        Only the fMoE 1/(p·freq) algorithm has a dense form; the LRU/LFU
        ablations return None so the pool sorts candidates by
        :meth:`eviction_priority`.
        """
        if self.eviction_algorithm != "fmoe" or self.scorer is None:
            return None
        return self.scorer.score_matrix()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def mean_semantic_score(self) -> float:
        """Mean best semantic-match score over the run (Fig. 14a)."""
        if not self.semantic_score_count:
            return 0.0
        return self._semantic_score_sum / self.semantic_score_count

    def mean_trajectory_score(self) -> float:
        """Mean best trajectory-match score over the run (Fig. 14a)."""
        if not self.trajectory_score_count:
            return 0.0
        return self._trajectory_score_sum / self.trajectory_score_count
