"""The Expert Map Matcher (paper §4.2).

Two fine-grained search modes over the Expert Map Store:

- *Semantic search* — for the first ``d`` layers (before any trajectory is
  observable), match the request's embedding against stored embeddings
  (Eq. 4) and borrow the matched iteration's initial map rows.
- *Trajectory search* — once ``l`` layers of the current iteration have
  been observed, match the partial trajectory against stored map prefixes
  (Eq. 5) and borrow the matched map's row for layer ``l + d``.

The matcher also carries the virtual-latency model for one batched match
(a base cost plus a per-stored-record term), which the asynchronous policy
reports as off-critical-path overhead (Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.store import ExpertMapStore


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one batched store search."""

    indices: np.ndarray
    """Best-matching store slot per query, shape ``(B,)``."""

    scores: np.ndarray
    """Cosine similarity of the best match per query, shape ``(B,)``."""

    @property
    def batch_size(self) -> int:
        return self.indices.shape[0]


class ExpertMapMatcher:
    """Batched semantic/trajectory search with a matching-cost model."""

    def __init__(
        self,
        store: ExpertMapStore,
        base_seconds: float = 5e-4,
        per_record_seconds: float = 2e-6,
    ) -> None:
        self.store = store
        self.base_seconds = base_seconds
        self.per_record_seconds = per_record_seconds

    def match_seconds(self) -> float:
        """Modeled latency of one batched match against the store."""
        return self.base_seconds + self.per_record_seconds * len(self.store)

    def match_semantic(self, embeddings: np.ndarray) -> MatchResult | None:
        """Best semantic match per query embedding; None if store empty."""
        if self.store.is_empty:
            return None
        scores = self.store.semantic_scores(embeddings)
        best = np.argmax(scores, axis=1)
        return MatchResult(
            indices=best,
            scores=scores[np.arange(scores.shape[0]), best],
        )

    def match_trajectory(
        self, observed: np.ndarray, num_layers: int
    ) -> MatchResult | None:
        """Best trajectory match per query prefix; None if store empty."""
        if self.store.is_empty:
            return None
        scores = self.store.trajectory_scores(observed, num_layers)
        best = np.argmax(scores, axis=1)
        return MatchResult(
            indices=best,
            scores=scores[np.arange(scores.shape[0]), best],
        )

    def matched_row(self, result: MatchResult, pos: int, layer: int) -> np.ndarray:
        """Layer ``layer`` of the map matched for query ``pos``."""
        return self.store.get_map(int(result.indices[pos]))[layer]

    def incremental_session(self, batch_size: int) -> "IncrementalTrajectoryMatch":
        """Start an O(J·C)-per-layer trajectory match for one iteration."""
        return IncrementalTrajectoryMatch(self.store, batch_size)

    def trajectory_query(
        self, observed: np.ndarray
    ) -> "CachedTrajectoryQuery | None":
        """Cache one request's trajectory for repeated prefix matches.

        Offline evaluators match the same iteration map at many prefix
        lengths; the cached query flattens and norm-sums it once so each
        subsequent :meth:`CachedTrajectoryQuery.match` is a single sliced
        matrix product.  Returns None if the store is empty (mirroring
        :meth:`match_trajectory`).
        """
        if self.store.is_empty:
            return None
        return CachedTrajectoryQuery(self.store, observed)


class CachedTrajectoryQuery:
    """One query trajectory, flattened once, matchable at any prefix.

    A loop calling :meth:`ExpertMapMatcher.match_trajectory` at prefix
    lengths 1..L re-flattens the query and recomputes its norm per call;
    this caches the float64 flattening and the cumulative prefix norms up
    front, leaving each match as one sliced product against the store's
    pre-normalized rows.  The store is snapshot at construction time
    (``size`` records), so scores are stable even if records are added
    while the query is alive.
    """

    def __init__(self, store: ExpertMapStore, observed: np.ndarray) -> None:
        observed = np.atleast_3d(np.asarray(observed, dtype=np.float64))
        if observed.shape[2] != store.num_experts:
            raise ValueError(
                f"dimension mismatch: {observed.shape[2]} vs "
                f"{store.num_experts}"
            )
        self.store = store
        self.size = len(store)
        self.max_layers = min(observed.shape[1], store.num_layers)
        self._flat = observed.reshape(observed.shape[0], -1)
        norms = np.sqrt(np.cumsum((observed**2).sum(axis=2), axis=1))
        norms[norms == 0.0] = 1.0
        self._prefix_norms = norms

    @property
    def batch_size(self) -> int:
        return self._flat.shape[0]

    def match(self, num_layers: int) -> MatchResult:
        """Best stored match for the first ``num_layers`` observed layers."""
        if not 1 <= num_layers <= self.max_layers:
            raise ValueError(
                f"prefix length {num_layers} out of range "
                f"[1, {self.max_layers}]"
            )
        width = num_layers * self.store.num_experts
        queries = (
            self._flat[:, :width]
            / self._prefix_norms[:, num_layers - 1 : num_layers]
        )
        dots = queries @ self.store._maps_flat[: self.size, :width].T
        scores = dots / self.store._prefix_norms[: self.size, num_layers - 1]
        best = np.argmax(scores, axis=1)
        return MatchResult(
            indices=best,
            scores=scores[np.arange(scores.shape[0]), best],
        )


class IncrementalTrajectoryMatch:
    """Streaming trajectory search with per-layer incremental updates.

    A naive trajectory search at layer ``l`` recomputes the full prefix
    cosine — O(C·l·J) work per layer, O(C·L²·J) per iteration.  Because
    both the dot products and the squared norms are sums over layers, they
    can be maintained incrementally as each layer's gate output arrives,
    making every layer O(C·J) and the whole iteration O(C·L·J) — the same
    asymptotic cost as a single full match.  This mirrors the efficiency
    concern behind the paper's "negligible overhead" claim (§4.2).

    The session snapshots the store size at creation and reads only those
    ``size`` slots, so records added mid-iteration (a shared store) change
    neither its shapes nor its results.  Products, denominators and scores
    are written into one per-session buffer; every returned
    :class:`MatchResult` holds fresh arrays, never views of them.
    """

    def __init__(self, store: ExpertMapStore, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self.layers_observed = 0
        self.size = size = len(store)
        self._dots = np.zeros((batch_size, size))
        self._query_sq = np.zeros(batch_size)
        self._query_col = self._query_sq[:, None]
        self._scores = np.empty((batch_size, size))
        self._lanes = np.arange(batch_size)

    def observe_layer(self, rows: np.ndarray) -> MatchResult | None:
        """Fold in one layer's gate outputs, shape ``(B, J)``; match."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[0] != self.batch_size:
            raise ValueError(
                f"expected batch {self.batch_size}, got {rows.shape[0]}"
            )
        store = self.store
        if self.layers_observed >= store.num_layers:
            raise ValueError("all layers already observed")
        size = self.size
        if size == 0:
            return None
        layer = self.layers_observed
        experts = store.num_experts
        # Sliced view of the float64 pre-flattened maps: no per-layer
        # astype copy of the stored rows.
        stored_rows = store._maps_flat[
            :size, layer * experts : (layer + 1) * experts
        ]
        scores = self._scores
        np.matmul(rows, stored_rows.T, out=scores)
        self._dots += scores
        self._query_sq += np.add.reduce(np.square(rows), axis=1)
        self.layers_observed += 1
        # The store caches each slot's squared prefix norms as the same
        # left fold of per-layer row reductions, so reading layer ``l``'s
        # prefix is bitwise identical to folding the stored rows here.
        np.multiply(
            self._query_col, store._prefix_sq[layer, :size], out=scores
        )
        np.sqrt(scores, out=scores)
        scores[scores == 0.0] = 1.0
        np.divide(self._dots, scores, out=scores)
        best = scores.argmax(axis=1)
        return MatchResult(indices=best, scores=scores[self._lanes, best])
