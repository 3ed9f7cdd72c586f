"""The Expert Map Store (paper §3.2, §4.4).

A capacity-bounded collection of (semantic embedding, expert map) records
from historical inference iterations, held in preallocated arrays so the
matcher's batched cosine computations are single matrix products.

Stored rows are pre-normalized at :meth:`ExpertMapStore.add` time: unit
embeddings, float64-flattened maps, and cumulative per-prefix norms are
maintained per slot, so every search is one matrix product against
already-normalized (or norm-divided) rows — no per-query re-normalization
of the stored side.  Insertion is O(L·J) per record; searches happen far
more often than inserts, so the work moves to the cheap side.

When full, the store deduplicates: each incoming iteration computes the
unified redundancy score against every stored record,

    RDY_{x,y} = (d/L) · score_sem(x,y) + ((L−d)/L) · score_traj(x,y),

and replaces the stored record it is most redundant with — keeping the
store diverse so some useful map exists for any future prompt.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError


class StoreRecord(NamedTuple):
    """One stored iteration context (copies, for inspection/tests)."""

    embedding: np.ndarray
    expert_map: np.ndarray


class ExpertMapStore:
    """Fixed-capacity store of iteration-level expert maps."""

    def __init__(
        self,
        capacity: int,
        num_layers: int,
        num_experts: int,
        embedding_dim: int,
        prefetch_distance: int = 3,
    ) -> None:
        if capacity < 1:
            raise ConfigError("store capacity must be >= 1")
        if num_layers < 1 or num_experts < 1:
            raise ConfigError("num_layers and num_experts must be >= 1")
        if embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if not 1 <= prefetch_distance <= num_layers:
            raise ConfigError(
                "prefetch_distance must be in [1, num_layers]"
            )
        self.capacity = capacity
        self.num_layers = num_layers
        self.num_experts = num_experts
        self.embedding_dim = embedding_dim
        self.prefetch_distance = prefetch_distance
        self._embeddings = np.zeros((capacity, embedding_dim), dtype=np.float32)
        self._maps = np.zeros(
            (capacity, num_layers, num_experts), dtype=np.float32
        )
        # Pre-normalized search-side rows, maintained per slot by add():
        # unit-norm embeddings, float64 flattened maps, and cumulative
        # prefix norms ||map[:l]|| for every prefix length l.  Zero norms
        # are stored as 1.0 so divisions yield 0 similarity, matching the
        # cosine convention for zero rows.
        self._embeddings_unit = np.zeros(
            (capacity, embedding_dim), dtype=np.float64
        )
        self._maps_flat = np.zeros(
            (capacity, num_layers * num_experts), dtype=np.float64
        )
        self._prefix_norms = np.ones((capacity, num_layers), dtype=np.float64)
        # Cumulative squared prefix norms ||map[:l+1]||² of every slot,
        # layer-major so an incremental trajectory matcher reads one
        # contiguous row per layer instead of folding per-layer norms.
        self._prefix_sq = np.zeros((num_layers, capacity), dtype=np.float64)
        self._size = 0
        self.total_added = 0
        self.replacements = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size >= self.capacity

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    def record(self, index: int) -> StoreRecord:
        """Copy of the stored (embedding, map) pair at ``index``."""
        if not 0 <= index < self._size:
            raise ConfigError(f"record index {index} out of range")
        return StoreRecord(
            embedding=self._embeddings[index].copy(),
            expert_map=self._maps[index].copy(),
        )

    def get_map(self, index: int) -> np.ndarray:
        """Stored expert map ``(L, J)`` (read-only view)."""
        if not 0 <= index < self._size:
            raise ConfigError(f"record index {index} out of range")
        return self._maps[index]

    def gather_maps(self, indices: np.ndarray) -> np.ndarray:
        """Stored maps for a batch of slots: ``(B, L, J)`` float32 copy.

        The batched gather form of :meth:`get_map` — one fancy index
        instead of one Python call per batch position.
        """
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self._size
        ):
            raise ConfigError("record index out of range")
        return self._maps[indices]

    def gather_rows(self, indices: np.ndarray, layer: int) -> np.ndarray:
        """One map layer for a batch of slots: ``(B, J)`` float32 copy."""
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self._size
        ):
            raise ConfigError("record index out of range")
        return self._maps[indices, layer]

    def memory_bytes(self, allocated: bool = False) -> int:
        """CPU memory footprint (Fig. 16): maps + embeddings, float32."""
        rows = self.capacity if allocated else self._size
        per_record = (
            self.num_layers * self.num_experts + self.embedding_dim
        ) * 4
        return rows * per_record

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def add(self, embedding: np.ndarray, expert_map: np.ndarray) -> int:
        """Insert one record; returns the slot it landed in."""
        embedding = np.asarray(embedding, dtype=np.float32)
        expert_map = np.asarray(expert_map, dtype=np.float32)
        if embedding.shape != (self.embedding_dim,):
            raise ConfigError(
                f"embedding shape {embedding.shape} != ({self.embedding_dim},)"
            )
        if expert_map.shape != (self.num_layers, self.num_experts):
            raise ConfigError(
                f"map shape {expert_map.shape} != "
                f"({self.num_layers}, {self.num_experts})"
            )
        self.total_added += 1
        if self._size < self.capacity:
            slot = self._size
            self._size += 1
        else:
            slot = self._most_redundant_slot(embedding, expert_map)
            self.replacements += 1
        self._embeddings[slot] = embedding
        self._maps[slot] = expert_map
        self._refresh_derived(slot)
        return slot

    def _refresh_derived(self, slot: int) -> None:
        """Recompute the pre-normalized rows for one (re)written slot."""
        emb = self._embeddings[slot].astype(np.float64)
        norm = float(np.linalg.norm(emb))
        self._embeddings_unit[slot] = emb / (norm if norm != 0.0 else 1.0)
        stored = self._maps[slot].astype(np.float64)
        self._maps_flat[slot] = stored.reshape(-1)
        # ``cumsum`` is the same left fold a streamed match would run
        # layer by layer, so the cached prefixes are bitwise equal to it.
        prefix_sq = np.cumsum((stored**2).sum(axis=1))
        self._prefix_sq[:, slot] = prefix_sq
        norms = np.sqrt(prefix_sq)
        norms[norms == 0.0] = 1.0
        self._prefix_norms[slot] = norms

    def _most_redundant_slot(
        self, embedding: np.ndarray, expert_map: np.ndarray
    ) -> int:
        scores = self.redundancy_scores(
            embedding[None, :], expert_map[None, :, :]
        )
        return int(np.argmax(scores[0]))

    def redundancy_scores(
        self, embeddings: np.ndarray, maps: np.ndarray
    ) -> np.ndarray:
        """Unified redundancy score RDY (§4.4), shape ``(B, size)``."""
        if self.is_empty:
            raise ConfigError("redundancy undefined for an empty store")
        sem = self.semantic_scores(embeddings)
        flat_new = np.asarray(maps, dtype=np.float64).reshape(
            maps.shape[0], -1
        )
        traj = self._prefix_dot(flat_new, self.num_layers)
        d, total = self.prefetch_distance, self.num_layers
        return (d / total) * sem + ((total - d) / total) * traj

    # ------------------------------------------------------------------ #
    # Affinity summaries (cluster routing)
    # ------------------------------------------------------------------ #

    def embedding_centroid(self) -> np.ndarray | None:
        """Mean of the stored unit embeddings (``None`` when empty).

        A cheap one-vector summary of the semantic region this store has
        seen; cluster routers compare request embeddings against replica
        centroids to steer similar prompts to replicas that already hold
        their expert maps.
        """
        if self.is_empty:
            return None
        return self._embeddings_unit[: self._size].mean(axis=0)

    def best_semantic_score(self, embedding: np.ndarray) -> float:
        """Best cosine match of one query embedding against the store.

        The affinity-routing signal: the maximum of
        :meth:`semantic_scores` for a single query, or ``-1.0`` when the
        store is empty (no evidence, defer to load-based routing).
        """
        if self.is_empty:
            return -1.0
        embedding = np.asarray(embedding, dtype=np.float64)
        scores = self.semantic_scores(embedding[None, :])
        return float(scores[0].max())

    # ------------------------------------------------------------------ #
    # Search primitives (Eqs. 4 and 5)
    # ------------------------------------------------------------------ #

    def semantic_scores(self, embeddings: np.ndarray) -> np.ndarray:
        """Cosine similarity of query embeddings vs stored: ``(B, size)``."""
        if self.is_empty:
            raise ConfigError("cannot search an empty store")
        queries = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if queries.shape[1] != self.embedding_dim:
            raise ValueError(
                f"dimension mismatch: {queries.shape[1]} vs "
                f"{self.embedding_dim}"
            )
        norms = np.linalg.norm(queries, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return (queries / norms) @ self._embeddings_unit[: self._size].T

    def _prefix_dot(
        self, flat_queries: np.ndarray, num_layers: int
    ) -> np.ndarray:
        """Cosine of normalized flat queries vs stored ``num_layers``-prefixes.

        One sliced matrix product against the pre-flattened maps, divided
        by the prefix norms cached at insertion time.
        """
        norms = np.linalg.norm(flat_queries, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        width = num_layers * self.num_experts
        dots = (flat_queries / norms) @ self._maps_flat[: self._size, :width].T
        return dots / self._prefix_norms[: self._size, num_layers - 1]

    def trajectory_scores(
        self, observed: np.ndarray, num_layers: int
    ) -> np.ndarray:
        """Cosine similarity of observed prefixes vs stored prefixes.

        ``observed`` has shape ``(B, num_layers, J)`` — the gate
        distributions of the layers revealed so far this iteration.
        """
        if self.is_empty:
            raise ConfigError("cannot search an empty store")
        if not 1 <= num_layers <= self.num_layers:
            raise ConfigError(
                f"prefix length {num_layers} out of range [1, {self.num_layers}]"
            )
        observed = np.asarray(observed)
        if observed.ndim != 3 or observed.shape[1] < num_layers:
            raise ConfigError(
                "observed must be (B, >=num_layers, J); got "
                f"{observed.shape}"
            )
        if observed.shape[2] != self.num_experts:
            raise ValueError(
                f"dimension mismatch: {observed.shape[2]} vs "
                f"{self.num_experts}"
            )
        flat_new = np.asarray(
            observed[:, :num_layers, :], dtype=np.float64
        ).reshape(observed.shape[0], -1)
        return self._prefix_dot(flat_new, num_layers)
