"""Base class and shared cache trackers for offloading policies."""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.serving.engine import IterationContext, PolicyAction
from repro.serving.request import Request
from repro.types import ExpertId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.engine import ServingEngine
    from repro.workloads.profiler import RequestTrace


class LRUTracker:
    """Least-recently-used bookkeeping for eviction scoring."""

    def __init__(self) -> None:
        self._last_use: dict[ExpertId, float] = {}

    def touch(self, expert: ExpertId, now: float) -> None:
        """Record a use of ``expert`` at virtual time ``now``."""
        self._last_use[expert] = now

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        """Older last use → larger score → evicted first."""
        return now - self._last_use.get(expert, -1.0)


class LFUTracker:
    """Least-frequently-used bookkeeping for eviction scoring."""

    def __init__(self) -> None:
        self._freq: dict[ExpertId, int] = defaultdict(int)

    def touch(self, expert: ExpertId, now: float) -> None:
        """Record a use of ``expert`` (time is ignored for LFU)."""
        self._freq[expert] += 1

    def frequency(self, expert: ExpertId) -> int:
        """Total recorded uses of ``expert``."""
        return self._freq[expert]

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        """Lower visit frequency → larger score → evicted first."""
        return 1.0 / (1.0 + self._freq.get(expert, 0))


class BasePolicy:
    """No-op policy skeleton; subclasses override the hooks they need."""

    name = "base"

    def __init__(self) -> None:
        self.engine: "ServingEngine | None" = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, engine: "ServingEngine") -> None:
        """Called once by the engine; gives access to config and pool."""
        self.engine = engine

    @property
    def config(self):
        assert self.engine is not None, "policy not attached to an engine"
        return self.engine.config

    @property
    def pool(self):
        assert self.engine is not None, "policy not attached to an engine"
        return self.engine.pool

    def warm(self, traces: Sequence["RequestTrace"]) -> None:
        """Ingest profiled history before evaluation (offline setting)."""

    # ------------------------------------------------------------------ #
    # Engine hooks (default: do nothing)
    # ------------------------------------------------------------------ #

    def on_request_start(
        self, request: Request, embedding: np.ndarray
    ) -> None:
        """Called before a request's first iteration, with its embedding."""

    def on_request_end(self, request: Request) -> None:
        """Called when a request generates its last token."""

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        """Called before layer 0 of every iteration (semantic context)."""
        return PolicyAction()

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        """Called after each layer's gate output is revealed."""
        return PolicyAction()

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        """Called once per activated expert with its hit/miss outcome."""

    def on_iteration_end(self, ctx: IterationContext) -> PolicyAction:
        """Called after the last layer (map-update point)."""
        return PolicyAction()

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        """Score an eviction candidate; higher is evicted first."""
        return 0.0

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def topk_block(
        layer: int, distribution: np.ndarray, k: int, base_priority: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Prefetch block for the ``k`` most probable experts of one layer.

        Flat ids ``layer * J + j`` in descending-probability order, each
        with priority ``base_priority + distribution[j]`` in float64.
        """
        width = distribution.shape[-1]
        top = np.argsort(distribution)[::-1][: min(k, width)]
        priorities = base_priority + distribution[top].astype(np.float64)
        return layer * width + top, priorities


def concat_blocks(
    blocks: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """One prefetch block holding ``blocks`` back to back, in order."""
    return (
        np.concatenate([ids for ids, _ in blocks]),
        np.concatenate([priorities for _, priorities in blocks]),
    )
