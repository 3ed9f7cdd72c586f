"""Hindsight-optimal prefetching: an upper bound, not a paper baseline.

Knows each iteration's true activations the moment the iteration starts and
prefetches exactly those experts, honoring the prefetch distance (layers
closer than the distance at iteration start cannot be hidden).  Used by the
extension benches to quantify how much headroom remains above fMoE.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BasePolicy, LFUTracker, concat_blocks
from repro.serving.engine import IterationContext, PolicyAction
from repro.types import ExpertId


class OraclePolicy(BasePolicy):
    """Prefetches the ground-truth activation set of every layer."""

    name = "oracle"

    def __init__(self, prefetch_distance: int = 3) -> None:
        super().__init__()
        if prefetch_distance < 1:
            raise ValueError("prefetch_distance must be >= 1")
        self.prefetch_distance = prefetch_distance
        self._lfu = LFUTracker()
        # Belady bookkeeping for the in-flight iteration: the next layer
        # (>= compute front) at which each expert is known to be needed.
        self._next_use: dict[ExpertId, int] = {}
        self._front = 0

    def _block(self, ctx: IterationContext, layer: int):
        """Every lane's true activations at ``layer``, lane-major."""
        experts = np.concatenate(ctx.oracle_activated_at(layer))
        ids = layer * self.config.experts_per_layer + experts.astype(np.int64)
        priorities = np.full(
            len(ids), float(self.config.num_layers - layer)
        )
        return ids, priorities

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        # Perfect predictions, same issue window as fMoE: the first d
        # layers at iteration start, then d layers ahead of the compute
        # front — so the bound isolates prediction quality, not timing.
        self._front = 0
        self._next_use = {}
        for layer in range(self.config.num_layers):
            for activated in ctx.oracle_activated_at(layer):
                for j in activated:
                    self._next_use.setdefault(ExpertId(layer, int(j)), layer)
        blocks = [
            self._block(ctx, layer)
            for layer in range(
                min(self.prefetch_distance, self.config.num_layers)
            )
        ]
        return PolicyAction(prefetch_block=concat_blocks(blocks))

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        self._front = layer
        target = layer + self.prefetch_distance
        if target >= self.config.num_layers:
            return PolicyAction()
        return PolicyAction(prefetch_block=self._block(ctx, target))

    def on_iteration_end(self, ctx: IterationContext) -> None:
        self._next_use = {}
        self._front = 0

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        self._lfu.touch(expert, now)
        # This layer's use is spent; the expert's remaining value is
        # whatever later layer (if any) activates it again.
        if self._next_use.get(expert, -1) <= expert.layer:
            self._next_use.pop(expert, None)

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        # Belady with hindsight: an expert still needed this iteration is
        # kept (negative score, sooner use → kept longer); everything else
        # falls back to LFU (positive score) and is evicted first.
        next_use = self._next_use.get(expert)
        if next_use is not None and next_use >= self._front:
            return float(next_use - self.config.num_layers)
        return self._lfu.eviction_priority(expert, now)
