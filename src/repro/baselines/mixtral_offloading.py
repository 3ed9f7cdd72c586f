"""Mixtral-Offloading baseline: LRU cache + synchronous speculation.

Eliseev & Mazur's design (paper §2.4, §6.1): at every layer, the next
layer's gate is applied speculatively to the current hidden state and the
predicted top-K experts are prefetched *synchronously* — compute waits for
the copies.  Distance-1 speculation is accurate (hence the highest baseline
hit rate in Fig. 9) but the synchronous waits make its TTFT/TPOT poor.
"""

from __future__ import annotations

from repro.baselines.base import BasePolicy, LRUTracker, concat_blocks
from repro.serving.engine import IterationContext, PolicyAction
from repro.types import ExpertId


class MixtralOffloadingPolicy(BasePolicy):
    """Distance-1 synchronous speculative prefetch over an LRU cache."""

    name = "mixtral-offloading"

    #: Modeled cost of running the next layer's gate on current activations.
    SPECULATE_SECONDS = 0.0005

    def __init__(self, prefetch_distance: int = 1) -> None:
        super().__init__()
        if prefetch_distance < 1:
            raise ValueError("prefetch_distance must be >= 1")
        self.prefetch_distance = prefetch_distance
        self._lru = LRUTracker()

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        target = layer + self.prefetch_distance
        if target >= self.config.num_layers:
            return PolicyAction()
        blocks = [
            self.topk_block(
                target,
                ctx.speculate(b, target, self.prefetch_distance),
                self.config.top_k,
            )
            for b in range(ctx.batch_size)
        ]
        return PolicyAction(
            prefetch_block=concat_blocks(blocks),
            sync_overheads={"speculate": self.SPECULATE_SECONDS},
            block_until_arrival=True,
        )

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        self._lru.touch(expert, now)

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        return self._lru.eviction_priority(expert, now)
