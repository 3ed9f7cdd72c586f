"""ProMoE baseline: stride-based learned speculative prefetching.

Song et al.'s proactive-caching design as the paper reproduces it (§6.1):
per-layer learned predictors speculate expert activations a fixed stride
ahead of the compute front, and prefetching runs asynchronously so
prediction does not block inference.  The learned predictor is modeled as
the speculation oracle with a quality factor below 1 (better than raw
hidden-state reuse at the same distance, still decaying with stride).
"""

from __future__ import annotations

from repro.baselines.base import BasePolicy, LFUTracker, concat_blocks
from repro.serving.engine import IterationContext, PolicyAction
from repro.types import ExpertId


class ProMoEPolicy(BasePolicy):
    """Asynchronous stride speculation with an LFU cache."""

    name = "promoe"

    PREDICT_SECONDS = 0.003
    """Modeled predictor cost per prediction point.

    ProMoE's per-layer learned predictors execute on the GPU and contend
    with decode compute; in the paper's best-effort reproduction (built on
    the MoE-Infinity codebase, §6.1) this cost lands on the critical path,
    which is why the paper measures ProMoE's TPOT above MoE-Infinity's even
    though its hit rate is higher (Fig. 9)."""

    def __init__(
        self, prefetch_distance: int = 3, predictor_quality: float = 0.45
    ) -> None:
        super().__init__()
        if prefetch_distance < 1:
            raise ValueError("prefetch_distance must be >= 1")
        if predictor_quality <= 0:
            raise ValueError("predictor_quality must be > 0")
        self.prefetch_distance = prefetch_distance
        self.predictor_quality = predictor_quality
        self._lfu = LFUTracker()

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        target = layer + self.prefetch_distance
        if target >= self.config.num_layers:
            return PolicyAction()
        blocks = []
        for b in range(ctx.batch_size):
            predicted = ctx.speculate(
                b,
                target,
                self.prefetch_distance,
                noise_multiplier=self.predictor_quality,
            )
            blocks.append(
                self.topk_block(target, predicted, self.config.top_k)
            )
        return PolicyAction(
            prefetch_block=concat_blocks(blocks),
            sync_overheads={"predict": self.PREDICT_SECONDS},
        )

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        self._lfu.touch(expert, now)

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        return self._lfu.eviction_priority(expert, now)
