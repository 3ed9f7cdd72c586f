"""Property-based tests on policy behavior through the engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    MixtralOffloadingPolicy,
    MoEInfinityPolicy,
    ProMoEPolicy,
)
from repro.baselines.base import BasePolicy
from repro.core.policy import FMoEPolicy
from repro.moe.config import tiny_test_model
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.serving.hardware import HardwareConfig
from repro.serving.request import Request
from repro.types import ExpertId


class InstructionAuditor(BasePolicy):
    """Wraps a policy and records every prefetch instruction it emits.

    Both prefetch forms are audited: ``PrefetchInstruction`` lists and
    ``prefetch_block`` flat ids (``layer * J + j``), which fMoE emits.
    """

    name = "auditor"

    def __init__(self, inner: BasePolicy):
        super().__init__()
        self.inner = inner
        self.start_instructions = []
        self.layer_instructions = []  # (current_layer, target_layer)

    def attach(self, engine):
        super().attach(engine)
        self.inner.attach(engine)
        self.name = f"audited-{self.inner.name}"

    def warm(self, traces):
        self.inner.warm(traces)

    def on_request_start(self, request, embedding):
        self.inner.on_request_start(request, embedding)

    def on_request_end(self, request):
        self.inner.on_request_end(request)

    def _targets(self, action):
        experts = [i.expert for i in action.prefetch]
        if action.prefetch_block is not None:
            width = self.config.experts_per_layer
            experts.extend(
                ExpertId(*divmod(int(flat), width))
                for flat in action.prefetch_block[0]
            )
        return experts

    def on_iteration_start(self, ctx):
        action = self.inner.on_iteration_start(ctx)
        self.start_instructions.extend(self._targets(action))
        return action

    def on_gate_output(self, ctx, layer):
        action = self.inner.on_gate_output(ctx, layer)
        self.layer_instructions.extend(
            (layer, expert.layer) for expert in self._targets(action)
        )
        return action

    def on_iteration_end(self, ctx):
        return self.inner.on_iteration_end(ctx)

    def on_expert_served(self, expert, hit, now):
        self.inner.on_expert_served(expert, hit, now)

    def eviction_priority(self, expert, now):
        return self.inner.eviction_priority(expert, now)


def policy_factory(name):
    return {
        "fmoe": lambda: FMoEPolicy(prefetch_distance=2),
        "mixtral-offloading": lambda: MixtralOffloadingPolicy(),
        "promoe": lambda: ProMoEPolicy(prefetch_distance=2),
        "moe-infinity": lambda: MoEInfinityPolicy(prefetch_distance=2),
    }[name]()


@pytest.mark.parametrize(
    "name", ["fmoe", "mixtral-offloading", "promoe", "moe-infinity"]
)
@given(seed=st.integers(0, 50), cluster=st.integers(0, 7))
@settings(max_examples=8, deadline=None)
def test_prefetch_targets_are_never_in_the_past(name, seed, cluster):
    """No policy may issue a prefetch for a layer at or behind the front."""
    config = tiny_test_model()
    model = MoEModel(config, seed=0)
    auditor = InstructionAuditor(policy_factory(name))
    hardware = HardwareConfig(
        num_gpus=2, framework_layer_overhead_seconds=1e-3
    )
    engine = ServingEngine(
        model,
        auditor,
        cache_budget_bytes=12 * config.expert_bytes,
        hardware=hardware,
    )
    from repro.workloads.profiler import collect_history

    warm = collect_history(model, [Request(99, cluster, 6, 3, seed=seed)])
    auditor.warm(warm)
    engine.run([Request(0, cluster, 6, 3, seed=seed + 1)])

    if name == "fmoe":
        # The warmed store always yields a semantic and a trajectory
        # match, so an empty audit means the instructions went unseen.
        assert auditor.start_instructions and auditor.layer_instructions
    layers = config.num_layers
    for expert in auditor.start_instructions:
        assert 0 <= expert.layer < layers
    for current, target in auditor.layer_instructions:
        assert target > current, (current, target)
        assert target < layers


@given(seed=st.integers(0, 30))
@settings(max_examples=6, deadline=None)
def test_fmoe_eviction_priorities_always_finite(seed):
    config = tiny_test_model()
    model = MoEModel(config, seed=0)
    policy = FMoEPolicy(prefetch_distance=2)
    engine = ServingEngine(
        model,
        policy,
        cache_budget_bytes=8 * config.expert_bytes,
        hardware=HardwareConfig(num_gpus=2),
    )
    engine.run([Request(0, seed % 8, 4, 3, seed=seed)])
    for layer in range(config.num_layers):
        for j in range(config.experts_per_layer):
            value = policy.eviction_priority(ExpertId(layer, j), engine.now)
            assert np.isfinite(value) and value > 0
