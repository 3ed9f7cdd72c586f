"""Engine prefetch-application semantics: ordering, delays, accounting."""

import numpy as np
import pytest

from repro.baselines.base import BasePolicy
from repro.moe.model import MoEModel
from repro.serving.engine import PolicyAction, ServingEngine
from repro.serving.request import Request
from repro.types import ExpertId

from tests._reference_core import use_reference_issuer

E = ExpertId


def block(*entries, width):
    """A prefetch block from ``(expert, priority)`` pairs, in order."""
    ids = np.array([e.layer * width + e.expert for e, _ in entries])
    priorities = np.array([p for _, p in entries], dtype=np.float64)
    return ids, priorities


class OneShotPrefetcher(BasePolicy):
    """Issues one configurable action at iteration start, then nothing."""

    name = "one-shot"

    def __init__(self, action: PolicyAction):
        super().__init__()
        self._action = action
        self.fired = False

    def on_iteration_start(self, ctx):
        if self.fired:
            return PolicyAction()
        self.fired = True
        return self._action

    def eviction_priority(self, expert, now):
        return 0.0


def run_one(tiny_config, small_hardware, action, reference=False):
    model = MoEModel(tiny_config, seed=0)
    policy = OneShotPrefetcher(action)
    engine = ServingEngine(
        model,
        policy,
        # Budget covers every expert: no eviction interferes with the
        # arrival-time assertions below.
        cache_budget_bytes=2 * tiny_config.total_expert_bytes,
        hardware=small_hardware,
    )
    if reference:
        use_reference_issuer(engine)
    report = engine.run([Request(0, 0, 4, 2)])
    return engine, report


class TestPriorityOrdering:
    #: Issue through the per-entry reference instead of the engine.
    reference = False

    def test_higher_priority_transfers_first(
        self, tiny_config, small_hardware
    ):
        # Two experts on the same device (same flat parity): the higher
        # priority one must get the earlier channel slot.
        low = E(1, 0)
        high = E(1, 2)
        action = PolicyAction(
            prefetch_block=block(
                (low, 0.1), (high, 9.0), width=tiny_config.experts_per_layer
            )
        )
        engine, _ = run_one(
            tiny_config, small_hardware, action, self.reference
        )
        pool = engine.pool
        assert pool.device_of(low).index == pool.device_of(high).index
        # Arrival times may have shifted due to later misses, but the
        # high-priority expert must never arrive after the low one.
        assert pool.arrival_time(high) <= pool.arrival_time(low)

    @pytest.mark.parametrize("reverse", (False, True))
    def test_equal_priorities_keep_emission_order(
        self, tiny_config, small_hardware, reverse
    ):
        # Three same-device experts at one priority: the channel serves
        # them in the order the block lists them, whichever that is.
        emitted = [E(1, 2), E(1, 0), E(2, 0)]
        if reverse:
            emitted.reverse()
        action = PolicyAction(
            prefetch_block=block(
                *[(e, 1.0) for e in emitted],
                width=tiny_config.experts_per_layer,
            )
        )
        engine, _ = run_one(
            tiny_config, small_hardware, action, self.reference
        )
        pool = engine.pool
        assert len({pool.device_of(e).index for e in emitted}) == 1
        arrivals = [pool.arrival_time(e) for e in emitted]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == len(arrivals)


class TestReferencePriorityOrdering(TestPriorityOrdering):
    """The same ordering through the per-entry reference issuer."""

    reference = True


class TestOverheadAccounting:
    reference = False

    def test_async_overheads_delay_but_do_not_block(
        self, tiny_config, small_hardware
    ):
        expert = E(3, 1)
        width = tiny_config.experts_per_layer
        no_delay = PolicyAction(prefetch_block=block((expert, 0.0), width=width))
        delayed = PolicyAction(
            prefetch_block=block((expert, 0.0), width=width),
            async_overheads={"map_match": 0.25},
        )
        engine_a, report_a = run_one(
            tiny_config, small_hardware, no_delay, self.reference
        )
        engine_b, report_b = run_one(
            tiny_config, small_hardware, delayed, self.reference
        )
        # Same critical-path behavior for the first layers...
        assert report_b.breakdown.asynchronous["map_match"] == pytest.approx(
            0.25
        )
        # ...but the transfer was issued later.
        gap = engine_b.pool.arrival_time(expert) - engine_a.pool.arrival_time(
            expert
        )
        assert gap == pytest.approx(0.25, rel=0.05)

    def test_sync_overheads_block(self, tiny_config, small_hardware):
        slow = PolicyAction(sync_overheads={"predict": 0.5})
        _, report_slow = run_one(tiny_config, small_hardware, slow)
        _, report_fast = run_one(
            tiny_config, small_hardware, PolicyAction()
        )
        assert (
            report_slow.requests[0].ttft
            >= report_fast.requests[0].ttft + 0.5 - 1e-9
        )

    def test_prefetch_transfer_counted_once(
        self, tiny_config, small_hardware
    ):
        expert = E(2, 1)
        action = PolicyAction(
            prefetch_block=block(
                (expert, 0.0),
                (expert, 0.0),  # duplicate entry
                width=tiny_config.experts_per_layer,
            )
        )
        engine, report = run_one(
            tiny_config, small_hardware, action, self.reference
        )
        load = small_hardware.expert_load_seconds(tiny_config)
        assert report.breakdown.asynchronous[
            "prefetch_transfer"
        ] == pytest.approx(load)
        assert engine.pool.stats.prefetch_issued == 1


class TestReferenceOverheadAccounting(TestOverheadAccounting):
    """The same accounting through the per-entry reference issuer."""

    reference = True
