"""Tests for the expert pool: residency, budgets, eviction, urgency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigError
from repro.moe.config import tiny_test_model
from repro.serving.hardware import HardwareConfig
from repro.serving.pool import ExpertPool
from repro.types import ExpertId

E = ExpertId


class FifoOracle:
    """Evicts lowest (layer, expert) first, deterministically."""

    def eviction_priority(self, expert, now):
        return -(expert.layer * 1000 + expert.expert)


class KeepAllOracle:
    def eviction_priority(self, expert, now):
        return 0.0


@pytest.fixture
def config():
    return tiny_test_model(num_layers=4, experts_per_layer=4)


@pytest.fixture
def hardware():
    return HardwareConfig(
        num_gpus=2,
        gpu_memory_bytes=10**9,
        pcie_bandwidth_bps=1e6,
        framework_layer_overhead_seconds=0.0,
    )


def make_pool(config, hardware, budget_experts=6):
    pool = ExpertPool(
        config, hardware, cache_budget_bytes=budget_experts * config.expert_bytes
    )
    pool.set_eviction_oracle(FifoOracle())
    return pool


class TestResidency:
    def test_preload_makes_ready_at_zero(self, config, hardware):
        pool = make_pool(config, hardware)
        pool.preload([E(0, 0), E(0, 1)])
        assert pool.is_ready(E(0, 0), 0.0)
        assert pool.arrival_time(E(0, 1)) == 0.0
        assert pool.used_bytes() == 2 * config.expert_bytes

    def test_untracked_expert(self, config, hardware):
        pool = make_pool(config, hardware)
        assert not pool.is_tracked(E(1, 1))
        assert pool.arrival_time(E(1, 1)) is None
        assert not pool.is_ready(E(1, 1), 100.0)

    def test_prefetch_arrival_follows_channel(self, config, hardware):
        pool = make_pool(config, hardware)
        assert pool.prefetch(E(0, 0), issue_time=1.0) == "scheduled"
        expected = 1.0 + config.expert_bytes / hardware.pcie_bandwidth_bps
        assert pool.arrival_time(E(0, 0)) == pytest.approx(expected)
        assert not pool.is_ready(E(0, 0), 1.0)
        assert pool.is_ready(E(0, 0), expected + 0.01)

    def test_duplicate_prefetch_reports_present(self, config, hardware):
        pool = make_pool(config, hardware)
        assert pool.prefetch(E(0, 0), 0.0) == "scheduled"
        assert pool.prefetch(E(0, 0), 0.0) == "present"
        assert pool.stats.prefetch_issued == 1


class TestPlacement:
    def test_round_robin_spreads_devices(self, config, hardware):
        pool = make_pool(config, hardware)
        devices = {
            pool.device_of(E(layer, j)).index
            for layer in range(config.num_layers)
            for j in range(config.experts_per_layer)
        }
        assert devices == {0, 1}

    def test_placement_is_stable(self, config, hardware):
        pool = make_pool(config, hardware)
        assert pool.device_of(E(2, 3)).index == pool.device_of(E(2, 3)).index


class TestEviction:
    def test_eviction_frees_space(self, config, hardware):
        # Budget of 2 experts per device.
        pool = make_pool(config, hardware, budget_experts=4)
        experts = [E(0, 0), E(0, 2), E(1, 0), E(1, 2)]  # all even → device 0
        devices = {pool.device_of(e).index for e in experts}
        assert devices == {0}
        for e in experts[:2]:
            pool.preload([e])
        # Third expert on the same device forces an eviction (FIFO: E(0,0)).
        assert pool.prefetch(experts[2], 100.0) == "scheduled"
        assert not pool.is_tracked(E(0, 0))
        assert pool.stats.evictions == 1

    def test_protected_experts_survive(self, config, hardware):
        pool = make_pool(config, hardware, budget_experts=4)
        pool.preload([E(0, 0), E(0, 2)])
        pool.protected = {E(0, 0), E(0, 2)}
        assert pool.prefetch(E(1, 0), 100.0) == "rejected"
        assert pool.is_tracked(E(0, 0))

    def test_inflight_not_evictable_by_prefetch(self, config, hardware):
        pool = make_pool(config, hardware, budget_experts=4)
        pool.prefetch(E(0, 0), 0.0)
        pool.prefetch(E(0, 2), 0.0)
        # Both still in flight at t=0: a further prefetch cannot evict them.
        assert pool.prefetch(E(1, 0), 0.0) == "rejected"

    def test_oracle_error_propagates(self, config, hardware):
        pool = ExpertPool(
            config, hardware, cache_budget_bytes=4 * config.expert_bytes
        )
        pool.preload([E(0, 0), E(0, 2)])
        with pytest.raises(CapacityError, match="no eviction oracle"):
            pool.prefetch(E(1, 0), 100.0)


class TestOnDemand:
    def test_miss_load_blocks_for_transfer(self, config, hardware):
        pool = make_pool(config, hardware)
        done = pool.load_on_demand(E(0, 0), now=5.0)
        expected = 5.0 + config.expert_bytes / hardware.pcie_bandwidth_bps
        assert done == pytest.approx(expected)
        assert pool.stats.ondemand_loads == 1

    def test_load_of_inflight_returns_arrival(self, config, hardware):
        pool = make_pool(config, hardware)
        pool.prefetch(E(0, 0), 0.0)
        arrival = pool.arrival_time(E(0, 0))
        done = pool.load_on_demand(E(0, 0), now=0.0)
        assert done == pytest.approx(arrival)
        assert pool.stats.ondemand_loads == 0  # it was already on the wire

    def test_load_of_resident_is_instant(self, config, hardware):
        pool = make_pool(config, hardware)
        pool.preload([E(0, 0)])
        assert pool.load_on_demand(E(0, 0), now=7.0) == 7.0

    def test_urgent_load_cancels_queued_prefetch_for_space(
        self, config, hardware
    ):
        pool = make_pool(config, hardware, budget_experts=4)
        pool.prefetch(E(0, 0), 0.0)  # in flight on device 0
        pool.prefetch(E(0, 2), 0.0)  # queued on device 0
        pool.prefetch(E(1, 0), 0.0)  # queued on device 0 → rejected (full)
        done = pool.load_on_demand(E(1, 2), now=0.0)
        assert done > 0.0
        # The queued (not started) prefetch was reclaimed.
        assert pool.stats.prefetch_cancelled >= 1

    def test_capacity_error_when_everything_protected(self, config, hardware):
        pool = make_pool(config, hardware, budget_experts=4)
        pool.preload([E(0, 0), E(0, 2)])
        pool.protected = {E(0, 0), E(0, 2), E(1, 0)}
        with pytest.raises(CapacityError):
            pool.load_on_demand(E(1, 0), now=1.0)


class TestValidation:
    def test_budget_must_fit_one_expert_per_device(self, config, hardware):
        with pytest.raises(ConfigError, match="smaller than one expert"):
            ExpertPool(config, hardware, cache_budget_bytes=1)

    def test_zero_budget_rejected(self, config, hardware):
        with pytest.raises(ConfigError):
            ExpertPool(config, hardware, cache_budget_bytes=0)

    def test_preload_over_budget_raises(self, config, hardware):
        pool = make_pool(config, hardware, budget_experts=2)
        with pytest.raises(CapacityError):
            pool.preload([E(0, 0), E(0, 2), E(1, 0)])


def _all_experts(config):
    return [
        E(layer, j)
        for layer in range(config.num_layers)
        for j in range(config.experts_per_layer)
    ]


def _assert_ready_flags_agree(pool, experts, now):
    assert pool.ready_flags(experts, now) == [
        pool.is_ready(e, now) for e in experts
    ], now


class TestReadyFlags:
    """``ready_flags`` is ``is_ready`` over a list, in every state."""

    def test_each_residency_state(self, config, hardware):
        pool = make_pool(config, hardware, budget_experts=8)
        load = config.expert_bytes / hardware.pcie_bandwidth_bps
        device = pool.device_of(E(0, 0))
        same = [
            e for e in _all_experts(config) if pool.device_of(e) is device
        ]
        preloaded, in_flight, queued, urgent, untracked = same[:5]
        pool.preload([preloaded])
        assert pool.prefetch(in_flight, 0.0) == "scheduled"
        assert pool.prefetch(queued, 0.0) == "scheduled"
        queued_end = pool.arrival_time(queued)
        # The urgent load pauses the queued prefetch behind itself.
        pool.load_on_demand(urgent, 0.5 * load)
        assert pool.arrival_time(queued) > queued_end
        experts = [preloaded, in_flight, queued, urgent, untracked]
        states = {
            0.0: [True, False, False, False, False],
            1.5 * load: [True, True, False, False, False],
            queued_end: [True, True, False, True, False],
            pool.arrival_time(queued): [True, True, True, True, False],
        }
        for now, expected in states.items():
            assert pool.ready_flags(experts, now) == expected, now
            _assert_ready_flags_agree(pool, experts, now)

    @given(
        budget=st.integers(2, 12),
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ("preload", "prefetch", "ondemand", "blocking", "evict")
                ),
                st.integers(0, 15),
                st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5)),
            ),
            max_size=24,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_is_ready_after_any_operations(self, budget, ops):
        config = tiny_test_model(num_layers=4, experts_per_layer=4)
        hardware = HardwareConfig(
            num_gpus=2,
            gpu_memory_bytes=10**9,
            pcie_bandwidth_bps=1e6,
            framework_layer_overhead_seconds=0.0,
        )
        pool = make_pool(config, hardware, budget_experts=budget)
        load = config.expert_bytes / hardware.pcie_bandwidth_bps
        experts = _all_experts(config)
        now = 0.0
        for kind, index, step in ops:
            expert = experts[index]
            now += step * load
            try:
                if kind == "preload":
                    pool.preload_fit([expert])
                elif kind == "prefetch":
                    pool.prefetch(expert, now)
                elif kind == "ondemand":
                    pool.load_on_demand(expert, now)
                elif kind == "blocking":
                    pool.insert_blocking(expert, now)
                else:
                    pool.evict(expert)
            except CapacityError:
                pass
            # Probe now, mid-transfer, and every live start/end boundary.
            probes = {now, now + 0.5 * load, now + load}
            for task in pool._tasks.values():
                if task is not None:
                    probes.update((task.start, task.end))
            for probe in probes:
                _assert_ready_flags_agree(pool, experts, probe)
