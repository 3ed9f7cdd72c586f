"""Tests for the parallel experiment runner: determinism, caching, merging.

The runner's contract is that ``jobs=N`` is byte-identical to ``jobs=1``
— every cell is a pure function of its seeded configuration — and that
worlds are built once per (model, dataset, sizing, seed) key no matter
how many budgets or systems share them.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigError
from repro.experiments.common import ExperimentConfig
from repro.experiments.grid import grid_to_csv, run_grid
from repro.experiments.runner import (
    SimCell,
    WorldCache,
    clear_process_cache,
    merge_reports,
    process_cache,
    resolve_jobs,
    run_cell,
    run_cells,
    world_key,
)
from repro.serving.export import report_to_json, reports_summary_csv
from repro.serving.faults import FaultConfig, SLOConfig
from repro.serving.metrics import ServingReport
from repro.workloads.azure import AzureTraceConfig, make_azure_trace
from repro.workloads.datasets import get_dataset_profile

SMALL = ExperimentConfig(num_requests=8, num_test_requests=2)


@pytest.fixture(scope="module")
def cache():
    """The process cache, pre-warmed so forked workers inherit worlds."""
    shared = process_cache()
    shared.get(SMALL)
    return shared


def _online_trace(n: int = 6) -> tuple:
    return tuple(
        make_azure_trace(
            AzureTraceConfig(num_requests=n, mean_interarrival_seconds=1.0),
            get_dataset_profile(SMALL.dataset),
            seed=SMALL.seed + 10,
        )
    )


class TestWorldKey:
    def test_ignores_serving_knobs(self):
        tweaked = SMALL.with_(
            prefetch_distance=5,
            store_capacity=64,
            cache_fraction=0.5,
            batch_size=4,
        )
        assert world_key(tweaked) == world_key(SMALL)

    def test_differs_on_materialization_fields(self):
        assert world_key(SMALL.with_(seed=1)) != world_key(SMALL)
        assert world_key(SMALL.with_(num_requests=9)) != world_key(SMALL)
        assert world_key(SMALL.with_(dataset="sharegpt")) != world_key(SMALL)


class TestWorldCache:
    def test_builds_once_per_key(self):
        cache = WorldCache()
        first = cache.get(SMALL)
        again = cache.get(SMALL)
        assert again is first
        assert (cache.builds, cache.hits) == (1, 1)

    def test_rebinds_config_on_serving_knob_change(self):
        cache = WorldCache()
        base = cache.get(SMALL)
        tweaked_config = SMALL.with_(prefetch_distance=5)
        tweaked = cache.get(tweaked_config)
        assert cache.builds == 1 and cache.hits == 1
        assert tweaked.config == tweaked_config
        # Same materialization underneath: nothing was re-profiled.
        assert tweaked.warm_traces is base.warm_traces
        assert tweaked.test_requests is base.test_requests

    def test_distinct_seed_builds_new_world(self):
        cache = WorldCache()
        cache.get(SMALL)
        cache.get(SMALL.with_(seed=7))
        assert cache.builds == 2
        assert len(cache) == 2

    def test_clear_resets(self):
        cache = WorldCache()
        cache.get(SMALL)
        cache.clear()
        assert (len(cache), cache.builds, cache.hits) == (0, 0, 0)


class TestRunCells:
    def test_rejects_non_cells(self):
        with pytest.raises(ConfigError):
            run_cells(["fmoe"])

    def test_empty(self):
        assert run_cells([]) == []

    def test_parallel_identical_to_sequential(self, cache):
        """jobs=4 must reproduce jobs=1 byte for byte, faults included."""
        cells = [
            SimCell(config=SMALL, system="fmoe"),
            SimCell(
                config=SMALL,
                system="moe-infinity",
                cache_budget_bytes=8_000_000_000,
            ),
            SimCell(
                config=SMALL,
                system="fmoe",
                requests=_online_trace(),
                respect_arrivals=True,
                faults=FaultConfig(seed=0, transfer_failure_prob=0.2),
                slo=SLOConfig(queue_delay_budget_seconds=30.0),
            ),
        ]
        sequential = run_cells(cells, jobs=1, cache=cache)
        parallel = run_cells(cells, jobs=4)
        assert [report_to_json(r) for r in sequential] == [
            report_to_json(r) for r in parallel
        ]
        assert reports_summary_csv(sequential) == reports_summary_csv(
            parallel
        )

    def test_run_grid_parallel_identical(self, cache):
        kwargs = dict(
            systems=("fmoe", "moe-infinity"),
            budgets_gb=(8.0,),
            config=SMALL,
        )
        sequential = run_grid(jobs=1, cache=cache, **kwargs)
        parallel = run_grid(jobs=2, **kwargs)
        assert grid_to_csv(sequential) == grid_to_csv(parallel)

    def test_chaos_rows_parallel_identical(self, cache):
        from repro.experiments.faults import (
            FaultScenario,
            chaos_rows,
        )

        scenarios = (
            FaultScenario("healthy", FaultConfig(seed=0)),
            FaultScenario(
                "flaky", FaultConfig(seed=0, transfer_failure_prob=0.2)
            ),
        )
        kwargs = dict(
            systems=("fmoe",),
            scenarios=scenarios,
            config=SMALL,
            trace_requests=6,
        )
        assert chaos_rows(jobs=1, cache=cache, **kwargs) == chaos_rows(
            jobs=2, **kwargs
        )


class _PerModelBudget(ExperimentConfig):
    """A config whose default budget depends on the cell's own model."""

    def resolve_budget(self, model) -> int:
        if self.model_name == "qwen1.5-moe":
            return int(7e9)
        return int(13e9)


class TestGridBudgetResolution:
    def test_default_budget_tracks_world_config(self, cache):
        """The reported default budget must come from each world's own
        config, not the base config of the first model in the sweep."""
        config = _PerModelBudget(num_requests=8, num_test_requests=2)
        cells = run_grid(
            models=("mixtral-8x7b", "qwen1.5-moe"),
            systems=("fmoe",),
            config=config,
            cache=cache,
        )
        by_model = {c.model: c.cache_budget_gb for c in cells}
        assert by_model["mixtral-8x7b"] == pytest.approx(13.0)
        assert by_model["qwen1.5-moe"] == pytest.approx(7.0)


class TestRingBufferEvents:
    def test_run_cell_reports_drops(self, cache):
        report = run_cell(
            SimCell(config=SMALL, system="fmoe", ring_buffer_events=4),
            cache=cache,
        )
        assert report.events_dropped > 0

    def test_merged_drops_sum_across_workers(self, cache):
        """Each worker's sink drops independently; the merge adds them."""
        cells = [
            SimCell(config=SMALL, system="fmoe", ring_buffer_events=4),
            SimCell(
                config=SMALL, system="moe-infinity", ring_buffer_events=4
            ),
        ]
        reports = run_cells(cells, jobs=2)
        assert all(r.events_dropped > 0 for r in reports)
        merged = merge_reports(reports)
        assert merged.events_dropped == sum(
            r.events_dropped for r in reports
        )


class TestMergeReports:
    def test_sums_distinct_sink_drops(self):
        a, b = ServingReport(), ServingReport()
        a.policy_name = b.policy_name = "fmoe"
        a.events_dropped, b.events_dropped = 5, 7
        merged = merge_reports([a, b])
        assert merged.events_dropped == 12
        assert merged.policy_name == "fmoe"

    def test_mixed_policies_leave_name_unset(self):
        a, b = ServingReport(), ServingReport()
        a.policy_name, b.policy_name = "fmoe", "promoe"
        assert merge_reports([a, b]).policy_name == ""

    def test_shared_sink_absorb_still_takes_max(self):
        a, b = ServingReport(), ServingReport()
        a.events_dropped, b.events_dropped = 5, 7
        a.absorb(b)
        assert a.events_dropped == 7


class TestResolveJobs:
    def test_explicit_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        cores = len(os.sched_getaffinity(0))
        assert resolve_jobs(0) == cores
        assert resolve_jobs(None) == cores


class TestProcessCache:
    # Defined last on purpose: clearing drops the worlds the earlier
    # tests in this module pre-warmed.
    def test_clear_process_cache(self):
        process_cache().get(SMALL)
        assert len(process_cache()) > 0
        clear_process_cache()
        assert len(process_cache()) == 0
