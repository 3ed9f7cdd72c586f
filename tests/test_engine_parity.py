"""Differential parity: the engine against independent reference paths.

The serving hot loop is pinned three ways; this suite is the
differential leg.  :func:`tests._reference_core.reference_engine` swaps
in reference paths (naive full-prefix trajectory re-matching,
per-candidate eviction scoring, instruction-list prefetching, and the
general serve loop instead of the all-hit fast path), and every test
here demands **byte-identical** serialized reports between the engine
and its reference-routed twin — on hypothesis-generated worlds and
arrival traces, through fault schedules, and through the cluster driver.
The golden leg holds the engine to the committed corpus byte for byte,
and the mutant screen proves the validators still have their teeth.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, run_cluster
from repro.experiments.common import run_system
from repro.serving.export import report_to_dict, report_to_json
from repro.serving.faults import FaultConfig, FaultSchedule
from repro.validate.harness import detect_mutant
from repro.validate.mutants import MUTANTS

from tests._cluster_testkit import arrival_trace, tiny_world
from tests._reference_core import reference_engine
from tests._strategies import fleet_shapes
from tests.golden.corpus import GOLDEN_CASES, load_golden

PARITY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _bytes(report) -> str:
    # The per-layer hit/miss histograms are not serialized; append them so
    # a fast-path slip in their bookkeeping cannot hide.
    return report_to_json(report) + repr(
        (sorted(report.layer_hits.items()), sorted(report.layer_misses.items()))
    )


class TestGoldenParity:
    """The engine reproduces the committed golden corpus byte for byte."""

    @pytest.fixture(scope="class")
    def world_cache(self):
        from repro.experiments.runner import WorldCache

        return WorldCache()

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.filename)
    def test_engine_equals_golden_bytes(self, case, world_cache):
        from repro.experiments.common import ExperimentConfig
        from tests.golden.corpus import (
            GOLDEN_NUM_REQUESTS,
            GOLDEN_NUM_TEST_REQUESTS,
            GOLDEN_SEED,
        )

        config = ExperimentConfig(
            model_name=case.model,
            dataset=case.dataset,
            num_requests=GOLDEN_NUM_REQUESTS,
            num_test_requests=GOLDEN_NUM_TEST_REQUESTS,
            seed=GOLDEN_SEED,
        )
        world = world_cache.get(config)
        golden = json.dumps(load_golden(case), sort_keys=True)
        served = json.dumps(
            report_to_dict(run_system(world, case.system)), sort_keys=True
        )
        assert served == golden, f"{case.filename}: engine drifted"


class TestPropertyParity:
    """Generated workloads serve identically through the reference paths."""

    @PARITY_SETTINGS
    @given(
        shape=fleet_shapes(max_replicas=1),
        per_gpu=st.sampled_from((None, 2, 3)),
    )
    def test_bare_engine_parity_over_arrival_traces(self, shape, per_gpu):
        """``per_gpu`` experts of cache per GPU make victim order count.

        The default tiny-world budget leaves at most one evictable expert
        per device; two or three per GPU make every eviction a choice
        (with score ties) between candidates.
        """
        world = tiny_world(shape["seed"])
        trace = arrival_trace(
            world, n=shape["n"], gap=shape["gap"], seed=shape["seed"]
        )
        budget = None
        if per_gpu is not None:
            budget = (
                per_gpu
                * world.config.hardware.num_gpus
                * world.model_config.expert_bytes
            )
        kwargs = dict(
            requests=trace, respect_arrivals=True, cache_budget_bytes=budget
        )
        assert _bytes(
            run_system(world, "fmoe", mutate=reference_engine, **kwargs)
        ) == _bytes(run_system(world, "fmoe", **kwargs))

    @PARITY_SETTINGS
    @given(
        seed=st.integers(0, 3),
        degradation=st.sampled_from((0.0, 0.5, 1.0)),
        failure=st.sampled_from((0.0, 0.05)),
        straggler=st.sampled_from((0.0, 0.5)),
    )
    def test_faulted_parity(self, seed, degradation, failure, straggler):
        """Fault schedules perturb the engine and its reference alike."""
        world = tiny_world(seed)
        config = FaultConfig(
            seed=seed,
            pcie_degradation_prob=degradation,
            transfer_failure_prob=failure,
            straggler_prob=straggler,
        )
        reports = [
            run_system(
                world, "fmoe", faults=FaultSchedule(config), mutate=mutate
            )
            for mutate in (None, reference_engine)
        ]
        assert _bytes(reports[0]) == _bytes(reports[1])

    @PARITY_SETTINGS
    @given(shape=fleet_shapes())
    def test_cluster_parity(self, shape):
        """The cluster driver serves identically, replica by replica."""
        world = tiny_world(shape["seed"])
        trace = arrival_trace(
            world, n=shape["n"], gap=shape["gap"], seed=shape["seed"]
        )
        spec = ClusterSpec(
            replicas=shape["replicas"], router=shape["router"]
        )
        served = run_cluster(world, "fmoe", spec, requests=trace)
        import repro.cluster.driver as driver
        import repro.experiments.common as common

        def make_reference_engine(*args, **kwargs):
            engine = common.make_engine(*args, **kwargs)
            reference_engine(engine)
            return engine

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(driver, "make_engine", make_reference_engine)
            reference = run_cluster(world, "fmoe", spec, requests=trace)
        assert _bytes(served.aggregate) == _bytes(reference.aggregate)


class TestMutantScreen:
    """The validators catch every registered defect through the engine."""

    @pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
    def test_mutant_detected(self, mutant):
        world = tiny_world()
        total = world.model_config.total_expert_bytes
        budget = (
            2
            * world.config.hardware.num_gpus
            * world.model_config.expert_bytes
        )
        pressured = dataclasses.replace(
            world, config=world.config.with_(cache_fraction=budget / total)
        )
        result = detect_mutant(pressured, mutant)
        assert result.flagged, (
            f"mutant {mutant.name!r} survived the engine "
            f"(expected detector: {mutant.expected_detector})"
        )
