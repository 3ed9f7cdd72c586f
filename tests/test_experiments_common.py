"""Tests for the shared experiment harness."""

import pytest

from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentConfig,
    SYSTEM_NAMES,
    build_world,
    make_policy,
    run_system,
)
from repro.moe.config import MIXTRAL_8X7B


@pytest.fixture(scope="module")
def small_world():
    return build_world(
        ExperimentConfig(num_requests=10, num_test_requests=2)
    )


class TestExperimentConfig:
    def test_budget_from_fraction(self):
        config = ExperimentConfig(cache_fraction=0.25)
        assert config.resolve_budget(MIXTRAL_8X7B) == int(
            0.25 * MIXTRAL_8X7B.total_expert_bytes
        )

    def test_explicit_budget_wins(self):
        config = ExperimentConfig(cache_budget_bytes=123456789)
        assert config.resolve_budget(MIXTRAL_8X7B) == 123456789

    def test_default_budget_is_working_set_multiple(self):
        config = ExperimentConfig()
        working_set = (
            MIXTRAL_8X7B.num_layers
            * MIXTRAL_8X7B.top_k
            * MIXTRAL_8X7B.expert_bytes
        )
        expected = int(
            config.cache_working_set_multiplier * working_set
        )
        assert config.resolve_budget(MIXTRAL_8X7B) == expected

    def test_default_budget_floor_one_expert_per_gpu(self):
        config = ExperimentConfig(cache_working_set_multiplier=1e-9)
        budget = config.resolve_budget(MIXTRAL_8X7B)
        assert budget == config.hardware.num_gpus * MIXTRAL_8X7B.expert_bytes

    def test_with_returns_modified_copy(self):
        base = ExperimentConfig()
        changed = base.with_(batch_size=4)
        assert changed.batch_size == 4
        assert base.batch_size == 1


class TestBuildWorld:
    def test_split_sizes(self, small_world):
        assert len(small_world.warm_traces) == 7
        assert len(small_world.test_requests) == 2

    def test_fresh_models_share_routing(self, small_world):
        a = small_world.fresh_model()
        b = small_world.fresh_model()
        import numpy as np

        assert np.allclose(
            a.gate.archetype_logits(0, 0), b.gate.archetype_logits(0, 0)
        )


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name", list(SYSTEM_NAMES) + ["no-offload", "oracle"]
    )
    def test_all_systems_instantiable(self, name):
        policy = make_policy(name, ExperimentConfig())
        assert policy.name == name

    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            make_policy("vllm", ExperimentConfig())


class TestRunSystem:
    def test_reports_are_complete(self, small_world):
        report = run_system(small_world, "fmoe")
        assert report.policy_name == "fmoe"
        assert len(report.requests) == 2
        assert report.activations > 0
        assert report.mean_ttft() > 0

    def test_no_offload_budget_override(self, small_world):
        report = run_system(small_world, "no-offload")
        assert report.hit_rate == 1.0

    def test_custom_budget(self, small_world):
        budget = 24 * small_world.model_config.expert_bytes
        report = run_system(small_world, "fmoe", cache_budget_bytes=budget)
        assert report.peak_cache_bytes <= budget


class TestSharedModelIsolation:
    """Engines built from one world share its gate but not their patches."""

    def test_instrumenting_one_engine_leaves_the_other_unwrapped(self):
        from repro.experiments.common import make_engine
        from repro.obs import PhaseTimer
        from tests._cluster_testkit import tiny_world

        world = tiny_world()
        timed = make_engine(world, "fmoe")
        plain = make_engine(world, "fmoe")
        assert timed.model is not plain.model
        assert timed.model.gate is plain.model.gate is world.model.gate
        PhaseTimer().instrument_engine(timed)
        assert "start_session" in vars(timed.model)
        assert "start_session" not in vars(plain.model)
        assert "start_session" not in vars(world.model)

    def test_gate_arrays_reject_writes(self):
        import numpy as np

        from tests._cluster_testkit import tiny_world

        gate = tiny_world().fresh_model().gate
        for array in (gate._archetypes, gate._prompt_projection):
            with pytest.raises(ValueError):
                array[0] = 0.0
        with pytest.raises(ValueError):
            gate.archetype_logits(0, 0)[0, 0] = np.inf

    def test_profile_repeats_do_not_stack_wrappers(self):
        from repro.obs import run_profile
        from tests._cluster_testkit import tiny_world

        once = run_profile(world=tiny_world(), repeats=1)
        thrice = run_profile(world=tiny_world(), repeats=3)
        assert once["iterations"] > 0
        assert thrice["iterations"] == 3 * once["iterations"]
        assert thrice["requests"] == 3 * once["requests"]
