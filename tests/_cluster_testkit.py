"""Shared substrate for cluster tests: tiny worlds and arrival traces.

Builds :class:`~repro.experiments.common.World` objects directly from
``tiny_test_model`` (no full ``build_world`` profiling of a paper-scale
model), so cluster tests run in milliseconds.  Worlds are cached and must
be treated as read-only — the serving path never mutates them.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.cluster.config import ClusterSpec, get_profile
from repro.experiments.common import ExperimentConfig, World
from repro.moe.config import MoEModelConfig, tiny_test_model
from repro.moe.model import MoEModel
from repro.serving.request import Request
from repro.workloads.datasets import DatasetProfile, make_dataset
from repro.workloads.profiler import collect_history
from repro.workloads.split import warm_test_split


def tiny_profile(config: MoEModelConfig) -> DatasetProfile:
    """A dataset profile matched to the tiny model's cluster count."""
    return DatasetProfile(
        name="tiny",
        num_clusters=config.routing.num_clusters,
        input_log_mean=3.0,
        input_log_sigma=0.4,
        input_max=64,
        output_log_mean=2.0,
        output_log_sigma=0.3,
        output_max=16,
    )


@lru_cache(maxsize=8)
def tiny_world(seed: int = 0) -> World:
    """A cached tiny world: profiled warm traces + 4 test requests."""
    config = ExperimentConfig(
        num_requests=14, num_test_requests=4, seed=seed
    )
    model_config = tiny_test_model()
    profile = tiny_profile(model_config)
    requests = make_dataset(profile, 14, seed=seed + 1)
    warm, test = warm_test_split(requests, 0.7, seed=seed + 2)
    model = MoEModel(model_config, seed=seed)
    traces = collect_history(model, warm)
    return World(
        config=config,
        model_config=model_config,
        model=model,
        warm_traces=traces,
        test_requests=test[:4],
    )


#: The three benchmarked heterogeneous fleet shapes, by profile name —
#: the same shapes ``repro fleet`` sweeps (see
#: :func:`repro.experiments.fleet.default_fleet_shapes`).
FLEET_SHAPE_PROFILES: dict[str, tuple[str, ...]] = {
    "mixed-bandwidth": ("fast-nvlink", "baseline", "slow-pcie3"),
    "spot-heavy": ("baseline", "spot-small", "spot-small"),
    "single-fast-node": ("fast-nvlink", "slow-pcie3", "slow-pcie3"),
}


def fleet_profiles(shape: str):
    """The resolved :class:`ReplicaProfile` tuple of one named shape."""
    return tuple(get_profile(n) for n in FLEET_SHAPE_PROFILES[shape])


def fleet_spec(
    shape: str,
    router: str = "least-outstanding",
    placement: str | None = None,
    **kwargs,
) -> ClusterSpec:
    """A heterogeneous :class:`ClusterSpec` for one named fleet shape."""
    profiles = fleet_profiles(shape)
    return ClusterSpec(
        replicas=len(profiles),
        router=router,
        profiles=profiles,
        placement=placement,
        **kwargs,
    )


def arrival_trace(
    world: World, n: int = 8, gap: float = 0.5, seed: int = 0
) -> list[Request]:
    """``n`` requests arriving ``gap`` seconds apart (fresh ids)."""
    profile = tiny_profile(world.model_config)
    sampled = make_dataset(profile, n, seed=seed + 50)
    return [
        replace(r, request_id=i, arrival_time=i * gap)
        for i, r in enumerate(sampled)
    ]
