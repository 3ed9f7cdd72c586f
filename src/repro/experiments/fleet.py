"""Fleet-shape sweep: SLO-per-dollar across heterogeneous clusters.

ROADMAP #3's benchmark question: given a fleet mixing GPU generations,
interconnects, and spot capacity, does cost-aware expert placement plus
cost-aware routing buy SLO attainment per dollar over the natural
baseline (identical uniform caches + least-outstanding routing)?

Every shape runs both arms on *identical hardware and price* — the
profiles, trace, and seed are shared; only the placement strategy and
router differ — so the SLO-per-dollar comparison isolates exactly the
placement/routing co-design.  A healthy homogeneous reference run sets
the SLO deadline, mirroring the storm matrix's calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.config import ClusterSpec, ReplicaProfile, get_profile
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import SimCell, WorldCache, run_cells
from repro.serving.request import Request
from repro.workloads.azure import AzureTraceConfig, make_azure_trace
from repro.workloads.datasets import get_dataset_profile


@dataclass(frozen=True)
class FleetShape:
    """One named heterogeneous fleet: a tuple of replica profiles."""

    name: str
    profiles: tuple[ReplicaProfile, ...]

    @property
    def dollars_per_hour(self) -> float:
        return sum(p.dollars_per_hour for p in self.profiles)


def default_fleet_shapes() -> tuple[FleetShape, ...]:
    """The three benchmarked fleet shapes (ISSUE/ROADMAP #3).

    - *mixed-bandwidth*: one NVLink-class box, one baseline, one PCIe
      3.0-era box — the classic mixed-generation fleet.
    - *spot-heavy*: one on-demand baseline anchoring two cheap spot
      replicas with half the VRAM and interconnect.
    - *single-fast-node*: one expensive fast box carrying two slow cheap
      ones — the shape where routing hardware-blindness hurts most.
    """
    return (
        FleetShape(
            "mixed-bandwidth",
            (
                get_profile("fast-nvlink"),
                get_profile("baseline"),
                get_profile("slow-pcie3"),
            ),
        ),
        FleetShape(
            "spot-heavy",
            (
                get_profile("baseline"),
                get_profile("spot-small"),
                get_profile("spot-small"),
            ),
        ),
        FleetShape(
            "single-fast-node",
            (
                get_profile("fast-nvlink"),
                get_profile("slow-pcie3"),
                get_profile("slow-pcie3"),
            ),
        ),
    )


#: The two arms every shape runs: the uniform/load-balanced baseline and
#: the placement/routing co-design.  (arm name, placement, router).
FLEET_ARMS: tuple[tuple[str, str, str], ...] = (
    ("uniform", "uniform", "least-outstanding"),
    ("cost-aware", "cost-aware", "cost-aware"),
)


@dataclass(frozen=True)
class FleetRow:
    """Outcome of one (fleet shape, arm) cell of the sweep."""

    shape: str
    arm: str
    replicas: int
    slo_attainment: float
    deadline_seconds: float
    dollars_per_hour: float
    slo_per_dollar: float
    mean_ttft_seconds: float
    hit_rate: float
    served: int
    shed: int
    preloaded: int
    """Plan experts actually made resident across the fleet."""

    placement_cost: float
    placement_seed_cost: float

    def format(self) -> str:
        """One printable fleet-sweep row."""
        return (
            f"{self.shape:18s} {self.arm:10s} "
            f"slo={self.slo_attainment:6.3f} "
            f"$/h={self.dollars_per_hour:5.2f} "
            f"slo/$={self.slo_per_dollar:7.4f} "
            f"ttft={self.mean_ttft_seconds:7.4f}s "
            f"hit={self.hit_rate:6.3f} "
            f"served={self.served:3d} shed={self.shed:2d} "
            f"pre={self.preloaded:3d}"
        )


def _fleet_trace(
    config: ExperimentConfig, trace_requests: int, rate_seconds: float
) -> list[Request]:
    """The shared online arrival trace every cell replays."""
    return make_azure_trace(
        AzureTraceConfig(
            num_requests=trace_requests,
            mean_interarrival_seconds=rate_seconds,
        ),
        get_dataset_profile(config.dataset),
        seed=config.seed + 30,
    )


def fleet_rows(
    shapes: tuple[FleetShape, ...] | None = None,
    config: ExperimentConfig | None = None,
    system: str = "fmoe",
    trace_requests: int = 24,
    rate_seconds: float = 1.0,
    deadline_multiplier: float = 1.0,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    validate: bool = False,
) -> list[FleetRow]:
    """Run the fleet sweep: every shape, uniform vs. cost-aware arm.

    A healthy reference run (homogeneous baseline fleet, legacy path)
    sets the SLO deadline at ``deadline_multiplier`` times its p95
    latency — the default of 1.0 asks each heterogeneous fleet to match
    the homogeneous reference's own tail, which is the regime where the
    placement/routing co-design separates from the baseline (a laxer
    deadline saturates both arms at full attainment).  Rows come back in
    (shape, uniform, cost-aware) order.
    Every cell is a :class:`SimCell`, so ``jobs=N`` output is
    byte-identical to sequential and the sweep rides the parallel
    runner unchanged.
    """
    base = config or ExperimentConfig()
    matrix = shapes if shapes is not None else default_fleet_shapes()
    if not matrix:
        return []
    trace = tuple(_fleet_trace(base, trace_requests, rate_seconds))
    reference_replicas = max(len(s.profiles) for s in matrix)

    reference = run_cells(
        [
            SimCell(
                config=base,
                system=system,
                requests=trace,
                respect_arrivals=True,
                cluster=ClusterSpec(
                    replicas=reference_replicas,
                    router="least-outstanding",
                ),
                validate=validate,
            )
        ],
        jobs=jobs,
        cache=cache,
    )[0]
    deadline = max(
        deadline_multiplier * reference.percentile_latency(95), 1.0
    )

    cells = []
    for shape in matrix:
        spec = ClusterSpec(
            replicas=len(shape.profiles),
            router="least-outstanding",
            profiles=shape.profiles,
        )
        for _, placement, router in FLEET_ARMS:
            cells.append(
                SimCell(
                    config=base,
                    system=system,
                    requests=trace,
                    respect_arrivals=True,
                    cluster=replace(
                        spec, placement=placement, router=router
                    ),
                    validate=validate,
                )
            )
    reports = run_cells(cells, jobs=jobs, cache=cache)

    rows: list[FleetRow] = []
    for index, shape in enumerate(matrix):
        for offset, (arm, _, _) in enumerate(FLEET_ARMS):
            report = reports[len(FLEET_ARMS) * index + offset]
            fleet = report.fleet
            rows.append(
                FleetRow(
                    shape=shape.name,
                    arm=arm,
                    replicas=len(shape.profiles),
                    slo_attainment=report.slo_attainment(deadline),
                    deadline_seconds=deadline,
                    dollars_per_hour=fleet.dollars_per_hour,
                    slo_per_dollar=report.slo_per_dollar(deadline),
                    mean_ttft_seconds=report.mean_ttft(),
                    hit_rate=report.hit_rate,
                    served=len(report.aggregate.requests),
                    shed=report.shed_requests,
                    preloaded=sum(
                        row["preloaded"] for row in fleet.profiles
                    ),
                    placement_cost=fleet.placement_cost,
                    placement_seed_cost=fleet.placement_seed_cost,
                )
            )
    return rows
