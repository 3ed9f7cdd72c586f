"""Chaos matrix: fMoE vs. baselines under scripted fault scenarios.

The paper evaluates on a healthy testbed; this experiment asks what
happens to the same systems when the fleet degrades.  Each scenario is a
seeded :class:`~repro.serving.faults.FaultConfig` replayed as an online
trace (arrivals respected, queueing included), so fault windows interact
with real backlog dynamics.  Reported per (system, scenario):

- P95 end-to-end latency and its inflation over the system's own healthy
  run (the robustness headline);
- the fault/degradation counters: transfer retries, device failovers,
  shed requests, degraded tokens, and recovery seconds.

Every run is a pure function of the experiment seed: two invocations with
the same seed produce identical rows, fault timeline included.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.config import ClusterSpec
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import SimCell, WorldCache, run_cells
from repro.serving.faults import (
    DeviceFailure,
    FaultConfig,
    SLOConfig,
)
from repro.serving.request import Request
from repro.workloads.azure import AzureTraceConfig, make_azure_trace
from repro.workloads.datasets import get_dataset_profile

#: Systems compared by default: fMoE plus the two baselines whose
#: transfers ride the PCIe channels (DeepSpeed charges copies as
#: synchronous compute and would shrug off link faults by construction).
CHAOS_SYSTEMS: tuple[str, ...] = (
    "fmoe",
    "moe-infinity",
    "mixtral-offloading",
)


@dataclass(frozen=True)
class FaultScenario:
    """One named fault timeline to subject every system to."""

    name: str
    faults: FaultConfig

    @property
    def is_healthy(self) -> bool:
        """True for the no-fault reference scenario."""
        return self.faults.is_zero


def default_scenarios(seed: int = 0) -> tuple[FaultScenario, ...]:
    """The standard chaos matrix: one scenario per fault class.

    ``healthy`` is the reference every inflation is measured against.
    """
    return (
        FaultScenario("healthy", FaultConfig(seed=seed)),
        FaultScenario(
            "degraded-pcie",
            FaultConfig(
                seed=seed,
                pcie_degradation_prob=0.7,
                pcie_degradation_seconds=5.0,
                pcie_degradation_factor=0.2,
            ),
        ),
        FaultScenario(
            "flaky-transfers",
            FaultConfig(seed=seed, transfer_failure_prob=0.15),
        ),
        FaultScenario(
            "straggler-gpu",
            FaultConfig(
                seed=seed,
                straggler_prob=0.6,
                straggler_seconds=5.0,
                straggler_factor=2.5,
            ),
        ),
        FaultScenario(
            "device-loss",
            FaultConfig(
                seed=seed,
                device_failures=(DeviceFailure(time=1.0, device=0),),
            ),
        ),
    )


@dataclass(frozen=True)
class ChaosRow:
    """Outcome of one (system, scenario) cell of the chaos matrix."""

    system: str
    scenario: str
    p95_seconds: float
    p95_inflation: float
    hit_rate: float
    retries: int
    failovers: int
    shed_requests: int
    degraded_tokens: int
    recovery_seconds: float

    def format(self) -> str:
        """One printable chaos-matrix row."""
        return (
            f"{self.system:20s} {self.scenario:16s} "
            f"p95={self.p95_seconds:8.2f}s x{self.p95_inflation:5.2f} "
            f"hit={self.hit_rate:5.3f} retry={self.retries:4d} "
            f"failover={self.failovers:4d} shed={self.shed_requests:3d} "
            f"degraded={self.degraded_tokens:4d} "
            f"recovery={self.recovery_seconds:6.3f}s"
        )


def _chaos_trace(
    config: ExperimentConfig, trace_requests: int, rate_seconds: float
) -> list[Request]:
    """The shared online arrival trace every cell replays."""
    return make_azure_trace(
        AzureTraceConfig(
            num_requests=trace_requests,
            mean_interarrival_seconds=rate_seconds,
        ),
        get_dataset_profile(config.dataset),
        seed=config.seed + 10,
    )


def chaos_rows(
    systems: tuple[str, ...] = CHAOS_SYSTEMS,
    scenarios: tuple[FaultScenario, ...] | None = None,
    config: ExperimentConfig | None = None,
    trace_requests: int = 24,
    rate_seconds: float = 2.0,
    queue_budget_multiplier: float = 2.0,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    cluster: ClusterSpec | None = None,
    validate: bool = False,
) -> list[ChaosRow]:
    """Run the full (system, scenario) chaos matrix.

    Each system first serves the trace healthy; faulty scenarios then run
    with a queue-delay budget of ``queue_budget_multiplier`` times that
    system's healthy P95 latency, so load shedding engages exactly when a
    fault inflates queueing beyond what the healthy system ever sees.

    The matrix runs as two parallelizable waves: the healthy references
    (which every faulty cell's SLO budget derives from), then all faulty
    cells at once.  ``jobs`` controls the process pool; rows come back in
    (system, scenario) order regardless.  A healthy run never depends on
    the fault seed (a zero fault config perturbs nothing), so the
    reference wave reproduces the matrix's own healthy cells exactly.

    ``cluster`` subjects a whole replica fleet to each scenario instead
    of a single engine: cells run through the cluster driver (router
    failover included) and rows aggregate fleet-wide counters — the
    :class:`~repro.cluster.metrics.ClusterReport` exposes the same
    latency/fault surface a :class:`ServingReport` does.

    ``validate`` attaches runtime invariant monitors to every cell —
    fault scenarios are exactly where a bookkeeping bug would hide, so
    the chaos matrix doubles as an invariant stress test.
    """
    base = config or ExperimentConfig()
    trace = tuple(_chaos_trace(base, trace_requests, rate_seconds))
    matrix = scenarios if scenarios is not None else default_scenarios(base.seed)

    def cell(system: str, faults: FaultConfig, slo: SLOConfig) -> SimCell:
        return SimCell(
            config=base,
            system=system,
            requests=trace,
            respect_arrivals=True,
            faults=faults,
            slo=slo,
            cluster=cluster,
            validate=validate,
        )

    healthy_faults = FaultConfig(seed=base.seed)
    reference_reports = run_cells(
        [cell(system, healthy_faults, SLOConfig()) for system in systems],
        jobs=jobs,
        cache=cache,
    )
    reference = dict(zip(systems, reference_reports))

    faulty_specs = [
        (system, index)
        for system in systems
        for index, scenario in enumerate(matrix)
        if not scenario.is_healthy
    ]
    faulty_cells = []
    for system, index in faulty_specs:
        healthy_p95 = reference[system].percentile_latency(95)
        slo = SLOConfig(
            queue_delay_budget_seconds=max(
                queue_budget_multiplier * healthy_p95, 1.0
            )
        )
        faulty_cells.append(cell(system, matrix[index].faults, slo))
    faulty_reports = dict(
        zip(
            faulty_specs,
            run_cells(faulty_cells, jobs=jobs, cache=cache),
        )
    )

    rows: list[ChaosRow] = []
    for system in systems:
        healthy_p95 = reference[system].percentile_latency(95)
        for index, scenario in enumerate(matrix):
            report = (
                reference[system]
                if scenario.is_healthy
                else faulty_reports[(system, index)]
            )
            p95 = report.percentile_latency(95)
            rows.append(
                ChaosRow(
                    system=system,
                    scenario=scenario.name,
                    p95_seconds=p95,
                    p95_inflation=p95 / healthy_p95 if healthy_p95 else 0.0,
                    hit_rate=report.hit_rate,
                    retries=report.retries,
                    failovers=report.failovers,
                    shed_requests=report.shed_requests,
                    degraded_tokens=report.degraded_tokens,
                    recovery_seconds=report.recovery_seconds,
                )
            )
    return rows
