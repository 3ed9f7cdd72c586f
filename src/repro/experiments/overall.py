"""Fig. 9: overall prefill/decode performance of the five systems.

TTFT, TPOT, and expert hit rate for fMoE and the four baselines across the
three MoE models and two datasets (offline setting: history warmed with the
7:3 split before serving).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, SYSTEM_NAMES
from repro.experiments.runner import SimCell, WorldCache, run_cells


@dataclass(frozen=True)
class OverallRow:
    model: str
    dataset: str
    system: str
    ttft_seconds: float
    tpot_seconds: float
    hit_rate: float

    def format(self) -> str:
        """One printable row for the Fig. 9 table."""
        return (
            f"{self.model:14s} {self.dataset:14s} {self.system:20s} "
            f"TTFT={self.ttft_seconds:6.3f}s TPOT={self.tpot_seconds * 1000:8.1f}ms "
            f"hit={self.hit_rate:5.3f}"
        )


def overall_rows(
    models: tuple[str, ...] = ("mixtral-8x7b", "qwen1.5-moe", "phi-3.5-moe"),
    datasets: tuple[str, ...] = ("lmsys-chat-1m", "sharegpt"),
    systems: tuple[str, ...] = SYSTEM_NAMES,
    config: ExperimentConfig | None = None,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    validate: bool = False,
) -> list[OverallRow]:
    """TTFT/TPOT/hit-rate rows for every (model, dataset, system) cell.

    Cells are independent simulations; ``jobs`` spreads them over a
    process pool (0 = all cores) with results merged in sweep order.
    ``validate`` attaches invariant monitors to every cell (see
    :class:`SimCell`).
    """
    base = config or ExperimentConfig()
    specs = [
        (model, dataset, system)
        for model in models
        for dataset in datasets
        for system in systems
    ]
    cells = [
        SimCell(
            config=base.with_(model_name=model, dataset=dataset),
            system=system,
            validate=validate,
        )
        for model, dataset, system in specs
    ]
    reports = run_cells(cells, jobs=jobs, cache=cache)
    return [
        OverallRow(
            model=model,
            dataset=dataset,
            system=system,
            ttft_seconds=report.mean_ttft(),
            tpot_seconds=report.mean_tpot(),
            hit_rate=report.hit_rate,
        )
        for (model, dataset, system), report in zip(specs, reports)
    ]


def improvement_summary(rows: list[OverallRow]) -> dict[str, dict[str, float]]:
    """fMoE's mean relative improvements over each baseline.

    Returns ``{baseline: {"ttft": ..., "tpot": ..., "hit": ...}}`` where
    ttft/tpot are fractional reductions and hit is fractional improvement,
    averaged over (model, dataset) pairs — the aggregation behind the
    paper's headline 47% latency / 36% hit-rate numbers.
    """
    from collections import defaultdict

    fmoe = {
        (r.model, r.dataset): r for r in rows if r.system == "fmoe"
    }
    sums: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: {"ttft": [], "tpot": [], "hit": []}
    )
    for row in rows:
        if row.system == "fmoe":
            continue
        ours = fmoe.get((row.model, row.dataset))
        if ours is None:
            continue
        if row.ttft_seconds > 0:
            sums[row.system]["ttft"].append(
                1.0 - ours.ttft_seconds / row.ttft_seconds
            )
        if row.tpot_seconds > 0:
            sums[row.system]["tpot"].append(
                1.0 - ours.tpot_seconds / row.tpot_seconds
            )
        if row.hit_rate > 0:
            sums[row.system]["hit"].append(ours.hit_rate / row.hit_rate - 1.0)
    return {
        system: {
            metric: sum(vals) / len(vals) if vals else 0.0
            for metric, vals in metrics.items()
        }
        for system, metrics in sums.items()
    }
