"""The golden report corpus: canonical runs pinned field by field.

Each case is one (model, dataset, system) run at a fixed tiny sizing;
its :func:`~repro.serving.export.report_to_dict` payload is checked into
``tests/golden/`` and diffed field by field by ``test_golden_reports``.
Any intentional change to simulator behavior shows up as a readable diff
here rather than a silent drift.

Regenerate after an intentional behavior change with::

    PYTHONPATH=src python -m tests.golden.corpus

and review the JSON diff before committing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

#: Sizing shared by every golden case: small enough to run in seconds,
#: deterministic by construction (seeded world, virtual clock).
GOLDEN_NUM_REQUESTS = 10
GOLDEN_NUM_TEST_REQUESTS = 2
GOLDEN_SEED = 0


@dataclass(frozen=True)
class GoldenCase:
    model: str
    dataset: str
    system: str

    @property
    def filename(self) -> str:
        return f"{self.model}_{self.dataset}_{self.system}.json"

    @property
    def path(self) -> Path:
        return GOLDEN_DIR / self.filename


GOLDEN_CASES: tuple[GoldenCase, ...] = (
    GoldenCase("mixtral-8x7b", "lmsys-chat-1m", "fmoe"),
    GoldenCase("mixtral-8x7b", "lmsys-chat-1m", "moe-infinity"),
    GoldenCase("mixtral-8x7b", "lmsys-chat-1m", "mixtral-offloading"),
    GoldenCase("mixtral-8x7b", "lmsys-chat-1m", "promoe"),
    GoldenCase("mixtral-8x7b", "lmsys-chat-1m", "oracle"),
    GoldenCase("qwen1.5-moe", "sharegpt", "fmoe"),
)


def compute_report_dict(case: GoldenCase, cache=None) -> dict:
    """Run one golden case and return its canonical report payload."""
    from repro.experiments.common import ExperimentConfig, run_system
    from repro.experiments.runner import WorldCache
    from repro.serving.export import report_to_dict

    config = ExperimentConfig(
        model_name=case.model,
        dataset=case.dataset,
        num_requests=GOLDEN_NUM_REQUESTS,
        num_test_requests=GOLDEN_NUM_TEST_REQUESTS,
        seed=GOLDEN_SEED,
    )
    cache = cache if cache is not None else WorldCache()
    return report_to_dict(run_system(cache.get(config), case.system))


def load_golden(case: GoldenCase) -> dict:
    """The checked-in payload for ``case``."""
    return json.loads(case.path.read_text())


def regenerate() -> None:
    """Recompute and rewrite every golden file."""
    from repro.experiments.runner import WorldCache

    cache = WorldCache()
    for case in GOLDEN_CASES:
        payload = compute_report_dict(case, cache)
        case.path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {case.path}")


if __name__ == "__main__":
    regenerate()
