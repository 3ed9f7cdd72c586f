"""Field-by-field diff of the canonical runs against the golden corpus.

A failure here means simulator behavior changed.  If the change is
intentional, regenerate the corpus with::

    PYTHONPATH=src python -m tests.golden.corpus

and commit the reviewed JSON diff; if it is not, you just caught a
regression the aggregate metrics might have averaged away.
"""

from __future__ import annotations

import math

import pytest

from tests.golden.corpus import (
    GOLDEN_CASES,
    compute_report_dict,
    load_golden,
)

REGEN_HINT = (
    "golden report drifted; if intentional, regenerate with "
    "`PYTHONPATH=src python -m tests.golden.corpus` and commit the diff"
)


def _diff(expected, actual, path="report"):
    """All leaf-level differences between two JSON payloads."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                problems.append(f"{path}.{key}: unexpected new field")
            elif key not in actual:
                problems.append(f"{path}.{key}: field disappeared")
            else:
                problems += _diff(
                    expected[key], actual[key], f"{path}.{key}"
                )
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [
                f"{path}: length {len(actual)} != golden {len(expected)}"
            ]
        return [
            problem
            for i, (e, a) in enumerate(zip(expected, actual))
            for problem in _diff(e, a, f"{path}[{i}]")
        ]
    # bool is an int subclass: compare exactly, before the float branch.
    if isinstance(expected, float) and not isinstance(expected, bool):
        if not (
            isinstance(actual, (int, float))
            and math.isclose(
                expected, float(actual), rel_tol=1e-9, abs_tol=1e-12
            )
        ):
            return [f"{path}: {actual!r} != golden {expected!r}"]
        return []
    if expected != actual:
        return [f"{path}: {actual!r} != golden {expected!r}"]
    return []


@pytest.fixture(scope="module")
def world_cache():
    from repro.experiments.runner import WorldCache

    return WorldCache()


class TestGoldenCorpus:
    def test_corpus_is_complete(self):
        assert len(GOLDEN_CASES) == 6
        for case in GOLDEN_CASES:
            assert case.path.is_file(), f"missing golden file {case.path}"

    @pytest.mark.parametrize(
        "case", GOLDEN_CASES, ids=lambda c: c.filename
    )
    def test_run_matches_golden_field_by_field(self, case, world_cache):
        problems = _diff(
            load_golden(case), compute_report_dict(case, world_cache)
        )
        assert not problems, (
            f"{case.filename}: {len(problems)} field(s) drifted "
            f"({REGEN_HINT}):\n" + "\n".join(problems[:20])
        )


class TestStormGolden:
    """The two-tenant storm report — tenancy schema included — is pinned."""

    def test_golden_file_exists(self):
        from tests.golden.storm import STORM_GOLDEN_PATH

        assert STORM_GOLDEN_PATH.is_file()

    def test_storm_run_matches_golden_field_by_field(self, world_cache):
        from tests.golden.storm import (
            compute_storm_report_dict,
            load_storm_golden,
        )

        problems = _diff(
            load_storm_golden(), compute_storm_report_dict(world_cache)
        )
        assert not problems, (
            f"storm_two_tenant.json: {len(problems)} field(s) drifted "
            "(regenerate with `PYTHONPATH=src python -m "
            "tests.golden.storm` if intentional):\n"
            + "\n".join(problems[:20])
        )

    def test_golden_pins_the_tenancy_section(self):
        from tests.golden.storm import load_storm_golden

        payload = load_storm_golden()
        tenancy = payload["tenancy"]
        assert tenancy["priority_aware"] is True
        assert set(tenancy["tiers"]) == {"premium", "batch"}
        premium = tenancy["tiers"]["premium"]
        batch = tenancy["tiers"]["batch"]
        assert premium["shed_rate"] <= batch["shed_rate"]
        for tier in (premium, batch):
            assert (
                tier["served"] + tier["shed"] + tier["failed"]
                == tier["offered"]
            )


class TestDiffEngine:
    """The differ itself must catch what it claims to catch."""

    def test_reports_numeric_drift_and_shape_changes(self):
        golden = {"hits": 10, "rate": 0.5, "per": [{"id": 0}]}
        assert _diff(golden, {"hits": 10, "rate": 0.5, "per": [{"id": 0}]}) == []
        assert _diff(golden, {"hits": 11, "rate": 0.5, "per": [{"id": 0}]})
        assert _diff(golden, {"hits": 10, "rate": 0.5000001, "per": [{"id": 0}]})
        assert _diff(golden, {"hits": 10, "rate": 0.5, "per": []})
        assert _diff(golden, {"hits": 10, "rate": 0.5})
        assert _diff(golden, {**golden, "extra": 1})

    def test_float_tolerance_is_tight_but_not_exact(self):
        assert _diff({"x": 1.0}, {"x": 1.0 + 1e-13}) == []
        assert _diff({"x": 1.0}, {"x": 1.0 + 1e-6})
