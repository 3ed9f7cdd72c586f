"""The benchmark's three workloads, driven through public entry points only.

Each workload is a class with the same five steps:

- ``setup()``    — the set-up a user waits for before the first request
  (timed, repeated, median reported as ``setup_s``);
- ``prepare()``  — untimed per-repetition state, so every repetition starts
  from an empty expert pool exactly as a user's run does;
- ``parts()``    — one fixed unit of work as a list of steps, each timed
  on its own;
- ``summarize()``— request accounting, simulated metrics and a digest of the
  program's report(s), given the results of ``parts()``;
- ``verify()``   — one untimed pass with invariant monitors attached,
  returning the digest it saw and a list of failed checks.

The system under test is fixed (model and profiled history come from
``ExperimentConfig`` seed 0); the workload seed draws only the inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from itertools import islice

import numpy as np

from repro.cluster.driver import run_cluster
from repro.cluster.metrics import cluster_report_to_json
from repro.errors import ValidationError
from repro.experiments.common import ExperimentConfig, build_world, make_engine
from repro.experiments.storm import storm_spec
from repro.serving.export import report_to_json
from repro.serving.metrics import ServingReport
from repro.validate.monitors import MonitorSuite
from repro.workloads.datasets import make_dataset
from repro.workloads.traffic import (
    default_storm_traffic,
    stream_traffic,
    traffic_census,
)

SYSTEM = "fmoe"

#: Simulated TTFT limit (seconds) for ``sim_slo_attainment`` on the fleet.
FLEET_TTFT_LIMIT_S = 30.0


def digest(*texts: str) -> str:
    """Short sha256 over the program's serialized report(s)."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond.

    Falls back to the median when there are fewer than 20 samples.
    """
    n = len(values)
    if n < 20:
        return 50.0, _percentile(values, 50)
    pct = math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0
    return pct, float(np.percentile(values, pct))


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _engine_sim(reports, ttfts) -> dict:
    """Simulated metrics shared by the engine-bearing workloads."""
    requests = [m for r in reports for m in r.requests]
    tpots = [gap for m in requests for gap in m.decode_latencies]
    hits = sum(r.hits for r in reports)
    activations = sum(r.hits + r.misses for r in reports)
    sync = {}
    for r in reports:
        for name, seconds in r.breakdown.sync.items():
            sync[name] = sync.get(name, 0.0) + seconds
    tail_pct, tail = tail_percentile(ttfts)
    return {
        "sim_ttft_p50_s": _percentile(ttfts, 50),
        "sim_ttft_tail_s": tail,
        "sim_ttft_tail_pct": tail_pct,
        "sim_ttft_samples": len(ttfts),
        "sim_tpot_p50_s": _percentile(tpots, 50),
        "sim_tpot_p99_s": _percentile(tpots, 99),
        "sim_hit_rate": hits / activations if activations else 0.0,
        "sim_peak_expert_cache_gb": max(r.peak_cache_bytes for r in reports)
        / 1e9,
        "serving.engine.iterations": sum(r.iterations for r in reports),
        "serving.engine.sim_queue_wait_p50_s": _percentile(
            [m.start_time - m.arrival_time for m in requests], 50
        ),
        "serving.engine.sim_compute_s": sync.get("compute", 0.0),
        "serving.engine.sim_ondemand_load_s": sync.get("ondemand_load", 0.0),
        "serving.engine.sim_prefetch_stall_s": sync.get(
            "prefetch_stall", 0.0
        ),
        "core.matcher.sim_match_s": sum(
            r.breakdown.asynchronous.get("map_match", 0.0) for r in reports
        ),
    }


class EngineQwenB8:
    """Bare engine, closed loop: one caller keeps 8 lanes full.

    The union of 8 lanes' experts is far larger than the default budget
    (0.9x one iteration's working set), so the pool and the PCIe channel
    do the most work here.  Every request generates the same number of
    tokens, so host work per request does not depend on the seed; the
    seed draws topics, prompt lengths and routing.
    """

    name = "engine-qwen-b8"
    REQUESTS = 48
    OUTPUT_TOKENS = 16
    BATCH = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = ExperimentConfig(
            model_name="qwen1.5-moe", dataset="sharegpt", batch_size=self.BATCH
        )

    def describe(self) -> dict:
        return {
            "workload": self.name,
            "system": SYSTEM,
            "config": repr(self.config),
            "requests": self.REQUESTS,
            "output_tokens": self.OUTPUT_TOKENS,
            "batch": self.BATCH,
        }

    def setup(self, build_world=build_world):
        world = build_world(self.config)
        requests = [
            dataclasses.replace(r, output_tokens=self.OUTPUT_TOKENS)
            for r in make_dataset(
                self.config.dataset, self.REQUESTS, seed=self.seed
            )
        ]
        self.world, self.requests = world, requests
        self.prepare()

    def prepare(self):
        engine = make_engine(self.world, SYSTEM)
        engine.policy.warm(self.world.warm_traces)
        self.engine = engine
        return engine

    def parts(self, recorder=None):
        """One ``ServingEngine.run`` per batch, back to back on one engine.

        Each batch is timed on its own, so one slow moment spoils one
        sample of one batch only.
        """
        return [
            lambda start=start: self.engine.run(
                self.requests[start : start + self.BATCH],
                batch_size=self.BATCH,
            )
            for start in range(0, len(self.requests), self.BATCH)
        ]

    def summarize(self, reports) -> dict:
        served = sum(len(r.requests) for r in reports)
        shed = sum(r.shed_requests for r in reports)
        sim = _engine_sim(
            reports, [m.ttft for r in reports for m in r.requests]
        )
        sim["serving.engine.layer_steps"] = (
            sim["serving.engine.iterations"]
            * self.world.model_config.num_layers
        )
        return {
            "offered": len(self.requests),
            "resolved": served + shed,
            "served": served,
            "shed": shed,
            "failed": 0,
            "digest": digest(*(report_to_json(r) for r in reports)),
            "sim": sim,
        }

    def verify(self) -> tuple[str, list[str]]:
        engine = self.prepare()
        suite = MonitorSuite().bind(engine)
        reports = [part() for part in self.parts()]
        merged = ServingReport(policy_name=engine.policy.name)
        for report in reports:
            merged.absorb(report)
        problems = [
            str(v) for v in suite.finish(merged, admitted=len(self.requests))
        ]
        if suite.total_violations > len(problems):
            problems.append(f"{suite.total_violations} violations in total")
        summary = self.summarize(reports)
        if summary["resolved"] != len(self.requests):
            problems.append("served + shed != offered")
        return summary["digest"], problems


class FleetOverload:
    """Open-loop storm arrivals on a 2-replica shared-store fleet.

    The first arrivals of the default three-tenant day at the 1M/day rate
    replay on the simulated clock through ``storm_spec()``: token-bucket
    admission with premium bypass and a degradation ladder, so most
    requests are shed.  Host time is not paced by the arrival schedule,
    so the generator never runs late; simulated TTFT is measured from
    each request's due arrival.

    The storm's tenants are very bursty (gamma gaps with CV 1.5-2.5), so
    how many premium requests bypass admission in one short window, and
    with it the host work, swings widely from day to day.  One unit
    therefore replays the opening window of ``WINDOWS`` independent days
    drawn from the seed, and output lengths are capped so each window
    stays short.
    """

    name = "fleet-overload"
    WINDOWS = 4
    ARRIVALS = 128
    OUTPUT_CAP = 8
    DAY_REQUESTS = 1_000_000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = ExperimentConfig()

    def describe(self) -> dict:
        return {
            "workload": self.name,
            "system": SYSTEM,
            "config": repr(self.config),
            "spec": repr(storm_spec()),
            "windows": self.WINDOWS,
            "arrivals": self.ARRIVALS,
            "output_cap": self.OUTPUT_CAP,
            "day_requests": self.DAY_REQUESTS,
            "ttft_limit_s": FLEET_TTFT_LIMIT_S,
        }

    def setup(self, build_world=build_world):
        self.world = build_world(self.config)
        self.days = [
            default_storm_traffic(
                self.DAY_REQUESTS, seed=self.seed * self.WINDOWS + i
            )
            for i in range(self.WINDOWS)
        ]
        self.spec = storm_spec()

    def prepare(self):
        # run_cluster spawns fresh replicas (empty pools) on every call.
        return None

    def _window(self, day, recorder=None):
        arrivals = islice(stream_traffic(day), self.ARRIVALS)
        if recorder is not None:
            arrivals = recorder.iterate("workloads.traffic", arrivals)
        return [
            dataclasses.replace(
                r, output_tokens=min(r.output_tokens, self.OUTPUT_CAP)
            )
            for r in arrivals
        ]

    def parts(self, recorder=None, validate: bool = False):
        """One step per day window, so each window is timed on its own."""
        return [
            lambda day=day: run_cluster(
                self.world,
                SYSTEM,
                self.spec,
                requests=self._window(day, recorder),
                validate=validate,
            )
            for day in self.days
        ]

    def summarize(self, reports) -> dict:
        outcomes = [o for report in reports for o in report.outcomes]
        served = [o for o in outcomes if o.outcome == "served"]
        shed = sum(1 for o in outcomes if o.outcome == "shed")
        failed = sum(1 for o in outcomes if o.outcome == "failed")
        ttfts = [o.ttft for o in served]
        sim = _engine_sim(
            [r for report in reports for r in report.replica_reports], ttfts
        )
        sim["serving.engine.layer_steps"] = (
            sim["serving.engine.iterations"]
            * self.world.model_config.num_layers
        )
        sim["sim_shed_frac"] = (shed + failed) / len(outcomes)
        sim["sim_slo_attainment"] = (
            sum(1 for t in ttfts if t <= FLEET_TTFT_LIMIT_S) / len(outcomes)
        )
        admission = sum(r.resilience.shed_admission for r in reports)
        ladder = sum(r.resilience.shed_ladder for r in reports)
        sim["cluster.shed_admission"] = admission
        sim["cluster.shed_ladder"] = ladder
        sim["cluster.shed_other"] = (
            sum(r.resilience.total_shed for r in reports) - admission - ladder
        )
        texts = []
        for report in reports:
            texts += [
                cluster_report_to_json(report),
                report_to_json(report.aggregate),
                json.dumps([dataclasses.astuple(o) for o in report.outcomes]),
            ]
        return {
            "offered": len(outcomes),
            "resolved": len(served) + shed + failed,
            "served": len(served),
            "shed": shed,
            "failed": failed,
            "digest": digest(*texts),
            "sim": sim,
        }

    def verify(self) -> tuple[str, list[str]]:
        try:
            reports = [part() for part in self.parts(validate=True)]
        except ValidationError as exc:
            return "", [str(exc)]
        summary = self.summarize(reports)
        problems = []
        if summary["offered"] != self.WINDOWS * self.ARRIVALS:
            problems.append("outcomes != offered arrivals")
        if summary["resolved"] != summary["offered"]:
            problems.append("served + shed + failed != offered")
        for report in reports:
            if len({o.request_id for o in report.outcomes}) != self.ARRIVALS:
                problems.append("duplicate request outcomes")
        return summary["digest"], problems


class TrafficCensus:
    """A full default storm day streamed through ``traffic_census``.

    No engine runs: the traffic layer does all of the work here, so a
    traffic change shows here and every engine change predicts no
    change.  Set-up is building the traffic config and priming the
    stream (the first arrival), which draws every tenant's first block.
    """

    name = "traffic-census"
    DAY_REQUESTS = 100_000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def describe(self) -> dict:
        return {"workload": self.name, "day_requests": self.DAY_REQUESTS}

    def setup(self, build_world=None):
        self.traffic = default_storm_traffic(self.DAY_REQUESTS, seed=self.seed)
        next(stream_traffic(self.traffic))

    def prepare(self):
        return None

    def parts(self, recorder=None):
        return [lambda: self._census(recorder)]

    def _census(self, recorder=None, check=None):
        arrivals = stream_traffic(self.traffic)
        if check is not None:
            arrivals = check(arrivals)
        if recorder is None:
            return traffic_census(arrivals)
        arrivals = recorder.iterate("workloads.traffic", arrivals)
        return recorder.call("workloads.traffic", traffic_census, arrivals)

    def summarize(self, results) -> dict:
        (census,) = results
        return {
            "offered": census.total_requests,
            "resolved": census.total_requests,
            "served": census.total_requests,
            "shed": 0,
            "failed": 0,
            "digest": digest(json.dumps(census.to_dict(), sort_keys=True)),
            "sim": {},
        }

    def verify(self) -> tuple[str, list[str]]:
        problems = []
        last = [float("-inf")]

        def checked(arrivals):
            for request in arrivals:
                if request.arrival_time < last[0]:
                    problems.append(
                        f"arrival {request.request_id} out of order"
                    )
                last[0] = request.arrival_time
                yield request

        census = self._census(check=checked)
        expected = {t.name: t.num_requests for t in self.traffic.tenants}
        if census.per_tenant != expected:
            problems.append(
                f"per-tenant counts {census.per_tenant} != {expected}"
            )
        if census.total_requests != self.traffic.total_requests:
            problems.append("census total != configured total")
        if sum(t.offered for t in census.per_tier.values()) != (
            census.total_requests
        ):
            problems.append("per-tier counts do not sum to the total")
        return self.summarize([census])["digest"], problems


WORKLOADS = {
    cls.name: cls for cls in (EngineQwenB8, FleetOverload, TrafficCensus)
}
