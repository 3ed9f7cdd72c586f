"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``models``   — print the Table-1 model characteristics.
- ``compare``  — offline fMoE-vs-baselines comparison (Fig. 9 style).
- ``overall``  — the full Fig. 9 (model × dataset × system) table.
- ``online``   — cold-start online trace replay (Fig. 10 style).
- ``sweep``    — TPOT vs expert-cache budget (Fig. 11 style).
- ``entropy``  — coarse vs fine entropy analysis (Fig. 3b style).
- ``pearson``  — similarity/hit-rate Pearson coefficients (Fig. 8 style).
- ``tune``     — prefetch-distance profiling (the paper's §6.1 setup step).
- ``faults``   — chaos matrix: systems under scripted fault scenarios.
- ``cluster``  — multi-replica cluster simulation with affinity routing
  (``--chaos`` / ``--resilience`` engage the cluster resilience layer).
- ``storm-lite`` — resilience off vs. on under cluster-scope chaos.
- ``storm``    — multi-tenant traffic storm: full-day census plus a
  priority-aware simulation window at 10k/100k/1m offered requests.
- ``fleet``    — heterogeneous fleet-shape sweep: cost-aware placement +
  routing vs. the uniform baseline, scored as SLO attainment per dollar.
- ``grid``     — sweep (model, dataset, system, budget) grids to CSV.
- ``report``   — collate ``benchmarks/results`` into one markdown report.
- ``profile``  — save traces / a warm store, or (``--quick`` /
  ``--bench-out``) profile the engine hot loop's host wall-clock cost.
- ``trace``    — run one policy with full telemetry; write trace + metrics.
- ``inspect``  — summarize a recorded trace directory (stalls, tables) or
  a cluster-report JSON (replica table, resilience counters).
- ``journeys`` — per-request journeys with critical-path attribution for
  one cluster run (top-K slowest, phase breakdown).
- ``slo``      — burn-rate alert replay over a saved cluster report.
- ``validate`` — invariant monitors, metamorphic laws, mutant detection.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

MODEL_CHOICES = (
    "mixtral-8x7b",
    "qwen1.5-moe",
    "phi-3.5-moe",
    "deepseek-moe",
)
DATASET_CHOICES = ("lmsys-chat-1m", "sharegpt")
POLICY_CHOICES = (
    "fmoe",
    "deepspeed-inference",
    "mixtral-offloading",
    "promoe",
    "moe-infinity",
    "no-offload",
    "oracle",
)
ROUTER_CHOICES = (
    "round-robin",
    "least-outstanding",
    "semantic-affinity",
    "cost-aware",
)


def _prefix_choice(choices: tuple[str, ...]):
    """An argparse ``type`` accepting any unambiguous prefix of ``choices``."""

    def resolve(value: str) -> str:
        if value in choices:
            return value
        matches = [c for c in choices if c.startswith(value)]
        if len(matches) == 1:
            return matches[0]
        kind = "ambiguous" if matches else "unknown"
        raise argparse.ArgumentTypeError(
            f"{kind} choice {value!r}; choose from: {', '.join(choices)}"
        )

    return resolve


def _add_world_args(
    parser: argparse.ArgumentParser, fuzzy: bool = False
) -> None:
    if fuzzy:
        # ``repro trace --model mixtral`` style: unambiguous prefixes OK.
        parser.add_argument(
            "--model",
            default="mixtral-8x7b",
            type=_prefix_choice(MODEL_CHOICES),
        )
        parser.add_argument(
            "--dataset",
            default="lmsys-chat-1m",
            type=_prefix_choice(DATASET_CHOICES),
        )
    else:
        parser.add_argument(
            "--model", default="mixtral-8x7b", choices=MODEL_CHOICES
        )
        parser.add_argument(
            "--dataset", default="lmsys-chat-1m", choices=DATASET_CHOICES
        )
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument("--test-requests", type=int, default=6)
    parser.add_argument(
        "--cache-fraction",
        type=float,
        default=None,
        help="expert-cache budget as a fraction of total expert bytes "
        "(default: 0.9x one iteration's working set)",
    )
    parser.add_argument("--prefetch-distance", type=int, default=3)
    parser.add_argument("--store-capacity", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=0)


def _add_validate_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--validate",
        action="store_true",
        help="attach runtime invariant monitors to every cell and fail "
        "on the first breach (results are unchanged otherwise)",
    )


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent simulation cells "
        "(0 = all cores; results are identical at any level)",
    )


def _config_from_args(args: argparse.Namespace):
    from repro.experiments.common import ExperimentConfig

    return ExperimentConfig(
        model_name=args.model,
        dataset=args.dataset,
        num_requests=args.requests,
        num_test_requests=args.test_requests,
        cache_fraction=args.cache_fraction,
        prefetch_distance=args.prefetch_distance,
        store_capacity=args.store_capacity,
        seed=args.seed,
    )


def cmd_models(args: argparse.Namespace) -> int:
    """Print the Table-1 model characteristics."""
    from repro.experiments.table1 import table1_rows

    for row in table1_rows():
        print(row.format())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Offline fMoE-vs-baselines comparison (Fig. 9 style)."""
    from repro.experiments.common import (
        SYSTEM_NAMES,
        build_world,
        run_system,
    )

    config = _config_from_args(args)
    world = build_world(config)
    systems = args.systems or list(SYSTEM_NAMES)
    reports = {}
    for system in systems:
        report = run_system(world, system)
        reports[system] = report
        print(
            f"{system:22s} TTFT={report.mean_ttft():7.3f}s "
            f"TPOT={report.mean_tpot() * 1000:8.1f}ms "
            f"hit={report.hit_rate:5.3f}"
        )
    if args.chart:
        from repro.viz import bar_chart

        print("\nTPOT (ms):")
        print(
            bar_chart(
                {s: r.mean_tpot() * 1000 for s, r in reports.items()},
                unit="ms",
                fmt="{:.1f}",
            )
        )
        print("\nexpert hit rate:")
        print(bar_chart({s: r.hit_rate for s, r in reports.items()}))
    return 0


def cmd_overall(args: argparse.Namespace) -> int:
    """The full Fig. 9 table: every (model, dataset, system) cell."""
    from repro.experiments.common import SYSTEM_NAMES
    from repro.experiments.overall import improvement_summary, overall_rows

    config = _config_from_args(args)
    rows = overall_rows(
        models=tuple(args.models),
        datasets=tuple(args.datasets),
        systems=tuple(args.systems or SYSTEM_NAMES),
        config=config,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(row.format())
    if args.summary:
        print("\nfMoE mean improvement over each baseline:")
        for system, metrics in sorted(improvement_summary(rows).items()):
            print(
                f"  {system:22s} TTFT -{metrics['ttft'] * 100:5.1f}% "
                f"TPOT -{metrics['tpot'] * 100:5.1f}% "
                f"hit +{metrics['hit'] * 100:5.1f}%"
            )
    return 0


def cmd_online(args: argparse.Namespace) -> int:
    """Cold-start online trace replay (Fig. 10 style)."""
    import numpy as np

    from repro.experiments.common import (
        SYSTEM_NAMES,
        build_world,
        run_system,
    )
    from repro.workloads.azure import AzureTraceConfig, make_azure_trace
    from repro.workloads.datasets import get_dataset_profile

    config = _config_from_args(args)
    world = build_world(config.with_(num_requests=8))
    if args.trace_file:
        from repro.workloads.tracefile import read_trace_csv

        trace = read_trace_csv(
            args.trace_file,
            profile=get_dataset_profile(args.dataset),
            seed=args.seed + 10,
            max_requests=args.trace_requests,
        )
    else:
        trace = make_azure_trace(
            AzureTraceConfig(
                num_requests=args.trace_requests,
                mean_interarrival_seconds=args.rate,
            ),
            get_dataset_profile(args.dataset),
            seed=args.seed + 10,
        )
    for system in args.systems or list(SYSTEM_NAMES):
        report = run_system(
            world, system, warm=False, requests=trace, respect_arrivals=True
        )
        p50, p90 = np.percentile(report.e2e_latencies(), [50, 90])
        print(f"{system:22s} p50={p50:8.2f}s p90={p90:8.2f}s")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """TPOT vs expert-cache budget sweep (Fig. 11 style)."""
    from repro.experiments.cache_limits import tpot_vs_cache_limit

    config = _config_from_args(args)
    rows = tpot_vs_cache_limit(
        models=(args.model,),
        dataset=args.dataset,
        limits_gb=tuple(args.limits),
        config=config,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(
            f"{row.system:22s} {row.cache_gb:6.1f} GB: "
            f"TPOT={row.tpot_seconds * 1000:8.1f}ms hit={row.hit_rate:5.3f}"
        )
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    """Coarse vs fine entropy analysis (Fig. 3b style)."""
    from repro.experiments.entropy_motivation import entropy_comparison

    rows = entropy_comparison(
        models=(args.model,),
        datasets=(args.dataset,),
        num_requests=args.requests,
        seed=args.seed,
    )
    for row in rows:
        print(
            f"{row.model:14s} {row.dataset:14s} "
            f"coarse={row.coarse_mean_entropy:5.2f} "
            f"fine={row.fine_mean_entropy:5.2f} "
            f"(max {row.max_entropy:4.2f} bits)"
        )
    return 0


def cmd_pearson(args: argparse.Namespace) -> int:
    """Similarity/hit-rate Pearson coefficients (Fig. 8 style)."""
    from repro.experiments.pearson import pearson_rows

    rows = pearson_rows(
        models=(args.model,),
        datasets=(args.dataset,),
        distance=args.prefetch_distance,
        num_requests=args.requests,
        seed=args.seed,
    )
    for row in rows:
        print(
            f"{row.model:14s} {row.dataset:14s} "
            f"semantic={row.semantic_pearson:+5.2f} "
            f"trajectory={row.trajectory_pearson:+5.2f}"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Save traces / a warm store, or wall-clock-profile the hot loop."""
    wallclock = args.quick or args.bench_out is not None
    if not (args.traces_out or args.store_out or wallclock):
        print(
            "nothing to do: pass --traces-out and/or --store-out "
            "(or --quick / --bench-out for hot-loop profiling)"
        )
        return 2
    from repro.experiments.common import build_world

    config = _config_from_args(args)
    world = build_world(config)
    if args.traces_out:
        from repro.core.persistence import save_traces

        save_traces(world.warm_traces, args.traces_out)
        print(f"wrote {len(world.warm_traces)} traces to {args.traces_out}")
    if args.store_out:
        from repro.analysis.tracking import build_store
        from repro.core.persistence import save_store

        store = build_store(
            world.model_config,
            world.warm_traces,
            distance=config.prefetch_distance,
            capacity=config.store_capacity,
        )
        save_store(store, args.store_out)
        print(
            f"wrote store with {len(store)} maps "
            f"({store.memory_bytes() / 1e6:.1f} MB) to {args.store_out}"
        )
    if wallclock:
        from repro.obs.profile import (
            check_profile_payload,
            run_profile,
            write_profile,
        )

        repeats = 1 if args.quick else args.repeats
        payload = run_profile(
            config, args.system, repeats=repeats, world=world
        )
        bench_path = args.bench_out or "benchmarks/BENCH_profile.json"
        write_profile(payload, bench_path)
        print(
            f"{args.system} hot loop: "
            f"{payload['simulated_requests_per_second']:.2f} simulated "
            f"requests/s ({payload['requests']} requests, "
            f"{payload['iterations']} iterations in "
            f"{payload['wall_seconds']:.3f}s wall)"
        )
        for name, phase in payload["phases"].items():
            print(
                f"  {name:24s} {phase['seconds']:8.4f}s "
                f"{phase['share']:6.1%} ({phase['calls']} calls)"
            )
        print(f"wrote {bench_path}")
        problems = check_profile_payload(payload, args.min_rps)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}")
            return 1
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    """Sweep (model, dataset, system, budget) grids to CSV."""
    from repro.experiments.grid import grid_to_csv, run_grid

    config = _config_from_args(args)
    cells = run_grid(
        models=args.models,
        datasets=args.datasets,
        systems=args.systems,
        budgets_gb=args.budgets or None,
        config=config,
        jobs=args.jobs,
        validate=args.validate,
    )
    text = grid_to_csv(cells, args.output)
    if args.output:
        print(f"wrote {len(cells)} cells to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Collate benchmarks/results into one markdown report."""
    from repro.experiments.report import write_report

    path = write_report(args.results_dir, args.output)
    print(f"wrote {path}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Profile candidate prefetch distances (the paper's §6.1 step)."""
    from repro.core.autotune import tune_prefetch_distance
    from repro.experiments.common import build_world
    from repro.workloads.profiler import collect_history

    config = _config_from_args(args)
    world = build_world(config)
    probes = collect_history(
        world.fresh_model(), world.test_requests[: args.test_requests]
    )
    result = tune_prefetch_distance(
        world.model_config,
        world.warm_traces,
        probes,
        store_capacity=config.store_capacity,
    )
    for score in result.scores:
        marker = " <== best" if score.distance == result.best_distance else ""
        print(
            f"d={score.distance}: hit={score.hit_rate:5.3f} "
            f"coverage={score.coverage:5.3f} "
            f"utility={score.utility:5.3f}{marker}"
        )
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Chaos matrix: systems under scripted fault scenarios."""
    from repro.experiments.faults import (
        CHAOS_SYSTEMS,
        chaos_rows,
        default_scenarios,
    )

    config = _config_from_args(args)
    scenarios = default_scenarios(args.seed)
    if args.scenarios:
        by_name = {s.name: s for s in scenarios}
        unknown = [name for name in args.scenarios if name not in by_name]
        if unknown:
            known = ", ".join(sorted(by_name))
            print(f"unknown scenario(s) {unknown}; choose from: {known}")
            return 2
        scenarios = tuple(by_name[name] for name in args.scenarios)
    rows = chaos_rows(
        systems=tuple(args.systems or CHAOS_SYSTEMS),
        scenarios=scenarios,
        config=config,
        trace_requests=args.trace_requests,
        rate_seconds=args.rate,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(row.format())
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Multi-replica cluster simulation with pluggable routing."""
    from repro.cluster import (
        AutoscalerConfig,
        ClusterSpec,
        ResilienceConfig,
        cluster_report_to_json,
        run_cluster,
    )
    from repro.experiments.cluster_scaling import (
        _scaling_trace,
        cluster_scaling_rows,
    )
    from repro.experiments.common import build_world
    from repro.experiments.resilience import default_storm_scenarios

    config = _config_from_args(args)
    if args.compare:
        rows = cluster_scaling_rows(
            replica_counts=tuple(args.replica_counts),
            config=config,
            system=args.system,
            trace_requests=args.trace_requests,
            rate_seconds=args.rate,
            jobs=args.jobs,
        )
        for row in rows:
            print(row.format())
        return 0
    autoscaler = None
    if args.autoscale:
        autoscaler = AutoscalerConfig(
            max_replicas=max(args.replicas, AutoscalerConfig().max_replicas)
        )
    cluster_faults = None
    if args.chaos:
        scenarios = {
            s.name: s for s in default_storm_scenarios(args.seed)
        }
        if args.chaos not in scenarios:
            known = ", ".join(sorted(scenarios))
            print(f"unknown chaos scenario {args.chaos!r}; "
                  f"choose from: {known}")
            return 2
        cluster_faults = scenarios[args.chaos].cluster_faults
    profiles = None
    if args.profiles:
        from repro.cluster import get_profile

        profiles = tuple(get_profile(name) for name in args.profiles)
    spec = ClusterSpec(
        replicas=args.replicas,
        router=args.router,
        shared_store=args.shared_store,
        warm=not args.cold,
        autoscaler=autoscaler,
        resilience=ResilienceConfig() if args.resilience else None,
        profiles=profiles,
        placement=args.placement,
    )
    world = build_world(config)
    trace = _scaling_trace(config, args.trace_requests, args.rate)
    report = run_cluster(
        world,
        args.system,
        spec,
        requests=trace,
        cluster_faults=cluster_faults,
        validate=args.validate,
    )
    print(
        f"{args.system} x{args.replicas} router={args.router}: "
        f"routed={report.routed} served={len(report.aggregate.requests)} "
        f"shed={report.shed_requests}"
    )
    print(
        f"  hit={report.hit_rate:.4f} "
        f"affinity={report.affinity_hit_rate:.3f} "
        f"imbalance={report.load_imbalance():.3f} "
        f"ttft={report.mean_ttft():.2f}s "
        f"p95={report.percentile_latency(95):.2f}s"
    )
    for summary in report.replicas:
        state = (
            "crashed"
            if summary.crashed
            else "retired"
            if summary.retired
            else "draining" if summary.draining else "active"
        )
        print(
            f"  replica {summary.replica_id}: {summary.assigned} assigned, "
            f"{summary.served} served, hit={summary.hit_rate:.4f}, "
            f"{state}"
        )
    if report.resilience is not None:
        res = report.resilience
        print(
            f"  resilience: shed={res.total_shed} failed={res.failed} "
            f"retries={res.retry_dispatches}/{res.retry_budget_limit} "
            f"hedges={res.hedges} (won {res.hedge_wins}) "
            f"breaker_opens={res.breaker_opens} "
            f"crashes={res.crashes} restarts={res.restarts} "
            f"lost={res.lost_in_flight}"
        )
    if report.fleet is not None:
        fleet = report.fleet
        names = "/".join(row["profile"] for row in fleet.profiles)
        print(
            f"  fleet: {names} ${fleet.dollars_per_hour:.2f}/h "
            f"placement={fleet.placement} "
            f"cost={fleet.placement_cost:.4f} "
            f"(seed {fleet.placement_seed_cost:.4f}) "
            f"preloaded={sum(r['preloaded'] for r in fleet.profiles)}"
        )
    if report.scale_events:
        for event in report.scale_events:
            print(
                f"  t={event.time:8.2f}s scale:{event.action} "
                f"replica={event.replica_id} "
                f"outstanding={event.outstanding}"
            )
    if args.out is not None:
        cluster_report_to_json(report, args.out)
        print(f"  report written to {args.out}")
    return 0


def cmd_storm_lite(args: argparse.Namespace) -> int:
    """Storm-lite: resilience off vs. on under cluster-scope chaos."""
    from repro.experiments.resilience import (
        default_storm_scenarios,
        storm_rows,
    )

    config = _config_from_args(args)
    scenarios = default_storm_scenarios(args.seed)
    if args.scenarios:
        by_name = {s.name: s for s in scenarios}
        unknown = [name for name in args.scenarios if name not in by_name]
        if unknown:
            known = ", ".join(sorted(by_name))
            print(f"unknown scenario(s) {unknown}; choose from: {known}")
            return 2
        scenarios = tuple(by_name[name] for name in args.scenarios)
    rows = storm_rows(
        scenarios=scenarios,
        config=config,
        system=args.system,
        trace_requests=args.trace_requests,
        rate_seconds=args.rate,
        deadline_multiplier=args.deadline_multiplier,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(row.format())
    return 0


def cmd_storm(args: argparse.Namespace) -> int:
    """Multi-tenant storm: census + priority-aware window per scale."""
    import json
    from pathlib import Path

    from repro.experiments.storm import storm_results

    config = _config_from_args(args)
    results = storm_results(
        config=config,
        scales=args.scales,
        sim_requests=args.sim_requests,
        system=args.system,
        replicas=args.replicas,
        admission_rate=args.admission_rate,
        admission_burst=args.admission_burst,
        deadline_multiplier=args.deadline_multiplier,
        jobs=args.jobs,
        validate=args.validate,
    )
    for res in results:
        census = res.census
        print(
            f"scale {res.scale}: {res.total_requests} offered over "
            f"{census['span_seconds']:.0f}s "
            f"(mean {census['mean_rate']:.3f} rps, "
            f"peak {census['peak_rate']:.3f} rps); "
            f"window {res.sim_requests} requests, "
            f"deadline {res.deadline_seconds:.2f}s"
        )
        for row in res.tiers:
            print(f"  {row.format()}")
        for row in res.tenants:
            print(f"  {row.format()}")
    if args.bench_out:
        payload = {
            "experiment": "storm",
            "model": config.model_name,
            "seed": config.seed,
            "sim_requests": args.sim_requests,
            "replicas": args.replicas,
            "admission_rate": args.admission_rate,
            "admission_burst": args.admission_burst,
            "scales": [res.to_dict() for res in results],
        }
        path = Path(args.bench_out)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Heterogeneous fleet sweep: SLO-per-dollar, uniform vs. cost-aware."""
    import json
    from dataclasses import asdict
    from pathlib import Path

    from repro.experiments.fleet import default_fleet_shapes, fleet_rows

    config = _config_from_args(args)
    shapes = default_fleet_shapes()
    if args.shapes:
        by_name = {s.name: s for s in shapes}
        unknown = [name for name in args.shapes if name not in by_name]
        if unknown:
            known = ", ".join(sorted(by_name))
            print(f"unknown shape(s) {unknown}; choose from: {known}")
            return 2
        shapes = tuple(by_name[name] for name in args.shapes)
    rows = fleet_rows(
        shapes=shapes,
        config=config,
        system=args.system,
        trace_requests=args.trace_requests,
        rate_seconds=args.rate,
        deadline_multiplier=args.deadline_multiplier,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(row.format())
    wins = sum(
        1
        for i in range(0, len(rows), 2)
        if rows[i + 1].slo_per_dollar > rows[i].slo_per_dollar
    )
    print(
        f"cost-aware strictly wins SLO-per-dollar on {wins} of "
        f"{len(rows) // 2} fleet shapes"
    )
    if args.bench_out:
        payload = {
            "experiment": "fleet",
            "model": config.model_name,
            "dataset": config.dataset,
            "seed": config.seed,
            "trace_requests": args.trace_requests,
            "deadline_seconds": rows[0].deadline_seconds if rows else 0.0,
            "cost_aware_wins": wins,
            "shapes": len(rows) // 2,
            "rows": [asdict(row) for row in rows],
        }
        path = Path(args.bench_out)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one policy with full telemetry; write trace + metrics files."""
    from repro.obs.runner import run_traced

    config = _config_from_args(args)
    result = run_traced(
        config,
        args.policy,
        args.out_dir,
        online=args.online,
        trace_requests=args.trace_requests,
        rate_seconds=args.rate,
        sample_interval_seconds=args.sample_interval,
    )
    report = result.report
    print(
        f"{args.policy}: {len(report.requests)} requests, "
        f"{report.iterations} iterations, hit={report.hit_rate:.3f}, "
        f"dropped_events={report.events_dropped}"
    )
    for name, path in sorted(result.paths.items()):
        print(f"  {name:13s} {path}")
    print(f"open {result.paths['trace']} in chrome://tracing or Perfetto")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Summarize a recorded trace directory (or trace file)."""
    from repro.obs.inspect import inspect_path

    print(inspect_path(args.path, top=args.top))
    return 0


def cmd_journeys(args: argparse.Namespace) -> int:
    """Per-request journeys with critical-path attribution."""
    from pathlib import Path

    from repro.cluster import (
        ClusterSpec,
        ResilienceConfig,
        cluster_report_to_json,
        run_cluster,
    )
    from repro.experiments.cluster_scaling import _scaling_trace
    from repro.experiments.common import build_world
    from repro.experiments.resilience import default_storm_scenarios
    from repro.obs import (
        FleetSeries,
        JourneyRecorder,
        SLOTracker,
        render_journeys,
        render_slo_summary,
    )

    config = _config_from_args(args)
    cluster_faults = None
    if args.chaos:
        scenarios = {
            s.name: s for s in default_storm_scenarios(args.seed)
        }
        if args.chaos not in scenarios:
            known = ", ".join(sorted(scenarios))
            print(f"unknown chaos scenario {args.chaos!r}; "
                  f"choose from: {known}")
            return 2
        cluster_faults = scenarios[args.chaos].cluster_faults
    spec = ClusterSpec(
        replicas=args.replicas,
        router=args.router,
        resilience=ResilienceConfig() if args.resilience else None,
    )
    world = build_world(config)
    trace = _scaling_trace(config, args.trace_requests, args.rate)
    journeys = JourneyRecorder()
    fleet = FleetSeries(interval_seconds=args.sample_interval)
    slo_tracker = SLOTracker(
        objective=args.slo_objective, deadline_seconds=args.slo_deadline
    )
    report = run_cluster(
        world,
        args.system,
        spec,
        requests=trace,
        cluster_faults=cluster_faults,
        journeys=journeys,
        fleet_series=fleet,
        slo_tracker=slo_tracker,
    )
    print(render_journeys(journeys.ordered(), top=args.top))
    print()
    print("== SLO burn-rate summary ==")
    print(render_slo_summary(report.slo_summary))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        journeys.write_jsonl(out / "journeys.jsonl")
        fleet.write_jsonl(out / "fleet.jsonl")
        fleet.write_csv(out / "fleet.csv")
        cluster_report_to_json(report, out / "cluster_report.json")
        print()
        for name in (
            "journeys.jsonl", "fleet.jsonl", "fleet.csv",
            "cluster_report.json",
        ):
            print(f"  wrote {out / name}")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """Replay burn-rate alerting over a saved cluster report."""
    import json
    from pathlib import Path

    from repro.obs.slo import (
        default_burn_rules,
        render_slo_summary,
        tracker_from_outcome_dicts,
    )

    payload = json.loads(Path(args.report).read_text())
    outcomes = (payload.get("resilience") or {}).get("outcomes")
    if outcomes:
        tracker = tracker_from_outcome_dicts(
            outcomes,
            objective=args.objective,
            deadline_seconds=args.deadline,
            rules=default_burn_rules(args.window_scale),
        )
        print(render_slo_summary(tracker.to_dict()))
        return 0
    if payload.get("slo"):
        # No replayable outcomes, but the run recorded a summary.
        print(render_slo_summary(payload["slo"]))
        return 0
    print(
        "no request outcomes in report (run the cluster with "
        "--resilience or --chaos to track them)"
    )
    return 2


def cmd_validate(args: argparse.Namespace) -> int:
    """Validate the simulator: invariants, laws, and mutant detection."""
    import json
    from pathlib import Path

    from repro.validate import validate_model, validation_config

    include_mutants = None
    if args.mutants:
        include_mutants = True
    elif args.no_mutants:
        include_mutants = False
    reports = []
    for model in args.models:
        config = validation_config(
            model,
            dataset=args.dataset,
            num_requests=args.requests,
            num_test_requests=args.test_requests,
            seed=args.seed,
        )
        report = validate_model(
            config,
            tier=args.tier,
            jobs=args.jobs,
            include_mutants=include_mutants,
        )
        reports.append(report)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{model:14s} [{args.tier}] {status}: "
            f"{len(report.checks)} checks, {len(report.mutants)} mutants"
        )
        for check in report.checks:
            mark = "ok " if check.passed else "FAIL"
            line = f"  {mark} {check.name}"
            if check.detail:
                line += f" — {check.detail}"
            print(line)
        for mutant in report.mutants:
            mark = "ok " if mutant.flagged else "MISS"
            detectors = ", ".join(mutant.detectors) or "undetected"
            print(f"  {mark} mutant:{mutant.name} ({detectors})")
    if args.json:
        payload = json.dumps([r.to_dict() for r in reports], indent=2)
        Path(args.json).write_text(payload + "\n")
        print(f"wrote {args.json}")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="fMoE reproduction: fine-grained expert offloading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="print Table-1 model characteristics")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("compare", help="offline comparison (Fig. 9 style)")
    _add_world_args(p)
    p.add_argument("--systems", nargs="*", default=None)
    p.add_argument(
        "--chart", action="store_true", help="render terminal bar charts"
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "overall", help="full Fig. 9 (model x dataset x system) table"
    )
    _add_world_args(p)
    p.add_argument(
        "--models",
        nargs="*",
        default=["mixtral-8x7b", "qwen1.5-moe", "phi-3.5-moe"],
    )
    p.add_argument(
        "--datasets", nargs="*", default=["lmsys-chat-1m", "sharegpt"]
    )
    p.add_argument("--systems", nargs="*", default=None)
    p.add_argument(
        "--summary",
        action="store_true",
        help="print fMoE's mean improvement over each baseline",
    )
    _add_validate_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_overall)

    p = sub.add_parser("online", help="online trace replay (Fig. 10 style)")
    _add_world_args(p)
    p.add_argument("--systems", nargs="*", default=None)
    p.add_argument("--trace-requests", type=int, default=32)
    p.add_argument("--rate", type=float, default=2.0)
    p.add_argument(
        "--trace-file",
        default=None,
        help="replay a CSV trace (timestamp,input_tokens,output_tokens) "
        "instead of generating one",
    )
    p.set_defaults(func=cmd_online)

    p = sub.add_parser("sweep", help="cache-budget sweep (Fig. 11 style)")
    _add_world_args(p)
    p.add_argument(
        "--limits", nargs="*", type=float, default=[6, 12, 24, 48, 96]
    )
    _add_validate_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("entropy", help="entropy analysis (Fig. 3b style)")
    _add_world_args(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("pearson", help="correlation analysis (Fig. 8 style)")
    _add_world_args(p)
    p.set_defaults(func=cmd_pearson)

    p = sub.add_parser(
        "grid", help="sweep (model, dataset, system, budget) grids to CSV"
    )
    _add_world_args(p)
    p.add_argument("--models", nargs="*", default=["mixtral-8x7b"])
    p.add_argument("--datasets", nargs="*", default=["lmsys-chat-1m"])
    p.add_argument(
        "--systems",
        nargs="*",
        default=["fmoe", "moe-infinity"],
    )
    p.add_argument("--budgets", nargs="*", type=float, default=None)
    p.add_argument("--output", default=None)
    _add_validate_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser(
        "report", help="collate benchmarks/results into one markdown report"
    )
    p.add_argument("--results-dir", default="benchmarks/results")
    p.add_argument("--output", default="REPRODUCTION_REPORT.md")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "tune", help="profile candidate prefetch distances (§6.1 setup)"
    )
    _add_world_args(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "faults", help="chaos matrix: systems under fault scenarios"
    )
    _add_world_args(p)
    p.add_argument("--systems", nargs="*", default=None)
    p.add_argument(
        "--scenarios",
        nargs="*",
        default=None,
        help="subset of scenario names (default: the full matrix)",
    )
    p.add_argument("--trace-requests", type=int, default=24)
    p.add_argument("--rate", type=float, default=2.0)
    _add_validate_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "cluster",
        help="multi-replica cluster simulation with affinity routing",
    )
    _add_world_args(p)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument(
        "--router",
        default="round-robin",
        type=_prefix_choice(ROUTER_CHOICES),
        help="placement policy (unambiguous prefixes accepted)",
    )
    p.add_argument(
        "--system", default="fmoe", type=_prefix_choice(POLICY_CHOICES)
    )
    p.add_argument(
        "--shared-store",
        action="store_true",
        help="share one expert-map store across every fmoe replica",
    )
    p.add_argument(
        "--cold",
        action="store_true",
        help="skip warm-up so per-replica stores diverge (what "
        "semantic-affinity routing exploits)",
    )
    p.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the queue-depth autoscaler (drain-before-kill)",
    )
    p.add_argument(
        "--compare",
        action="store_true",
        help="run the router x replica-count comparison grid instead "
        "of one cluster",
    )
    p.add_argument(
        "--replica-counts",
        nargs="*",
        type=int,
        default=[1, 2, 4],
        help="replica counts for --compare",
    )
    p.add_argument(
        "--chaos",
        default=None,
        help="subject the fleet to a named storm scenario "
        "(see `repro storm-lite`)",
    )
    p.add_argument(
        "--resilience",
        action="store_true",
        help="enable the cluster resilience layer (admission control, "
        "degradation ladder, retry budgets, circuit breakers)",
    )
    p.add_argument(
        "--profiles",
        nargs="*",
        default=None,
        help="per-replica hardware profile names (replica i uses "
        "profiles[i %% len]); e.g. fast-nvlink slow-pcie3",
    )
    p.add_argument(
        "--placement",
        default=None,
        choices=("uniform", "cost-aware"),
        help="pre-warm each replica's expert cache from a placement plan",
    )
    p.add_argument("--trace-requests", type=int, default=24)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument(
        "--out", default=None, help="write the cluster report JSON here"
    )
    _add_validate_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser(
        "storm-lite",
        help="resilience off vs. on under cluster-scope chaos",
    )
    _add_world_args(p)
    p.add_argument(
        "--system", default="fmoe", type=_prefix_choice(POLICY_CHOICES)
    )
    p.add_argument(
        "--scenarios",
        nargs="*",
        default=None,
        help="subset of storm scenario names (default: the full storm)",
    )
    p.add_argument("--trace-requests", type=int, default=24)
    p.add_argument("--rate", type=float, default=1.5)
    p.add_argument(
        "--deadline-multiplier",
        type=float,
        default=3.0,
        help="SLO deadline as a multiple of the healthy p95 latency",
    )
    _add_validate_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_storm_lite)

    p = sub.add_parser(
        "storm",
        help="multi-tenant traffic storm: full-day census + "
        "priority-aware simulation window per scale",
    )
    _add_world_args(p)
    p.add_argument(
        "--system", default="fmoe", type=_prefix_choice(POLICY_CHOICES)
    )
    p.add_argument(
        "--scales",
        nargs="*",
        default=["10k", "100k", "1m"],
        help="offered-request scales (10k/100k/1m style, or plain counts)",
    )
    p.add_argument(
        "--sim-requests",
        type=int,
        default=256,
        help="arrivals from the start of each day replayed through the "
        "cluster (the census always streams the whole day)",
    )
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument(
        "--admission-rate",
        type=float,
        default=4.0,
        help="token-bucket admission rate shared by all scales; fixed "
        "so higher scales overload naturally",
    )
    p.add_argument("--admission-burst", type=int, default=8)
    p.add_argument(
        "--deadline-multiplier",
        type=float,
        default=3.0,
        help="SLO deadline as a multiple of the healthy reference p95",
    )
    p.add_argument(
        "--bench-out",
        default=None,
        help="write the storm as JSON (e.g. benchmarks/BENCH_storm.json)",
    )
    _add_validate_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_storm)

    p = sub.add_parser(
        "fleet",
        help="heterogeneous fleet sweep: SLO-per-dollar, "
        "uniform vs. cost-aware placement + routing",
    )
    _add_world_args(p)
    p.add_argument(
        "--system", default="fmoe", type=_prefix_choice(POLICY_CHOICES)
    )
    p.add_argument(
        "--shapes",
        nargs="*",
        default=None,
        help="subset of fleet shape names (default: all three)",
    )
    p.add_argument("--trace-requests", type=int, default=24)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument(
        "--deadline-multiplier",
        type=float,
        default=1.0,
        help="SLO deadline as a multiple of the homogeneous reference's "
        "p95 latency",
    )
    p.add_argument(
        "--bench-out",
        default=None,
        help="write the sweep as JSON (e.g. benchmarks/BENCH_fleet.json)",
    )
    _add_validate_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "profile",
        help="profile a workload: hot-loop wall-clock breakdown "
        "(--quick/--bench-out), saved traces, or a warm store",
    )
    _add_world_args(p)
    p.add_argument("--traces-out", default=None)
    p.add_argument("--store-out", default=None)
    p.add_argument(
        "--system", default="fmoe", type=_prefix_choice(POLICY_CHOICES)
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="serving passes to average for the hot-loop profile",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="single-repeat hot-loop profile (the CI smoke mode)",
    )
    p.add_argument(
        "--bench-out",
        default=None,
        help="where to write the profile payload "
        "(default benchmarks/BENCH_profile.json)",
    )
    p.add_argument(
        "--min-rps",
        type=float,
        default=0.0,
        help="fail (exit 1) below this simulated-requests/sec floor",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "journeys",
        help="per-request journeys with critical-path attribution",
    )
    _add_world_args(p)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument(
        "--router",
        default="round-robin",
        type=_prefix_choice(ROUTER_CHOICES),
    )
    p.add_argument(
        "--system", default="fmoe", type=_prefix_choice(POLICY_CHOICES)
    )
    p.add_argument(
        "--chaos",
        default=None,
        help="subject the fleet to a named storm scenario",
    )
    p.add_argument(
        "--resilience",
        action="store_true",
        help="enable the cluster resilience layer",
    )
    p.add_argument("--trace-requests", type=int, default=24)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        help="fleet time-series cadence, virtual seconds",
    )
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--slo-objective", type=float, default=0.9)
    p.add_argument("--slo-deadline", type=float, default=1.0)
    p.add_argument(
        "--out-dir",
        default=None,
        help="write journeys.jsonl / fleet.jsonl / fleet.csv / "
        "cluster_report.json here",
    )
    p.set_defaults(func=cmd_journeys)

    p = sub.add_parser(
        "slo",
        help="burn-rate alerting summary from a saved cluster report",
    )
    p.add_argument("report", help="cluster report JSON (repro cluster --out)")
    p.add_argument("--objective", type=float, default=0.9)
    p.add_argument("--deadline", type=float, default=1.0)
    p.add_argument(
        "--window-scale",
        type=float,
        default=1.0,
        help="scale factor applied to the default burn-rate windows",
    )
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser(
        "trace",
        help="run one policy with full telemetry; write trace + metrics",
    )
    _add_world_args(p, fuzzy=True)
    p.add_argument(
        "--policy",
        default="fmoe",
        type=_prefix_choice(POLICY_CHOICES),
        help="system to trace (unambiguous prefixes accepted)",
    )
    p.add_argument(
        "--out-dir",
        required=True,
        help="directory for trace.json / metrics.prom / metrics.jsonl / "
        "events.jsonl / report.json",
    )
    p.add_argument(
        "--online",
        action="store_true",
        help="replay a generated arrival trace (queueing included) "
        "instead of serving the offline test set",
    )
    p.add_argument("--trace-requests", type=int, default=16)
    p.add_argument("--rate", type=float, default=2.0)
    p.add_argument(
        "--sample-interval",
        type=float,
        default=0.05,
        help="virtual seconds between metric time-series samples",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "inspect", help="summarize a recorded trace directory"
    )
    p.add_argument("path", help="trace directory (or trace.json file)")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "validate",
        help="validate the simulator: invariants, laws, mutant detection",
    )
    p.add_argument(
        "--tier",
        default="fast",
        choices=("fast", "full"),
        help="fast = monitored runs + cheap laws; full adds every "
        "system, faulted/continuous/cluster runs, and mutant detection",
    )
    p.add_argument(
        "--models",
        nargs="*",
        default=["mixtral-8x7b", "qwen1.5-moe"],
        help="models to validate (each gets its own world and report)",
    )
    p.add_argument("--dataset", default="lmsys-chat-1m", choices=DATASET_CHOICES)
    p.add_argument("--requests", type=int, default=14)
    p.add_argument("--test-requests", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mutants",
        action="store_true",
        help="force mutant detection even on the fast tier",
    )
    p.add_argument(
        "--no-mutants",
        action="store_true",
        help="skip mutant detection even on the full tier",
    )
    p.add_argument(
        "--json", default=None, help="write the validation reports here"
    )
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
