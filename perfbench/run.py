"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-qwen-b8 --seed 0 \\
        --seconds 15 --trace 0

One process, one workload.  The run times set-up, makes one untimed
verification pass with invariant monitors attached, then repeats the
workload's fixed unit of work until ``--seconds`` of timed work have
accumulated, reporting medians.  Every timed step is scaled by a fixed
reference loop timed around it (see ``ReferenceClock``).  With
``--trace 1`` it additionally makes one traced run of set-up plus one
unit and reports the per-layer split instead of the end-to-end metrics.

Every metric is printed by name with its unit and clock; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with provenance, is written
to ``.perfbench-out/`` in the repository root; the traced run also writes
its spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Set-up is sub-second and noisy, so it runs this many times per run and
#: the median is reported.
SETUP_REPEATS = 3

#: The timed phase runs at least this many units, so the median means
#: something even when one unit takes most of ``--seconds``.
MIN_UNITS = 3

#: Host speed on a shared machine drifts by up to 2x within minutes, so
#: every timed step is scaled by a fixed reference loop timed right before
#: and after it: a step reports ``raw * REFERENCE_NOMINAL_S / reference``,
#: i.e. host seconds at the speed where the loop takes this long.
REFERENCE_NOMINAL_S = 0.1

#: Seeds used while writing and tuning the benchmark, and a held-out seed.
DEV_SEEDS = "0-11"
HELD_OUT_SEED = 7919

END_TO_END = {
    "setup_s": ("s", "host"),
    "req_per_host_s": ("1/s", "host"),
    "peak_rss_mb": ("MB", "host"),
}


def per_layer_names(layers) -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, clock)."""
    names = {}
    for layer in layers:
        names[f"{layer}.self_s"] = ("s", "host")
        names[f"{layer}.calls"] = ("count", "host")
    names.update(
        {
            "other.self_s": ("s", "host"),
            "trace.wall_s": ("s", "host"),
            "trace.req_per_host_s": ("1/s", "host"),
            "trace.overhead_frac": ("ratio", "host"),
            "serving.engine.host_us_per_layer_step": ("us", "host"),
            "serving.engine.iterations": ("count", "sim"),
            "serving.engine.layer_steps": ("count", "sim"),
            "serving.engine.sim_queue_wait_p50_s": ("s", "sim"),
            "serving.engine.sim_compute_s": ("s", "sim"),
            "serving.engine.sim_ondemand_load_s": ("s", "sim"),
            "serving.engine.sim_prefetch_stall_s": ("s", "sim"),
            "core.matcher.sim_match_s": ("s", "sim"),
            "serving.pool.prefetch_issued": ("count", "sim"),
            "serving.pool.prefetch_rejected": ("count", "sim"),
            "serving.pool.prefetch_useful_ratio": ("ratio", "sim"),
            "serving.pool.ondemand_loads": ("count", "sim"),
            "serving.pool.evictions": ("count", "sim"),
            "core.store.adds": ("count", "sim"),
            "core.store.replacements": ("count", "sim"),
            "cluster.shed_admission": ("count", "sim"),
            "cluster.shed_ladder": ("count", "sim"),
            "cluster.shed_other": ("count", "sim"),
            "sim_ttft_p50_s": ("s", "sim"),
            "sim_ttft_tail_s": ("s", "sim"),
            "sim_ttft_tail_pct": ("pct", "sim"),
            "sim_ttft_samples": ("count", "sim"),
            "sim_tpot_p50_s": ("s", "sim"),
            "sim_tpot_p99_s": ("s", "sim"),
            "sim_hit_rate": ("ratio", "sim"),
            "sim_peak_expert_cache_gb": ("GB", "sim"),
            "sim_shed_frac": ("ratio", "sim"),
            "sim_slo_attainment": ("ratio", "sim"),
        }
    )
    return names


def provenance(seed: int, describe: dict, seconds: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    sha = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    config = dict(describe, seconds=seconds, setup_repeats=SETUP_REPEATS)
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "dev_seeds": DEV_SEEDS,
        "held_out_seed": HELD_OUT_SEED,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest()[:16],
        "config": config,
    }


class ReferenceClock:
    """Times steps and scales them by a reference loop timed around each.

    The loop never calls the program, so a change to the program cannot
    change it; it only tracks how fast the host runs right now.  Host
    contention slows interpreter-bound and memory-bound code differently
    and the simulator does both, so the loop has one half of each: dict
    and integer work with small numpy calls, then matrix-vector products
    over an 11.8 MB array (the size of a full expert-map store).
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self._matrix = rng.random((1024, 1440))
        self._vector = rng.random(1440)
        self.last = self.reference_seconds()
        self.raw: list[float] = []
        self.references: list[float] = [self.last]

    def reference_seconds(self) -> float:
        """Host seconds of the fixed reference loop."""
        import numpy

        start = time.perf_counter()
        table = {}
        x = 1
        for i in range(150_000):
            table[i & 511] = x
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        values = numpy.arange(256.0)
        for _ in range(8_000):
            values = numpy.sqrt(values * values + 1.0)
        for _ in range(60):
            (self._matrix @ self._vector).argmax()
        return time.perf_counter() - start

    def time(self, step):
        """Run ``step()``; return (result, scaled host seconds)."""
        gc.collect()
        start = time.perf_counter()
        result = step()
        raw = time.perf_counter() - start
        after = self.reference_seconds()
        scaled = raw * REFERENCE_NOMINAL_S / ((self.last + after) / 2)
        self.last = after
        self.raw.append(raw)
        self.references.append(after)
        return result, scaled


def timed_units(workload, clock: ReferenceClock, seconds: float):
    """Repeat the fixed unit until ``seconds`` of timed work accumulate.

    Returns the scaled seconds of every part of every unit, one summary
    per unit, and the unit's time: the sum over parts of each part's
    median, so one slow moment spoils one sample of one part only.
    """
    times, summaries = [], []
    while sum(map(sum, times)) < seconds or len(times) < MIN_UNITS:
        workload.prepare()
        results, unit_times = [], []
        for part in workload.parts():
            result, scaled = clock.time(part)
            results.append(result)
            unit_times.append(scaled)
        times.append(unit_times)
        summaries.append(workload.summarize(results))
    unit_seconds = sum(statistics.median(part) for part in zip(*times))
    return times, summaries, unit_seconds


def traced_run(workload, clock: ReferenceClock, build_world):
    """Set-up plus one unit under span tracing.

    Returns (recorder, summary, wall seconds, scaled unit seconds).
    """
    from tracing import SpanRecorder

    recorder = SpanRecorder()
    results, unit_seconds = [], 0.0
    with recorder.patched():
        start = time.perf_counter()
        workload.setup(
            build_world=lambda config: recorder.call(
                "setup.build_world", build_world, config
            )
        )
        wall = time.perf_counter() - start
        for part in workload.parts(recorder):
            result, scaled = clock.time(part)
            results.append(result)
            unit_seconds += scaled
            # The traced wall time leaves out the garbage collection and
            # the reference loop the clock runs around each part.
            wall += clock.raw[-1]
    return recorder, workload.summarize(results), wall, unit_seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One process on one core: keep BLAS from spawning worker threads,
    # which on a small shared host only add noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, build_world

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    clock = ReferenceClock()
    setup_times = [clock.time(workload.setup)[1] for _ in range(SETUP_REPEATS)]

    verify_digest, problems = workload.verify()
    part_times, summaries, unit_seconds = timed_units(
        workload, clock, args.seconds
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digests = {s["digest"] for s in summaries}
    if digests != {verify_digest}:
        problems.append(
            f"report digests differ: verify={verify_digest} timed={digests}"
        )
    summary = summaries[0]
    offered = summary["offered"] * (len(summaries) + 1)
    failed = summary["failed"] * (len(summaries) + 1)
    values = {
        "setup_s": statistics.median(setup_times),
        "req_per_host_s": summary["resolved"] / unit_seconds,
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    if args.trace:
        recorder, traced, wall, traced_seconds = traced_run(
            workload, clock, build_world
        )
        offered += traced["offered"]
        failed += traced["failed"]
        if traced["digest"] != verify_digest:
            problems.append(
                f"traced report digest {traced['digest']} != {verify_digest}"
            )
        units = per_layer_names(recorder.layer_names)
        covered = recorder.covered_seconds()
        traced_rate = traced["resolved"] / traced_seconds
        layer_steps = traced["sim"].get("serving.engine.layer_steps", 0)
        untraced_rate = values["req_per_host_s"]
        values = {name: 0.0 for name in units}
        values.update(traced["sim"])
        for layer in recorder.layer_names:
            values[f"{layer}.self_s"] = recorder.self_s[layer]
            values[f"{layer}.calls"] = recorder.calls[layer]
        issued = recorder.prefetch_issued
        values.update(
            {
                "other.self_s": wall - covered,
                "trace.wall_s": wall,
                "trace.req_per_host_s": traced_rate,
                "trace.overhead_frac": 1.0
                - traced_rate / untraced_rate,
                "serving.engine.host_us_per_layer_step": (
                    1e6 * unit_seconds / layer_steps if layer_steps else 0.0
                ),
                "serving.pool.prefetch_issued": issued,
                "serving.pool.prefetch_rejected": recorder.prefetch_rejected,
                "serving.pool.prefetch_useful_ratio": (
                    recorder.prefetch_useful / issued if issued else 0.0
                ),
                "serving.pool.ondemand_loads": recorder.ondemand_loads,
                "serving.pool.evictions": recorder.evictions,
                "core.store.adds": recorder.store_adds,
                "core.store.replacements": recorder.store_replacements,
            }
        )
        layer_sum = sum(recorder.self_s.values()) + values["other.self_s"]
        if abs(layer_sum - wall) > 1e-6 * wall:
            problems.append(
                f"layer self times sum to {layer_sum}, wall is {wall}"
            )
        recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    declared = ROOT / "BENCHMARK.json"
    if declared.exists():
        section = "per_layer" if args.trace else "end_to_end"
        expected = {
            m["name"]: m["unit"]
            for m in json.loads(declared.read_text())[section]
        }
        if expected != {name: unit for name, (unit, _) in units.items()}:
            problems.append(f"metrics differ from BENCHMARK.json {section}")

    correct = not problems
    if not correct:
        failed = offered
    result = {
        "correct": correct,
        "attempted": offered,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in units.items()
        },
    }
    prov = provenance(args.seed, workload.describe(), args.seconds)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(
        f"provenance sha={prov['git_sha']} src={prov['src_sha256']} "
        f"nproc={prov['nproc']} python={prov['python']} "
        f"numpy={prov['numpy']} config={prov['config_hash']}"
    )
    print(
        f"requests attempted={offered} served={summary['served']}/unit "
        f"shed={summary['shed']}/unit failed={failed} "
        f"units={len(part_times)} timed_s={sum(map(sum, part_times)):.3f}"
    )
    print(
        f"digest {verify_digest} output checks "
        f"{'passed' if correct else 'FAILED'}"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("end-to-end metrics" if not args.trace else "per-layer metrics")
    for name, (unit, source) in units.items():
        print(f"  {name:42s} {values[name]:>16.6f} {unit:6s} {source}")
    if not args.trace:
        print("simulated outputs (identical for a given seed)")
        for name, value in summary["sim"].items():
            print(f"  {name:42s} {value:>16.6f}")

    OUT_DIR.mkdir(exist_ok=True)
    record = dict(
        result,
        workload=args.workload,
        provenance=prov,
        digest=verify_digest,
        problems=problems,
        part_seconds=part_times,
        setup_seconds=setup_times,
        raw_seconds=clock.raw,
        reference_seconds=clock.references,
        sim=summary["sim"],
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
