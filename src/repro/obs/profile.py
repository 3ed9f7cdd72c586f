"""Wall-clock (host-time) profiler for the engine hot loop.

Everything else in ``repro.obs`` observes the *virtual* clock; this
module measures how much *host* CPU time one simulated serving run
costs, split across the engine's hot-loop phases:

- ``gate_draws``               — ``session.next_iteration()`` routing draws;
- ``hit_miss_classification``  — ``engine._snapshot_hits`` at the gate;
- ``transfer_charging``        — pool ``load_on_demand`` / ``prefetch``
  and prefetch-block issue;
- ``eviction_scoring``         — ``pool._make_space`` victim selection;
- ``policy_hooks``             — the policy's iteration/gate callbacks;
- ``other``                    — everything else in the serve loop.

Phases nest (an on-demand load can trigger eviction scoring), so the
profiler keeps a stack and attributes **self time**: entering a nested
phase pauses the enclosing one.  Instrumentation is instance-level
method wrapping on a throwaway engine — the same patching idiom the
mutant harness uses — so nothing leaks into other runs.  Phase
``calls`` count *logical scalar operations*, not Python invocations:
one batched snapshot or prefetch block reports one call per expert it
covered, whether the entry schedules a copy or is already tracked.

``run_profile`` executes a full world-build + warm + serve cycle under
the timer and produces the ``BENCH_profile.json`` payload: per-phase
seconds/calls/shares plus ``simulated_requests_per_second``, the
regression baseline CI's profile-smoke job gates on via
:func:`check_profile_payload`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.errors import TelemetryError

#: Schema tag stamped into every payload (bump on breaking changes).
PROFILE_SCHEMA = "repro-profile/v1"

#: Instrumented phases, in hot-loop order (``other`` is the remainder).
PHASE_NAMES: tuple[str, ...] = (
    "gate_draws",
    "hit_miss_classification",
    "transfer_charging",
    "eviction_scoring",
    "policy_hooks",
    "other",
)

#: Keys every BENCH_profile.json payload must carry.
REQUIRED_KEYS: tuple[str, ...] = (
    "schema",
    "model",
    "dataset",
    "system",
    "repeats",
    "requests",
    "iterations",
    "activations",
    "simulated_seconds",
    "wall_seconds",
    "setup_seconds",
    "simulated_requests_per_second",
    "simulated_iterations_per_second",
    "phases",
)


class PhaseTimer:
    """Stack-based self-time accumulator over host ``perf_counter``."""

    def __init__(self) -> None:
        self.seconds = {name: 0.0 for name in PHASE_NAMES}
        self.calls = {name: 0 for name in PHASE_NAMES}
        self._stack: list[list] = []  # [phase, resumed_at]

    def push(self, phase: str) -> None:
        """Enter ``phase``, pausing the enclosing phase's clock."""
        now = time.perf_counter()
        if self._stack:
            top = self._stack[-1]
            self.seconds[top[0]] += now - top[1]
        self._stack.append([phase, now])

    def pop(self, count: int = 1) -> None:
        """Leave the current phase, resuming its parent's clock.

        ``count`` is how many *logical scalar operations* the window
        covered.  Batched phases (one array invocation classifying a
        whole expert set, one block prefetch charging many transfers)
        pass the element count — calls measure work, not Python
        function invocations.
        """
        now = time.perf_counter()
        phase, resumed_at = self._stack.pop()
        self.seconds[phase] += now - resumed_at
        self.calls[phase] += count
        if self._stack:
            self._stack[-1][1] = now

    def wrap(self, obj, attr: str, phase: str, count=None):
        """Replace ``obj.attr`` with a timed wrapper (instance-level).

        ``count`` (optional) maps one invocation to its logical
        operation count: called as ``count(args, kwargs, result)`` after
        the original returns.  Nested same-phase calls made *inside* the
        window already incremented ``calls``; the wrapper charges only
        the remainder, so wrapping both a batched entry point and the
        scalar helpers it delegates to never double-counts.
        """
        original = getattr(obj, attr)

        def timed(*args, **kwargs):
            before = self.calls[phase]
            self.push(phase)
            n = 1
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                inner = self.calls[phase] - before
                self.pop(count=max(n - inner, 0) if count is not None else 1)

        setattr(obj, attr, timed)
        return timed

    def instrument_engine(self, engine) -> None:
        """Attach every hot-loop phase probe to one throwaway engine."""
        # Gate draws live on per-request sessions the model hands out
        # mid-run; wrap the factory so each session's bound
        # ``next_iteration`` is timed the moment it is created.
        original_start = engine.model.start_session

        def timed_start_session(*args, **kwargs):
            session = original_start(*args, **kwargs)
            self.wrap(session, "next_iteration", "gate_draws")
            return session

        engine.model.start_session = timed_start_session
        # Batched phases report logical per-expert operation counts: one
        # snapshot call classifies every expert the layer touches, and
        # one prefetch block charges one transfer per block entry
        # (entries already tracked count too, though they skip the pool
        # call).
        self.wrap(
            engine,
            "_snapshot_hits",
            "hit_miss_classification",
            count=lambda args, kwargs, result: len(result),
        )
        self.wrap(engine.pool, "load_on_demand", "transfer_charging")
        self.wrap(engine.pool, "prefetch", "transfer_charging")
        self.wrap(
            engine,
            "_issue_prefetch_block",
            "transfer_charging",
            count=lambda args, kwargs, result: len(args[1][0]),
        )
        self.wrap(engine.pool, "_make_space", "eviction_scoring")
        for hook in (
            "on_iteration_start",
            "on_gate_output",
            "on_iteration_end",
        ):
            if hasattr(engine.policy, hook):
                self.wrap(engine.policy, hook, "policy_hooks")


def run_profile(
    config=None,
    system: str = "fmoe",
    repeats: int = 3,
    world=None,
):
    """Profile the engine hot loop; returns the BENCH payload dict.

    Builds a world from ``config`` (or reuses ``world``), then serves
    its test requests ``repeats`` times on fresh instrumented engines.
    World building and policy warm-up count as ``setup_seconds``; only
    the serve loops feed the phase timer and the throughput figures.
    """
    from repro.experiments.common import (
        ExperimentConfig,
        build_world,
        make_engine,
    )

    if repeats < 1:
        raise TelemetryError(f"repeats must be >= 1 (got {repeats})")
    setup_start = time.perf_counter()
    if world is None:
        world = build_world(config or ExperimentConfig())
    timer = PhaseTimer()
    requests = 0
    activations = 0
    simulated_seconds = 0.0
    serve_seconds = 0.0
    engines = []
    for _ in range(repeats):
        engine = make_engine(world, system)
        engine.policy.warm(world.warm_traces)
        engines.append(engine)
    setup_seconds = time.perf_counter() - setup_start
    for engine in engines:
        timer.instrument_engine(engine)
        serve_start = time.perf_counter()
        report = engine.run(world.test_requests)
        serve_seconds += time.perf_counter() - serve_start
        requests += len(report.requests)
        activations += report.activations
        simulated_seconds += engine.now
    iterations = timer.calls["gate_draws"]
    instrumented = sum(
        timer.seconds[name] for name in PHASE_NAMES if name != "other"
    )
    timer.seconds["other"] = max(serve_seconds - instrumented, 0.0)
    phases = {
        name: {
            "seconds": timer.seconds[name],
            "calls": timer.calls[name],
            "share": (
                timer.seconds[name] / serve_seconds if serve_seconds else 0.0
            ),
        }
        for name in PHASE_NAMES
    }
    return {
        "schema": PROFILE_SCHEMA,
        "model": world.config.model_name,
        "dataset": world.config.dataset,
        "system": system,
        "repeats": repeats,
        "requests": requests,
        "iterations": iterations,
        "activations": activations,
        "simulated_seconds": simulated_seconds,
        "wall_seconds": serve_seconds,
        "setup_seconds": setup_seconds,
        "simulated_requests_per_second": (
            requests / serve_seconds if serve_seconds else 0.0
        ),
        "simulated_iterations_per_second": (
            iterations / serve_seconds if serve_seconds else 0.0
        ),
        "phases": phases,
    }


def write_profile(payload: dict, path: str | Path) -> Path:
    """Serialize a profile payload as stable, diff-friendly JSON."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def check_profile_payload(
    payload: dict, min_requests_per_second: float = 0.0
) -> list[str]:
    """Validate a BENCH_profile.json payload; returns problem strings.

    The CI regression gate: schema tag, required keys, per-phase
    structure with shares summing to ~1, and the
    simulated-requests/sec floor.  An empty list means the payload
    passes.
    """
    problems = []
    for key in REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"missing key: {key}")
    if problems:
        return problems
    if payload["schema"] != PROFILE_SCHEMA:
        problems.append(
            f"schema mismatch: {payload['schema']!r} != {PROFILE_SCHEMA!r}"
        )
    phases = payload["phases"]
    for name in PHASE_NAMES:
        if name not in phases:
            problems.append(f"missing phase: {name}")
            continue
        for field in ("seconds", "calls", "share"):
            if field not in phases[name]:
                problems.append(f"phase {name}: missing {field}")
    if not problems and payload["wall_seconds"] > 0:
        total_share = sum(phases[name]["share"] for name in PHASE_NAMES)
        if abs(total_share - 1.0) > 1e-6:
            problems.append(
                f"phase shares sum to {total_share}, expected 1.0"
            )
    rps = payload["simulated_requests_per_second"]
    if rps < min_requests_per_second:
        problems.append(
            f"simulated_requests_per_second {rps:.3f} below floor "
            f"{min_requests_per_second:.3f}"
        )
    return problems
