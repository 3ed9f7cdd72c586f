"""Intentionally-broken simulator mutants: proof the validators have teeth.

Each mutant installs one targeted defect into a freshly built engine —
an eviction policy running backwards, a byte ledger that leaks, a cache
that lies about readiness.  The differential harness then demands that
*every* registered mutant is flagged by at least one invariant monitor or
metamorphic law; a mutant that sails through means a validator has gone
soft, exactly like a surviving mutant in mutation testing.

Mutants patch instances (never classes), so a mutated engine poisons
nothing beyond itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.engine import ServingEngine


@dataclass(frozen=True)
class Mutant:
    """One registered defect to inject into a fresh engine (or plan).

    ``target`` names the surface the defect lives on: ``"engine"``
    mutants patch a freshly built :class:`ServingEngine` in place;
    ``"placement"`` mutants transform a healthy
    :class:`~repro.cluster.placement.PlacementPlan` and return the
    broken copy (the harness screens it through ``check_plan``);
    ``"driver"`` mutants take the :class:`~repro.cluster.driver
    .ClusterDriver` class and return a sabotaged subclass (the harness
    replays a two-tier overload through it and expects the tenancy
    monitors to object).
    """

    name: str
    description: str
    #: Which invariant family is expected to flag it (documentation).
    expected_detector: str
    apply: Callable[["ServingEngine"], None]
    target: str = "engine"


def _budget_overcommit(engine: "ServingEngine") -> None:
    """``_make_space`` claims success without evicting anything."""
    pool = engine.pool
    pool._make_space = lambda device, needed, now, urgent=False: True


def _eviction_leak(engine: "ServingEngine") -> None:
    """Evictions drop the expert but never return its bytes."""
    pool = engine.pool
    original = pool.evict

    def leaky_evict(expert):
        device = pool._home_of(expert) if expert in pool._tasks else None
        original(expert)
        if device is not None:
            # Re-charge the bytes the real evict just freed: the ledger
            # now leaks one expert per eviction.
            device.used_bytes += pool.model.expert_bytes

    pool.evict = leaky_evict


def _phantom_ready(engine: "ServingEngine") -> None:
    """The cache vouches for experts it never loaded."""
    pool = engine.pool
    pool.is_ready = lambda expert, now: True
    # The engine snapshots gate-time readiness in one batched call and
    # re-checks single experts later; the lie must cover both query forms.
    pool.ready_flags = lambda experts, now: [True] * len(experts)


def _clock_rewind(engine: "ServingEngine") -> None:
    """On-demand loads report completion before they were issued."""
    pool = engine.pool
    original = pool.load_on_demand

    def rewinding_load(expert, now):
        original(expert, now)
        return now - 1e-3

    pool.load_on_demand = rewinding_load


class _HottestFirstOracle:
    """Inverts the attached policy's eviction order: hottest goes first."""

    def __init__(self, policy) -> None:
        self._policy = policy

    def eviction_priority(self, expert, now):
        return -self._policy.eviction_priority(expert, now)


def _evict_hottest(engine: "ServingEngine") -> None:
    engine.pool.set_eviction_oracle(_HottestFirstOracle(engine.policy))


class _PrefetchStripper:
    """Delegates every policy hook but discards prefetch instructions."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = inner.name

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def _strip(self, action):
        if action is not None:
            action.prefetch = []
            action.prefetch_block = None
        return action

    def on_iteration_start(self, ctx):
        return self._strip(self._inner.on_iteration_start(ctx))

    def on_gate_output(self, ctx, layer):
        return self._strip(self._inner.on_gate_output(ctx, layer))

    def on_iteration_end(self, ctx):
        return self._strip(self._inner.on_iteration_end(ctx))


def _ignore_prefetch(engine: "ServingEngine") -> None:
    engine.policy = _PrefetchStripper(engine.policy)


def _placement_overcommit(plan):
    """Every replica claims every demanded expert, VRAM caps be damned.

    The classic placement-optimizer bug: the residency builder forgets
    the per-replica capacity clamp, so the plan promises more resident
    experts than the scaled cache budget holds slots for.
    """
    import dataclasses

    everything: set = set(plan.unplaced)
    for experts in plan.residency:
        everything.update(experts)
    ordered = tuple(sorted(everything, key=lambda e: (e.layer, e.expert)))
    return dataclasses.replace(
        plan,
        residency=tuple(ordered for _ in plan.residency),
        unplaced=(),
    )


def _priority_inversion(driver_cls):
    """Admission bypass flipped: batch skips the gate, premium pays it.

    The priority scheduler's one job is protecting premium traffic when
    the ladder sheds; this subclass inverts the single decision point
    (:meth:`ClusterDriver._admission_bypass`) so low-priority requests
    bypass admission control while premium requests get shed first —
    the classic sign-flip bug in a priority comparison.  The tenancy
    tier-conservation monitor must flag the resulting shed-rate
    inversion.
    """

    class PriorityInvertedDriver(driver_cls):
        def _admission_bypass(self, request) -> bool:
            cfg = self.resilience
            if cfg is None or cfg.priority_bypass_level is None:
                return False
            return request.priority < cfg.priority_bypass_level

    PriorityInvertedDriver.__name__ = f"PriorityInverted{driver_cls.__name__}"
    return PriorityInvertedDriver


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        name="budget-overcommit",
        description="_make_space reports success without freeing bytes, "
        "so reservations sail past the VRAM budget",
        expected_detector="budget monitor",
        apply=_budget_overcommit,
    ),
    Mutant(
        name="eviction-leak",
        description="evictions free the slot but leak the byte ledger",
        expected_detector="coherence monitor",
        apply=_eviction_leak,
    ),
    Mutant(
        name="phantom-ready",
        description="is_ready returns True for experts never loaded",
        expected_detector="coherence monitor",
        apply=_phantom_ready,
    ),
    Mutant(
        name="clock-rewind",
        description="on-demand loads complete before they were issued",
        expected_detector="clock monitor",
        apply=_clock_rewind,
    ),
    Mutant(
        name="evict-hottest",
        description="eviction order inverted: the hottest expert goes "
        "first",
        expected_detector="differential-reference law",
        apply=_evict_hottest,
    ),
    Mutant(
        name="ignore-prefetch",
        description="all prefetch instructions silently discarded",
        expected_detector="differential-reference law",
        apply=_ignore_prefetch,
    ),
    Mutant(
        name="placement-overcommit",
        description="the placement plan pins every demanded expert on "
        "every replica, ignoring per-replica VRAM capacity",
        expected_detector="placement plan check",
        apply=_placement_overcommit,
        target="placement",
    ),
    Mutant(
        name="priority-inversion",
        description="admission bypass comparison flipped: batch traffic "
        "skips the gate while premium requests shed first",
        expected_detector="tenancy tier-conservation monitor",
        apply=_priority_inversion,
        target="driver",
    ),
)


def get_mutant(name: str) -> Mutant:
    """Look up a registered mutant by name."""
    for mutant in MUTANTS:
        if mutant.name == name:
            return mutant
    known = ", ".join(m.name for m in MUTANTS)
    raise KeyError(f"unknown mutant {name!r} (known: {known})")
