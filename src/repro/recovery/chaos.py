"""Chaos soak harness: sweep seeded fault plans through recovery.

:func:`run_chaos` generates a family of seeded random
:class:`~repro.machine.faults.FaultPlan`s and drives each one through
the recovery machinery in up to three *modes*:

* ``replay`` — the compiled plan (captured once, with a real-payload
  ledger) runs under :func:`~repro.recovery.executor.execute_with_recovery`
  on a faulted network; the outcome must self-verify symbolically **and**
  be bit-identical to the fault-free payload run;
* ``cached`` — the request path: :func:`~repro.plans.serve.serve` with
  ``recovery=`` and a shared :class:`~repro.plans.cache.PlanCache`,
  exercising the recover-then-ladder stages end to end (a ladder
  fallback is re-verified with one live run on real data);
* ``live`` — a real matrix through the planner's restart ladder on a
  faulted network with checkpoint telemetry attached, verified against
  ``A.T`` element for element.

Every trial ends in one of three outcomes: ``verified`` (the transpose
invariant held), ``rejected-disconnected`` (the surviving topology
cannot carry any transpose and the system correctly refused), or
``failed`` (anything else — the one outcome the soak must never
produce).  :attr:`ChaosReport.ok` is the gate the CI chaos-smoke job
asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.machine.engine import CubeNetwork
from repro.machine.faults import (
    DisconnectedCubeError,
    FaultError,
    FaultPlan,
    RoutingStalledError,
)
from repro.machine.params import MachineParams
from repro.plans.batch import BatchRequest, resolve_request
from repro.plans.cache import PlanCache
from repro.plans.recorder import RecordingNetwork, synthetic_matrix
from repro.recovery.checkpoint import CheckpointManager
from repro.recovery.executor import (
    RecoveryFailedError,
    RecoveryOutcome,
    execute_with_recovery,
    outcomes_equivalent,
)
from repro.recovery.policy import RecoveryPolicy

__all__ = ["ChaosReport", "ChaosTrial", "run_chaos"]

MODES = ("replay", "cached", "live")


@dataclass(frozen=True)
class ChaosTrial:
    """One (seed, mode) cell of the soak matrix."""

    seed: int
    mode: str  # "replay", "cached" or "live"
    outcome: str  # "verified", "rejected-disconnected" or "failed"
    #: How the run completed: clean / resume / surgery-* / ladder / "-".
    resolved: str = "-"
    fault_encounters: int = 0
    checkpoints: int = 0
    rollbacks: int = 0
    replayed_phases: int = 0
    backoff_phases: int = 0
    wasted_elements: int = 0
    #: Integrity accounting (corruption sweeps): detected corrupted
    #: deliveries, retransmissions, and links quarantined.
    corrupted_deliveries: int = 0
    retransmits: int = 0
    quarantined_links: int = 0
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mode": self.mode,
            "outcome": self.outcome,
            "resolved": self.resolved,
            "fault_encounters": self.fault_encounters,
            "checkpoints": self.checkpoints,
            "rollbacks": self.rollbacks,
            "replayed_phases": self.replayed_phases,
            "backoff_phases": self.backoff_phases,
            "wasted_elements": self.wasted_elements,
            "corrupted_deliveries": self.corrupted_deliveries,
            "retransmits": self.retransmits,
            "quarantined_links": self.quarantined_links,
            "detail": self.detail,
        }


@dataclass
class ChaosReport:
    """The soak's aggregate verdict plus every trial's accounting."""

    n: int
    elements: int
    layout: str
    algorithm: str
    link_rate: float
    transient_rate: float
    window: int
    policy: str
    seeds: int
    modes: tuple[str, ...]
    corrupt_rate: float = 0.0
    corrupt_intensity: float = 0.4
    topology: str = "cube"
    trials: list[ChaosTrial] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no trial failed (rejections are correct refusals)."""
        return all(t.outcome != "failed" for t in self.trials)

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self.trials:
            counts[t.outcome] = counts.get(t.outcome, 0) + 1
        return counts

    def resolution_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self.trials:
            if t.outcome == "verified":
                counts[t.resolved] = counts.get(t.resolved, 0) + 1
        return counts

    def failures(self) -> list[ChaosTrial]:
        return [t for t in self.trials if t.outcome == "failed"]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "config": {
                "n": self.n,
                "elements": self.elements,
                "layout": self.layout,
                "algorithm": self.algorithm,
                "link_rate": self.link_rate,
                "transient_rate": self.transient_rate,
                "window": self.window,
                "policy": self.policy,
                "seeds": self.seeds,
                "modes": list(self.modes),
                "corrupt_rate": self.corrupt_rate,
                "corrupt_intensity": self.corrupt_intensity,
                "topology": self.topology,
            },
            "outcomes": self.outcome_counts(),
            "resolutions": self.resolution_counts(),
            "totals": {
                "trials": len(self.trials),
                "fault_encounters": sum(
                    t.fault_encounters for t in self.trials
                ),
                "rollbacks": sum(t.rollbacks for t in self.trials),
                "replayed_phases": sum(
                    t.replayed_phases for t in self.trials
                ),
                "backoff_phases": sum(t.backoff_phases for t in self.trials),
                "wasted_elements": sum(
                    t.wasted_elements for t in self.trials
                ),
                "corrupted_deliveries": sum(
                    t.corrupted_deliveries for t in self.trials
                ),
                "retransmits": sum(t.retransmits for t in self.trials),
                "quarantined_links": sum(
                    t.quarantined_links for t in self.trials
                ),
            },
            "trials": [t.as_dict() for t in self.trials],
        }

    def summary(self) -> str:
        lines = [
            f"chaos soak: {self.seeds} seed(s) x {len(self.modes)} mode(s) "
            f"on n={self.n} ({self.topology}), {self.elements} elements, "
            f"{self.layout} layout",
            f"fault model: link_rate={self.link_rate}, "
            f"transient_rate={self.transient_rate}, window={self.window}"
            + (
                f", corrupt_rate={self.corrupt_rate}, "
                f"corrupt_intensity={self.corrupt_intensity}"
                if self.corrupt_rate
                else ""
            ),
            f"policy: {self.policy}",
        ]
        outcomes = self.outcome_counts()
        lines.append(
            "outcomes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
        )
        corrupted = sum(t.corrupted_deliveries for t in self.trials)
        if corrupted:
            lines.append(
                f"integrity: {corrupted} corrupted delivery(ies) detected, "
                f"{sum(t.retransmits for t in self.trials)} retransmit(s), "
                f"{sum(t.quarantined_links for t in self.trials)} link(s) "
                "quarantined, 0 undetected"
            )
        resolutions = self.resolution_counts()
        if resolutions:
            lines.append(
                "resolved via: "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(resolutions.items())
                )
            )
        for t in self.failures():
            lines.append(
                f"FAILED seed={t.seed} mode={t.mode}: {t.detail or '?'}"
            )
        lines.append("verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def run_chaos(
    *,
    n: int = 4,
    elements: int = 256,
    layout: str = "2d",
    algorithm: str = "auto",
    seeds: int | Sequence[int] = 50,
    modes: Sequence[str] = MODES,
    link_rate: float = 0.03,
    transient_rate: float = 0.10,
    window: int = 32,
    corrupt_rate: float = 0.0,
    corrupt_intensity: float = 0.4,
    policy: RecoveryPolicy | None = None,
    params: MachineParams | None = None,
    progress: Callable[[ChaosTrial], None] | None = None,
    topology=None,
) -> ChaosReport:
    """Soak the recovery machinery over seeded random fault plans.

    ``seeds`` is either a count (seeds ``0 .. count-1``) or an explicit
    sequence.  Node failures are deliberately excluded from the sweep:
    a dead node's blocks are unrecoverable by design, so they would turn
    every hit into a correct-but-uninteresting rejection — permanent and
    transient *link* faults are where resume-based recovery lives.
    ``corrupt_rate`` > 0 turns the soak into a *corruption sweep*: each
    plan additionally draws silently corrupting links (per-delivery
    strike probability ``corrupt_intensity``), end-to-end checksums arm
    automatically, and every trial is held to the same oracle — the
    replay mode's payload-ledger comparison against the fault-free run
    means a single undetected corruption shows up as a ``failed`` trial.
    ``progress`` is called once per finished trial (CLI streaming).

    ``topology`` (spec string or :class:`~repro.topology.base.Topology`)
    soaks a non-cube interconnect.  Only ``live`` mode is available off
    the cube: ``replay`` and ``cached`` exercise checkpoint surgery and
    resume-based serving, which rewrite cube schedules specifically.
    """
    from repro.topology import topology_for

    for mode in modes:
        if mode not in MODES:
            raise ValueError(
                f"unknown chaos mode {mode!r}; choose from {MODES}"
            )
    topo = topology_for(topology, n)
    on_cube = topo.name == "cube"
    if not on_cube:
        off_cube = [m for m in modes if m != "live"]
        if off_cube:
            raise ValueError(
                f"chaos mode(s) {', '.join(off_cube)} need a Boolean cube "
                f"(checkpoint surgery is cube-specific); on topology "
                f"{topo.spec!r} run with modes=('live',)"
            )
    if isinstance(seeds, int):
        seed_list = list(range(seeds))
    else:
        seed_list = list(seeds)
    if policy is None:
        policy = RecoveryPolicy()
    # The tier and plan key do not depend on the fault plan, so one
    # resolution serves every trial, each with its own faults.  The
    # run-local cache only ever holds ``params``' plans.
    request = resolve_request(BatchRequest(
        elements=elements, n=n, layout=layout, machine="cm",
        algorithm=algorithm,
    ))
    if params is None:
        params = request.params
    request = replace(request, params=params)
    before, target = request.before, request.after

    # One clean capture with a real-payload ledger feeds every replay
    # trial; the clean outcome is the bit-identity reference.  Only
    # the replay mode needs it.
    plan = payloads = clean_outcome = None
    if "replay" in modes:
        from repro.transpose.planner import transpose

        recorder = RecordingNetwork(params, record_payloads=True)
        matrix = synthetic_matrix(before)
        clean_result = transpose(
            recorder, matrix, target, algorithm=algorithm
        )
        plan = recorder.compile(
            algorithm=clean_result.algorithm,
            before=before,
            after=request.target,
            requested=algorithm,
        )
        payloads = recorder.payloads
        clean_outcome = execute_with_recovery(
            plan, CubeNetwork(params), policy=policy, payloads=payloads
        )

    cache = PlanCache(capacity=32)
    report = ChaosReport(
        n=n,
        elements=elements,
        layout=layout,
        algorithm=algorithm,
        link_rate=link_rate,
        transient_rate=transient_rate,
        window=window,
        policy=policy.describe(),
        seeds=len(seed_list),
        modes=tuple(modes),
        corrupt_rate=corrupt_rate,
        corrupt_intensity=corrupt_intensity,
        topology=topo.spec,
    )
    for seed in seed_list:
        faults = FaultPlan.random(
            n,
            seed=seed,
            link_rate=link_rate,
            transient_rate=transient_rate,
            window=window,
            corrupt_rate=corrupt_rate,
            corrupt_intensity=corrupt_intensity,
            topology=None if on_cube else topo,
        )
        for mode in modes:
            if mode == "replay":
                trial = _replay_trial(
                    seed, plan, payloads, clean_outcome, params, faults,
                    policy, before, target, algorithm,
                )
            elif mode == "cached":
                trial = _cached_trial(
                    seed, params, before, target, faults, algorithm,
                    cache, policy, request,
                )
            else:
                trial = _live_trial(
                    seed, params, before, target, faults, algorithm, policy,
                    topo,
                )
            report.trials.append(trial)
            if progress is not None:
                progress(trial)
    return report


def _from_report(
    seed: int, mode: str, outcome: str, rep, detail="", stats=None
) -> ChaosTrial:
    return ChaosTrial(
        seed=seed,
        mode=mode,
        outcome=outcome,
        resolved=rep.resolved if rep is not None else "-",
        fault_encounters=rep.fault_encounters if rep is not None else 0,
        checkpoints=rep.checkpoints_taken if rep is not None else 0,
        rollbacks=rep.rollbacks if rep is not None else 0,
        replayed_phases=rep.replayed_phases if rep is not None else 0,
        backoff_phases=rep.backoff_phases if rep is not None else 0,
        wasted_elements=rep.wasted_elements if rep is not None else 0,
        corrupted_deliveries=(
            stats.integrity_corrupted_deliveries if stats is not None else 0
        ),
        retransmits=stats.integrity_retransmits if stats is not None else 0,
        quarantined_links=(
            stats.integrity_quarantined_links if stats is not None else 0
        ),
        detail=detail,
    )


def _live_verifies(
    params, before, after, faults, algorithm, policy, topology=None
) -> tuple[bool, str, object]:
    """One direct fault-tolerant run on real data; ``(ok, detail, stats)``."""
    from repro.transpose.planner import transpose

    matrix = synthetic_matrix(before)
    original = matrix.to_global()
    network = CubeNetwork(params, faults=faults, topology=topology)
    network.checkpoints = CheckpointManager(
        every=policy.checkpoint_every, retain=policy.max_checkpoints
    )
    try:
        result = transpose(network, matrix, after, algorithm=algorithm)
    except DisconnectedCubeError:
        return True, "rejected-disconnected", network.stats
    except (FaultError, RoutingStalledError) as exc:
        return False, f"{type(exc).__name__}: {exc}", network.stats
    if result.verify_against(original):
        detail = "ladder" if result.fallbacks else "clean"
        return True, detail, network.stats
    return False, "transpose invariant violated", network.stats


def _replay_trial(
    seed, plan, payloads, clean_outcome: RecoveryOutcome, params, faults,
    policy, before, after, algorithm,
) -> ChaosTrial:
    if not faults.surviving_connected():
        return ChaosTrial(seed, "replay", "rejected-disconnected")
    network = CubeNetwork(params, faults=faults)
    try:
        outcome = execute_with_recovery(
            plan, network, policy=policy, payloads=payloads
        )
    except RecoveryFailedError as exc:
        # Recovery gave up within budget; the ladder is the documented
        # last resort — run it live and hold it to the same invariant.
        ok, detail, live_stats = _live_verifies(
            params, before, after, faults, algorithm, policy
        )
        rep = exc.report
        rep.resolved = "ladder"
        if not ok:
            return _from_report(
                seed, "replay", "failed", rep, detail, stats=live_stats
            )
        return _from_report(
            seed, "replay", "verified", rep, f"ladder: {detail}",
            stats=live_stats,
        )
    if not outcome.verified:
        return _from_report(
            seed, "replay", "failed", outcome.report,
            "final-state verification failed", stats=network.stats,
        )
    if not outcomes_equivalent(outcome, clean_outcome):
        return _from_report(
            seed, "replay", "failed", outcome.report,
            "recovered payloads differ from fault-free run",
            stats=network.stats,
        )
    return _from_report(
        seed, "replay", "verified", outcome.report, stats=network.stats
    )


def _cached_trial(
    seed, params, before, after, faults, algorithm, cache, policy, request
) -> ChaosTrial:
    from repro.plans.serve import serve

    try:
        served = serve(
            replace(request, faults=faults), cache=cache, recovery=policy
        )
    except DisconnectedCubeError:
        return ChaosTrial(seed, "cached", "rejected-disconnected")
    except (FaultError, RoutingStalledError) as exc:
        return ChaosTrial(
            seed, "cached", "failed", detail=f"{type(exc).__name__}: {exc}"
        )
    rep = served.recovery
    if served.resolved != "ladder":
        return _from_report(
            seed, "cached", "verified", rep, stats=served.stats
        )
    # Ladder fallback ran virtually; re-verify the same scenario on real
    # data so "served" always means "would have been correct".
    ok, detail, live_stats = _live_verifies(
        params, before, after, faults, algorithm, policy
    )
    if ok:
        return _from_report(
            seed, "cached", "verified", rep, f"ladder: {detail}",
            stats=live_stats,
        )
    return _from_report(
        seed, "cached", "failed", rep, detail, stats=live_stats
    )


def _live_trial(
    seed, params, before, after, faults, algorithm, policy, topology=None
) -> ChaosTrial:
    ok, detail, stats = _live_verifies(
        params, before, after, faults, algorithm, policy, topology
    )
    if ok and detail == "rejected-disconnected":
        return ChaosTrial(seed, "live", "rejected-disconnected")
    return ChaosTrial(
        seed=seed,
        mode="live",
        outcome="verified" if ok else "failed",
        resolved=detail if ok else "-",
        fault_encounters=stats.fault_events,
        checkpoints=stats.checkpoints,
        rollbacks=stats.rollbacks,
        replayed_phases=stats.replayed_phases,
        backoff_phases=stats.stall_phases,
        wasted_elements=stats.wasted_elements,
        corrupted_deliveries=stats.integrity_corrupted_deliveries,
        retransmits=stats.integrity_retransmits,
        quarantined_links=stats.integrity_quarantined_links,
        detail="" if ok else detail,
    )
