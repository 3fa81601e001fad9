"""Serve one resolved request: fetch or compile its plan, then escalate.

:func:`serve` is the one request path.  The batch runner, the server's
workers, the baseline gate, the chaos soak and ``repro run --workload``
all call it with a :class:`~repro.plans.batch.ResolvedRequest`; its
cache misses compile through :func:`compile_plan`, which ``repro plan``
calls too.  It runs an ordered tuple of *stages* chosen from the
request (:func:`escalation`):

============================================  ========================
request                                       stages
============================================  ========================
fault-free                                    replay
faulted cube transpose with a recovery policy recover, ladder
faulted transpose, no policy or not a cube    degrade, replay, ladder
faulted pipeline                              recover
============================================  ========================

* ``replay`` — replay the tier's cached plan (compiled on a miss) on a
  fresh network;
* ``recover`` — run that plan under
  :func:`~repro.recovery.executor.execute_with_recovery`: checkpointed
  resume for transient faults, plan surgery for permanent ones.
  Pipelines use the default
  :class:`~repro.recovery.policy.RecoveryPolicy` when none is given;
* ``degrade`` — the paper's proactive tier walk MPT → DPT → SPT →
  router on the cube: the first tier whose schedule avoids every
  faulted link is the one replayed.  It never serves by itself;
* ``ladder`` — one direct fault-tolerant run through
  :func:`~repro.transpose.planner.transpose`, which degrades again and
  retries reactively.

A stage that fails — a fault error, a recovery that gives up, or a
recovered run that fails its final-state verification — hands over to
the next stage; the last stage's failure propagates to the caller.

The result carries one ``resolved`` label: ``clean``, ``degraded`` (the
degrade stage skipped tiers and the survivor replayed), ``resume`` /
``surgery-detour`` / ``surgery-relabel`` (recovered), or ``ladder``.
The capability floor applied at resolution — a cube-only tier asked of
a torus runs ``routed-universal`` — is not a fault degradation.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from repro.machine.engine import CubeNetwork
from repro.machine.faults import (
    DisconnectedCubeError,
    FaultError,
    RoutingStalledError,
)
from repro.machine.metrics import TransferStats
from repro.obs.instrumentation import NULL_INSTRUMENTATION, Instrumentation
from repro.plans.batch import ResolvedRequest
from repro.plans.cache import PlanCache, plan_key
from repro.plans.replay import replay_plan
from repro.recovery.executor import (
    RecoveryFailedError,
    RecoveryReport,
    execute_with_recovery,
)
from repro.recovery.policy import RecoveryPolicy

__all__ = ["Served", "compile_plan", "escalation", "serve"]

#: Failures that hand a request to its next stage.
_ESCALATES = (FaultError, RoutingStalledError, RecoveryFailedError)


@dataclass
class Served:
    """Outcome of one :func:`serve` call."""

    #: The tier (or pipeline) whose run produced ``stats``.
    algorithm: str
    #: The resolved request's tier, before any fault degradation.
    requested: str
    stats: TransferStats
    #: True when the plan came out of the cache rather than a compile.
    cache_hit: bool
    #: How the request was served (see the module docstring).
    resolved: str
    #: Tiers the degrade stage skipped, then each tier whose stage failed.
    skipped: tuple[str, ...] = ()
    #: Recovery accounting when a recover stage ran (its ``resolved`` is
    #: ``"ladder"`` when the ladder finished the request).
    recovery: RecoveryReport | None = None
    #: Final-state verification verdict when the recover stage served
    #: the request (``None`` otherwise).
    verified: bool | None = None


def escalation(
    resolved: ResolvedRequest, recovery: RecoveryPolicy | None = None
) -> tuple[str, ...]:
    """The ordered stages that serve ``resolved`` (see the module table)."""
    if resolved.faults is None:
        return ("replay",)
    if resolved.workload is not None:
        return ("recover",)
    if recovery is not None and resolved.topology == "cube":
        return ("recover", "ladder")
    return ("degrade", "replay", "ladder")


def serve(
    resolved: ResolvedRequest,
    *,
    cache: PlanCache | None = None,
    recovery: RecoveryPolicy | None = None,
    observer=None,
) -> Served:
    """Serve ``resolved`` through its :func:`escalation` stages.

    ``cache`` shares compiled plans across calls (``None`` compiles
    every time).  ``observer`` is installed on every network the call
    creates; an :class:`~repro.obs.instrumentation.Instrumentation` hub
    also gets a ``serve`` span annotated with the stages, tier, cache
    outcome and resolution, and — inside a request trace — one
    ``plan-resolve`` and one ``execute`` span per stage that runs.

    Raises :class:`~repro.machine.faults.DisconnectedCubeError` up front
    for a faulted transpose whose surviving links are not strongly
    connected, and the last stage's error when every stage failed.
    """
    run = _Run(resolved, cache, recovery, observer)
    stages = escalation(resolved, recovery)
    faults = run.faults
    if "ladder" in stages and not faults.surviving_connected():
        raise DisconnectedCubeError(
            "the surviving topology is not strongly connected; no "
            f"transpose can complete ({faults.describe()})"
        )
    # The attr is named fault_spec, not faults: on_fault calls
    # span.count("faults") on every open span.
    with run.instr.span(
        "serve", category="run", requested=resolved.algorithm,
        stages=list(stages),
        fault_spec=None if faults is None else faults.describe(),
    ) as span:
        for stage in stages[:-1]:
            try:
                served = _STAGES[stage](run)
            except _ESCALATES as exc:
                span.annotate(**{f"{stage}_failed": type(exc).__name__})
                run.report = getattr(exc, "report", run.report)
                run.skipped += (run.tier,)
                continue
            if served is not None:
                break
        else:
            served = _STAGES[stages[-1]](run)
        span.annotate(
            tier=served.algorithm, skipped=list(served.skipped),
            cache_hit=served.cache_hit, resolved=served.resolved,
        )
    return served


def compile_plan(resolved: ResolvedRequest, tier: str | None = None):
    """Compile ``resolved``'s :class:`~repro.plans.ir.CompiledPlan`.

    ``tier`` overrides the resolved tier (the degrade stage's survivor).
    This is the one compile recipe, so a plan key names one document
    whoever compiles it: :func:`serve` on a cache miss, or
    ``repro plan``.
    """
    if resolved.workload is not None:
        return resolved.pipeline().compile(resolved.params)[0]
    from repro.plans.recorder import capture_transpose, synthetic_matrix
    from repro.topology import parse_topology

    _, plan = capture_transpose(
        resolved.params, synthetic_matrix(resolved.before),
        resolved.target, algorithm=tier or resolved.algorithm,
        topology=parse_topology(resolved.topology, resolved.params.n),
    )
    return plan


class _Run:
    """State one :func:`serve` call threads through its stages."""

    def __init__(self, resolved, cache, recovery, observer) -> None:
        from repro.topology import parse_topology

        self.resolved = resolved
        self.cache = cache
        self.recovery = recovery
        self.observer = observer
        self.instr = (
            observer
            if isinstance(observer, Instrumentation)
            else NULL_INSTRUMENTATION
        )
        # Parsed and forked per call: no Topology or FaultPlan instance
        # (nor their lookup caches) is shared between machines.
        self.topo = parse_topology(resolved.topology, resolved.params.n)
        self.faults = None if resolved.faults is None else resolved.faults.fork()
        self.tier = resolved.algorithm
        self.skipped: tuple[str, ...] = ()
        self.cache_hit = False
        self.report: RecoveryReport | None = None

    def network(self) -> CubeNetwork:
        network = CubeNetwork(
            self.resolved.params, faults=self.faults, topology=self.topo
        )
        if self.observer is not None:
            network.observer = self.observer
        return network

    def execute(self, stage: str):
        if not self.instr.traced:
            return nullcontext()
        return self.instr.span("execute", category="execute", stage=stage)

    def plan(self):
        """The current tier's plan, from the cache or freshly compiled."""
        resolved = self.resolved
        key = resolved.key
        if self.tier != resolved.algorithm:
            key = plan_key(
                resolved.params, resolved.before, resolved.target, self.tier,
                topology=self.topo.spec,
            )
        traced = self.instr.traced
        with (
            self.instr.span("plan-resolve", category="plan", key=key[:16])
            if traced
            else nullcontext()
        ) as span:
            compile = partial(compile_plan, resolved, self.tier)
            if self.cache is None:
                plan, self.cache_hit = compile(), False
            else:
                plan, self.cache_hit = self.cache.get_or_compile(
                    key, compile,
                    observer=self.instr if self.instr.enabled else None,
                )
            if traced:
                span.annotate(cache_hit=self.cache_hit)
        return plan

    def served(self, algorithm, stats, resolved, **extra) -> Served:
        return Served(
            algorithm=algorithm, requested=self.resolved.algorithm,
            stats=stats, cache_hit=self.cache_hit, resolved=resolved,
            skipped=self.skipped, **extra,
        )


def _degrade(run: _Run) -> None:
    from repro.transpose.planner import degrade_strategy

    if run.topo.name == "cube":
        run.tier, run.skipped = degrade_strategy(
            run.tier, run.resolved.params.n, run.faults
        )


def _replay(run: _Run) -> Served:
    plan = run.plan()
    network = run.network()
    with run.execute("replay"):
        replay_plan(plan, network)
    return run.served(
        plan.algorithm, network.stats, "degraded" if run.skipped else "clean"
    )


def _recover(run: _Run) -> Served:
    plan = run.plan()
    network = run.network()
    with run.execute("recover"):
        outcome = execute_with_recovery(
            plan, network, policy=run.recovery or RecoveryPolicy()
        )
    report = run.report = outcome.report
    if not outcome.verified:
        raise RecoveryFailedError(
            "the recovered run failed its final-state verification", report
        )
    return run.served(
        plan.algorithm, network.stats, report.resolved, recovery=report,
        verified=True,
    )


def _ladder(run: _Run) -> Served:
    from repro.plans.recorder import synthetic_matrix
    from repro.transpose.planner import transpose

    resolved = run.resolved
    if run.report is not None:
        run.report.resolved = "ladder"
    run.instr.recovery("ladder", aborted=run.skipped[-1])
    network = run.network()
    with run.execute("ladder"):
        result = transpose(
            network, synthetic_matrix(resolved.before), resolved.after,
            algorithm=resolved.algorithm,
        )
    return run.served(
        result.algorithm, network.stats, "ladder", recovery=run.report
    )


_STAGES = {
    "degrade": _degrade,
    "replay": _replay,
    "recover": _recover,
    "ladder": _ladder,
}
