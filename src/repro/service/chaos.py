"""Service-level chaos: kill, hang, and poison the serving stack itself.

The engine chaos soak (``repro chaos``) batters the *simulated
machine* — link faults, corruption, node loss.  This module is its
serving-layer twin (``repro chaos --service``): under one seeded
schedule it kills worker threads mid-request, hangs them past the
watchdog, and injects crash/slow/poison *requests*, then checks the
invariant the resilience layer exists to uphold:

    every admitted request resolves **exactly once**, with a terminal
    outcome, and — when it completed — a bit-identical payload to a
    solo run.

Injection is cooperative: :class:`ChaosInjector` rides the worker's
``chaos`` hook, which is called inside the per-request try.  A plain
``Exception`` there becomes a ``"failed"`` outcome (a crash *request*);
a :class:`~repro.service.resilience.WorkerCrashed` escapes the handler
and takes the worker down (a worker *kill*); a ``sleep`` wedges the
worker under the supervisor's watchdog (a *hang*).  Draws are keyed on
``(seed, worker id, request id)`` so a schedule replays exactly — the
same workload with the same seed kills the same workers at the same
requests.

A poison request is marked in the workload itself: every execution
attempt of it kills its worker, which is what drives it into the
supervisor's :class:`~repro.service.resilience.PoisonRequestError`
quarantine.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.plans.batch import strict_from_dict
from repro.service.loadgen import LoadSpec, build_workload, solo_fingerprint
from repro.service.request import TransposeRequest
from repro.service.resilience import WorkerCrashed
from repro.service.server import ServerConfig, TransposeServer

__all__ = ["ChaosInjector", "ChaosReport", "ServiceChaosSpec", "run_service_chaos"]


@dataclass(frozen=True)
class ServiceChaosSpec:
    """One seeded service-chaos schedule."""

    seed: int = 11
    requests: int = 48
    tenants: int = 3
    shapes: int = 3
    n: int = 4
    machine: str = "cm"
    #: Probability a (worker, request) execution kills the worker.
    kill_rate: float = 0.08
    #: Probability an execution hangs for ``hang_seconds`` instead.
    hang_rate: float = 0.0
    hang_seconds: float = 0.3
    #: Probability a *request* is poisonous (kills every worker that
    #: ever executes it, until quarantined).
    poison_rate: float = 0.04
    #: Probability a request fails with a plain exception (a crash
    #: request — a request bug, not a worker death).
    crash_rate: float = 0.0
    #: Probability an execution is slowed by ``slow_seconds`` (stays
    #: under the watchdog; exercises latency, not supervision).
    slow_rate: float = 0.0
    slow_seconds: float = 0.02
    #: Served outcomes re-run solo for bit-identity (0 checks none).
    verify_sample: int = 6

    def __post_init__(self) -> None:
        for name in ("kill_rate", "hang_rate", "poison_rate", "crash_rate",
                     "slow_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.hang_seconds < 0 or self.slow_seconds < 0:
            raise ValueError("hang/slow durations must be non-negative")
        if self.requests < 1:
            raise ValueError("chaos needs at least one request")

    @classmethod
    def from_dict(cls, d: Mapping) -> "ServiceChaosSpec":
        return strict_from_dict(cls, d, "service chaos")

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def load_spec(self) -> LoadSpec:
        """The underlying seeded workload (no faults — chaos is ours)."""
        return LoadSpec(
            seed=self.seed,
            tenants=self.tenants,
            requests=self.requests,
            shapes=self.shapes,
            n=self.n,
            machine=self.machine,
            verify_sample=self.verify_sample,
        )

    def poison_ids(self, requests: list[TransposeRequest]) -> set[int]:
        """Deterministic poison marking over the workload."""
        rng = random.Random(self.seed ^ 0x90150)
        return {
            r.request_id
            for r in requests
            if self.poison_rate and rng.random() < self.poison_rate
        }


class ChaosInjector:
    """The worker-side hook applying one seeded chaos schedule.

    Stateless across calls except for the tallies: each (worker,
    request, attempt) draw is an independent seeded generator, so the
    schedule does not depend on thread interleaving.
    """

    def __init__(self, spec: ServiceChaosSpec, poison: set[int]) -> None:
        self.spec = spec
        self.poison = poison
        self.kills = 0
        self.hangs = 0
        self.crashes = 0

    def _rng(self, wid: int, request_id: int, attempt: int) -> random.Random:
        return random.Random(
            (self.spec.seed * 0x9E3779B1)
            ^ (wid * 0xC2B2AE35)
            ^ (request_id * 0x85EBCA77)
            ^ attempt
        )

    def __call__(self, worker, entry) -> None:
        request = entry.request
        if request.request_id in self.poison:
            self.kills += 1
            raise WorkerCrashed(
                f"poison request {request.request_id} killed worker "
                f"{worker.wid}"
            )
        rng = self._rng(worker.wid, request.request_id, entry.attempt)
        draw = rng.random()
        spec = self.spec
        if draw < spec.kill_rate:
            self.kills += 1
            raise WorkerCrashed(
                f"chaos killed worker {worker.wid} during request "
                f"{request.request_id}"
            )
        draw -= spec.kill_rate
        if draw < spec.hang_rate:
            self.hangs += 1
            time.sleep(spec.hang_seconds)
            return
        draw -= spec.hang_rate
        if draw < spec.crash_rate:
            self.crashes += 1
            raise RuntimeError(
                f"chaos crash request {request.request_id}"
            )
        draw -= spec.crash_rate
        if draw < spec.slow_rate:
            time.sleep(spec.slow_seconds)


@dataclass
class ChaosReport:
    """What the soak did and whether the exactly-once invariant held."""

    spec: ServiceChaosSpec
    admitted: int
    outcomes: int
    by_status: dict
    kills: int
    hangs: int
    crash_requests: int
    #: Workers the pool lost and never replaced (nonzero proves the
    #: run needed — and lacked — supervision).
    workers_lost: int
    workers_spawned: int
    stuck_futures: int
    double_resolved: int
    fingerprint_checked: int
    fingerprint_mismatches: int
    poison_ids: list
    poison_unquarantined: int
    resilience: dict | None
    supervisor_events: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """The soak invariant: exactly-once, terminal, bit-identical."""
        return (
            self.outcomes == self.admitted
            and self.stuck_futures == 0
            and self.double_resolved == 0
            and self.fingerprint_mismatches == 0
            and self.poison_unquarantined == 0
        )

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "admitted": self.admitted,
            "outcomes": self.outcomes,
            "by_status": self.by_status,
            "kills": self.kills,
            "hangs": self.hangs,
            "crash_requests": self.crash_requests,
            "workers_lost": self.workers_lost,
            "workers_spawned": self.workers_spawned,
            "stuck_futures": self.stuck_futures,
            "double_resolved": self.double_resolved,
            "fingerprint_checked": self.fingerprint_checked,
            "fingerprint_mismatches": self.fingerprint_mismatches,
            "poison_ids": self.poison_ids,
            "poison_unquarantined": self.poison_unquarantined,
            "resilience": self.resilience,
            "wall_seconds": self.wall_seconds,
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = ", ".join(
            f"{count} {name}" for name, count in sorted(self.by_status.items())
        )
        return (
            f"{self.admitted} admitted -> {self.outcomes} outcome(s) "
            f"({status}); {self.kills} worker kill(s), {self.hangs} "
            f"hang(s), {self.workers_spawned} replacement(s), "
            f"{self.workers_lost} worker(s) lost; invariants: "
            f"{self.stuck_futures} stuck, {self.double_resolved} "
            f"double-resolved, {self.fingerprint_mismatches}/"
            f"{self.fingerprint_checked} fingerprint mismatch(es) -> "
            f"{'OK' if self.ok else 'VIOLATED'}"
        )


def run_service_chaos(
    spec: ServiceChaosSpec, config: ServerConfig | None = None
) -> ChaosReport:
    """One seeded service-chaos soak against a live server."""
    from time import perf_counter

    if config is None:
        config = ServerConfig(workers=4, watchdog=0.15)
    requests = build_workload(spec.load_spec())
    poison = spec.poison_ids(requests)
    injector = ChaosInjector(spec, poison)
    server = TransposeServer(config)
    server.set_chaos(injector)
    started = perf_counter()
    pendings: list = []
    admitted: list[TransposeRequest] = []
    with server:
        for request in requests:
            try:
                pendings.append(server.submit(request))
                admitted.append(request)
            except Exception:
                continue  # shed at admission: not part of the invariant
        # Bounded: a healthy run drains fast; a broken one must not
        # wedge the soak, so the drain deadline scales with the load.
        budget = 20.0 + 0.5 * len(admitted) + 4.0 * spec.hang_seconds
        server.drain(timeout=budget)
    wall = perf_counter() - started

    # -- invariants ----------------------------------------------------------
    stuck = sum(1 for p in pendings if not p.done())
    results = [p.result(timeout=0.0) for p in pendings if p.done()]
    # Exactly-once: a double resolution would either overwrite (made
    # impossible by PendingResult's first-wins lock) or surface as more
    # outcomes recorded than requests admitted.
    report = server.report()
    double = max(0, len(report.outcomes) - len(admitted))
    by_status: dict[str, int] = {}
    for outcome in results:
        by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
    by_id = {r.request_id: r for r in admitted}
    served = [o for o in results if o.status == "served"]
    rng = random.Random(spec.seed + 99)
    sample = (
        served
        if len(served) <= spec.verify_sample
        else rng.sample(served, spec.verify_sample)
    )
    mismatches = 0
    for outcome in sample:
        if solo_fingerprint(by_id[outcome.request_id]) != outcome.fingerprint:
            mismatches += 1
    # Poison requests must end quarantined (or failed by an exhausted
    # budget when the threshold never triggers) — never served, never
    # unresolved.
    unquarantined = sum(
        1
        for o in results
        if o.request_id in poison and o.status == "served"
    )
    with server._pool_lock:
        pool = list(server.workers)
        retired = list(server.retired)
    spawned = max(0, len(pool) + len(retired) - config.workers)
    # Workers that died and were never replaced: dead members still in
    # the pool (a supervisor would have retired and replaced them).
    lost = sum(1 for w in pool if w.dead)
    supervisor = server.supervisor
    return ChaosReport(
        spec=spec,
        admitted=len(admitted),
        outcomes=len(report.outcomes),
        by_status=by_status,
        kills=injector.kills,
        hangs=injector.hangs,
        crash_requests=injector.crashes,
        workers_lost=lost,
        workers_spawned=spawned,
        stuck_futures=stuck,
        double_resolved=double,
        fingerprint_checked=len(sample),
        fingerprint_mismatches=mismatches,
        poison_ids=sorted(poison),
        poison_unquarantined=unquarantined,
        resilience=report.resilience,
        supervisor_events=list(supervisor.log) if supervisor else [],
        wall_seconds=wall,
    )
