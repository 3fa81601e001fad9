"""The transpose server: pool lifecycle, aggregation, and the SLO report.

:class:`TransposeServer` wires the pieces together: one thread-safe
:class:`~repro.plans.cache.PlanCache`, one
:class:`~repro.service.scheduler.Scheduler` (admission queue + plan-key
resolution), and ``workers`` serving threads, each with a private
instrumentation hub.  Submission is synchronous admission control —
shed requests raise :class:`~repro.service.request.AdmissionRejectedError`
before anything queues — and admitted requests return a
:class:`~repro.service.scheduler.PendingResult`.

Aggregation happens at report time, not on the hot path: worker
registries are folded into one
:class:`~repro.obs.metrics.MetricsRegistry` via ``merge`` (counters
add, histograms concatenate), and every outcome is kept so the report
can compute the serving SLOs — p50/p95/p99 latency, deadline-miss
rate, cache-hit rate, per-tenant admission statistics.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Mapping

from repro.obs.instrumentation import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.ops import BurnRateTracker, MetricsExporter
from repro.obs.trace import TraceContext, merged_trace_document
from repro.plans.batch import strict_from_dict
from repro.plans.cache import PlanCache
from repro.service.queue import AdmissionPolicy
from repro.service.request import (
    AdmissionRejectedError,
    ServeOutcome,
    TransposeRequest,
)
from repro.service.resilience import (
    BreakerPolicy,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    RetryBudget,
    ServerStoppedError,
    Supervisor,
)
from repro.service.scheduler import PendingResult, Scheduler, resolve_request
from repro.service.worker import Worker

__all__ = ["ServerConfig", "ServerReport", "TransposeServer", "percentile"]


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) by nearest-rank on sorted values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs; see :class:`~repro.service.queue.AdmissionPolicy`
    for the shedding gates."""

    workers: int = 2
    queue_capacity: int = 64
    tenant_pending: int | None = 16
    tenant_rate: float | None = None
    rate_burst: int | None = None
    max_batch: int = 4
    cache_capacity: int = 256
    cache_dir: str | None = None
    #: ``RecoveryPolicy.from_spec`` string for faulted requests
    #: (``None`` serves them through the restart ladder instead).
    recovery: str | None = "every=4"
    #: Arm request-scoped tracing: mint a TraceContext per submission
    #: and run worker hubs with the wall-clock axis and phase spans on.
    trace: bool = False
    #: Per-worker flight-recorder ring size (spans + events retained).
    flight_capacity: int = 256
    #: Serve Prometheus text on ``GET /metrics`` at this port while the
    #: server runs (``0`` binds an ephemeral port; ``None`` disables).
    metrics_port: int | None = None
    #: Availability objective the burn-rate tracker alerts against.
    slo_objective: float = 0.99
    #: Request-count window for the burn-rate tracker.
    slo_window: int = 100
    #: Re-dispatch attempts per request after a worker death (0 turns
    #: retries off; the victim request fails on first kill).
    retries: int = 2
    #: Base/backoff-jitter/seed for the retry schedule
    #: (:class:`~repro.service.resilience.RetryBudget`).
    retry_backoff: float = 0.05
    retry_jitter: float = 0.5
    retry_seed: int = 0
    #: Per-request watchdog: a worker executing one request longer than
    #: this many wall seconds is declared hung (``None`` disables).
    watchdog: float | None = None
    #: Run the supervisor thread.  ``None`` = auto: on when retries or
    #: the watchdog could ever act (``retries > 0`` or ``watchdog``).
    supervise: bool | None = None
    #: Consecutive worker kills before a request is quarantined.
    poison_threshold: int = 2
    #: ``BreakerPolicy.from_spec`` string (``None`` = no breaker).
    breaker: str | None = None
    #: ``BrownoutPolicy.from_spec`` string (``None`` = no brownout).
    brownout: str | None = None
    #: Supervisor scan period in seconds.
    supervisor_interval: float = 0.02

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("server needs at least one worker")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.watchdog is not None and self.watchdog <= 0:
            raise ValueError("watchdog must be positive seconds")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be at least 1")
        # Parse the policy specs now so a typo is an input error at
        # config time, not a traceback when the server is built.
        if self.breaker is not None:
            BreakerPolicy.from_spec(self.breaker)
        if self.brownout is not None:
            BrownoutPolicy.from_spec(self.brownout)

    @property
    def supervised(self) -> bool:
        if self.supervise is not None:
            return self.supervise
        return self.retries > 0 or self.watchdog is not None

    @classmethod
    def from_dict(cls, d: Mapping) -> "ServerConfig":
        return strict_from_dict(cls, d, "server config")

    def admission_policy(self) -> AdmissionPolicy:
        return AdmissionPolicy(
            capacity=self.queue_capacity,
            tenant_pending=self.tenant_pending,
            tenant_rate=self.tenant_rate,
            rate_burst=self.rate_burst,
        )


@dataclass
class ServerReport:
    """JSON-safe aggregate of one serving session."""

    outcomes: list[ServeOutcome]
    rejections: dict[str, dict[str, int]]  # tenant -> reason -> count
    cache: dict
    queue: dict
    workers: int
    wall_seconds: float
    #: Burn-rate tracker snapshot (None when the server ran without one).
    burn: dict | None = None
    #: Flight-recorder dumps from requests that ended badly.
    flight_reports: list = field(default_factory=list)
    #: Supervisor / breaker / brownout snapshots (None when the server
    #: ran with every resilience feature off).
    resilience: dict | None = None

    def per_tenant(self) -> dict:
        tenants: dict[str, dict] = {}
        waits: dict[str, list[float]] = {}
        execs: dict[str, list[float]] = {}
        for tenant, reasons in self.rejections.items():
            t = tenants.setdefault(tenant, self._blank())
            t["rejected"] = sum(reasons.values())
            t["rejected_by_reason"] = dict(reasons)
        for o in self.outcomes:
            t = tenants.setdefault(o.tenant, self._blank())
            t["admitted"] += 1
            if o.status == "served":
                t["served"] += 1
                waits.setdefault(o.tenant, []).append(o.queue_wait_s)
                execs.setdefault(o.tenant, []).append(o.execute_s)
                if o.cache_hit:
                    t["cache_hits"] += 1
            elif o.status == "deadline_missed":
                t["deadline_missed"] += 1
            else:
                t["failed"] += 1
        for tenant, t in tenants.items():
            t["latency_s"] = {
                "queue_wait": self._pcts(waits.get(tenant, [])),
                "execute": self._pcts(execs.get(tenant, [])),
            }
        return dict(sorted(tenants.items()))

    @staticmethod
    def _blank() -> dict:
        return {
            "admitted": 0,
            "served": 0,
            "cache_hits": 0,
            "deadline_missed": 0,
            "failed": 0,
            "rejected": 0,
            "rejected_by_reason": {},
        }

    def slo(self) -> dict:
        """The serving-layer SLO summary (see docs/service.md)."""
        served = [o for o in self.outcomes if o.status == "served"]
        totals = [o.total_s for o in served]
        waits = [o.queue_wait_s for o in served]
        execs = [o.execute_s for o in served]
        admitted = len(self.outcomes)
        rejected = sum(
            sum(reasons.values()) for reasons in self.rejections.values()
        )
        missed = sum(
            1 for o in self.outcomes if o.status == "deadline_missed"
        )
        hits = sum(1 for o in served if o.cache_hit)
        doc = {
            "requests": admitted + rejected,
            "admitted": admitted,
            "rejected": rejected,
            "served": len(served),
            "failed": sum(1 for o in self.outcomes if o.status == "failed"),
            "deadline_missed": missed,
            "deadline_miss_rate": missed / admitted if admitted else 0.0,
            "cache_hit_rate": hits / len(served) if served else 0.0,
            "throughput_rps": (
                len(served) / self.wall_seconds if self.wall_seconds else 0.0
            ),
            "latency_s": {
                "total": self._pcts(totals),
                "queue_wait": self._pcts(waits),
                "execute": self._pcts(execs),
            },
        }
        # Terminal statuses the resilience layer introduces, zero-
        # suppressed so pre-existing pinned report shapes stay intact.
        for status in ("poisoned", "stopped"):
            count = sum(1 for o in self.outcomes if o.status == status)
            if count:
                doc[status] = count
        retried = sum(1 for o in self.outcomes if o.attempts > 1)
        if retried:
            doc["retried"] = retried
        if self.burn is not None:
            doc["burn"] = self.burn
        return doc

    @staticmethod
    def _pcts(values: list[float]) -> dict:
        return {
            "p50": percentile(values, 50),
            "p95": percentile(values, 95),
            "p99": percentile(values, 99),
            "max": max(values) if values else 0.0,
        }

    def as_dict(self, *, with_outcomes: bool = False) -> dict:
        doc = {
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "slo": self.slo(),
            "tenants": self.per_tenant(),
            "cache": self.cache,
            "queue": self.queue,
            "resilience": self.resilience,
        }
        if self.flight_reports:
            doc["flight_reports"] = list(self.flight_reports)
        if with_outcomes:
            doc["outcomes"] = [o.as_dict() for o in self.outcomes]
        return doc


class TransposeServer:
    """A pool of simulated cube machines behind an admission queue."""

    def __init__(
        self, config: ServerConfig | None = None, *, clock=None
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.cache = PlanCache(
            capacity=self.config.cache_capacity, path=self.config.cache_dir
        )
        self.scheduler = Scheduler(
            self.config.admission_policy(),
            max_batch=self.config.max_batch,
            clock=clock,
        )
        recovery = None
        if self.config.recovery is not None:
            from repro.recovery import RecoveryPolicy

            recovery = RecoveryPolicy.from_spec(self.config.recovery)
        self._recovery = recovery
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._outstanding = 0
        self._outcomes: list[ServeOutcome] = []
        self._rejections: dict[str, dict[str, int]] = {}
        self._started_at: float | None = None
        self._wall_seconds = 0.0
        self._running = False
        # The clock the admission queue timestamps entries with; trace
        # resolve times must be measured on the same one, or backdated
        # wall intervals would mix time bases.
        import time as _time

        self._clock = clock if clock is not None else _time.monotonic
        self._trace_seq = itertools.count()
        self.burn = BurnRateTracker(
            self.config.slo_objective, window=self.config.slo_window
        )
        self.exporter = (
            MetricsExporter(self.metrics, port=self.config.metrics_port)
            if self.config.metrics_port is not None
            else None
        )
        #: Server-level telemetry hub: supervisor/breaker/brownout
        #: counters and events live here, folded into :meth:`metrics`
        #: and exposed as a ``supervisor`` trace track.
        self.instr = Instrumentation()
        #: Chaos injection hook handed to every worker (including
        #: supervisor replacements); set before :meth:`start`.
        self.chaos = None
        self._worker_clock = clock
        self._pool_lock = threading.Lock()
        self._wid = itertools.count(self.config.workers)
        self._base_max_batch = self.config.max_batch
        self.retired: list[Worker] = []
        self.breaker = (
            CircuitBreaker(
                BreakerPolicy.from_spec(self.config.breaker),
                clock=self._clock,
                instr=self.instr,
            )
            if self.config.breaker is not None
            else None
        )
        self.brownout = (
            BrownoutController(
                BrownoutPolicy.from_spec(self.config.brownout),
                on_change=self._apply_brownout,
                instr=self.instr,
            )
            if self.config.brownout is not None
            else None
        )
        self.supervisor = (
            Supervisor(
                self,
                retry=RetryBudget(
                    attempts=self.config.retries,
                    backoff=self.config.retry_backoff,
                    jitter=self.config.retry_jitter,
                    seed=self.config.retry_seed,
                ),
                watchdog=self.config.watchdog,
                poison_threshold=self.config.poison_threshold,
                interval=self.config.supervisor_interval,
                clock=self._clock,
            )
            if self.config.supervised
            else None
        )
        self.workers = [
            self._make_worker(wid) for wid in range(self.config.workers)
        ]

    def _make_worker(self, wid: int) -> Worker:
        kwargs = (
            {} if self._worker_clock is None else {"clock": self._worker_clock}
        )
        tracing = self.config.trace
        if self.brownout is not None and self.brownout.level >= 3:
            tracing = False  # the disable-tracing rung is in force
        return Worker(
            wid,
            self.scheduler,
            self.cache,
            recovery=self._recovery,
            on_outcome=self._record,
            on_death=(
                self.supervisor.notify_death
                if self.supervisor is not None
                else None
            ),
            chaos=self.chaos,
            trace=tracing,
            flight_capacity=self.config.flight_capacity,
            **kwargs,
        )

    def _spawn_worker(self) -> Worker | None:
        """Supervisor-side: add a replacement worker to the live pool."""
        if not self._running or self.scheduler.queue.closed:
            return None
        worker = self._make_worker(next(self._wid))
        with self._pool_lock:
            self.workers.append(worker)
        worker.start()
        return worker

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "TransposeServer":
        self._started_at = perf_counter()
        self._running = True
        if self.exporter is not None:
            self.exporter.start()
        with self._pool_lock:
            pool = list(self.workers)
        for worker in pool:
            worker.start()
        if self.supervisor is not None:
            self.supervisor.start()
        return self

    def stop(self, *, wait: bool = True) -> None:
        """Close admission; optionally wait for queued work to finish.

        Whatever happens — drain timeout, dead pool, work still in
        flight with ``wait=False`` — every outstanding
        :class:`PendingResult` is resolved with a terminal
        ``"stopped"`` outcome before this returns, so no client blocks
        forever on a request the pool will never serve.
        """
        if wait:
            self.drain()
        self._running = False
        self.scheduler.close()
        deadline = perf_counter() + 30.0
        while True:
            with self._pool_lock:
                pool = list(self.workers)
            alive = [
                w for w in pool if w.is_alive() and not w.abandoned
            ]
            if not alive or perf_counter() >= deadline:
                break
            for worker in alive:
                worker.join(timeout=max(0.01, deadline - perf_counter()))
        if self.supervisor is not None:
            self.supervisor.stop()
        # stop(wait=False), drain timeouts, and retries scheduled past
        # shutdown all leave resolved-less slots behind; abort them.
        self._abort_outstanding("the server stopped")
        if self.exporter is not None:
            self.exporter.stop()
        if self._started_at is not None:
            self._wall_seconds = perf_counter() - self._started_at
            self._started_at = None

    def set_chaos(self, hook) -> None:
        """Install a chaos hook on the pool (and future replacements)."""
        self.chaos = hook
        with self._pool_lock:
            for worker in self.workers:
                worker.chaos = hook

    def __enter__(self) -> "TransposeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission ----------------------------------------------------------

    def submit(
        self, request: TransposeRequest, now: float | None = None
    ) -> PendingResult:
        """Resolve + admit one request (both synchronous).

        Raises :class:`ValueError` on malformed problems and
        :class:`AdmissionRejectedError` when a shedding gate fires; the
        rejection is counted per tenant and reason either way the
        caller handles it.
        """
        if self.config.trace:
            resolve_started = self._clock()
            resolved = resolve_request(request)
            # Trace ids come off a plain counter, not a UUID: the same
            # workload replays to the same ids, which is what lets the
            # trace tests assert exact shapes.
            context = TraceContext(
                trace_id=f"req-{next(self._trace_seq):06d}",
                request_id=request.request_id,
                tenant=request.tenant,
                priority=request.priority,
            )
            resolved = replace(
                resolved,
                trace=context,
                resolve_s=max(0.0, self._clock() - resolve_started),
            )
        else:
            resolved = resolve_request(request)
        with self._lock:
            try:
                if self.brownout is not None and not self.brownout.admits(
                    request.priority
                ):
                    raise AdmissionRejectedError(
                        "brownout",
                        request.tenant,
                        f"degradation level {self.brownout.level}",
                    )
                if self.breaker is not None and not self.breaker.allow(
                    resolved.key, request.tenant
                ):
                    raise AdmissionRejectedError(
                        "breaker_open",
                        request.tenant,
                        f"circuit open for {self.breaker.key_for(resolved.key, request.tenant)[:16]!r}",
                    )
                pending = self.scheduler.submit(resolved, now)
            except AdmissionRejectedError as exc:
                tenant = self._rejections.setdefault(request.tenant, {})
                tenant[exc.reason] = tenant.get(exc.reason, 0) + 1
                raise
            self._outstanding += 1
        return pending

    def _record(self, outcome: ServeOutcome) -> None:
        self.burn.record_outcome(outcome)
        if self.breaker is not None and outcome.status != "stopped":
            # "stopped" says nothing about the work itself; everything
            # else feeds the key's failure window.
            self.breaker.record(
                outcome.key,
                outcome.tenant,
                outcome.status not in ("failed", "poisoned"),
            )
        if self.brownout is not None:
            self.brownout.observe(outcome)
        with self._lock:
            self._outcomes.append(outcome)
            self._outstanding -= 1
            if self._outstanding == 0:
                self._drained.notify_all()

    def _apply_brownout(self, level: int) -> None:
        """Make the ladder's rungs real on the scheduler and pool."""
        policy = self.brownout.policy
        self.scheduler.max_batch = self._base_max_batch * (
            policy.widen if level >= 2 else 1
        )
        tracing = self.config.trace and level < 3
        with self._pool_lock:
            for worker in self.workers:
                worker.tracing = tracing

    def _pool_dead(self) -> bool:
        """No started worker can make progress and nobody will fix it."""
        if self.supervisor is not None and self.supervisor.is_alive():
            return False
        with self._pool_lock:
            pool = list(self.workers)
        started = [w for w in pool if w.ident is not None]
        return bool(started) and all(
            w.finished or not w.is_alive() for w in started
        ) and len(started) == len(pool)

    def _abort_outstanding(self, reason: str) -> int:
        """Resolve every outstanding slot with a ``"stopped"`` outcome."""

        def make(entry) -> ServeOutcome:
            request = entry.request
            error = ServerStoppedError(
                request.request_id, request.tenant, reason
            )
            return ServeOutcome(
                request_id=request.request_id,
                tenant=request.tenant,
                status="stopped",
                key=entry.key,
                attempts=entry.attempt + 1,
                error=f"{type(error).__name__}: {error}",
            )

        aborted = self.scheduler.abort_all(make)
        for outcome in aborted:
            self._record(outcome)
        if aborted:
            self.instr.event(
                "abort-outstanding", "service",
                count=len(aborted), reason=reason,
            )
        return len(aborted)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted request has a terminal outcome.

        On timeout — or when the whole pool is dead with nothing left
        to revive it (resilience off) — the remaining outstanding
        requests are resolved with typed ``"stopped"`` outcomes
        (:class:`~repro.service.resilience.ServerStoppedError`) and
        ``False`` is returned: a failed drain never leaves a
        :meth:`PendingResult.result` blocked forever.
        """
        deadline = None if timeout is None else perf_counter() + timeout
        while True:
            with self._lock:
                if self._outstanding == 0:
                    return True
                remaining = (
                    None if deadline is None else deadline - perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    break
                wait = 0.05 if remaining is None else min(0.05, remaining)
                self._drained.wait(wait)
                if self._outstanding == 0:
                    return True
            if self._pool_dead():
                self._abort_outstanding(
                    "every worker died and supervision is off"
                )
                return False
        self._abort_outstanding(f"drain timed out after {timeout:g}s")
        return False

    # -- reporting -----------------------------------------------------------

    def _all_workers(self) -> list[Worker]:
        """Live pool plus supervisor-retired workers, in wid order."""
        with self._pool_lock:
            return sorted(
                [*self.workers, *self.retired], key=lambda w: w.wid
            )

    def metrics(self) -> MetricsRegistry:
        """One registry folding every worker's instruments together.

        Retired (crashed/hung) workers keep contributing the counters
        they earned before dying, and the server's own hub contributes
        the supervisor/breaker/brownout instruments.
        """
        merged = MetricsRegistry()
        for worker in self._all_workers():
            merged.merge(worker.instr.metrics)
        merged.merge(self.instr.metrics)
        return merged

    def resilience_snapshot(self) -> dict | None:
        """Supervisor/breaker/brownout state (None with everything off)."""
        if (
            self.supervisor is None
            and self.breaker is None
            and self.brownout is None
        ):
            return None
        doc: dict = {}
        if self.supervisor is not None:
            doc["supervisor"] = self.supervisor.snapshot()
        if self.breaker is not None:
            doc["breaker"] = self.breaker.snapshot()
        if self.brownout is not None:
            doc["brownout"] = self.brownout.snapshot()
        return doc

    def report(self) -> ServerReport:
        wall = self._wall_seconds
        if self._started_at is not None:
            wall = perf_counter() - self._started_at
        everyone = self._all_workers()
        with self._lock:
            return ServerReport(
                outcomes=list(self._outcomes),
                rejections={
                    t: dict(r) for t, r in self._rejections.items()
                },
                cache=self.cache.counters(),
                queue=self.scheduler.queue.snapshot(),
                workers=len(everyone),
                wall_seconds=wall,
                burn=self.burn.snapshot(),
                flight_reports=[
                    dump
                    for worker in everyone
                    for dump in worker.flight_reports
                ],
                resilience=self.resilience_snapshot(),
            )

    def trace_document(self) -> dict:
        """The merged dual-axis Chrome/Perfetto trace over all workers.

        Meaningful after :meth:`stop` (or at least a :meth:`drain`):
        worker hubs are single-threaded, so their span lists are read
        here, not on the hot path.  One track per worker on each axis
        (retired workers included), plus a ``supervisor`` track for
        the server hub's events when it recorded any.
        """
        tracks = [
            (f"worker-{w.wid}", w.instr.spans, w.instr.events)
            for w in self._all_workers()
        ]
        if self.instr.spans or self.instr.events:
            tracks.append(("supervisor", self.instr.spans, self.instr.events))
        return merged_trace_document(tracks)
