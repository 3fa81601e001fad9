"""The serving layer: multi-tenant transpose serving over the simulator.

Turns the one-shot pipeline (plan → execute → exit) into a long-lived
subsystem: a pool of worker threads, each owning a simulated cube
machine, drains a priority admission queue of tenant-attributed
transpose requests, sharing one thread-safe plan cache
(compile-once, serve-many) and shedding load past explicit high-water
marks.  See ``docs/service.md`` for the architecture and policies.

The serving layer is also self-healing (``docs/resilience.md``): a
:class:`~repro.service.resilience.Supervisor` replaces crashed or hung
workers and re-dispatches their in-flight requests under a bounded
retry budget, a per-key :class:`~repro.service.resilience.CircuitBreaker`
sheds known-bad work at admission, and a
:class:`~repro.service.resilience.BrownoutController` degrades service
gracefully under sustained overload.
"""

from repro.service.chaos import (
    ChaosReport,
    ServiceChaosSpec,
    run_service_chaos,
)
from repro.service.loadgen import (
    LoadReport,
    LoadSpec,
    build_workload,
    deterministic_counters,
    drive,
    run_loadgen,
    solo_fingerprint,
)
from repro.service.queue import AdmissionPolicy, AdmissionQueue, QueueEntry
from repro.service.request import (
    AdmissionRejectedError,
    DeadlineExceededError,
    ServeOutcome,
    ServiceError,
    TransposeRequest,
    stats_fingerprint,
)
from repro.service.resilience import (
    BreakerPolicy,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    PoisonRequestError,
    RetryBudget,
    RetryBudgetExhaustedError,
    ServerStoppedError,
    Supervisor,
    WorkerCrashed,
)
from repro.service.scheduler import (
    PendingResult,
    ResolvedRequest,
    Scheduler,
    resolve_request,
)
from repro.service.server import (
    ServerConfig,
    ServerReport,
    TransposeServer,
    percentile,
)
from repro.service.worker import Worker

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "AdmissionRejectedError",
    "BreakerPolicy",
    "BrownoutController",
    "BrownoutPolicy",
    "ChaosReport",
    "CircuitBreaker",
    "DeadlineExceededError",
    "LoadReport",
    "LoadSpec",
    "PendingResult",
    "PoisonRequestError",
    "QueueEntry",
    "ResolvedRequest",
    "RetryBudget",
    "RetryBudgetExhaustedError",
    "Scheduler",
    "ServeOutcome",
    "ServerConfig",
    "ServerReport",
    "ServerStoppedError",
    "ServiceChaosSpec",
    "ServiceError",
    "Supervisor",
    "TransposeRequest",
    "TransposeServer",
    "Worker",
    "WorkerCrashed",
    "build_workload",
    "deterministic_counters",
    "drive",
    "percentile",
    "resolve_request",
    "run_loadgen",
    "run_service_chaos",
    "solo_fingerprint",
    "stats_fingerprint",
]
