"""Serve many transpose requests through the plan cache.

This is the plan-once/replay-many surface, and home of the one request
resolver (:func:`resolve_request`) the batch runner, the server and the
load generator share: each request is resolved to a tier and a content
address (:func:`~repro.plans.cache.plan_key`), then served by
:func:`repro.plans.serve.serve` — on a miss the schedule is captured
once from a real run, on a hit the cached
:class:`~repro.plans.ir.CompiledPlan` replays on a fresh network with no
planning and no payload movement.  A second batch over the same request
set is therefore served entirely from cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Mapping

from repro.layout.fields import Layout
from repro.machine.faults import FaultPlan
from repro.machine.params import MachineParams
from repro.plans.cache import PlanCache, plan_key

__all__ = [
    "BatchOutcome",
    "BatchReport",
    "BatchRequest",
    "ResolvedRequest",
    "resolve_problem",
    "resolve_request",
    "run_batch",
    "strict_from_dict",
]


def strict_from_dict(cls, d: Mapping, what: str):
    """``cls(**d)`` for dataclass ``cls``, refusing keys it has no field for.

    The one parser behind every request/spec/config ``from_dict``, so a
    typo'd key fails loudly instead of silently taking a default.
    """
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(
            f"unknown {what} field(s): {', '.join(sorted(unknown))}"
        )
    return cls(**d)


def resolve_problem(
    n: int, elements: int, layout: str
) -> tuple[Layout, Layout | None]:
    """Map CLI-style problem parameters to a ``(before, after)`` pair.

    Mirrors the ``run`` subcommand exactly: ``after`` is ``None`` for a
    square matrix (planner default), the mirrored layout otherwise.
    Raises :class:`ValueError` with the CLI's own messages on bad input.
    """
    from repro.layout import partition as pt

    bits = elements.bit_length() - 1
    if elements <= 0 or 1 << bits != elements:
        raise ValueError("element count must be a power of two")
    p = bits // 2
    q = bits - p
    if layout == "2d" and n % 2:
        raise ValueError("2d layout needs an even cube dimension")
    partitions = {
        "2d": lambda r, c: pt.two_dim_cyclic(r, c, n // 2, n // 2),
        "1d-rows": lambda r, c: pt.row_consecutive(r, c, n),
        "1d-cols": lambda r, c: pt.column_cyclic(r, c, n),
    }
    if layout not in partitions:
        raise ValueError(f"unknown layout {layout!r}")
    partition = partitions[layout]
    return partition(p, q), None if p == q else partition(q, p)


@dataclass(frozen=True)
class BatchRequest:
    """One transpose request in CLI vocabulary."""

    #: Element count (power of two).  Optional for ``workload`` requests
    #: whose spec carries an explicit ``@RxC`` shape.
    elements: int = 0
    n: int = 6
    layout: str = "2d"
    machine: str = "ipsc"
    algorithm: str = "auto"
    tau: float = 1.0
    t_c: float = 1.0
    n_port: bool = False
    #: Optional fault scenario (``FaultPlan.from_spec`` syntax); faulted
    #: requests escalate through :func:`repro.plans.serve.serve`'s stages.
    faults: str | None = None
    #: Interconnect spec (``repro.topology.parse_topology`` syntax); the
    #: topology's node count must equal ``2**n``.
    topology: str = "cube"
    #: Composite pipeline spec (``repro.workloads.parse_workload``
    #: grammar, e.g. ``pipeline:bitrev+transpose@13x11`` or
    #: ``fft@64x64``).  When set, the request is served as a compiled
    #: workload pipeline; ``elements`` supplies a square default shape
    #: for specs without an ``@RxC`` suffix and ``algorithm`` is ignored.
    workload: str | None = None

    @classmethod
    def from_dict(cls, d: Mapping) -> "BatchRequest":
        return strict_from_dict(cls, d, "batch request")

    def machine_params(self) -> MachineParams:
        from repro.machine.params import PortModel
        from repro.machine.presets import (
            connection_machine,
            custom_machine,
            intel_ipsc,
        )

        if self.machine == "ipsc":
            return intel_ipsc(self.n)
        if self.machine == "cm":
            return connection_machine(self.n)
        if self.machine == "custom":
            return custom_machine(
                self.n,
                tau=self.tau,
                t_c=self.t_c,
                port_model=PortModel.N_PORT
                if self.n_port
                else PortModel.ONE_PORT,
            )
        raise ValueError(f"unknown machine {self.machine!r}")


@dataclass(frozen=True)
class ResolvedRequest:
    """A request after one-time resolution: machine, layouts, tier, key."""

    #: The request as submitted: a :class:`BatchRequest`, or a served
    #: request wrapping one as ``.problem``.
    request: object
    params: MachineParams
    before: Layout
    #: Explicit target layout (``None`` keeps the planner's default).
    after: Layout | None
    #: Concrete tier: ``auto`` resolved through §9 selection and the
    #: capability floor applied (see :func:`repro.transpose.planner.resolve_tier`);
    #: the canonical ``pipeline:...`` algorithm for workload requests.
    algorithm: str
    key: str
    #: True matrix elements (the unpadded shape for workloads).
    elements: int
    #: Canonical interconnect spec.  It is re-parsed per serve so no
    #: Topology instance (or its mutable BFS distance cache) is ever
    #: shared across worker threads.
    topology: str = "cube"
    #: Canonical composite-pipeline spec for ``workload=`` requests
    #: (``None`` for ordinary transposes).
    workload: str | None = None
    #: The parsed fault scenario (``None`` when fault-free).  Each serve
    #: runs on a :meth:`~repro.machine.faults.FaultPlan.fork` of it.
    faults: FaultPlan | None = None
    #: Trace identity minted by the server at submission (``None`` when
    #: tracing is off); the worker opens the request's root span in it.
    trace: object | None = None
    #: Wall seconds spent in admission-time resolution — the worker
    #: backdates the trace's admission leaf by this much.
    resolve_s: float = 0.0

    @property
    def problem(self) -> BatchRequest:
        return getattr(self.request, "problem", self.request)

    @property
    def target(self) -> Layout:
        """``after``, or the planner's default when that is ``None``."""
        from repro.transpose.planner import default_after_layout

        if self.after is not None:
            return self.after
        return default_after_layout(self.before)

    def pipeline(self):
        """The :class:`~repro.workloads.Pipeline` a workload request names."""
        from repro.workloads import build_pipeline

        problem = self.problem
        return build_pipeline(
            self.workload, self.params.n, layout=problem.layout,
            elements=problem.elements,
        )


def resolve_request(request) -> ResolvedRequest:
    """Map a request to machine/layouts/tier/plan-key, validating it.

    ``request`` is a :class:`BatchRequest` or a served request carrying
    one as ``.problem``.  Raises :class:`ValueError` on malformed
    problems (bad element counts, unknown layouts, machines, topologies,
    workload or fault specs), so callers reject at admission rather
    than fail mid-serve.  The capability floor is applied here: a
    cube-only tier on another topology resolves to ``routed-universal``
    and is not a fault degradation.
    """
    from repro.topology import topology_for
    from repro.transpose.planner import default_after_layout, resolve_tier

    problem = getattr(request, "problem", request)
    params = problem.machine_params()
    topo = topology_for(problem.topology, problem.n)
    on_cube = topo.name == "cube"
    if problem.workload:
        from repro.workloads import build_pipeline

        if not on_cube:
            raise ValueError(
                "workload pipelines require the cube topology "
                f"(requested {topo.spec!r})"
            )
        try:
            pipeline = build_pipeline(
                problem.workload,
                problem.n,
                layout=problem.layout,
                elements=problem.elements,
            )
        except ValueError as exc:
            exc.field = "workload"
            raise
        before, after = pipeline.before, pipeline.after
        algorithm = pipeline.algorithm
        key = pipeline.key(params)
        elements = pipeline.shape.rows * pipeline.shape.cols
    else:
        before, after = resolve_problem(
            problem.n, problem.elements, problem.layout
        )
        target = after if after is not None else default_after_layout(before)
        algorithm = resolve_tier(
            problem.algorithm, before, target, params.port_model, topo
        )
        key = plan_key(params, before, target, algorithm, topology=topo.spec)
        elements = problem.elements
    faults = None
    if problem.faults:
        try:
            faults = FaultPlan.from_spec(
                problem.n, problem.faults, topology=None if on_cube else topo
            )
        except ValueError as exc:
            exc.field = "faults"
            raise
    return ResolvedRequest(
        request=request,
        params=params,
        before=before,
        after=after,
        algorithm=algorithm,
        key=key,
        elements=elements,
        topology=topo.spec,
        workload=pipeline.spec if problem.workload else None,
        faults=faults,
    )


@dataclass(frozen=True)
class BatchOutcome:
    """What happened to one request."""

    index: int
    elements: int
    algorithm: str
    cache_hit: bool
    modelled_time: float
    wall_seconds: float
    key: str
    #: How a faulted request completed (``clean`` for fault-free ones).
    resolved: str = "clean"
    #: Recovery accounting (``RecoveryReport.as_dict()``) when the
    #: request was served resume-based; None otherwise.
    recovery: dict | None = None
    #: ``stats_fingerprint`` of the run — equal to a server's for the
    #: same request.
    fingerprint: str = ""

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "elements": self.elements,
            "algorithm": self.algorithm,
            "cache_hit": self.cache_hit,
            "modelled_time": self.modelled_time,
            "wall_seconds": self.wall_seconds,
            "key": self.key,
            "resolved": self.resolved,
            "recovery": self.recovery,
            "fingerprint": self.fingerprint,
        }


@dataclass
class BatchReport:
    """Aggregate outcome of one :func:`run_batch` call."""

    outcomes: list[BatchOutcome] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def misses(self) -> int:
        return sum(1 for o in self.outcomes if not o.cache_hit)

    @property
    def wall_seconds(self) -> float:
        return sum(o.wall_seconds for o in self.outcomes)

    def summary(self) -> str:
        base = (
            f"{len(self.outcomes)} request(s): {self.hits} served from "
            f"cache, {self.misses} compiled; "
            f"wall {self.wall_seconds * 1e3:.1f} ms"
        )
        rec = self.recovery_summary()
        if rec["faulted_requests"]:
            base += (
                f"; {rec['faulted_requests']} faulted "
                f"({rec['recovered']} recovered, {rec['ladders']} laddered)"
            )
        return base

    def recovery_summary(self) -> dict:
        """Aggregate recovery accounting over every faulted request."""
        faulted = [o for o in self.outcomes if o.resolved != "clean"]
        reports = [o.recovery for o in self.outcomes if o.recovery]
        return {
            "faulted_requests": len(faulted),
            "recovered": sum(1 for r in reports if r.get("recovered")),
            "ladders": sum(1 for o in faulted if o.resolved == "ladder"),
            "fault_encounters": sum(
                r.get("fault_encounters", 0) for r in reports
            ),
            "checkpoints_taken": sum(
                r.get("checkpoints_taken", 0) for r in reports
            ),
            "rollbacks": sum(r.get("rollbacks", 0) for r in reports),
            "replayed_phases": sum(
                r.get("replayed_phases", 0) for r in reports
            ),
            "backoff_phases": sum(
                r.get("backoff_phases", 0) for r in reports
            ),
            "wasted_elements": sum(
                r.get("wasted_elements", 0) for r in reports
            ),
        }

    def as_dict(self) -> dict:
        return {
            "requests": len(self.outcomes),
            "hits": self.hits,
            "misses": self.misses,
            "wall_seconds": self.wall_seconds,
            "recovery": self.recovery_summary(),
            "outcomes": [o.as_dict() for o in self.outcomes],
        }


def run_batch(
    requests: Iterable[BatchRequest | ResolvedRequest],
    *,
    cache: PlanCache | None = None,
    recovery=None,
) -> BatchReport:
    """Serve every request through :func:`repro.plans.serve.serve`.

    Requests not yet resolved are resolved with
    :func:`resolve_request` — ``auto`` goes
    through the planner's §9 selection *before* keying, so an explicit
    request for the same strategy and an ``auto`` request share one
    cached plan — and served against the shared ``cache``, compiling on
    miss and replaying on hit.  ``recovery`` (a
    :class:`~repro.recovery.policy.RecoveryPolicy`) selects the
    recover-then-ladder stages for faulted cube transposes and the
    policy faulted pipelines recover under.  A request that no stage
    can serve raises.
    """
    from repro.plans.serve import serve
    from repro.service.request import stats_fingerprint

    if cache is None:
        cache = PlanCache()
    report = BatchReport()
    for index, req in enumerate(requests):
        started = perf_counter()
        resolved = (
            req if isinstance(req, ResolvedRequest) else resolve_request(req)
        )
        served = serve(resolved, cache=cache, recovery=recovery)
        report.outcomes.append(
            BatchOutcome(
                index=index,
                elements=resolved.elements,
                algorithm=served.algorithm,
                cache_hit=served.cache_hit,
                modelled_time=served.stats.time,
                wall_seconds=perf_counter() - started,
                key=resolved.key,
                resolved=served.resolved,
                recovery=(
                    None if served.recovery is None
                    else served.recovery.as_dict()
                ),
                fingerprint=stats_fingerprint(served.stats),
            )
        )
    return report
