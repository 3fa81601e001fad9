"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``advise``    rank the paper's algorithms for a machine/problem size
              (the §9 decision procedure);
``run``       execute one simulated transpose and print the cost report;
``machines``  show the calibrated machine presets;
``plan``      compile a transpose into a :class:`CompiledPlan` document;
``replay``    execute a compiled plan on a fresh (optionally faulted)
              network without re-planning — ``--recover`` resumes from
              checkpoints instead of restarting on faults;
``batch``     serve many transpose requests through the plan cache;
``chaos``     soak seeded random fault plans through live runs and
              recovery replays, verifying every outcome;
``baseline``  record or check the pinned perf-regression suite;
``serve``     run the multi-tenant serving layer over a request file;
``loadgen``   drive a server with seeded synthetic traffic and verify
              a sample of outcomes bit-identically against solo runs;
``top``       drive the same soak under a live ops dashboard.

The CLI is a thin front end over the request path.  ``run`` and
``plan`` turn their problem flags into one
:class:`~repro.plans.batch.BatchRequest` and resolve it once through
:func:`~repro.plans.batch.resolve_request` (machine, layouts, tier,
plan key, faults); ``plan`` compiles through
:func:`~repro.plans.serve.compile_plan`, the function
:func:`~repro.plans.serve.serve` compiles cache misses with, so a plan
key names one document whichever command wrote it.  ``batch`` resolves
every request at load and ``serve`` at submission; either rejects a
malformed one with exit 2.  ``replay`` runs a plan file directly: a
plan is not a request and has no tier to ladder to.

``run`` and ``plan`` also accept ``--workload SPEC`` to execute or
compile a composite permutation pipeline (``repro.workloads`` grammar,
e.g. ``pipeline:bitrev+transpose@13x11`` or ``fft@64x64``) instead of a
plain transpose, and ``loadgen --workload`` mixes pipeline requests
into the synthetic stream.

Bad input — a malformed spec, problem or file — prints one line to
stderr and exits 2.  ``advise``, ``run``, ``machines``, ``plan``,
``replay``, ``batch``, ``chaos``, ``serve`` and ``loadgen`` accept
``--json`` for machine-readable output.  Every ``--json`` document
shares one envelope::

    {"schema_version": 1, "command": "<name>", "result": {...}}

so consumers can dispatch on ``command`` and version-gate on
``schema_version`` instead of sniffing per-command shapes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

#: Version of the shared ``--json`` envelope.  Bump when the envelope
#: itself (not a command's ``result`` payload) changes shape.
JSON_SCHEMA_VERSION = 1


class UsageError(Exception):
    """Bad command-line input: :func:`main` prints it and exits 2."""


def emit_json(command: str, result) -> None:
    """Print one machine-readable document in the unified envelope."""
    doc = {
        "schema_version": JSON_SCHEMA_VERSION,
        "command": command,
        "result": result,
    }
    print(json.dumps(doc, indent=2))


def _write_artifact(path: str, doc, *, label: str = "", detail: str = ""):
    """Write one artifact file — ``doc`` as JSON, or a string verbatim."""
    with open(path, "w") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {label + ' ' if label else ''}{path}{detail}", file=sys.stderr)


def _write_exports(args, *, trace, flights, metrics) -> None:
    """The serving commands' ``--trace/--flight-out/--metrics-out`` files.

    ``trace`` and ``metrics`` are thunks, so an export nobody asked for
    is never rendered.
    """
    if args.trace:
        _write_artifact(args.trace, trace(), label="trace")
    if args.flight_out and flights:
        _write_artifact(args.flight_out, flights, label="flight dump")
    if args.metrics_out:
        _write_artifact(args.metrics_out, metrics(), label="metrics")


def _from_flags(cls, args, **overrides):
    """Build dataclass ``cls`` from the parsed flags named like its fields."""
    fields = cls.__dataclass_fields__
    known = {k: v for k, v in vars(args).items() if k in fields}
    return cls(**{**known, **overrides})


def _policy(spec: str | None):
    """A ``--recover`` spec as a RecoveryPolicy (``None`` stays None)."""
    if spec is None:
        return None
    from repro.recovery import RecoveryPolicy

    try:
        return RecoveryPolicy.from_spec(spec)
    except ValueError as exc:
        raise UsageError(f"bad --recover spec: {exc}") from exc


def _topology(args):
    """Parse ``--topology``; a non-cube topology re-derives ``-n``.

    A non-cube topology fixes the node count, so it wins over ``-n``:
    the cube dimension is re-derived as log2(nodes) and must be exact —
    the transpose algorithms address nodes by bit fields.
    """
    from repro.topology import TopologyError, parse_topology

    try:
        topo = parse_topology(args.topology, args.n)
    except TopologyError as exc:
        raise UsageError(f"bad --topology spec: {exc}") from exc
    count = topo.num_nodes
    if count != 1 << args.n:
        args.n = count.bit_length() - 1
        if 1 << args.n != count:
            raise UsageError(
                f"topology {topo.spec!r} has {count} nodes, which is not "
                "a power of two; the transpose algorithms need 2^n nodes"
            )
    return topo


def _resolve(args):
    """Resolve the problem flags once through ``resolve_request``."""
    from repro.plans.batch import BatchRequest, resolve_request

    topology = _topology(args).spec
    try:
        return resolve_request(
            _from_flags(BatchRequest, args, topology=topology)
        )
    except ValueError as exc:
        field = getattr(exc, "field", None)
        raise UsageError(
            f"bad --{field} spec: {exc}" if field else str(exc)
        ) from exc


def cmd_advise(args) -> int:
    from repro.analysis.report import format_report, report_data
    from repro.plans.batch import BatchRequest

    # Only the machine: advise ranks any size on any cube, so it does
    # not resolve a layout the way run/plan do.
    params = _from_flags(BatchRequest, args).machine_params()
    if args.json:
        emit_json("advise", report_data(params, args.elements))
    else:
        print(format_report(params, args.elements))
    return 0


def _stats_recovery_block(stats, *, resolved: str) -> dict:
    """The ``recovery`` JSON block for runs accounted through TransferStats."""
    return {
        "resolved": resolved,
        "fault_encounters": stats.fault_events,
        "checkpoints": stats.checkpoints,
        "rollbacks": stats.rollbacks,
        "replayed_phases": stats.replayed_phases,
        "wasted_elements": stats.wasted_elements,
        "backoff_phases": stats.stall_phases,
    }


def cmd_run(args) -> int:
    """Run one request on real data: a transpose, or a ``--workload``.

    A transpose runs through the live planner (its own fault ladder);
    a faulted workload is served by :func:`~repro.plans.serve.serve`
    (checkpointed recovery — pipelines have no ladder) and a fault-free
    one executes its pipeline directly.
    """
    from repro import CubeNetwork, DistributedMatrix, transpose
    from repro.machine.faults import FaultError, RoutingStalledError
    from repro.obs import ChromeTraceSink, Instrumentation
    from repro.topology import parse_topology

    resolved = _resolve(args)
    params, faults = resolved.params, resolved.faults
    topo = parse_topology(resolved.topology, params.n)
    fault_text = None if faults is None else faults.describe()
    trace_sink = ChromeTraceSink() if args.trace else None
    recorder = None
    if args.timeline and resolved.workload is None:
        from repro.machine.trace import TraceRecorder

        recorder = TraceRecorder()
    sinks = [s for s in (trace_sink, recorder) if s is not None]
    instr = Instrumentation(*sinks) if sinks else None
    rng = np.random.default_rng(0)
    head: list[str] = []  # report lines before verified/model time
    tail: list[str] = []  # and after them

    if resolved.workload is not None:
        pipeline = resolved.pipeline()
        shape = pipeline.shape
        served = None
        if faults is not None:
            from repro.plans.serve import serve
            from repro.recovery import RecoveryFailedError

            try:
                served = serve(resolved, observer=instr)
            except (FaultError, RoutingStalledError, RecoveryFailedError) as exc:
                print(f"workload failed under faults: {exc}", file=sys.stderr)
                return 1
            stats = served.stats
            ok = bool(served.verified)
        else:
            A = rng.standard_normal((shape.rows, shape.cols))
            net = CubeNetwork(params)
            if instr is not None:
                instr.attach(net)
            result = pipeline.execute(net, A)
            stats = net.stats
            ok = bool(np.array_equal(result, pipeline.reference(A)))
        doc = {
            "workload": pipeline.spec,
            "rows": shape.rows,
            "cols": shape.cols,
            "padded_rows": shape.padded_rows,
            "padded_cols": shape.padded_cols,
            "stages": [s.describe() for s in pipeline.stages],
            "machine": params.name,
            "port_model": params.port_model.value,
            "topology": topo.spec,
            "algorithm": resolved.algorithm,
            "faults": fault_text,
            "verified": ok,
            "stats": stats.as_dict(),
        }
        head.append(
            f"workload:   {pipeline.spec} "
            f"({shape.rows} x {shape.cols}, padded to "
            f"{shape.padded_rows} x {shape.padded_cols})"
        )
        head.append(f"machine:    {params.name} ({params.port_model.value})")
        head.append(f"algorithm:  {resolved.algorithm}")
        if faults is not None:
            head.append(f"faults:     {fault_text}")
        if served is not None:
            rec = served.recovery
            doc["resolved"] = served.resolved
            doc["recovery"] = None if rec is None else rec.as_dict()
            head.append(f"resolved:   {served.resolved}")
            if rec is not None:
                head.append(
                    f"recovery:   {rec.checkpoints_taken} checkpoint(s), "
                    f"{rec.rollbacks} rollback(s), "
                    f"{rec.replayed_phases} replayed phase(s)"
                )
    else:
        layout = resolved.before
        A = rng.standard_normal((1 << layout.p, 1 << layout.q))
        net = CubeNetwork(params, faults=faults, topology=topo)
        if args.checkpoint_every:
            from repro.recovery import CheckpointManager

            net.checkpoints = CheckpointManager(every=args.checkpoint_every)
        if instr is not None:
            instr.attach(net)
        try:
            # The live planner takes the strategy as asked, so its report
            # names the request and any capability fallback it made.
            result = transpose(
                net,
                DistributedMatrix.from_global(A, layout),
                resolved.after,
                algorithm=args.algorithm,
            )
        except (FaultError, RoutingStalledError) as exc:
            print(f"transpose failed under faults: {exc}", file=sys.stderr)
            return 1
        stats = result.stats
        ok = result.verify_against(A)
        doc = {
            "rows": 1 << layout.p,
            "cols": 1 << layout.q,
            "elements": args.elements,
            "layout": layout.describe(),
            "machine": params.name,
            "port_model": params.port_model.value,
            "topology": topo.spec,
            "algorithm": result.algorithm,
            "comm_class": result.comm_class.value,
            "requested": result.requested,
            "degraded": result.degraded,
            "fallbacks": list(result.fallbacks),
            "recovery_overhead": result.recovery_overhead,
            "faults": fault_text,
            "verified": ok,
            "recovery": _stats_recovery_block(
                stats, resolved="ladder" if result.fallbacks else "clean"
            ),
            "stats": stats.as_dict(),
        }
        head.append(
            f"matrix:     {1 << layout.p} x {1 << layout.q} "
            f"({args.elements} elements)"
        )
        head.append(f"layout:     {layout.describe()}")
        head.append(f"machine:    {params.name} ({params.port_model.value})")
        if topo.name != "cube":
            head.append(f"topology:   {topo.describe()}")
        head.append(
            f"algorithm:  {result.algorithm} ({result.comm_class.value})"
        )
        if faults is not None:
            head.append(f"faults:     {fault_text}")
            if result.degraded:
                head.append(
                    f"degraded:   {result.requested} -> {result.algorithm} "
                    f"(skipped {', '.join(result.fallbacks)}); recovery "
                    f"overhead {result.recovery_overhead * 1e3:.3f} ms"
                )
            if stats.rollbacks or stats.checkpoints:
                head.append(
                    f"recovery:   {stats.checkpoints} checkpoint(s), "
                    f"{stats.rollbacks} rollback(s), "
                    f"{stats.replayed_phases} replayed phase(s), "
                    f"{stats.wasted_elements} wasted element(s)"
                )
        if args.heatmap:
            from repro.analysis.report import (
                format_link_heatmap,
                format_topology_heatmap,
            )

            tail += ["", (
                format_link_heatmap(stats, params.n)
                if topo.name == "cube"
                else format_topology_heatmap(stats, topo)
            )]
        if recorder is not None:
            from repro.analysis.report import format_congestion_timeline

            tail += ["", format_congestion_timeline(recorder.events)]

    if trace_sink is not None:
        trace_sink.write(args.trace)
        print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
    if args.json:
        emit_json("run", doc)
    else:
        for line in (*head, f"verified:   {ok}",
                     f"model time: {stats.summary()}", *tail):
            print(line)
    return 0 if ok else 1


def cmd_machines(args) -> int:
    from repro.machine.presets import connection_machine, intel_ipsc

    presets = (intel_ipsc(args.n), connection_machine(args.n))
    if args.json:
        from repro.plans.ir import MachineSpec

        emit_json(
            "machines",
            [MachineSpec.from_params(m).as_dict() for m in presets],
        )
        return 0
    for m in presets:
        print(
            f"{m.name}: tau={m.tau * 1e6:.0f} us, t_c={m.t_c * 1e6:.2f} us/el, "
            f"B_m={m.packet_capacity} el, t_copy={m.t_copy * 1e6:.1f} us/el, "
            f"{m.port_model.value}, pipelined={m.pipelined}"
        )
    return 0


def cmd_plan(args) -> int:
    from repro.plans.cache import PlanCache
    from repro.plans.serve import compile_plan

    resolved = _resolve(args)
    plan = compile_plan(resolved)
    if args.cache_dir:
        PlanCache(path=args.cache_dir).put(resolved.key, plan)
        print(f"cached {plan.describe()}", file=sys.stderr)
        print(resolved.key)
    elif args.out:
        _write_artifact(
            args.out, plan.dumps(indent=2),
            detail=f": {plan.describe()} "
            f"(fingerprint {plan.fingerprint[:16]})",
        )
    elif args.json:
        doc = json.loads(plan.dumps())
        doc["key"] = resolved.key
        emit_json("plan", doc)
    else:
        print(plan.dumps(indent=2))
    return 0


def cmd_replay(args) -> int:
    from repro.machine.faults import FaultError, RoutingStalledError
    from repro.plans.ir import CompiledPlan, PlanError
    from repro.plans.replay import PlanReplayError, replay_plan

    try:
        with open(args.plan) as fh:
            plan = CompiledPlan.loads(fh.read())
    except (OSError, PlanError) as exc:
        raise UsageError(f"cannot load plan: {exc}") from exc
    if args.recover is not None and plan.machine.topology != "cube":
        raise UsageError(
            f"bad --recover: the plan targets topology "
            f"{plan.machine.topology!r}; resume-based recovery rewrites "
            "cube schedules only"
        )
    # Replay on the interconnect the plan was compiled for.
    try:
        network = plan.machine.network(args.faults)
    except ValueError as exc:
        raise UsageError(f"bad --faults spec: {exc}") from exc
    faults = network.faults
    policy = _policy(args.recover)
    if policy is not None and args.checkpoint_every:
        policy = policy.with_(checkpoint_every=args.checkpoint_every)

    recovery_doc = verified = None
    try:
        if policy is not None:
            from repro.recovery import RecoveryFailedError, execute_with_recovery

            try:
                outcome = execute_with_recovery(plan, network, policy=policy)
            except RecoveryFailedError as exc:
                print(f"recovery failed: {exc}", file=sys.stderr)
                if not args.json:
                    return 1
                recovery_doc, verified = exc.report.as_dict(), False
            else:
                recovery_doc = outcome.report.as_dict()
                verified = outcome.verified
        else:
            checkpoints = None
            if args.checkpoint_every:
                from repro.recovery import CheckpointManager

                checkpoints = CheckpointManager(every=args.checkpoint_every)
            replay_plan(plan, network, checkpoints=checkpoints)
            if faults is not None or args.checkpoint_every:
                recovery_doc = _stats_recovery_block(
                    network.stats, resolved="clean"
                )
    except PlanReplayError as exc:
        raise UsageError(f"replay rejected: {exc}") from exc
    except (FaultError, RoutingStalledError) as exc:
        print(f"replay failed under faults: {exc}", file=sys.stderr)
        return 1
    rc = 0 if verified is not False else 1
    if args.json:
        emit_json("replay", {
            "plan": plan.describe(),
            "algorithm": plan.algorithm,
            "fingerprint": plan.fingerprint,
            "faults": None if faults is None else faults.describe(),
            "recovery": recovery_doc,
            "verified": verified,
            "stats": network.stats.as_dict(),
        })
        return rc
    print(f"plan:       {plan.describe()}")
    if faults is not None:
        print(f"faults:     {faults.describe()}")
    if policy is not None:
        print(
            f"recovery:   resolved={recovery_doc['resolved']}, "
            f"{recovery_doc['fault_encounters']} fault(s), "
            f"{recovery_doc['checkpoints_taken']} checkpoint(s), "
            f"{recovery_doc['rollbacks']} rollback(s), "
            f"{recovery_doc['replayed_phases']} replayed phase(s)"
        )
        print(f"verified:   {verified}")
    print(f"model time: {network.stats.summary()}")
    return rc


def _request_docs(path: str) -> list:
    """The JSON array of request objects a ``batch``/``serve`` file holds."""
    with open(path) as fh:
        docs = json.load(fh)
    if not isinstance(docs, list):
        raise ValueError("requests file must hold a JSON array")
    return docs


def cmd_batch(args) -> int:
    from repro.plans.batch import BatchRequest, resolve_request, run_batch
    from repro.plans.cache import PlanCache

    # Every request is resolved before any is served, so a malformed one
    # rejects the file up front, as `serve` rejects at submission.
    try:
        requests = [
            resolve_request(BatchRequest.from_dict(d))
            for d in _request_docs(args.requests)
        ]
    except (OSError, ValueError, TypeError) as exc:
        raise UsageError(f"cannot load requests: {exc}") from exc
    recovery = _policy(args.recover)
    cache = PlanCache(capacity=args.cache_size, path=args.cache_dir)
    reports = [
        run_batch(requests, cache=cache, recovery=recovery)
        for _ in range(args.repeat)
    ]
    if args.json:
        doc = {
            "runs": [r.as_dict() for r in reports],
            "cache": cache.counters(),
        }
        emit_json("batch", doc)
        return 0
    for i, report in enumerate(reports, 1):
        print(f"run {i}: {report.summary()}")
    c = cache.counters()
    print(
        f"cache: {c['hits']} hit(s), {c['misses']} miss(es), "
        f"{c['evictions']} eviction(s), {c['resident']} resident"
    )
    return 0


def _parse_watchdog(value):
    """``--watchdog`` seconds, with ``off``/``none`` disabling it."""
    if value is None:
        return None
    text = str(value).strip().lower()
    if text in ("off", "none", ""):
        return None
    return float(value)


def cmd_service_chaos(args) -> int:
    """``repro chaos --service``: batter the serving stack itself."""
    from repro.service import ServerConfig, ServiceChaosSpec, run_service_chaos

    try:
        spec = _from_flags(ServiceChaosSpec, args)
        config = _from_flags(
            ServerConfig, args,
            watchdog=_parse_watchdog(args.watchdog),
            supervise=False if args.no_supervise else None,
        )
    except ValueError as exc:
        raise UsageError(f"bad service chaos spec: {exc}") from exc
    report = run_service_chaos(spec, config)
    if args.out:
        _write_artifact(args.out, report.as_dict())
    if args.events_out:
        _write_artifact(
            args.events_out, report.supervisor_events,
            label="supervisor event log",
        )
    ok = report.ok
    if args.expect_worker_loss:
        # The disabled-resilience arm: the soak must still resolve
        # everything exactly once, AND demonstrably lose workers —
        # proving the supervisor (absent here) is what saves the pool.
        ok = ok and report.workers_lost > 0
    if args.json:
        doc = report.as_dict()
        doc["ok"] = ok
        emit_json("chaos", doc)
    else:
        print(report.summary())
        if args.expect_worker_loss and report.workers_lost == 0:
            print(
                "expected worker loss with resilience disabled, saw none",
                file=sys.stderr,
            )
    return 0 if ok else 1


def cmd_chaos(args) -> int:
    from repro.recovery import run_chaos

    if args.service:
        return cmd_service_chaos(args)
    topo = _topology(args)
    policy = _policy(args.recover or "")
    if args.modes is None:
        # Recovery replays rewrite cube schedules, so the default soak
        # on a non-cube interconnect runs live trials only.
        args.modes = "live" if topo.name != "cube" else "replay,cached,live"
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    progress = None
    if args.verbose:

        def progress(trial):
            print(
                f"seed={trial.seed:>3} mode={trial.mode:<6} "
                f"{trial.outcome}"
                + (
                    f" ({trial.resolved})"
                    if trial.outcome == "verified"
                    else ""
                ),
                file=sys.stderr,
            )

    try:
        report = run_chaos(
            n=args.n,
            elements=args.elements,
            layout=args.layout,
            algorithm=args.algorithm,
            seeds=args.seeds,
            modes=modes,
            link_rate=args.link_rate,
            transient_rate=args.transient_rate,
            window=args.window,
            corrupt_rate=args.corrupt,
            corrupt_intensity=args.corrupt_intensity,
            policy=policy,
            progress=progress,
            topology=topo,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.out:
        _write_artifact(args.out, report.as_dict())
    if args.json:
        emit_json("chaos", report.as_dict())
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _server_config(args):
    """Build a ServerConfig from flags or a JSON spec file."""
    from dataclasses import replace

    from repro.service import ServerConfig

    try:
        if args.config:
            with open(args.config) as fh:
                config = ServerConfig.from_dict(json.load(fh))
        else:
            config = _from_flags(
                ServerConfig, args,
                tenant_pending=args.tenant_pending or None,
                cache_capacity=args.cache_size,
                recovery=args.recover,
                watchdog=_parse_watchdog(args.watchdog),
                trace=False,
            )
        # Observability flags compose with either source: asking for a
        # trace file arms tracing, and --metrics-port always wins.
        if args.trace:
            config = replace(config, trace=True)
        if args.metrics_port is not None:
            config = replace(config, metrics_port=args.metrics_port)
        return config
    except (OSError, ValueError, TypeError) as exc:
        raise UsageError(f"bad server config: {exc}") from exc


def _load_spec(args):
    """The seeded soak ``loadgen`` and ``top`` drive, from their flags."""
    from repro.service import LoadSpec

    # --workload-every only means something alongside --workload
    # (which `top` does not take).
    every = args.workload_every if getattr(args, "workload", None) else 0
    try:
        return _from_flags(LoadSpec, args, workload_every=every)
    except ValueError as exc:
        raise UsageError(f"bad {args.command} spec: {exc}") from exc


def cmd_serve(args) -> int:
    from repro.obs.ops import format_prometheus
    from repro.service import (
        AdmissionRejectedError,
        TransposeRequest,
        TransposeServer,
    )

    config = _server_config(args)
    base = {"tenant": "default"}
    if args.topology:
        # Default interconnect for requests that don't name one; a
        # request's own "topology" field still wins.
        base["topology"] = args.topology
    try:
        requests = [
            TransposeRequest.from_dict({**base, "request_id": i, **d})
            for i, d in enumerate(_request_docs(args.requests))
        ]
    except (OSError, ValueError, TypeError) as exc:
        raise UsageError(f"cannot load requests: {exc}") from exc

    with TransposeServer(config) as server:
        pendings = []
        for request in requests:
            try:
                pendings.append(server.submit(request))
            except ValueError as exc:
                raise UsageError(
                    f"request {request.request_id} invalid: {exc}"
                ) from exc
            except AdmissionRejectedError as exc:
                if args.verbose:
                    print(f"shed: {exc}", file=sys.stderr)
        for pending in pendings:
            pending.result(timeout=600.0)
    report = server.report()
    _write_exports(
        args, trace=server.trace_document, flights=report.flight_reports,
        metrics=lambda: format_prometheus(server.metrics()),
    )
    slo = report.slo()
    failed = slo["failed"]
    if args.json:
        emit_json("serve", report.as_dict(with_outcomes=args.outcomes))
        return 0 if failed == 0 else 1
    lat = slo["latency_s"]["total"]
    print(
        f"served {slo['served']}/{slo['requests']} request(s) on "
        f"{report.workers} worker(s): {slo['rejected']} shed, "
        f"{slo['deadline_missed']} missed deadline, {failed} failed"
    )
    print(
        f"cache hit rate {slo['cache_hit_rate']:.1%}; latency p50 "
        f"{lat['p50'] * 1e3:.1f} ms, p95 {lat['p95'] * 1e3:.1f} ms, "
        f"p99 {lat['p99'] * 1e3:.1f} ms"
    )
    for tenant, t in report.per_tenant().items():
        print(
            f"  {tenant}: admitted {t['admitted']}, served {t['served']}, "
            f"rejected {t['rejected']}, cache hits {t['cache_hits']}"
        )
    return 0 if failed == 0 else 1


def cmd_loadgen(args) -> int:
    from repro.service import run_loadgen

    config = _server_config(args)
    report = run_loadgen(_load_spec(args), config)
    if args.out:
        _write_artifact(args.out, report.as_dict())
    _write_exports(
        args, trace=lambda: report.trace,
        flights=report.server.flight_reports,
        metrics=lambda: report.metrics_text,
    )
    if args.json:
        emit_json("loadgen", report.as_dict())
    else:
        print(report.summary())
        for tenant, t in report.server.per_tenant().items():
            print(
                f"  {tenant}: admitted {t['admitted']}, served "
                f"{t['served']}, rejected {t['rejected']}, cache hits "
                f"{t['cache_hits']}, missed deadlines "
                f"{t['deadline_missed']}"
            )
    return 0 if report.ok else 1


def cmd_top(args) -> int:
    """Drive a seeded soak and repaint a live ops dashboard over it."""
    import threading

    from repro.obs.ops import format_prometheus, render_top
    from repro.service import TransposeServer, build_workload, drive

    config = _server_config(args)
    spec = _load_spec(args)
    server = TransposeServer(config)
    requests = build_workload(spec)
    done = threading.Event()

    def driver_main() -> None:
        try:
            drive(server, requests, spec)
        finally:
            done.set()

    def frame(*, clear: bool) -> None:
        doc = server.report().as_dict()
        print(render_top(doc, title="repro top", clear=clear), end="",
              flush=True)

    with server:
        if server.exporter is not None:
            print(
                f"metrics on http://127.0.0.1:{server.exporter.port}/metrics",
                file=sys.stderr,
            )
        driver = threading.Thread(target=driver_main, daemon=True)
        driver.start()
        try:
            while not done.wait(args.interval):
                frame(clear=not args.plain)
        except KeyboardInterrupt:
            print("\ninterrupted; draining...", file=sys.stderr)
        driver.join(timeout=1.0)
    frame(clear=not args.plain)
    report = server.report()
    _write_exports(
        args, trace=server.trace_document, flights=report.flight_reports,
        metrics=lambda: format_prometheus(server.metrics()),
    )
    return 0 if report.slo()["failed"] == 0 else 1


def cmd_baseline(args) -> int:
    import os

    from repro.obs.baseline import (
        DEFAULT_SUITE,
        DEFAULT_TOLERANCE,
        check_baselines,
        record_baselines,
        run_scenario,
    )

    rc = 0
    report = None
    if args.action == "record":
        for path in record_baselines(args.dir):
            print(f"wrote {path}")
    else:
        tol = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        report = check_baselines(args.dir, rel_tol=tol)
        print(report.describe())
        rc = 0 if report.ok else 1

    if args.trace_dir or args.bench_out:
        from repro.obs import ChromeTraceSink, Instrumentation

        scenarios = {}
        for scenario in DEFAULT_SUITE:
            sink = ChromeTraceSink()
            counters = run_scenario(scenario, observer=Instrumentation(sink))
            scenarios[scenario.id] = counters
            if args.trace_dir:
                path = os.path.join(
                    args.trace_dir, f"{scenario.id}.trace.json"
                )
                sink.write(path)
                print(f"wrote {path}", file=sys.stderr)
        if args.bench_out:
            _write_artifact(args.bench_out, {
                "suite": [s.describe() for s in DEFAULT_SUITE],
                "counters": scenarios,
                "check": None if report is None else report.as_dict(),
            })
    return rc


# -- flags -------------------------------------------------------------------
#
# Each flag is defined once, in the helper below that owns it; a command
# whose default differs passes it in.


def _int_at_least(minimum: int):
    """An argparse ``type`` for integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return parse


def machine_flags(p) -> None:
    p.add_argument("--machine", choices=["ipsc", "cm", "custom"], default="ipsc")
    p.add_argument("--tau", type=float, default=1.0, help="custom start-up")
    p.add_argument("--t-c", type=float, default=1.0)
    p.add_argument("--n-port", action="store_true")


def size_flags(p, *, n: int = 6, elements: int = 1 << 16) -> None:
    p.add_argument("-n", type=int, default=n, help="cube dimension")
    p.add_argument(
        "--elements", type=int, default=elements,
        help="matrix elements (power of 2)",
    )


def problem_flags(p) -> None:
    p.add_argument(
        "--layout", choices=["2d", "1d-rows", "1d-cols"], default="2d"
    )
    p.add_argument(
        "--algorithm",
        default="auto",
        help="strategy name (default auto; e.g. spt, dpt, mpt, router)",
    )


def json_flag(p) -> None:
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )


def topology_flag(p, *, help: str | None = None) -> None:
    p.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help=help
        or "interconnect topology: cube (default), torus:4x4x4, "
        "mesh:8x8, or dragonfly:K,M; a non-cube topology overrides "
        "-n (node count must be a power of two)",
    )


def workload_flag(p) -> None:
    p.add_argument(
        "--workload",
        default=None,
        metavar="SPEC",
        help="composite permutation pipeline instead of a plain "
        "transpose: [pipeline:]stage(+stage)*[@RxC] with stages "
        "transpose, bitrev, gray, binary, dimperm:<perm>, or the "
        "fft preset (e.g. pipeline:bitrev+transpose@13x11, "
        "fft@64x64); --elements supplies a square default shape "
        "and --algorithm is ignored",
    )


def faults_flag(p) -> None:
    p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="reproducible fault scenario as comma-separated key=value: "
        "seed=S, link_rate=R, transient_rate=R, window=W, "
        "nodes=3+9, links=0-1+6-4 (grammar: docs/fault_model.md)",
    )


def checkpoint_flag(p) -> None:
    p.add_argument(
        "--checkpoint-every",
        type=_int_at_least(0),
        default=0,
        metavar="K",
        help="snapshot node memories every K phases (0 = off); with "
        "replay --recover it overrides the policy's cadence",
    )


def recover_flag(p, *, default: str | None = None, bare: bool = True) -> None:
    """``--recover [SPEC]``; ``bare`` lets the flag stand alone."""
    p.add_argument(
        "--recover",
        nargs="?" if bare else None,
        const="" if bare else None,
        default=default,
        metavar="SPEC",
        help="recovery policy for faulted work: checkpoint, back off "
        "transient faults, surgically rewrite around permanent ones "
        "(RecoveryPolicy.from_spec, e.g. every=4,surgery=off"
        + (f"; default {default})" if default else ")"),
    )


def cache_flags(p, *, size: int | None = None) -> None:
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk content-addressed plan store",
    )
    if size is not None:
        p.add_argument(
            "--cache-size", type=_int_at_least(1), default=size,
            help="in-memory plan cache (LRU) capacity",
        )


def out_flag(p, what: str) -> None:
    p.add_argument(
        "--out", default=None, metavar="FILE", help=f"write {what} here"
    )


def soak_flags(p, *, requests: int) -> None:
    """The seeded synthetic soak ``loadgen`` and ``top`` both drive."""
    p.add_argument("--seed", type=int, default=7, help="workload seed")
    p.add_argument(
        "--tenants", type=int, default=4, help="tenant count (round-robin)"
    )
    p.add_argument(
        "--requests", type=int, default=requests, help="total request count"
    )
    p.add_argument(
        "--mode",
        choices=["closed", "open"],
        default="closed",
        help="closed: one waiting client per tenant; open: seeded "
        "arrival schedule that never waits (drives shedding)",
    )
    p.add_argument(
        "--rate", type=float, default=200.0,
        help="open-loop offered load (requests/second)",
    )
    p.add_argument(
        "--shapes", type=int, default=4, help="distinct problem shapes"
    )
    p.add_argument("-n", type=int, default=4, help="cube dimension")
    p.add_argument("--machine", choices=["ipsc", "cm"], default="cm")
    p.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="probability a request carries a seeded fault spec",
    )
    p.add_argument(
        "--deadline", type=float, default=None,
        help="relative deadline in seconds applied to every request",
    )


def supervision_flags(p, *, watchdog: str | None) -> None:
    p.add_argument(
        "--retries", type=int, default=2,
        help="supervisor re-dispatch attempts after a worker death "
        "(0 disables retries)",
    )
    p.add_argument(
        "--watchdog", default=watchdog, metavar="SECONDS",
        help="declare a worker hung after one request runs this long "
        f"('off' disables; default {watchdog or 'off'})",
    )
    p.add_argument(
        "--poison-threshold", type=int, default=2,
        help="consecutive worker kills before a request is "
        "quarantined as poison",
    )


def server_flags(p) -> None:
    p.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="server config as JSON (overrides the flags below)",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="worker thread count"
    )
    p.add_argument(
        "--queue-capacity", type=int, default=64,
        help="admission queue depth before shedding",
    )
    p.add_argument(
        "--tenant-pending", type=int, default=16,
        help="max queued requests per tenant (0 = unlimited)",
    )
    p.add_argument(
        "--tenant-rate", type=float, default=None,
        help="per-tenant admission rate limit (requests/second)",
    )
    p.add_argument(
        "--max-batch", type=int, default=4,
        help="same-plan requests a worker drains per dequeue",
    )
    cache_flags(p, size=256)
    recover_flag(p, default="every=4", bare=False)
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="arm request-scoped tracing and write the merged "
        "dual-axis Perfetto trace (one track per worker) here",
    )
    p.add_argument(
        "--flight-out",
        default=None,
        metavar="FILE",
        help="write flight-recorder dumps from requests that ended "
        "badly (deadline miss, failure, fault escalation) here",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a Prometheus text snapshot of the merged worker "
        "metrics after the run",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics (Prometheus text) on this port "
        "while the server runs (0 = ephemeral)",
    )
    supervision_flags(p, watchdog=None)
    p.add_argument(
        "--breaker",
        default=None,
        metavar="SPEC",
        help="circuit-breaker policy, e.g. "
        "'window=16,threshold=0.5,cooldown=1.0,key=plan' "
        "(BreakerPolicy.from_spec; default off)",
    )
    p.add_argument(
        "--brownout",
        default=None,
        metavar="SPEC",
        help="overload brownout ladder, e.g. "
        "'slo=0.25,objective=0.9,up=1.0,down=0.25,hold=3' "
        "(BrownoutPolicy.from_spec; default off)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Matrix transposition on simulated Boolean n-cubes "
        "(Johnsson & Ho 1987 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("advise", help="rank algorithms analytically (§9)")
    machine_flags(pa)
    size_flags(pa)
    json_flag(pa)
    pa.set_defaults(fn=cmd_advise)

    pr = sub.add_parser("run", help="run one simulated transpose")
    machine_flags(pr)
    size_flags(pr)
    problem_flags(pr)
    topology_flag(pr)
    workload_flag(pr)
    json_flag(pr)
    faults_flag(pr)
    pr.add_argument(
        "--heatmap",
        action="store_true",
        help="print the per-link ASCII utilization heatmap after the run",
    )
    pr.add_argument(
        "--timeline",
        action="store_true",
        help="print the per-phase congestion timeline after the run",
    )
    pr.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON (load in Perfetto / "
        "chrome://tracing)",
    )
    checkpoint_flag(pr)
    pr.set_defaults(fn=cmd_run)

    pm = sub.add_parser("machines", help="show machine presets")
    pm.add_argument("-n", type=int, default=6)
    json_flag(pm)
    pm.set_defaults(fn=cmd_machines)

    pp = sub.add_parser(
        "plan", help="compile a transpose schedule without executing payloads"
    )
    machine_flags(pp)
    size_flags(pp)
    problem_flags(pp)
    topology_flag(pp)
    workload_flag(pp)
    json_flag(pp)
    out_flag(pp, "plan JSON")
    cache_flags(pp)
    pp.set_defaults(fn=cmd_plan)

    py = sub.add_parser("replay", help="execute a compiled plan")
    py.add_argument("plan", help="plan JSON file (from `repro plan --out`)")
    faults_flag(py)
    recover_flag(py)
    checkpoint_flag(py)
    json_flag(py)
    py.set_defaults(fn=cmd_replay)

    pb = sub.add_parser(
        "batch", help="serve many transpose requests through the plan cache"
    )
    pb.add_argument(
        "requests",
        help="JSON file: array of request objects "
        '(e.g. [{"elements": 4096, "n": 4}])',
    )
    cache_flags(pb, size=128)
    pb.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the request set this many times (later runs hit the cache)",
    )
    recover_flag(pb)
    json_flag(pb)
    pb.set_defaults(fn=cmd_batch)

    pc = sub.add_parser(
        "chaos",
        help="soak seeded random fault plans through recovery, "
        "verifying every outcome",
    )
    size_flags(pc, n=4, elements=256)
    problem_flags(pc)
    topology_flag(pc)
    pc.add_argument(
        "--seeds", type=int, default=50, help="fault-plan seeds 0..N-1"
    )
    pc.add_argument(
        "--modes",
        default=None,
        help="comma-separated subset of replay, cached, live "
        "(default: all three on a cube, live on other topologies)",
    )
    pc.add_argument(
        "--link-rate", type=float, default=0.03,
        help="permanent per-directed-link failure probability",
    )
    pc.add_argument(
        "--transient-rate", type=float, default=0.10,
        help="transient per-link failure probability",
    )
    pc.add_argument(
        "--window", type=int, default=32, help="transient phase window"
    )
    pc.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        metavar="RATE",
        help="silent-corruption per-directed-link probability "
        "(checksummed delivery detects and retransmits)",
    )
    pc.add_argument(
        "--corrupt-intensity", type=float, default=0.4, metavar="RATE",
        help="per-phase strike probability on a corrupting link",
    )
    recover_flag(pc, bare=False)
    out_flag(pc, "the full JSON report (CI artifact)")
    pc.add_argument(
        "--verbose",
        action="store_true",
        help="stream one line per finished trial to stderr",
    )
    # -- service-level chaos (repro chaos --service) ------------------------
    pc.add_argument(
        "--service",
        action="store_true",
        help="batter the serving stack instead of the machine: kill/"
        "hang workers and inject crash/slow/poison requests under a "
        "seeded schedule, gated on the exactly-once invariant",
    )
    pc.add_argument(
        "--seed", type=int, default=11, help="service chaos schedule seed"
    )
    pc.add_argument(
        "--requests", type=int, default=48, help="service soak request count"
    )
    pc.add_argument(
        "--tenants", type=int, default=3, help="service soak tenant count"
    )
    pc.add_argument(
        "--workers", type=int, default=4, help="serving worker pool size"
    )
    pc.add_argument(
        "--kill-rate", type=float, default=0.08,
        help="per-execution probability the worker is killed mid-request",
    )
    pc.add_argument(
        "--hang-rate", type=float, default=0.0,
        help="per-execution probability the worker hangs (watchdog bait)",
    )
    pc.add_argument(
        "--hang-seconds", type=float, default=0.3,
        help="how long a chaos hang wedges the worker",
    )
    pc.add_argument(
        "--poison-rate", type=float, default=0.04,
        help="probability a request is poisonous (kills every worker "
        "that executes it, until quarantined)",
    )
    pc.add_argument(
        "--crash-rate", type=float, default=0.0,
        help="probability a request fails with a plain exception",
    )
    pc.add_argument(
        "--slow-rate", type=float, default=0.0,
        help="probability an execution is slowed (stays under watchdog)",
    )
    pc.add_argument(
        "--verify-sample", type=int, default=6,
        help="served requests re-run solo for bit-identity",
    )
    supervision_flags(pc, watchdog="0.15")
    pc.add_argument(
        "--no-supervise",
        action="store_true",
        help="force the supervisor off even when retries/watchdog are set",
    )
    pc.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="write the supervisor's JSON event log here (CI artifact)",
    )
    pc.add_argument(
        "--expect-worker-loss",
        action="store_true",
        help="pass only if the pool demonstrably lost workers (the "
        "disabled-resilience control arm)",
    )
    json_flag(pc)
    pc.set_defaults(fn=cmd_chaos)

    ps = sub.add_parser(
        "serve",
        help="serve a file of tenant transpose requests through the "
        "multi-tenant serving layer",
    )
    ps.add_argument(
        "requests",
        help="JSON file: array of request objects; problem fields plus "
        'optional "tenant", "priority", "deadline" '
        '(e.g. [{"tenant": "a", "elements": 4096, "n": 4}])',
    )
    server_flags(ps)
    topology_flag(
        ps,
        help="default interconnect applied to requests that don't name "
        "one (cube, torus:4x4x4, mesh:8x8, dragonfly:K,M)",
    )
    ps.add_argument(
        "--outcomes",
        action="store_true",
        help="include the per-request outcome list in --json output",
    )
    ps.add_argument(
        "--verbose",
        action="store_true",
        help="log shed requests to stderr",
    )
    json_flag(ps)
    ps.set_defaults(fn=cmd_serve)

    pg = sub.add_parser(
        "loadgen",
        help="drive a server with seeded synthetic multi-tenant traffic "
        "and spot-check outcomes bit-identically against solo runs",
    )
    soak_flags(pg, requests=200)
    pg.add_argument(
        "--verify-sample", type=int, default=8,
        help="served fault-free requests re-run solo for bit-identity",
    )
    pg.add_argument(
        "--request-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="closed-loop client patience per request; expiries are "
        "counted separately in the report (default 120)",
    )
    pg.add_argument(
        "--workload",
        default=None,
        metavar="SPEC",
        help="mix composite-pipeline requests into the stream "
        "(repro.workloads grammar, e.g. fft@64x64)",
    )
    pg.add_argument(
        "--workload-every",
        type=int,
        default=4,
        metavar="K",
        help="every k-th request becomes a --workload pipeline "
        "request (default 4; only meaningful with --workload)",
    )
    out_flag(pg, "the full JSON load report (CI artifact)")
    server_flags(pg)
    json_flag(pg)
    pg.set_defaults(fn=cmd_loadgen)

    pt = sub.add_parser(
        "top",
        help="drive a seeded soak and repaint a live ASCII ops "
        "dashboard (throughput, queue depth, SLO burn, per-tenant "
        "table) while it runs",
    )
    soak_flags(pt, requests=400)
    pt.add_argument(
        "--interval", type=float, default=0.5,
        help="seconds between dashboard repaints",
    )
    pt.add_argument(
        "--plain", action="store_true",
        help="append frames instead of repainting (no ANSI clear; "
        "for logs and dumb terminals)",
    )
    server_flags(pt)
    pt.set_defaults(fn=cmd_top)

    pl = sub.add_parser(
        "baseline",
        help="record or check the pinned perf-regression suite",
    )
    pl.add_argument(
        "action",
        choices=["record", "check"],
        help="record: snapshot counters; check: diff against snapshots",
    )
    pl.add_argument(
        "--dir",
        default="benchmarks/baselines",
        help="baseline snapshot directory (default benchmarks/baselines)",
    )
    pl.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative tolerance for check (default: exact up to float "
        "accumulation slack)",
    )
    pl.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="also export one Chrome trace JSON per scenario here",
    )
    pl.add_argument(
        "--bench-out",
        default=None,
        metavar="FILE",
        help="write a machine-readable suite summary (e.g. BENCH_obs.json)",
    )
    pl.set_defaults(fn=cmd_baseline)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
