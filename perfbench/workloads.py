"""The benchmark's four workloads and the checks on their outputs.

``run_*`` workloads time one CLI-equivalent transpose per op: scatter a
seeded matrix, ``transpose`` it on a fresh ``CubeNetwork``, gather the
result and compare it bit for bit with ``A.T``.  ``serve_*`` workloads
time one served request per op, from ``submit`` to its outcome, under a
closed loop of two client threads against a one-worker
``TransposeServer``.

Every op is checked.  The simulated statistics are compared with the
exact counts pinned in ``counts.json``: per op on ``run_*``, per served
fault-free request (by stats fingerprint) on ``serve_*``, plus the whole
first block of requests when the seed is one of the pinned seeds.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import CubeNetwork, DistributedMatrix, transpose
from repro.machine.presets import connection_machine
from repro.plans.batch import BatchRequest, resolve_problem
from repro.plans.recorder import capture_transpose, synthetic_matrix
from repro.plans.replay import replay_plan
from repro.service.loadgen import solo_fingerprint, solo_payload_check
from repro.service.request import TransposeRequest, stats_fingerprint
from repro.service.scheduler import resolve_request
from repro.service.server import ServerConfig, TransposeServer
from repro.transpose.planner import default_after_layout

from perfbench.harness import (
    NULL_TRACER,
    InstrumentedNetwork,
    Tracer,
    median,
    p90,
    peak_rss_mb,
)

COUNTS_PATH = Path(__file__).with_name("counts.json")

#: The seed a run uses when none is given, and the seed kept back for
#: confirming a claim on inputs it was not tuned on.  Both have their
#: whole first serving block pinned in ``counts.json``.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1987
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: The machine has two cores: two load-generator clients, one worker.
CLIENTS = 2
WORKERS = 1
#: Served requests re-run solo after the timed window, per drive.
SOLO_SAMPLE = 6
#: Direct replays of each plan in the traced plan-layer measurement.
PLAN_REPS = 5
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class RunCase:
    n: int
    elements: int
    layout: str


@dataclass(frozen=True)
class ServeCase:
    n: int
    #: Element counts of the 2-D transpose shapes in the mix.
    elements: tuple[int, ...]
    #: Requests per block; the stream is a sequence of blocks that each
    #: hold the whole mix in their own seeded order.
    block: int
    #: Share of each kind of request that carries a seeded fault spec.
    fault_share: float = 0.0
    #: Pipeline spec that takes every ``workload_every``-th request.
    workload: str | None = None
    workload_every: int = 0


CASES = {
    "full": {
        "run_mpt_2d": RunCase(8, 1 << 18, "2d"),
        "run_sbnt_1d": RunCase(7, 1 << 14, "1d-rows"),
        "serve_hot": ServeCase(6, (256, 512, 1024), 240),
        "serve_storm": ServeCase(
            6, (64, 128, 256, 512, 1024), 200, 0.25, "fft@64x64", 5
        ),
    },
    # Small enough for the benchmark's own tests to run every workload.
    "tiny": {
        "run_mpt_2d": RunCase(4, 1 << 8, "2d"),
        "run_sbnt_1d": RunCase(4, 1 << 8, "1d-rows"),
        "serve_hot": ServeCase(4, (256, 512, 1024), 12),
        "serve_storm": ServeCase(
            4, (64, 128, 256, 512), 20, 0.25, "fft@16x16", 5
        ),
    },
}
WORKLOADS = tuple(CASES["full"])

#: The declared end-to-end metrics.  On a shared host whose speed switches
#: between a fast and a slow state every few to tens of seconds, the
#: median op time lands in either state from one run to the next; the
#: 90th percentile stays in the slow one.
END_TO_END = ("setup_s", "ops_per_s", "op_s_p90", "peak_rss_mb")
#: Printed in the table with the end-to-end metrics but not declared.
UNDECLARED = ("op_s_p50",)
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics and their units; every traced run reports all of
#: them, with 0 where a layer does no work on that workload.
PER_LAYER = {
    "layout.scatter_s": "s",
    "layout.gather_verify_s": "s",
    "machine.phase_s": "s",
    "machine.phases": "count",
    "machine.messages": "count",
    "machine.blocks": "count",
    "machine.element_hops": "count",
    "machine.modelled_s": "s",
    "machine.us_per_message": "us",
    "transpose.self_s": "s",
    "transpose.us_per_block": "us",
    "plans.compile_s": "s",
    "plans.compiles": "count",
    "plans.replay_s": "s",
    "plans.fingerprint_s": "s",
    "plans.cache_hit_ratio": "ratio",
    "service.submit_s": "s",
    "service.queue_wait_s_p50": "s",
    "service.queue_wait_s_p90": "s",
    "service.execute_s_p50": "s",
    "service.execute_s_p90": "s",
    "service.rejected": "count",
    "service.retried": "count",
    "recovery.execute_s_p50": "s",
    "recovery.resolved.clean": "count",
    "recovery.resolved.resume": "count",
    "recovery.resolved.surgery": "count",
    "recovery.resolved.ladder": "count",
    "recovery.rollbacks": "count",
    "recovery.replayed_phases": "count",
    "recovery.wasted_elements_ratio": "ratio",
    "workloads.execute_s_p50": "s",
    "obs.trace_overhead_ratio": "ratio",
}


def load_counts() -> dict:
    if not COUNTS_PATH.exists():
        return {}
    return json.loads(COUNTS_PATH.read_text())


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class Result:
    """What one run measured and how many of its ops failed."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: name -> (value, unit, how many samples it summarises)
    metrics: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: The traced run's spans, written out once the run has ended.
    tracer: Tracer | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def put(self, name: str, value: float, samples: str = "") -> None:
        unit = UNITS.get(name) or PER_LAYER[name]
        self.metrics[name] = (float(value), unit, samples)


def _compare(kind: str, observed: dict, expected: dict | None) -> str | None:
    """``None`` when every pinned count matches, else what differs."""
    if expected is None:
        return f"no pinned counts for {kind} (run.py --record-counts)"
    diff = [
        f"{k}={observed[k]!r} (pinned {expected[k]!r})"
        for k in observed
        if k in expected and observed[k] != expected[k]
    ]
    return f"{kind} counts differ: {', '.join(diff)}" if diff else None


def put_end_to_end(
    result: Result, times: list[float], window: float, what: str
) -> None:
    """Throughput, op-time quantiles and peak memory of an untraced run."""
    samples = f"{len(times)} samples"
    result.put("ops_per_s", len(times) / window,
               f"{len(times)} {what} in {window:.2f} s")
    result.put("op_s_p50", median(times), samples)
    result.put("op_s_p90", p90(times), samples)
    result.put("peak_rss_mb", peak_rss_mb())


# -- run_* -------------------------------------------------------------------


def gather_matches(result, original: np.ndarray) -> bool:
    """Gather the result and compare it bit for bit with ``original.T``."""
    gathered = result.matrix.to_global()
    expected = original.T
    return gathered.shape == expected.shape and np.array_equal(
        gathered.view(np.uint64), expected.view(np.uint64)
    )


class RunWorkload:
    """One scatter -> transpose -> gather-and-verify per op."""

    def __init__(self, name: str, case: RunCase, seed: int, pinned: dict):
        self.name = name
        self.params = connection_machine(case.n)
        self.before, self.after = resolve_problem(
            case.n, case.elements, case.layout
        )
        rng = np.random.default_rng(seed)
        self.matrix = rng.standard_normal(
            (1 << self.before.p, 1 << self.before.q)
        )
        self.pinned = pinned.get(name)
        # Lazy set-up: a 4-cube transpose of the same layout loads every
        # module the timed op will use.
        small_before, small_after = resolve_problem(4, 1 << 8, case.layout)
        transpose(
            CubeNetwork(connection_machine(4)),
            DistributedMatrix.from_global(
                rng.standard_normal((16, 16)), small_before
            ),
            small_after,
        )

    def close(self) -> None:
        pass

    def op(self, tracer) -> tuple[str | None, dict]:
        """Run one op; returns (error or None, its simulated counts)."""
        network = (
            InstrumentedNetwork(self.params, tracer=tracer)
            if tracer.enabled
            else CubeNetwork(self.params)
        )
        with tracer.span("op"):
            with tracer.span("layout.scatter"):
                dm = DistributedMatrix.from_global(self.matrix, self.before)
            with tracer.span("transpose"):
                result = transpose(network, dm, self.after)
            with tracer.span("layout.gather_verify"):
                ok = gather_matches(result, self.matrix)
        stats = result.stats
        counts = {
            "algorithm": result.algorithm,
            "phases": stats.phases,
            "messages": stats.messages,
            "startups": stats.startups,
            "element_hops": stats.element_hops,
            "modelled_s": stats.time,
            "stats_fingerprint": stats_fingerprint(stats),
        }
        if tracer.enabled:
            counts["blocks"] = network.blocks
        if not ok:
            return "gathered result differs from A.T", counts
        return _compare(self.name, counts, self.pinned), counts

    def run(self, seconds: float, traced: bool) -> Result:
        """Ops back to back for ``seconds``; traced runs alternate."""
        result = Result()
        tracer = Tracer() if traced else NULL_TRACER
        times: dict[bool, list[float]] = {False: [], True: []}
        traced_counts = None
        start = perf_counter()
        for i in itertools.count():
            use_trace = traced and i % 2 == 1
            # Collect the previous op's garbage outside the timed region.
            gc.collect()
            began = perf_counter()
            try:
                error, counts = self.op(tracer if use_trace else NULL_TRACER)
            except Exception as exc:
                error, counts = error_text(exc), None
            elapsed = perf_counter() - began
            result.attempted += 1
            if error is not None:
                result.fail(f"op {i}: {error}")
            else:
                times[use_trace].append(elapsed)
                if use_trace:
                    traced_counts = counts
            done = perf_counter() - start >= seconds
            if done and (not traced or i >= 1):
                break
        window = perf_counter() - start
        if traced:
            self._per_layer(result, tracer, times, traced_counts)
            result.tracer = tracer
            return result
        put_end_to_end(result, times[False], window, "ops")
        return result

    def _per_layer(self, result, tracer, times, counts) -> None:
        per_op = [
            (
                tracer.children_seconds(s, "machine.phase"),
                tracer.self_seconds(s),
            )
            for s in tracer.named("transpose")
        ]
        phase_s = median(p for p, _ in per_op)
        self_s = median(s for _, s in per_op)
        counts = counts or {}
        messages = counts.get("messages", 0)
        blocks = counts.get("blocks", 0)
        samples = f"{len(per_op)} traced ops"
        result.put("layout.scatter_s", median(
            s["end"] - s["start"] for s in tracer.named("layout.scatter")
        ), samples)
        result.put("layout.gather_verify_s", median(
            s["end"] - s["start"]
            for s in tracer.named("layout.gather_verify")
        ), samples)
        result.put("machine.phase_s", phase_s, samples)
        for name in ("phases", "messages", "blocks", "element_hops"):
            result.put(f"machine.{name}", counts.get(name, 0), "per op")
        result.put("machine.modelled_s", counts.get("modelled_s", 0.0),
                   "per op")
        result.put("machine.us_per_message",
                   phase_s / messages * 1e6 if messages else 0.0, samples)
        result.put("transpose.self_s", self_s, samples)
        result.put("transpose.us_per_block",
                   self_s / blocks * 1e6 if blocks else 0.0, samples)
        plain, traced = times[False], times[True]
        result.put(
            "obs.trace_overhead_ratio",
            median(traced) / median(plain) if plain and traced else 0.0,
            f"{len(traced)} traced / {len(plain)} untraced ops",
        )
        for name in PER_LAYER:
            result.metrics.setdefault(name, (0.0, PER_LAYER[name], "no work"))


# -- serve_* -----------------------------------------------------------------


def problem_key(problem: BatchRequest) -> str:
    """Pinned-table key of a request's problem, ignoring its faults."""
    shape = problem.workload or f"{problem.layout}/{problem.elements}"
    return f"{problem.machine}/n{problem.n}/{shape}"


def case_problems(case: ServeCase) -> list[BatchRequest]:
    """The fault-free problems a serving case mixes."""
    problems = [
        BatchRequest(elements=e, n=case.n, layout="2d", machine="cm")
        for e in case.elements
    ]
    if case.workload is not None:
        problems.append(
            BatchRequest(n=case.n, machine="cm", workload=case.workload)
        )
    return problems


def build_block(
    case: ServeCase, seed: int, block: int
) -> list[TransposeRequest]:
    """One block of the request stream: a fixed mix in a seeded order.

    The mix is fixed so that the seed moves the order, the priorities
    and the fault draws but not how much work a block holds: every shape
    appears equally often, every ``workload_every``-th request is the
    pipeline, and exactly ``fault_share`` of each kind carries a fault
    spec in the load generator's form.  Each block is drawn afresh, so a
    run sees many orders and fault draws rather than one repeated.
    """
    rng = random.Random(f"{seed}/{block}")
    problems = case_problems(case)
    transposes = problems[:len(case.elements)]
    pipeline = problems[-1] if case.workload is not None else None
    slots = [
        i for i in range(case.block)
        if pipeline is None or i % case.workload_every
    ]
    if len(slots) % len(transposes):
        raise ValueError("a block must hold every shape equally often")
    mix = transposes * (len(slots) // len(transposes))
    rng.shuffle(mix)
    problems = [pipeline] * case.block
    for i, problem in zip(slots, mix):
        problems[i] = problem
    groups: dict[str, list[int]] = {}
    for i, problem in enumerate(problems):
        groups.setdefault(problem_key(problem), []).append(i)
    for key in sorted(groups):
        indices = groups[key]
        for i in sorted(rng.sample(
            indices, round(case.fault_share * len(indices))
        )):
            problems[i] = replace(problems[i], faults=(
                f"seed={rng.randrange(1 << 16)},link_rate=0.03,"
                f"transient_rate=0.4,window=4"
            ))
    return [
        TransposeRequest(
            tenant=f"tenant-{i % CLIENTS}",
            problem=problem,
            priority=rng.randrange(2),
            request_id=block * case.block + i,
        )
        for i, problem in enumerate(problems)
    ]


def compile_plan(problem: BatchRequest):
    """Compile a problem's plan the way a worker does on a cache miss."""
    resolved = resolve_request(TransposeRequest(tenant="perfbench",
                                                problem=problem))
    if resolved.workload is not None:
        from repro.workloads import build_pipeline

        pipeline = build_pipeline(
            problem.workload, problem.n,
            layout=problem.layout, elements=problem.elements,
        )
        plan, _ = pipeline.compile(resolved.params)
        return resolved.params, plan
    target = (
        resolved.after
        if resolved.after is not None
        else default_after_layout(resolved.before)
    )
    _, plan = capture_transpose(
        resolved.params,
        synthetic_matrix(resolved.before),
        target,
        algorithm=resolved.algorithm,
    )
    return resolved.params, plan


def replay_counts(params, plan, tracer=NULL_TRACER) -> dict:
    """Replay ``plan`` once on a fresh instrumented machine."""
    network = InstrumentedNetwork(params, tracer=tracer)
    replay_plan(plan, network)
    stats = network.stats
    return {
        "phases": stats.phases,
        "messages": stats.messages,
        "blocks": network.blocks,
        "element_hops": stats.element_hops,
        "modelled_s": stats.time,
        "fingerprint": stats_fingerprint(stats),
    }


@dataclass
class Drive:
    """One closed-loop session against one server."""

    records: list[dict]
    window: float
    compiles: int

    def ok(self) -> list[dict]:
        return [r for r in self.records if r.get("error") is None]


class ServeWorkload:
    """Closed-loop clients against a one-worker ``TransposeServer``."""

    def __init__(self, name: str, case: ServeCase, seed: int, pinned: dict):
        self.name = name
        self.seed = seed
        self.case = case
        self.blocks = {0: build_block(case, seed, 0)}
        self.problems = pinned.get("serve_problems", {})
        self.pinned_block = pinned.get(name, {}).get(str(seed))
        self.clean = {problem_key(p): p for p in case_problems(case)}
        self.server = None
        self.start_server(trace=False)

    def start_server(self, trace: bool) -> None:
        """Start a server and fill its plan cache before any timing."""
        server = TransposeServer(ServerConfig(workers=WORKERS, trace=trace))
        server.start()
        try:
            first = self.blocks[0]
            warm = [replace(first[0], problem=p) for p in self.clean.values()]
            # One faulted request loads the recovery code paths too.
            warm += [r for r in first if r.problem.faults][:1]
            for k, request in enumerate(warm):
                outcome = server.submit(
                    replace(request, request_id=-1 - k)
                ).result(timeout=REQUEST_TIMEOUT_S)
                if outcome.status != "served":
                    raise RuntimeError(
                        f"warm-up request failed: {outcome.status} "
                        f"{outcome.error}"
                    )
        except BaseException:
            server.stop()
            raise
        self.server = server

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def request(self, i: int) -> TransposeRequest:
        """The stream's ``i``-th request (callers hold the drive lock)."""
        block, position = divmod(i, self.case.block)
        if block not in self.blocks:
            self.blocks[block] = build_block(self.case, self.seed, block)
        return self.blocks[block][position]

    def drive(self, seconds: float, tracer, *, need_first: bool) -> Drive:
        """Two clients submit back to back until ``seconds`` pass.

        With ``need_first`` the clients also finish the first block of
        the stream, so that its exact counts can be compared.
        """
        server = self.server
        size = self.case.block
        counter = itertools.count()
        lock = threading.Lock()
        records: list[dict] = []
        start = perf_counter()
        stop_at = start + seconds

        def one(i: int, request: TransposeRequest) -> dict:
            record: dict = {"i": i, "request": request, "error": None}
            with tracer.span("service.request", trace=f"req-{i}"):
                began = perf_counter()
                try:
                    with tracer.span("service.submit"):
                        pending = server.submit(request)
                    record["submit_s"] = perf_counter() - began
                    record["outcome"] = pending.result(
                        timeout=REQUEST_TIMEOUT_S
                    )
                except Exception as exc:
                    record["error"] = error_text(exc)
                record["latency"] = perf_counter() - began
            return record

        def client() -> None:
            while True:
                with lock:
                    i = next(counter)
                    request = self.request(i)
                if perf_counter() >= stop_at and not (need_first and i < size):
                    return
                record = one(i, request)
                with lock:
                    records.append(record)

        threads = [
            threading.Thread(target=client, name=f"perfbench-client-{k}",
                             daemon=True)
            for k in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        window = perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            records.append({"i": -1, "error": "a client never finished",
                            "latency": window})
        records.sort(key=lambda r: r["i"])
        return Drive(records, window, server.cache.counters()["misses"])

    # -- checks ----------------------------------------------------------

    def check(self, record: dict) -> str | None:
        """Why a served request counts as failed, or ``None``."""
        if record["error"] is not None:
            return record["error"]
        outcome = record["outcome"]
        if outcome.status != "served":
            return f"status {outcome.status}: {outcome.error}"
        problem = record["request"].problem
        if not problem.faults:
            pinned = self.problems.get(problem_key(problem))
            if pinned is None:
                return f"no pinned counts for {problem_key(problem)}"
            if outcome.fingerprint != pinned["fingerprint"]:
                return (
                    f"fingerprint {outcome.fingerprint[:12]} differs from "
                    f"pinned {pinned['fingerprint'][:12]}"
                )
        return None

    def check_drive(
        self, drive: Drive, result: Result, *, pinned_block: bool = True
    ) -> None:
        """Count every failed op, then re-run a seeded sample solo.

        With ``pinned_block`` a pinned seed's first block must also
        reproduce its pinned counts exactly.
        """
        for record in drive.records:
            record["error"] = self.check(record)
        result.attempted += len(drive.records)
        sample_from = [
            r for r in drive.ok() if not r["request"].problem.faults
        ]
        rng = random.Random(self.seed)
        for record in rng.sample(
            sample_from, min(SOLO_SAMPLE, len(sample_from))
        ):
            request = record["request"]
            try:
                if solo_fingerprint(request) != record["outcome"].fingerprint:
                    record["error"] = "served fingerprint differs from solo"
                elif not solo_payload_check(request)["ok"]:
                    record["error"] = "solo payload differs from A.T"
            except Exception as exc:
                record["error"] = error_text(exc)
        for record in drive.records:
            if record["error"] is not None:
                result.fail(f"request {record['i']}: {record['error']}")
        summary = self.block_summary(drive)
        if pinned_block and summary is not None and self.seed in PINNED_SEEDS:
            error = _compare(f"{self.name} block", summary, self.pinned_block)
            if error is not None:
                result.fail(error)

    def block_summary(self, drive: Drive) -> dict | None:
        """Exact counts of the stream's first block, if it completed."""
        first = [r for r in drive.records if 0 <= r["i"] < self.case.block]
        if len(first) < self.case.block or any(
            r["error"] is not None for r in first
        ):
            return None
        resolved: dict[str, int] = {}
        rollbacks = replayed = wasted = hops = 0
        modelled = 0.0
        digest = hashlib.sha256()
        for record in first:
            outcome = record["outcome"]
            resolved[outcome.resolved] = resolved.get(outcome.resolved, 0) + 1
            recovery = outcome.recovery or {}
            rollbacks += recovery.get("rollbacks", 0)
            replayed += recovery.get("replayed_phases", 0)
            wasted += recovery.get("wasted_elements", 0)
            problem = record["request"].problem
            if problem.faults:
                pinned = self.problems.get(
                    problem_key(replace(problem, faults=None)), {}
                )
                hops += pinned.get("element_hops", 0)
            modelled += outcome.modelled_time
            digest.update(outcome.fingerprint.encode())
        return {
            "requests": len(first),
            "resolved": dict(sorted(resolved.items())),
            "rollbacks": rollbacks,
            "replayed_phases": replayed,
            "wasted_elements": wasted,
            "faulted_clean_element_hops": hops,
            "modelled_s": modelled,
            "fingerprints": digest.hexdigest(),
        }

    # -- runs ------------------------------------------------------------

    def run(self, seconds: float, traced: bool) -> Result:
        result = Result()
        if not traced:
            drive = self.drive(seconds, NULL_TRACER, need_first=True)
            self.check_drive(drive, result)
            put_end_to_end(
                result, [r["latency"] for r in drive.ok()], drive.window,
                "requests",
            )
            return result
        # Alternate untraced and traced sessions, each on its own server
        # so a traced one can switch on the server's own tracing too;
        # the first traced session also completes the first block.
        tracer = Tracer()
        drives: dict[bool, list[Drive]] = {False: [], True: []}
        for k, trace in enumerate((False, True, False, True)):
            if k:
                self.close()
                self.start_server(trace=trace)
            drives[trace].append(self.drive(
                seconds / 4, tracer if trace else NULL_TRACER,
                need_first=k == 1,
            ))
        self.close()
        for drive in drives[False] + drives[True]:
            self.check_drive(drive, result)
        self._per_layer(result, tracer, drives[False], drives[True])
        result.tracer = tracer
        return result

    def _per_layer(self, result, tracer, plain, traced) -> None:
        ok = [r for drive in traced for r in drive.ok()]
        outcomes = [r["outcome"] for r in ok]
        samples = f"{len(ok)} traced requests"
        result.put("service.submit_s", median(r["submit_s"] for r in ok),
                   samples)
        for field_name in ("queue_wait_s", "execute_s"):
            values = [getattr(o, field_name) for o in outcomes]
            result.put(f"service.{field_name}_p50", median(values), samples)
            result.put(f"service.{field_name}_p90", p90(values), samples)
        result.put("service.rejected", sum(
            1 for drive in traced for r in drive.records
            if (r["error"] or "").startswith("AdmissionRejectedError")
        ))
        result.put("service.retried", sum(1 for o in outcomes if o.attempts > 1))
        result.put("recovery.execute_s_p50", median(
            r["outcome"].execute_s for r in ok if r["request"].problem.faults
        ))
        result.put("workloads.execute_s_p50", median(
            r["outcome"].execute_s for r in ok if r["request"].problem.workload
        ))
        first = [r for r in traced[0].ok() if r["i"] < self.case.block]
        groups = {"clean": 0, "resume": 0, "surgery": 0, "ladder": 0}
        for record in first:
            how = record["outcome"].resolved
            how = "surgery" if how.startswith("surgery-") else how
            groups[how if how in groups else "ladder"] += 1
        for how, count in groups.items():
            result.put(f"recovery.resolved.{how}", count, "first block")
        summary = self.block_summary(traced[0]) or {}
        result.put("recovery.rollbacks", summary.get("rollbacks", 0),
                   "first block")
        result.put("recovery.replayed_phases",
                   summary.get("replayed_phases", 0), "first block")
        hops = summary.get("faulted_clean_element_hops", 0)
        result.put(
            "recovery.wasted_elements_ratio",
            summary.get("wasted_elements", 0) / hops if hops else 0.0,
            "first block",
        )
        result.put("plans.cache_hit_ratio",
                   sum(1 for r in first if r["outcome"].cache_hit)
                   / len(first) if first else 0.0, "first block")
        result.put("plans.compiles", traced[0].compiles, "set-up and run")
        self._plan_layer(result, tracer)
        plain_ok = [r["latency"] for drive in plain for r in drive.ok()]
        traced_ok = [r["latency"] for r in ok]
        result.put(
            "obs.trace_overhead_ratio",
            median(traced_ok) / median(plain_ok)
            if plain_ok and traced_ok else 0.0,
            f"{len(traced_ok)} traced / {len(plain_ok)} untraced requests",
        )
        for name in PER_LAYER:
            result.metrics.setdefault(name, (0.0, PER_LAYER[name], "no work"))

    def _plan_layer(self, result: Result, tracer: Tracer) -> None:
        """Compile, replay and fingerprint the plan set directly."""
        compile_s = replay_s = fingerprint_s = phase_s = 0.0
        totals = {"phases": 0, "messages": 0, "blocks": 0,
                  "element_hops": 0, "modelled_s": 0.0}
        for key, problem in sorted(self.clean.items()):
            with tracer.span("plans.compile", trace=key) as span:
                params, plan = compile_plan(problem)
            compile_s += span["end"] - span["start"]
            replays, fingerprints, phases = [], [], []
            for _ in range(PLAN_REPS):
                with tracer.span("plans.replay", trace=key) as span:
                    counts = replay_counts(params, plan, tracer)
                replays.append(span["end"] - span["start"])
                phases.append(tracer.children_seconds(span, "machine.phase"))
                with tracer.span("plans.fingerprint", trace=key) as span:
                    plan.fingerprint
                fingerprints.append(span["end"] - span["start"])
            replay_s += median(replays)
            fingerprint_s += median(fingerprints)
            phase_s += median(phases)
            pinned = self.problems.get(key)
            if pinned is None or counts["fingerprint"] != pinned["fingerprint"]:
                result.fail(f"direct replay of {key} differs from its pin")
            for name in totals:
                totals[name] += counts[name]
        samples = f"{len(self.clean)} plans x {PLAN_REPS}"
        result.put("plans.compile_s", compile_s, f"{len(self.clean)} plans")
        result.put("plans.replay_s", replay_s, samples)
        result.put("plans.fingerprint_s", fingerprint_s, samples)
        result.put("machine.phase_s", phase_s, samples)
        for name, value in totals.items():
            result.put(f"machine.{name}", value, "one replay of each plan")
        messages = totals["messages"]
        result.put("machine.us_per_message",
                   phase_s / messages * 1e6 if messages else 0.0, samples)


def build(name: str, seed: int, scale: str = "full"):
    """Set a workload up: inputs from ``seed``, caches filled."""
    case = CASES[scale][name]
    pinned = load_counts().get(scale, {})
    if isinstance(case, RunCase):
        return RunWorkload(name, case, seed, pinned)
    return ServeWorkload(name, case, seed, pinned)


def record_counts(scale: str) -> dict:
    """Exact simulated counts of every workload at ``scale``.

    Pins what the simulator computes, not how fast: a change that only
    speeds the program up leaves every value here identical.
    """
    doc: dict = {"serve_problems": {}}
    for name, case in CASES[scale].items():
        if isinstance(case, RunCase):
            workload = RunWorkload(name, case, DEFAULT_SEED, {})
            _, counts = workload.op(Tracer())
            doc[name] = counts
            continue
        for problem in case_problems(case):
            params, plan = compile_plan(problem)
            counts = replay_counts(params, plan)
            solo = solo_fingerprint(
                TransposeRequest(tenant="perfbench", problem=problem)
            )
            if solo != counts["fingerprint"]:
                raise RuntimeError(f"solo fingerprint differs for {problem}")
            doc["serve_problems"][problem_key(problem)] = counts
    for name, case in CASES[scale].items():
        if isinstance(case, ServeCase):
            doc[name] = {}
            for seed in PINNED_SEEDS:
                workload = ServeWorkload(name, case, seed, doc)
                try:
                    drive = workload.drive(0.0, NULL_TRACER, need_first=True)
                finally:
                    workload.close()
                result = Result()
                workload.check_drive(drive, result, pinned_block=False)
                summary = workload.block_summary(drive)
                if result.failed or summary is None:
                    raise RuntimeError(
                        f"{name} seed {seed}: {result.errors[:3]}"
                    )
                doc[name][str(seed)] = summary
    return doc
