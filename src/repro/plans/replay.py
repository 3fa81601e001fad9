"""Execute a :class:`~repro.plans.ir.CompiledPlan` on a fresh network.

Replay re-performs the captured schedule with *virtual* blocks (sizes
only): every phase, message, copy and local charge is re-executed
through the engine, so the resulting
:class:`~repro.machine.metrics.TransferStats` — times, phases, messages,
start-ups, element hops, per-link loads — is identical to the original
run's, at a fraction of the wall-clock cost (no planning, no NumPy
payload movement).  Exclusive phases are replayed exclusively, so the
paper's edge-disjointness lemmas are re-checked on every replay.

A replay network may carry a :class:`~repro.machine.faults.FaultPlan`;
deliveries over faulted resources raise the usual typed errors, which
the serving path (:func:`repro.plans.serve.serve`) escalates on.

:func:`run_ops` is the one op interpreter: plain replay and the
checkpointed recovery executor
(:func:`repro.recovery.executor.execute_with_recovery`) both step
plans through it, so both get the per-message size check.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.machine.engine import CubeNetwork
from repro.machine.message import Block, Message
from repro.obs.instrumentation import instrumentation_of
from repro.plans.ir import (
    CollectOp,
    CompiledPlan,
    CopyOp,
    IdleOp,
    LocalOp,
    PhaseOp,
    PlaceOp,
    PlanOp,
    RemapOp,
)

__all__ = ["PlanReplayError", "replay_plan", "run_ops"]


class PlanReplayError(RuntimeError):
    """The plan cannot run on this network (wrong machine, corrupt ops)."""


def replay_plan(
    plan: CompiledPlan,
    network: CubeNetwork,
    *,
    check_params: bool = True,
    verify_sizes: bool = True,
    checkpoints=None,
) -> float:
    """Replay every op of ``plan`` on ``network``; returns modelled time.

    ``check_params`` insists the network's cost model equals the plan's
    provenance (names aside) — replaying a schedule on a machine with
    different constants would silently produce wrong times.
    ``verify_sizes`` cross-checks each message's element count against
    the blocks actually present, catching corrupt or mis-bound plans.

    ``checkpoints`` optionally attaches a
    :class:`~repro.recovery.checkpoint.CheckpointManager` to the network
    for the duration of the replay: the engine then snapshots node
    memories on the manager's phase cadence, giving even a plain replay
    rollback points (the resume path itself lives in
    :func:`repro.recovery.executor.execute_with_recovery`).

    Fault errors from a faulted network propagate untouched, exactly as
    they would from direct execution, so callers can ladder down.
    """
    if check_params:
        if not plan.machine.compatible_with(network.params):
            raise PlanReplayError(
                f"plan was compiled for {plan.machine.as_dict(with_name=False)} "
                f"but the network is {network.params.name!r} "
                f"(n={network.params.n})"
            )
        if plan.machine.topology != network.topology.spec:
            raise PlanReplayError(
                f"plan was compiled for topology {plan.machine.topology!r} "
                f"but the network interconnect is {network.topology.spec!r}"
            )
    start_time = network.stats.time
    if checkpoints is not None:
        network.checkpoints = checkpoints
    try:
        with instrumentation_of(network).span(
            "replay",
            category="algorithm",
            algorithm=plan.algorithm,
            ops=len(plan.ops),
            fingerprint=plan.fingerprint[:12],
        ):
            run_ops(plan.ops, network, verify_sizes=verify_sizes)
    finally:
        if checkpoints is not None:
            network.checkpoints = None
    return network.stats.time - start_time


def run_ops(
    ops: Sequence[PlanOp],
    network: CubeNetwork,
    *,
    start: int = 0,
    mask: int = 0,
    verify_sizes: bool = True,
    payloads: Mapping[Hashable, list] | None = None,
    consumed: dict | None = None,
    collected: dict | None = None,
    after_op=None,
) -> int:
    """Execute ``ops[start:]`` under XOR relabeling ``mask``; returns the mask.

    The one op interpreter.  A :class:`RemapOp` only changes the mask.
    ``verify_sizes`` checks each message's element count against the
    blocks its source holds.  ``payloads`` binds real arrays to
    placements (a ledger of arrays per key, consumed in order and
    counted in ``consumed``); without it blocks are virtual.
    ``collected``, when given, receives ``key -> (node, block)`` for
    every collected block.  ``after_op(next_index, mask, op)`` runs
    after each op completes — the recovery executor's hook for its
    cursor and checkpoints.
    """
    for index in range(start, len(ops)):
        op = ops[index]
        if isinstance(op, PhaseOp):
            messages = [
                Message(m.src ^ mask, m.dst ^ mask, m.keys)
                for m in op.messages
            ]
            if verify_sizes:
                memories = network.memories
                for msg, pm in zip(messages, op.messages):
                    mem = memories[msg.src]
                    try:
                        have = sum([mem.get(key).size for key in msg.keys])
                    except KeyError:
                        continue  # the engine raises its canonical error
                    if have != pm.elements:
                        raise PlanReplayError(
                            f"message {msg.src}->{msg.dst} carries {have} "
                            f"element(s) but the plan recorded {pm.elements}"
                        )
            network.execute_phase(messages, exclusive=op.exclusive)
        elif isinstance(op, PlaceOp):
            node = op.node ^ mask
            if payloads is None:
                network.place(node, Block(op.key, virtual_size=op.size))
            else:
                ledger = payloads.get(op.key)
                count = consumed.get(op.key, 0)
                if ledger is None or count >= len(ledger):
                    raise PlanReplayError(
                        f"payload ledger has no array for placement "
                        f"#{count + 1} of key {op.key!r}"
                    )
                network.place(node, Block(op.key, data=ledger[count]))
                consumed[op.key] = count + 1
        elif isinstance(op, CollectOp):
            node = op.node ^ mask
            block = network.memories[node].pop(op.key)
            if collected is not None:
                collected[op.key] = (node, block)
        elif isinstance(op, CopyOp):
            network.charge_copy({x ^ mask: c for x, c in op.per_node})
        elif isinstance(op, LocalOp):
            costs = (
                op.costs
                if isinstance(op.costs, float)
                else {x ^ mask: c for x, c in op.costs}
            )
            elements = (
                op.elements
                if op.elements is None or isinstance(op.elements, int)
                else {x ^ mask: c for x, c in op.elements}
            )
            network.execute_local(costs, elements)
        elif isinstance(op, IdleOp):
            network.idle_phase()
        elif isinstance(op, RemapOp):
            mask ^= op.mask
        else:
            raise PlanReplayError(f"unknown op in plan: {op!r}")
        if after_op is not None:
            after_op(index + 1, mask, op)
    return mask
