"""Typed errors raised by the end-to-end integrity machinery.

All of them are :class:`~repro.machine.faults.FaultError` subclasses with
``kind = FaultKind.PERMANENT``, so every consumer that already dispatches
on fail-stop faults — the planner's reactive ladder, ``serve``'s stages,
``execute_with_recovery`` — handles detected corruption with zero new
control flow: an unrecoverable corrupted delivery *is* a permanent fault
of the offending link (it has just been quarantined).
"""

from __future__ import annotations

from repro.machine.faults import FaultError, FaultKind, LinkFailureError

__all__ = [
    "CorruptedCheckpointError",
    "CorruptedDeliveryError",
    "LinkQuarantinedError",
]


class CorruptedDeliveryError(FaultError):
    """Every transmission of a message failed checksum verification.

    Raised by :class:`~repro.integrity.manager.IntegrityManager` when a
    delivery over a corrupting link stays damaged through the whole
    retransmit budget.  The link is quarantined *before* the raise, so
    any retry — the router's next round, the recovery executor's plan
    surgery, the planner ladder — already sees it as dead.
    """

    def __init__(self, src: int, dst: int, phase: int, attempts: int) -> None:
        self.src = src
        self.dst = dst
        self.phase = phase
        self.attempts = attempts
        self.kind = FaultKind.PERMANENT
        super().__init__(
            f"delivery over directed link {src}->{dst} at phase {phase} "
            f"failed checksum verification {attempts} time(s); retransmit "
            "budget exhausted, link quarantined"
        )


class LinkQuarantinedError(LinkFailureError):
    """A message was scheduled over a quarantined (flaky) link.

    Subclasses :class:`~repro.machine.faults.LinkFailureError` so every
    existing fail-stop consumer treats a quarantined link exactly like a
    permanently faulted one.
    """

    def __init__(self, src: int, dst: int, phase: int) -> None:
        # Bypass LinkFailureError.__init__ to carry a quarantine-specific
        # message while keeping its attribute contract.
        FaultError.__init__(
            self,
            f"directed link {src}->{dst} is quarantined for repeated "
            f"payload corruption at phase {phase}",
        )
        self.src = src
        self.dst = dst
        self.phase = phase
        self.kind = FaultKind.PERMANENT


class CorruptedCheckpointError(FaultError):
    """No retained checkpoint passes digest validation.

    Resuming from damaged state would silently propagate corruption into
    the final matrix — the one outcome the integrity subsystem exists to
    prevent — so rollback refuses and recovery fails loudly instead.
    """

    def __init__(self, phase_index: int, discarded: int) -> None:
        self.phase_index = phase_index
        self.discarded = discarded
        self.kind = FaultKind.PERMANENT
        super().__init__(
            f"all {discarded} retained checkpoint(s) failed digest "
            f"validation at phase {phase_index}; refusing to resume from "
            "corrupted state"
        )
