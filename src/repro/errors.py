"""Exception hierarchy shared by every repro subsystem.

The simulation deliberately separates three kinds of failure:

* ``SimulationError`` — a bug or misuse of the simulator itself
  (programming errors in the harness, impossible configurations).
* ``GuestFault`` — faults raised *by the simulated hardware* toward the
  simulated guest (page faults, protection violations).  These are part
  of normal machine behaviour and are caught by the hypervisor layer.
* ``MonitorError`` — failures inside monitoring components (auditors,
  the event multiplexer).  The auditing-container layer catches these so
  that one broken auditor cannot take down the monitoring pipeline,
  mirroring the isolation argument of the paper (Section V-C).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SimulationError(ReproError):
    """The simulation was misused or reached an impossible state."""


class ConfigurationError(SimulationError):
    """A component was configured with invalid parameters."""


class GuestFault(ReproError):
    """A hardware-level fault delivered to the simulated guest."""


class GuestPageFault(GuestFault):
    """Guest virtual address could not be translated (no PTE)."""

    def __init__(self, gva: int, access: str) -> None:
        super().__init__(f"guest page fault at GVA {gva:#x} ({access})")
        self.gva = gva
        self.access = access


class MonitorError(ReproError):
    """An auditor or monitoring component failed at runtime."""


class AuditorCrash(MonitorError):
    """An auditor raised an unhandled exception while auditing."""


class TraceFormatError(MonitorError):
    """A recorded trace (or one of its records) could not be decoded.

    Raised by the event codecs on a malformed record, and by the
    ``repro.replay`` readers on a broken stream; a reader that can still
    frame what follows leaves one in the trace body in place of the
    record instead.  Replay treats a record's error as a *graceful*
    rejection (the record is counted and skipped), never a crash.

    ``records_read`` carries how many body records came before the
    failure, when the raiser knows (the readers do; the per-record
    codecs leave it ``None``).
    """

    def __init__(self, message: str, records_read=None) -> None:
        super().__init__(message)
        self.records_read = records_read
