"""Guest kernel spinlocks.

Spinlocks are where the paper's hang-failure model lives (Section
VII-A): the fault classes of [34] — missing release, wrong ordering,
missing unlock/lock pair, missing interrupt-state restoration — all
corrupt spinlock protocol, and a task that spins on a never-released
lock occupies its vCPU forever with preemption disabled, ceasing all
context switches on that vCPU.

A lock whose holder is :data:`LEAKED` models the aftermath of a buggy
exit path that returned without unlocking: no live task holds it, and
no task ever will.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.task import Task

#: Sentinel holder for a lock orphaned by a missing-release fault.
LEAKED = "<leaked>"


class SpinLock:
    """One kernel spinlock."""

    def __init__(self, name: str, module: str = "core") -> None:
        self.name = name
        self.module = module
        self.holder: Optional[object] = None  # Task or LEAKED
        self.acquisitions = 0
        self.contentions = 0

    def try_acquire(self, task: "Task") -> bool:
        """Atomic test-and-set; returns True on success."""
        if self.holder is None:
            self.holder = task
            self.acquisitions += 1
            return True
        self.contentions += 1
        return False

    def release(self, task: "Task") -> None:
        if self.holder is not task:
            who = getattr(task, "comm", repr(task))
            raise SimulationError(
                f"{who} releasing lock {self.name!r} held by {self.holder!r}"
            )
        self.holder = None

    def leak(self) -> None:
        """Poison the lock: simulates a release that never happened."""
        self.holder = LEAKED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpinLock({self.name!r}, holder={self.holder!r})"


class LockTable:
    """All spinlocks in the guest kernel, keyed by name."""

    #: The kernel's standard lock set and the module each belongs to,
    #: mirroring the paper's injection targets (core kernel plus the
    #: ext3, char and block modules).
    WELL_KNOWN = {
        "tasklist_lock": "core",
        "runqueue_lock": "core",
        "timer_lock": "core",
        "dcache_lock": "core",
        "inode_lock": "ext3",
        "journal_lock": "ext3",
        "buffer_lock": "block",
        "queue_lock": "block",
        "tty_lock": "char",
        "console_lock": "char",
        "sock_lock": "net",
        "rx_lock": "net",
    }

    def __init__(self) -> None:
        self._locks: Dict[str, SpinLock] = {
            name: SpinLock(name, module)
            for name, module in self.WELL_KNOWN.items()
        }

    def get(self, name: str) -> SpinLock:
        lock = self._locks.get(name)
        if lock is None:
            # Dynamically created locks default to the core module.
            lock = SpinLock(name, "core")
            self._locks[name] = lock
        return lock
