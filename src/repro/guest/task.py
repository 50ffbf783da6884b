"""Task objects: the Python-side handle onto guest-memory task structs.

The *authoritative* task data (pid, uid, euid, comm, list linkage...)
lives in guest physical memory in ``TASK_STRUCT`` layout; this class
caches addresses and holds pure scheduling state (generator frames,
runqueue membership) that a real kernel would keep in registers and on
the kernel stack.  Monitors never read this Python object — they read
hardware state and guest memory.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, List, Optional, TYPE_CHECKING

from repro.guest.layouts import THREAD_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.programs import KernelOp
    from repro.hw.paging import AddressSpace


class TaskState(enum.Enum):
    RUNNING = "running"
    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    UNINTERRUPTIBLE = "uninterruptible"
    SPINNING = "spinning"  # busy-waiting on a contended spinlock
    ZOMBIE = "zombie"

    @property
    def proc_char(self) -> str:
        """State character as /proc/<pid>/stat reports it."""
        return {
            TaskState.RUNNING: "R",
            TaskState.RUNNABLE: "R",
            TaskState.SPINNING: "R",
            TaskState.SLEEPING: "S",
            TaskState.UNINTERRUPTIBLE: "D",
            TaskState.ZOMBIE: "Z",
        }[self]


#: States in which a task can be picked to run.  A tuple: ``in`` finds
#: a member by identity without calling ``Enum.__hash__``.
_RUNNABLE_STATES = (TaskState.RUNNABLE, TaskState.RUNNING, TaskState.SPINNING)


class MmHandle:
    """Python handle over a guest mm_struct + its address space."""

    def __init__(self, gva: int, address_space: "AddressSpace") -> None:
        self.gva = gva
        self.address_space = address_space

    @property
    def pgd(self) -> int:
        return self.address_space.pdba


class Task:
    """One schedulable entity (process main thread or kernel thread)."""

    def __init__(
        self,
        pid: int,
        comm: str,
        task_struct_gva: int,
        thread_info_gva: int,
        kernel_stack_gva: int,
        mm: Optional[MmHandle],
        is_kthread: bool = False,
    ) -> None:
        self.pid = pid
        self.comm = comm
        self.task_struct_gva = task_struct_gva
        self.thread_info_gva = thread_info_gva
        self.kernel_stack_gva = kernel_stack_gva
        self.mm = mm
        self.is_kthread = is_kthread

        self.state = TaskState.RUNNABLE
        self.cpu = 0
        #: Remaining timeslice in ns (reset at dispatch).
        self.slice_remaining_ns = 0
        #: Generator frames: [program] + nested kernel handlers.
        self.frames: List[Generator] = []
        #: Kind of each frame: "user", "syscall", or "kops".
        self.frame_kinds: List[str] = []
        #: Value to send into the top frame on the next advance.
        self.send_value: Any = None
        #: Kernel op to retry (contended spinlock).
        self.retry_op: Optional["KernelOp"] = None
        #: Locks currently held (names), for diagnostics and fault logic.
        self.held_locks: List[str] = []
        #: >0 means preemption disabled (spinlocks held / explicit).
        self.preempt_count = 0
        #: True while executing kernel code (syscall/irq context).
        self.in_kernel = False
        #: Exit code once ZOMBIE.
        self.exit_code: Optional[int] = None
        #: Wait channel name while SLEEPING.
        self.wait_channel: Optional[str] = None
        self.start_time_ns = 0
        #: Set by attacks: this task's /proc visibility (rootkits flip
        #: guest memory, not this; see repro.attacks.rootkits).
        self.user_ns_note = ""

    # ------------------------------------------------------------------
    @property
    def rsp0(self) -> int:
        """Top of this task's kernel stack — the thread identifier the
        architecture exposes through TSS.RSP0 (Fig 3B)."""
        return self.kernel_stack_gva + THREAD_SIZE

    @property
    def pdba(self) -> int:
        """The CR3 value while this task runs (0 for kernel threads,
        which borrow the previous mm)."""
        return self.mm.pgd if self.mm is not None else 0

    def push_frame(self, gen: Generator, kind: str = "user") -> None:
        self.frames.append(gen)
        self.frame_kinds.append(kind)

    def pop_frame(self) -> None:
        self.frames.pop()
        if self.frame_kinds:
            self.frame_kinds.pop()

    @property
    def current_frame(self) -> Optional[Generator]:
        return self.frames[-1] if self.frames else None

    def runnable(self) -> bool:
        return self.state in _RUNNABLE_STATES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task(pid={self.pid}, comm={self.comm!r}, "
            f"state={self.state.value}, cpu={self.cpu})"
        )
