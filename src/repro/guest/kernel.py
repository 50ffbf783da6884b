"""The guest kernel: boot, scheduling, syscall dispatch, execution.

This is the OS under test.  It is a real (if small) kernel in the sense
that matters for the paper:

* all task state lives in guest physical memory in fixed layouts,
* context switches perform the two architectural writes HyperTap
  intercepts — ``TSS.RSP0`` (thread identity) and ``CR3`` (process
  identity),
* system calls enter through the SYSENTER target or ``INT 0x80``,
* spinlocks disable preemption, so lock-protocol faults wedge vCPUs,
* ``/proc`` content comes from walking the in-memory task list.

The *executor* drives each vCPU as a chain of discrete-event steps:
service interrupts, honour preemption, advance the current task's
generator by one operation, charge the accrued simulated time, and
schedule the next step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.guest.kalloc import KernelAllocator
from repro.guest.layouts import (
    KERNEL_TEXT_BASE,
    KERNEL_TEXT_GPA,
    KERNEL_TEXT_SIZE,
    MM_STRUCT,
    PF_KTHREAD,
    SYSENTER_ENTRY_GVA,
    TASK_STRUCT,
    THREAD_INFO,
    THREAD_SIZE,
    USER_STACK_TOP,
    USER_TEXT_BASE,
    direct_map_gpa,
    StructRef,
)
from repro.guest.locks import LockTable
from repro.guest.programs import (
    BlockOn,
    Compute,
    DiskRequest,
    ExitProgram,
    FaultEffect,
    FaultPoint,
    GuestContext,
    KCompute,
    KMemRead,
    KMemWrite,
    LockAcquire,
    LockRelease,
    PortIo,
    Syscall,
)
from repro.guest.scheduler import CpuState, least_loaded
from repro.guest.syscalls import DEFAULT_SYSCALL_TABLE, SYSCALL_NUMBERS
from repro.guest.task import MmHandle, Task, TaskState
from repro.hw.cpu import VCPU
from repro.hw.machine import Machine
from repro.hw.memory import PAGE_SIZE
from repro.hw.msr import IA32_SYSENTER_CS, IA32_SYSENTER_EIP, IA32_SYSENTER_ESP
from repro.hw.tss import RSP0_OFFSET
from repro.hw.vmcs import VECTOR_DISK, VECTOR_NET, VECTOR_TIMER
from repro.sim.clock import MICROSECOND, MILLISECOND

#: Minimum executor step (prevents zero-length event loops).
MIN_STEP_NS = 2 * MICROSECOND
#: Idle loop granularity.
IDLE_SLICE_NS = 2 * MILLISECOND
#: Spin-wait sampling backoff cap (the vCPU still "spins" continuously
#: in simulated time; we merely sample the lock less often).
SPIN_BACKOFF_CAP_NS = 10 * MILLISECOND

FaultHook = Callable[[Task, int, str, str], Optional[FaultEffect]]


@dataclass
class KernelConfig:
    """Guest kernel build/runtime options."""

    #: CONFIG_PREEMPT: allow preemption of kernel code (outside
    #: spinlock critical sections).  The paper evaluates both builds.
    preemptible: bool = False
    #: "sysenter" (fast syscalls) or "int80" (legacy gate).
    syscall_mechanism: str = "sysenter"
    timeslice_ns: int = 6 * MILLISECOND
    housekeeping_period_ns: int = 1_000 * MILLISECOND

    def validate(self) -> None:
        if self.syscall_mechanism not in ("sysenter", "int80"):
            raise SimulationError(
                f"unknown syscall mechanism {self.syscall_mechanism!r}"
            )


class GuestKernel:
    """One booted guest OS instance on a :class:`Machine`."""

    def __init__(self, machine: Machine, config: Optional[KernelConfig] = None):
        self.machine = machine
        self.config = config if config is not None else KernelConfig()
        self.config.validate()
        self.costs = machine.costs
        self.engine = machine.engine
        self.allocator = KernelAllocator(machine)
        self.locks = LockTable()
        self.syscall_table = dict(DEFAULT_SYSCALL_TABLE)
        self.cpus: List[CpuState] = []
        self.tasks: Dict[int, Task] = {}
        self._next_pid = 1
        self._next_fd: Dict[int, int] = {}
        self.pending_rx: Deque[int] = deque()
        self._disk_waiters: Deque[Task] = deque()
        self._wait_channels: Dict[str, Deque[Task]] = {}
        self._block_seq = 0
        self.fault_hook: Optional[FaultHook] = None
        self.exploit_log: List[Tuple[int, int, str]] = []  # (time, pid, cve)
        self.syscall_count = 0
        self.booted = False
        self.running = False
        self.swapper_pdba = 0
        self.init_task_gva = 0
        self.kernel_pdba = 0
        self._swappers: List[Task] = []
        #: Per-vCPU timeslice labels (``perturb.TIMESLICE_LABELS``
        #: matches on them), built once at boot rather than per step.
        self._step_labels: List[str] = []

    # ==================================================================
    # Boot
    # ==================================================================
    def boot(self) -> None:
        """Bring the guest up: memory map, swapper tasks, TSS, MSRs."""
        if self.booted:
            raise SimulationError("kernel already booted")
        machine = self.machine
        registry = machine.page_registry

        # Kernel text mapping (shared by every address space).
        gva, gpa = KERNEL_TEXT_BASE, KERNEL_TEXT_GPA
        for off in range(0, KERNEL_TEXT_SIZE, PAGE_SIZE):
            registry.kernel.map_page(gva + off, gpa + off)

        # The kernel's own address space (swapper / init_mm).
        swapper_space = registry.create_address_space()
        self.swapper_pdba = swapper_space.pdba
        self.kernel_pdba = swapper_space.pdba

        # Per-vCPU swapper (idle) tasks; swapper 0 is the task-list head.
        for vcpu in machine.vcpus:
            swapper = self._create_task_struct(
                pid=0,
                comm=f"swapper/{vcpu.index}",
                uid=0,
                euid=0,
                mm=None,
                is_kthread=True,
                exe="[swapper]",
            )
            self._swappers.append(swapper)
            self.cpus.append(CpuState(vcpu.index, swapper))
        self.init_task_gva = self._swappers[0].task_struct_gva
        head = self.task_ref(self._swappers[0])
        head.write("tasks_next", self.init_task_gva)
        head.write("tasks_prev", self.init_task_gva)

        # Per-vCPU architectural bring-up: CR3, TSS, TR, SYSENTER MSRs.
        for vcpu, swapper in zip(machine.vcpus, self._swappers):
            vcpu.guest_write_cr3(self.swapper_pdba)
            tss_gva = self.allocator.alloc_page()
            vcpu.guest_load_tr(tss_gva)
            vcpu.guest_mem_write_u64(tss_gva + RSP0_OFFSET, swapper.rsp0)
            vcpu.guest_wrmsr(IA32_SYSENTER_CS, 0x10)
            vcpu.guest_wrmsr(IA32_SYSENTER_ESP, swapper.rsp0)
            vcpu.guest_wrmsr(IA32_SYSENTER_EIP, SYSENTER_ENTRY_GVA)

        # IRQ handlers.
        machine.register_irq_handler(VECTOR_TIMER, self._irq_timer)
        machine.register_irq_handler(VECTOR_DISK, self._irq_disk)
        machine.register_irq_handler(VECTOR_NET, self._irq_net)

        # init is pid 1, then the standard kernel threads (per-CPU
        # housekeeping and writeback, like Linux's per-bdi flushers).
        self.spawn_process(_init_program, "init", uid=0, euid=0, exe="/sbin/init")
        for cpu in self.cpus:
            self.spawn_kthread(
                _khousekeepd, f"khousekeepd/{cpu.index}", cpu=cpu.index
            )
        for cpu in self.cpus:
            self.spawn_kthread(_kflushd, f"kflushd/{cpu.index}", cpu=cpu.index)
        self.spawn_kthread(_knetd, "knetd", cpu=self.cpus[-1].index)

        machine.start_timers()
        self.booted = True
        self.running = True
        self._step_labels = [f"step-vcpu{v.index}" for v in machine.vcpus]
        for i, vcpu in enumerate(machine.vcpus):
            self.engine.schedule(
                MIN_STEP_NS + i * 137, self._step, vcpu,
                label=self._step_labels[i],
            )

    def shutdown(self) -> None:
        """Stop executing (campaign teardown)."""
        self.running = False
        self.machine.stop_timers()

    # ==================================================================
    # Task and structure management
    # ==================================================================
    def task_ref(self, task: Task) -> StructRef:
        return StructRef(
            self.machine, self.kernel_pdba, TASK_STRUCT, task.task_struct_gva
        )

    def task_ref_at(self, gva: int) -> StructRef:
        return StructRef(self.machine, self.kernel_pdba, TASK_STRUCT, gva)

    def _create_task_struct(
        self,
        pid: int,
        comm: str,
        uid: int,
        euid: int,
        mm: Optional[MmHandle],
        is_kthread: bool,
        exe: str,
        parent_gva: int = 0,
    ) -> Task:
        """Allocate and initialize the guest-memory objects of a task."""
        ts_gva = self.allocator.alloc(TASK_STRUCT.size)
        stack_gva = self.allocator.alloc_stack(THREAD_SIZE)
        ti_gva = stack_gva  # thread_info lives at the stack bottom

        task = Task(
            pid=pid,
            comm=comm,
            task_struct_gva=ts_gva,
            thread_info_gva=ti_gva,
            kernel_stack_gva=stack_gva,
            mm=mm,
            is_kthread=is_kthread,
        )
        task.start_time_ns = self.machine.clock.now

        ref = self.task_ref(task)
        ref.write("pid", pid)
        ref.write("tgid", pid)
        ref.write("uid", uid)
        ref.write("euid", euid)
        ref.write("gid", uid)
        ref.write("state", 0)
        ref.write("flags", PF_KTHREAD if is_kthread else 0)
        ref.write("mm", mm.gva if mm is not None else 0)
        ref.write("stack", ti_gva)
        ref.write("parent", parent_gva)
        ref.write("start_time", task.start_time_ns)
        ref.write("utime", 0)
        ref.write_str("comm", comm)
        ref.write_str("exe", exe)

        ti = StructRef(self.machine, self.kernel_pdba, THREAD_INFO, ti_gva)
        ti.write("task", ts_gva)
        ti.write("cpu", 0)
        ti.write("preempt_count", 0)
        return task

    def _link_task(self, task: Task) -> None:
        """Insert into the circular task list (before the head)."""
        head = self.task_ref_at(self.init_task_gva)
        tail_gva = head.read("tasks_prev")
        tail = self.task_ref_at(tail_gva)
        me = self.task_ref(task)
        me.write("tasks_prev", tail_gva)
        me.write("tasks_next", self.init_task_gva)
        tail.write("tasks_next", task.task_struct_gva)
        head.write("tasks_prev", task.task_struct_gva)

    def _unlink_task(self, task: Task) -> None:
        """Remove from the circular task list (exit path).

        If a rootkit already unlinked the entry (DKOM), the pointers no
        longer reference this task; the unlink then is a no-op rather
        than a corruption.
        """
        me = self.task_ref(task)
        next_gva = me.read("tasks_next")
        prev_gva = me.read("tasks_prev")
        if next_gva == 0 or prev_gva == 0:
            return
        nxt = self.task_ref_at(next_gva)
        prv = self.task_ref_at(prev_gva)
        if prv.read("tasks_next") == task.task_struct_gva:
            prv.write("tasks_next", next_gva)
        if nxt.read("tasks_prev") == task.task_struct_gva:
            nxt.write("tasks_prev", prev_gva)
        me.write("tasks_next", 0)
        me.write("tasks_prev", 0)

    def spawn_process(
        self,
        program,
        name: str,
        parent: Optional[Task] = None,
        uid: Optional[int] = None,
        euid: Optional[int] = None,
        exe: str = "",
        argv: Tuple[Any, ...] = (),
        pin_cpu: Optional[int] = None,
    ) -> Task:
        """Create a user process running ``program`` (fork+exec)."""
        registry = self.machine.page_registry
        space = registry.create_address_space()
        # Map a text page and a stack page of real memory.
        text_gva = self.allocator.alloc_page()
        stack_page_gva = self.allocator.alloc_page()
        space.map_user_page(USER_TEXT_BASE, direct_map_gpa(text_gva))
        space.map_user_page(
            USER_STACK_TOP - PAGE_SIZE, direct_map_gpa(stack_page_gva)
        )
        mm_gva = self.allocator.alloc(MM_STRUCT.size)
        mm = MmHandle(mm_gva, space)

        if uid is None:
            uid = self.task_ref(parent).read("uid") if parent else 0
        if euid is None:
            euid = uid
        pid = self._next_pid
        self._next_pid += 1
        task = self._create_task_struct(
            pid=pid,
            comm=name[:15],
            uid=uid,
            euid=euid,
            mm=mm,
            is_kthread=False,
            exe=exe or name,
            parent_gva=parent.task_struct_gva if parent else self.init_task_gva,
        )
        mm_ref = StructRef(self.machine, self.kernel_pdba, MM_STRUCT, mm_gva)
        mm_ref.write("pgd", space.pdba)
        mm_ref.write("owner", task.task_struct_gva)
        mm_ref.write("vm_pages", 2)

        task.push_frame(program(GuestContext(argv)))
        self.tasks[pid] = task
        self._link_task(task)
        cpu = (
            self.cpus[pin_cpu]
            if pin_cpu is not None
            else least_loaded(self.cpus)
        )
        cpu.enqueue(task)
        return task

    def spawn_kthread(self, program_fn, name: str, cpu: int = 0) -> Task:
        """Create a kernel thread (no mm; borrows address spaces)."""
        pid = self._next_pid
        self._next_pid += 1
        task = self._create_task_struct(
            pid=pid,
            comm=name[:15],
            uid=0,
            euid=0,
            mm=None,
            is_kthread=True,
            exe=f"[{name}]",
            parent_gva=self.init_task_gva,
        )
        task.in_kernel = True
        task.push_frame(program_fn(self, task))
        self.tasks[pid] = task
        self._link_task(task)
        self.cpus[cpu].enqueue(task)
        return task

    def find_task(self, pid: int) -> Optional[Task]:
        return self.tasks.get(pid)

    def next_fd(self, task: Task) -> int:
        fd = self._next_fd.get(task.pid, 3)
        self._next_fd[task.pid] = fd + 1
        return fd

    def note_exploit(self, task: Task, cve: str) -> None:
        self.exploit_log.append((self.machine.clock.now, task.pid, cve))

    # ==================================================================
    # Guest views (task-list walks) and /proc content
    # ==================================================================
    #: vCPU currently executing kernel code (guest-access context).
    executing_vcpu: Optional[VCPU] = None

    def _read_u64(self, gva: int) -> int:
        if self.executing_vcpu is not None:
            return self.executing_vcpu.guest_mem_read_u64(gva)
        return self.machine.host_read_u64_gva(self.kernel_pdba, gva)

    def walk_task_list_guest(self) -> Iterator[Dict[str, Any]]:
        """Walk the in-memory task list, yielding one dict per task.

        This is the guest's own view (and traditional VMI's view): it
        follows the ``tasks_next`` pointers in guest memory, so a DKOM
        rootkit that unlinks an entry hides it from this walk.
        """
        head = self.init_task_gva
        cur = self._read_u64(head + TASK_STRUCT.offset("tasks_next"))
        steps = 0
        while cur != head and cur != 0 and steps < 65536:
            ref = self.task_ref_at(cur)
            yield {
                "pid": ref.read("pid"),
                "uid": ref.read("uid"),
                "euid": ref.read("euid"),
                "comm": ref.read_str("comm"),
                "exe": ref.read_str("exe"),
                "flags": ref.read("flags"),
                "parent_gva": ref.read("parent"),
                "task_struct_gva": cur,
            }
            cur = self._read_u64(cur + TASK_STRUCT.offset("tasks_next"))
            steps += 1

    def guest_view_pids(self) -> List[int]:
        """The pid list ``ps`` would print inside the guest.

        Dispatched through the syscall table — so a rootkit that
        hijacked the /proc readers censors this view, exactly like it
        censors Task Manager or ``ps`` on a real system.
        """
        handler = self.syscall_table["proc_list"]
        gen = handler(self, self._swappers[0], ())
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return list(stop.value or ())

    def proc_stat(self, pid: int) -> Optional[Dict[str, Any]]:
        """/proc/<pid>/stat content (state + utime), or None.

        Direct pid-hash lookup, like Linux's ``/proc/<pid>`` path.
        Rootkits that want these reads censored hook the syscall
        (see ``repro.attacks.rootkits``).
        """
        task = self.tasks.get(pid)
        if task is None:
            return None
        ref = self.task_ref(task)
        return {
            "pid": pid,
            "state": task.state.proc_char,
            "utime": ref.read("utime"),
            "comm": task.comm,
        }

    # ==================================================================
    # Wait channels, wakeups, blocking
    # ==================================================================
    def _channel(self, name: str) -> Deque[Task]:
        ch = self._wait_channels.get(name)
        if ch is None:
            ch = deque()
            self._wait_channels[name] = ch
        return ch

    def wake(self, channel: str, wake_all: bool = False) -> int:
        """Wake task(s) sleeping on ``channel``; returns count woken."""
        ch = self._channel(channel)
        woken = 0
        while ch:
            task = ch.popleft()
            if task.state in (TaskState.SLEEPING, TaskState.UNINTERRUPTIBLE):
                task.wait_channel = None
                self.cpus[task.cpu].enqueue(task)
                woken += 1
            if not wake_all and woken:
                break
        return woken

    def _block_current(
        self, vcpu: VCPU, task: Task, channel: str, timeout_ns: int,
        uninterruptible: bool = False,
    ) -> None:
        task.state = (
            TaskState.UNINTERRUPTIBLE if uninterruptible else TaskState.SLEEPING
        )
        task.wait_channel = channel
        self._channel(channel).append(task)
        self._block_seq += 1
        seq = self._block_seq
        task_block_seq = seq
        task._block_seq = seq  # type: ignore[attr-defined]
        if timeout_ns > 0:
            def _timeout() -> None:
                if (
                    task.state is TaskState.SLEEPING
                    and getattr(task, "_block_seq", None) == task_block_seq
                ):
                    ch = self._channel(channel)
                    try:
                        ch.remove(task)
                    except ValueError:
                        pass
                    task.wait_channel = None
                    self.cpus[task.cpu].enqueue(task)

            self.engine.schedule(timeout_ns, _timeout, label=f"timeout:{channel}")

    def request_resched(self, task: Task) -> None:
        self.cpus[task.cpu].need_resched = True

    def deliver_packet(self, size: int = 512, vcpu_index: int = 0) -> None:
        """External traffic arrival (ApacheBench, SSH probe...)."""
        self.pending_rx.append(size)
        self.machine.nic.inject_packet(self.machine.vcpus[vcpu_index])

    # ==================================================================
    # IRQ handlers (hardirq context; host-side Python, charged time)
    # ==================================================================
    def _irq_timer(self, vcpu: VCPU, vector: int) -> None:
        cpu = self.cpus[vcpu.index]
        cpu.ticks_seen += 1
        vcpu.charge(self.costs.timer_tick_handler_ns)
        now = self.machine.clock.now
        cur = cpu.current
        if cur is not cpu.idle_task:
            cur.slice_remaining_ns -= self.costs.timer_period_ns
            ref = self.task_ref(cur)
            ref.write("utime", ref.read("utime") + self.costs.timer_period_ns)
            if cur.slice_remaining_ns <= 0:
                cpu.need_resched = True
        if now - cpu.last_housekeep_ns >= self.config.housekeeping_period_ns:
            cpu.last_housekeep_ns = now
            self.wake(f"housekeep:{cpu.index}")
        # Idle balancing: an idle CPU steals runnable work queued
        # behind a busy (or wedged) sibling, like the Linux load
        # balancer.  This is also how hangs propagate: stolen tasks
        # that touch a poisoned lock wedge their new CPU too.
        if cpu.current is cpu.idle_task and not cpu.runqueue:
            self._steal_work(cpu)

    def _steal_work(self, idle_cpu: CpuState) -> None:
        for other in self.cpus:
            if other is idle_cpu or len(other.runqueue) == 0:
                continue
            # Don't steal the only queued task from a healthy CPU that
            # will run it momentarily; do steal from one whose current
            # task has monopolized the CPU past its timeslice.
            current_stuck = (
                other.current is not other.idle_task
                and other.current.slice_remaining_ns <= 0
            )
            if len(other.runqueue) > 1 or current_stuck:
                task = other.runqueue.popleft()
                idle_cpu.enqueue(task)
                return

    def _irq_disk(self, vcpu: VCPU, vector: int) -> None:
        vcpu.charge(3_000)
        if self._disk_waiters:
            task = self._disk_waiters.popleft()
            if task.state is TaskState.UNINTERRUPTIBLE:
                task.wait_channel = None
                self.cpus[task.cpu].enqueue(task)

    def _irq_net(self, vcpu: VCPU, vector: int) -> None:
        vcpu.charge(4_000)
        if self.fault_hook is not None:
            cur = self.cpus[vcpu.index].current
            effect = self.fault_hook(cur, vcpu.index, "net_rx_action", "net")
            if effect is not None:
                if effect.disable_irqs:
                    self.cpus[vcpu.index].irqs_enabled = False
                if effect.drop_work:
                    if self.pending_rx:
                        self.pending_rx.pop()
                    return
        self.wake("net_rx")

    # ==================================================================
    # Context switching (the architectural writes HyperTap traps)
    # ==================================================================
    def _context_switch(self, vcpu: VCPU, prev: Task, nxt: Task) -> None:
        cpu = self.cpus[vcpu.index]
        # 1. Thread identity: the TSS RSP0 write (EPT-trappable).
        vcpu.guest_mem_write_u64(vcpu.regs.tr_base + RSP0_OFFSET, nxt.rsp0)
        # 2. Process identity: CR3 reload unless the next task borrows
        #    the current mm (kernel threads; Linux footnote 3).
        cr3_changed = False
        if nxt.mm is not None and nxt.mm.pgd != vcpu.regs.cr3:
            vcpu.guest_write_cr3(nxt.mm.pgd)
            cr3_changed = True
        vcpu.charge(
            self.costs.context_switch_ns
            if cr3_changed
            else self.costs.thread_switch_ns
        )
        ti = StructRef(
            self.machine, self.kernel_pdba, THREAD_INFO, nxt.thread_info_gva
        )
        ti.write("cpu", vcpu.index)
        cpu.context_switches += 1
        cpu.last_switch_ns = self.machine.clock.now

    def _schedule(self, vcpu: VCPU) -> None:
        cpu = self.cpus[vcpu.index]
        prev = cpu.current
        if prev is not cpu.idle_task and prev.runnable():
            cpu.enqueue(prev)
        nxt = cpu.pick_next()
        cpu.need_resched = False
        if nxt is prev:
            nxt.state = TaskState.RUNNING
            nxt.slice_remaining_ns = self.config.timeslice_ns
            return
        self._context_switch(vcpu, prev, nxt)
        cpu.current = nxt
        nxt.state = TaskState.RUNNING
        nxt.cpu = vcpu.index
        nxt.slice_remaining_ns = self.config.timeslice_ns
        # The incoming task's saved RFLAGS has IF set (tasks don't
        # deliberately run with interrupts masked): switching restores
        # interrupt delivery even if the previous context wedged it.
        cpu.irqs_enabled = True

    def _can_preempt(self, cpu: CpuState, task: Task) -> bool:
        if task is cpu.idle_task:
            return True
        if not task.in_kernel:
            return True  # user code is always preemptible
        if task.preempt_count > 0:
            return False
        return self.config.preemptible

    # ==================================================================
    # Exit paths
    # ==================================================================
    def _exit_task(self, task: Task, code: int) -> None:
        task.exit_code = code
        task.state = TaskState.ZOMBIE
        task.frames.clear()
        task.frame_kinds.clear()
        task.retry_op = None
        self._unlink_task(task)
        # Free the task_struct (auto-reap): poison the pid so stale
        # pointers held by anyone — including monitors — read as dead.
        self.task_ref(task).write("pid", 0)
        self.task_ref(task).write("state", 0xDEAD)
        for cpu in self.cpus:
            cpu.remove(task)
        if task.mm is not None:
            # Any vCPU still using this address space moves to init_mm
            # before the paging structures die (Linux's exit_mm).
            for vcpu in self.machine.vcpus:
                if vcpu.regs.cr3 == task.mm.pgd:
                    vcpu.guest_write_cr3(self.swapper_pdba)
            self.machine.page_registry.destroy_address_space(
                task.mm.address_space
            )
        self.wake(f"exit:{task.pid}", wake_all=True)

    def force_exit(self, task: Task, code: int = -9) -> None:
        """Terminate a task from the outside (kill path)."""
        if task.state is TaskState.ZOMBIE:
            return
        # Remove it from any wait channel it sleeps on.
        if task.wait_channel:
            ch = self._channel(task.wait_channel)
            try:
                ch.remove(task)
            except ValueError:
                pass
        try:
            self._disk_waiters.remove(task)
        except ValueError:
            pass
        was_current = [
            cpu for cpu in self.cpus if cpu.current is task
        ]
        self._exit_task(task, code)
        for cpu in was_current:
            cpu.need_resched = True

    # ==================================================================
    # The executor
    # ==================================================================
    def _step(self, vcpu: VCPU) -> None:
        if not self.running:
            return
        if self.machine.vm_paused:
            # The hypervisor descheduled the VM; poll for resume.
            self.engine.schedule(
                MILLISECOND, self._step, vcpu, label=f"paused-vcpu{vcpu.index}"
            )
            return
        cpu = self.cpus[vcpu.index]

        # 1. Interrupts (if the local IRQ flag allows).
        pending = vcpu.pending_interrupts
        if pending and cpu.irqs_enabled:
            irq_handler = self.machine.irq_handler
            while pending:
                vector = pending.popleft()
                vcpu.accept_external_interrupt(vector)
                handler = irq_handler(vector)
                if handler is not None:
                    handler(vcpu, vector)

        # 2. Preemption.
        cur = cpu.current
        idle = cpu.idle_task
        if cur.state is TaskState.ZOMBIE or (
            cur is not idle and not cur.runnable()
        ):
            self._schedule(vcpu)
            cur = cpu.current
        elif cpu.need_resched and self._can_preempt(cpu, cur):
            self._schedule(vcpu)
            cur = cpu.current

        # 3. Run.  An idle step is charged at collection below.
        idle_ns = 0
        if cur is idle:
            if cpu.runqueue:
                self._schedule(vcpu)
                cur = cpu.current
            if cur is idle:
                idle_ns = IDLE_SLICE_NS
            else:
                self._run_task_op(vcpu, cur)
        else:
            self._run_task_op(vcpu, cur)

        # 4. Next step after the accrued simulated work.
        spent = vcpu.collect_charges() + idle_ns
        self.engine.schedule(
            spent if spent > MIN_STEP_NS else MIN_STEP_NS, self._step, vcpu,
            label=self._step_labels[vcpu.index],
        )

    # ------------------------------------------------------------------
    def _run_task_op(self, vcpu: VCPU, task: Task) -> None:
        self.executing_vcpu = vcpu
        try:
            if task.retry_op is not None:
                op = task.retry_op
            else:
                frame = task.current_frame
                if frame is None:
                    self._exit_task(task, 0)
                    self._schedule(vcpu)
                    return
                try:
                    op = frame.send(task.send_value)
                    task.send_value = None
                except StopIteration as stop:
                    self._on_frame_done(vcpu, task, stop.value)
                    return
            self._apply_op(vcpu, task, op)
            if not task.runnable():
                self._schedule(vcpu)
        finally:
            self.executing_vcpu = None

    def _on_frame_done(self, vcpu: VCPU, task: Task, value: Any) -> None:
        kind = task.frame_kinds[-1] if task.frame_kinds else "user"
        task.pop_frame()
        if kind == "syscall":
            task.in_kernel = False
            vcpu.return_to_user_mode()
            task.send_value = value
        elif kind == "kops":
            task.send_value = None
        else:  # the user program itself finished
            self._exit_task(task, int(value) if isinstance(value, int) else 0)
            self._schedule(vcpu)

    # ------------------------------------------------------------------
    def _apply_op(self, vcpu: VCPU, task: Task, op: Any) -> None:
        handler = self._OP_HANDLERS.get(type(op))
        if handler is None:
            raise SimulationError(f"unknown guest op {op!r}")
        handler(self, vcpu, task, op)

    def _op_compute(self, vcpu: VCPU, task: Task, op: Any) -> None:
        vcpu.charge(op.ns)

    def _op_exit_program(self, vcpu: VCPU, task: Task, op: ExitProgram) -> None:
        self._exit_task(task, op.code)
        self._schedule(vcpu)

    def _op_block_on(self, vcpu: VCPU, task: Task, op: BlockOn) -> None:
        self._block_current(vcpu, task, op.channel, op.timeout_ns)

    def _op_port_io(self, vcpu: VCPU, task: Task, op: PortIo) -> None:
        vcpu.guest_io(op.port, op.direction, value=op.value)

    def _op_kmem_write(self, vcpu: VCPU, task: Task, op: KMemWrite) -> None:
        self._kmem_access(vcpu, task, op.gva, op.value)

    def _op_kmem_read(self, vcpu: VCPU, task: Task, op: KMemRead) -> None:
        task.send_value = self._kmem_access(vcpu, task, op.gva, None)

    def _kmem_access(self, vcpu: VCPU, task: Task, gva: int, value):
        """/dev/kmem access: root-only guest reads/writes of kernel
        memory, performed by the CPU so EPT protections apply."""
        if self.task_ref(task).read("euid") != 0:
            return 0  # EPERM: silently reads zero / drops the write
        vcpu.charge(1_000)
        if value is None:
            return vcpu.guest_mem_read_u64(gva)
        vcpu.guest_mem_write_u64(gva, value)
        return None

    def _enter_syscall(self, vcpu: VCPU, task: Task, op: Syscall) -> None:
        nr = SYSCALL_NUMBERS.get(op.name)
        if nr is None:
            raise SimulationError(f"unknown syscall {op.name!r}")
        # Parameters into GPRs (the state Fig 3D/E algorithms read).
        vcpu.regs.write_gpr("rax", nr)
        for reg, arg in zip(("rbx", "rcx", "rdx"), op.args):
            if isinstance(arg, int):
                vcpu.regs.write_gpr(reg, arg & 0xFFFFFFFFFFFFFFFF)
        # The architectural gate.
        if self.config.syscall_mechanism == "sysenter":
            entry = vcpu.guest_rdmsr(IA32_SYSENTER_EIP)
            vcpu.guest_exec(entry)
        else:
            vcpu.guest_software_interrupt(0x80)
        vcpu.enter_kernel_mode()
        vcpu.charge(self.costs.syscall_dispatch_ns)
        self.syscall_count += 1
        handler = self.syscall_table.get(op.name)
        if handler is None:
            raise SimulationError(f"no handler for syscall {op.name!r}")
        gen = handler(self, task, op.args)
        task.in_kernel = True
        task.push_frame(gen, kind="syscall")
        task.send_value = None

    def _at_fault_point(self, vcpu: VCPU, task: Task, op: FaultPoint) -> None:
        if self.fault_hook is None:
            return
        effect = self.fault_hook(task, vcpu.index, op.function, op.module)
        if effect is None:
            return
        if effect.leak_lock:
            self.locks.get(effect.leak_lock).leak()
        if effect.disable_irqs:
            self.cpus[vcpu.index].irqs_enabled = False
        if effect.splice_ops:
            ops = list(effect.splice_ops)

            def _splice():
                for spliced in ops:
                    yield spliced

            task.push_frame(_splice(), kind="kops")
            task.send_value = None

    def _lock_acquire(self, vcpu: VCPU, task: Task, op: LockAcquire) -> None:
        lock = self.locks.get(op.lock_name)
        if not getattr(op, "_prepared", False):
            # spin_lock: preemption off before the first test-and-set;
            # irqsave variants also clear the local IRQ flag.
            task.preempt_count += 1
            if op.irqsave:
                self.cpus[vcpu.index].irqs_enabled = False
            op._prepared = True  # type: ignore[attr-defined]
            op._spins = 0  # type: ignore[attr-defined]
        vcpu.charge(self.costs.spinlock_op_ns)
        if lock.holder is None and lock.try_acquire(task):
            task.held_locks.append(op.lock_name)
            task.retry_op = None
            if task.state is TaskState.SPINNING:
                task.state = TaskState.RUNNING
            return
        # Contended: busy-wait.  The sampling interval backs off so a
        # permanently wedged vCPU stays cheap to simulate; in simulated
        # time the CPU never stops spinning.
        task.state = TaskState.SPINNING
        task.retry_op = op
        spins = getattr(op, "_spins", 0)
        op._spins = spins + 1  # type: ignore[attr-defined]
        backoff = min(
            self.costs.spin_poll_ns * (1 << min(spins, 12)), SPIN_BACKOFF_CAP_NS
        )
        vcpu.charge(backoff)

    def _lock_release(self, vcpu: VCPU, task: Task, op: LockRelease) -> None:
        lock = self.locks.get(op.lock_name)
        vcpu.charge(self.costs.spinlock_op_ns)
        if lock.holder is task:
            lock.release(task)
        if op.lock_name in task.held_locks:
            task.held_locks.remove(op.lock_name)
        if task.preempt_count > 0:
            task.preempt_count -= 1
        if op.irqrestore:
            self.cpus[vcpu.index].irqs_enabled = True

    def _disk_request(self, vcpu: VCPU, task: Task, op: DiskRequest) -> None:
        from repro.hw.io import PORT_DISK_CMD

        vcpu.guest_io(
            PORT_DISK_CMD, "out", value=1 if op.kind == "read" else 2
        )
        task.state = TaskState.UNINTERRUPTIBLE
        task.wait_channel = "disk"
        self._disk_waiters.append(task)

    #: Guest op type (exact, no subclasses) -> handler, called as
    #: ``handler(self, vcpu, task, op)``.
    _OP_HANDLERS: Dict[type, Callable[..., None]] = {
        Compute: _op_compute,
        KCompute: _op_compute,
        Syscall: _enter_syscall,
        ExitProgram: _op_exit_program,
        FaultPoint: _at_fault_point,
        LockAcquire: _lock_acquire,
        LockRelease: _lock_release,
        DiskRequest: _disk_request,
        BlockOn: _op_block_on,
        PortIo: _op_port_io,
        KMemWrite: _op_kmem_write,
        KMemRead: _op_kmem_read,
    }


# ======================================================================
# Built-in kernel threads and init
# ======================================================================
def _khousekeepd(kernel: GuestKernel, task: Task):
    """Per-CPU housekeeping thread; its periodic wakeups bound the
    longest context-switch-free interval on a healthy CPU.

    The slower maintenance duties (dentry-LRU pruning) run only every
    few wakeups, like real memory-pressure work: this heterogeneity is
    what spreads hang-propagation latencies over seconds (Fig 5)."""
    cpu_index = task.cpu
    wakes = 0
    while True:
        yield BlockOn(f"housekeep:{cpu_index}",
                      timeout_ns=kernel.config.housekeeping_period_ns * 2)
        wakes += 1
        yield FaultPoint("run_timer_softirq", "core")
        yield LockAcquire("timer_lock")
        yield KCompute(30_000)
        yield LockRelease("timer_lock")
        yield FaultPoint("rebalance_domains", "core")
        yield LockAcquire("runqueue_lock")
        yield KCompute(15_000)
        yield LockRelease("runqueue_lock")
        if wakes % 8 == (cpu_index * 3) % 8:
            # Occasional dcache pruning (dentry LRU shrink).
            yield FaultPoint("prune_dcache", "core")
            yield LockAcquire("dcache_lock")
            yield KCompute(8_000)
            yield LockRelease("dcache_lock")


def _kflushd(kernel: GuestKernel, task: Task):
    """Dirty-buffer writeback thread (ext3/block module code paths)."""
    rounds = 0
    while True:
        yield BlockOn("kflush", timeout_ns=500 * MILLISECOND)
        rounds += 1
        yield FaultPoint("writeback_inodes", "ext3")
        yield LockAcquire("journal_lock")
        yield LockAcquire("buffer_lock")
        yield KCompute(20_000)
        yield LockRelease("buffer_lock")
        yield LockRelease("journal_lock")
        if rounds % 4 == 0:
            yield FaultPoint("submit_bio", "block")
            yield LockAcquire("queue_lock")
            yield KCompute(1_500)
            yield LockRelease("queue_lock")
            yield DiskRequest("write")


def _knetd(kernel: GuestKernel, task: Task):
    """Network housekeeping thread (ARP refresh / TCP keepalives):
    gives the transmit-path locks a periodic kernel-side user, like
    the timers and workqueue items a real network stack runs."""
    from repro.hw.io import PORT_NET_CMD

    while True:
        yield BlockOn("knetd", timeout_ns=5_000 * MILLISECOND)
        yield FaultPoint("dev_queue_xmit", "net")
        yield LockAcquire("sock_lock")
        yield KCompute(6_000)
        yield PortIo(PORT_NET_CMD, "out", value=1)
        yield LockRelease("sock_lock")


def _init_program(ctx: GuestContext):
    """pid 1: sleeps, periodically logging to the console like a real
    init/syslog pair (its tty writes give the console path a constant
    background user on whatever CPU it lands on)."""
    while True:
        yield ctx.sys_nanosleep(2_000 * MILLISECOND)
        yield ctx.compute(50_000)
        yield ctx.sys_write(1, 48)
