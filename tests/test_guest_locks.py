"""Tests for spinlock semantics and hang mechanics."""

import pytest

from repro.errors import SimulationError
from repro.guest.locks import LEAKED, LockTable, SpinLock
from repro.guest.programs import KCompute, LockAcquire, LockRelease
from repro.guest.task import TaskState
from repro.sim.clock import SECOND


class TestSpinLockUnit:
    def test_acquire_release(self):
        lock = SpinLock("l")
        task = object()
        assert lock.try_acquire(task)
        assert lock.holder is task
        lock.release(task)
        assert lock.holder is None

    def test_contention_counted(self):
        lock = SpinLock("l")
        a, b = object(), object()
        lock.try_acquire(a)
        assert not lock.try_acquire(b)
        assert lock.contentions == 1

    def test_release_by_non_holder_rejected(self):
        lock = SpinLock("l")
        lock.try_acquire(object())
        with pytest.raises(SimulationError):
            lock.release(object())

    def test_leak_blocks_everyone(self):
        lock = SpinLock("l")
        lock.leak()
        assert lock.holder is LEAKED
        assert not lock.try_acquire(object())

    def test_table_well_known_modules(self):
        table = LockTable()
        assert table.get("inode_lock").module == "ext3"
        assert table.get("tty_lock").module == "char"
        assert table.get("queue_lock").module == "block"

    def test_table_dynamic_lock(self):
        table = LockTable()
        lock = table.get("my_new_lock")
        assert lock.module == "core"
        assert table.get("my_new_lock") is lock

    def test_leaked_locks_listing(self):
        table = LockTable()
        table.get("tty_lock").leak()
        leaked = [n for n in LockTable.WELL_KNOWN if table.get(n).holder is LEAKED]
        assert leaked == ["tty_lock"]


def kthread_acquiring(kernel, lock_name, hold_forever=False, cpu=0):
    """Spawn a kthread that acquires a lock (and maybe never returns)."""

    def _program(k, task):
        yield LockAcquire(lock_name)
        if hold_forever:
            while True:
                yield KCompute(10_000_000)
        yield KCompute(10_000)
        yield LockRelease(lock_name)
        while True:
            yield KCompute(10_000_000)

    return kernel.spawn_kthread(_program, "locker", cpu=cpu)


class TestLockExecution:
    def test_uncontended_acquire_release(self, testbed):
        task = kthread_acquiring(testbed.kernel, "dcache_lock")
        testbed.run_s(0.5)
        lock = testbed.kernel.locks.get("dcache_lock")
        assert lock.holder is None
        assert lock.acquisitions >= 1

    def test_contended_lock_spins(self, testbed):
        kernel = testbed.kernel
        holder = kthread_acquiring(kernel, "dcache_lock", hold_forever=True)
        testbed.run_s(0.2)
        spinner = kthread_acquiring(kernel, "dcache_lock", cpu=1)
        testbed.run_s(1.0)
        assert spinner.state is TaskState.SPINNING
        assert spinner.preempt_count > 0

    def test_spinner_wedges_its_vcpu(self, testbed):
        """A task spinning on a leaked lock stops all context switches
        on its vCPU — the hang failure model of §VII-A."""
        kernel = testbed.kernel
        kernel.locks.get("test_driver_lock").leak()
        spinner = kthread_acquiring(kernel, "test_driver_lock")
        testbed.run_s(1.0)
        cpu = kernel.cpus[spinner.cpu]
        switch_count = cpu.context_switches
        testbed.run_s(5.0)
        assert cpu.context_switches == switch_count  # frozen
        # The other vCPU still schedules.
        other = kernel.cpus[1 - spinner.cpu]
        now = testbed.engine.clock.now
        assert now - other.last_switch_ns < 3 * SECOND

    def test_spinner_released_resumes(self, testbed):
        kernel = testbed.kernel
        lock = kernel.locks.get("dcache_lock")

        def holder_prog(k, task):
            yield LockAcquire("dcache_lock")
            yield KCompute(300_000_000)  # hold for 0.3s
            yield LockRelease("dcache_lock")
            while True:
                yield KCompute(10_000_000)

        kernel.spawn_kthread(holder_prog, "holder", cpu=0)
        testbed.run_s(0.05)
        spinner = kthread_acquiring(kernel, "dcache_lock", cpu=1)
        testbed.run_s(0.1)
        assert spinner.state is TaskState.SPINNING
        testbed.run_s(1.0)
        assert spinner.state is not TaskState.SPINNING
        assert lock.holder is None

    def test_irqsave_disables_interrupts_while_held(self, testbed):
        kernel = testbed.kernel
        seen = {}

        def prog(k, task):
            yield LockAcquire("tasklist_lock", irqsave=True)
            seen["irqs_during"] = kernel.cpus[task.cpu].irqs_enabled
            yield KCompute(10_000)
            yield LockRelease("tasklist_lock", irqrestore=True)
            seen["irqs_after"] = kernel.cpus[task.cpu].irqs_enabled
            while True:
                yield KCompute(10_000_000)

        kernel.spawn_kthread(prog, "irqlocker", cpu=0)
        testbed.run_s(0.5)
        assert seen == {"irqs_during": False, "irqs_after": True}

    def test_context_switch_restores_irq_flag(self, testbed):
        """A context switch loads the new task's RFLAGS (IF set), so a
        wedged-off IRQ flag does not survive voluntary rescheduling."""
        kernel = testbed.kernel
        cpu0 = kernel.cpus[0]
        cpu0.irqs_enabled = False
        testbed.run_s(2.0)
        assert cpu0.irqs_enabled  # housekeeping switch restored it
