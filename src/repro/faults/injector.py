"""The fault injector: arms one site and applies its effect.

The injector installs itself as the guest kernel's ``fault_hook``; when
execution reaches the armed site's function for the configured pass,
the fault "patch" takes effect:

* **missing release** — the lock is left locked by a buggy exit path
  (modelled by poisoning the lock: no live holder, never released);
  every later acquirer spins forever with preemption disabled.
* **wrong ordering** — the faulty path acquires the function's nested
  lock pair in reverse order while normal paths use the correct order;
  under concurrency this deadlocks two vCPUs (ABBA).
* **missing unlock/lock pair** — the pair bracketing a blocking region
  is gone: the task sleeps *holding* the spinlock, wedging contenders.
* **missing IRQ restore** — ``spin_unlock_irqrestore`` became
  ``spin_unlock``: local interrupts stay off on that vCPU, so timer
  ticks (and with them preemption) stop.

In interrupt context (``net_rx_action``) the missing-pair fault drops
the queued work instead (a lost wakeup): the network path dies while
the scheduler stays healthy — the case that fools external probes but
not (correctly) GOSHD, reproducing the paper's "Not Detected" bucket.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.faults.sites import FaultClass, FaultSite
from repro.guest.kernel import GuestKernel
from repro.guest.programs import (
    BlockOn,
    FaultEffect,
    KCompute,
    LockAcquire,
    LockRelease,
)
from repro.guest.task import Task


class InjectionMode(enum.Enum):
    """Transient faults activate once; persistent ones on every pass."""

    TRANSIENT = "transient"
    PERSISTENT = "persistent"


class FaultInjector:
    """One armed fault against one guest kernel."""

    def __init__(
        self, site: FaultSite, mode: InjectionMode = InjectionMode.TRANSIENT
    ) -> None:
        self.site = site
        self.mode = mode
        self.kernel: Optional[GuestKernel] = None
        self.armed = False
        self.hits = 0
        self.activations = 0
        self.first_activation_ns: Optional[int] = None

    # ------------------------------------------------------------------
    def attach(self, kernel: GuestKernel) -> None:
        """Install as the kernel's fault hook (SWIFI module load)."""
        self.kernel = kernel
        kernel.fault_hook = self._hook

    def arm(self) -> None:
        self.armed = True

    @property
    def activated(self) -> bool:
        return self.activations > 0

    # ------------------------------------------------------------------
    def _hook(
        self, task: Task, vcpu_index: int, function: str, module: str
    ) -> Optional[FaultEffect]:
        if not self.armed or function != self.site.function:
            return None
        self.hits += 1
        if self.hits < self.site.activation_pass:
            return None
        if (
            self.mode is InjectionMode.TRANSIENT
            and self.activations >= 1
        ):
            return None
        self.activations += 1
        if self.first_activation_ns is None and self.kernel is not None:
            self.first_activation_ns = self.kernel.machine.clock.now
        return self._effect()

    def _effect(self) -> FaultEffect:
        site = self.site
        if site.irq_context:
            if site.fault_class is FaultClass.MISSING_IRQ_RESTORE:
                return FaultEffect(disable_irqs=True)
            return FaultEffect(drop_work=True)
        if site.fault_class is FaultClass.MISSING_RELEASE:
            return FaultEffect(leak_lock=site.lock)
        if site.fault_class is FaultClass.WRONG_ORDER:
            second = site.lock2 or "runqueue_lock"
            # Reversed nesting vs the normal (lock, lock2) order.
            return FaultEffect(
                splice_ops=(
                    LockAcquire(second),
                    KCompute(150_000),
                    LockAcquire(site.lock),
                    KCompute(10_000),
                    LockRelease(site.lock),
                    LockRelease(second),
                )
            )
        if site.fault_class is FaultClass.MISSING_PAIR:
            return FaultEffect(
                splice_ops=(
                    LockAcquire(site.lock),
                    BlockOn("fault:never"),
                )
            )
        # MISSING_IRQ_RESTORE in task context.
        return FaultEffect(disable_irqs=True)
