"""Fault-site catalog.

The paper profiled its guest kernel under the evaluation workloads and
identified 374 injection locations in core kernel functions and the
ext3/char/block modules.  We do the same against our guest kernel: the
instrumentable locations are the named :class:`FaultPoint` sites in
kernel code paths, and the catalog enumerates (function, fault class,
activation pass) combinations — the activation pass plays the role of
the instruction offset within the function, making each site a
distinct point on the execution path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


class FaultClass(enum.Enum):
    """The four hang-fault classes of [34]."""

    MISSING_RELEASE = "missing_release"
    WRONG_ORDER = "wrong_order"
    MISSING_PAIR = "missing_pair"
    MISSING_IRQ_RESTORE = "missing_irq_restore"


@dataclass(frozen=True)
class FaultSite:
    """One injectable location."""

    site_id: int
    function: str
    module: str
    lock: str
    #: Partner lock for the wrong-ordering class (the lock the normal
    #: path acquires *after* ``lock``).
    lock2: Optional[str]
    fault_class: FaultClass
    #: The fault patches the Nth dynamic execution of the function.
    activation_pass: int
    #: True when the function runs in interrupt context (the fault
    #: then corrupts softirq state rather than spinning a task).
    irq_context: bool = False


#: Instrumented kernel functions: (function, module, lock, lock2, irq_ctx).
KERNEL_FUNCTIONS: Sequence[Tuple[str, str, str, Optional[str], bool]] = (
    ("tty_write", "char", "tty_lock", None, False),
    ("con_flush", "char", "console_lock", None, False),
    ("tty_read", "char", "tty_lock", None, False),
    ("path_lookup", "core", "dcache_lock", None, False),
    ("ext3_get_block", "ext3", "inode_lock", "queue_lock", False),
    ("ext3_journal_start", "ext3", "journal_lock", "buffer_lock", False),
    ("submit_bio", "block", "queue_lock", None, False),
    ("hrtimer_start", "core", "timer_lock", None, False),
    ("copy_process", "core", "tasklist_lock", None, False),
    ("signal_deliver", "core", "tasklist_lock", None, False),
    ("proc_readdir", "core", "tasklist_lock", None, False),
    ("dev_queue_xmit", "net", "sock_lock", None, False),
    ("netif_receive_skb", "net", "rx_lock", None, False),
    ("net_rx_action", "net", "rx_lock", None, True),
    ("run_timer_softirq", "core", "timer_lock", None, False),
    ("rebalance_domains", "core", "runqueue_lock", None, False),
    ("writeback_inodes", "ext3", "journal_lock", "buffer_lock", False),
)

#: Activation passes used to spread sites along the execution path.
#: (53 sites per pass; the eighth pass is truncated by the catalog
#: limit so the total matches the paper's 374 locations.)
ACTIVATION_PASSES: Sequence[int] = (1, 2, 3, 5, 8, 13, 21, 34)

#: The paper's catalog size.
PAPER_SITE_COUNT = 374


def build_site_catalog(limit: int = PAPER_SITE_COUNT) -> List[FaultSite]:
    """Enumerate the catalog deterministically (stable site ids)."""
    sites: List[FaultSite] = []
    site_id = 0
    for activation in ACTIVATION_PASSES:
        for function, module, lock, lock2, irq_ctx in KERNEL_FUNCTIONS:
            for fault_class in FaultClass:
                if fault_class is FaultClass.WRONG_ORDER and lock2 is None:
                    continue
                if irq_ctx and fault_class not in (
                    FaultClass.MISSING_PAIR,
                    FaultClass.MISSING_IRQ_RESTORE,
                ):
                    # IRQ-context code cannot leak task-held spinlocks
                    # in our model; only the softirq-state faults apply.
                    continue
                sites.append(
                    FaultSite(
                        site_id=site_id,
                        function=function,
                        module=module,
                        lock=lock,
                        lock2=lock2,
                        fault_class=fault_class,
                        activation_pass=activation,
                        irq_context=irq_ctx,
                    )
                )
                site_id += 1
                if len(sites) >= limit:
                    return sites
    return sites
