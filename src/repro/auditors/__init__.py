"""The paper's example auditors.

* :class:`GuestOSHangDetector` (GOSHD, §VII-A) — reliability: per-vCPU
  hang detection from the absence of thread-switch events; detects
  partial hangs that heartbeats cannot see.
* :class:`HiddenRootkitDetector` (HRKD, §VII-B) — security: hardware
  process/thread counting cross-validated against guest and VMI views.
* The three Ninjas (§VII-C, §VIII-C): :class:`ONinja` (in-guest
  passive), :class:`HNinja` (hypervisor-level passive via VMI), and
  :class:`HTNinja` (HyperTap active monitoring).  GOSHD+HRKD show RnS
  monitors sharing one logging phase; the Ninjas show why active beats
  passive.
"""

from repro.auditors.goshd import GuestOSHangDetector, profile_hang_threshold
from repro.auditors.hrkd import HiddenRootkitDetector
from repro.auditors.ninja_rules import NinjaPolicy
from repro.auditors.o_ninja import ONinja
from repro.auditors.h_ninja import HNinja
from repro.auditors.ht_ninja import HTNinja
from repro.auditors.syscall_policy import (
    SyscallPolicy,
    SyscallPolicyAuditor,
    SyscallSequenceAnomalyDetector,
)
from repro.auditors.vigilant import VigilantDetector
from repro.auditors.kernel_integrity import KernelDataWatch

__all__ = [
    "GuestOSHangDetector",
    "profile_hang_threshold",
    "HiddenRootkitDetector",
    "NinjaPolicy",
    "ONinja",
    "HNinja",
    "HTNinja",
    "SyscallPolicy",
    "SyscallPolicyAuditor",
    "SyscallSequenceAnomalyDetector",
    "VigilantDetector",
    "KernelDataWatch",
]
