"""Seeded emulator bugs: ground truth for the hut mutation-kill audit.

A fuzzer whose oracles never fire is indistinguishable from one whose
oracles can't fire.  Each entry here is a small, realistic emulator
defect — the kind of bug the differential is *for* — injected into one
harness instance (never globally monkey-patched: the patches bind to
the instance's own objects, so parallel shards and the pytest suite
never see each other's bugs).  ``tests/test_hut_fuzzer.py`` asserts
that a ``fuzz`` campaign on the bug's designated target detects every one of
these within a fixed budget, and the shipped ``tests/corpus/hut-*``
entries replay shrunk witnesses against re-injected bugs.

The injection point is the ``bug`` callback of
:class:`~repro.testing.hut.harness.HutHarness`, which runs after setup
and before the first op.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.hw.exits import MemAccess
from repro.testing.hut.harness import HutHarness

_U32 = 0xFFFF_FFFF


def _bug_ept_exec_bypass(harness: HutHarness) -> None:
    """Execute-permission checks silently pass (missed NX violation).

    The exact failure HyperTap's SYSENTER interception cannot afford:
    an execute-protected page that doesn't trap is an invisible guest.
    """
    ept = harness.machine.ept
    original = ept.translate

    def translate(gpa: int, access: MemAccess) -> int:
        if access is MemAccess.EXECUTE:
            return ept.translate_nofault(gpa)
        return original(gpa, access)

    ept.translate = translate


def _bug_ept_remap_noop(harness: HutHarness) -> None:
    """``remap`` validates its arguments but never updates the entry."""
    ept = harness.machine.ept
    from repro.errors import SimulationError

    def remap(gpa: int, hfn: int) -> None:
        if hfn < 0:
            raise SimulationError("negative host frame")

    ept.remap = remap


def _bug_msr_truncate(harness: HutHarness) -> None:
    """MSR writes truncate to 32 bits (a classic width bug)."""
    for vcpu in harness.machine.vcpus:
        msrs = vcpu.msrs
        original = msrs.host_write

        def host_write(index: int, value: int, _orig=original) -> None:
            _orig(index, int(value) & _U32)

        msrs.host_write = host_write


def _bug_ef_miscount(harness: HutHarness) -> None:
    """The Event Forwarder drops every other WRMSR event but still
    counts it as forwarded — conservation holds, delivery doesn't."""
    ef = harness.ef
    original = ef.on_vm_exit
    state = {"n": 0}

    def on_vm_exit(vm_id, vcpu, exit_event):
        from repro.hw.exits import ExitReason

        if exit_event.reason is ExitReason.WRMSR:
            state["n"] += 1
            if state["n"] % 2 == 0:
                ef.forwarded += 1  # claimed, never submitted
                return
        original(vm_id, vcpu, exit_event)

    ef.on_vm_exit = on_vm_exit


def _bug_vmcs_unrecorded(harness: HutHarness) -> None:
    """Exits stop being recorded in the VMCS (stale last_exit/count)."""
    for vcpu in harness.machine.vcpus:
        vcpu.vmcs.record_exit = lambda exit_event: None


def _bug_shared_msr_file(harness: HutHarness) -> None:
    """All vCPUs share vCPU 0's MSR file — per-vCPU state bleeding
    across, the archetypal interleaving-dependent defect: the final
    value of each MSR depends on which vCPU wrote last."""
    shared = harness.machine.vcpus[0].msrs
    for vcpu in harness.machine.vcpus[1:]:
        vcpu.msrs = shared


#: name -> injector.
SEEDED_BUGS: Dict[str, Callable[[HutHarness], None]] = {
    "ept-exec-bypass": _bug_ept_exec_bypass,
    "ept-remap-noop": _bug_ept_remap_noop,
    "msr-truncate": _bug_msr_truncate,
    "ef-miscount": _bug_ef_miscount,
    "vmcs-unrecorded": _bug_vmcs_unrecorded,
    "shared-msr-file": _bug_shared_msr_file,
}

#: The target whose op mix reliably reaches each bug (the kill audit
#: fuzzes this target with a small fixed budget).
BUG_TARGETS: Dict[str, str] = {
    "ept-exec-bypass": "ept",
    "ept-remap-noop": "ept",
    "msr-truncate": "msr",
    "ef-miscount": "msr",
    "vmcs-unrecorded": "dispatch",
    "shared-msr-file": "interleave",
}
