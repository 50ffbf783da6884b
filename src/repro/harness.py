"""Testbed assembly: one call builds the whole stack.

Most consumers (tests, benchmarks, examples) want "a booted 2-vCPU VM
with KVM attached and optionally HyperTap monitoring".  This module
provides that in one place so experiment code stays about experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.auditor import Auditor
from repro.core.hypertap import HyperTap
from repro.guest.kernel import GuestKernel, KernelConfig
from repro.hw.costs import CostModel
from repro.hw.machine import Machine, MachineConfig
from repro.hypervisor.event_multiplexer import EventMultiplexer
from repro.hypervisor.kvm import KvmHypervisor
from repro.hypervisor.rhc import RemoteHealthChecker
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import MILLISECOND, SECOND
from repro.sim.engine import Engine
from repro.sim.perturb import SchedulePerturbation


@dataclass
class TestbedConfig:
    """Shape of the whole simulated deployment."""

    __test__ = False  # not a pytest class, despite the name

    num_vcpus: int = 2
    ram_bytes: int = 1024 * 1024 * 1024
    seed: int = 0
    preemptible: bool = False
    syscall_mechanism: str = "sysenter"
    costs: CostModel = field(default_factory=CostModel)
    with_rhc: bool = False
    rhc_timeout_s: int = 5
    monitoring_mode: str = "unified"
    #: Optional seeded schedule perturbation (repro.sim.perturb) —
    #: jittered timeslices / same-instant shuffles for adversarial
    #: conformance runs.  None keeps the engine's documented ordering.
    perturb: Optional[SchedulePerturbation] = None


class Testbed:
    """A booted VM with hypervisor, EM, and (optionally) HyperTap."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config if config is not None else TestbedConfig()
        self.engine = Engine(schedule_policy=self.config.perturb)
        self.machine = Machine(
            MachineConfig(
                num_vcpus=self.config.num_vcpus,
                ram_bytes=self.config.ram_bytes,
                seed=self.config.seed,
                costs=self.config.costs,
            ),
            engine=self.engine,
        )
        #: One observability registry for the whole deployment: the
        #: hypervisor, the EM, the channels and the auditors all count
        #: into it (see repro.obs).
        self.metrics = MetricsRegistry()
        self.kvm = KvmHypervisor(self.machine, vm_id="vm0", metrics=self.metrics)
        self.rhc: Optional[RemoteHealthChecker] = None
        if self.config.with_rhc:
            self.rhc = RemoteHealthChecker(
                self.engine, timeout_ns=self.config.rhc_timeout_s * SECOND
            )
        self.multiplexer = EventMultiplexer(rhc=self.rhc, metrics=self.metrics)
        self.kernel = GuestKernel(
            self.machine,
            KernelConfig(
                preemptible=self.config.preemptible,
                syscall_mechanism=self.config.syscall_mechanism,
            ),
        )
        self.hypertap: Optional[HyperTap] = None

    # ------------------------------------------------------------------
    def boot(self) -> "Testbed":
        self.kernel.boot()
        if self.rhc is not None:
            self.rhc.start()
        return self

    def monitor(self, auditors: List[Auditor]) -> HyperTap:
        """Attach HyperTap with the given auditors."""
        self.hypertap = HyperTap(
            self.machine,
            self.kvm,
            multiplexer=self.multiplexer,
            vm_id="vm0",
            mode=self.config.monitoring_mode,
        )
        for auditor in auditors:
            self.hypertap.register_auditor(auditor)
        self.hypertap.attach()
        if self.rhc is not None:
            # Silent-stall detection: heartbeats alone cannot tell a
            # healthy pipeline from one whose event flow flatlined
            # while something else keeps the heartbeat alive; watching
            # the EM's submission counter can.
            registry = self.metrics
            self.rhc.watch_flow(
                "vm0.em.submitted",
                lambda: registry.total("em.submitted", vm="vm0"),
            )
        return self.hypertap

    # ------------------------------------------------------------------
    def run_ms(self, ms: int) -> None:
        self.engine.run_for(ms * MILLISECOND)

    def run_s(self, seconds: float) -> None:
        self.engine.run_for(int(seconds * SECOND))

    @property
    def now_s(self) -> float:
        return self.engine.clock.now / SECOND


class VmInstance:
    """One guest VM on a shared host (see :class:`SharedHost`)."""

    def __init__(self, vm_id, machine, kvm, kernel):
        self.vm_id = vm_id
        self.machine = machine
        self.kvm = kvm
        self.kernel = kernel
        self.hypertap: Optional[HyperTap] = None


class SharedHost:
    """Fig 2's deployment: several user VMs on one physical host, one
    Event Multiplexer fanning events out to per-VM auditing containers,
    and one Remote Health Checker watching the whole pipeline.

    All VMs share a single simulation engine (one physical timeline),
    and every guest is booted by the time the constructor returns.
    """

    def __init__(
        self,
        num_vms: int = 2,
        base_config: Optional[TestbedConfig] = None,
        with_rhc: bool = False,
    ) -> None:
        self.config = base_config if base_config is not None else TestbedConfig()
        self.engine = Engine()
        self.metrics = MetricsRegistry()
        self.rhc: Optional[RemoteHealthChecker] = None
        if with_rhc or self.config.with_rhc:
            self.rhc = RemoteHealthChecker(
                self.engine, timeout_ns=self.config.rhc_timeout_s * SECOND
            )
        self.multiplexer = EventMultiplexer(rhc=self.rhc, metrics=self.metrics)
        self.vms: List[VmInstance] = []
        for index in range(num_vms):
            machine = Machine(
                MachineConfig(
                    num_vcpus=self.config.num_vcpus,
                    ram_bytes=self.config.ram_bytes,
                    seed=self.config.seed + index,
                    costs=self.config.costs,
                ),
                engine=self.engine,
            )
            vm_id = f"vm{index}"
            kvm = KvmHypervisor(machine, vm_id=vm_id, metrics=self.metrics)
            kernel = GuestKernel(
                machine,
                KernelConfig(
                    preemptible=self.config.preemptible,
                    syscall_mechanism=self.config.syscall_mechanism,
                ),
            )
            self.vms.append(VmInstance(vm_id, machine, kvm, kernel))
        for vm in self.vms:
            vm.kernel.boot()
        if self.rhc is not None:
            self.rhc.start()

    def monitor(self, vm_index: int, auditors: List[Auditor]) -> HyperTap:
        """Attach HyperTap to one VM; its auditors get their own
        container but share the host-wide EM."""
        vm = self.vms[vm_index]
        vm.hypertap = HyperTap(
            vm.machine,
            vm.kvm,
            multiplexer=self.multiplexer,
            vm_id=vm.vm_id,
        )
        for auditor in auditors:
            vm.hypertap.register_auditor(auditor)
        vm.hypertap.attach()
        if self.rhc is not None:
            # Per-container heartbeat channel: a quarantined container
            # is flagged by name while the other VMs' pipelines stay
            # green (the host-wide heartbeat alone cannot tell).
            self.rhc.watch(vm.vm_id)
            vm.hypertap.container.liveness = self.rhc
            # And the silent-stall probe: this VM's event flow must
            # keep moving while the host-wide heartbeat does.
            registry = self.metrics
            vm_id = vm.vm_id
            self.rhc.watch_flow(
                f"{vm_id}.em.submitted",
                lambda: registry.total("em.submitted", vm=vm_id),
            )
        return vm.hypertap

    def run_s(self, seconds: float) -> None:
        self.engine.run_for(int(seconds * SECOND))
