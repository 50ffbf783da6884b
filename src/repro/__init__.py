"""HyperTap reproduction.

Reproduction of "Reliability and Security Monitoring of Virtual
Machines Using Hardware Architectural Invariants" (Pham, Estrada, Cao,
Kalbarczyk, Iyer — DSN 2014) on a simulated hardware-assisted
virtualization substrate.

Public entry points:

* :class:`repro.Testbed` — one machine, hypervisor and guest kernel,
  configured by :class:`repro.TestbedConfig`, with ``boot()`` and
  ``monitor(auditors)`` to start the guest and attach HyperTap.
* :class:`repro.core.HyperTap` — the monitoring framework.
* :mod:`repro.auditors` — GOSHD, HRKD and the three Ninjas.
* :mod:`repro.faults` — the hang fault-injection campaign of §VIII-A.
* :mod:`repro.attacks` — the rootkit zoo and privilege-escalation
  attack strategies of §VIII-B/C.
* :mod:`repro.workloads` — hanoi / make / HTTP / UnixBench-like loads.
"""

from repro.harness import Testbed, TestbedConfig

__version__ = "1.0.0"

__all__ = ["Testbed", "TestbedConfig", "__version__"]
