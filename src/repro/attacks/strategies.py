"""Attack strategies against passive monitoring (§VIII-C1).

Four strategies, composable exactly as the paper composes them:

* **Transient attack** — escalate, act, exit before the next poll.
* **Side-channel attack** — measure the monitor's interval through
  /proc and time the transient attack into the blind window (see
  :mod:`repro.attacks.sidechannel`).
* **Rootkit-combined attack** — escalate, then immediately install a
  rootkit that hides the escalated process from /proc and VMI.
* **Spamming attack** — inflate the process list so the scan takes
  longer than the attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.attacks.exploits import ExploitPlan, exploit_program
from repro.attacks.rootkits import Rootkit, build_rootkit
from repro.guest.kernel import GuestKernel
from repro.guest.programs import GuestContext
from repro.guest.task import Task

#: Default attacker identity (an unprivileged shell).
ATTACKER_UID = 1000


@dataclass
class AttackResult:
    """Timeline of one attack run (filled by callbacks)."""

    launched_ns: int = 0
    escalated_ns: Optional[int] = None
    acted_ns: Optional[int] = None
    attacker_pid: Optional[int] = None
    rootkit_installed_ns: Optional[int] = None

    @property
    def escalated(self) -> bool:
        return self.escalated_ns is not None

    def visible_window_ns(self, now_ns: int) -> int:
        """How long the escalated process stayed visible to /proc."""
        if self.escalated_ns is None:
            return 0
        end = self.rootkit_installed_ns
        if end is None:
            end = self.acted_ns if self.acted_ns is not None else now_ns
        return max(0, end - self.escalated_ns)


def _idle_program(ctx: GuestContext):
    """A valid do-nothing process (spamming filler)."""
    while True:
        yield ctx.sys_nanosleep(500_000_000)


def _shell_launcher(kernel: GuestKernel, exploit, result: AttackResult):
    """The attacker's shell: it execs the exploit like a real terminal.

    Spawning through the guest's own ``spawn`` syscall gives the
    exploit a genuine parent chain — an unprivileged shell — which is
    precisely what makes the escalated child *unauthorized* under
    Ninja's rule (root process, non-magic parent)."""

    def _program(ctx: GuestContext):
        child = yield ctx.sys_spawn(exploit, "exploit", exe="/home/user/exploit")
        result.attacker_pid = child
        yield ctx.sys_waitpid(child)
        while True:  # the shell stays at its prompt
            yield ctx.sys_nanosleep(200_000_000)

    return _program


class TransientAttack:
    """Escalate, copy data, terminate — all inside one poll window."""

    def __init__(
        self, kernel: GuestKernel, plan: Optional[ExploitPlan] = None
    ) -> None:
        self.kernel = kernel
        self.plan = plan if plan is not None else ExploitPlan()
        self.result = AttackResult()
        self.shell: Optional[Task] = None

    def launch(self, uid: int = ATTACKER_UID) -> Task:
        clock = self.kernel.machine.clock
        self.result.launched_ns = clock.now

        def _escalated() -> None:
            self.result.escalated_ns = clock.now

        def _done() -> None:
            self.result.acted_ns = clock.now

        program = exploit_program(self.plan, _escalated, _done)
        self.shell = self.kernel.spawn_process(
            _shell_launcher(self.kernel, program, self.result),
            "bash",
            uid=uid,
            exe="/bin/bash",
        )
        return self.shell


class RootkitCombinedAttack:
    """Escalate, then hide the escalated process with a rootkit."""

    def __init__(
        self,
        kernel: GuestKernel,
        rootkit_name: str = "Ivyl's Rootkit",
        plan: Optional[ExploitPlan] = None,
        install_delay_ns: int = 1_500_000,
    ) -> None:
        self.kernel = kernel
        self.rootkit_name = rootkit_name
        self.plan = plan if plan is not None else ExploitPlan(exit_after=False)
        #: insmod takes real time; until it completes the escalated
        #: process is visible (this window is what fast pollers race).
        self.install_delay_ns = install_delay_ns
        self.result = AttackResult()
        self.rootkit: Optional[Rootkit] = None
        self.shell: Optional[Task] = None

    def launch(self, uid: int = ATTACKER_UID) -> Task:
        clock = self.kernel.machine.clock
        self.result.launched_ns = clock.now

        def _install() -> None:
            target = (
                self.kernel.find_task(self.result.attacker_pid)
                if self.result.attacker_pid is not None
                else None
            )
            if target is None:  # the attacker already exited
                return
            self.rootkit = build_rootkit(self.rootkit_name, self.kernel)
            self.rootkit.hide_process(self.result.attacker_pid)
            self.result.rootkit_installed_ns = clock.now

        def _escalated() -> None:
            self.result.escalated_ns = clock.now
            # With root in hand, insmod the rootkit and vanish.
            self.kernel.engine.schedule(
                self.install_delay_ns, _install, label="insmod-rootkit"
            )

        def _done() -> None:
            self.result.acted_ns = clock.now

        program = exploit_program(self.plan, _escalated, _done)
        self.shell = self.kernel.spawn_process(
            _shell_launcher(self.kernel, program, self.result),
            "bash",
            uid=uid,
            exe="/bin/bash",
        )
        return self.shell


class SpammingAttack:
    """Pad the process list, then run an inner attack.

    The scan time of a passive monitor grows with the list length; the
    attacker's window does not.
    """

    def __init__(
        self,
        kernel: GuestKernel,
        idle_processes: int,
        inner: Optional[object] = None,
    ) -> None:
        self.kernel = kernel
        self.idle_processes = idle_processes
        self.inner = (
            inner if inner is not None else TransientAttack(kernel)
        )
        self.spawned: List[Task] = []

    @property
    def result(self) -> AttackResult:
        return self.inner.result

    def spam(self, uid: int = ATTACKER_UID) -> None:
        """Phase (i): create the filler processes."""
        for i in range(self.idle_processes):
            self.spawned.append(
                self.kernel.spawn_process(
                    _idle_program, f"idle{i}", uid=uid, exe="/home/user/idle"
                )
            )

    def launch(self, uid: int = ATTACKER_UID) -> Task:
        """Phases (ii)+(iii): exploit (and whatever inner adds)."""
        if not self.spawned:
            self.spam(uid)
        return self.inner.launch(uid)
