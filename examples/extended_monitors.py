#!/usr/bin/env python3
"""The §VII-D extension monitors, all on one logging channel.

The paper argues HyperTap's unified logging can host whole families of
existing RnS tools.  This demo runs four of them simultaneously:

* syscall policy enforcement (Systrace-style allow-lists),
* syscall sequence anomaly detection (classic sequence IDS),
* a Vigilant-style learned failure detector,
* fine-grained kernel data-structure integrity watching,

then stages two incidents — a daemon compromise and an in-guest DKOM
attempt — and shows which monitor catches what.

Run:  python examples/extended_monitors.py
"""

from collections import Counter

from repro import Testbed, TestbedConfig
from repro.auditors import (
    KernelDataWatch,
    SyscallPolicy,
    SyscallPolicyAuditor,
    SyscallSequenceAnomalyDetector,
    VigilantDetector,
)
from repro.guest.layouts import TASK_STRUCT
from repro.replay.recorder import RecordingAuditor


def main() -> None:
    print("== HyperTap as a platform: four extension monitors ==")
    testbed = Testbed(TestbedConfig(num_vcpus=2, seed=77))
    testbed.boot()

    policy = SyscallPolicyAuditor(
        {
            "/usr/sbin/datad": SyscallPolicy.allow(
                "/usr/sbin/datad",
                "open", "read", "write", "close", "nanosleep",
            )
        }
    )
    anomaly = SyscallSequenceAnomalyDetector(ngram=3)
    vigilant = VigilantDetector(window_ns=500_000_000, training_windows=6)
    watch = KernelDataWatch()
    trace = RecordingAuditor()
    testbed.monitor([policy, anomaly, vigilant, watch, trace])
    watch.watch_all_tasks(testbed.kernel)
    print("attached: policy + sequence-IDS + vigilant + data-watch + tracer\n")

    compromised = {"active": False}

    def datad(ctx):
        while True:
            if not compromised["active"]:
                fd = yield ctx.sys_open("/var/data")
                yield ctx.sys_read(fd, 512)
                yield ctx.sys_write(fd, 512)
                yield ctx.sys_close(fd)
            else:  # post-exploit behaviour
                yield ctx.syscall("vuln_sock_diag")
                yield ctx.sys_disk_read(2)
            yield ctx.sys_nanosleep(20_000_000)

    daemon = testbed.kernel.spawn_process(
        datad, "datad", uid=2, exe="/usr/sbin/datad"
    )
    print("training on 4s of healthy behaviour ...")
    testbed.run_s(4.0)
    anomaly.finish_learning()
    print(f"  vigilant trained: {vigilant.trained}; "
          f"sequence profile: {anomaly.profile_size('/usr/sbin/datad')} n-grams")

    print("\n[incident 1] datad is compromised (starts exploiting + exfil)")
    compromised["active"] = True
    testbed.run_s(2.0)
    print(f"  policy violations : {len(policy.violations)} "
          f"(first: {policy.violations[0]['syscall']!r} not in allow-list)"
          if policy.violations else "  policy violations : none")
    print(f"  sequence anomalies: {anomaly.anomalies_found}")

    print("\n[incident 2] in-guest rootkit unlinks datad via /dev/kmem")
    off_next = TASK_STRUCT.offset("tasks_next")
    off_prev = TASK_STRUCT.offset("tasks_prev")
    victim_gva = daemon.task_struct_gva

    def installer(ctx):
        nxt = yield ctx.kmem_read(victim_gva + off_next)
        prv = yield ctx.kmem_read(victim_gva + off_prev)
        yield ctx.kmem_write(prv + off_next, nxt)
        yield ctx.kmem_write(nxt + off_prev, prv)
        yield ctx.exit(0)

    testbed.kernel.spawn_process(installer, "insmod", uid=0, exe="/rk.ko")
    testbed.run_s(1.0)
    for alert in watch.tamper_alerts[:2]:
        print(f"  data-watch: task-list pointer rewritten by "
              f"{alert['writer_comm']!r} (pid {alert['writer_pid']})")

    counts = dict(Counter(record["type"] for record in trace.records))
    print(f"\ntrace recorder captured {len(trace.records)} events ({counts})")
    tail = [
        record for record in trace.records
        if record["type"] == "syscall"
        and record.get("task", {}).get("pid") == daemon.pid
    ][-3:]
    print("last syscalls of the compromised daemon:",
          [record["nr"] for record in tail])
    print("done: four policies, one logging phase, zero guest changes.")


if __name__ == "__main__":
    main()
