"""Tests for the traditional-VMI baseline."""

from repro.vmi.introspection import KernelSymbolMap, OsInvariantView


def make_view(testbed):
    return OsInvariantView(
        testbed.machine, KernelSymbolMap.from_kernel(testbed.kernel)
    )


def entry_for(view, pid):
    """The VMI process-list entry for ``pid``, or ``None``."""
    return next((e for e in view.list_processes() if e["pid"] == pid), None)


def spawn_worker(testbed, name="w", uid=7):
    def worker(ctx):
        while True:
            yield ctx.compute(500_000)

    return testbed.kernel.spawn_process(worker, name, uid=uid, exe=f"/bin/{name}")


class TestListProcesses:
    def test_sees_all_linked_tasks(self, testbed):
        task = spawn_worker(testbed)
        view = make_view(testbed)
        entries = view.list_processes()
        pids = {e["pid"] for e in entries}
        assert task.pid in pids
        assert 1 in pids  # init

    def test_matches_guest_view_when_clean(self, testbed):
        spawn_worker(testbed)
        view = make_view(testbed)
        vmi_pids = {e["pid"] for e in view.list_processes()}
        assert vmi_pids == set(testbed.kernel.guest_view_pids())

    def test_decodes_fields(self, testbed):
        task = spawn_worker(testbed, name="svc", uid=33)
        view = make_view(testbed)
        entry = entry_for(view, task.pid)
        assert entry["uid"] == 33
        assert entry["comm"] == "svc"
        assert entry["is_kthread"] is False

    def test_kthreads_flagged(self, testbed):
        view = make_view(testbed)
        kflushd = next(
            e for e in view.list_processes() if e["comm"].startswith("kflushd")
        )
        assert kflushd["is_kthread"] is True

    def test_missing_pid_none(self, testbed):
        assert entry_for(make_view(testbed), 31337) is None


class TestVmiTrustBoundary:
    def test_vmi_fooled_by_pointer_tampering(self, testbed):
        """The core weakness (§IV-B): guest-writable input."""
        task = spawn_worker(testbed)
        view = make_view(testbed)
        assert entry_for(view, task.pid) is not None
        # Attacker rewires the neighbours' pointers (DKOM by hand).
        kernel = testbed.kernel
        ref = kernel.task_ref(task)
        prev_gva = ref.read("tasks_prev")
        next_gva = ref.read("tasks_next")
        kernel.task_ref_at(prev_gva).write("tasks_next", next_gva)
        kernel.task_ref_at(next_gva).write("tasks_prev", prev_gva)
        assert entry_for(view, task.pid) is None

    def test_vmi_fooled_by_value_tampering(self, testbed):
        """An attacker can also fake *values* (euid) that VMI reads."""
        task = spawn_worker(testbed, uid=0)
        testbed.kernel.task_ref(task).write("euid", 1000)
        entry = entry_for(make_view(testbed), task.pid)
        assert entry["euid"] == 1000  # VMI faithfully reports the lie

    def test_decode_task_at_unmapped_is_none(self, testbed):
        view = make_view(testbed)
        assert view.decode_task_at(0x1234_5678) is None

    def test_walk_bounded_on_cycle(self, testbed):
        task = spawn_worker(testbed)
        ref = testbed.kernel.task_ref(task)
        ref.write("tasks_next", task.task_struct_gva)
        entries = make_view(testbed).list_processes(max_tasks=100)
        assert len(entries) <= 100
