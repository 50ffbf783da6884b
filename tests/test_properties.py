"""Property-based tests (hypothesis) on core data structures and
invariants."""

from hypothesis import given, settings, strategies as st

from repro.analysis.stats import fraction_at_or_below, mean, percentile
from repro.hw.ept import ExtendedPageTable, EptViolationSignal
from repro.hw.exits import MemAccess
from repro.hw.memory import (
    PAGE_SIZE,
    PhysicalMemory,
    page_base,
    page_number,
    page_offset,
)
from repro.hw.paging import PageTableRegistry, UNMAPPED_GVA
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams

MEM_BYTES = 4 * 1024 * 1024
addr_strategy = st.integers(min_value=0, max_value=MEM_BYTES - 9)
u64_strategy = st.integers(min_value=0, max_value=2**64 - 1)


class TestMemoryProperties:
    @given(addr=addr_strategy, value=u64_strategy)
    @settings(max_examples=100)
    def test_u64_roundtrip(self, addr, value):
        mem = PhysicalMemory(MEM_BYTES)
        mem.write_u64(addr, value)
        assert mem.read_u64(addr) == value

    @given(addr=st.integers(min_value=0, max_value=MEM_BYTES - 64),
           data=st.binary(min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_bytes_roundtrip(self, addr, data):
        mem = PhysicalMemory(MEM_BYTES)
        mem.write_bytes(addr, data)
        assert mem.read_bytes(addr, len(data)) == data

    @given(a=addr_strategy, b=addr_strategy, x=u64_strategy, y=u64_strategy)
    @settings(max_examples=100)
    def test_disjoint_writes_independent(self, a, b, x, y):
        if abs(a - b) < 8:
            return
        mem = PhysicalMemory(MEM_BYTES)
        mem.write_u64(a, x)
        mem.write_u64(b, y)
        assert mem.read_u64(a) == x
        assert mem.read_u64(b) == y

    @given(addr=st.integers(min_value=0, max_value=2**52))
    def test_page_identity(self, addr):
        assert page_base(addr) + page_offset(addr) == addr
        assert page_number(addr) * PAGE_SIZE == page_base(addr)


class TestEptProperties:
    @given(
        gpa=st.integers(min_value=0, max_value=2**40),
        perms=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    @settings(max_examples=100)
    def test_permissions_enforced_exactly(self, gpa, perms):
        read, write, execute = perms
        ept = ExtendedPageTable()
        ept.set_permissions(gpa, read=read, write=write, execute=execute)
        for access, allowed in (
            (MemAccess.READ, read),
            (MemAccess.WRITE, write),
            (MemAccess.EXECUTE, execute),
        ):
            if allowed:
                assert ept.translate(gpa, access) == gpa
            else:
                try:
                    ept.translate(gpa, access)
                    assert False, "expected violation"
                except EptViolationSignal as signal:
                    assert signal.access is access
        # translate_nofault never faults, whatever the permissions.
        assert ept.translate_nofault(gpa) == gpa


class TestPagingProperties:
    @given(
        pages=st.dictionaries(
            st.integers(min_value=1, max_value=2**20),
            st.integers(min_value=0, max_value=2**20),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=60)
    def test_every_mapping_translates(self, pages):
        registry = PageTableRegistry()
        space = registry.create_address_space()
        for vpn, gpn in pages.items():
            space.map_user_page(vpn * PAGE_SIZE, gpn * PAGE_SIZE)
        for vpn, gpn in pages.items():
            gva = vpn * PAGE_SIZE + 123
            assert registry.gva_to_gpa(space.pdba, gva) == gpn * PAGE_SIZE + 123
        registry.destroy_address_space(space)
        for vpn in pages:
            assert (
                registry.gva_to_gpa(space.pdba, vpn * PAGE_SIZE)
                == UNMAPPED_GVA
            )


class TestEngineProperties:
    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50
        )
    )
    @settings(max_examples=60)
    def test_events_fire_in_time_order(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda d=delay: fired.append(d))
        engine.drain()
        assert fired == sorted(delays)
        assert engine.clock.now == max(delays)

    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=1, max_size=30
        ),
        horizon=st.integers(min_value=0, max_value=1500),
    )
    @settings(max_examples=60)
    def test_run_until_fires_exactly_due_events(self, delays, horizon):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda d=delay: fired.append(d))
        engine.run_until(horizon)
        assert sorted(fired) == sorted(d for d in delays if d <= horizon)


class TestRngProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32), name=st.text(max_size=20))
    @settings(max_examples=60)
    def test_streams_reproducible(self, seed, name):
        a = RandomStreams(seed).stream(name).random()
        b = RandomStreams(seed).stream(name).random()
        assert a == b

    @given(
        base=st.integers(min_value=1, max_value=10**9),
        fraction=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=100)
    def test_jitter_bounds(self, base, fraction):
        value = RandomStreams(0).jitter_ns("x", base, fraction)
        assert value >= 1
        assert value <= base * (1 + fraction) + 1


class TestStatsProperties:
    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_mean_bounded_by_extremes(self, values):
        assert min(values) - 1e-6 <= mean(values) <= max(values) + 1e-6

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_cdf_ends_at_one(self, values):
        fractions = [fraction_at_or_below(values, v) for v in sorted(values)]
        assert fractions[-1] == 1.0
        assert fractions == sorted(fractions)

    @given(
        values=st.lists(st.floats(min_value=0, max_value=100,
                                  allow_nan=False), min_size=1, max_size=50),
        pct=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=100)
    def test_percentile_within_range(self, values, pct):
        p = percentile(values, pct)
        assert min(values) <= p <= max(values)

    @given(
        values=st.lists(st.floats(min_value=0, max_value=100,
                                  allow_nan=False), min_size=1, max_size=50),
        threshold=st.floats(min_value=-10, max_value=110),
    )
    @settings(max_examples=100)
    def test_fraction_matches_count(self, values, threshold):
        frac = fraction_at_or_below(values, threshold)
        expected = sum(1 for v in values if v <= threshold) / len(values)
        assert frac == expected


class TestGuestInvariantProperties:
    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=8, deadline=None)
    def test_cr3_always_points_to_live_space(self, seed):
        """The architectural invariant HyperTap trusts: at any point,
        every vCPU's CR3 is a live, walkable paging-structure root."""
        from repro.harness import Testbed, TestbedConfig
        from repro.guest.layouts import KNOWN_KERNEL_GVA

        testbed = Testbed(TestbedConfig(num_vcpus=2, seed=seed))
        testbed.boot()

        def churn(ctx):
            for _ in range(3):
                pid = yield ctx.sys_spawn(_child, "c")
                yield ctx.sys_waitpid(pid)
            yield ctx.exit(0)

        def _child(ctx):
            yield ctx.compute(5_000_000)
            yield ctx.exit(0)

        testbed.kernel.spawn_process(churn, "churn", uid=1000)
        registry = testbed.machine.page_registry
        for _ in range(20):
            testbed.run_ms(50)
            for vcpu in testbed.machine.vcpus:
                gpa = registry.gva_to_gpa(vcpu.regs.cr3, KNOWN_KERNEL_GVA)
                assert gpa != UNMAPPED_GVA

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=6, deadline=None)
    def test_tss_rsp0_matches_running_task(self, seed):
        """TSS.RSP0 always identifies the task the kernel says is
        running — the invariant behind Fig 3B."""
        from repro.harness import Testbed, TestbedConfig
        from repro.hw.tss import RSP0_OFFSET

        testbed = Testbed(TestbedConfig(num_vcpus=2, seed=seed))
        testbed.boot()

        def busy(ctx):
            while True:
                yield ctx.compute(300_000)
                yield ctx.sys_write(1, 8)

        for i in range(3):
            testbed.kernel.spawn_process(busy, f"b{i}", uid=1000)
        for _ in range(10):
            testbed.run_ms(100)
            for vcpu in testbed.machine.vcpus:
                rsp0 = testbed.machine.host_read_u64_gva(
                    testbed.kernel.kernel_pdba,
                    vcpu.regs.tr_base + RSP0_OFFSET,
                )
                current = testbed.kernel.cpus[vcpu.index].current
                assert rsp0 == current.rsp0
