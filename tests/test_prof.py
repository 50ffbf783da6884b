"""repro.prof — the single sanctioned wall-clock module.

Covers the opt-in contract (``profile_scope`` is free when no profiler
is installed), scope nesting into collapsed-stack paths, the report and
flamegraph renderers (self-time = total minus children), and the
install/uninstall stack discipline.
"""

from __future__ import annotations

import pytest

from repro.prof import (
    Profiler,
    perf_counter,
    process_time,
    profile_scope,
    wall_unix_time,
)


class TestAccessors:
    def test_clock_accessors_are_callable(self):
        assert perf_counter() <= perf_counter()
        assert process_time() >= 0.0
        assert wall_unix_time() > 1.5e9  # sometime after 2017


class TestProfileScope:
    def test_noop_when_no_profiler_installed(self):
        with profile_scope("anything"):
            pass
        with Profiler() as prof:
            pass
        assert prof.stats == {}

    def test_records_under_installed_profiler(self):
        with Profiler() as prof:
            with profile_scope("stage"):
                pass
        with profile_scope("after-uninstall"):
            pass
        (path,) = prof.stats
        assert path == "stage"
        total, count = prof.stats[path]
        assert count == 1 and total >= 0.0

    def test_nesting_builds_semicolon_paths(self):
        with Profiler() as prof:
            with profile_scope("a"):
                with profile_scope("b"):
                    pass
                with profile_scope("b"):
                    pass
        assert set(prof.stats) == {"a", "a;b"}
        assert prof.stats["a;b"][1] == 2

    def test_scope_pops_on_exception(self):
        with Profiler() as prof:
            with pytest.raises(ValueError):
                with profile_scope("outer"):
                    with profile_scope("inner"):
                        raise ValueError("boom")
            with profile_scope("after"):
                pass
        # "after" is a root path: the raising scopes unwound cleanly.
        assert set(prof.stats) == {"outer", "outer;inner", "after"}

    def test_install_nesting_restores_previous(self):
        outer = Profiler().install()
        inner = Profiler().install()
        with profile_scope("first"):
            pass
        inner.uninstall()
        with profile_scope("second"):
            pass
        outer.uninstall()
        with profile_scope("third"):
            pass
        assert set(inner.stats) == {"first"}
        assert set(outer.stats) == {"second"}


class TestReporting:
    def _canned(self):
        prof = Profiler()
        prof.stats = {
            "bench": (0.010, 1),
            "bench;replay": (0.006, 2),
            "bench;obs": (0.003, 1),
        }
        return prof

    def test_report_lines_order_and_columns(self):
        lines = self._canned().report_lines()
        assert lines[0].split() == ["wall_s", "calls", "avg_ms", "scope"]
        # Widest total first.
        assert [ln.split()[-1] for ln in lines[1:]] == [
            "bench",
            "bench;replay",
            "bench;obs",
        ]
        assert lines[2].split()[:3] == ["0.0060", "2", "3.000"]

    def test_flamegraph_self_time_subtracts_children(self):
        lines = self._canned().flamegraph_lines()
        values = dict(
            (path, int(value))
            for path, value in (ln.rsplit(" ", 1) for ln in lines)
        )
        # bench self-time: 10ms - (6ms + 3ms) children = 1ms.
        assert values == {
            "bench": 1000,
            "bench;replay": 6000,
            "bench;obs": 3000,
        }

    def test_flamegraph_omits_zero_self_time(self):
        prof = Profiler()
        prof.stats = {"a": (0.005, 1), "a;b": (0.005, 1)}
        assert prof.flamegraph_lines() == ["a;b 5000"]

    def test_empty_report_is_explicit(self):
        assert Profiler().report_lines() == ["(no profile samples)"]
        assert Profiler().flamegraph_lines() == []
