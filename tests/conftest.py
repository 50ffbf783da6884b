"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import functools
import io
import os
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis.runner import run_analysis
from repro.experiments import __main__ as experiments_cli
from repro.experiments import run_experiment
from repro.harness import Testbed, TestbedConfig
from repro.replay.recorder import record_scenario

#: The ``python -m repro.experiments <name>`` arguments each
#: ``tests/data/golden_<name>.txt`` was captured at.
GOLDEN_ARGS = {
    "table2": [],
    "table3": [],
    "ablation": [],
    "rhc": [],
    "fig7": ["--full"],
    "fig4": ["--scale", "0.25"],
    "ninjas": ["--scale", "0.5"],
    "detectors": [],
    "threshold": [],
}


@pytest.fixture(scope="session")
def repo_analysis():
    """One whole-tree ``repro.analysis`` report over ``src/``, shared by
    every test that only reads it (a full run takes seconds)."""
    return run_analysis(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session")
def paper_result():
    """``name -> (result, stdout)`` of ``python -m repro.experiments``
    at the golden's arguments: each runner runs at most once a session,
    and its golden and shape tests read the same run.  Grids fan out
    over two workers, which changes wall time, never a report."""

    @functools.lru_cache(maxsize=None)
    def get(name):
        kept = []

        def keep(*args, **kwargs):
            kept.append(run_experiment(*args, **kwargs))
            return kept[-1]

        out = io.StringIO()
        with mock.patch.object(experiments_cli, "run_experiment", keep), \
                mock.patch.dict(os.environ, {"REPRO_JOBS": "2"}), \
                contextlib.redirect_stdout(out):
            assert experiments_cli.main([name, *GOLDEN_ARGS[name]]) == 0
        return kept[0], out.getvalue()

    return get


@pytest.fixture(scope="session")
def recorded_scenario():
    """``name -> record_scenario(name, seed=0)``, recorded once a
    session; callers must not modify the run."""
    return functools.lru_cache(maxsize=None)(
        lambda name: record_scenario(name, seed=0)
    )


def guest_view_status(kernel, pid):
    """/proc/<pid>/status as the guest sees it: run the (hijackable)
    ``proc_status`` handler from the syscall table to completion."""
    gen = kernel.syscall_table["proc_status"](kernel, kernel._swappers[0], (pid,))
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


@pytest.fixture
def testbed() -> Testbed:
    """A booted 2-vCPU VM (the paper's default guest shape)."""
    tb = Testbed(TestbedConfig(num_vcpus=2, seed=42))
    tb.boot()
    return tb


@pytest.fixture
def testbed_1cpu() -> Testbed:
    tb = Testbed(TestbedConfig(num_vcpus=1, seed=42))
    tb.boot()
    return tb


def spin_forever(ctx):
    """A guest program that burns CPU forever (test helper)."""
    while True:
        yield ctx.compute(500_000)


def chatty_worker(ctx):
    """Computes and writes in a loop (drives syscall + tty paths)."""
    while True:
        yield ctx.compute(300_000)
        yield ctx.sys_write(1, 64)


@pytest.fixture
def spawn_spinner(testbed):
    def _spawn(name: str = "spinner", uid: int = 1000, **kwargs):
        return testbed.kernel.spawn_process(
            spin_forever, name, uid=uid, exe=f"/bin/{name}", **kwargs
        )

    return _spawn


#: Trace-header fields the loaders used to coerce (``vm_id`` 42 became
#: ``"42"``, ``num_vcpus`` true one vCPU), one field at a time, each
#: with the error message it must now fail with.
COERCED_HEADER_FIELDS = [
    ({"vm_id": 42}, "header vm_id must be a string, got 42"),
    ({"seed": 1.9}, "header seed must be an integer, got 1.9"),
    ({"start_ns": True}, "header start_ns must be an integer, got True"),
    ({"num_vcpus": True}, "header num_vcpus must be an integer, got True"),
    ({"event_counts": {"io": 2.7}},
     "header event_counts['io'] must be an integer, got 2.7"),
    ({"event_counts": 0}, "bad event_counts 0"),
    ({"meta": ""}, "bad meta ''"),
]
