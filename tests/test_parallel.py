"""The deterministic parallel executor (repro.parallel).

Two layers of guarantees under test:

* executor mechanics — order-preserving merge, contiguous chunking,
  retry-once-then-:class:`InfrastructureFailure`, worker-death
  recovery, the ``REPRO_JOBS`` knob;
* consumer equivalence — fault campaigns, fuzzing campaigns, and
  golden-trace replays produce *identical* results at 1, 2, and 8
  workers, which is the whole point of the subsystem.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pathlib

import pytest

from repro.parallel import (
    InfrastructureFailure,
    derive_seed,
    job_count,
    parallel_map,
    warm_pool,
)
from repro.parallel import shared
from repro.parallel import executor as _executor
from repro.parallel.executor import _chunked

GOLDEN_TRACE = str(
    pathlib.Path(__file__).parent / "data" / "golden_exploit.jsonl"
)

JOB_COUNTS = (1, 2, 8)


# ----------------------------------------------------------------------
# Module-level task functions (workers import them by reference).
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _raise_always(x):
    raise ValueError(f"task {x} is broken")


def _fail_in_worker(x):
    """In-band task failure on the worker attempt; parent retry wins."""
    if multiprocessing.parent_process() is not None:
        raise ValueError("worker-side failure")
    return x * 2


def _die_in_worker(x):
    """Kill the worker process outright; the parent re-runs the chunk."""
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return x * 3


_FLAKY_SEEN = set()


def _flaky_once(x):
    """Fails on first call per item *in this process* (serial-path retry)."""
    if x not in _FLAKY_SEEN:
        _FLAKY_SEEN.add(x)
        raise ValueError("first attempt")
    return x + 1


def _replay_golden(path):
    from repro.auditors.ht_ninja import HTNinja
    from repro.replay.source import ReplaySource
    from repro.replay.btrace import load_any_trace

    trace = load_any_trace(path)
    report = ReplaySource(trace, [HTNinja()]).run()
    return (report.verdicts, report.events_replayed, report.events_rejected)


# ======================================================================
# Executor mechanics
# ======================================================================
class TestParallelMap:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_matches_serial_comprehension(self, jobs):
        items = list(range(23))
        assert parallel_map(_square, items, jobs=jobs) == [
            _square(x) for x in items
        ]

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_empty_and_singleton(self, jobs):
        assert parallel_map(_square, [], jobs=jobs) == []
        assert parallel_map(_square, [7], jobs=jobs) == [49]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_unrecoverable_task_raises_typed_failure(self, jobs):
        with pytest.raises(InfrastructureFailure) as excinfo:
            parallel_map(_raise_always, [1, 2, 3], jobs=jobs)
        assert "broken" in str(excinfo.value)

    def test_worker_task_failure_retried_in_parent(self):
        # The task fails on every worker attempt but succeeds in the
        # parent: one retry must heal it without dropping any result.
        assert parallel_map(_fail_in_worker, [1, 2, 3, 4], jobs=2) == [
            2,
            4,
            6,
            8,
        ]

    def test_worker_death_retried_in_parent(self):
        # os._exit in the worker kills the process mid-chunk
        # (BrokenExecutor); every affected chunk re-runs in the parent.
        assert parallel_map(_die_in_worker, [1, 2, 3, 4, 5], jobs=2) == [
            3,
            6,
            9,
            12,
            15,
        ]

    def test_serial_retry_discipline(self):
        _FLAKY_SEEN.clear()
        assert parallel_map(_flaky_once, [10, 20], jobs=1) == [11, 21]

    def test_progress_reports_every_task(self):
        seen = []
        parallel_map(_square, list(range(9)), jobs=2, progress=seen.append)
        assert len(seen) == 9
        assert seen[-1] == 9


class TestChunking:
    def test_chunks_are_contiguous_and_complete(self):
        items = list(range(37))
        chunks = _chunked(items, jobs=4, chunk_size=None)
        flat = [pair for chunk in chunks for pair in chunk]
        assert flat == list(enumerate(items))  # order + coverage
        for chunk in chunks:
            indices = [i for i, _ in chunk]
            assert indices == list(range(indices[0], indices[0] + len(chunk)))

    def test_explicit_chunk_size(self):
        chunks = _chunked(list(range(10)), jobs=2, chunk_size=4)
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_chunk_size_respected_by_map(self):
        items = list(range(11))
        assert parallel_map(_square, items, jobs=2, chunk_size=3) == [
            x * x for x in items
        ]


class TestKnobs:
    def test_job_count_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert job_count() == 5

    def test_job_count_default_and_garbage(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert job_count() == 1
        assert job_count(default=3) == 3
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert job_count() == 1
        monkeypatch.setenv("REPRO_JOBS", "-4")
        assert job_count() == 1

    def test_derive_seed_is_stable_sha256(self):
        expected = int.from_bytes(
            hashlib.sha256(b"7:site:3").digest()[:8], "big"
        )
        assert derive_seed(7, "site", 3) == expected
        assert derive_seed(7, "site", 3) == derive_seed(7, "site", 3)
        assert derive_seed(7, "site", 3) != derive_seed(7, "site", 4)
        assert derive_seed(7, "site", 3) != derive_seed(8, "site", 3)


class TestPoolAndStats:
    def test_stats_filled_on_serial_path(self):
        stats = {}
        parallel_map(_square, [1, 2, 3], jobs=1, stats=stats)
        assert stats == {"jobs": 1, "chunks": 0, "chunk_cpu_s": []}

    def test_stats_report_every_chunk(self):
        stats = {}
        items = list(range(12))
        parallel_map(_square, items, jobs=2, chunk_size=3, stats=stats)
        assert stats["jobs"] == 2
        assert stats["chunks"] == 4
        assert len(stats["chunk_cpu_s"]) == 4
        assert all(
            isinstance(c, float) and c >= 0.0 for c in stats["chunk_cpu_s"]
        )

    def test_warm_pool_is_reused_by_parallel_map(self):
        warm_pool(2)
        pool = _executor._POOL
        assert pool is not None
        parallel_map(_square, list(range(8)), jobs=2)
        assert _executor._POOL is pool

    def test_pool_recycled_when_job_count_changes(self):
        warm_pool(2)
        first = _executor._POOL
        parallel_map(_square, list(range(6)), jobs=3)
        assert _executor._POOL is not first

    def test_warm_pool_serial_is_a_no_op(self):
        _executor._discard_pool()
        warm_pool(1)
        assert _executor._POOL is None


class TestSharedState:
    def test_prime_invalidates_pooled_workers(self):
        # A stale worker must never serve newer shared state: the
        # executor rebuilds its persistent pool once the generation
        # moves.
        parallel_map(_square, list(range(4)), jobs=2)
        stale = _executor._POOL
        before = shared.generation()
        shared.prime("t-recycle", object())
        assert shared.generation() == before + 1
        parallel_map(_square, list(range(4)), jobs=2)
        assert _executor._POOL is not stale


# ======================================================================
# Consumer equivalence: byte-identical at any job count
# ======================================================================
def _tiny_campaign(jobs):
    from repro.faults.campaign import TrialConfig, run_campaign
    from repro.faults.injector import InjectionMode
    from repro.faults.sites import build_site_catalog
    from repro.sim.clock import SECOND

    sites = [s for s in build_site_catalog() if s.activation_pass == 1][:2]
    return run_campaign(
        sites,
        workloads=("hanoi",),
        modes=(InjectionMode.TRANSIENT,),
        preempt_options=(False, True),
        seeds=(0,),
        base_config=TrialConfig(
            warmup_ns=1 * SECOND,
            detect_window_ns=6 * SECOND,
            classify_window_ns=8 * SECOND,
        ),
        jobs=jobs,
    )


class TestCampaignEquivalence:
    def test_identical_at_any_job_count(self):
        serial = _tiny_campaign(jobs=1)
        for jobs in JOB_COUNTS[1:]:
            fanned = _tiny_campaign(jobs=jobs)
            assert fanned.results == serial.results, f"jobs={jobs}"
            assert fanned.outcome_counts() == serial.outcome_counts()
            assert (
                fanned.detection_latencies_s()
                == serial.detection_latencies_s()
            )


class TestFuzzEquivalence:
    def test_identical_at_any_job_count(self):
        from repro.testing.fuzzer import FuzzConfig, fuzz

        configs = [
            FuzzConfig(target="exploit", seed=seed, budget=5)
            for seed in (0, 1, 2)
        ]
        serial = [fuzz(c) for c in configs]
        for jobs in JOB_COUNTS[1:]:
            fanned = parallel_map(fuzz, configs, jobs=jobs)
            assert [r.unique_keys for r in fanned] == [
                r.unique_keys for r in serial
            ], f"jobs={jobs}"
            assert [r.executions for r in fanned] == [
                r.executions for r in serial
            ]
            assert [sorted(r.coverage.features) for r in fanned] == [
                sorted(r.coverage.features) for r in serial
            ]


class TestReplayEquivalence:
    def test_golden_verdicts_at_any_job_count(self):
        expected = _replay_golden(GOLDEN_TRACE)
        assert expected[0], "golden trace must produce a verdict"
        for jobs in JOB_COUNTS:
            outcomes = parallel_map(
                _replay_golden, [GOLDEN_TRACE] * 6, jobs=jobs
            )
            assert outcomes == [expected] * 6, f"jobs={jobs}"
