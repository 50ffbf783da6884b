"""The order-independent parallel executor behind ``repro.parallel``.

Contract
--------
``parallel_map(fn, items)`` returns ``[fn(item) for item in items]`` —
exactly, regardless of ``REPRO_JOBS``, worker count, chunking, or the
order in which workers finish.  Three mechanisms make that hold:

* **purity** — ``fn`` must be a module-level function whose output
  depends only on its argument (all seeds travel inside the items;
  :func:`derive_seed` builds per-task seeds the same way
  :class:`repro.sim.rng.RandomStreams` derives streams);
* **indexed merge** — every task carries its input index and results
  land in a pre-sized slot table, so completion order is irrelevant;
* **chunking** — items are distributed in contiguous chunks (several
  per worker) to amortize pickling and process startup, without
  affecting the merge.

Crash isolation: a task that raises, or whose worker process dies, is
retried **once in the parent process**.  If the retry raises too, the
call fails with :class:`InfrastructureFailure` naming the item — a task
is never silently dropped, because a dropped trial would skew campaign
statistics without any visible error.

Fan-out overhead is attacked two ways (this is what makes ``jobs=2``
pay on the ledger):

* **persistent pool** — one module-level :class:`ProcessPoolExecutor`
  is reused across ``parallel_map`` calls instead of paying fork +
  interpreter warm-up per call; it is recycled when the job count
  changes, when a worker dies, or when :func:`repro.parallel.shared.prime`
  moved the pool generation;
* **batched merges** — results come back one chunk at a time and merge
  into the pre-sized slot table per chunk, not per task.

``parallel_map(..., stats=dict)`` additionally reports per-chunk worker
CPU time (``repro.prof.process_time`` inside the worker), which is what the
benchmark's critical-path speedup model consumes: on a core-starved CI
box, wall time inside timesharing workers measures the scheduler, not
the work.

This module is the only sanctioned home for ``multiprocessing`` /
``concurrent.futures`` in the tree: the determinism rule of
``repro.analysis`` flags scheduling imports anywhere else.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.parallel import shared
from repro.prof import process_time

#: Environment knob: worker process count (default 1 = serial).
JOBS_ENV = "REPRO_JOBS"

#: Target chunks issued per worker; >1 keeps stragglers from idling the
#: pool while still amortizing per-chunk pickle/dispatch cost.
CHUNKS_PER_WORKER = 4


class InfrastructureFailure(ReproError):
    """A task failed on both its worker attempt and the parent retry.

    Distinct from the task's own domain errors so campaign code can
    tell "the experiment found something" from "the harness broke".
    """

    def __init__(self, index: int, item: Any, cause: str) -> None:
        super().__init__(
            f"task {index} ({item!r}) failed in a worker and again on the "
            f"parent retry: {cause}"
        )
        self.index = index
        self.cause = cause


def job_count(default: int = 1) -> int:
    """Resolve the worker count from ``REPRO_JOBS`` (>= 1).

    Inside a worker process this always returns 1: nested fan-out would
    multiply processes without adding cores, and the outer executor
    already owns the parallelism budget.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    raw = os.environ.get(JOBS_ENV, "")
    try:
        jobs = int(raw) if raw else int(default)
    except ValueError:
        jobs = int(default)
    return max(1, jobs)


def derive_seed(base_seed: int, *components: Any) -> int:
    """Stable per-task seed from a campaign seed plus task coordinates.

    Same construction as :class:`repro.sim.rng.RandomStreams` (SHA-256
    of ``"seed:part:part"``, first 8 bytes): independent of
    ``PYTHONHASHSEED``, process identity, and platform, so a task seeded
    this way draws the same stream in any worker — or in the parent.
    """
    text = ":".join(str(part) for part in (base_seed,) + components)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _run_chunk(
    fn: Callable[[Any], Any], chunk: List[Tuple[int, Any]]
) -> Tuple[List[Tuple[int, bool, Any]], float]:
    """Run one contiguous chunk; exceptions are returned, not raised,
    so a single bad task cannot poison its chunk-mates.

    Returns ``(results, cpu_seconds)`` where the CPU time is measured
    with ``process_time`` *inside* the worker: on a box with fewer
    cores than workers, wall time per worker counts timesharing stalls
    as work, so only CPU time composes into an honest critical path.
    """
    out: List[Tuple[int, bool, Any]] = []
    cpu_start = process_time()
    for index, item in chunk:
        try:
            out.append((index, True, fn(item)))
        except Exception as exc:  # noqa: BLE001 - isolated + retried in parent
            out.append((index, False, f"{type(exc).__name__}: {exc}"))
    return out, process_time() - cpu_start


def _warm_up(_: Any) -> bool:
    """No-op task used to force worker processes into existence."""
    return True


def _chunked(
    items: Sequence[Any], jobs: int, chunk_size: Optional[int]
) -> List[List[Tuple[int, Any]]]:
    """Deterministic contiguous chunking of the indexed item list."""
    if chunk_size is None:
        chunk_size = max(1, -(-len(items) // (jobs * CHUNKS_PER_WORKER)))
    chunk_size = max(1, int(chunk_size))
    indexed = list(enumerate(items))
    return [
        indexed[start : start + chunk_size]
        for start in range(0, len(indexed), chunk_size)
    ]


def _mp_context():
    """Fork where available (cheap start, the modules are already
    loaded); spawn elsewhere.  The choice cannot affect results — tasks
    are pure functions of their pickled arguments."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# Parent side: the persistent pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS = 0
_POOL_GENERATION = -1


def _discard_pool(wait_for_workers: bool = False) -> None:
    """Forget the persistent pool (shutting it down best-effort)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        try:
            pool.shutdown(wait=wait_for_workers, cancel_futures=True)
        except Exception:  # noqa: BLE001 - already-broken pools may throw
            pass


atexit.register(_discard_pool)


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The reusable pool for ``jobs`` workers.

    Rebuilt when the job count changes, when a previous call found the
    pool broken, or when :mod:`repro.parallel.shared` was primed since
    the workers forked (a stale worker must never serve state the
    parent has since changed).  Reuse is what deletes the fork + interpreter warm-up cost
    from every ``parallel_map`` call after the first.
    """
    global _POOL, _POOL_JOBS, _POOL_GENERATION
    generation = shared.generation()
    if _POOL is None or _POOL_JOBS != jobs or _POOL_GENERATION != generation:
        _discard_pool()
        _POOL = ProcessPoolExecutor(max_workers=jobs, mp_context=_mp_context())
        _POOL_JOBS = jobs
        _POOL_GENERATION = generation
    return _POOL


def warm_pool(jobs: int) -> None:
    """Fork the workers for ``jobs`` now (outside any timed region).

    Benchmarks call this before measuring so the first timed
    ``parallel_map`` exercises dispatch + merge, not process creation.
    """
    jobs = max(1, int(jobs))
    if jobs == 1:
        return
    pool = _get_pool(jobs)
    try:
        for future in [pool.submit(_warm_up, i) for i in range(jobs)]:
            future.result()
    except BrokenExecutor:  # pragma: no cover - recreated on next use
        _discard_pool()


_UNSET = object()


def _retry_in_parent(
    fn: Callable[[Any], Any], index: int, item: Any, cause: str
) -> Any:
    """Second (and last) attempt, in the parent, after a worker failure."""
    try:
        return fn(item)
    except Exception as exc:  # noqa: BLE001 - converted to a typed failure
        raise InfrastructureFailure(
            index, item, f"{cause}; retry: {type(exc).__name__}: {exc}"
        ) from exc


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    progress: Optional[Callable[[int], None]] = None,
    stats: Optional[Dict[str, Any]] = None,
) -> List[Any]:
    """``[fn(item) for item in items]`` across worker processes.

    ``fn`` must be picklable (module-level) and pure in its argument.
    ``jobs=None`` reads ``REPRO_JOBS``; ``jobs<=1`` runs serially in
    this process with the identical retry discipline, so the serial and
    parallel paths produce the same values *and* the same failures.
    ``progress`` receives the running count of completed tasks.

    ``stats``, when given a dict, is filled with fan-out accounting:
    ``jobs``, ``chunks``, and ``chunk_cpu_s`` (worker-side CPU seconds
    per completed chunk, in chunk order — what the benchmark's
    critical-path model schedules).
    """
    items = list(items)
    jobs = job_count() if jobs is None else max(1, int(jobs))
    if stats is not None:
        stats["jobs"] = jobs
        stats["chunks"] = 0
        stats["chunk_cpu_s"] = []
    if jobs == 1 or len(items) <= 1:
        return _serial_map(fn, items, progress)

    results: List[Any] = [_UNSET] * len(items)
    chunks = _chunked(items, jobs, chunk_size)
    chunk_cpu: List[Optional[float]] = [None] * len(chunks)
    done = 0
    failed_tasks: List[Tuple[int, Any, str]] = []
    dead_chunks: List[List[Tuple[int, Any]]] = []
    broke = False
    pool = _get_pool(jobs)
    pending = {
        pool.submit(_run_chunk, fn, chunk): chunk_no
        for chunk_no, chunk in enumerate(chunks)
    }
    while pending:
        finished, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in finished:
            chunk_no = pending.pop(future)
            try:
                packed, cpu_s = future.result()
            except BrokenExecutor:
                # The worker died mid-chunk (OOM kill, segfault in an
                # extension, ...).  Nothing came back: re-run the whole
                # chunk in the parent, and recycle the pool so the next
                # call starts from healthy workers.
                dead_chunks.append(chunks[chunk_no])
                broke = True
                continue
            except Exception:  # noqa: BLE001 - e.g. unpicklable result
                dead_chunks.append(chunks[chunk_no])
                continue
            chunk_cpu[chunk_no] = cpu_s
            # Batched merge: one pass over the chunk's results, straight
            # into the pre-sized slot table (progress stays per-task).
            for index, ok, value in packed:
                if ok:
                    results[index] = value
                else:
                    failed_tasks.append((index, items[index], value))
                done += 1
                if progress is not None:
                    progress(done)
    if broke:
        _discard_pool()
    if stats is not None:
        stats["chunks"] = len(chunks)
        stats["chunk_cpu_s"] = [c for c in chunk_cpu if c is not None]

    for chunk in dead_chunks:
        for index, item in chunk:
            results[index] = _retry_in_parent(
                fn, index, item, "worker process died"
            )
            done += 1
            if progress is not None:
                progress(done)
    for index, item, cause in failed_tasks:
        results[index] = _retry_in_parent(fn, index, item, cause)

    missing = [i for i, value in enumerate(results) if value is _UNSET]
    if missing:  # pragma: no cover - belt and braces over the merge
        raise InfrastructureFailure(
            missing[0], items[missing[0]], "no result returned for task"
        )
    return results


def _serial_map(
    fn: Callable[[Any], Any],
    items: List[Any],
    progress: Optional[Callable[[int], None]],
) -> List[Any]:
    results: List[Any] = []
    for index, item in enumerate(items):
        try:
            results.append(fn(item))
        except Exception as exc:  # noqa: BLE001 - same discipline as parallel
            results.append(
                _retry_in_parent(
                    fn, index, item, f"{type(exc).__name__}: {exc}"
                )
            )
        if progress is not None:
            progress(index + 1)
    return results
