"""Layer spans for the traced run, recorded from outside the program.

The traced run swaps each layer's public entry points for thin
wrappers that record a span — boundary name, start, end, parent span
and operation id — into flat in-memory arrays.  Nothing under ``src/``
changes: :func:`traced` patches the attributes for the duration of a
block and puts the originals back.  Spans are written out once, at
the end.

A span's *self time* is its duration minus the part of it covered by
its child spans (the union, so overlapping async children are not
counted twice).  Summed over every span below a root, self times equal
the root's wall time exactly; :func:`layer_self_times` groups them by
layer.  Time in no wrapped boundary lands in the root's own self time
and is reported as layer ``other``.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Layer of the root span and of any time no boundary claims.
OTHER = "other"

#: Every layer the per-layer metrics name, in pipeline order.
LAYERS = (
    "decode", "replay", "fanout", "container", "auditor", "obs",
    "kvm", "ef", "em", "interception", "guest",
    "transport", "admission", "pipeline", OTHER,
)

After = Callable[["Tracer", tuple, Any], None]


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: ``module`` + dotted ``attr`` path.

    ``kind`` is ``span`` (timed), ``count`` (call counted, not timed)
    or ``op`` (a span that also starts a new operation id).  ``after``
    sees ``(tracer, args, result)`` once a call returns.
    """

    module: str
    attr: str
    layer: str
    kind: str = "span"
    after: Optional[After] = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.attr}"


class Tracer:
    """In-memory span store: parallel arrays, one slot per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: List[int] = []
        self.current_op = 0
        self._op_ids: Dict[Any, int] = {}
        #: Call counts of ``count`` boundaries, by boundary name.
        self.counts: Counter = Counter()
        #: Values collected by ``after`` hooks, by key.
        self.samples: Dict[str, List[float]] = {}

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def op_id(self, key: Any) -> int:
        """A stable small integer for an operation key (e.g. stream id)."""
        oid = self._op_ids.get(key)
        if oid is None:
            oid = len(self._op_ids) + 1
            self._op_ids[key] = oid
        return oid

    def add_sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # ------------------------------------------------------------------
    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, name: str = "root") -> Iterator[None]:
        """The span every traced operation of a run nests under."""
        idx = self.begin(self.name_id(f"{OTHER}:{name}", OTHER))
        try:
            yield
        finally:
            self.finish(idx)

    def span_counts(self) -> Dict[str, int]:
        """Spans recorded per boundary name (each boundary's call count),
        merged with the call counts of ``count`` boundaries."""
        per_id = Counter(self.name_of)
        counts = {name: per_id.get(nid, 0) for name, nid in self._ids.items()}
        counts.update(self.counts)
        return counts

    def __len__(self) -> int:
        return len(self.start)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _span_wrapper(tracer: Tracer, fn: Callable, nid: int, kind: str,
                  after: Optional[After]) -> Callable:
    name_of, parent, op = tracer.name_of, tracer.parent, tracer.op
    start, end, stack = tracer.start, tracer.end, tracer.stack
    clock = perf_counter
    new_op = kind == "op"

    if inspect.iscoroutinefunction(fn):
        async def async_wrapper(*args, **kwargs):
            idx = tracer.begin(nid)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if after is not None:
                after(tracer, args, result)
            return result
        return async_wrapper

    # Runs once per event on the hot paths: Tracer.begin/finish inlined.
    def wrapper(*args, **kwargs):
        if new_op:
            tracer.current_op += 1
        idx = len(start)
        name_of.append(nid)
        parent.append(stack[-1] if stack else -1)
        op.append(tracer.current_op)
        end.append(0.0)
        stack.append(idx)
        start.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            end[idx] = clock()
            stack.pop()
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, fn: Callable, name: str) -> Callable:
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _resolve(boundary: Boundary) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(boundary.module)
    *path, attr = boundary.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
    return owner, attr, raw


def _wrap(tracer: Tracer, boundary: Boundary, raw: Any) -> Any:
    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    if boundary.kind == "count":
        wrapped = _count_wrapper(tracer, fn, boundary.name)
    else:
        nid = tracer.name_id(boundary.name, boundary.layer)
        wrapped = _span_wrapper(tracer, fn, nid, boundary.kind, boundary.after)
    if isinstance(raw, (staticmethod, classmethod)):
        wrapped = type(raw)(wrapped)
    return wrapped


@contextmanager
def traced(tracer: Tracer, boundaries: Sequence[Boundary]) -> Iterator[Tracer]:
    """Wrap every boundary for the duration of the block, then put the
    originals back.  A boundary that no longer exists raises, so a
    renamed entry point fails the traced run instead of vanishing."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for boundary in boundaries:
            owner, attr, raw = _resolve(boundary)
            wrapped = _wrap(tracer, boundary, raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float]) -> List[float]:
    """Per-span self time: duration minus the union of child intervals.

    Spans must be indexed in start order (children after parents), as
    :class:`Tracer` records them.  Child intervals are clipped to their
    parent, and overlapping children are merged, so self time is never
    negative and the self times of a tree sum to its root's duration.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = start[i] if start[i] > reach[p] else reach[p]
        hi = end[i] if end[i] < end[p] else end[p]
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [(end[i] - start[i]) - covered[i] for i in range(n)]


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer; every layer in :data:`LAYERS` is present."""
    totals = {layer: 0.0 for layer in LAYERS}
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    layer_of = tracer.layers
    name_of = tracer.name_of
    for i, value in enumerate(selfs):
        layer = layer_of[name_of[i]]
        totals[layer] = totals.get(layer, 0.0) + value
    return totals


def root_wall(tracer: Tracer) -> float:
    """Summed duration of the top-level spans."""
    return sum(
        tracer.end[i] - tracer.start[i]
        for i in range(len(tracer)) if tracer.parent[i] < 0
    )


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """``<layer>.self_s`` for every layer plus the root/sum check rows."""
    selfs = layer_self_times(tracer)
    root = root_wall(tracer)
    metrics = {f"{layer}.self_s": (value, "s") for layer, value in selfs.items()}
    metrics["trace.root_s"] = (root, "s")
    metrics["trace.self_sum_pct"] = (
        100.0 * sum(selfs.values()) / root if root > 0 else 0.0, "%"
    )
    metrics["trace.spans"] = (float(len(tracer)), "count")
    return metrics


# ----------------------------------------------------------------------
# Span files
# ----------------------------------------------------------------------
#: Span columns: Tracer attribute and array type code, in file order.
_FIELDS = (("name_of", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


def write_spans(tracer: Tracer, path: Path, meta: Optional[Dict[str, Any]] = None) -> None:
    """One JSON header line, then the raw span arrays in header order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": "perfbench-spans/1",
        "count": len(tracer),
        "names": tracer.names,
        "layers": tracer.layers,
        "fields": [[name, code] for name, code in _FIELDS],
        "clock": "time.perf_counter seconds",
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name, _ in _FIELDS:
            getattr(tracer, name).tofile(fh)


def read_spans(path: Path) -> Dict[str, Any]:
    """Inverse of :func:`write_spans`: header plus one array per field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        out: Dict[str, Any] = {"header": header}
        for name, code in header["fields"]:
            column = array.array(code)
            column.fromfile(fh, count)
            out[name] = column
    return out
