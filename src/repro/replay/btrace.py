"""btrace: the struct-packed binary trace format (the replay hot path).

JSONL (:mod:`repro.replay.trace_io`) stays the *interchange* format —
self-describing, greppable, crash-tail salvageable.  btrace is the
*performance* format the ledger gates: the same records, struct-packed
with per-event-type fixed layouts, an interned string/blob table, and a
per-record offset index.

File layout (little-endian throughout)::

    MAGIC (8)  | u32 len | header JSON line (as the JSONL header line)
    record*    |  -- see below
    strings    |  u32 count, then per entry: u32 len + utf-8 bytes
    blobs      |  u32 count, then per entry: u32 len + raw bytes
    tail       |  u32 len + canonical JSON {event_counts, end_ns, footer}
    index      |  u64 file offset per record
    trailer    |  u64 x5 section offsets/count + TRAILER_MAGIC (8)

Every record starts with one tag byte.  Tag ``0`` is the
length-prefixed *JSON escape*: the record's canonical JSON, verbatim —
scan markers, foreign kinds, and any event whose fields fall outside
the fixed-layout domain (negative ints, oversized values, extra keys)
take this path, so conversion is lossless by construction.  Tags
``8..63`` are fixed layouts::

    tag = type_code << 3 | has_hw << 2 | has_task << 1 | has_parent

followed by the common prefix ``t:u64 vcpu:u16 vm:ref32``, the
per-type payload, then optional hw (11 x u64), task and parent blocks
(6 x u64 + comm/exe refs).  Strings (vm ids, mechanisms, io kinds,
comm/exe, reasons, canonical-JSON detail/qual) are table references;
syscall arg vectors are packed u64 blobs.

The payload fields, their order and their kinds are each event
class's ``CODEC`` table in :mod:`repro.core.events`; this module only
says how each kind is packed.  Replay reads eagerly:
iterating a :class:`BinaryTraceReader` unpacks each fixed-layout
record's common prefix and reads its payload, hw and task blocks as
bytes.  Each distinct payload is checked once: its references are
resolved and its first record is built by the dict path's decoder,
``GuestEvent.from_record``; repeats copy its checked attributes
(``from_checked``, compiled in :mod:`repro.core.events`), with fresh
``json`` dicts.  Each distinct hw or task block is unpacked and
built once, and equal ones share the frozen result.  The reader frames
and decodes but judges nothing: a record whose references do not
resolve becomes a :class:`TraceFormatError` item in its place, which
replay counts as a ``decode`` rejection.  Record dicts are built only
for consumers that ask (``Trace.records``, ``convert``), from the
items, by :func:`~repro.replay.format.record_of`.

The header line is the only source of header fields.  The tail repeats
the header's ``event_counts`` and ``end_ns``, and its ``footer`` key is
reserved and always ``null``; readers check that the tail is framed
JSON and use nothing in it.  ``convert`` is a load then a save, with
the same writers ``record`` uses, so a canonically written trace
round-trips byte for byte in both directions.

This module is the one sanctioned home of ``struct``/``mmap``/``array``
in the tree (see the determinism rule): binary layouts are exactly the
kind of silent codec drift PR 2's rules exist to catch, so they live
behind one audited boundary with the layout table checked against
``EVENT_CLASSES`` at commit time.
"""

from __future__ import annotations

import json
import mmap
import struct
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Type, Union

from repro.core.derive import DerivedTaskInfo
from repro.core.events import EVENT_CLASSES, GuestEvent, snapshot_of
from repro.errors import TraceFormatError
from repro.hw.exits import GuestStateSnapshot
from repro.replay.format import _TASK_FIELDS, KIND_EVENT, Trace, TraceHeader, task_of
from repro.replay.trace_io import (
    STDIN_NAME,
    TraceFramer,
    TraceReader,
    _encode,
    read_input,
    save_trace,
)

#: First bytes of every btrace file.  Distinct from gzip (``\x1f\x8b``)
#: and from any JSON/JSONL first byte, so one 8-byte sniff classifies
#: all three container formats.
MAGIC = b"HTBT\x01\r\n\x00"

#: Closing magic inside the fixed-size trailer; its absence at EOF is
#: how truncation is detected before any record is trusted.
TRAILER_MAGIC = b"HTBTEND\x00"

#: Recommended filename extension (``record`` picks the btrace writer by it).
BTRACE_SUFFIX = ".btr"

#: Packed chunks the writer buffers before one file write.
_FLUSH_EVERY = 1024

_U64_MAX = (1 << 64) - 1
_U32_MAX = (1 << 32) - 1
_U16_MAX = (1 << 16) - 1

#: Fixed-layout type codes.  Never renumber: the on-disk tag embeds
#: them.  New event types append the next free code (1..31).
TYPE_CODES: Dict[str, int] = {
    "process_switch": 1,
    "thread_switch": 2,
    "syscall": 3,
    "io": 4,
    "mem_access": 5,
    "tss_integrity": 6,
    "raw_exit": 7,
}

#: Per-type payload struct formats, one character per ``CODEC`` field:
#: ``Q`` a raw u64 (kind ``int``), ``I`` a u32 reference into the
#: string table (``str``, ``reason``, and ``json`` as canonical JSON)
#: or the blob table (``ints``, as packed u64s).  The event-coverage
#: rule cross-checks this table's keys against ``EventType`` at commit
#: time, so a new ``GuestEvent`` subclass without a binary layout fails
#: static analysis, not replay.
BTRACE_LAYOUTS: Dict[str, str] = {
    "process_switch": "<QQ",
    "thread_switch": "<Q",
    "syscall": "<QII",
    "io": "<II",
    "mem_access": "<QQI",
    "tss_integrity": "<QQ",
    "raw_exit": "<II",
}

_TAG_ESCAPE = 0

_HW = struct.Struct("<11Q")
_TASK = struct.Struct("<QQQQQQII")  # gva pid uid euid flags parent_gva comm exe
_LEN32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_TRAILER = struct.Struct("<QQQQQ8s")  # count, strings, blobs, tail, index, magic

#: Exact key set of a fixed-layout event record, per type value.
_CANONICAL_KEYS: Dict[str, frozenset] = {
    value: frozenset(
        {"kind", "t", "vcpu", "vm", "type", "hw"}
        | {key for key, _, _ in EVENT_CLASSES[value].CODEC}
    )
    for value in BTRACE_LAYOUTS
}

_TASK_KEY_SET = frozenset(_TASK_FIELDS)


def _is_u64(value: Any) -> bool:
    return type(value) is int and 0 <= value <= _U64_MAX


# ======================================================================
# Writer
# ======================================================================
class BinaryTraceWriter:
    """The btrace writer behind :func:`save_btrace`.

    Records become packed binary as they are written and reach the file
    in batches; the interning tables, tail, record index and trailer
    land at :meth:`close`.  ``records_written``, ``escapes`` and the
    interned strings are what ``convert`` reports.
    """

    def __init__(self, path: str, header: TraceHeader) -> None:
        self.header = header
        self.records_written = 0
        self.escapes = 0
        self._fh = open(path, "wb")
        self._buffer: List[bytes] = []
        self._offsets: List[int] = []
        self._pos = 0
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        self._blobs: List[bytes] = []
        self._blob_ids: Dict[bytes, int] = {}
        head = _encode(header.to_record()).encode("utf-8")
        self._write(MAGIC + _LEN32.pack(len(head)) + head)

    # ------------------------------------------------------------------
    def _write(self, data: bytes) -> None:
        self._buffer.append(data)
        self._pos += len(data)
        if len(self._buffer) >= _FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._fh.write(b"".join(self._buffer))
            self._buffer.clear()

    def _intern(self, text: str) -> int:
        idx = self._string_ids.get(text)
        if idx is None:
            idx = len(self._strings)
            if idx > _U32_MAX:
                raise TraceFormatError("string table overflow")
            self._strings.append(text)
            self._string_ids[text] = idx
        return idx

    def _intern_blob(self, blob: bytes) -> int:
        idx = self._blob_ids.get(blob)
        if idx is None:
            idx = len(self._blobs)
            if idx > _U32_MAX:
                raise TraceFormatError("blob table overflow")
            self._blobs.append(blob)
            self._blob_ids[blob] = idx
        return idx

    # ------------------------------------------------------------------
    def _pack_fixed(self, record: Dict[str, Any]) -> Optional[bytes]:
        """The fixed-layout encoding of ``record``, or ``None`` when any
        field falls outside the layout domain (the JSON escape then
        preserves it losslessly)."""
        type_value = record.get("type")
        if type(type_value) is not str or type_value not in BTRACE_LAYOUTS:
            return None
        t = record.get("t")
        vcpu = record.get("vcpu")
        vm = record.get("vm")
        if (
            not _is_u64(t)
            or type(vcpu) is not int
            or not 0 <= vcpu <= _U16_MAX
            or type(vm) is not str
        ):
            return None
        if record.keys() - _CANONICAL_KEYS[type_value] - {"task", "parent"}:
            return None
        hw = record.get("hw")
        if hw is not None and (
            type(hw) is not list or len(hw) != 11 or not all(map(_is_u64, hw))
        ):
            return None
        values: List[int] = [t, vcpu, 0]
        for key, _, kind in EVENT_CLASSES[type_value].CODEC:
            value = record.get(key)
            if kind == "int":
                if not _is_u64(value):
                    return None
            elif kind == "json":
                if type(value) is not dict:
                    return None
                value = self._intern(_encode(value))
            elif kind == "ints":
                if type(value) is not list or not all(map(_is_u64, value)):
                    return None
                value = self._intern_blob(b"".join(_U64.pack(v) for v in value))
            else:  # str, reason
                if type(value) is not str:
                    return None
                value = self._intern(value)
            values.append(value)
        if hw is not None:
            values += hw
        task = record.get("task")
        parent = record.get("parent")
        for block in (task, parent):
            if block is not None:
                packed = self._task_values(block)
                if packed is None:
                    return None
                values += packed
        # The vm id is interned last: intern order is part of the bytes.
        values[2] = self._intern(vm)
        tag = (
            TYPE_CODES[type_value] << 3
            | (4 if hw is not None else 0)
            | (2 if task is not None else 0)
            | (1 if parent is not None else 0)
        )
        return bytes((tag,)) + _layout(tag).record.pack(*values)

    def _task_values(self, task: Any) -> Optional[List[int]]:
        """One task annotation in packed order, or ``None`` when it does
        not fit the layout."""
        if type(task) is not dict or task.keys() != _TASK_KEY_SET:
            return None
        values = [
            task["task_struct_gva"], task["pid"], task["uid"], task["euid"],
            task["flags"], task["parent_gva"],
        ]
        comm = task["comm"]
        exe = task["exe"]
        if not all(map(_is_u64, values)) or type(comm) is not str or type(exe) is not str:
            return None
        return values + [self._intern(comm), self._intern(exe)]

    # ------------------------------------------------------------------
    def write_record(self, record: Any) -> None:
        """Append one raw body record (event, marker or any JSON value;
        what fits no fixed layout takes the JSON escape, verbatim)."""
        packed = None
        if isinstance(record, dict) and record.get("kind") == KIND_EVENT:
            packed = self._pack_fixed(record)
        self._offsets.append(self._pos)
        if packed is None:
            encoded = _encode(record).encode("utf-8")
            packed = bytes((_TAG_ESCAPE,)) + _LEN32.pack(len(encoded)) + encoded
            self.escapes += 1
        self._write(packed)
        self.records_written += 1

    def close(self) -> None:
        """Write the tables, the tail, the index and the trailer."""
        strings_off = self._pos
        chunks = [_LEN32.pack(len(self._strings))]
        for text in self._strings:
            raw = text.encode("utf-8")
            chunks.append(_LEN32.pack(len(raw)) + raw)
        self._write(b"".join(chunks))
        blobs_off = self._pos
        chunks = [_LEN32.pack(len(self._blobs))]
        for blob in self._blobs:
            chunks.append(_LEN32.pack(len(blob)) + blob)
        self._write(b"".join(chunks))
        tail_off = self._pos
        tail = _encode(
            {
                "event_counts": self.header.event_counts,
                "end_ns": self.header.end_ns,
                "footer": None,
            }
        ).encode("utf-8")
        self._write(_LEN32.pack(len(tail)) + tail)
        index_off = self._pos
        self._write(b"".join(_U64.pack(off) for off in self._offsets))
        self._write(
            _TRAILER.pack(
                self.records_written,
                strings_off,
                blobs_off,
                tail_off,
                index_off,
                TRAILER_MAGIC,
            )
        )
        self.flush()
        self._fh.close()


# ======================================================================
# Precompiled per-tag decoders (eager decode)
# ======================================================================
class _Layout(NamedTuple):
    """One fixed-layout tag, precompiled: where each part of its records
    sits, in bytes from the tag byte.

    Only the common prefix is always unpacked.  The payload, hw, task
    and parent blocks are read as bytes, which key the reader's decode
    caches; a block is unpacked only the first time the reader sees it.
    """

    value: str
    cls: Type[GuestEvent]
    record: struct.Struct  # the whole record after the tag (the writer's)
    payload: struct.Struct  # after the common prefix, at ``_PAYLOAD_AT``
    size: int  # whole record, tag byte included
    kinds: Tuple[str, ...]  # the ``CODEC`` field kinds, in layout order
    hw: Optional[int]
    task: Optional[int]
    parent: Optional[int]


#: The common prefix ``t:u64 vcpu:u16 vm:ref32`` after the tag byte,
#: and where the payload starts.
_PREFIX = struct.Struct("<QHI")
_PAYLOAD_AT = 1 + _PREFIX.size

#: tag -> layout, filled by :func:`_layout` on a tag's first use (a
#: trace uses a handful of the 56 tags); one list index per record.
_LAYOUTS: List[Optional[_Layout]] = [None] * 256

_TYPE_OF_CODE: Dict[int, str] = {code: value for value, code in TYPE_CODES.items()}


def _layout(tag: int) -> Optional[_Layout]:
    """The precompiled layout of ``tag``; ``None`` if no type uses it."""
    layout = _LAYOUTS[tag]
    value = _TYPE_OF_CODE.get(tag >> 3)
    if layout is not None or value is None:
        return layout
    cls = EVENT_CLASSES[value]
    parts = _PREFIX.format + BTRACE_LAYOUTS[value][1:]
    offsets: List[Optional[int]] = []  # of the hw, task and parent blocks
    for bit, block in ((4, _HW), (2, _TASK), (1, _TASK)):
        if tag & bit:
            offsets.append(1 + struct.calcsize(parts))
            parts += block.format[1:]
        else:
            offsets.append(None)
    record = struct.Struct(parts)
    layout = _LAYOUTS[tag] = _Layout(
        value, cls, record, struct.Struct(BTRACE_LAYOUTS[value]), 1 + record.size,
        tuple(kind for _, _, kind in cls.CODEC),
        *offsets,
    )
    return layout


#: What a reference that does not resolve raises while a record is
#: decoded: an index past a table, a non-JSON or non-object string, a
#: ragged blob, or the payload decoder's own check (an unknown exit
#: reason, an unknown ``$enum`` tag).
_BAD_REFERENCE = (IndexError, ValueError, struct.error, TraceFormatError)


# ======================================================================
# Reader
# ======================================================================
class BinaryTraceReader(TraceFramer):
    """mmap-backed btrace reader: drop-in peer of :class:`TraceReader`.

    Iterating yields the body items replay feeds, decoded eagerly (see
    :meth:`__iter__`); ``Trace.records`` rebuilds from them exactly the
    dicts :class:`TraceReader` parses from the JSONL form of the trace.

    A file without a valid trailer (truncated mid-write) raises
    :class:`TraceFormatError` at open — the interning tables live at
    the end, so nothing before them is decodable; JSONL remains the
    salvageable interchange format.  Corruption *inside* the record
    region surfaces on iteration with ``records_read`` context, exactly
    like a broken gzip stream does on the JSONL path.
    """

    def __init__(self, path: Optional[str] = None, data: Optional[bytes] = None) -> None:
        """Map the file at ``path``, or read the image ``data`` (which
        ``path``, when also given, then only names in messages)."""
        if path is None and data is None:
            raise TraceFormatError("pass a path or data")
        self.path = str(path) if path is not None else "<memory>"
        self._mm: Optional[mmap.mmap] = None
        self._file = None
        if data is None:
            self._file = open(path, "rb")
            try:
                self._mm = mmap.mmap(
                    self._file.fileno(), 0, access=mmap.ACCESS_READ
                )
                buf: Any = self._mm
            except (ValueError, OSError):  # empty file: mmap refuses len 0
                buf = self._file.read()
        else:
            buf = data
        self._buf = buf
        self.records_read = 0
        # Decode caches, keyed by packed bytes (see _decode_at); a
        # payload maps to the checked fields of its first event.
        self._payloads: Dict[str, Dict[bytes, Dict[str, Any]]] = {
            value: {} for value in TYPE_CODES
        }
        self._snapshots: Dict[bytes, GuestStateSnapshot] = {}
        self._tasks: Dict[bytes, DerivedTaskInfo] = {}
        try:
            self._parse_container()
        except TraceFormatError:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _parse_container(self) -> None:
        buf = self._buf
        if len(buf) < len(MAGIC) + 4 + _TRAILER.size:
            raise TraceFormatError(
                f"{self.path}: not a btrace file (too short)"
            )
        if bytes(buf[: len(MAGIC)]) != MAGIC:
            raise TraceFormatError(f"{self.path}: bad btrace magic")
        (head_len,) = _LEN32.unpack_from(buf, len(MAGIC))
        head_start = len(MAGIC) + 4
        if head_start + head_len > len(buf):
            raise TraceFormatError(f"{self.path}: truncated btrace header")
        try:
            header_record = json.loads(
                bytes(buf[head_start : head_start + head_len]).decode("utf-8")
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError(
                f"{self.path}: bad btrace header: {exc}"
            ) from exc
        if not isinstance(header_record, dict):
            raise TraceFormatError(f"{self.path}: header record is not an object")
        self.header = TraceHeader.from_record(header_record)
        self._body_start = head_start + head_len

        trailer = bytes(buf[len(buf) - _TRAILER.size :])
        (count, strings_off, blobs_off, tail_off, index_off, magic) = (
            _TRAILER.unpack(trailer)
        )
        if magic != TRAILER_MAGIC:
            raise TraceFormatError(
                f"{self.path}: missing btrace trailer "
                "(truncated or corrupt stream)"
            )
        if not (
            self._body_start <= strings_off <= blobs_off <= tail_off
            <= index_off <= len(buf) - _TRAILER.size
        ):
            raise TraceFormatError(f"{self.path}: corrupt btrace trailer")
        self.record_count = count
        self._body_end = strings_off
        try:
            self._strings = [
                raw.decode("utf-8")
                for raw in self._read_table(strings_off, blobs_off, "string")
            ]
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt btrace string table: {exc}"
            ) from exc
        self._blobs = self._read_table(blobs_off, tail_off, "blob")
        self._index_off = index_off
        self._index: Optional[List[int]] = None
        if index_off + 8 * count > len(buf) - _TRAILER.size:
            raise TraceFormatError(f"{self.path}: truncated btrace index")
        # The tail only repeats header fields: its framing is checked,
        # its content is not used (see the module docstring).
        try:
            tail_len = _LEN32.unpack_from(buf, tail_off)[0]
            json.loads(
                bytes(buf[tail_off + 4 : tail_off + 4 + tail_len]).decode("utf-8")
            )
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt btrace tail section: {exc}"
            ) from exc

    def _read_table(self, start: int, end: int, what: str) -> List[bytes]:
        """The length-prefixed entries of one interning table."""
        buf = self._buf
        try:
            (count,) = _LEN32.unpack_from(buf, start)
            out: List[bytes] = []
            pos = start + 4
            for _ in range(count):
                (n,) = _LEN32.unpack_from(buf, pos)
                pos += 4
                if pos + n > end:
                    raise TraceFormatError(
                        f"{self.path}: {what} table overruns its section"
                    )
                out.append(bytes(buf[pos : pos + n]))
                pos += n
            return out
        except struct.error as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt btrace {what} table: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    @property
    def index(self) -> List[int]:
        """Per-record file offsets (built lazily from the mmap index)."""
        if self._index is None:
            buf = self._buf
            off = self._index_off
            self._index = [
                v[0]
                for v in _U64.iter_unpack(
                    bytes(buf[off : off + 8 * self.record_count])
                )
            ]
        return self._index

    def _corrupt(self, what: str) -> TraceFormatError:
        return TraceFormatError(
            f"{self.path}: corrupt btrace stream after record "
            f"{self.records_read}: {what}",
            records_read=self.records_read,
        )

    def _bad_reference(self, layout: _Layout, pos: int, exc: Exception) -> TraceFormatError:
        records_read = bisect_left(self.index, pos)
        return TraceFormatError(
            f"{self.path}: corrupt btrace stream after record "
            f"{records_read}: bad {layout.value} record: {exc}",
            records_read=records_read,
        )

    def _escape_at(self, pos: int) -> Tuple[Any, int]:
        """The JSON escape record at ``pos`` and the offset after it."""
        buf = self._buf
        if pos + 5 > self._body_end:
            raise self._corrupt("truncated escape record")
        (n,) = _LEN32.unpack_from(buf, pos + 1)
        if pos + 5 + n > self._body_end:
            raise self._corrupt("escape record overruns the body")
        try:
            record = json.loads(bytes(buf[pos + 5 : pos + 5 + n]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self._corrupt(f"bad escape payload: {exc}")
        return record, pos + 5 + n

    # ------------------------------------------------------------------
    def _resolve(self, kinds: Tuple[str, ...], packed: tuple) -> tuple:
        """The record values of one packed payload: string, blob and
        JSON references resolved (a JSON reference must hold an object:
        the writer interns nothing else).  Raises one of
        :data:`_BAD_REFERENCE` when a reference does not resolve."""
        strings = self._strings
        values = []
        for kind, value in zip(kinds, packed):
            if kind == "json":
                value = json.loads(strings[value])
                if type(value) is not dict:
                    raise ValueError("JSON reference is not an object")
            elif kind == "ints":
                value = [v for (v,) in _U64.iter_unpack(self._blobs[value])]
            elif kind != "int":  # str, reason
                value = strings[value]
            values.append(value)
        return tuple(values)

    def _task_info(self, block: bytes) -> DerivedTaskInfo:
        """The task info of one packed task block, built on its first
        sighting; equal blocks share one (frozen) object."""
        gva, pid, uid, euid, flags, parent_gva, comm, exe = _TASK.unpack(block)
        info = self._tasks[block] = task_of((
            gva, pid, uid, euid,
            self._strings[comm], self._strings[exe], flags, parent_gva,
        ))
        return info

    def _decode_at(self, layout: _Layout, pos: int):
        """Decode the fixed-layout record at ``pos`` into ``(t_ns, event,
        task, parent)``, or the :class:`TraceFormatError` that replay
        counts when one of its references does not resolve.

        The payload, hw and task blocks are read as bytes that key the
        reader's caches.  Each distinct payload is checked once: its
        first record goes through :meth:`GuestEvent.from_record`, and a
        private copy of the checked fields it produced is kept.  A repeat
        is built from that copy by ``from_checked``, with fresh ``json``
        dicts, so no two events share a container.  Equal hw snapshots
        and task blocks share one frozen object.
        """
        buf = self._buf
        t_ns, vcpu, vm = _PREFIX.unpack_from(buf, pos + 1)
        try:
            snap = None
            if layout.hw is not None:
                at = pos + layout.hw
                block = buf[at : at + _HW.size]
                snap = self._snapshots.get(block)
                if snap is None:
                    snap = self._snapshots[block] = snapshot_of(_HW.unpack(block))
            vm_id = self._strings[vm]
            payloads = self._payloads[layout.value]
            at = pos + _PAYLOAD_AT
            key = buf[at : at + layout.payload.size]
            checked = payloads.get(key)
            if checked is None:
                resolved = self._resolve(layout.kinds, layout.payload.unpack(key))
                event = GuestEvent.from_record(dict(
                    zip(layout.cls.RECORD_KEYS, resolved),
                    type=layout.value, t=t_ns, vcpu=vcpu, vm=vm_id,
                ))
                event.hw_state = snap
                # A copy, so a consumer that edits this event's dicts
                # does not reach the repeats.
                payloads[key] = layout.cls.from_checked(
                    t_ns, vcpu, vm_id, snap, event.__dict__
                ).__dict__
            else:
                event = layout.cls.from_checked(t_ns, vcpu, vm_id, snap, checked)
            task = parent = None
            if layout.task is not None:
                at = pos + layout.task
                block = buf[at : at + _TASK.size]
                task = self._tasks.get(block) or self._task_info(block)
            if layout.parent is not None:
                at = pos + layout.parent
                block = buf[at : at + _TASK.size]
                parent = self._tasks.get(block) or self._task_info(block)
            return t_ns, event, task, parent
        except _BAD_REFERENCE as exc:
            return self._bad_reference(layout, pos, exc)

    def __iter__(self) -> Iterator[Any]:
        """The body items, decoded eagerly: what :class:`ReplaySource`
        feeds.

        A fixed-layout record becomes ``(t_ns, event, task, parent)``
        (see :meth:`_decode_at`).  A JSON escape yields its payload
        verbatim (any JSON value, for replay to judge).  A record whose
        references do not resolve yields a :class:`TraceFormatError`
        carrying its position, which replay counts as a ``decode``
        rejection.  Framing damage (unknown tag, overrun, early end, bad
        escape) raises with ``records_read`` context.
        """
        buf = self._buf
        end = self._body_end
        pos = self._body_start
        remaining = self.record_count
        decode = self._decode_at
        while remaining > 0 and pos < end:
            tag = buf[pos]
            if tag == _TAG_ESCAPE:
                record, pos = self._escape_at(pos)
                self.records_read += 1
                remaining -= 1
                yield record
                continue
            layout = _LAYOUTS[tag] or _layout(tag)
            if layout is None:
                raise self._corrupt(f"unknown record tag {tag:#04x}")
            if pos + layout.size > end:
                raise self._corrupt("record overruns the body")
            at = pos
            pos += layout.size
            self.records_read += 1
            remaining -= 1
            yield decode(layout, at)
        if remaining > 0:
            raise self._corrupt("record region ended early")

    def close(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._file is not None:
            self._file.close()
            self._file = None


# ======================================================================
# Whole-trace / conversion / sniffing helpers
# ======================================================================
def is_btrace_bytes(data: bytes) -> bool:
    return data[: len(MAGIC)] == MAGIC


def save_btrace(path: str, trace: Trace) -> BinaryTraceWriter:
    """Write a complete in-memory trace as btrace, the peer of
    :func:`~repro.replay.trace_io.save_trace` (same header, same
    records); returns the closed writer.  A body item with no record
    raises before the file is opened."""
    records = trace.records
    trace.recount()
    writer = BinaryTraceWriter(path, trace.header)
    for record in records:
        writer.write_record(record)
    writer.close()
    return writer


def open_trace(
    path: str, data: Optional[bytes] = None
) -> Union[BinaryTraceReader, TraceReader]:
    """A reader of the trace at ``path`` (``-``: stdin), or of ``data``
    that ``path`` then only names, whatever its container format.

    The one container sniff: btrace by its magic, else JSONL, gzipped
    or not (see :func:`~repro.replay.trace_io.text_stream`).  The bytes
    decide, never the name, and the input is read once.
    """
    name = STDIN_NAME if path == "-" else path
    if data is None:
        data = read_input(path)
    if is_btrace_bytes(data):
        return BinaryTraceReader(name, data=data)
    return TraceReader(name, data=data)


def load_any_trace(
    path: str,
    data: Optional[bytes] = None,
    on_cut: Optional[Callable[[Trace], None]] = None,
) -> Trace:
    """The one whole-trace loader, whatever the container format (see
    :func:`open_trace`; ``data``, when given, is the trace's bytes).

    Every consumer — ``replay``/``fuzz`` CLIs, the fuzz and campaign
    loops, ``repro.serve`` stream sources, ``repro.obs`` — loads
    through here.  The trace's body holds every item its reader framed,
    judged by none: replay alone rejects records, so each entry point
    counts the same bytes the same way.  A stream cut mid-body raises,
    unless ``on_cut`` salvages the prefix (see
    :meth:`~repro.replay.trace_io.TraceFramer.read_trace`).
    """
    return open_trace(path, data).read_trace(on_cut)


def convert_trace(src: str, dst: str, to: Optional[str] = None) -> Dict[str, Any]:
    """Lossless conversion between JSONL and btrace, either direction:
    a load, then a save with :func:`save_btrace` or
    :func:`~repro.replay.trace_io.save_trace`.

    ``to`` forces the output format (``"btrace"`` / ``"jsonl"``);
    ``None`` infers it: the opposite of the (sniffed) source format.
    The whole source is read first, so an item with no record raises,
    at its position, before ``dst`` is opened.  Canonically written
    traces round-trip byte for byte.  Returns a small summary dict for
    the CLI.
    """
    if to not in (None, "jsonl", "btrace"):
        raise TraceFormatError(f"unknown conversion target {to!r}")
    reader = open_trace(src)
    to_btrace = isinstance(reader, TraceReader)
    if to == ("jsonl" if to_btrace else "btrace"):
        reader.close()
        raise TraceFormatError(
            f"{src}: not a btrace file (nothing to convert)" if to_btrace
            else f"{src}: already a btrace file"
        )
    trace = reader.read_trace()
    if not to_btrace:
        save_trace(dst, trace)
        return {"records": len(trace.records), "escapes": 0, "format": "jsonl", "strings": 0}
    writer = save_btrace(dst, trace)
    return {
        "records": writer.records_written,
        "escapes": writer.escapes,
        "format": "btrace",
        "strings": len(writer._strings),
    }
