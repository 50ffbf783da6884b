"""Derived guest events: what the unified logging channel publishes.

Raw VM Exits are hypervisor-level; the interception algorithms lift
them into OS-meaningful events whose *provenance is still hardware*:
every field below is computed from exit-time register snapshots and
EPT-qualified addresses, never from guest self-reporting.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, ClassVar, Dict, Optional, Sequence, Tuple, Type

from repro.errors import TraceFormatError
from repro.hw.exits import ExitAction, ExitReason, GuestStateSnapshot, MemAccess


class EventType(enum.Enum):
    PROCESS_SWITCH = "process_switch"
    THREAD_SWITCH = "thread_switch"
    SYSCALL = "syscall"
    IO = "io"
    MEM_ACCESS = "mem_access"
    TSS_INTEGRITY = "tss_integrity"
    RAW_EXIT = "raw_exit"

    # Members are singletons, so identity hash is equivalent to the
    # default name hash — but it runs in C.  The replay hot loop keys
    # several dicts per event on this enum (channel fan-out table,
    # stage counters, published-event tallies); Python-level
    # ``Enum.__hash__`` was the single largest per-event tax there.
    __hash__ = object.__hash__


#: Exit reasons each event type's interception requires (what HyperTap
#: must configure the VMCS/EPT to trap).
REQUIRED_EXIT_REASONS: Dict[EventType, frozenset] = {
    EventType.PROCESS_SWITCH: frozenset({ExitReason.CR_ACCESS}),
    EventType.THREAD_SWITCH: frozenset(
        {ExitReason.CR_ACCESS, ExitReason.EPT_VIOLATION}
    ),
    EventType.SYSCALL: frozenset(
        {ExitReason.WRMSR, ExitReason.EPT_VIOLATION, ExitReason.EXCEPTION}
    ),
    EventType.IO: frozenset(
        {
            ExitReason.IO_INSTRUCTION,
            ExitReason.EXTERNAL_INTERRUPT,
            ExitReason.APIC_ACCESS,
        }
    ),
    EventType.MEM_ACCESS: frozenset({ExitReason.EPT_VIOLATION}),
    EventType.TSS_INTEGRITY: frozenset(set(ExitReason)),
    EventType.RAW_EXIT: frozenset(set(ExitReason)),
}


#: Fields of :class:`GuestStateSnapshot`, in serialization order.
_SNAPSHOT_FIELDS = (
    "cr3", "tr_base", "rsp", "rip",
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "cpl",
)

#: Expected ``map(type, values)`` shape for a well-formed snapshot.
_SNAPSHOT_TYPES = [int] * len(_SNAPSHOT_FIELDS)

#: Enums that may appear inside qualification/detail dictionaries.
_QUAL_ENUMS: Dict[str, type] = {
    "ExitReason": ExitReason,
    "ExitAction": ExitAction,
    "MemAccess": MemAccess,
}


def _snapshot_to_record(snap: Optional[GuestStateSnapshot]):
    """Positional list in ``_SNAPSHOT_FIELDS`` order (compact + fast)."""
    if snap is None:
        return None
    return [getattr(snap, name) for name in _SNAPSHOT_FIELDS]


def snapshot_of(values: Sequence[Any]) -> GuestStateSnapshot:
    """The one hw snapshot builder: 11 ints in ``_SNAPSHOT_FIELDS``
    order, or :class:`TraceFormatError`."""
    if len(values) != len(_SNAPSHOT_FIELDS):
        raise TraceFormatError(
            f"hw snapshot needs {len(_SNAPSHOT_FIELDS)} values, "
            f"got {len(values)}"
        )
    # One C-speed scan instead of a Python loop over 11 fields: map the
    # type constructor across the values and compare against the
    # expected all-int shape.  The mismatch path re-finds the culprit.
    if list(map(type, values)) != _SNAPSHOT_TYPES:
        index = next(i for i, v in enumerate(values) if type(v) is not int)
        raise TraceFormatError(
            f"hw.{_SNAPSHOT_FIELDS[index]} must be an integer, "
            f"got {values[index]!r}"
        )
    # Frozen-dataclass __init__ routes every field through
    # object.__setattr__; building the immutable value directly keeps
    # trace decoding off that slow path (this is the replay hot loop).
    # One unpacking store, in ``_SNAPSHOT_FIELDS`` order, is faster
    # than ``__dict__.update(zip(...))``.
    snap = object.__new__(GuestStateSnapshot)
    fields = snap.__dict__
    (
        fields["cr3"], fields["tr_base"], fields["rsp"], fields["rip"],
        fields["rax"], fields["rbx"], fields["rcx"], fields["rdx"],
        fields["rsi"], fields["rdi"], fields["cpl"],
    ) = values
    return snap


def _encode_value(value: Any) -> Any:
    """JSON-safe encoding for qualification/detail values."""
    if isinstance(value, enum.Enum):
        return {"$enum": type(value).__name__, "v": value.value}
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Last resort for exotic harness-injected values: keep *something*
    # human-readable rather than failing the whole record.
    return repr(value)


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$enum", "v"}:
            cls = _QUAL_ENUMS.get(value["$enum"])
            if cls is None:
                raise TraceFormatError(f"unknown enum tag {value['$enum']!r}")
            try:
                return cls(value["v"])
            except ValueError as exc:
                raise TraceFormatError(str(exc)) from exc
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Payload field kinds: a check takes one record value and returns the
# attribute value, or raises TraceFormatError naming the record key.
# ----------------------------------------------------------------------
def _reject(what: str) -> Callable[[Any, str], Any]:
    """The check of a kind whose values are exactly one type: the
    decoder accepts that type without a call, so this sees the rest."""
    def check(value: Any, key: str) -> Any:
        raise TraceFormatError(f"{key} must be {what}, got {value!r}")
    return check


def _ints(value: Any, key: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise TraceFormatError(f"{key} must be a list, got {value!r}")
    for item in value:
        if type(item) is not int:
            raise TraceFormatError(f"{key} must be integers, got {item!r}")
    return tuple(value)


def _json(value: Any, key: str) -> Dict[str, Any]:
    """A fresh dict (no two events share one), ``$enum`` tags decoded."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise TraceFormatError(f"{key} must be a dict, got {value!r}")
    # Scalar values (the common case) need no recursive decoding: one
    # cheap scan, then a C-speed copy.
    for v in value.values():
        if type(v) is dict or type(v) is list:
            return {
                k: _decode_value(v) if isinstance(v, (dict, list)) else v
                for k, v in value.items()
            }
    return dict(value)


def _reason(value: Any, key: str) -> ExitReason:
    try:
        return ExitReason(value)
    except ValueError as exc:
        raise TraceFormatError(f"{key}: {exc}") from exc


def _same(value: Any) -> Any:
    return value


#: Field kind -> (encode: attribute -> record value, the one type
#: accepted as is, or None, check: record value -> attribute).  Ints
#: are ``int`` exactly, never ``bool``, as in snapshots and tasks.
_KINDS: Dict[str, Tuple[Callable[[Any], Any], Any, Callable[[Any, str], Any]]] = {
    "int": (_same, int, _reject("an integer")),
    "str": (_same, str, _reject("a string")),
    "ints": (list, None, _ints),
    "json": (_encode_value, None, _json),
    "reason": (attrgetter("value"), None, _reason),
}


def _compile_decoder(cls: Type["GuestEvent"]) -> Callable[..., "GuestEvent"]:
    """The one payload decoder of ``cls``, built from its ``CODEC``.

    ``decode(time_ns, vcpu_index, vm_id, hw_state, values)`` takes
    checked common fields and the raw payload ``values`` (any iterable,
    read once) in ``CODEC`` order, checks each value by its kind and
    sets the event's fields.
    """
    plan = tuple(
        (attr, key, _KINDS[kind][2], _KINDS[kind][1])
        for key, attr, kind in cls.CODEC
    )
    new = object.__new__

    def decode(time_ns, vcpu_index, vm_id, hw_state, values):
        event = new(cls)
        fields = event.__dict__
        fields["time_ns"] = time_ns
        fields["vcpu_index"] = vcpu_index
        fields["vm_id"] = vm_id
        fields["hw_state"] = hw_state
        for (attr, key, check, fast), value in zip(plan, values):
            fields[attr] = value if type(value) is fast else check(value, key)
        return event

    return decode


def _copy_json(value: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a checked ``json`` value that shares no container with
    it; enum members and scalars are immutable, so shared."""
    for v in value.values():
        if type(v) is dict or type(v) is list:
            return copy.deepcopy(value)
    return dict(value)


def _compile_copier(cls: Type["GuestEvent"]) -> Callable[..., "GuestEvent"]:
    """The repeat constructor of ``cls``, built from its ``CODEC``.

    ``from_checked(time_ns, vcpu_index, vm_id, hw_state, checked)``
    takes checked common fields and ``checked``, the ``__dict__`` of an
    event of ``cls``.  It copies the payload in one update, so the new
    event's ``__dict__`` has the decoder's layout, and gives each
    ``json`` field its own copy, so no two events share a container.
    """
    json_attrs = tuple(attr for _, attr, kind in cls.CODEC if kind == "json")
    new = object.__new__

    def from_checked(time_ns, vcpu_index, vm_id, hw_state, checked):
        event = new(cls)
        fields = event.__dict__
        fields.update(checked)
        fields["time_ns"] = time_ns
        fields["vcpu_index"] = vcpu_index
        fields["vm_id"] = vm_id
        fields["hw_state"] = hw_state
        for attr in json_attrs:
            fields[attr] = _copy_json(checked[attr])
        return event

    return from_checked


@dataclass
class GuestEvent:
    """Base event: timestamp, vCPU, and the hardware state snapshot."""

    time_ns: int
    vcpu_index: int
    vm_id: str
    hw_state: GuestStateSnapshot

    #: Payload fields, ``(record key, attribute, kind)`` in btrace
    #: layout order, which is also the dataclass field order (so a
    #: decoded event's ``__dict__`` is laid out as ``__init__`` lays it
    #: out); the kinds are the keys of ``_KINDS``.  The one codec of
    #: every container is built from this table.
    CODEC: ClassVar[Tuple[Tuple[str, str, str], ...]] = ()

    #: The ``CODEC`` record keys, and the dataclass default of each in
    #: record form; set at import for registered classes.
    RECORD_KEYS: ClassVar[Tuple[str, ...]]
    RECORD_DEFAULTS: ClassVar[Tuple[Any, ...]]

    #: The per-type payload decoder (see ``_compile_decoder``); set at
    #: import for registered classes.  Every container checks payloads
    #: through it (btrace once per distinct payload).
    from_values: ClassVar[Callable[..., "GuestEvent"]]

    #: The per-type repeat constructor (see ``_compile_copier``): an
    #: event with the payload of one ``from_values`` already checked.
    from_checked: ClassVar[Callable[..., "GuestEvent"]]

    #: The event's type: a class attribute, not a dataclass field, so
    #: reading it is one attribute lookup on every delivered event.
    type: ClassVar[EventType]

    # ------------------------------------------------------------------
    # Codec (shared by the trace recorder and ``repro.replay``)
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """The ``CODEC`` fields, JSON-safe, keyed by record key."""
        return {
            key: _KINDS[kind][0](getattr(self, attr))
            for key, attr, kind in self.CODEC
        }

    def to_record(self) -> Dict[str, Any]:
        """Serialize to a JSON-safe dict (see ``repro.replay.format``).

        Keys: ``t`` (time ns), ``vcpu``, ``vm``, ``type`` and ``hw``
        (snapshot or ``None``), plus the subclass payload, flat.
        """
        record: Dict[str, Any] = {
            "t": self.time_ns,
            "vcpu": self.vcpu_index,
            "vm": self.vm_id,
            "type": self.type.value,
            "hw": _snapshot_to_record(self.hw_state),
        }
        record.update(self.payload())
        return record

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "GuestEvent":
        """Decode any event class; raises :class:`TraceFormatError`."""
        if not isinstance(record, dict):
            raise TraceFormatError(f"event record must be a dict, got {record!r}")
        try:
            type_value = record["type"]
            time_ns = record["t"]
            vcpu_index = record["vcpu"]
        except KeyError as exc:
            raise TraceFormatError(f"event record missing {exc}") from exc
        cls = EVENT_CLASSES.get(type_value) if type(type_value) is str else None
        if cls is None:
            raise TraceFormatError(f"unknown event type {type_value!r}")
        if type(time_ns) is not int or time_ns < 0:
            raise TraceFormatError(f"bad timestamp {time_ns!r}")
        if type(vcpu_index) is not int:
            raise TraceFormatError(f"vcpu must be an integer, got {vcpu_index!r}")
        get = record.get
        vm_id = get("vm", "vm0")
        if not isinstance(vm_id, str):
            raise TraceFormatError(f"vm must be a string, got {vm_id!r}")
        hw = get("hw")
        if hw is not None:
            if type(hw) is not list:
                raise TraceFormatError(f"hw snapshot must be a list, got {hw!r}")
            hw = snapshot_of(hw)
        return cls.from_values(
            time_ns, vcpu_index, vm_id, hw,
            map(get, cls.RECORD_KEYS, cls.RECORD_DEFAULTS),
        )


@dataclass
class ProcessSwitchEvent(GuestEvent):
    """CR3 was written: a process (address space) switch (Fig 3A)."""

    new_pdba: int = 0
    old_pdba: int = 0

    type = EventType.PROCESS_SWITCH
    CODEC = (("new_pdba", "new_pdba", "int"), ("old_pdba", "old_pdba", "int"))


@dataclass
class ThreadSwitchEvent(GuestEvent):
    """TSS.RSP0 was written: a thread switch; ``rsp0`` identifies the
    scheduled-in thread (Fig 3B)."""

    rsp0: int = 0

    type = EventType.THREAD_SWITCH
    CODEC = (("rsp0", "rsp0", "int"),)


@dataclass
class SyscallEvent(GuestEvent):
    """A system call entered the kernel (Fig 3D/E)."""

    number: int = 0
    mechanism: str = "sysenter"  # or "int80"
    args: Tuple[int, ...] = ()

    type = EventType.SYSCALL
    CODEC = (
        ("nr", "number", "int"),
        ("mechanism", "mechanism", "str"),
        ("args", "args", "ints"),
    )


@dataclass
class IOEvent(GuestEvent):
    """Programmed IO, MMIO, or an IO interrupt (Section VI-C)."""

    kind: str = "pio"  # "pio" | "interrupt" | "apic"
    detail: Dict[str, Any] = field(default_factory=dict)

    type = EventType.IO
    # "io_kind", not "kind": trace records reserve "kind" for the
    # record-kind envelope (header/event/scan).
    CODEC = (("io_kind", "kind", "str"), ("detail", "detail", "json"))


@dataclass
class MemoryAccessEvent(GuestEvent):
    """Fine-grained interception: an access to a watched page."""

    gva: int = 0
    gpa: int = 0
    access: str = "w"

    type = EventType.MEM_ACCESS
    CODEC = (("gva", "gva", "int"), ("gpa", "gpa", "int"), ("access", "access", "str"))


@dataclass
class TssIntegrityAlert(GuestEvent):
    """The TR register moved: the TSS was relocated (Fig 3C), which no
    legitimate OS does after boot — an attack indicator."""

    saved_tr: int = 0
    current_tr: int = 0

    type = EventType.TSS_INTEGRITY
    CODEC = (("saved_tr", "saved_tr", "int"), ("current_tr", "current_tr", "int"))


@dataclass
class RawExitEvent(GuestEvent):
    """Unprocessed exit, for auditors that want the firehose."""

    reason: ExitReason = ExitReason.HLT
    qualification: Dict[str, Any] = field(default_factory=dict)

    type = EventType.RAW_EXIT
    CODEC = (("reason", "reason", "reason"), ("qual", "qualification", "json"))


#: Serialized ``type`` value -> event class, for :meth:`GuestEvent.from_record`.
EVENT_CLASSES: Dict[str, Type[GuestEvent]] = {
    EventType.PROCESS_SWITCH.value: ProcessSwitchEvent,
    EventType.THREAD_SWITCH.value: ThreadSwitchEvent,
    EventType.SYSCALL.value: SyscallEvent,
    EventType.IO.value: IOEvent,
    EventType.MEM_ACCESS.value: MemoryAccessEvent,
    EventType.TSS_INTEGRITY.value: TssIntegrityAlert,
    EventType.RAW_EXIT.value: RawExitEvent,
}


def _record_default(f: dataclasses.Field) -> Any:
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


for _cls in EVENT_CLASSES.values():
    _defaults = {f.name: _record_default(f) for f in dataclasses.fields(_cls)}
    _cls.RECORD_KEYS = tuple(key for key, _, _ in _cls.CODEC)
    _cls.RECORD_DEFAULTS = tuple(
        _KINDS[kind][0](_defaults[attr]) for _, attr, kind in _cls.CODEC
    )
    _cls.from_values = staticmethod(_compile_decoder(_cls))
    _cls.from_checked = staticmethod(_compile_copier(_cls))
