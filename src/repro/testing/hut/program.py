"""Hut op programs: the recorded-input substrate for hypervisor fuzzing.

A :class:`HutProgram` is a sequence of guest-visible operations — the
exact surface IRIS (arXiv:2303.12817) fuzzes on real KVM: memory
accesses that walk guest paging + EPT, privileged instructions that
trap (WRMSR, CR3 loads, IN/OUT, HLT, INT), interrupt injections, and
the hypervisor-side knobs an adversarial host could turn (EPT
permission narrowing, remapping, VMCS execution controls).  Programs
serialize to JSONL exactly like replay traces, so hut corpus entries
live next to auditor corpus entries under ``tests/corpus/`` and replay
under pytest the same way.

Every op carries the vCPU it runs on.  The generator draws from one
:class:`~repro.sim.rng.RandomStreams` stream per ``(target, seed)``, so
a program is a pure function of its coordinates — the root of hut's
byte-reproducibility guarantee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import TraceFormatError
from repro.hw.memory import PAGE_SIZE
from repro.hw.msr import KNOWN_MSRS
from repro.sim.rng import RandomStreams

#: Fuzz targets: which slice of the emulation each campaign stresses.
TARGETS = ("ept", "msr", "dispatch", "interleave")

#: Guest-virtual arena the programs operate in, identity-mapped into
#: the shared kernel page table at harness setup.  For the interleave
#: target the pages are partitioned per vCPU so any cross-vCPU
#: interleaving of a correct emulator commutes.
ARENA_BASE = 0x0010_0000
ARENA_PAGES = 8
#: Per-vCPU TSS pages (also identity-mapped, write-protected in the
#: EPT like HyperTap's thread-switch interception does).
TSS_REGION_BASE = 0x0020_0000
#: Address spaces pre-created at setup; the ``cr3`` op indexes them.
NUM_SPACES = 3
#: Ports with no attached device: reads float high, writes drop —
#: behaviour the reference model can mirror without emulating devices.
UNCLAIMED_PORTS = (0x0077, 0x0099, 0x0123, 0x0200)
#: Spare host frames the ``ept_remap`` op may alias guest frames onto
#: (all within the arena + a detached scratch range, all inside RAM).
REMAP_FRAMES = tuple(
    (ARENA_BASE // PAGE_SIZE) + i for i in range(ARENA_PAGES)
) + (0x500, 0x501, 0x502)

#: VMCS boolean controls the ``vmcs`` op may toggle.
VMCS_FIELDS = (
    "cr3_load_exiting",
    "msr_write_exiting",
    "io_exiting",
    "external_interrupt_exiting",
    "hlt_exiting",
    "apic_access_exiting",
)

_KNOWN_MSR_LIST = tuple(sorted(KNOWN_MSRS))
#: Indices the generator mixes in to exercise the rejection path.
_UNKNOWN_MSRS = (0x1FF, 0xC0000080)

_VECTORS = (0x80, 0x2E, 0x0D, 0x21)

#: Required arguments per op; ``direction`` and ``field`` are strings,
#: every other argument is an integer.
OP_ARGS: Dict[str, tuple] = {
    "ept_set": ("gpa", "r", "w", "x"),
    "ept_remap": ("gpa", "hfn"),
    "read": ("gva",),
    "exec": ("gva",),
    "write": ("gva", "value"),
    "wrmsr": ("index", "value"),
    "rdmsr": ("index",),
    "cr3": ("space",),
    "io": ("port", "direction", "value"),
    "softint": ("vector",),
    "irq": ("vector",),
    "hlt": (),
    "tss": ("value",),
    "kenter": (),
    "vmcs": ("field", "value"),
    "except_bit": ("vector",),
}
_STRING_ARGS = ("direction", "field")

_VALUES = (
    0,
    1,
    0x7F,
    0xDEAD_BEEF,
    0xFFFF_FFFF,
    0x0123_4567_89AB_CDEF,
    0xFFFF_FFFF_FFFF_FFFF,
)


@dataclass
class HutOp:
    """One guest-visible (or hypervisor-side) operation."""

    op: str
    vcpu: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        return {"kind": "op", "op": self.op, "vcpu": self.vcpu,
                "args": dict(self.args)}

    @classmethod
    def from_record(cls, record: Any) -> "HutOp":
        if not isinstance(record, dict):
            raise TraceFormatError(f"not a hut op record: {record!r}")
        op, args = record.get("op"), record.get("args") or {}
        if (
            record.get("kind") != "op"
            or not isinstance(op, str)
            or op not in OP_ARGS
            or not isinstance(args, dict)
            or any(name not in args for name in OP_ARGS[op])
        ):
            raise TraceFormatError(f"not a hut op record: {record!r}")
        for name, value in args.items():
            if type(value) is not (str if name in _STRING_ARGS else int):
                raise TraceFormatError(
                    f"hut op argument {name!r} has the wrong type: {value!r}"
                )
        return cls(op=op, vcpu=_int_field(record, "vcpu", 0), args=dict(args))


def _int_field(record: Dict[str, Any], name: str, default: int) -> int:
    value = record.get(name, default)
    if type(value) is not int:
        raise TraceFormatError(f"hut field {name!r} is not an integer: {value!r}")
    return value


@dataclass
class HutProgram:
    """An op sequence plus the coordinates that generated it."""

    target: str
    seed: int
    num_vcpus: int
    ops: List[HutOp] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def replace_ops(self, ops: List[HutOp]) -> "HutProgram":
        return HutProgram(
            target=self.target,
            seed=self.seed,
            num_vcpus=self.num_vcpus,
            ops=list(ops),
            meta=dict(self.meta),
        )

    def header_record(self) -> Dict[str, Any]:
        record = {
            "kind": "header",
            "hut": {
                "version": 1,
                "target": self.target,
                "seed": self.seed,
                "num_vcpus": self.num_vcpus,
                "ops": len(self.ops),
            },
        }
        record.update(self.meta)
        return record


def save_program(path: str, program: HutProgram) -> None:
    """Write a program as JSONL: header line, then one line per op."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode(program.header_record()) + "\n")
        for op in program.ops:
            fh.write(encode(op.to_record()) + "\n")


def load_program(path: str) -> HutProgram:
    """Inverse of :func:`save_program`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in (l.strip() for l in fh) if line]
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not a text file: {exc}")
    if not lines:
        raise TraceFormatError(f"{path}: empty hut program file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: bad header line: {exc}")
    hut = header.get("hut") if isinstance(header, dict) else None
    if not isinstance(hut, dict) or header.get("kind") != "header":
        raise TraceFormatError(f"{path}: not a hut program header")
    meta = {
        key: value
        for key, value in header.items()
        if key not in ("kind", "hut")
    }
    target = hut.get("target", "dispatch")
    if target not in TARGETS:
        raise TraceFormatError(f"{path}: unknown hut target {target!r}")
    seed = _int_field(hut, "seed", 0)
    num_vcpus = _int_field(hut, "num_vcpus", 1)
    if num_vcpus < 1:
        raise TraceFormatError(f"{path}: num_vcpus {num_vcpus} < 1")
    ops = []
    for line in lines[1:]:
        try:
            op = HutOp.from_record(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: bad op line: {exc}")
        if not 0 <= op.vcpu < num_vcpus:
            raise TraceFormatError(f"{path}: op on absent vCPU {op.vcpu}")
        ops.append(op)
    return HutProgram(
        target=target,
        seed=seed,
        num_vcpus=num_vcpus,
        ops=ops,
        meta=meta,
    )


# ======================================================================
# Generation
# ======================================================================
def arena_pages_for(vcpu: int, num_vcpus: int) -> List[int]:
    """The arena page indices vCPU ``vcpu`` may touch (partitioned)."""
    return [i for i in range(ARENA_PAGES) if i % num_vcpus == vcpu]


def _arena_gva(rng, pages: List[int]) -> int:
    page = pages[rng.randrange(len(pages))]
    offset = 8 * rng.randrange((PAGE_SIZE - 8) // 8)
    return ARENA_BASE + page * PAGE_SIZE + offset


def tss_gva(vcpu: int) -> int:
    return TSS_REGION_BASE + vcpu * PAGE_SIZE


def _draw_op(rng, menu, vcpu: int, pages: List[int]) -> HutOp:
    kind = menu[rng.randrange(len(menu))]
    if kind == "ept_set":
        return HutOp("ept_set", vcpu, {
            "gpa": ARENA_BASE + pages[rng.randrange(len(pages))] * PAGE_SIZE,
            "r": rng.randrange(2), "w": rng.randrange(2),
            "x": rng.randrange(2),
        })
    if kind == "ept_remap":
        return HutOp("ept_remap", vcpu, {
            "gpa": ARENA_BASE + pages[rng.randrange(len(pages))] * PAGE_SIZE,
            "hfn": REMAP_FRAMES[rng.randrange(len(REMAP_FRAMES))],
        })
    if kind in ("read", "exec"):
        return HutOp(kind, vcpu, {"gva": _arena_gva(rng, pages)})
    if kind == "write":
        return HutOp("write", vcpu, {
            "gva": _arena_gva(rng, pages),
            "value": _VALUES[rng.randrange(len(_VALUES))],
        })
    if kind == "wrmsr":
        pool = _KNOWN_MSR_LIST + (_UNKNOWN_MSRS if rng.random() < 0.2 else ())
        return HutOp("wrmsr", vcpu, {
            "index": pool[rng.randrange(len(pool))],
            "value": _VALUES[rng.randrange(len(_VALUES))],
        })
    if kind == "rdmsr":
        return HutOp("rdmsr", vcpu, {
            "index": _KNOWN_MSR_LIST[rng.randrange(len(_KNOWN_MSR_LIST))],
        })
    if kind == "cr3":
        return HutOp("cr3", vcpu, {"space": rng.randrange(NUM_SPACES)})
    if kind == "io":
        return HutOp("io", vcpu, {
            "port": UNCLAIMED_PORTS[rng.randrange(len(UNCLAIMED_PORTS))],
            "direction": ("in", "out")[rng.randrange(2)],
            "value": _VALUES[rng.randrange(len(_VALUES))] & 0xFFFF_FFFF,
        })
    if kind == "softint":
        return HutOp("softint", vcpu, {
            "vector": _VECTORS[rng.randrange(len(_VECTORS))],
        })
    if kind == "irq":
        return HutOp("irq", vcpu, {
            "vector": _VECTORS[rng.randrange(len(_VECTORS))],
        })
    if kind == "hlt":
        return HutOp("hlt", vcpu)
    if kind == "tss":
        return HutOp("tss", vcpu, {
            "value": _VALUES[rng.randrange(len(_VALUES))],
        })
    if kind == "kenter":
        return HutOp("kenter", vcpu)
    if kind == "vmcs":
        return HutOp("vmcs", vcpu, {
            "field": VMCS_FIELDS[rng.randrange(len(VMCS_FIELDS))],
            "value": rng.randrange(2),
        })
    if kind == "except_bit":
        return HutOp("except_bit", vcpu, {
            "vector": _VECTORS[rng.randrange(len(_VECTORS))],
            "present": rng.randrange(2),
        })
    raise TraceFormatError(f"unknown op kind {kind!r}")  # pragma: no cover


#: Per-target op menus: which slice of the trap-and-emulate surface a
#: campaign concentrates on (every menu keeps a few cross-cutting ops
#: so targets overlap rather than tile).
_TARGET_MENUS: Dict[str, tuple] = {
    "ept": ("ept_set", "ept_remap", "read", "write", "exec", "tss",
            "kenter"),
    "msr": ("wrmsr", "rdmsr", "vmcs", "write", "read"),
    "dispatch": ("io", "softint", "irq", "hlt", "cr3", "vmcs",
                 "except_bit", "wrmsr", "write", "tss", "kenter"),
    "interleave": ("ept_set", "read", "write", "exec", "wrmsr", "rdmsr",
                   "tss", "kenter", "hlt", "irq"),
}

#: vCPU counts per target; only interleave needs more than one.
TARGET_VCPUS: Dict[str, int] = {
    "ept": 1,
    "msr": 1,
    "dispatch": 2,
    "interleave": 2,
}


def generate_program(
    target: str, seed: int, length: int = 48,
    num_vcpus: Optional[int] = None,
) -> HutProgram:
    """Seeded program for ``target``; pure in ``(target, seed, length)``."""
    if target not in TARGETS:
        raise ValueError(f"unknown hut target {target!r}")
    vcpus = num_vcpus if num_vcpus is not None else TARGET_VCPUS[target]
    rng = RandomStreams(seed).stream(f"hut-gen-{target}")
    menu = _TARGET_MENUS[target]
    ops: List[HutOp] = []
    for i in range(length):
        vcpu = i % vcpus
        pages = arena_pages_for(vcpu, vcpus)
        ops.append(_draw_op(rng, menu, vcpu, pages))
    return HutProgram(target=target, seed=seed, num_vcpus=vcpus, ops=ops)
