"""Hut program mutators: seeded edits over the guest-visible input.

Each mutator is a named pure function ``(ops, rng, program) -> ops`` —
the registry keys double as the classes the mutation-kill audit
enumerates (``tests/test_hut_fuzzer.py``): for every mutator class
there must exist a seeded bug + budget under which ``fuzz`` finds a
divergence, or the class is dead weight.

Soundness constraint for the ``interleave`` target: mutations must
preserve the per-vCPU partitioning of the arena (a mutation that makes
two vCPUs write one page would make correct emulators *legitimately*
order-dependent, turning the schedule differential into a false-alarm
generator).  Mutators that move an op across vCPUs or re-aim an address
therefore re-base page-addressed arguments into the owning vCPU's
partition when the program is an interleave program.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.hw.memory import PAGE_SIZE
from repro.testing.hut.program import (
    ARENA_BASE,
    ARENA_PAGES,
    NUM_SPACES,
    REMAP_FRAMES,
    UNCLAIMED_PORTS,
    VMCS_FIELDS,
    HutOp,
    HutProgram,
    _TARGET_MENUS,
    _draw_op,
    arena_pages_for,
)

#: Outside every mapped region: GVAs here fault in guest paging, the
#: rejection path both sides of the differential must agree on.
_UNMAPPED_BASE = 0x0030_0000

_INTERESTING_VALUES = (
    0,
    1,
    0x80,
    0x7FFF_FFFF,
    0x8000_0000,
    0xFFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0x5555_5555_5555_5555,
)


def _copy(op: HutOp) -> HutOp:
    return HutOp(op=op.op, vcpu=op.vcpu, args=dict(op.args))


def _partitioned(program: HutProgram) -> bool:
    return program.target == "interleave" and program.num_vcpus > 1


def _pages_for(program: HutProgram, vcpu: int) -> List[int]:
    if _partitioned(program):
        return arena_pages_for(vcpu % program.num_vcpus, program.num_vcpus)
    return list(range(ARENA_PAGES))


def _rebase_addr(
    addr: int, pages: List[int]
) -> int:
    """Re-aim an arena address at one of ``pages``, keeping its offset."""
    page_index = (addr - ARENA_BASE) // PAGE_SIZE
    page = pages[page_index % len(pages)]
    return ARENA_BASE + page * PAGE_SIZE + (addr % PAGE_SIZE)


def _rebase_op(op: HutOp, program: HutProgram) -> HutOp:
    """Pull an op's page-addressed args into its vCPU's partition."""
    if not _partitioned(program):
        return op
    pages = _pages_for(program, op.vcpu)
    for key in ("gva", "gpa"):
        addr = op.args.get(key)
        if isinstance(addr, int) and (
            ARENA_BASE <= addr < ARENA_BASE + ARENA_PAGES * PAGE_SIZE
        ):
            op.args[key] = _rebase_addr(addr, pages)
    return op


# ======================================================================
# Mutator classes
# ======================================================================
def _mutate_dup(ops, rng, program):
    if not ops:
        return None
    i = rng.randrange(len(ops))
    return ops[: i + 1] + [_copy(ops[i])] + ops[i + 1:]


def _mutate_del(ops, rng, program):
    if len(ops) < 2:
        return None
    i = rng.randrange(len(ops))
    return ops[:i] + ops[i + 1:]


def _mutate_swap(ops, rng, program):
    if len(ops) < 2:
        return None
    i = rng.randrange(len(ops) - 1)
    j = i + 1 + rng.randrange(len(ops) - i - 1)
    out = list(ops)
    out[i], out[j] = out[j], out[i]
    return out


def _mutate_retarget_vcpu(ops, rng, program):
    if program.num_vcpus < 2 or not ops:
        return None
    i = rng.randrange(len(ops))
    op = _copy(ops[i])
    op.vcpu = (op.vcpu + 1 + rng.randrange(program.num_vcpus - 1)) % (
        program.num_vcpus
    )
    out = list(ops)
    out[i] = _rebase_op(op, program)
    return out


def _mutate_value(ops, rng, program):
    """Bit-flip or interesting-replace a numeric payload argument."""
    candidates = [
        i for i, op in enumerate(ops)
        if any(k in op.args for k in ("value", "index", "hfn"))
    ]
    if not candidates:
        return None
    i = candidates[rng.randrange(len(candidates))]
    op = _copy(ops[i])
    keys = [k for k in ("value", "index", "hfn") if k in op.args]
    key = keys[rng.randrange(len(keys))]
    if rng.randrange(2):
        op.args[key] = int(op.args[key]) ^ (1 << rng.randrange(64))
    else:
        op.args[key] = _INTERESTING_VALUES[
            rng.randrange(len(_INTERESTING_VALUES))
        ]
    out = list(ops)
    out[i] = op
    return out


def _mutate_perm(ops, rng, program):
    """Flip one permission bit on an ``ept_set``, or inject one."""
    candidates = [i for i, op in enumerate(ops) if op.op == "ept_set"]
    out = list(ops)
    if candidates:
        i = candidates[rng.randrange(len(candidates))]
        op = _copy(ops[i])
        bit = ("r", "w", "x")[rng.randrange(3)]
        op.args[bit] = 0 if op.args.get(bit) else 1
        out[i] = op
        return out
    vcpu = rng.randrange(program.num_vcpus)
    pages = _pages_for(program, vcpu)
    fresh = HutOp("ept_set", vcpu, {
        "gpa": ARENA_BASE + pages[rng.randrange(len(pages))] * PAGE_SIZE,
        "r": rng.randrange(2), "w": rng.randrange(2), "x": rng.randrange(2),
    })
    i = rng.randrange(len(ops) + 1)
    return out[:i] + [fresh] + out[i:]


def _mutate_control(ops, rng, program):
    """Toggle a VMCS control somewhere in the program."""
    vcpu = rng.randrange(program.num_vcpus)
    fresh = HutOp("vmcs", vcpu, {
        "field": VMCS_FIELDS[rng.randrange(len(VMCS_FIELDS))],
        "value": rng.randrange(2),
    })
    i = rng.randrange(len(ops) + 1)
    return ops[:i] + [fresh] + ops[i:]


def _mutate_insert(ops, rng, program):
    """Insert a fresh op drawn from the program's own target menu."""
    menu = _TARGET_MENUS[program.target]
    vcpu = rng.randrange(program.num_vcpus)
    fresh = _draw_op(rng, menu, vcpu, _pages_for(program, vcpu))
    i = rng.randrange(len(ops) + 1)
    return ops[:i] + [fresh] + ops[i:]


def _mutate_gva(ops, rng, program):
    """Re-aim a memory op: another partition page, a page-crossing
    offset, or (non-interleave) an unmapped GVA for the fault path."""
    candidates = [i for i, op in enumerate(ops) if "gva" in op.args]
    if not candidates:
        return None
    i = candidates[rng.randrange(len(candidates))]
    op = _copy(ops[i])
    pages = _pages_for(program, op.vcpu)
    choice = rng.randrange(3)
    if choice == 0 and not _partitioned(program):
        op.args["gva"] = _UNMAPPED_BASE + 8 * rng.randrange(512)
    elif choice == 1:
        # Misaligned tail slot: a u64 here spans the frame boundary,
        # exercising the chunked (partial-effect) physical path.
        page = pages[rng.randrange(len(pages))]
        op.args["gva"] = ARENA_BASE + page * PAGE_SIZE + (PAGE_SIZE - 4)
    else:
        page = pages[rng.randrange(len(pages))]
        op.args["gva"] = (
            ARENA_BASE + page * PAGE_SIZE + 8 * rng.randrange(PAGE_SIZE // 8)
        )
    out = list(ops)
    out[i] = op
    return out


def _mutate_remap(ops, rng, program):
    """Insert an ``ept_remap`` aliasing a partition page onto the
    remap frame pool (including other swept pages — aliasing is the
    interesting case for the memory digest)."""
    vcpu = rng.randrange(program.num_vcpus)
    pages = _pages_for(program, vcpu)
    fresh = HutOp("ept_remap", vcpu, {
        "gpa": ARENA_BASE + pages[rng.randrange(len(pages))] * PAGE_SIZE,
        "hfn": REMAP_FRAMES[rng.randrange(len(REMAP_FRAMES))],
    })
    i = rng.randrange(len(ops) + 1)
    return ops[:i] + [fresh] + ops[i:]


def _mutate_port(ops, rng, program):
    candidates = [i for i, op in enumerate(ops) if op.op == "io"]
    if not candidates:
        return None
    i = candidates[rng.randrange(len(candidates))]
    op = _copy(ops[i])
    if rng.randrange(4) == 0:
        op.args["direction"] = "sideways"  # rejection-path coverage
    else:
        op.args["port"] = UNCLAIMED_PORTS[
            rng.randrange(len(UNCLAIMED_PORTS))
        ]
    out = list(ops)
    out[i] = op
    return out


def _mutate_space(ops, rng, program):
    """Insert a ``cr3`` switch (all spaces translate identically, so
    this must be digest-neutral except for ``cr3_space`` itself)."""
    vcpu = rng.randrange(program.num_vcpus)
    fresh = HutOp("cr3", vcpu, {"space": rng.randrange(NUM_SPACES)})
    i = rng.randrange(len(ops) + 1)
    return ops[:i] + [fresh] + ops[i:]


#: name -> mutator; ordering is part of the seeded-draw determinism.
MUTATORS: Dict[str, Callable] = {
    "dup": _mutate_dup,
    "del": _mutate_del,
    "swap": _mutate_swap,
    "retarget-vcpu": _mutate_retarget_vcpu,
    "value": _mutate_value,
    "perm": _mutate_perm,
    "control": _mutate_control,
    "insert": _mutate_insert,
    "gva": _mutate_gva,
    "remap": _mutate_remap,
    "port": _mutate_port,
    "space": _mutate_space,
}

_MUTATOR_NAMES = tuple(MUTATORS)

#: Mutated programs never grow past this many ops.
MAX_OPS = 96


def mutate_program(
    program: HutProgram, rng, n_mutations: int = 2
) -> Tuple[HutProgram, List[str]]:
    """Apply up to ``n_mutations`` seeded mutations; returns the new
    program and the names of the mutator classes that actually applied
    (a mutator with no applicable site draws nothing further)."""
    ops = list(program.ops)
    applied: List[str] = []
    for _ in range(max(1, n_mutations)):
        name = _MUTATOR_NAMES[rng.randrange(len(_MUTATOR_NAMES))]
        result = MUTATORS[name](ops, rng, program)
        if result is None or len(result) > MAX_OPS:
            continue
        ops = result
        applied.append(name)
    return program.replace_ops(ops), applied
