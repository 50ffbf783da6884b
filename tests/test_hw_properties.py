"""Property-based tests for the hardware emulation's data contracts.

Hypothesis drives the state machines the hut differential leans on:
if any of these round-trips or agreements fail, harness-vs-reference
divergences would be noise, not signal.

* EPT: ``set_permissions``/``remap`` vs. ``permissions``/``entries``/
  ``probe`` — the write path and the three read paths must agree after
  arbitrary update sequences;
* guest paging: registry walk vs. a flat dict model of the same maps;
* VMCS: ``encode_controls``/``decode_controls`` are mutually inverse;
* TSS: ``encode_tss``/``decode_tss`` round-trip, and the RSP0 word the
  hardware path reads (``TssView.rsp0_gpa``) is the codec's ``rsp0``;
* MSR: read-after-write returns the last write, masked to 64 bits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.hw.ept import ExtendedPageTable
from repro.hw.exits import MemAccess
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.msr import KNOWN_MSRS, MsrFile
from repro.hw.paging import PageTableRegistry, UNMAPPED_GVA
from repro.hw.tss import TSS_FIELDS, TSS_SIZE, TssView, decode_tss, encode_tss
from repro.hw.vmcs import (
    CONTROL_BITS,
    ExecutionControls,
    decode_controls,
    encode_controls,
)

GFN = st.integers(min_value=0, max_value=0x3FF)
HFN = st.integers(min_value=0, max_value=0xFFFF)
U64 = st.integers(min_value=0, max_value=2**64 - 1)
BIG = st.integers(min_value=0, max_value=2**70)


# ======================================================================
# EPT
# ======================================================================
_EPT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), GFN, st.booleans(), st.booleans(),
                  st.booleans()),
        st.tuples(st.just("remap"), GFN, HFN),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_EPT_OPS)
def test_ept_set_query_round_trip(ops):
    ept = ExtendedPageTable()
    model = {}  # gfn -> [hfn, r, w, x]
    for op in ops:
        if op[0] == "set":
            _, gfn, r, w, x = op
            ept.set_permissions(gfn << 12, read=r, write=w, execute=x)
            model.setdefault(gfn, [gfn, True, True, True])[1:] = [r, w, x]
        else:
            _, gfn, hfn = op
            ept.remap(gfn << 12, hfn)
            model.setdefault(gfn, [gfn, True, True, True])[0] = hfn
    for gfn, (hfn, r, w, x) in model.items():
        assert ept.permissions(gfn << 12) == (r, w, x)
        for access, allowed in (
            (MemAccess.READ, r), (MemAccess.WRITE, w),
            (MemAccess.EXECUTE, x),
        ):
            probe_allowed, probe_hpa = ept.probe((gfn << 12) | 0x123, access)
            assert probe_allowed == allowed
            assert probe_hpa == (hfn << 12) | 0x123
    touched = {g: e for g, e in
               ((g, (h, r, w, x)) for g, (h, r, w, x) in model.items())}
    listed = {g: (h, r, w, x) for g, h, r, w, x in ept.entries()}
    for gfn, entry in touched.items():
        assert listed[gfn] == entry
    assert ept.check_consistency() == []
    assert ept.violations == 0  # no guest access ran


@settings(max_examples=30, deadline=None)
@given(gfn=GFN, hfn=HFN, offset=st.integers(min_value=0, max_value=4095))
def test_ept_walk_matches_flat_translate(gfn, hfn, offset):
    ept = ExtendedPageTable()
    ept.remap(gfn << 12, hfn)
    gpa = (gfn << 12) | offset
    assert ept.translate(gpa, MemAccess.READ) == (hfn << 12) | offset
    assert ept.translate_nofault(gpa) == (hfn << 12) | offset
    assert ept.probe(gpa, MemAccess.READ) == (True, (hfn << 12) | offset)


# ======================================================================
# Guest paging: registry walk vs. flat model
# ======================================================================
_VPN = st.integers(min_value=0, max_value=0x1FF)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.dictionaries(_VPN, GFN, max_size=12),
    user=st.dictionaries(_VPN, GFN, max_size=12),
    probes=st.lists(_VPN, min_size=1, max_size=24),
)
def test_page_walk_matches_flat_model(kernel, user, probes):
    registry = PageTableRegistry()
    space = registry.create_address_space()
    for vpn, gpn in kernel.items():
        registry.kernel.map_page(vpn << 12, gpn << 12)
    for vpn, gpn in user.items():
        space.map_user_page(vpn << 12, gpn << 12)
    flat = dict(kernel)
    flat.update(user)  # user mappings shadow kernel ones in the walk
    for vpn in probes:
        gva = (vpn << 12) | 0x42
        got = registry.gva_to_gpa(space.pdba, gva)
        if vpn in flat:
            assert got == (flat[vpn] << 12) | 0x42
        else:
            assert got == UNMAPPED_GVA


# ======================================================================
# VMCS controls codec
# ======================================================================
_CONTROLS = st.builds(
    ExecutionControls,
    cr3_load_exiting=st.booleans(),
    msr_write_exiting=st.booleans(),
    io_exiting=st.booleans(),
    external_interrupt_exiting=st.booleans(),
    hlt_exiting=st.booleans(),
    apic_access_exiting=st.booleans(),
    exception_bitmap=st.sets(
        st.integers(min_value=0, max_value=0xFF), max_size=8
    ),
)


@settings(max_examples=80, deadline=None)
@given(controls=_CONTROLS)
def test_vmcs_controls_round_trip(controls):
    word = encode_controls(controls)
    back = decode_controls(word)
    assert back == controls
    assert encode_controls(back) == word


@settings(max_examples=40, deadline=None)
@given(controls=_CONTROLS)
def test_vmcs_word_equality_is_state_equality(controls):
    # Two control states are equal iff their words are — the property
    # the hut digest's single-int `controls` field relies on.
    other = decode_controls(encode_controls(controls))
    mutated = decode_controls(encode_controls(controls))
    name, _bit = CONTROL_BITS[0]
    setattr(mutated, name, not getattr(mutated, name))
    assert encode_controls(other) == encode_controls(controls)
    assert encode_controls(mutated) != encode_controls(controls)


def test_vmcs_codec_rejects_out_of_range():
    with pytest.raises(SimulationError):
        encode_controls(ExecutionControls(exception_bitmap={0x100}))
    with pytest.raises(SimulationError):
        decode_controls(-1)
    with pytest.raises(SimulationError):
        decode_controls(1 << 300)


# ======================================================================
# TSS codec
# ======================================================================
_TSS_VALUES = st.fixed_dictionaries(
    {},
    optional={
        name: U64 if size == 8 else st.integers(0, 0xFFFF)
        for name, (_offset, size) in TSS_FIELDS.items()
    },
)


@settings(max_examples=60, deadline=None)
@given(fields=_TSS_VALUES)
def test_tss_encode_decode_round_trip(fields):
    image = encode_tss(fields)
    assert len(image) == TSS_SIZE
    decoded = decode_tss(image)
    for name in TSS_FIELDS:
        assert decoded[name] == fields.get(name, 0)


@settings(max_examples=20, deadline=None)
@given(fields=_TSS_VALUES)
def test_tss_view_reads_what_codec_wrote(fields):
    memory = PhysicalMemory(64 * PAGE_SIZE)
    base = 3 * PAGE_SIZE
    memory.write_bytes(base, encode_tss(fields))
    view = TssView(memory, base)
    assert decode_tss(memory.read_bytes(base, TSS_SIZE)) == decode_tss(encode_tss(fields))
    assert memory.read_u64(view.rsp0_gpa) == fields.get("rsp0", 0)


def test_tss_codec_rejects_bad_input():
    with pytest.raises(SimulationError):
        encode_tss({"nonsense": 1})
    with pytest.raises(SimulationError):
        encode_tss({"rsp0": 2**64})
    with pytest.raises(SimulationError):
        decode_tss(b"\x00" * 7)


# ======================================================================
# MSR file
# ======================================================================
_MSR_INDEX = st.sampled_from(sorted(KNOWN_MSRS))


@settings(max_examples=60, deadline=None)
@given(writes=st.lists(st.tuples(_MSR_INDEX, BIG), max_size=30))
def test_msr_read_after_write(writes):
    msrs = MsrFile()
    model = {index: 0 for index in KNOWN_MSRS}
    for index, value in writes:
        msrs.host_write(index, value)
        model[index] = value & (2**64 - 1)
    for index, expected in model.items():
        assert msrs.read(index) == expected
    assert msrs.snapshot() == model


def test_msr_unknown_index_rejected():
    msrs = MsrFile()
    with pytest.raises(SimulationError):
        msrs.read(0x1FF)
    with pytest.raises(SimulationError):
        msrs.host_write(0x1FF, 1)
    assert not msrs.known(0x1FF)
