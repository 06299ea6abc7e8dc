"""Shadow-store algebra, interpreter semantics, hybrid switching, rule
application, traps, sources/sinks, and the compiled functions against the
step interpreter that compiled code replaced."""

import ast
import dataclasses
import functools
import gc
import math
import operator
import random
import re
import struct
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from taintsum import (
    Machine, MachineTrap, TaintConfig, apply_rule_program, bench, corpus,
    parse_module, run, tracker, validate_module,
)
from taintsum.ir import (
    I64, Alloca, Array, BinOp, Br, Call, Char, ConstInt, Float, Gep, GlobalDecl,
    GlobalRef, Int, Jmp, Load, Ptr, Ret, Store, StructDecl, StructRef, Temp, Void,
    align_of, field_offset, field_path_offset, size_of,
)
from taintsum.rules import compile_library
from taintsum.tracker import (
    DEFAULT_MEMORY, GLOBALS_BASE, MAX_FRAMES, PAGE, Memory, RunReport, SinkHit, SinkSpec,
    SourceSpec, Tagmap, _Frame, _shared, _Writer, _kind, _resize_vec, _wrap,
)
from taintsum.validate import build_plan, materialize_plan
from test_ir import _straightline_function
from test_rules import bound_shapes, random_shadow_state, rule_modules


class TestTagmapAlgebra:
    def test_untouched_region_reads_zero(self):
        tm = Tagmap()
        assert tm.get_taint(0x2000, 8) == 0
        assert tm.pages == {}

    def test_or_fold_of_two_regions(self):
        tm = Tagmap()
        tm.set_taint(0x100, 0x01, 4)
        tm.set_taint(0x104, 0x02, 4)
        assert tm.get_taint(0x100, 8) == 0x03

    def test_zero_size_reads_zero(self):
        tm = Tagmap()
        tm.set_taint(0x100, 0xFF, 4)
        assert tm.get_taint(0x100, 0) == 0

    def test_set_then_get_single(self):
        tm = Tagmap()
        tm.set_taint(0x40, 0x01, 4)
        assert tm.get_taint(0x40, 1) == 0x01

    def test_set_zero_clears(self):
        tm = Tagmap()
        tm.set_taint(0x40, 0x05, 4)
        tm.set_taint(0x40, 0x00, 4)
        assert tm.get_taint(0x40, 4) == 0

    def test_last_writer_wins_per_byte(self):
        tm = Tagmap()
        tm.set_taint(0x40, 0x01, 4)
        tm.set_taint(0x42, 0x02, 4)
        assert [tm.get_taint(0x40 + i, 1) for i in range(6)] == [
            1, 1, 2, 2, 2, 2]

    def test_cross_page_ops(self):
        tm = Tagmap()
        tm.set_taint(4090, 0x04, 12)
        assert tm.get_taint(4090, 12) == 0x04
        assert tm.get_taint(4095, 2) == 0x04
        assert sorted(tm.pages) == [0, 1]

    def test_exhaustive_or_fold_on_scratch_region(self):
        """get(a, n) equals the OR of the n single-byte reads, exhaustively
        over a 64-byte region for every size up to 64."""
        tm = Tagmap()
        base = 0x3000 - 16          # straddles a page boundary on purpose
        rng = random.Random(42)
        for i in range(64):
            tm.set_taint(base + i, rng.randrange(0, 256), 1)
        for start in range(64):
            for n in range(0, 64 - start + 1):
                folded = 0
                for i in range(n):
                    folded |= tm.get_taint(base + start + i, 1)
                assert tm.get_taint(base + start, n) == folded

    @given(st.lists(st.tuples(
        st.sampled_from(("set_taint", "or_taint", "set_vector")),
        st.integers(0, 120), st.integers(0, 255),
        st.binary(max_size=16)), max_size=12))
    def test_matches_reference_dict_model(self, ops):
        """Every operation against a byte-at-a-time dict model, on a
        region that straddles a page boundary; a page exists exactly when
        a nonzero tag has landed on it."""
        tm = Tagmap()
        model = {}
        touched = set()
        base = 0x5000 - 64
        for kind, off, tag, vec in ops:
            addr = base + off
            if kind == "set_vector":
                tm.set_vector(addr, vec)
                new = list(vec)
            elif kind == "set_taint":
                tm.set_taint(addr, tag, len(vec))
                new = [tag] * len(vec)
            else:
                tm.or_taint(addr, tag, len(vec))
                new = [model.get(addr + i, 0) | tag for i in range(len(vec))]
            for i, t in enumerate(new):
                model[addr + i] = t
                if t:
                    touched.add((addr + i) // PAGE)
        want = [model.get(base + i, 0) for i in range(200)]
        assert list(tm.get_vector(base, 200)) == want
        fold = 0
        for a, t in model.items():
            assert tm.get_taint(a, 1) == t
            fold |= t
        assert tm.get_taint(base, 200) == fold
        nonzero = sorted((a, t) for a, t in model.items() if t)
        assert tm.nonzero_bytes() == nonzero
        assert tm.count_nonzero() == len(nonzero)
        assert set(tm.pages) == touched

    def test_all_zero_writes_create_no_page(self):
        tm = Tagmap()
        tm.set_taint(PAGE - 3, 0, 2 * PAGE + 6)
        tm.set_vector(PAGE - 3, bytes(2 * PAGE + 6))
        tm.or_taint(PAGE - 3, 0, 2 * PAGE + 6)
        assert tm.pages == {}
        tm.set_taint(PAGE - 3, 0x07, 2 * PAGE + 6)     # spans four pages
        assert sorted(tm.pages) == [0, 1, 2, 3]
        assert tm.get_vector(PAGE - 4, 2 * PAGE + 8) == (
            b"\0" + b"\x07" * (2 * PAGE + 6) + b"\0")
        assert tm.count_nonzero() == 2 * PAGE + 6

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(("set_vector", "get_vector", "set_taint", "or_taint",
                         "get_taint")),
        st.one_of(st.builds(lambda p, d: p * PAGE + d,     # near a page edge
                            st.integers(1, 3), st.integers(-8, 8)),
                  st.integers(PAGE, 4 * PAGE)),
        st.one_of(st.integers(0, 9), st.integers(0, 2 * PAGE)),
        st.integers(0, 255)), max_size=12))
    def test_matches_byte_model_near_page_edges(self, ops):
        """Random operations against a per-byte dict model, at addresses
        that start on either side of a page edge and with sizes from one
        page piece to three: the same reads after every operation and at
        the end around each page edge, and a page exists exactly when a
        nonzero tag has landed on it, so a zero write to an absent page
        creates none."""
        tm, model, touched = Tagmap(), {}, set()
        for kind, addr, n, tag in ops:
            old = [model.get(addr + i, 0) for i in range(n)]
            if kind == "get_vector":
                assert tm.get_vector(addr, n) == bytes(old)
                continue
            if kind == "get_taint":
                assert tm.get_taint(addr, n) == functools.reduce(operator.or_, old, 0)
                continue
            if kind == "set_vector":        # zero and nonzero bytes mixed
                new = [tag if (i + tag) % 3 else 0 for i in range(n)]
                tm.set_vector(addr, bytes(new))
            elif kind == "set_taint":
                new = [tag] * n
                tm.set_taint(addr, tag, n)
            else:
                new = [t | tag for t in old]
                tm.or_taint(addr, tag, n)
            for i, t in enumerate(new):
                model[addr + i] = t
                if t:
                    touched.add((addr + i) // PAGE)
            assert set(tm.pages) == touched
        assert tm.nonzero_bytes() == sorted((a, t) for a, t in model.items() if t)
        for edge in (PAGE, 2 * PAGE, 3 * PAGE, 4 * PAGE):     # every short read
            for addr in range(edge - 9, edge + 10):            # across an edge
                for n in range(11):
                    assert tm.get_vector(addr, n) == bytes(
                        model.get(addr + i, 0) for i in range(n))

    def test_ranges_of_three_or_more_pages(self):
        """`set_vector`, `set_taint` and `get_vector` over ranges of three to
        six pages, each starting anywhere in its first page, against a
        byte-at-a-time model of eight pages; a page exists exactly when a
        nonzero tag has landed on it."""
        rng = random.Random(32)
        zero_low = bytes(0 if b < 96 else b for b in range(256))
        tm, model, touched = Tagmap(), bytearray(8 * PAGE), set()
        for step in range(24):
            addr, n = rng.randrange(PAGE, 2 * PAGE), rng.randrange(2 * PAGE + 1, 5 * PAGE)
            if step % 2:        # zero and nonzero bytes mixed, and a page's length of zeros
                vec = bytearray(rng.randbytes(n).translate(zero_low))
                vec[PAGE:2 * PAGE] = bytes(PAGE)
                tm.set_vector(addr, bytes(vec))
            else:
                vec = bytes([rng.choice((0, rng.randrange(1, 256)))]) * n
                tm.set_taint(addr, vec[0], n)
            for i, t in enumerate(vec):
                model[addr + i] = t
                if t:
                    touched.add((addr + i) // PAGE)
            assert set(tm.pages) == touched
            lo = rng.randrange(2 * PAGE)
            hi = rng.randrange(lo + 2 * PAGE + 1, 8 * PAGE + 1)
            assert tm.get_vector(lo, hi - lo) == bytes(model[lo:hi])
        assert tm.get_vector(0, 8 * PAGE) == bytes(model)

    def test_set_taint_over_all_of_a_default_machine(self, bench_user):
        """One `set_taint` over every byte of a `DEFAULT_MEMORY` machine
        makes every page and tags every byte; one of tag 0 clears them."""
        m = Machine(bench_user)
        tm = m.tagmap
        assert m.mem_size == DEFAULT_MEMORY
        tm.set_taint(0, 0x21, DEFAULT_MEMORY)
        assert sorted(tm.pages) == list(range(DEFAULT_MEMORY // PAGE))
        assert tm.get_vector(0, DEFAULT_MEMORY) == b"\x21" * DEFAULT_MEMORY
        tm.set_taint(0, 0, DEFAULT_MEMORY)
        assert tm.get_vector(0, DEFAULT_MEMORY) == bytes(DEFAULT_MEMORY)
        assert tm.count_nonzero() == 0


FLOW_CFG = TaintConfig.from_json({
    "sources": [{"fn": "fgets_a", "where": "param", "index": 0, "label": 1}],
    "sinks": [{"fn": "printf_a", "index": 0}],
})

# @rcopy recurses into itself and @even and @odd into each other, so they
# and @twice, which calls @even, get no summary; @mix gets one.
RECURSIVE_LIB = """\
global @src : [8 x char] = bytes(104, 105, 33)
global @dst : [8 x char]

fn @rcopy(%d: ptr(char), %s: ptr(char), %n: i64) -> i64 library {
entry:
  %z = cmp i64 %n, 0
  br %z, done, more
more:
  %c = load char, %s
  store char %c, %d
  %d1 = gep char, %d, 1
  %s1 = gep char, %s, 1
  %n1 = sub i64 %n, 1
  %r = call i64 @rcopy(%d1, %s1, %n1)
  %r1 = add i64 %r, %c
  ret i64 %r1
done:
  ret i64 0
}

fn @even(%n: i64) -> i64 library {
entry:
  %z = cmp i64 %n, 0
  br %z, yes, no
yes:
  ret i64 1
no:
  %n1 = sub i64 %n, 1
  %r = call i64 @odd(%n1)
  ret i64 %r
}

fn @odd(%n: i64) -> i64 library {
entry:
  %z = cmp i64 %n, 0
  br %z, yes, no
yes:
  ret i64 0
no:
  %n1 = sub i64 %n, 1
  %r = call i64 @even(%n1)
  ret i64 %r
}

fn @twice(%n: i64) -> i64 library {
entry:
  %e = call i64 @even(%n)
  %r = add i64 %e, %e
  ret i64 %r
}

fn @mix(%a: i64, %b: i64) -> i64 library {
entry:
  %r = add i64 %a, %b
  ret i64 %r
}

fn @read(%p: ptr(char)) -> void {
entry:
  ret
}

fn @show(%p: ptr(char)) -> i64 {
entry:
  %c = load char, %p
  ret i64 %c
}

fn @main(%n: i64) -> i64 {
entry:
  %s = gep [8 x char], @src, 0, 0
  call void @read(%s)
  %d = gep [8 x char], @dst, 0, 0
  %k = call i64 @rcopy(%d, %s, %n)
  %e = call i64 @twice(%n)
  %m = call i64 @mix(%k, %e)
  %v = call i64 @show(%d)
  %r = add i64 %m, %v
  ret i64 %r
}
"""
RECURSIVE_CFG_DOC = {
    "sources": [{"fn": "read", "where": "param", "index": 0, "label": 1},
                {"fn": "main", "where": "param", "index": 0, "label": 2}],
    "sinks": [{"fn": "show", "index": 0}],
}
RECURSIVE_CFG = TaintConfig.from_json(RECURSIVE_CFG_DOC)


class TestRun:
    def test_flow_reaches_sink_in_both_modes(self, student_flow,
                                             student_flow_rules):
        for mode in ("instr", "hybrid"):
            rep = run(student_flow, "main", [], FLOW_CFG, mode, student_flow_rules)
            assert rep.sink_hits, mode
            assert all(h.tag & 1 for h in rep.sink_hits)
            assert rep.exit_value == sum(b"alice")

    def test_hybrid_dest_matches_instr_oracle(self, libcorpus, lib_rules):
        final = {}  # per-mode dest tag vectors
        for mode in ("instr", "hybrid"):
            m = Machine(libcorpus, mode=mode, rule_programs=lib_rules,
                        mem_size=1 << 20)
            dest = m.alloc(64)
            src = m.alloc(64)
            m.write_bytes(src, b"0123456789abcdef\0")
            m.tagmap.set_taint(src, 0x01, 17)
            m.call_entry("memcpy", [dest, src, 16])
            final[mode] = [m.tagmap.get_taint(dest + i, 1)
                           for i in range(64)]
            assert m.read_bytes(dest, 16) == b"0123456789abcdef"
        assert final["instr"][:16] == [1] * 16
        # rules cover the written string region (terminator included)
        assert all(final["hybrid"][i] & 1 for i in range(16))
        for i in range(16):
            assert final["hybrid"][i] & final["instr"][i] == final["instr"][i]

    def test_no_sources_no_taint(self, student_flow, student_flow_rules):
        for mode in ("instr", "hybrid"):
            rep = run(student_flow, "main", [], None, mode, student_flow_rules)
            assert rep.tainted_bytes_final == ()
            assert rep.sink_hits == ()

    def test_hybrid_tracks_library_functions_without_rules(self):
        m = parse_module(RECURSIVE_LIB)
        rules = compile_library(m, True)[0]
        assert sorted(rules) == ["mix"]     # the others recurse
        reps = {mode: run(m, "main", [3], RECURSIVE_CFG, mode, rules)
                for mode in ("instr", "hybrid")}
        assert reps["instr"].sink_hits and reps["instr"].tainted_bytes_final
        assert reps["hybrid"].instr_executed_unins == 2     # @mix alone
        assert len({(r.exit_value, r.tainted_bytes_final, r.sink_hits)
                    for r in reps.values()}) == 1
        rows = bench(m, "main", [3], rule_programs=rules).rows
        assert [(r.mode, r.instr_total, r.instr_unins) for r in rows] == [
            ("instr", 68, 0), ("hybrid", 68, 2)]

    def test_rejects_malformed_module(self):
        m = parse_module("fn @f() -> i32 {\nentry:\n  ret\n}\n")
        with pytest.raises(ValueError, match="well-formed"):
            run(m, "f")

    def test_report_json_keys(self, student_flow, student_flow_rules):
        rep = run(student_flow, "main", [], FLOW_CFG, "hybrid",
                  student_flow_rules)
        doc = rep.to_json()
        assert set(doc) == {
            "exitValue", "shadowOpsInstr", "shadowOpsRules",
            "instrExecutedTotal", "instrExecutedUninstrumented",
            "taintedBytesFinal", "sinkHits", "retTag"}
        assert doc["instrExecutedUninstrumented"] <= doc["instrExecutedTotal"]


class TestTraps:
    def _run(self, src, **kw):
        return run(parse_module(src), "main", **kw)

    def test_division_by_zero(self):
        src = "fn @main() -> i32 {\nentry:\n  %x = div i32 1, 0\n  ret i32 %x\n}\n"
        with pytest.raises(MachineTrap, match="division by zero at main:0"):
            self._run(src)

    def test_division_by_zero_traps_before_shadow_update(self, libcorpus):
        m = Machine(libcorpus, mode="instr", mem_size=1 << 20)
        src = parse_module(
            "fn @main(%a: i32) -> i32 {\nentry:\n  %x = div i32 %a, 0\n"
            "  ret i32 %x\n}\n")
        m2 = Machine(src, mode="instr", mem_size=1 << 20)
        before = m2.shadow_ops_instr
        with pytest.raises(MachineTrap):
            m2.call_entry("main", [5], [bytes([1]) * 4])
        assert m2.shadow_ops_instr == before

    def test_out_of_bounds(self):
        src = "fn @main() -> i32 {\nentry:\n  %v = load i32, 16\n  ret i32 %v\n}\n"
        with pytest.raises(MachineTrap, match="out-of-bounds"):
            self._run(src)

    def test_frame_cap(self):
        src = ("fn @r() -> void {\nentry:\n  call void @r()\n  ret\n}\n"
               "fn @main() -> i32 {\nentry:\n  call void @r()\n  ret i32 0\n}\n")
        with pytest.raises(MachineTrap, match="frame cap"):
            self._run(src)

    def test_step_budget(self):
        src = "fn @main() -> i32 {\nentry:\n  jmp l\nl:\n  jmp l\n}\n"
        with pytest.raises(MachineTrap, match="step budget"):
            self._run(src, step_budget=500)

    def test_stack_exhaustion_by_alloca(self):
        src = ("fn @main() -> i32 {\nentry:\n  jmp l\nl:\n"
               "  %x = alloca [4096 x char]\n  jmp l\n}\n")
        with pytest.raises(MachineTrap, match="stack overflow|step budget"):
            self._run(src, step_budget=10 ** 6)


SCAN_MEM = 1 << 16


class TestScanString:
    """`scan_string` against the byte loop it replaced, on memory holding
    "abcdefgh\\0" at 0x2100, a NUL at 0x2000 and four non-NUL bytes at the
    very end."""

    @staticmethod
    def _loop(memory, addr, cap):
        end = min(addr + cap, SCAN_MEM)
        for i in range(addr, end):
            if memory[i] == 0:
                return i - addr + 1
        return max(end - addr, 0)

    @pytest.mark.parametrize("addr, cap, want", [
        (0x2000, 64, 1),                # terminator at addr
        (0x2100, 64, 9),                # terminator within cap
        (0x2100, 9, 9),                 # terminator at the last byte of cap
        (0x2100, 5, 5),                 # no terminator within cap
        (SCAN_MEM - 4, 64, 4),          # cap runs past mem_size
        (SCAN_MEM - 4, 2, 2),
        (0x2100, 0, 0),                 # addr == end
        (SCAN_MEM, 8, 0),               # addr >= end
        (SCAN_MEM + 100, 8, 0),
        (2 ** 64 - 8, 8, 0),            # a pointer past any C index
    ])
    def test_matches_byte_loop(self, addr, cap, want):
        m = Machine(parse_module(""), mem_size=SCAN_MEM)
        m.memory[:] = b"\x01" * SCAN_MEM
        m.memory[0x2000] = 0
        m.memory[0x2100:0x2109] = b"abcdefgh\0"
        assert m.scan_string(addr, cap) == self._loop(m.memory, addr, cap) == want


class TestApplyRules:
    def test_untainted_inputs_change_nothing(self, libcorpus, lib_rules):
        m = Machine(libcorpus, mode="instr", mem_size=1 << 20)
        dest, src = m.alloc(64), m.alloc(64)
        m.write_bytes(src, b"abc\0")
        m.write_bytes(dest, b"abc\0")
        before = m.tagmap.nonzero_bytes()
        apply_rule_program(lib_rules["memcpy"],
                           [(dest, bytes(8)), (src, bytes(8)), (4, bytes(8))], m)
        assert m.tagmap.nonzero_bytes() == before == []

    def test_accumulates_with_existing_dest_tag(self, libcorpus, lib_rules):
        m = Machine(libcorpus, mode="instr", mem_size=1 << 20)
        dest, src = m.alloc(64), m.alloc(64)
        m.write_bytes(src, b"hi\0")
        m.write_bytes(dest, b"hi\0")
        m.tagmap.set_taint(src, 0x02, 3)
        m.tagmap.set_taint(dest, 0x01, 3)
        apply_rule_program(lib_rules["memcpy"],
                           [(dest, bytes(8)), (src, bytes(8)), (3, bytes(8))], m)
        assert m.tagmap.get_taint(dest, 1) == 0x03   # old | gathered

    def test_global_slot_updates_global_storage(self, libcorpus, lib_rules):
        m = Machine(libcorpus, mode="instr", mem_size=1 << 20)
        srec = m.alloc(12)
        m.write_bytes(srec, b"ann\0\0\0\0\0" + (61).to_bytes(4, "little"))
        m.tagmap.set_taint(srec, 0x04, 12)
        apply_rule_program(lib_rules["student_cpy"], [(srec, bytes(8))], m)
        stu = m.global_addr["stu"]
        assert m.tagmap.get_taint(stu, 8) == 0x04       # id field
        assert m.tagmap.get_taint(stu + 8, 4) == 0x04   # score field

    def test_null_pointer_slot_is_skipped(self, libcorpus, lib_rules):
        m = Machine(libcorpus, mode="instr", mem_size=1 << 20)
        apply_rule_program(lib_rules["memcpy"],
                           [(0, bytes(8)), (0, bytes(8)), (4, bytes(8))], m)
        assert m.tagmap.nonzero_bytes() == []

    def test_rule_steps_are_counted(self, libcorpus, lib_rules):
        m = Machine(libcorpus, mode="instr", mem_size=1 << 20)
        dest, src = m.alloc(64), m.alloc(64)
        apply_rule_program(lib_rules["memcpy"],
                           [(dest, bytes(8)), (src, bytes(8)), (4, bytes(8))], m)
        assert m.shadow_ops_rules == len(lib_rules["memcpy"].steps)


def _fold(vec):
    tag = 0
    for b in vec:
        tag |= b
    return tag


def _reference_region(machine, fn_name, slot, arg_record):
    """Slot resolution that re-derives each extent from the module on every
    application: ("mem", (addr, size-or-None)), ("nu", argindex) or ("ret",
    None); None for a null pointer or an unresolvable slot.  A size of None
    marks a string extent scanned at application time."""
    structs = machine.module.structs
    if slot.kind == "ret":
        return ("ret", None)
    if slot.kind == "global":
        base = machine.global_addr.get(slot.name)
        if base is None:
            return None
        gty = machine.module.globals[slot.name].ty
        off, leaf = (0, gty)
        if slot.field_path:
            off, leaf = field_path_offset(gty, slot.field_path, structs)
        return ("mem", (base + off, size_of(leaf, structs)))
    if slot.index is None or slot.index >= len(arg_record):
        return None
    value, _vec = arg_record[slot.index]
    if slot.field_path:
        if not isinstance(value, int) or value == 0:
            return None
        fn = machine.module.functions.get(fn_name)
        if fn is None or slot.index >= len(fn.params):
            return None
        off, leaf = field_path_offset(fn.params[slot.index][1],
                                      slot.field_path, structs)
        return ("mem", (value + off, size_of(leaf, structs)))
    if isinstance(slot.ty, Ptr):
        if not isinstance(value, int) or value == 0:
            return None
        pointee = slot.ty.pointee
        if isinstance(pointee, (Char, Void)):
            return ("mem", (value, None))
        return ("mem", (value, size_of(pointee, structs)))
    return ("nu", slot.index)


def _reference_tag(machine, loc, arg_record, cap):
    """The tag a resolved slot holds now; 0 for None."""
    if loc is None:
        return 0
    kind, payload = loc
    if kind == "nu":
        return _fold(arg_record[payload][1])
    if kind == "ret":
        return _fold(machine.ret_shadow)
    addr, sz = payload
    return machine.tagmap.get_taint(addr, machine.scan_string(addr, cap) if sz is None else sz)


def reference_apply(prog, arg_record, machine):
    """Rule application with extents taken from the slot types on every
    application, kept as the oracle for `apply_rule_program`, which takes
    them from the program its module bound."""
    for out, ins in prog.entries:
        machine.shadow_ops_rules += len(ins) + 2    # each in, the out's read and set
        acc = 0
        for slot in ins:
            acc |= _reference_tag(machine, _reference_region(machine, prog.function, slot,
                                                             arg_record), arg_record, prog.max_len)
        loc = _reference_region(machine, prog.function, out, arg_record)
        tag = _reference_tag(machine, loc, arg_record, prog.max_len) | acc
        if loc is not None and loc[0] == "ret":
            w = 8 if isinstance(out.ty, Ptr) else size_of(out.ty, machine.module.structs)
            machine.ret_shadow = bytes([tag]) * w
        elif loc is not None and loc[0] == "mem":
            addr, sz = loc[1]
            machine.tagmap.set_taint(addr, tag, machine.scan_string(addr, prog.max_len)
                                     if sz is None else sz)


class TestRuleApplicationOracle:
    def test_matches_reference_on_random_shadow_states(self):
        """Extents the module binds give the same shadow state as extents
        re-derived from the module, for every corpus and fixture program
        (control deps on and off, string caps 1 and 64), with some null
        pointer arguments and a random return shadow."""
        for module in rule_modules():
            for cdeps in (True, False):
                for default_len in (1, 64):
                    progs, _ = compile_library(module, cdeps, default_len)
                    for name, prog in sorted(progs.items()):
                        fn = module.functions[name]
                        for trial in range(20):
                            got = []
                            for apply in (reference_apply, apply_rule_program):
                                rng = random.Random(f"{name}:{trial}")
                                machine, record = random_shadow_state(
                                    module, fn, rng, null_rate=0.2)
                                machine.ret_shadow = bytes(
                                    rng.randrange(0, 4)
                                    for _ in range(rng.choice((0, 4, 8))))
                                apply(prog, record, machine)
                                got.append((machine.tagmap.nonzero_bytes(),
                                            machine.ret_shadow,
                                            machine.shadow_ops_rules))
                            assert got[0] == got[1], (name, trial)


class TestHybridSwitching:
    def test_uninstrumented_counters(self, student_flow, student_flow_rules):
        instr = run(student_flow, "main", [], None, "instr", student_flow_rules)
        hybrid = run(student_flow, "main", [], None, "hybrid", student_flow_rules)
        assert instr.instr_executed_unins == 0
        assert hybrid.instr_executed_unins > 0
        assert hybrid.instr_executed_total == instr.instr_executed_total

    def test_rules_fire_only_for_outermost_call(self, student_flow, student_flow_rules):
        # student_cpy calls memcpy; only student_cpy's program may run
        rep = run(student_flow, "main", [], None, "hybrid", student_flow_rules)
        assert rep.shadow_ops_rules == len(student_flow_rules["student_cpy"].steps)

    def test_counter_consistency_single_library_call(self, libcorpus,
                                                     lib_rules):
        """On a straight-line program with one library call, the hybrid
        instruction-level count plus the library interior's own count equals
        the all-instruction count."""
        src = """fn @main(%x: i32) -> i32 {
entry:
  %r = call i32 @abs_a(%x)
  ret i32 %r
}
"""
        m = parse_module(src + corpus.load_text("libcorpus"))
        full = run(m, "main", [-5], None, "instr", lib_rules)
        hyb = run(m, "main", [-5], None, "hybrid", lib_rules)
        standalone = Machine(libcorpus, mode="instr", mem_size=1 << 20)
        standalone.call_entry("abs_a", [-5])
        assert (hyb.shadow_ops_instr + standalone.shadow_ops_instr
                == full.shadow_ops_instr)
        assert full.exit_value == hyb.exit_value == 5

    def test_library_return_tag_is_not_left_over(self):
        """A summarized call's return tag comes from its rules alone, not
        from the previous tracked `ret`."""
        src = """fn @secret(%x: i64) -> i64 {
entry:
  ret i64 %x
}
fn @id(%x: i64) -> i64 library {
entry:
  %y = add i64 %x, 0
  ret i64 %y
}
fn @main(%s: i64) -> i64 {
entry:
  %a = call i64 @secret(%s)
  %b = call i64 @id(5)
  ret i64 %b
}
"""
        m = parse_module(src)
        rules, _ = compile_library(m)
        shadow = {}
        for mode in ("instr", "hybrid"):
            machine = Machine(m, mode=mode, rule_programs=rules)
            machine.call_entry("main", [7], [bytes([1]) * 8])
            shadow[mode] = machine.ret_shadow
        assert shadow["instr"] == shadow["hybrid"] == bytes(8)

    def test_concrete_state_identical_across_modes(self, student_flow,
                                                   student_flow_rules):
        mem = {}
        for mode in ("instr", "hybrid"):
            m = Machine(student_flow, mode=mode, rule_programs=student_flow_rules,
                        mem_size=1 << 20)
            exit_value = m.call_entry("main", [])
            mem[mode] = (exit_value, bytes(m.memory))
        assert mem["instr"] == mem["hybrid"]


class TestSourcesAndSinks:
    def test_source_on_return_value(self, lib_rules):
        cfg = TaintConfig.from_json({
            "sources": [{"fn": "strlen_a", "where": "ret", "label": 2}],
            "sinks": []})
        src = """fn @main() -> i64 {
entry:
  %b = gep %student, @stu, 0, 0, 0
  store char 120, %b
  %n = call i64 @strlen_a(%b)
  ret i64 %n
}
"""
        m = parse_module(src + corpus.load_text("libcorpus"))
        rep = run(m, "main", [], cfg, "instr", lib_rules)
        assert rep.ret_tag == 2

    def test_sink_inside_a_rule_firing_call_withholds_its_rule(
            self, student_flow, student_flow_rules):
        """A sink on the @memcpy that @student_cpy calls withholds
        @student_cpy's rule, so hybrid mode tracks it and checks the sink
        there as instr mode does; @memcpy's own rule still fires."""
        cfg = TaintConfig.from_json({
            "sources": [{"fn": "fgets_a", "where": "param",
                         "index": 0, "label": 1}],
            "sinks": [{"fn": "memcpy", "index": 1}]})
        assert cfg.withheld(student_flow, student_flow_rules) == {"student_cpy": "memcpy"}
        instr = run(student_flow, "main", [], cfg, "instr", student_flow_rules)
        hybrid = run(student_flow, "main", [], cfg, "hybrid", student_flow_rules)
        assert instr.sink_hits and instr.sink_hits[0].fn == "memcpy"
        assert hybrid.sink_hits == instr.sink_hits
        assert hybrid.shadow_ops_rules > 0

    def test_source_and_sink_inside_rule_firing_calls(self):
        """A source in @read_into's callee and a sink in @show's apply in
        hybrid mode too: both rules are withheld, and the two modes report
        the same sink hits and tainted bytes."""
        m = parse_module(corpus.load_text("student_flow") + NESTED_SOURCE_AND_SINK)
        rules = compile_library(m)[0]
        assert FLOW_CFG.withheld(m, rules) == {"read_into": "fgets_a", "show": "printf_a"}
        instr = run(m, "main2", [], FLOW_CFG, "instr", rules)
        hybrid = run(m, "main2", [], FLOW_CFG, "hybrid", rules)
        assert instr.sink_hits == (SinkHit("printf_a", 1, "main2:2"),
                                   SinkHit("printf_a", 1, "show:0"))
        assert hybrid.sink_hits == instr.sink_hits
        assert len(instr.tainted_bytes_final) == 10
        assert hybrid.tainted_bytes_final == instr.tainted_bytes_final
        assert TaintConfig().withheld(m, rules) == {}

    def test_return_source_on_a_void_function_rejected(self, student_flow):
        cfg = TaintConfig.from_json(
            {"sources": [{"fn": "student_cpy", "where": "ret", "label": 1}]})
        with pytest.raises(ValueError, match="return value of @student_cpy,"
                                             " which returns void"):
            cfg.check(student_flow)
        TaintConfig.from_json(
            {"sources": [{"fn": "memcpy", "where": "ret", "label": 1}]}
        ).check(student_flow)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="tag byte"):
            TaintConfig.from_json(
                {"sources": [{"fn": "f", "where": "param", "index": 0,
                              "label": 256}], "sinks": []})

    def test_sink_hit_names_call_site(self, student_flow, student_flow_rules):
        rep = run(student_flow, "main", [], FLOW_CFG, "instr", student_flow_rules)
        assert rep.sink_hits == (SinkHit("printf_a", 1, "main:7"),)

    def test_parameter_source_reads_a_redefined_parameter(self):
        """A pointer parameter's source taints what the parameter points to
        at the return, after @skip redefined it; a scalar one's widens the
        caller's argument, which then reaches the return value."""
        m = parse_module(REDEFINED)
        assert validate_module(m)       # %p and %k are assigned twice
        cfg = TaintConfig.from_json({"sources": [
            {"fn": "skip", "where": "param", "index": 0, "label": 1},
            {"fn": "skip", "where": "param", "index": 1, "label": 2}]})
        buf = _shared(m).global_addr["buf"]
        for result in assert_same_runs(m, "main", [5], {}, taint_config=cfg).values():
            assert result[0].tainted_bytes_final == tuple((buf + i, 1) for i in (2, 3, 4))
            assert result[0].ret_tag == 2

    def test_parameter_source_narrows_the_argument(self):
        """The source gives %v the 4-byte vector of @take's parameter, which
        the i64 store after the call widens again by its fold."""
        m = parse_module(NARROWED)
        cfg = TaintConfig.from_json(
            {"sources": [{"fn": "take", "where": "param", "index": 0, "label": 4}]})
        cell = _shared(m).global_addr["cell"]

        def pretaint(machine):
            machine.tagmap.set_vector(cell, bytes([1, 0, 0, 0, 0, 0, 0, 2]))
        for result in assert_same_runs(m, "main", [0], {}, taint_config=cfg,
                                       before=pretaint).values():
            tagged = dict(result[0].tainted_bytes_final)
            assert [tagged[cell + 8 + i] for i in range(8)] == [5, 4, 4, 4, 5, 5, 5, 5]


NESTED_SOURCE_AND_SINK = """
struct %cell { [16 x char] s }
global @g : %cell
fn @read_into(%b: ptr(char)) -> void library {
entry:
  %r = call ptr(char) @fgets_a(%b, 5)
  ret
}
fn @show(%b: ptr(char)) -> void library {
entry:
  %r = call i32 @printf_a(%b)
  ret
}
fn @main2() -> i64 {
entry:
  %p = gep %cell, @g, 0, 0, 0
  call void @read_into(%p)
  %r = call i32 @printf_a(%p)
  call void @show(%p)
  ret i64 0
}
"""
NARROWED = """\
global @cell : [2 x i64]
fn @take(%x: i32) -> void {
entry:
  ret
}
fn @main(%n: i64) -> i64 {
entry:
  %p = gep [2 x i64], @cell, 0, 0
  %q = gep [2 x i64], @cell, 0, 1
  %v = load i64, %p
  call void @take(%v)
  store i64 %v, %q
  ret i64 %v
}
"""
REDEFINED = """\
global @buf : [8 x char] = bytes(97, 98, 99, 100)
fn @skip(%p: ptr(char), %k: i64) -> i64 {
entry:
  %p = gep char, %p, 2
  %k = add i64 %k, 1
  ret i64 %k
}
fn @main(%n: i64) -> i64 {
entry:
  %a = gep [8 x char], @buf, 0, 0
  %r = call i64 @skip(%a, %n)
  %s = add i64 %r, %n
  ret i64 %s
}
"""


# ---------------------------------------------------------------------------
# The step interpreter that compiled code replaced, kept as its oracle
# ---------------------------------------------------------------------------

_COND_TY = Int(64)


def _ref_width(ty):
    if isinstance(ty, Int):
        return ty.bits // 8
    if isinstance(ty, Float):
        return ty.bits // 8
    if isinstance(ty, Char):
        return 1
    if isinstance(ty, Ptr):
        return 8
    if isinstance(ty, Void):
        return 0
    raise MachineTrap("bad value type", detail=str(ty))


def _ref_norm_int(v, ty):
    if isinstance(ty, Char):
        return v & 0xFF
    if isinstance(ty, Ptr):
        return v & (2 ** 64 - 1)
    bits = ty.bits
    v &= (1 << bits) - 1
    if ty.signed and v >= 1 << (bits - 1):
        v -= 1 << bits
    return v


@dataclasses.dataclass(slots=True)
class _RefFrame(_Frame):
    """A frame and the position of its next instruction."""
    block: int = 0
    pc: int = 0


class ReferenceMachine(Machine):
    """Runs each instruction through an `isinstance` chain that re-derives
    widths, masks, strides and label indices every time.  Frames, memory,
    the Tagmap, sources, sinks, rule application and the tail of a return
    are `Machine`'s own; only instruction execution differs."""

    def __init__(self, module, **kw):
        super().__init__(module, **kw)
        self._labels = {
            f.name: {b.label: i for i, b in enumerate(f.blocks)}
            for f in self.module.functions.values()
        }

    def _make_frame(self, fn, args, vecs, call_ins):
        # a global's address, passed as it is, wraps to the parameter's type
        args = [_wrap(v, _kind(ty)) for v, (_, ty) in zip(args, fn.params)]
        frame = super()._make_frame(fn, args, vecs, call_ins)
        return _RefFrame(*(getattr(frame, f.name) for f in dataclasses.fields(frame)))

    def read_value(self, ty, addr, uid=None):
        w = _ref_width(ty)
        self._check_bounds(addr, w, uid)
        raw = bytes(self.memory[addr:addr + w])
        if isinstance(ty, Float):
            return struct.unpack("<f" if ty.bits == 32 else "<d", raw)[0]
        v = int.from_bytes(raw, "little")
        if isinstance(ty, Int) and ty.signed and v >= 1 << (ty.bits - 1):
            v -= 1 << ty.bits
        return v

    def write_value(self, ty, addr, value, uid=None):
        w = _ref_width(ty)
        self._check_bounds(addr, w, uid)
        if isinstance(ty, Float):
            raw = struct.pack("<f" if ty.bits == 32 else "<d", value)
        else:
            raw = (int(value) & (2 ** (w * 8) - 1)).to_bytes(w, "little")
        self.memory[addr:addr + w] = raw

    def _operand_value(self, frame, op, ty):
        if isinstance(op, Temp):
            try:
                v = frame.temps[op.name]
            except KeyError:
                raise MachineTrap("undefined temporary", detail=f"%{op.name}")
            if isinstance(ty, Float):
                return float(v)
            return _ref_norm_int(int(v), ty)
        if isinstance(op, GlobalRef):
            return self.global_addr[op.name]
        if isinstance(op, ConstInt):
            return float(op.value) if isinstance(ty, Float) else _ref_norm_int(op.value, ty)
        return op.value if isinstance(ty, Float) else _ref_norm_int(int(op.value), ty)

    def _operand_tags(self, frame, op, n):
        if isinstance(op, Temp):
            return _resize_vec(frame.tags.get(op.name, b"\0"), n)
        return bytes(n)

    def _run(self):
        exit_value = 0
        while self._frames:
            frame = self._frames[-1]
            if not frame.fn.blocks:
                raise MachineTrap("no terminator", detail=frame.fn.name)
            block = frame.fn.blocks[frame.block]
            if frame.pc == len(block.instrs):       # control fell off the block
                raise MachineTrap("no terminator", detail=block.label)
            ins = block.instrs[frame.pc]
            self.instr_total += 1
            if self.instr_total > self.step_budget:
                raise MachineTrap("step budget exhausted", ins.uid)
            if not self.live:
                self.instr_unins += 1
            exit_value = self._step(frame, ins)
        return exit_value

    def _goto(self, frame, label, ins):
        try:
            frame.block = self._labels[frame.fn.name][label]
        except KeyError:
            raise MachineTrap("unknown label", ins.uid) from None
        frame.pc = 0

    def _step(self, frame, ins):
        live = self.live
        fn = frame.fn
        if isinstance(ins, Alloca):
            sz = size_of(ins.ty, self.module.structs)
            a = align_of(ins.ty, self.module.structs)
            addr = (self.stack_ptr - sz) & ~(max(a, 1) - 1)
            if addr <= self.heap_ptr:
                raise MachineTrap("stack overflow", ins.uid)
            self.stack_ptr = addr
            self.memory[addr:addr + sz] = bytes(sz)
            self.tagmap.set_taint(addr, 0, sz)
            frame.temps[ins.dest] = addr
            frame.tags[ins.dest] = bytes(8)
            frame.pc += 1
        elif isinstance(ins, Load):
            addr = self._operand_value(frame, ins.addr, Ptr(ins.ty))
            frame.temps[ins.dest] = self.read_value(ins.ty, addr, ins.uid)
            if live:
                frame.tags[ins.dest] = self.tagmap.get_vector(addr, _ref_width(ins.ty))
                self.shadow_ops_instr += 1
            frame.pc += 1
        elif isinstance(ins, Store):
            addr = self._operand_value(frame, ins.addr, Ptr(ins.ty))
            value = self._operand_value(frame, ins.value, ins.ty)
            self.write_value(ins.ty, addr, value, ins.uid)
            if live:
                w = _ref_width(ins.ty)
                self.tagmap.set_vector(addr, self._operand_tags(frame, ins.value, w))
                self.shadow_ops_instr += 1
            frame.pc += 1
        elif isinstance(ins, Gep):
            frame.temps[ins.dest] = self._gep_addr(frame, ins)
            if live:
                tag = _fold(self._operand_tags(frame, ins.base, 8))
                for idx in ins.indices:
                    tag |= _fold(self._operand_tags(frame, idx, 8))
                frame.tags[ins.dest] = bytes([tag]) * 8
                self.shadow_ops_instr += 1
            frame.pc += 1
        elif isinstance(ins, BinOp):
            frame.temps[ins.dest] = self._binop(frame, ins)
            if live:
                w = _ref_width(ins.ty)
                tag = (_fold(self._operand_tags(frame, ins.lhs, w))
                       | _fold(self._operand_tags(frame, ins.rhs, w)))
                frame.tags[ins.dest] = bytes([tag]) * w
                self.shadow_ops_instr += 1
            frame.pc += 1
        elif isinstance(ins, Br):
            cond = self._operand_value(frame, ins.cond, _COND_TY)
            self._goto(frame, ins.then_label if cond != 0 else ins.else_label, ins)
        elif isinstance(ins, Jmp):
            self._goto(frame, ins.label, ins)
        elif isinstance(ins, Call):
            return self._do_call(frame, ins)
        elif isinstance(ins, Ret):
            return self._ref_ret(frame, ins)
        else:
            raise MachineTrap("unknown instruction", ins.uid)
        return 0

    def _gep_addr(self, frame, ins):
        base = self._operand_value(frame, ins.base, Ptr(ins.base_ty))
        structs = self.module.structs
        t = ins.base_ty
        first = self._operand_value(frame, ins.indices[0], Int(64))
        addr = base + first * size_of(t, structs)
        for idx in ins.indices[1:]:
            if isinstance(t, StructRef):
                decl = structs[t.name]
                fname, fty = decl.fields[idx.value]
                addr += field_offset(decl, fname, structs)
                t = fty
            elif isinstance(t, Array):
                i = self._operand_value(frame, idx, Int(64))
                addr += i * size_of(t.elem, structs)
                t = t.elem
            else:
                raise MachineTrap("malformed gep", ins.uid)
        return addr & (2 ** 64 - 1)

    def _binop(self, frame, ins):
        ty = ins.ty
        a = self._operand_value(frame, ins.lhs, ty)
        b = self._operand_value(frame, ins.rhs, ty)
        op = ins.op
        if isinstance(ty, Float):
            if op == "add":
                r = a + b
            elif op == "sub":
                r = a - b
            elif op == "mul":
                r = a * b
            elif op == "div":
                if b != 0.0:
                    r = a / b
                else:
                    r = math.copysign(math.inf, a) if a else math.nan
            elif op == "rem":
                r = math.fmod(a, b) if b != 0.0 else math.nan
            elif op == "cmp":
                return 1.0 if a == b else 0.0
            else:
                raise MachineTrap("float bit operation", ins.uid)
            if ty.bits == 32:
                r = struct.unpack("<f", struct.pack("<f", r))[0]
            return r
        bits = 8 if isinstance(ty, Char) else 64 if isinstance(ty, Ptr) else ty.bits
        if op == "add":
            r = a + b
        elif op == "sub":
            r = a - b
        elif op == "mul":
            r = a * b
        elif op in ("div", "rem"):
            if b == 0:
                raise MachineTrap("division by zero", ins.uid)
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            r = q if op == "div" else a - q * b
        elif op == "and":
            r = a & b
        elif op == "or":
            r = a | b
        elif op == "xor":
            r = a ^ b
        elif op == "shl":
            r = a << (b & (bits - 1))
        elif op == "shr":
            r = a >> (b & (bits - 1))
        elif op == "cmp":
            r = 1 if a == b else 0
        else:
            raise MachineTrap("unknown op", ins.uid)
        return _ref_norm_int(r, ty)

    def _do_call(self, frame, ins):
        callee = self.module.functions.get(ins.callee)
        if callee is None:
            raise MachineTrap("unresolved callee", ins.uid, f"@{ins.callee}")
        args = []
        vecs = []
        for (pname, pty), op in zip(callee.params, ins.args):
            args.append(self._operand_value(frame, op, pty))
            if self.live:
                vecs.append(self._operand_tags(frame, op, _ref_width(pty)))
        if self.live and ins.args:
            self.shadow_ops_instr += 1
        self._check_sinks(callee.name, args, vecs, ins.uid)
        frame.pc += 1
        self._frames.append(self._make_frame(callee, args, vecs, call_ins=ins))
        return 0

    def _do_ret(self, frame, value):
        """`Machine`'s return, then the caller's destination, which compiled
        code keeps in a local."""
        super()._do_ret(frame, value)
        dest = frame.call_ins.dest if frame.call_ins is not None else None
        if self._frames and dest is not None:
            caller, ret_ty = self._frames[-1], frame.fn.ret_ty
            caller.temps[dest] = _wrap(value, _kind(ret_ty))
            if self.live:
                w = _ref_width(ret_ty)
                caller.tags[dest] = _resize_vec(self.ret_shadow or bytes(w), w)
        return self.exit_value

    def _ref_ret(self, frame, ins):
        fn = frame.fn
        value = 0
        if ins.value is not None:
            value = self._operand_value(frame, ins.value, fn.ret_ty)
        if self.live:
            if ins.value is not None:
                self.ret_shadow = self._operand_tags(
                    frame, ins.value, _ref_width(fn.ret_ty))
                self.shadow_ops_instr += 1
            else:
                self.ret_shadow = b""
        return self._do_ret(frame, value)


def outcome(cls, module, entry, args, *, arg_tags=None, before=None, **kw):
    """Everything a run leaves behind: its RunReport or how it stopped,
    the counters, final memory and the pages marked written, the Tagmap
    pages that hold a nonzero tag (an all-zero page reads as an absent one),
    ret_shadow, sink hits, and a trap's detail."""
    m, detail = cls(module, **kw), None
    if before is not None:
        before(m)
    try:
        exit_value = m.call_entry(entry, list(args), arg_tags)
    except MachineTrap as e:
        result, detail = ("trap", e.kind, e.instr), e.detail
    except (OverflowError, ValueError) as e:    # an inf or NaN read as an int,
        result = (type(e).__name__,)            # or a float beyond f32
    else:
        result = RunReport(
            exit_value, m.shadow_ops_instr, m.shadow_ops_rules, m.instr_total,
            m.instr_unins, tuple(m.tagmap.nonzero_bytes()), tuple(m.sink_hits),
            _fold(m.ret_shadow))
    return (result, m.instr_total, m.instr_unins, m.shadow_ops_instr,
            m.shadow_ops_rules, bytes(m.memory), sorted(m.memory.dirty),
            {p: bytes(page) for p, page in m.tagmap.pages.items() if any(page)},
            m.ret_shadow, tuple(m.sink_hits), m.live, detail)


def assert_same_runs(module, entry, args, rules=None, **kw):
    """Both interpreters, both modes: identical outcomes, also from a
    second machine of each, which runs the code the first one's left in its
    module's table.  Returns the compiled interpreter's outcome per mode."""
    mem_size = kw.pop("mem_size", DEFAULT_MEMORY)
    got = {}
    for mode in ("instr", "hybrid"):
        decoded = outcome(Machine, module, entry, args, mode=mode,
                          rule_programs=rules, mem_size=mem_size, **kw)
        reference = outcome(ReferenceMachine, module, entry, args, mode=mode,
                            rule_programs=rules, mem_size=mem_size, **kw)
        assert decoded[0] == reference[0], (mode, decoded[0], reference[0])
        assert decoded == reference, mode
        for cls in (Machine, ReferenceMachine):
            assert outcome(cls, module, entry, args, mode=mode, rule_programs=rules,
                           mem_size=mem_size, **kw) == decoded, (cls.__name__, mode)
        got[mode] = decoded
    return got


_INT_TYPES = ("i8", "u8", "i16", "u16", "i32", "u32", "i64", "u64", "char")
_FLOAT_TYPES = ("f32", "f64")
_INT_OP_NAMES = ("add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl",
            "shr", "cmp")
_FLOAT_OP_NAMES = ("add", "sub", "mul", "div", "rem", "cmp")

HELPERS = """\
global @gv : [8 x i32]

fn @h(%x: i32, %y: u8) -> i16 library {
entry:
  %s = add i32 %x, %y
  %p = alloca i32
  store i32 %s, %p
  %v = load i32, %p
  ret i16 %v
}

fn @k(%x: f64, %y: i8) -> i64 {
entry:
  %r = mul f64 %x, 2.5
  %c = cmp i8 %y, 0
  br %c, zero, other
zero:
  ret i64 %r
other:
  %q = div i8 100, %y
  ret i64 %q
}
"""


@st.composite
def typed_function(draw):
    """A random well-formed entry `@f` over mixed int, char and float types:
    operands read as other types than they were made with, a global's
    address as an operand of any type, every binop
    (division by a drawn zero, float bit operations), stores and loads of
    other widths through allocas and an array gep, calls to two helpers,
    and a branch to two returns.  Returns (source, entry argument count)."""
    n_params = draw(st.integers(1, 3))
    temps = []          # (name, type)
    params = []
    for i in range(n_params):
        ty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
        params.append(f"%p{i}: {ty}")
        temps.append((f"p{i}", ty))
    lines = ["  %pad = alloca [16 x char]"]     # wide loads stay in bounds

    def operand(ty):
        pick = draw(st.integers(0, 19))
        if pick < 14:
            return "%" + draw(st.sampled_from(temps))[0]
        if pick < 16:
            return "@gv"        # an address, read as any type
        if ty in _FLOAT_TYPES:
            return draw(st.sampled_from(("0.0", "1.5", "-2.25", "1.0e30", "3.0")))
        return str(draw(st.sampled_from((0, 1, -1, 2, 7, 127, 128, 255, 256,
                                         -129, 65537, 2 ** 31, 2 ** 40))))

    for i in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("binop", "binop", "memory", "array", "call")))
        if kind == "binop":
            ty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
            ops = _FLOAT_OP_NAMES if ty in _FLOAT_TYPES else _INT_OP_NAMES
            op = draw(st.sampled_from(ops + (("xor",) if ty in _FLOAT_TYPES
                                             and draw(st.booleans()) else ())))
            lines.append(f"  %t{i} = {op} {ty} {operand(ty)}, {operand(ty)}")
            temps.append((f"t{i}", ty))
        elif kind == "memory":
            sty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
            lty = draw(st.sampled_from((sty,) + _INT_TYPES + _FLOAT_TYPES))
            lines.append(f"  %a{i} = alloca {sty}")
            lines.append(f"  store {sty} {operand(sty)}, %a{i}")
            lines.append(f"  %t{i} = load {lty}, %a{i}")
            temps.append((f"t{i}", lty))
        elif kind == "array":
            ety = draw(st.sampled_from(("i32", "char", "u16")))
            lines.append(f"  %a{i} = alloca [4 x {ety}]")
            lines.append(f"  %j{i} = and i64 {operand('i64')}, 3")
            lines.append(f"  %g{i} = gep [4 x {ety}], %a{i}, 0, %j{i}")
            lines.append(f"  store {ety} {operand(ety)}, %g{i}")
            lines.append(f"  %t{i} = load {ety}, %g{i}")
            temps.append((f"t{i}", ety))
        elif draw(st.booleans()):
            lines.append(f"  %t{i} = call i16 @h({operand('i32')}, {operand('u8')})")
            temps.append((f"t{i}", "i16"))
        else:
            lines.append(f"  %t{i} = call i64 @k({operand('f64')}, {operand('i8')})")
            temps.append((f"t{i}", "i64"))
    rty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
    lines.append(f"  br {operand('i64')}, a, b")
    lines += ["a:", f"  ret {rty} {operand(rty)}", "b:", f"  ret {rty} {operand(rty)}"]
    src = (HELPERS + f"\nfn @f({', '.join(params)}) -> {rty} {{\nentry:\n"
           + "\n".join(lines) + "\n}\n")
    return src, n_params


# scalar parameter sources of the helpers: `_apply_sources` resizes the
# caller's tag vector of the argument to the parameter's width
LOOP_CFG = TaintConfig.from_json({
    "sources": [{"fn": "h", "where": "param", "index": 0, "label": 2},
                {"fn": "k", "where": "param", "index": 1, "label": 4}],
    "sinks": [{"fn": "h", "index": 1}]})


@st.composite
def looped_function(draw):
    """A random entry `@f` around a loop of at most three iterations whose
    body calls @h or @k, so a segment ends mid-loop and another starts
    after the call.  The counter and an accumulator are redefined in every
    iteration, the accumulator with a drawn type each time; `%once` is
    defined on one branch only and may be read after the join or the loop,
    which traps as undefined on a path that skipped it; and the call passes
    temps of other widths than the helper's parameters, whose tag vectors
    `LOOP_CFG`'s sources resize.  The loop's header may hold a call too,
    so no `jmp` into it copies it, and its join block may loop on itself,
    counting the counter down to below zero, with or without the call.  A
    temp the call passes where a source widens it may be read just after.
    Returns (source, entry argument count)."""
    n_params = draw(st.integers(1, 3))
    params, temps = ["%p0: i64"], [("p0", "i64")]
    for i in range(1, n_params):
        ty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
        params.append(f"%p{i}: {ty}")
        temps.append((f"p{i}", ty))
    counter = [0]

    def operand(ty):
        pick = draw(st.integers(0, 9))
        if pick < 7:
            return "%" + draw(st.sampled_from(temps))[0]
        if ty in _FLOAT_TYPES:
            return draw(st.sampled_from(("0.0", "1.5", "-2.25")))
        return str(draw(st.sampled_from((0, 1, -1, 7, 255, 2 ** 31))))

    def define(name, lhs=None):
        """Lines defining `name` by a binop, whose left operand is `lhs`
        when given, or by a store to %pad and a load of another type."""
        ty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
        ops = _FLOAT_OP_NAMES if ty in _FLOAT_TYPES else _INT_OP_NAMES
        lhs = lhs or operand(ty)
        if draw(st.booleans()):
            out = [f"  %{name} = {draw(st.sampled_from(ops))} {ty} {lhs}, {operand(ty)}"]
        else:
            sty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
            out = [f"  store {sty} {operand(sty)}, %pad", f"  %{name} = load {ty}, %pad"]
        temps.append((name, ty))
        return out

    def steps():
        out = []
        for _ in range(draw(st.integers(0, 3))):
            counter[0] += 1
            out += define(f"t{counter[0]}")
        return out

    def call():
        if draw(st.booleans()):
            arg = operand('i32')
            line = f"  %c = call i16 @h({arg}, {operand('u8')})"
        else:
            arg = operand('i8')
            line = f"  %c = call i64 @k({operand('f64')}, {arg})"
        temps.append(("c", "i16" if "@h" in line else "i64"))
        if not arg.startswith("%") or draw(st.booleans()):
            return [line]
        counter[0] += 1         # reads the argument a source widened
        temps.append((f"t{counter[0]}", "i64"))
        return [line, f"  %t{counter[0]} = or i64 {arg}, 0"]

    entry = ["  %pad = alloca [16 x char]", "  %cnt = and i64 %p0, 3"]
    entry += define("acc") + steps() + ["  jmp head"]
    shape = draw(st.sampled_from(("header", "called header", "self-looped join")))
    head = ["  %z = cmp i64 %cnt, 0", "  br %z, exit, body"]
    if shape == "called header":
        head[:0] = call()
    body = ["  %cnt = sub i64 %cnt, 1"] + steps()
    early = draw(st.booleans())        # the call before the branch, or after the join
    body += (call() if early else []) + [f"  br {operand('i64')}, then, join"]
    then = define("once") + ["  jmp join"]
    if not draw(st.booleans()):     # %once is never read
        temps.pop()
    join = steps() + ([] if early else call()) + steps() + define("acc", "%acc")
    join += (["  %y = cmp i64 %cnt, 0", "  %cnt = sub i64 %cnt, 1", "  br %y, exit, join"]
             if shape == "self-looped join" else ["  jmp head"])
    rty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
    blocks = {"entry": entry, "head": head, "body": body, "then": then, "join": join,
              "exit": [f"  ret {rty} {operand(rty)}"]}
    src = (HELPERS + f"\nfn @f({', '.join(params)}) -> {rty} {{\n"
           + "".join(f"{label}:\n" + "\n".join(lines) + "\n" for label, lines in blocks.items())
           + "}\n")
    return src, n_params


_SLOT_TYPES = _INT_TYPES + ("ptr(char)", "ptr(i64)")
_SLOT_OPS = ("load", "load", "store", "store", "zero", "wild load", "wild store",
             "saved", "call", "put", "divide", "mix", "stray")
# what a function whose slots may fold leaves out: a call or a store to memory
_UNFOLDING = ("wild store", "saved", "call", "put")
# a fold-read draw's loads of a slot, in place of "load": one read only as its
# fold at the slot's width or wider, or one that keeps the slot from it
_FOLD_READ_OPS = ("fold", "fold", "leak")
# @put reads and writes through its pointer, and `SLOT_CFG` makes it a sink
# and, on the memory behind it, a source
PUT = """
fn @put(%p: ptr(i64), %v: i64) -> i64 library {
entry:
  %o = load i64, %p
  store i64 %v, %p
  ret i64 %o
}
"""
SLOT_CFG = TaintConfig(LOOP_CFG.sources + (SourceSpec("put", "param", 0, 8),),
                       LOOP_CFG.sinks + (SinkSpec("put", 0),))


@st.composite
def slotted_function(draw, fold_read=False):
    """A random entry `@f` whose scalar allocas are all promoted: a loop of
    at most three iterations whose counter is the slot %ctr, and in the
    entry, loop body and exit, drawn steps on the slots (%sp, a `ptr(char)`,
    and one to three of other drawn types): loads, which may come before any
    store; stores of temps of any type and of tainted values then zero;
    loads and stores of any width through a gep off the escaped
    `[16 x char]` %buf with a drawn offset, which may land on a slot, just
    below the lowest one, in %buf or past the top of memory, directly or
    through a pointer saved in %sp, or through a gep within 8 bytes of the
    first global, at the bottom of memory; calls to @h and @k, and to @put,
    which writes through such a pointer; divisions that may trap; binops
    over operands of any width, narrower ones too; and rare loads through
    %p0, which trap out of bounds.  The loop is a header before the body,
    or a header holding a call, which no `jmp` into it copies, or a body
    that branches to itself.  Or, so that slots may keep int tags, no step
    calls or stores to memory and the header holds no call.  With
    `fold_read`, parameters of widths 1, 2, 4 and 8 follow %p0 and each slot
    first stores one of them, every load of a slot is a "fold" or a "leak"
    (`_FOLD_READ_OPS`), and the loop body starts with a call to @put.
    Returns (source, entry argument count, slot names, and with `fold_read`
    %ctr and the slots no leak loads, else None)."""
    params, temps = ["%p0: i64"], [("p0", "i64")]
    widths = [("i8", "u8", "char"), ("i16", "u16"), ("i32", "u32"), ("i64", "u64")]
    for i in range(1, 5 if fold_read else draw(st.integers(1, 3))):
        ty = draw(st.sampled_from(widths[i - 1] if fold_read else _INT_TYPES + _FLOAT_TYPES))
        params.append(f"%p{i}: {ty}")
        temps.append((f"p{i}", ty))
    slots = [("sp", "ptr(char)")] + [(f"s{j}", draw(st.sampled_from(_SLOT_TYPES)))
                                     for j in range(draw(st.integers(1, 3)))]
    counter, folding, leaked = [0], not fold_read and draw(st.booleans()), set()
    kinds = [k for k in _SLOT_OPS if not (folding and k in _UNFOLDING)]
    if fold_read:
        kinds = [k for k in kinds if k != "load"] + list(_FOLD_READ_OPS)

    def operand(ty):
        if draw(st.integers(0, 9)) < 7:
            return "%" + draw(st.sampled_from(temps))[0]
        if ty in _FLOAT_TYPES:
            return draw(st.sampled_from(("0.0", "1.5", "-2.25")))
        return str(draw(st.sampled_from((0, 1, -1, 7, 255, 2 ** 31))))

    def wild():
        counter[0] += 1
        w = f"w{counter[0]}"
        if draw(st.integers(0, 5)) == 0:    # at the bottom of memory: @gv is the first global
            return w, [f"  %{w}e = gep [8 x i32], @gv, 0, 0",
                       f"  %{w} = gep char, %{w}e, {draw(st.integers(-8, 8))}"]
        return w, [f"  %{w} = gep [16 x char], %buf, 0, {draw(st.integers(-64, 16))}"]

    def steps():
        out = []
        for _ in range(draw(st.integers(0, 5))):
            counter[0] += 1
            t = f"t{counter[0]}"
            kind = draw(st.sampled_from(kinds))
            slot, sty = draw(st.sampled_from(slots + [("ctr", "i64")] * (kind == "load")))
            wty = draw(st.sampled_from(_INT_TYPES))
            if kind == "load":
                out.append(f"  %{t} = load {sty}, %{slot}")
                temps.append((t, sty))
            elif kind == "fold":        # the loaded tag read through a binop or gep alone
                uty = sty if sty.startswith("ptr") else draw(st.sampled_from(
                    [ty for ty in _INT_TYPES if _size(ty) >= _size(sty)]))
                out += [f"  %{t} = load {sty}, %{slot}",
                        f"  %{t}u = gep char, %{t}, {operand('i64')}" if uty.startswith("ptr")
                        else f"  %{t}u = {draw(st.sampled_from(('add', 'xor', 'mul')))} {uty}"
                        f" %{t}, {operand(uty)}", f"  store {sty} %{t}u, %{slot}"]
                temps.append((f"{t}u", uty))
            elif kind == "leak":        # stored, passed, or read narrower
                leaked.add(slot)
                out.append(f"  %{t} = load {sty}, %{slot}")
                how = draw(st.sampled_from(("store", "put") + ("narrow",) * (_size(sty) > 1)))
                if how == "narrow":
                    nty = draw(st.sampled_from([ty for ty in _INT_TYPES if _size(ty) < _size(sty)]))
                    out.append(f"  %{t}n = add {nty} %{t}, 1")
                    temps.append((f"{t}n", nty))
                else:
                    w, lines = wild()
                    out += lines + [f"  store {sty} %{t}, %{w}" if how == "store"
                                    else f"  %{t}p = call i64 @put(%{w}, %{t})"]
            elif kind in ("store", "zero"):
                value = operand(sty) if kind == "store" else "0"
                out.append(f"  store {sty} {value}, %{slot}")
            elif kind in ("wild load", "wild store"):
                w, lines = wild()
                out += lines + ([f"  %{t} = load {wty}, %{w}"] if kind == "wild load"
                                else [f"  store {wty} {operand(wty)}, %{w}"])
                if kind == "wild load":
                    temps.append((t, wty))
            elif kind == "saved":       # a wild pointer kept in %sp and used later
                w, lines = wild()
                out += lines + [f"  store ptr(char) %{w}, %sp", f"  %{t} = load ptr(char), %sp"]
                out.append(f"  store char {operand('char')}, %{t}" if draw(st.booleans())
                           else f"  %{t}c = load char, %{t}")
            elif kind == "call":
                out.append(f"  %{t} = call i16 @h({operand('i32')}, {operand('u8')})"
                           if draw(st.booleans()) else
                           f"  %{t} = call i64 @k({operand('f64')}, {operand('i8')})")
                temps.append((t, "i64"))
            elif kind == "put":         # the callee writes what %w points at
                w, lines = wild()
                out += lines + [f"  %{t} = call i64 @put(%{w}, {operand('i64')})"]
                temps.append((t, "i64"))
            elif kind in ("divide", "mix"):
                op = "div" if kind == "divide" else draw(st.sampled_from(
                    _INT_OP_NAMES[:3] + _INT_OP_NAMES[5:]))       # no division
                out.append(f"  %{t} = {op} {wty} {operand(wty)}, {operand(wty)}")
                temps.append((t, wty))
            elif draw(st.integers(0, 3)) == 0:      # stray
                out.append(f"  %{t} = load i32, %p0")
        return out

    entry = ["  %buf = alloca [16 x char]", "  %ctr = alloca i64"]
    entry += [f"  %{name} = alloca {ty}" for name, ty in slots]
    entry += [f"  store {ty} {operand(ty)}, %{name}" for name, ty in slots if draw(st.booleans())]
    if fold_read:       # each slot takes a parameter's mixed tag vector
        entry += [f"  store {ty} %p{draw(st.integers(1, 4))}, %{name}" for name, ty in slots]
    entry += ["  %n = and i64 %p0, 3"] + steps() + ["  store i64 0, %ctr", "  jmp head"]
    shape = draw(st.sampled_from(("header", "self-loop") + ("called header",) * (not folding)))
    head = ["  %i = load i64, %ctr", "  %z = cmp i64 %i, %n", "  br %z, exit, body"]
    if shape == "called header":
        head[:0] = [f"  %hc = call i16 @h({operand('i32')}, {operand('u8')})"]
    body = steps() + ["  %i1 = add i64 %i, 1", "  store i64 %i1, %ctr", "  jmp head"]
    if fold_read:       # a call and, through @put, a store that may reach the slots
        w, lines = wild()
        body[:0] = lines + [f"  %{w}p = call i64 @put(%{w}, %p0)"]
    if shape == "self-loop":    # %n + 1 iterations, the test at the bottom
        entry[-1:] = ["  %m = add i64 %n, 1", "  jmp body"]
        head = None
        body[-1:] = ["  %z = cmp i64 %i1, %m", "  br %z, exit, body"]
        body.insert(0, "  %i = load i64, %ctr")
    blocks = {"entry": entry, "head": head, "body": body,
              "exit": steps() + [f"  ret i64 {operand('i64')}"]}
    src = (HELPERS + PUT + f"\nfn @f({', '.join(params)}) -> i64 {{\n"
           + "".join(f"{label}:\n" + "\n".join(lines) + "\n"
                     for label, lines in blocks.items() if lines is not None)
           + "}\n")
    names = ["ctr"] + [name for name, _ in slots]
    return src, len(params), names, set(names) - leaked if fold_read else None


def _arg_values(rng, n):
    return [rng.choice((0, 1, -1, 3, 255, 256, -70000, 2 ** 33, 2 ** 63))
            for _ in range(n)]


def _arg_tags(rng, n):
    return [bytes(rng.randrange(0, 8) for _ in range(rng.choice((1, 2, 8))))
            for _ in range(n)]


SINK_IN_LIBRARY_CFG = TaintConfig.from_json({
    "sources": [{"fn": "fgets_a", "where": "param", "index": 0, "label": 1},
                {"fn": "printf_a", "where": "ret", "label": 4}],
    "sinks": [{"fn": "memcpy", "index": 1}, {"fn": "printf_a", "index": 0}],
})

BUDGETS = st.one_of(st.just(None), st.integers(1, 400))


def _budget(budget):
    return {} if budget is None else {"step_budget": budget}


class TestDecodedMatchesReference:
    """The compiled functions against the step interpreter they replaced:
    the same RunReport, memory, Tagmap pages, ret_shadow and sink hits on
    every run, and the same trap kind and instruction on every trap."""

    @settings(max_examples=60, deadline=None)
    @given(_straightline_function(), st.integers(0, 2 ** 32), BUDGETS)
    def test_random_straight_line_library_functions(self, src, seed, budget):
        m = parse_module(src.replace("-> i64 {", "-> i64 library {", 1))
        rules, _ = compile_library(m)
        n = len(m.functions["f"].params)
        rng = random.Random(seed)
        assert_same_runs(m, "f", _arg_values(rng, n), rules,
                         arg_tags=_arg_tags(rng, n), mem_size=1 << 16,
                         **_budget(budget))

    @settings(max_examples=200, deadline=None)
    @given(typed_function(), st.integers(0, 2 ** 32), BUDGETS)
    def test_random_typed_functions(self, fn_src, seed, budget):
        src, n = fn_src
        m = parse_module(src)
        rules, _ = compile_library(m)
        rng = random.Random(seed)
        assert_same_runs(m, "f", _arg_values(rng, n), rules,
                         arg_tags=_arg_tags(rng, n), mem_size=1 << 16,
                         **_budget(budget))

    @settings(max_examples=150, deadline=None)
    @given(looped_function(), st.integers(0, 2 ** 32), BUDGETS, st.booleans())
    def test_random_looped_functions(self, fn_src, seed, budget, sources):
        src, n = fn_src
        m = parse_module(src)
        rules, _ = compile_library(m)
        rng = random.Random(seed)
        args = _arg_values(rng, n)
        args[0] = rng.randrange(4)      # the iteration count
        assert_same_runs(m, "f", args, rules, arg_tags=_arg_tags(rng, n),
                         taint_config=LOOP_CFG if sources else None, mem_size=1 << 16,
                         **_budget(budget))

    @settings(max_examples=25, deadline=None)
    @given(BUDGETS)
    def test_student_flow(self, student_flow, student_flow_rules, budget):
        for cfg in (None, FLOW_CFG, SINK_IN_LIBRARY_CFG):
            assert_same_runs(student_flow, "main", [], student_flow_rules,
                             taint_config=cfg, mem_size=1 << 20, **_budget(budget))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 40), BUDGETS)
    def test_bench_memcpy(self, bench_memcpy, n, budget):
        rules, _ = compile_library(bench_memcpy)

        def pretaint(m):
            m.tagmap.set_taint(m.global_addr["src_buf"], 3, 24)
        got = assert_same_runs(bench_memcpy, "main", [n], rules, before=pretaint,
                               mem_size=1 << 20, **_budget(budget))
        if budget is None:
            assert got["instr"][0].instr_executed_total == 14 * n + 19

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 30), st.binary(min_size=30, max_size=30), BUDGETS)
    def test_bench_user(self, bench_user, n, data, budget):
        def pretaint(m):
            m.write_bytes(m.global_addr["data"], data)
            m.tagmap.set_taint(m.global_addr["data"] + 5, 2, 9)
        assert_same_runs(bench_user, "main", [n], {}, before=pretaint,
                         mem_size=1 << 20, **_budget(budget))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(corpus.DRIVERS)), st.integers(0, 2 ** 32),
           BUDGETS)
    def test_libcorpus_functions(self, libcorpus, lib_rules, fn, seed, budget):
        plan = build_plan(libcorpus, fn, random.Random(seed))
        tags = random.Random(seed + 1)

        def materialized(m):
            args, regions = materialize_plan(m, plan)
            for region in regions:
                if region is not None:
                    m.tagmap.set_vector(region[0], bytes(
                        tags.randrange(0, 4) for _ in range(region[1])))
            return args
        args = materialized(Machine(libcorpus, mem_size=1 << 20))
        for mode in ("instr", "hybrid"):
            runs = []
            for cls in (Machine, ReferenceMachine):
                tags.seed(seed + 1)
                runs.append(outcome(cls, libcorpus, fn, args, mode=mode,
                                    rule_programs=lib_rules, mem_size=1 << 20,
                                    before=materialized, **_budget(budget)))
            assert runs[0] == runs[1], (fn, mode)


TRAPS = {
    "division by zero": ("""fn @main(%a: i32) -> i32 {
entry:
  %x = add i32 %a, 1
  %y = div i32 7, %a
  ret i32 %y
}
""", [0], {}),
    "out-of-bounds access": ("""fn @main(%a: i64) -> i32 {
entry:
  %v = load i32, %a
  ret i32 %v
}
""", [16], {}),
    "stack overflow (frame cap)": ("""fn @r(%n: i64) -> i64 {
entry:
  %m = add i64 %n, 1
  %x = call i64 @r(%m)
  ret i64 %x
}
fn @main(%a: i64) -> i64 {
entry:
  %x = call i64 @r(%a)
  ret i64 %x
}
""", [1], {}),
    "stack overflow": ("""fn @main(%a: i64) -> i32 {
entry:
  jmp l
l:
  %x = alloca [512 x char]
  %p = gep [512 x char], %x, 0, 3
  store char %a, %p
  jmp l
}
""", [5], {"mem_size": 1 << 16}),
    "step budget exhausted": ("""fn @main(%a: i64) -> i32 {
entry:
  jmp l
l:
  %b = add i64 %a, 1
  jmp l
}
""", [5], {"step_budget": 333}),
}


class TestTrapsMatchReference:
    @pytest.mark.parametrize("kind", sorted(TRAPS))
    def test_trap(self, kind):
        src, args, kw = TRAPS[kind]
        m = parse_module(src)
        got = assert_same_runs(m, "main", args, {}, arg_tags=[b"\x01"] * len(args),
                               **kw)
        assert got["instr"][0][:2] == ("trap", kind)


RECURSE = """\
fn @down(%n: i64) -> i64 {
entry:
  %z = cmp i64 %n, 0
  br %z, done, more
more:
  %m = sub i64 %n, 1
  %r = call i64 @down(%m)
  %s = add i64 %r, 1
  ret i64 %s
done:
  ret i64 %n
}
"""


class TestFrameCap:
    """Each IR frame runs in one Python frame, so the deepest recursion the
    frame cap admits stays under CPython's recursion limit, and one call
    deeper traps with the step interpreter's counters."""

    def test_deepest_recursion_completes(self):
        depth = MAX_FRAMES - 1      # calls below the entry's frame
        got = assert_same_runs(parse_module(RECURSE), "down", [depth], {},
                               arg_tags=[b"\x01"])
        for mode, result in got.items():
            assert result[0].exit_value == depth and result[0].ret_tag == 1, mode

    def test_one_call_deeper_traps(self):
        got = assert_same_runs(parse_module(RECURSE), "down", [MAX_FRAMES], {},
                               arg_tags=[b"\x01"])
        for mode, result in got.items():
            assert result[0] == ("trap", "stack overflow (frame cap)", "down:3"), mode


MID_SEGMENT_TRAPS = {      # kind: (source, entry args, uid, Machine keywords)
    "division by zero": ("""fn @lib(%a: i32) -> i64 library {
entry:
  %p = alloca i32
  %x = add i32 %a, 1
  store i32 %x, %p
  %y = div i32 7, %a
  %z = add i32 %y, %x
  ret i64 %z
}
""", [0], "lib:3", {}),
    "out-of-bounds access": ("""fn @lib(%a: i64) -> i64 library {
entry:
  %p = alloca i64
  store i64 %a, %p
  %q = load i64, %p
  %v = load i32, %q
  %w = add i32 %v, 1
  ret i64 %w
}
""", [16], "lib:3", {}),
    "out-of-bounds store": ("""fn @lib(%a: i64) -> i64 library {
entry:
  %p = alloca i64
  store i64 %a, %p
  %q = load i64, %p
  store i32 7, %q
  %w = add i64 %q, 1
  ret i64 %w
}
""", [-8], "lib:3", {}),
    "stack overflow": ("""fn @lib(%a: i64) -> i64 library {
entry:
  %p = alloca i64
  store i64 %a, %p
  %big = alloca [70000 x char]
  %q = load i64, %p
  ret i64 %q
}
""", [5], "lib:2", {"mem_size": 1 << 16}),
    "stack overflow (frame cap)": ("""fn @lib(%n: i64) -> i64 library {
entry:
  %p = alloca i64
  %m = add i64 %n, 1
  store i64 %m, %p
  %x = call i64 @lib(%m)
  ret i64 %x
}
""", [1], "lib:3", {}),
    "undefined temporary": ("""fn @lib(%a: i32) -> i64 library {
entry:
  %p = alloca i32
  store i32 %a, %p
  %y = add i32 %later, 1
  %later = add i32 %a, 2
  ret i64 %y
}
""", [3], None, {}),
    "malformed gep": ("""fn @lib(%a: i64) -> i64 library {
entry:
  %p = alloca i64
  store i64 %a, %p
  %g = gep i64, %p, 0, 1
  %q = load i64, %p
  ret i64 %q
}
""", [3], "lib:2", {}),
}
MAIN_CALLS_LIB = """
fn @main(%a: i64) -> i64 {
entry:
  %s = alloca i64
  store i64 %a, %s
  %x = call i64 @lib(%a)
  ret i64 %x
}
"""


COPIED_HEADER_TRAP = """fn @lib(%a: i64) -> i64 library {
entry:
  %k = alloca i64
  store i64 0, %k
  jmp head
head:
  %i = load i64, %k
  %p = add i64 %a, %i
  %v = load u8, %p
  %z = cmp i64 %i, 3
  br %z, done, body
body:
  %i1 = add i64 %i, 1
  store i64 %i1, %k
  jmp head
done:
  ret i64 %v
}
"""


WARM_UNDEFINED = """\
fn @f(%a: i64) -> i64 {
entry:
  %c = cmp i64 %a, 0
  br %c, def, use
def:
  %x = add i64 %a, 1
  jmp use
use:
  %y = add i64 %a, 2
  %z = add i64 %x, %y
  ret i64 %z
}
"""


# %t is defined only on the branch an argument of 0 skips
STORE_UNDEFINED = """\
global @gv : [8 x i32]

fn @f(%n: i64) -> i64 {{
entry:
{slot}  %z = cmp i64 %n, 0
  br %z, exit, body
body:
  %t = load i8, @gv
  jmp exit
exit:
  %e = gep [8 x i32], @gv, 0, 0
  %w = gep char, %e, -1
  store i8 %t, %w
  ret i64 %n
}}
"""


class TestExactTraps:
    """Every trap inside a segment leaves the instruction counts, shadow-op
    counts, memory and Tagmap the step interpreter leaves, as does a step
    budget that runs out at any instruction of any segment."""

    @pytest.mark.parametrize("kind", sorted(MID_SEGMENT_TRAPS))
    def test_trap_inside_a_segment(self, kind):
        src, args, uid, kw = MID_SEGMENT_TRAPS[kind]
        m = parse_module(src + MAIN_CALLS_LIB)
        if uid is not None:     # after the first of its segment, before the last
            writer = _Writer(_shared(m), m.functions["lib"], True, DEFAULT_MEMORY)
            seg = next(seg for _, seg in writer.segs if uid in [i.uid for i in seg])
            pos = [i.uid for i in seg].index(uid)
            assert 0 < pos < len(seg) - (kind != "stack overflow (frame cap)"), seg
        rules, _ = compile_library(m)
        for entry in ("lib", "main"):
            got = assert_same_runs(m, entry, args, rules,
                                   arg_tags=[b"\x01"] * len(args), **kw)
            want = kind if kind != "out-of-bounds store" else "out-of-bounds access"
            assert got["instr"][0] == ("trap", want, uid), (entry, got["instr"][0])
            if entry == "main" and rules:   # a recursive @lib gets no summary
                assert got["hybrid"][2] > 0     # counted while untracked

    @pytest.mark.parametrize("entry, a, counts", [
        ("lib", 16, {"instr": (6, 0, 3), "hybrid": (6, 6, 0)}),
        ("lib", (1 << 16) - 2, {"instr": (22, 0, 15), "hybrid": (22, 22, 0)}),
        ("main", 16, {"instr": (9, 0, 5), "hybrid": (9, 6, 2)}),
        ("main", (1 << 16) - 2, {"instr": (25, 0, 17), "hybrid": (25, 22, 2)})])
    def test_trap_in_a_copied_loop_header(self, entry, a, counts):
        """The loop header's out-of-bounds load runs in the copies that
        end the entry block (at %a 16) and the body (two rounds later),
        each one run with the block before it: the trap leaves the
        (instructions, uninstrumented ones, shadow ops) of the step
        interpreter."""
        m = parse_module(COPIED_HEADER_TRAP + MAIN_CALLS_LIB)
        writer = _Writer(_shared(m), m.functions["lib"], True, DEFAULT_MEMORY)
        for b in (0, 2):        # entry and body, each with the header after its `jmp`
            run = writer.run(writer.starts[b])
            assert len(run) == len(writer.segs[writer.starts[b]][1]) + 5
            assert "lib:5" in [ins.uid for ins in run]
        rules, _ = compile_library(m)
        assert "lib" in rules
        got = assert_same_runs(m, entry, [a], rules, arg_tags=[b"\x01"], mem_size=1 << 16)
        for mode, run in got.items():
            assert run[0] == ("trap", "out-of-bounds access", "lib:5"), mode
            assert run[1:4] == counts[mode], mode

    def test_undefined_read_in_warm_code(self):
        """Once a function's code is warm the interpreter fuses the read of
        `%x`'s local with the store of `%y`'s before it, and reports the
        failed read on the store's line; the trap still counts the read."""
        m = parse_module(WARM_UNDEFINED)
        want = {mode: outcome(ReferenceMachine, m, "f", [1], mode=mode, mem_size=1 << 16)
                for mode in ("instr", "hybrid")}
        assert want["instr"][:2] == (("trap", "undefined temporary", None), 4)
        for _ in range(20):
            for mode, reference in want.items():
                assert outcome(Machine, m, "f", [1], mode=mode, mem_size=1 << 16) == reference, mode

    @pytest.mark.parametrize("slot", ["", "  %s = alloca i64\n  store i64 %n, %s\n"],
                             ids=["no-slot", "slot"])
    def test_store_of_an_undefined_temp_out_of_bounds(self, slot):
        """A store reads its value before it checks its address: a temp no
        path defined, stored below memory, traps as undefined, with or
        without a promoted slot held, at every step budget."""
        m = parse_module(STORE_UNDEFINED.format(slot=slot))
        assert bool(_Writer(_shared(m), m.functions["f"], True, DEFAULT_MEMORY).slots) == bool(slot)
        total = outcome(ReferenceMachine, m, "f", [0], mem_size=1 << 16)[1]
        for budget in range(1, total + 2):
            got = assert_same_runs(m, "f", [0], arg_tags=[b"\x01"], mem_size=1 << 16,
                                   step_budget=budget)
            if budget >= total:
                assert got["instr"][0] == ("trap", "undefined temporary", None)

    def test_every_budget_on_bench_memcpy(self, bench_memcpy):
        rules, _ = compile_library(bench_memcpy)

        def pretaint(m):
            m.tagmap.set_taint(m.global_addr["src_buf"], 3, 24)
        total = assert_same_runs(bench_memcpy, "main", [3], rules, before=pretaint,
                                 mem_size=1 << 20)["instr"][0].instr_executed_total
        for budget in range(1, total + 2):
            got = assert_same_runs(bench_memcpy, "main", [3], rules, before=pretaint,
                                   mem_size=1 << 20, step_budget=budget)
            result = got["instr"][0]
            assert (result[:2] == ("trap", "step budget exhausted") if budget < total
                    else isinstance(result, RunReport))
            assert got["instr"][1] == min(budget + 1, total)

    def test_every_budget_on_bench_user(self, bench_user):
        """Its loop runs as an inner `while`; a budget may run out in the
        copy of the loop's header at the end of the entry block or of the
        body."""
        def pretaint(m):
            m.write_bytes(m.global_addr["data"], b"\x07\x00\xff\x10")
            m.tagmap.set_taint(m.global_addr["data"] + 1, 2, 2)
        total = assert_same_runs(bench_user, "main", [4], {}, before=pretaint,
                                 mem_size=1 << 20)["instr"][0].instr_executed_total
        for budget in range(1, total + 2):
            got = assert_same_runs(bench_user, "main", [4], {}, before=pretaint,
                                   mem_size=1 << 20, step_budget=budget)
            result = got["instr"][0]
            assert (result[:2] == ("trap", "step budget exhausted") if budget < total
                    else result.exit_value == 0x07 + 0xff + 0x10)
            assert got["instr"][1] == min(budget + 1, total)

    def test_every_budget_on_strcpy_a(self, libcorpus, lib_rules):
        """A loop that branches back to itself, copied once into the entry
        block, in both modes and against the step interpreter."""
        def materialized(m):
            d, s = m.alloc(8), m.alloc(8)
            m.write_bytes(s, b"abcd\0")
            m.tagmap.set_taint(s + 1, 3, 2)
            return [d, s]
        args = materialized(Machine(libcorpus, mem_size=1 << 20))
        total = Machine(libcorpus, mem_size=1 << 20)
        total.call_entry("strcpy_a", materialized(total))
        assert total.instr_total == 5 + 10 * 5 + 1
        for budget in range(1, total.instr_total + 2):
            for mode in ("instr", "hybrid"):
                runs = [outcome(cls, libcorpus, "strcpy_a", args,
                                mode=mode, rule_programs=lib_rules, mem_size=1 << 20,
                                before=materialized, step_budget=budget)
                        for cls in (Machine, ReferenceMachine)]
                assert runs[0] == runs[1], (budget, mode)

    def test_every_budget_on_a_libcorpus_function(self, libcorpus, lib_rules):
        plan = build_plan(libcorpus, "enroll", random.Random(3))

        def materialized(m):
            args, regions = materialize_plan(m, plan)
            m.tagmap.set_taint(regions[0][0], 5, regions[0][1])
            return args
        args = materialized(Machine(libcorpus, mem_size=1 << 20))
        total = Machine(libcorpus, mem_size=1 << 20)
        total.call_entry("enroll", materialized(total))
        for budget in range(1, total.instr_total + 2):
            for mode in ("instr", "hybrid"):
                runs = [outcome(cls, libcorpus, "enroll", args, mode=mode,
                                rule_programs=lib_rules, mem_size=1 << 20,
                                before=materialized, step_budget=budget)
                        for cls in (Machine, ReferenceMachine)]
                assert runs[0] == runs[1], (budget, mode)


class TestMachineLifetime:
    """Compiled functions take the machine as an argument; a machine that
    held its compiled code through functions closing over it would stay
    alive, with its 16 MiB mapping, until a cyclic collection."""

    def test_freed_by_reference_counting(self, bench_memcpy, student_flow,
                                         student_flow_rules):
        enabled = gc.isenabled()
        gc.disable()
        try:
            m = Machine(bench_memcpy, mode="instr")
            m.call_entry("main", [64])
            refs = weakref.ref(m), weakref.ref(m.memory)
            del m
            assert refs[0]() is None and refs[1]() is None
            m = Machine(student_flow, mode="hybrid", rule_programs=student_flow_rules,
                        taint_config=FLOW_CFG)
            m.call_entry("main", [])
            refs = weakref.ref(m), weakref.ref(m.memory)
            del m
            assert refs[0]() is None and refs[1]() is None
            m = Machine(parse_module(TRAPS["division by zero"][0]))
            try:
                m.call_entry("main", [0])
            except MachineTrap:
                pass
            refs = weakref.ref(m), weakref.ref(m.memory)
            del m
            assert refs[0]() is None and refs[1]() is None
        finally:
            if enabled:
                gc.enable()


    def test_freed_while_its_image_lives(self, student_flow, student_flow_rules):
        """The module's table entry keeps its compiled functions and bound
        rules after each of its machines is gone, so it must hold none of
        them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for mode, budget in (("instr", None), ("hybrid", None), ("hybrid", 100)):
                m = Machine(student_flow, mode=mode, rule_programs=student_flow_rules,
                            mem_size=1 << 16, taint_config=FLOW_CFG, **_budget(budget))
                try:
                    m.call_entry("main", [])
                except MachineTrap:
                    pass
                ref = weakref.ref(m)
                del m
                assert ref() is None, (mode, budget)
        finally:
            if enabled:
                gc.enable()
        assert {("memcpy", False, 1 << 16), ("memcpy", True, 1 << 16)} <= set(
            _shared(student_flow).code)


LAYOUT = """\
global @pad : [{pad} x char]
global @buf : [4 x i64]

fn @f(%i: i64, %p: ptr(i64)) -> i64 {{
entry:
  %g = gep [4 x i64], @buf, 0, %i
  store i64 %i, %g
  %v = load i64, %p
  %w = load i64, %g
  %s = add i64 %v, %w
  ret i64 %s
}}
"""


class TestRegions:
    """A function's code is one region: one generated function, with its
    temps in locals, that an IR call leaves only for the callee's."""

    def test_memcpy_loop_is_one_region(self, bench_memcpy):
        for name in ("memcpy", "main"):
            writer = _Writer(_shared(bench_memcpy), bench_memcpy.functions[name], True,
                             DEFAULT_MEMORY)
            writer.code()
            assert [line for line in writer.src if not line.startswith(" ")] == [
                "def F(m, f):"]
        source = "\n".join(writer.src)      # main's: its call returns into it
        assert "v_r = c.code(m, c)" in source
        assert re.findall(r"\bt\[.*", source) == ["t['n']; g_n = tg['n']"]

    def test_bench_user_loop_reads_no_frame_temp(self, bench_user):
        writer = _Writer(_shared(bench_user), bench_user.functions["main"], True, DEFAULT_MEMORY)
        writer.code()
        source = "\n".join(writer.src)
        assert "tg.get(" not in source and "t['i']" not in source
        assert "t['n']" in source     # the parameter, once at entry


CLEARED_SLOT = """fn @f(%p0: i8) -> i64 {
entry:
  %s0 = alloca i8
  store i8 %p0, %s0
  store i8 0, %s0
  ret i64 0
}
"""
# @f's slots hold constants, binops and bytes of @buf, so their tags stay
# uniform; %o reads %wp and %bp, just above %pad, and when %i is 8 the load
# at %q runs past the top of a 64 KiB memory
FOLDED_SLOTS = """global @buf : [8 x char] = bytes(9, 8, 7, 6, 5, 4, 3, 2)
fn @f(%n: i64) -> i64 {
entry:
  %ip = alloca i64
  %bp = alloca i8
  %wp = alloca i32
  %pad = alloca [8 x char]
  %over = gep [8 x char], %pad, 0, 8
  store i64 0, %ip
  jmp head
head:
  %i = load i64, %ip
  %z = cmp i64 %i, %n
  br %z, done, body
body:
  %s = gep [8 x char], @buf, 0, %i
  %e = cmp i64 %i, 8
  %k = mul i64 %e, 65536
  %q = gep char, %s, %k
  %c = load char, %q
  %b = load i8, %bp
  %b1 = or i8 %b, %c
  store i8 %b1, %bp
  %o = load i64, %over
  %w = load i32, %wp
  %w0 = add i32 %w, %c
  %w1 = add i32 %w0, %o
  store i32 %w1, %wp
  %i1 = add i64 %i, 1
  store i64 %i1, %ip
  jmp head
done:
  %w2 = load i32, %wp
  %b2 = load i8, %bp
  %r = add i64 %w2, %b2
  ret i64 %r
}
"""
SPILLED_SLOT = """fn @boom(%d: i64) -> i64 {
entry:
  %q = div i64 1, %d
  ret i64 %q
}

fn @f(%x: i64, %d: i64) -> i64 {
entry:
  %s = alloca i64
  store i64 %x, %s
  %r = call i64 @boom(%d)
  %v = add i64 %x, %d
  store i64 %v, %s
  %e = sub i64 %r, 1
  %z = div i64 %r, %e
  %w = load i64, %s
  ret i64 %w
}
"""


class TestPromotedSlots:
    """Scalar allocas used only by their own loads and stores live in
    locals; memory, Tagmap pages, counters and traps stay the step
    interpreter's."""

    @settings(max_examples=300, deadline=None)
    @given(slotted_function(), st.integers(0, 2 ** 32), BUDGETS, st.booleans())
    def test_random_slotted_functions(self, fn_src, seed, budget, sources):
        src, n, slots, _ = fn_src
        m = parse_module(src)
        for live in (True, False):
            assert list(_Writer(_shared(m), m.functions["f"], live, DEFAULT_MEMORY).slots) == slots
        rules, _ = compile_library(m)
        rng = random.Random(seed)
        assert_same_runs(m, "f", _arg_values(rng, n), rules, arg_tags=_arg_tags(rng, n),
                         taint_config=SLOT_CFG if sources else None, mem_size=1 << 16,
                         **_budget(budget))

    @settings(max_examples=200, deadline=None)
    @given(slotted_function(fold_read=True), st.integers(0, 2 ** 32), BUDGETS, st.booleans())
    def test_fold_read_slots(self, fn_src, seed, budget, sources):
        """A slot whose loads' tags are read only as folds at its width or
        wider keeps that fold in `U_x` beside its exact tag `T_x`: from the
        parameters' mixed tag vectors of widths 1 to 8, from the loop's
        binops and geps, and from what a call or a store to memory that may
        overlap it leaves, read back.  A leak keeps the slot out.  Runs at
        any budget, and those that trap out of bounds, stay the step
        interpreter's."""
        src, n, _, fold_read = fn_src
        m = parse_module(src)
        writer = _Writer(_shared(m), m.functions["f"], True, DEFAULT_MEMORY)
        assert set(writer.folds) - writer.folded_slots == fold_read
        rules, _ = compile_library(m)
        rng = random.Random(seed)
        tags = [bytes(1 << rng.randrange(8) for _ in range(size_of(ty, m.structs)))
                for _, ty in m.functions["f"].params]
        assert_same_runs(m, "f", _arg_values(rng, n), rules, arg_tags=tags,
                         taint_config=SLOT_CFG if sources else None, mem_size=1 << 16,
                         **_budget(budget))

    @pytest.mark.parametrize("program, fn, slots", [
        ("bench_user", "main", ["sump", "ip"]), ("bench_memcpy", "memcpy", ["dp", "sp", "np"])])
    def test_benchmark_slots_skip_the_memory_path(self, program, fn, slots):
        module = corpus.load_module(program)
        for live in (True, False):
            writer = _Writer(_shared(module), module.functions[fn], live, DEFAULT_MEMORY)
            writer.code()
            source = "\n".join(writer.src)
            assert list(writer.slots) == slots
            for x in slots:
                assert f"P_{x} = " in source
                assert not re.search(rf"(_check_bounds\(|_[up]\w\(mem, |pages\.get\()v_{x}\b",
                                     source), (live, x)

    def test_a_cleared_slot_leaves_no_page(self):
        """The step interpreter leaves an all-zero Tagmap page where the
        slot held a tainted byte and then a clean one; the slot leaves no
        page, and the outcomes, which drop all-zero pages, are equal."""
        m = parse_module(CLEARED_SLOT)
        assert list(_Writer(_shared(m), m.functions["f"], True, DEFAULT_MEMORY).slots) == ["s0"]
        pages = {}
        for cls in (Machine, ReferenceMachine):
            machine = cls(m, mem_size=1 << 16)
            machine.call_entry("f", [5], [b"\x01"])
            pages[cls] = {p: bytes(page) for p, page in machine.tagmap.pages.items()}
        assert pages == {Machine: {}, ReferenceMachine: {15: bytes(PAGE)}}
        assert_same_runs(m, "f", [5], arg_tags=[b"\x01"], mem_size=1 << 16)

    @pytest.mark.parametrize("d, at, tag", [(0, "a call", 1), (1, "a trap", 3),
                                            (-1, "a return", 3)])
    def test_a_tainted_slot_reaches_the_tagmap(self, d, at, tag):
        """A slot's nonzero tag vector is written to its absent Tagmap page
        at a call (whose callee traps), at a trap in the slot's own frame
        and at a return: tag 1 was stored before the call, 3 after it."""
        m = parse_module(SPILLED_SLOT)
        assert list(_Writer(_shared(m), m.functions["f"], True, DEFAULT_MEMORY).slots) == ["s"]
        got = assert_same_runs(m, "f", [7, d], arg_tags=[b"\x01", b"\x02"], mem_size=1 << 16)
        slot = (1 << 16) - 8        # the entry frame's first alloca
        for mode, run in got.items():
            assert isinstance(run[0], RunReport) == (at == "a return"), mode
            pages = run[7]
            assert pages[slot >> 12][slot & PAGE - 1:][:8] == bytes([tag]) * 8, mode

    @pytest.mark.parametrize("body, folded", [
        ("  %t = add i32 %x, 1\n  store i32 %t, %a\n  store i64 2, %b\n", ["a", "b"]),
        ("  store i32 %x, %a\n  store i64 2, %b\n", ["b"]),     # a parameter's vector
        ("  %g = gep [8 x char], @buf, 0, 0\n  %c = load char, %g\n  store i32 %c, %a\n"
         "  %w = load i64, %g\n  store i64 %w, %b\n", ["a"]),     # a byte, then 8 bytes
        ("  store i32 %x, %a\n  %v = load i32, %a\n  %u = add i64 %v, 0\n  store i64 %u, %b\n",
         ["b"]),        # a binop of a vector slot's load
        ("  %v = load i64, %b\n  store i32 %v, %a\n  %u = load i32, %a\n  store i64 %u, %b\n",
         ["a", "b"]),   # each stores the other's load: neither ever holds a vector
        ("  %v = load i64, %b\n  store i32 %v, %a\n  %u = load i32, %a\n  store i64 %u, %b\n"
         "  store i32 %x, %a\n", []),
        ("  %t = add i32 %x, 1\n  store i32 %t, %a\n  %g = gep [8 x char], @buf, 0, 0\n"
         "  store char 1, %g\n", []),       # a store to memory may reach a slot
        ("  %t = add i32 %x, 1\n  store i32 %t, %a\n  %r = call i64 @id(%t)\n", []),
    ])
    def test_which_slots_fold(self, body, folded):
        """A slot keeps an int tag when every store to it stores a constant
        or a temp whose tag is always uniform, in a function with no call
        and no store to memory; any other keeps a vector.  Runs with mixed
        tags on the parameter stay the step interpreter's."""
        m = parse_module("global @buf : [8 x char] = bytes(1, 2, 3)\n"
                         "fn @id(%v: i64) -> i64 {\nentry:\n  ret i64 %v\n}\n"
                         "fn @f(%x: i32) -> i64 {\nentry:\n  %a = alloca i32\n  %b = alloca i64\n"
                         + body + "  %y = load i32, %a\n  %z = load i64, %b\n"
                         "  %r = add i64 %y, %z\n  ret i64 %r\n}\n")
        writer = _Writer(_shared(m), m.functions["f"], True, DEFAULT_MEMORY)
        assert list(writer.slots) == ["a", "b"]
        assert sorted(writer.folded_slots) == folded

        def before(machine):
            machine.tagmap.set_vector(machine.global_addr["buf"], bytes(range(1, 9)))
        assert_same_runs(m, "f", [7], arg_tags=[b"\x01\x02\x04"], before=before,
                         mem_size=1 << 16)

    @pytest.mark.parametrize("n", [3, 9])
    def test_folded_frame_at_every_budget(self, n):
        """A loop whose slots of three widths keep int tags, over bytes of
        differing tags, reading the slots' splats back through an escaped
        buffer: every step budget, and with n = 9 a load past the top of
        memory, stops where the step interpreter does."""
        m = parse_module(FOLDED_SLOTS)
        assert sorted(_Writer(_shared(m), m.functions["f"], True, 1 << 16).folded_slots) == [
            "bp", "ip", "wp"]

        def before(machine):
            machine.tagmap.set_vector(machine.global_addr["buf"], bytes(range(1, 9)))
        total = outcome(Machine, m, "f", [n], before=before, mem_size=1 << 16)[1]
        for budget in range(1, total + 2):
            got = assert_same_runs(m, "f", [n], arg_tags=[b"\x10"], before=before,
                                   mem_size=1 << 16, step_budget=budget)
            result = got["instr"][0]
            trapped = isinstance(result, tuple) and result[:2] == ("trap", "out-of-bounds access")
            assert trapped == (n == 9 and budget >= total), budget

    @pytest.mark.parametrize("body, promoted", [
        ("  %b = alloca i64\n  %a = alloca i32\n  %q = gep i32, %a, 0\n  ret i64 0\n", ["b"]),
        ("  %a = alloca i32\n  store i64 1, %a\n  ret i64 0\n", []),
        ("  %a = alloca f64\n  store f64 1.0, %a\n  ret i64 0\n", []),
        ("  %v = load i32, %a\n  %a = alloca i32\n  ret i64 0\n", []),
        ("  %a = alloca i32\n  jmp next\nnext:\n  %a = alloca i32\n  ret i64 0\n", []),
        ("  %a = alloca i32\n  %v = load i32, %a\n  br %v, entry, next\nnext:\n  ret i64 0\n",
         []),
        ("  jmp next\nnext:\n  %a = alloca i32\n  ret i64 0\n", []),
        ("  %a = alloca i32\n  jmp next\n  %b = alloca i32\nnext:\n  store i32 1, %b\n"
         "  %v = load i32, %a\n  ret i64 %v\n", ["a"]),
    ])
    def test_what_stays_in_memory(self, body, promoted):
        """An escaped, retyped, float, used-before, redefined, re-entered,
        non-entry or never-run alloca stays in memory."""
        m = parse_module("fn @f() -> i64 {\nentry:\n" + body + "}\n")
        assert list(_Writer(_shared(m), m.functions["f"], True, DEFAULT_MEMORY).slots) == promoted
        assert_same_runs(m, "f", [], mem_size=1 << 16)


class TestCodeCache:
    """Machines of one module share each function's written code; another
    layout or memory size gets code of its own, and the shared code holds
    no machine."""

    def test_images_of_one_module_share_code(self, student_flow, student_flow_rules):
        a, b = (Machine(student_flow, mode="hybrid", rule_programs=student_flow_rules)
                for _ in range(2))
        for fn in student_flow.functions.values():
            for live in (True, False):
                assert (a.shared.compiled(fn, live, a.mem_size)
                        is b.shared.compiled(fn, live, b.mem_size))

    def test_layout_and_memory_size_get_their_own_code(self):
        """@buf's address and the bounds checks are literals in the code; the
        load at the top of the smaller memory traps there only."""
        base, moved = (parse_module(LAYOUT.format(pad=pad)) for pad in (8, 40))
        machines = [Machine(base, mem_size=1 << 16), Machine(moved, mem_size=1 << 16),
                    Machine(base, mem_size=1 << 17)]
        codes = [m.shared.compiled(m.module.functions["f"], True, m.mem_size).__code__
                 for m in machines]
        assert len({id(c) for c in codes}) == 3
        top = (1 << 16) - 4
        for module in (base, moved):
            for mem_size in (1 << 16, 1 << 17):
                got = assert_same_runs(module, "f", [2, top], {}, arg_tags=[b"\x01"] * 2,
                                       mem_size=mem_size)
                result = got["instr"][0]
                assert (result[:2] == ("trap", "out-of-bounds access") if mem_size == 1 << 16
                        else result.exit_value == 2), result

    def test_machines_freed_with_the_cache_populated(self, bench_memcpy):
        """Traps read the traceback of the functions that raised; the machine
        still goes with its last reference."""
        oob = parse_module(MID_SEGMENT_TRAPS["out-of-bounds access"][0] + MAIN_CALLS_LIB)
        rules, _ = compile_library(oob)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for module, budget, args in ((bench_memcpy, None, [16]), (bench_memcpy, 40, [16]),
                                         (oob, None, [16])):
                for mode in ("instr", "hybrid"):
                    m = Machine(module, mode=mode, rule_programs=rules if module is oob
                                else None, **_budget(budget))
                    try:
                        m.call_entry("main", args)
                    except MachineTrap:
                        pass
                    refs = weakref.ref(m), weakref.ref(m.memory)
                    del m
                    assert refs[0]() is None and refs[1]() is None, (args, budget, mode)
        finally:
            if enabled:
                gc.enable()



SHARED = """\
struct %pair { i64 a, i64 b }
global @pad : [8 x char]
global @buf : [4 x i64]

fn @callee(%x: i64) -> i64 {
entry:
  %y = add i64 %x, 1
  ret i64 %y
}

fn @f(%i: i64, %p: ptr(%pair)) -> i64 {
entry:
  %q = gep %pair, %p, 0, 1
  store i64 %i, %q
  %c = call i64 @callee(%i)
  %s = add i64 %c, 2
  jmp done
done:
  store i64 %s, @buf
  ret i64 %s
skip:
  ret i64 0
}
"""
# changes in place to what the writer of @f reads, one per kind of fact its
# code depends on; a parsed module refuses each.  "mem_size" changes the machine's.
IN_PLACE = {
    "operand": lambda m: setattr(m.functions["f"].blocks[0].instrs[3], "rhs", ConstInt(5)),
    "instruction list": lambda m: m.functions["f"].blocks[0].instrs.pop(1),
    "block labels": lambda m: setattr(m.functions["f"].blocks[1], "label", "skip"),
    "callee replaced": lambda m: m.functions.__setitem__(
        "callee", parse_module(SHARED.replace("%x, 1", "%x, 7")).functions["callee"]),
    "callee params": lambda m: setattr(m.functions["callee"], "params", (("x", Int(8)),)),
    "struct": lambda m: m.structs.__setitem__(
        "pair", StructDecl("pair", (("a", I64), ("z", I64), ("b", I64)))),
    "global layout": lambda m: m.globals.__setitem__(
        "pad", GlobalDecl("pad", Array(Char(), 40))),
    "mem_size": None,
}


class TestSharedCode:
    """Every machine of a module takes a function's code from one bounded
    process-wide table; a parsed module refuses every change to what the
    writer read, so no entry goes stale."""

    @pytest.mark.parametrize("change", IN_PLACE)
    def test_stale_entry_is_never_used(self, change):
        m = parse_module(SHARED)
        f, mem_size = m.functions["f"], 1 << 16
        before = {live: _shared(m).compiled(f, live, mem_size) for live in (True, False)}
        for live, code in before.items():
            assert _shared(m).compiled(f, live, mem_size) is code
        if change == "mem_size":
            mem_size *= 2
        else:
            with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
                IN_PLACE[change](m)
            assert m == parse_module(SHARED)
        for live, code in before.items():
            same = _shared(m).compiled(f, live, mem_size) is code
            assert same == (change != "mem_size"), live
        assert_same_runs(m, "f", [300, 0x8000], {}, mem_size=mem_size,
                         arg_tags=[b"\x01" * 8, b"\x02" * 8])

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tracker, "MODULE_TABLE_SIZE", 4)
        monkeypatch.setattr(tracker, "_module_table", {})
        modules = [parse_module(f"fn @f() -> i64 {{\nentry:\n  ret i64 {k}\n}}\n")
                   for k in range(7)]
        first = _shared(modules[0]).compiled(modules[0].functions["f"], True, 1 << 16)
        lines, first = first.__globals__["_lines"], weakref.ref(first)
        entry = weakref.ref(tracker._module_table[id(modules[0])])
        for k, m in enumerate(modules):
            assert Machine(m, mem_size=1 << 16).call_entry("f", []) == k
            assert len(tracker._module_table) <= 4
        gc.collect()
        assert first() is None and entry() is None     # evicted, so freed
        again = _shared(modules[0]).compiled(modules[0].functions["f"], True, 1 << 16)
        assert again.__globals__["_lines"] == lines

    def test_machines_of_two_images_are_independent(self, student_flow,
                                                    student_flow_rules):
        """What one machine leaves behind, run to the end or stuck inside a
        summarized call, reaches no other machine of the module, although
        they share code."""
        kw = dict(rule_programs=student_flow_rules, mem_size=1 << 16, taint_config=FLOW_CFG)
        dirty = Machine(student_flow, mode="hybrid", **kw)
        stdin = dirty.global_addr["stdin_buf"]
        dirty.write_bytes(stdin, b"zzzzzzz")
        dirty.tagmap.set_taint(stdin, 4, 32)
        dirty.call_entry("main", [])
        with pytest.raises(MachineTrap, match="step budget"):
            Machine(student_flow, mode="hybrid", step_budget=100, **kw).call_entry("main", [])
        for mode in ("hybrid", "instr"):
            want = outcome(ReferenceMachine, student_flow, "main", [], mode=mode,
                           rule_programs=student_flow_rules, taint_config=FLOW_CFG,
                           mem_size=1 << 16)
            assert outcome(Machine, student_flow, "main", [], mode=mode, **kw) == want, mode
        assert Machine(student_flow, **kw).shared is dirty.shared and dirty.shared.code


POKES = """\
fn @poke1(%p: ptr(u8), %v: u8) -> void {
entry:
  store u8 %v, %p
  ret
}

fn @poke2(%p: ptr(u16), %v: u16) -> void {
entry:
  store u16 %v, %p
  ret
}

fn @poke4(%p: ptr(u32), %v: u32) -> void {
entry:
  store u32 %v, %p
  ret
}

fn @poke8(%p: ptr(u64), %v: u64) -> void {
entry:
  store u64 %v, %p
  ret
}

fn @frame() -> void {
entry:
  %a = alloca [5000 x char]
  ret
}
"""
MEM_PAGES = 16
WRITE_PATHS = ("store", "alloca", "write_bytes", "slice", "stepped", "index", "move")


def _write(machine, path, addr, data):
    """Write `data` (or its first 1, 2, 4 or 8 bytes) at `addr` through one
    of the machine's write paths; "alloca" zeroes the top 5000 bytes, and
    "move" moves `data` from the start of page 1, which it writes first."""
    mem, w = machine.memory, min(1 << (len(data).bit_length() - 1), 8)
    value = int.from_bytes(data[:w], "little")
    if path == "store":
        machine.call_entry(f"poke{w}", [addr, value])
    elif path == "alloca":
        machine.call_entry("frame", [])
    elif path == "write_bytes":
        machine.write_bytes(addr, data)
    elif path == "slice":
        mem[addr:addr + len(data)] = data
    elif path == "stepped":     # backwards, every third byte
        mem[addr + 3 * (len(data) - 1):addr - 1:-3] = data
    elif path == "move":
        mem[PAGE:PAGE + len(data)] = data
        mem.move(addr, PAGE, len(data))
    else:       # by a negative index when the value is odd
        mem[addr - len(mem) if value & 1 else addr] = data[0]


# addresses at and around page edges, where a write may cross
_ADDRS = st.builds(lambda page, off: page * PAGE + off,
                   st.integers(2, MEM_PAGES - 2), st.integers(-8, 8))
_WRITES = st.lists(st.tuples(st.sampled_from(("a", "b", "both")),
                             st.sampled_from(WRITE_PATHS), _ADDRS,
                             st.binary(min_size=1, max_size=16)), max_size=12)


class TestMemory:
    """`Memory` compares only the pages either side wrote, so every write
    path must mark each page it touches; the byte-for-byte compare of the
    two whole memories is the oracle."""

    @pytest.fixture(scope="class")
    def pokes(self):
        return functools.partial(Machine, parse_module(POKES), mem_size=MEM_PAGES * PAGE)

    @staticmethod
    def _assert_compare_exact(a, b):
        same = bytes(a) == bytes(b)
        assert (a == b) is same and (b == a) is same
        assert (a != b) is (not same) and (b != a) is (not same)

    @settings(max_examples=200, deadline=None)
    @given(_WRITES)
    def test_equal_exactly_when_bytes_are(self, pokes, writes):
        machines = {"a": pokes(), "b": pokes()}
        for target, path, addr, data in writes:
            for key in ("a", "b") if target == "both" else (target,):
                _write(machines[key], path, addr, data)
        self._assert_compare_exact(machines["a"].memory, machines["b"].memory)

    @pytest.mark.parametrize("path", sorted(set(WRITE_PATHS) - {"alloca", "index"}))
    @pytest.mark.parametrize("addr", [4 * PAGE - 1, 4 * PAGE - 4, 4 * PAGE])
    def test_write_that_crosses_a_page(self, pokes, path, addr):
        """The bytes it puts on its first page are zero, so a write that
        marked only that page would compare equal to a fresh memory."""
        data = bytes(4 * PAGE - addr) + b"\xff" * 12
        a, b = pokes(), pokes()
        _write(a, path, addr, data)
        self._assert_compare_exact(a.memory, b.memory)
        assert a.memory != b.memory

    def test_compares_with_bytes_both_ways(self, pokes):
        m = pokes()
        m.write_bytes(0x2ffe, b"xyz")
        raw = bytes(m.memory)
        for same in (raw, bytearray(raw), memoryview(raw)):
            assert m.memory == same and same == m.memory
            assert not (m.memory != same) and not (same != m.memory)
        other = bytearray(raw)
        other[0x9000] = 1
        for differs in (bytes(other), other, raw[:-1]):
            assert m.memory != differs and differs != m.memory
        assert m.memory != 0 and m.memory != "x" * len(m.memory)
        with pytest.raises(TypeError):
            hash(m.memory)

    def test_bad_item_assignment_marks_nothing(self, pokes):
        mem = pokes().memory
        with pytest.raises(IndexError):
            mem[len(mem)] = 1
        with pytest.raises(IndexError):
            mem[PAGE:PAGE + 2] = b"abc"
        assert mem.dirty == set()

    def test_fresh_machine_reads_zero_outside_initializers(
            self, student_flow, student_flow_rules):
        kw = dict(rule_programs=student_flow_rules, mem_size=1 << 16)
        want = bytearray(1 << 16)
        for addr, init in _shared(student_flow).inits:
            want[addr:addr + len(init)] = init
        for mode in ("instr", "hybrid"):
            dirty = Machine(student_flow, mode=mode, taint_config=FLOW_CFG, **kw)
            dirty.call_entry("main", [])
            dirty.memory[GLOBALS_BASE:] = b"\xee" * ((1 << 16) - GLOBALS_BASE)
        fresh = Machine(student_flow, **kw)
        assert bytes(fresh.memory) == want and fresh.memory == want
        assert fresh.memory.dirty == {a >> 12 for a, _ in fresh.shared.inits}

    @pytest.mark.parametrize("mem_size", [0x2000, 0x3001, 1 << 16, DEFAULT_MEMORY])
    def test_length_is_mem_size(self, mem_size):
        m = Machine(parse_module(""), mem_size=mem_size)
        assert isinstance(m.memory, Memory) and len(m.memory) == mem_size

    def test_mem_size_that_cannot_hold_the_globals(self, student_flow):
        heap_start = _shared(student_flow).heap_start
        assert Machine(student_flow, mem_size=2 * heap_start).shared.heap_start == heap_start
        for mem_size in (2 * heap_start - 2, 0x1010):
            with pytest.raises(ValueError) as exc:
                Machine(student_flow, mem_size=mem_size)
            assert f"0x{heap_start:x}" in str(exc.value)
            assert f"0x{mem_size:x}" in str(exc.value)


class TestImage:
    def test_machines_from_one_image_are_independent(self, student_flow,
                                                     student_flow_rules):
        """Machines that overwrote a global's initializer, tainted bytes,
        hit a sink, or trapped with frames left inside a summarized call
        leave nothing behind for the next machine of their module: it runs
        as a machine of a module of its own does."""
        kw = dict(rule_programs=student_flow_rules, mem_size=1 << 16)
        dirty = Machine(student_flow, mode="hybrid", taint_config=FLOW_CFG, **kw)
        stdin = dirty.global_addr["stdin_buf"]
        dirty.write_bytes(stdin, b"zzzzzzz")
        dirty.tagmap.set_taint(stdin, 4, 32)
        dirty.call_entry("main", [])
        assert dirty.sink_hits and dirty.tagmap.pages
        stuck = Machine(student_flow, mode="hybrid", taint_config=FLOW_CFG, step_budget=100,
                        **kw)
        with pytest.raises(MachineTrap, match="step budget"):
            stuck.call_entry("main", [])
        assert not stuck.live and [f.fn.name for f in stuck._frames] == [
            "main", "student_cpy", "memcpy"]
        for mode in ("hybrid", "instr"):
            want = outcome(Machine, corpus.load_module("student_flow"), "main", [], mode=mode,
                           taint_config=FLOW_CFG, **kw)
            assert outcome(Machine, student_flow, "main", [], mode=mode,
                           taint_config=FLOW_CFG, **kw) == want, mode
        fresh = Machine(student_flow, **kw)
        assert fresh.read_bytes(stdin, 6) == b"alice\0"
        assert (fresh.heap_ptr, fresh.stack_ptr, fresh.tagmap.pages) == (
            fresh.shared.heap_start, 1 << 16, {})

    def test_image_fixes_rules_and_memory_size(self, student_flow, student_flow_rules):
        """A hybrid machine keeps a copy of its rule programs; an instr
        machine keeps none."""
        kw = dict(rule_programs=student_flow_rules, mem_size=1 << 16)
        hybrid = Machine(student_flow, mode="hybrid", **kw)
        assert hybrid.rules == student_flow_rules and hybrid.rules is not student_flow_rules
        assert Machine(student_flow, mode="instr", **kw).rules == {}

    def test_machines_of_a_module_share_code_and_bindings(self, monkeypatch):
        """Two machines of one module and memory size run the same code per
        (function, tracked); a machine with another memory size gets code of
        its own; two hybrid machines given one program bind it once."""
        module = corpus.load_module("student_flow")     # a module no machine has seen
        rules = compile_library(module)[0]
        extents, entered = [], []
        slot_extent, make_frame = tracker.slot_extent, Machine._make_frame
        monkeypatch.setattr(tracker, "slot_extent",
                            lambda slot, mod: extents.append(slot) or slot_extent(slot, mod))
        monkeypatch.setattr(Machine, "_make_frame", lambda self, fn, *a: entered.append(
            (fn.name, (frame := make_frame(self, fn, *a)).code)) or frame)
        runs = []
        for mem_size in (1 << 16, 1 << 16, 1 << 17):
            entered.clear()
            m = Machine(module, mode="hybrid", rule_programs=rules, mem_size=mem_size)
            m.call_entry("main", [])
            runs.append(({(name, id(code)) for name, code in entered}, len(extents)))
        (a, bound), (b, again), (c, _) = runs
        assert {name for name, _ in a} == {"main", "student_cpy", "memcpy", "fgets_a", "printf_a"}
        assert a == b and bound and again == bound
        assert {code for _, code in a}.isdisjoint(code for _, code in c)


LAZY = """\
struct %pair { i32 a, i32 b }

fn @widthless(%p: ptr(%pair)) -> i32 {
entry:
  %v = load %pair, %p
  ret i32 0
}

fn @main(%x: i32, %p: ptr(%pair)) -> i32 {
entry:
  %z = cmp i32 %x, 0
  br %z, done, one
one:
  %o = cmp i32 %x, 1
  br %o, gep, two
gep:
  %g = gep i32, %p, 0, 1
  ret i32 1
two:
  %t = cmp i32 %x, 2
  br %t, call, load
call:
  %r = call i32 @absent(%x)
  ret i32 %r
load:
  %w = call i32 @widthless(%p)
  ret i32 %w
done:
  ret i32 0
}
"""


class TestLazyDecoding:
    """Instructions that cannot run compile without trapping; running one
    traps with the step interpreter's kind and instruction."""

    @pytest.mark.parametrize("x, kind, instr", [
        (1, "malformed gep", "main:4"),
        (2, "unresolved callee", "main:8"),
        (3, "bad value type", None),
    ])
    def test_trap_only_when_run(self, x, kind, instr):
        m = parse_module(LAZY)
        for mode in ("instr", "hybrid"):
            machine = Machine(m, mode=mode, mem_size=1 << 16)
            p = machine.alloc(8)
            assert machine.call_entry("main", [0, p]) == 0      # nothing traps
            got = []
            for cls in (Machine, ReferenceMachine):
                machine = cls(m, mode=mode, mem_size=1 << 16)
                with pytest.raises(MachineTrap) as e:
                    machine.call_entry("main", [x, machine.alloc(8)])
                got.append((e.value.kind, e.value.instr))
            assert got[0] == got[1] == (kind, instr)

    def test_decodes_only_the_functions_it_enters(self, lib_rules, student_flow_rules):
        """Each machine runs on a module no machine has seen, so the module's
        shared code holds only what that machine's runs wrote."""
        def decoded(m):
            return {(name, live) for name, live, _ in m.shared.code}
        m = Machine(corpus.load_module("libcorpus"), mode="hybrid",
                    rule_programs=lib_rules, mem_size=1 << 20)
        s = m.alloc(16)
        m.write_bytes(s, b"abc\0")
        assert m.call_entry("strlen_a", [s]) == 3
        assert decoded(m) == {("strlen_a", False)}
        m = Machine(corpus.load_module("student_flow"), mode="hybrid",
                    rule_programs=student_flow_rules)
        m.call_entry("main", [])
        assert decoded(m) == {("main", True), ("fgets_a", True), ("printf_a", True),
                              ("student_cpy", False), ("memcpy", False)}
        m = Machine(corpus.load_module("student_flow"), mode="instr")
        m.call_entry("main", [])
        assert decoded(m) == {("main", True), ("fgets_a", True), ("printf_a", True),
                              ("student_cpy", True), ("memcpy", True)}


class TestMalformedControlFlow:
    """A machine runs modules that `validate_module` would reject: control
    that falls off the end of a block, or branches to a label the function
    lacks, traps when it happens."""

    @pytest.mark.parametrize("body, kind, instr, ran", [
        ("  %x = add i64 1, 2\n", "no terminator", None, 1),
        ("  %x = add i64 1, 2\n  jmp nowhere\n", "unknown label", "f:1", 2),
        ("  %x = call i64 @g()\n", "no terminator", None, 2),
    ])
    def test_traps_when_run(self, body, kind, instr, ran):
        m = parse_module("fn @g() -> i64 {\nentry:\n  ret i64 1\n}\n"
                         "fn @f() -> i64 {\nentry:\n" + body + "}\n")
        assert validate_module(m)
        for mode in ("instr", "hybrid"):
            machine = Machine(m, mode=mode, mem_size=1 << 16)
            with pytest.raises(MachineTrap) as e:
                machine.call_entry("f", [])
            assert (e.value.kind, e.value.instr, machine.instr_total) == (kind, instr, ran)

    def test_call_short_of_arguments_traps(self):
        m = parse_module("fn @g(%a: i64) -> i64 {\nentry:\n  ret i64 %a\n}\n"
                         "fn @f() -> i64 {\nentry:\n  %x = call i64 @g()\n  ret i64 %x\n}\n")
        assert validate_module(m)
        for mode in ("instr", "hybrid"):
            with pytest.raises(MachineTrap) as e:
                Machine(m, mode=mode, mem_size=1 << 16).call_entry("f", [])
            assert (e.value.kind, e.value.detail) == ("undefined temporary", "%a")

    @pytest.mark.parametrize("body, instr", [
        ("  %x = add i64 1, 2\n  jmp nowhere\n", "f:1"),
        ("  br 1, nowhere, entry\n", "f:0"),
        ("  br 0, entry, nowhere\n", "f:0"),
        ("  %x = add i64 1, 2\n", None),        # falls off the block
        ("  %x = call i64 @g()\n", None),
    ])
    def test_reference_machine_traps_alike(self, body, instr):
        m = parse_module("fn @g() -> i64 {\nentry:\n  ret i64 1\n}\n"
                         "fn @f() -> i64 {\nentry:\n" + body + "}\n")
        kind, detail = ("unknown label", "") if instr else ("no terminator", "entry")
        for got in assert_same_runs(m, "f", [], mem_size=1 << 16).values():
            assert got[0] == ("trap", kind, instr) and got[-1] == detail

    def test_function_without_blocks_traps(self):
        m = parse_module("fn @f() -> i64 {\n}\n")
        assert validate_module(m)
        for got in assert_same_runs(m, "f", [], mem_size=1 << 16).values():
            assert got[:2] == (("trap", "no terminator", None), 0) and got[-1] == "f"


MOVES_NUL = """\
fn @shorten(%d: ptr(char), %s: ptr(char)) -> void library {
entry:
  %c = load char, %s
  store char %c, %d
  %d1 = gep char, %d, 1
  store char 0, %d1
  %s1 = gep char, %s, 1
  store char 0, %s1
  ret
}

fn @lengthen(%d: ptr(char), %s: ptr(char)) -> void library {
entry:
  %c = load char, %s
  store char %c, %d
  %d2 = gep char, %d, 2
  store char 81, %d2
  %s1 = gep char, %s, 1
  store char 90, %s1
  ret
}
"""


class TestStringExtentsAtReturn:
    """A library call that moves a NUL: rule steps scan string extents on
    concrete memory when the call returns, not when it starts, both for
    the gathered source and for the set destination."""

    def _run(self, fn, d_text, s_text, s_tags):
        m = parse_module(MOVES_NUL)
        rules, _ = compile_library(m)
        # param0 <- param1, both scanned strings (a size of None)
        assert any(out == ("param0", None) and ("param1", None) in ins
                   for out, ins in bound_shapes(rules[fn], m))
        machine = Machine(m, mode="hybrid", rule_programs=rules, mem_size=1 << 16)
        d, s = machine.alloc(16), machine.alloc(16)
        machine.write_bytes(d, d_text)
        machine.write_bytes(s, s_text)
        machine.tagmap.set_vector(s, s_tags)
        machine.call_entry(fn, [d, s])
        return (machine.read_bytes(d, len(d_text)), machine.read_bytes(s, len(s_text)),
                list(machine.tagmap.get_vector(d, 16)))

    def test_shortening_call(self):
        d_after, s_after, d_tags = self._run(
            "shorten", b"abcdef\0", b"xyzw\0", bytes([1, 0, 0, 2, 0]))
        assert d_after == b"x\0cdef\0" and s_after == b"x\0zw\0"
        # at return @d spans 2 bytes and @s 2 bytes: label 1 only; at
        # entry they spanned 7 and 5, and @s's label 2 was inside
        assert d_tags == [1, 1] + [0] * 14

    def test_lengthening_call(self):
        d_after, s_after, d_tags = self._run(
            "lengthen", b"ab\0def\0", b"x\0zw\0", bytes([1, 0, 0, 2, 0]))
        assert d_after == b"xbQdef\0" and s_after == b"xZzw\0"
        # at return @d spans 7 bytes and @s 5, taking in label 2; at entry
        # they spanned 3 and 2, label 1 only
        assert d_tags == [3] * 7 + [0] * 9


EDGE = 32      # @buf's offset of the page edge it spans
STRADDLE = """\
global @pad : [{pad} x char]
global @buf : [64 x char]

fn @f(%v: u64) -> u64 {{
entry:
  %s = alloca [{frame} x char]
{body}
}}
"""
_UTY = {1: "u8", 2: "u16", 4: "u32", 8: "u64"}
# (op, width, offset in @buf, stored value): accesses at and around the edge
_ACCESS = st.tuples(st.sampled_from(("load", "store")), st.sampled_from(sorted(_UTY)),
                    st.integers(EDGE - 9, EDGE + 1), st.sampled_from(("%v", "0", "%x")))


def _straddle_source(frame, accesses):
    lines, loaded = [], False
    for k, (op, w, off, value) in enumerate(accesses):
        lines.append(f"  %p{k} = gep [64 x char], @buf, 0, {off}")
        if op == "load":
            lines.append(f"  %x = load {_UTY[w]}, %p{k}")
            loaded = True
        else:
            value = "%v" if value == "%x" and not loaded else value
            lines.append(f"  store {_UTY[w]} {value}, %p{k}")
    if loaded:      # a fold of its first byte only, kept in @buf[0]
        lines += ["  %y = add u8 %x, 1", "  %q = gep [64 x char], @buf, 0, 0",
                  "  store u8 %y, %q"]
    lines.append(f"  ret u64 {'%x' if loaded else '%v'}")
    return STRADDLE.format(pad=PAGE - GLOBALS_BASE % PAGE - EDGE, frame=frame,
                           body="\n".join(lines))


class TestInlineShadowPath:
    """Tracked loads, stores and allocas do the Tagmap's one-page work in
    the compiled function and call `get_vector`/`set_vector` only for an
    access that crosses a page."""

    def test_buffer_spans_a_page_edge(self):
        m = parse_module(_straddle_source(8, []))
        assert _shared(m).global_addr["buf"] + EDGE == 2 * PAGE

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((8, 40, PAGE - 6, PAGE + 4, 6000)),
           st.lists(_ACCESS, min_size=1, max_size=6),
           st.sampled_from((b"\0", b"\x05", bytes(range(1, 9)), b"\0\0\0\x02\x04\0\0\0")),
           st.sampled_from(("none", "low", "high", "both", "window")),
           st.booleans())
    def test_accesses_around_a_page_edge(self, frame, accesses, tag, pages, stack):
        """Widths 1 to 8 at every offset around the edge, tainted and clean
        values, each page absent or present, and allocas that zero a
        present stack page or cross one."""
        m = parse_module(_straddle_source(frame, accesses))
        mem_size = 1 << 16

        def before(machine):
            edge = machine.global_addr["buf"] + EDGE
            if pages in ("low", "both"):
                machine.tagmap.set_taint(edge - PAGE + 3, 7, 1)
            if pages in ("high", "both"):
                machine.tagmap.set_taint(edge + PAGE - 3, 7, 1)
            if pages == "window":
                machine.tagmap.set_vector(edge - 8, bytes(range(16)))
            if stack:
                machine.tagmap.set_taint(mem_size - 6000, 9, 6000)
        assert_same_runs(m, "f", [0x0102030405060708], {}, arg_tags=[tag],
                         before=before, mem_size=mem_size)

    @staticmethod
    def _count_tagmap_calls(monkeypatch):
        calls = []
        for name in ("get_vector", "set_vector"):
            def counted(self, *args, _inner=getattr(Tagmap, name), _name=name):
                calls.append(_name)
                return _inner(self, *args)
            monkeypatch.setattr(Tagmap, name, counted)
        return calls

    def test_benchmark_runs_never_leave_the_inline_path(self, monkeypatch, bench_memcpy,
                                                        bench_user):
        """Every access of instr-mode bench_memcpy n=2048 and bench_user
        n=256 fits in one page, so none reaches the Tagmap's methods."""
        memcpy, user = Machine(bench_memcpy, mode="instr"), Machine(bench_user, mode="instr")
        memcpy.tagmap.set_taint(memcpy.global_addr["src_buf"], 1, 2048)
        user.tagmap.set_taint(user.global_addr["data"] + 5, 2, 9)
        calls = self._count_tagmap_calls(monkeypatch)
        memcpy.call_entry("main", [2048])
        user.call_entry("main", [256])
        assert calls == []
        assert memcpy.tagmap.count_nonzero() == 2 * 2048 and _fold(user.ret_shadow) == 2

    def test_an_access_across_the_edge_takes_the_tagmap_path(self, monkeypatch):
        m = Machine(parse_module(_straddle_source(8, [("store", 8, EDGE - 4, "%v"),
                                                      ("load", 4, EDGE - 2, "")])),
                    mem_size=1 << 16)
        calls = self._count_tagmap_calls(monkeypatch)
        m.call_entry("f", [1], [b"\x03"])
        assert calls[0] == "set_vector" and set(calls) == {"set_vector", "get_vector"}
        assert _fold(m.ret_shadow) == 3

    @pytest.mark.parametrize("tags", [bytearray(b"\x01") * 4, memoryview(b"\x01\x02"),
                                      bytearray(b"\x04")])
    def test_entry_tags_of_any_bytes_like_type(self, libcorpus, tags):
        """A bytearray tag of the parameter's width used to reach the
        generated fold as it was, which cannot hash it."""
        m = Machine(libcorpus, mem_size=1 << 20)
        assert m.call_entry("abs_a", [-5], [tags]) == 5
        assert m.ret_shadow == bytes([_fold(bytes(tags))]) * 4


ELIDED = """\
global @buf : [16 x u8] = bytes(1, 2, 3)

fn @f(%n: i64) -> i64 {
entry:
  %c = cmp i64 %n, 3
  br %c, three, other
other:
  %u = add i64 %n, 1
  jmp join
three:
  jmp join
join:
  %q = gep [16 x u8], @buf, 0, %n
  %b = load u8, %q
  %k = cmp i64 %u, %b
  br %k, same, differ
same:
  ret i64 %b
differ:
  %s = add i64 %b, %n
  ret i64 %s
}

fn @main(%n: i64) -> i64 {
entry:
  %r = call i64 @f(%n)
  %t = add i64 %r, 1
  ret i64 %t
}
"""


def _value_type(name):
    return parse_module(f"fn @f(%x: {name}) -> void {{\nentry:\n  ret\n}}\n"
                        ).functions["f"].params[0][1]


def _size(name):
    """The bytes of an int, char or pointer type, from its name alone."""
    return 8 if name.startswith("ptr") else 1 if name == "char" else int(name[1:]) // 8


def _range(name):
    """The values of an int, char or pointer type, from its name alone."""
    if name == "char":
        return 0, 255
    if name.startswith("ptr"):
        return 0, 2 ** 64 - 1
    bits = int(name[1:])
    return (-(1 << bits - 1), (1 << bits - 1) - 1) if name[0] == "i" else (0, (1 << bits) - 1)


LOOPS = [("bench_user", "main"), ("bench_memcpy", "memcpy"), ("libcorpus", "strcpy_a"),
         ("libcorpus", "strlen_a"), ("libcorpus", "memset_a")]
# a temp bound to an int wrapped by a range test, masked only out of range
_RANGE_TESTED = re.compile(r"v_\w+ = z if -?\d+ <= \(z := .+\) <= \d+ else "
                           r"(\(z \+ \d+ & 0x[0-9a-f]+\) - \d+|z & 0x[0-9a-f]+)")


class TestLeanCode:
    """The tracked code binds a tag only where a line reads it, holds a
    uniform tag as an int, reads a byte straight from memory, and wraps a
    value only where its producer's range does not fit; a loop runs as a
    Python loop and an access in a frame holding promoted slots makes one
    range test on its fast path; runs stay the step interpreter's."""

    @staticmethod
    def _source(module, fn, live=True):
        writer = _Writer(_shared(module), module.functions[fn], live, DEFAULT_MEMORY)
        writer.code()
        return "\n".join(writer.src)

    @pytest.mark.parametrize("program", corpus.NAMES)
    def test_every_tag_vector_bound_is_read(self, program):
        """Each `g_x` the code of a corpus function binds is read by some
        line of it, and the untracked code binds none."""
        module = corpus.load_module(program)
        for fn in module.functions:
            for live in (True, False):
                names = {}
                for node in ast.walk(ast.parse(self._source(module, fn, live))):
                    if isinstance(node, ast.Name) and node.id.startswith("g_"):
                        names.setdefault(type(node.ctx), set()).add(node.id)
                unread = names.get(ast.Store, set()) - names.get(ast.Load, set())
                assert not unread, (program, fn, live)
                assert live or not names, (program, fn)

    @pytest.mark.parametrize("program, fn", [("bench_user", "main"),
                                             ("bench_memcpy", "memcpy")])
    def test_benchmark_loops_bind_no_dead_vector(self, program, fn):
        source = self._source(corpus.load_module(program), fn)
        assert "_uB(" not in source and "mem[" in source
        assert not re.search(r"\bg_(z|cp)\b", source)
        assert "> 4095" not in source       # no straddle test of a byte

    def test_folded_loop_holds_tags_as_ints(self):
        """bench_user's slots and temps are folded: its loop unions int
        tags, and no vector is built, looked up or compared in it."""
        source = self._source(corpus.load_module("bench_user"), "main")
        inner = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)][1]
        body = "\n".join(source.splitlines()[inner.lineno - 1:inner.end_lineno])
        assert "g_s1 = g_s0 | g_ch" in body
        assert not re.search(r"\b_[USZ]", body), body

    def test_memcpy_loop_does_no_vector_work(self):
        """memcpy's slots are fold-read: its loop reads each one's fold as an
        int and stores an int, and folds a vector only on the read-back after
        a store into the promoted range."""
        module = corpus.load_module("bench_memcpy")
        writer = _Writer(_shared(module), module.functions["memcpy"], True, DEFAULT_MEMORY)
        assert writer.folds == {x: f"U_{x}" for x in ("dp", "sp", "np")}
        source = self._source(module, "memcpy")
        inner = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)][1]
        lines = source.splitlines()[inner.lineno - 1:inner.end_lineno]
        assert "g_sp0 = U_sp" in source and "T_sp = U_sp = g_sp1" in source
        assert [line for line in lines if "_U[" in line or "_S8[" in line] == [
            line for line in lines if "= _fill(" in line], lines

    @pytest.mark.parametrize("live", [True, False])
    def test_loop_exit_holds_the_comparison(self, live):
        """A compare that only the `br` after it reads is that branch's
        test: bench_user's loop exit is one `if` holding the comparison, and
        no line binds the compare's temp."""
        source = self._source(corpus.load_module("bench_user"), "main", live)
        inner = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)][1]
        assert ast.unparse(inner.body[-1]) == "if v_i == v_n:\n    i = 3\n    break"
        assert "v_z" not in source and "i = 3 if v_i == v_n else 2" in source

    def test_byte_load_and_store_move_an_int_tag(self):
        """memcpy's byte load takes its tag from the page as an int, and its
        byte store puts that int back, with no splat and no index."""
        lines = [line.strip() for line in self._source(
            corpus.load_module("bench_memcpy"), "memcpy").splitlines()]
        load = next(line for line in lines if line.startswith("g_ch = "))
        store = [line for line in lines if "p[v_dp0 & 4095] = " in line]
        assert len(store) == 2
        for line in [load] + store:
            assert "_S1[" not in line and "[0]" not in line, line

    def test_call_reads_back_only_a_tag_read_later(self):
        """A temp argument's tag goes round through `f.tags` only when a
        line the call may run before reads it: student_flow's main reads
        none of its arguments' tags after their calls."""
        source = self._source(corpus.load_module("student_flow"), "main")
        for x in ("sid", "s", "gid"):
            assert f"g_{x} = tg[" not in source and f"tg[{x!r}]" not in source, x

    @pytest.mark.parametrize("live", [True, False])
    @pytest.mark.parametrize("program, fn", LOOPS)
    def test_loop_is_an_inner_while(self, program, fn, live):
        """The loop runs as a `while` inside the dispatching one, and sets
        the block index `i` only on the edge that leaves it."""
        tree = ast.parse(self._source(corpus.load_module(program), fn, live))
        outer = next(node for node in ast.walk(tree) if isinstance(node, ast.While))
        inner = [node for node in ast.walk(outer) if isinstance(node, ast.While)][1:]
        assert len(inner) == 1
        sets = [node for node in ast.walk(inner[0]) if isinstance(node, ast.Assign)
                and [ast.unparse(target) for target in node.targets] == ["i"]]
        exits = [node for node in inner[0].body
                 if isinstance(node, ast.If) and isinstance(node.body[-1], ast.Break)]
        assert len(exits) == 1 and sets == exits[0].body[:1]
        assert exits[0] is inner[0].body[-1]

    @pytest.mark.parametrize("program, fn, made", [("bench_user", "main", 0),
                                                   ("bench_memcpy", "memcpy", 1)])
    def test_one_budget_check_and_count_per_iteration(self, program, fn, made):
        """The inner `while` runs the loop's body and the copy of its header
        as one run: one budget check and, tracked, one shadow count per
        iteration.  A store to a promoted slot makes no Tagmap page; the
        only page made is memcpy's byte store to memory."""
        for live in (True, False):
            source = self._source(corpus.load_module(program), fn, live)
            inner = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)][1]
            lines = source.splitlines()[inner.lineno - 1:inner.end_lineno]
            assert sum("if (n := n + " in line for line in lines) == 1, live
            assert sum(line.lstrip().startswith("s += ") for line in lines) == live
            assert sum("bytearray(4096)" in line for line in lines) == made * live

    @pytest.mark.parametrize("program", corpus.NAMES)
    def test_dispatch_holds_only_blocks_that_i_reaches(self, program):
        """The dispatch's branches are block 0 and the blocks some line sets
        `i` to: a block that every `jmp` into it copies, such as memcpy's
        loop header, gets none."""
        module = corpus.load_module(program)
        for fn in module.functions:
            for live in (True, False):
                tree = ast.parse(self._source(module, fn, live))
                branches, sets = {0}, set()
                for node in ast.walk(tree):
                    test = isinstance(node, ast.If) and ast.unparse(node.test)
                    if test and re.fullmatch(r"i < \d+", test):
                        branches.add(node.test.comparators[0].value)
                    elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "i":
                        v = node.value      # a block, or one of two on a condition
                        sets.update(ast.literal_eval(e) for e in (
                            (v.body, v.orelse) if isinstance(v, ast.IfExp) else (v,)))
                assert branches == {0} | sets, (program, fn, live)
                if fn == "memcpy":
                    header = [b.label for b in module.functions[fn].blocks].index("cond")
                    assert header not in branches and header not in sets

    @pytest.mark.parametrize("live", [True, False])
    @pytest.mark.parametrize("program, fn", LOOPS)
    def test_one_range_test_on_the_fast_path(self, program, fn, live):
        """Each load and store of memory first tests its address against
        `GLOBALS_BASE` and the fast bound `R_f`, and against `R_hi` and the
        top of memory; the bounds check and the overlap tests with the
        promoted range run only past that test."""
        tree = ast.parse(self._source(corpus.load_module(program), fn, live))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

        def fast(node):
            return isinstance(node, ast.If) and re.fullmatch(
                rf"not \({GLOBALS_BASE} <= (\w+) <= R_f or R_hi <= \1 <= \d+\)",
                ast.unparse(node.test))
        tests = [node for node in ast.walk(tree) if fast(node)]
        checks = [node for node in ast.walk(tree) if isinstance(node, ast.If) and not fast(node) and (
                  "R_hi" in ast.unparse(node.test)
                  or ast.unparse(node.body[0]).startswith("m._check_bounds("))]
        assert tests and len(checks) >= 2 * len(tests)
        for node in checks:
            assert fast(parent[node]) or re.match(r"R_f < \w+ < R_hi and ",
                                                  ast.unparse(node.test)), ast.unparse(node)
        assert [ast.unparse(node.body[0].body[0]).startswith("m._check_bounds(")
                for node in tests] == [True] * len(tests)

    @pytest.mark.parametrize("mode", ["instr", "hybrid"])
    def test_accesses_above_the_promoted_range_take_the_fast_path(
            self, student_flow, student_flow_rules, mode):
        """An access from `R_hi` up to the top of memory is in bounds and
        clear of the promoted range: student_flow's accesses into main's
        stack buffer, from frames holding promoted slots, enter no slow
        path (the lines past the fast test), counted by line tracing."""
        m = Machine(student_flow, mode=mode, rule_programs=student_flow_rules,
                    taint_config=FLOW_CFG, mem_size=1 << 20)
        hits = {}

        def trace(frame, event, arg):
            if frame.f_code.co_filename != "<taintsum function>":
                return None

            def line(frame, event, arg):
                if event == "line":
                    key = frame.f_code, frame.f_lineno
                    hits[key] = hits.get(key, 0) + 1
                return line
            return line
        old = sys.gettrace()
        sys.settrace(trace)
        try:
            m.call_entry("main", [])
        finally:
            sys.settrace(old)
        fast, slow = 0, {}
        for (name, live, mem_size), code in m.shared.code.items():
            writer = _Writer(m.shared, student_flow.functions[name], live, mem_size)
            writer.code()
            for k, text in enumerate(writer.src[:-1]):
                runs = hits.get((code.__code__, k + 1), 0)
                if text.lstrip().startswith("if not ") and text.endswith("R_f:") or (
                        "<= R_f or R_hi <= " in text) and runs:
                    fast += runs
                    slow[name, k] = hits.get((code.__code__, k + 2), 0)
        assert fast >= 16 and set(slow.values()) == {0}, slow

    @pytest.mark.parametrize("live", [True, False])
    @pytest.mark.parametrize("program, fn", LOOPS[:2])
    def test_loop_masks_only_out_of_range(self, program, fn, live):
        """The benchmark loops wrap an int with a range test: a mask is
        only on the branch a value outside its type's range takes."""
        source = self._source(corpus.load_module(program), fn, live)
        inner = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)][1]
        lines = [line.strip() for line in source.splitlines()[inner.lineno - 1:inner.end_lineno]]
        masked = [line for line in lines if "& 0x" in line]
        assert masked and all(_RANGE_TESTED.fullmatch(line) for line in masked), masked

    def test_bulk_rounds_call_no_wrap(self):
        """The values a loop's bulk rounds leave are range-tested inline."""
        bulk = [line for program, fn in LOOPS for line in self._source(
            corpus.load_module(program), fn, False).splitlines() if "_rounds(" in line]
        assert len(bulk) == 4 and not any("_wrap(" in line for line in bulk), bulk
        assert all(" else z & 0x" in line or " else (z + " in line for line in bulk), bulk

    @pytest.mark.parametrize("src", _INT_TYPES + ("ptr(i8)",))
    def test_wrap_omitted_exactly_when_the_range_fits(self, src):
        m = parse_module(f"fn @f(%x: {src}) -> void {{\nentry:\n  ret\n}}\n")
        writer = _Writer(_shared(m), m.functions["f"], True, DEFAULT_MEMORY)
        lo, hi = _range(src)
        assert _kind(m.functions["f"].params[0][1]) == (-lo, hi - lo)
        for dst in _INT_TYPES + ("ptr(i8)",):
            kind = _kind(_value_type(dst))
            fits = _range(dst)[0] <= lo and hi <= _range(dst)[1]
            assert fits == (_wrap(lo, kind) == lo and _wrap(hi, kind) == hi), (src, dst)
            assert (writer.val(Temp("x"), kind) == "v_x") == fits, (src, dst)

    @pytest.mark.parametrize("src, dst, wrapped", [
        ("u8", "i32", False), ("u32", "i64", False), ("ptr(i8)", "i64", True),
        ("i8", "u16", True)])
    def test_reads_of_a_wider_kind(self, src, dst, wrapped):
        """Each end of the source's range, read as the wider kind, compares
        equal to itself wrapped to that kind."""
        kind = _kind(_value_type(dst))
        for x in _range(src):
            m = parse_module(f"fn @f(%x: {src}) -> i64 {{\nentry:\n"
                             f"  %e = cmp {dst} %x, {_wrap(x, kind)}\n"
                             f"  %h = div {dst} %x, 2\n  %r = add i64 %e, %h\n"
                             "  ret i64 %r\n}\n")
            got = assert_same_runs(m, "f", [x], arg_tags=[b"\x01"])
            assert got["instr"][0].exit_value == 1 + _wrap(int(_wrap(x, kind) / 2), kind)
            compare = next(line for line in self._source(m, "f").splitlines()
                           if "v_e = " in line)
            assert ("& 0x" in compare) == wrapped, compare

    def test_traps_and_counts_with_dropped_lines(self):
        """A compare that only branches, a gep only dereferenced and a temp
        whose only tag reader was such a compare, read where no path
        defined it: every step budget stops where the step interpreter
        does."""
        m = parse_module(ELIDED)
        source = self._source(m, "f")
        assert "g_b" in source and not re.search(r"\bg_[cqku]\b", source)
        rules, _ = compile_library(m)

        def before(machine):
            machine.tagmap.set_taint(machine.global_addr["buf"], 6, 4)
        for entry in ("f", "main"):
            for n in (2, 3):
                total = outcome(Machine, m, entry, [n], before=before, mem_size=1 << 16)[1]
                for budget in range(1, total + 2):
                    got = assert_same_runs(m, entry, [n], rules, arg_tags=[b"\x02"],
                                           before=before, mem_size=1 << 16,
                                           step_budget=budget)
                    result = got["instr"][0]
                    if budget < total:
                        assert result[:2] == ("trap", "step budget exhausted"), budget
                    elif n == 3:
                        assert result == ("trap", "undefined temporary", None), budget
                    else:       # %u is 3, as @buf[2] is
                        assert result.exit_value == 3 + (entry == "main")


WRAPS = """\
global @out : [4 x i64] = bytes(5, 0, 0, 0, 0, 0, 0, 0, 7)

fn @f(%x: {t}, %y: {t}, %k: {t}) -> {t} library {{
entry:
  %a = add {t} %x, 1
  %b = sub {t} %y, 1
  %c = mul {t} %x, %x
  %d = shl {t} %x, %k
  %p = gep [4 x i64], @out, 0, 1
  store {t} %b, %p
  %q = gep [4 x i64], @out, 0, 2
  store {t} %c, %q
  %r = gep [4 x i64], @out, 0, 3
  store {t} %d, %r
  ret {t} %a
}}

fn @g(%p: ptr(i64), %i: i64, %j: i64) -> i64 library {{
entry:
  %q = gep i64, %p, %i
  %v = load i64, %q
  %r = gep i64, %p, %j
  %w = load i64, %r
  %s = add i64 %v, %w
  ret i64 %s
}}
"""


class TestRangeTestedWrap:
    """Generated code wraps an int with a range test, and `_wrap`'s bias
    and mask only on the branch a value outside the range takes: the value
    bias-and-mask arithmetic gives for every int kind, and runs that stay
    the step interpreter's, whose wrap is arithmetic."""

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(_INT_TYPES + ("ptr(i8)",)), st.data())
    def test_emitted_expression_is_bias_and_mask(self, name, data):
        """The line a binop of `name` binds its temp with, on each end of
        the range, one past and one inside it, 0, a product of two 64-bit
        values and a shift by 63."""
        lo, hi = _range(name)
        word = st.integers(-2 ** 63, 2 ** 64 - 1)
        v = data.draw(st.one_of(
            st.sampled_from([lo - 1, lo, lo + 1, 0, hi - 1, hi, hi + 1]),
            st.builds(operator.mul, word, word), st.builds(lambda x: x << 63, word)))
        bits = 8 * _size(name)
        bias, mask = (1 << bits - 1 if lo else 0), (1 << bits) - 1
        m = parse_module(f"fn @f(%x: {name}) -> {name} {{\nentry:\n"
                         f"  %r = add {name} %x, 0\n  ret {name} %r\n}}\n")
        writer = _Writer(_shared(m), m.functions["f"], True, DEFAULT_MEMORY)
        line = writer.binop(m.functions["f"].blocks[0].instrs[0])[0]
        assert _RANGE_TESTED.fullmatch(line), line
        scope = {"v_x": v}
        exec(line, scope)
        assert scope["v_r"] == ((v + bias) & mask) - bias and lo <= scope["v_r"] <= hi

    @pytest.mark.parametrize("name", _INT_TYPES + ("ptr(i8)",))
    @pytest.mark.parametrize("ends", [True, False])
    def test_overflow_matches_the_step_interpreter(self, name, ends):
        """Add at the type's maximum, sub at its minimum, a mul that
        overflows and a shl past the width, or the same on values inside
        the range: every step budget, both modes."""
        m = parse_module(WRAPS.format(t=name))
        rules, _ = compile_library(m)
        lo, hi = _range(name)
        args = [hi, lo, 8 * _size(name) - 1] if ends else [3, 9, 2]
        total = outcome(Machine, m, "f", args, mem_size=1 << 16)[1]
        for budget in range(1, total + 2):
            got = assert_same_runs(m, "f", args, rules, arg_tags=[b"\x01", b"\x02", b"\x04"],
                                   mem_size=1 << 16, step_budget=budget)
            if budget >= total:
                assert got["instr"][0].exit_value == (lo if ends else 4)

    @pytest.mark.parametrize("i, j, want", [
        (2 ** 61 + 1, -2 ** 63, 12),       # p + 8 and p, each past 2 ** 64
        (-2 ** 63 + 1, None, "addr=0xfffffffffffffff0 size=8"),    # p + 8, and below 0
    ])
    def test_gep_index_wraps_the_address(self, i, j, want):
        """A gep whose index carries the address past 2 ** 64 lands where
        the wrapped sum does: on @out, or below memory, where the load
        traps with the wrapped address; every step budget, both modes."""
        m = parse_module(WRAPS.format(t="i64"))
        rules, _ = compile_library(m)
        p = _shared(m).global_addr["out"]
        args = [p, i, -(p // 8) - 2 if j is None else j]
        total = outcome(Machine, m, "g", args, mem_size=1 << 16)[1]
        for budget in range(1, total + 2):
            got = assert_same_runs(m, "g", args, rules, arg_tags=[b"\x01", b"\x02", b"\x04"],
                                   mem_size=1 << 16, step_budget=budget)
            if budget >= total:
                assert (got["instr"][-1] if j is None else got["instr"][0].exit_value) == want


_TOP = 1 << 16      # the memory size of the bulk-round runs
BULK_LOOPS = ("memcpy", "memset_a", "strcpy_a", "strlen_a", "copy_twice")


def _rounds_returned(run) -> list[int]:
    """What each `_rounds` call returned while `run()` ran: the rounds a
    loop's bulk form ran, 0 where its guard left them to the loop."""
    got = []

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is tracker._rounds.__code__:
            got.append(arg)
    sys.setprofile(watch)
    try:
        run()
    finally:
        sys.setprofile(None)
    return got


def _bulk_call(fn, src, dst, n, data, other=3 * PAGE + 512, byte=0x41):
    """The arguments of a call of libcorpus `fn` on those buffers, and a
    machine set-up that writes `data` at `src`, clipped to memory."""
    args = {"memcpy": [dst, src, n], "memset_a": [dst, byte, n], "strcpy_a": [dst, src],
            "strlen_a": [src], "copy_twice": [dst, other, src, n]}[fn]

    def before(m):
        lo, hi = max(src, GLOBALS_BASE), min(src + len(data), _TOP)
        if lo < hi:
            m.write_bytes(lo, data[lo - src:hi - src])
    return args, before


@st.composite
def bulk_runs(draw):
    """A call of a libcorpus copy, fill or scan loop on buffers anywhere
    from below the globals to past the top of memory: across a page, over
    the loop's promoted slots at the top of the stack, overlapping either
    way; with counts of 0, 1 and below 0, binary bytes with embedded NULs,
    and a step budget that may cut the loop anywhere."""
    def addr():
        return draw(st.one_of(
            st.integers(GLOBALS_BASE - 8, GLOBALS_BASE + 40),      # the bottom of memory
            st.integers(2 * PAGE - 40, 2 * PAGE + 8),              # across a page
            st.integers(_TOP - 120, _TOP + 8),     # the promoted slots and the top
            st.integers(3 * PAGE, 3 * PAGE + 200), st.integers(4 * PAGE, 5 * PAGE)))
    fn, src = draw(st.sampled_from(BULK_LOOPS)), addr()
    dst = draw(st.one_of(st.integers(src - 48, src + 48), st.just(addr()), st.just(addr())))
    n = draw(st.one_of(st.sampled_from([0, 1, -1, -9]), st.integers(2, 90), st.integers(2, 90)))
    data = draw(st.binary(max_size=100))
    budget = draw(st.one_of(st.integers(1, 2000), st.just(4000)))      # or every round
    return (fn, *_bulk_call(fn, src, dst, n, data, addr(), draw(st.integers(-300, 300))),
            budget)


OTHER_LOOPS = """\
global @buf : [600 x char] = bytes(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)

fn @swap(%a: ptr(char), %b: ptr(char), %n: i64) -> i64 library {
entry:
  %ap = alloca ptr(char)
  %bp = alloca ptr(char)
  %np = alloca i64
  store ptr(char) %a, %ap
  store ptr(char) %b, %bp
  store i64 %n, %np
  jmp loop
loop:
  %x = load ptr(char), %ap
  %y = load ptr(char), %bp
  %c = load char, %y
  store char %c, %x
  %y1 = gep char, %y, 1
  store ptr(char) %y1, %ap
  %x1 = gep char, %x, 1
  store ptr(char) %x1, %bp
  %n0 = load i64, %np
  %n1 = sub i64 %n0, 1
  store i64 %n1, %np
  %z = cmp i64 %n1, 0
  br %z, done, loop
done:
  ret i64 %n1
}

fn @fill(%d: ptr(char), %n: i64, %s: i64) -> i64 library {
entry:
  %dp = alloca ptr(char)
  %np = alloca i64
  store ptr(char) %d, %dp
  store i64 %n, %np
  jmp loop
loop:
  %p = load ptr(char), %dp
  store char 7, %p
  %p1 = gep char, %p, %s
  store ptr(char) %p1, %dp
  %n0 = load i64, %np
  %n1 = sub i64 %n0, 1
  store i64 %n1, %np
  %z = cmp i8 %n1, 0
  br %z, done, loop
done:
  ret i64 %n0
}

fn @up(%d: ptr(char), %n: i64) -> i64 library {
entry:
  %dp = alloca ptr(char)
  %ip = alloca i64
  %m = sub i64 0, %n
  store ptr(char) %d, %dp
  store i64 %m, %ip
  jmp loop
loop:
  %p = load ptr(char), %dp
  store char %n, %p
  %p1 = gep char, %p, 1
  store ptr(char) %p1, %dp
  %i0 = load i64, %ip
  %i1 = add i64 %i0, 1
  store i64 %i1, %ip
  %z = cmp i64 %i1, 0
  br %z, done, loop
done:
  ret i64 %i1
}

fn @spin(%n: i64) -> i64 library {
entry:
  %np = alloca i64
  store i64 %n, %np
  jmp loop
loop:
  %n0 = load i64, %np
  %n1 = sub i64 %n0, 1
  store i64 %n1, %np
  %z = cmp i64 %n1, 0
  br %z, done, loop
done:
  ret i64 %n0
}
"""


class TestBulkRounds:
    """Untracked, a recognized copy, fill or scan loop runs every round but
    its last in one slice operation when the guard holds, and as a loop
    otherwise; either way it leaves the memory, pages marked written,
    counters, return value and trap that the step interpreter leaves."""

    @staticmethod
    def _runs(libcorpus, lib_rules, fn, args, before, **kw):
        return [outcome(cls, libcorpus, fn, args, mode="hybrid", rule_programs=lib_rules,
                        mem_size=_TOP, before=before, **kw)
                for cls in (Machine, ReferenceMachine)]

    @pytest.mark.parametrize("fn, args, bulk", [
        ("swap", [0, 100, 20], False),      # pointers that trade places each round
        ("fill", [0, 20, 2], False),        # a store that moves by 2
        ("fill", [0, 300, 1], False),       # a count compared as i8: 256 rounds short
        ("up", [0, 30], True),              # a count up to 0
        ("spin", [40], True),               # no memory
    ])
    def test_other_loops(self, fn, args, bulk):
        """Only a loop whose values move by a fixed step and whose count is
        read whole gets the bulk form; any other, and every budget that
        cuts one, leaves what the step interpreter leaves."""
        m = parse_module(OTHER_LOOPS)
        rules, _ = compile_library(m)
        writer = _Writer(_shared(m), m.functions[fn], False, _TOP)
        writer.code()
        assert ("_rounds(" in "\n".join(writer.src)) == bulk
        pointers = {"swap": 2, "fill": 1, "up": 1, "spin": 0}[fn]
        args = [a + _shared(m).global_addr["buf"] * (i < pointers) for i, a in enumerate(args)]
        total = outcome(Machine, m, fn, args, mode="hybrid", rule_programs=rules,
                        mem_size=_TOP)[1]
        for budget in [*range(1, min(total, 400) + 2), total, None]:
            got = [outcome(cls, m, fn, args, mode="hybrid", rule_programs=rules, mem_size=_TOP,
                           **_budget(budget)) for cls in (Machine, ReferenceMachine)]
            assert got[0] == got[1], budget

    @pytest.mark.parametrize("program", corpus.NAMES)
    def test_only_untracked_code_runs_rounds_at_once(self, program):
        """Tracked code keeps every round of every loop; untracked, each
        corpus copy, fill and scan loop gets the bulk form."""
        module = corpus.load_module(program)
        for fn in module.functions:
            for live in (True, False):
                writer = _Writer(_shared(module), module.functions[fn], live, DEFAULT_MEMORY)
                writer.code()
                bulk = "_rounds(" in "\n".join(writer.src)
                assert bulk == (not live and fn in BULK_LOOPS[:4]), (program, fn, live)

    def test_bench_memcpy_counts_every_instruction(self, bench_memcpy):
        """At n=2048 hybrid still reports the instructions that the loop
        form runs, nearly all of them in `@memcpy`'s untracked rounds."""
        rules, _ = compile_library(bench_memcpy)
        got = {}
        for mode in ("instr", "hybrid"):
            m = Machine(bench_memcpy, mode=mode, rule_programs=rules)
            ran = _rounds_returned(lambda: m.call_entry("main", [2048]))
            got[mode] = (m.instr_total, m.instr_unins, ran, m.memory)
        assert got["instr"][:3] == (28691, 0, [])
        assert got["hybrid"][:3] == (28691, 28685, [2047])
        assert got["instr"][3] == got["hybrid"][3]

    @settings(max_examples=400, deadline=None)
    @given(bulk_runs())
    def test_random_buffers_match_the_step_interpreter(self, libcorpus, lib_rules, run):
        fn, args, before, budget = run
        runs = self._runs(libcorpus, lib_rules, fn, args, before, step_budget=budget)
        assert runs[0][0] == runs[1][0], fn
        assert runs[0] == runs[1], fn

    @pytest.mark.parametrize("fn, src, dst, n, data, rounds", [
        ("memcpy", 3 * PAGE, 3 * PAGE + 256, 40, b"x" * 40, [39]),
        ("memcpy", 2 * PAGE - 20, 3 * PAGE + 5, 40, bytes(range(40)), [39]),   # across a page
        ("memcpy", 3 * PAGE + 8, 3 * PAGE + 5, 40, b"\0\1" * 20, [39]),  # dst below src
        ("memcpy", 3 * PAGE, 3 * PAGE, 40, b"ab" * 20, [39]),
        ("memcpy", 3 * PAGE, 3 * PAGE + 3, 40, b"abc" * 14, [0]),     # dst above, inside src
        ("memcpy", 3 * PAGE, 3 * PAGE + 38, 40, b"abc" * 14, [0]),
        ("memcpy", 3 * PAGE, 3 * PAGE + 39, 40, b"abc" * 14, [39]),  # only the last round's
        ("memcpy", 3 * PAGE, 3 * PAGE + 40, 40, b"abc" * 14, [39]),
        ("memcpy", 3 * PAGE, _TOP - 60, 40, b"abc" * 14, [0]),     # onto its promoted slots
        ("memcpy", _TOP - 30, 3 * PAGE, 40, b"abc" * 14, [0]),     # from them, past the top
        ("memcpy", GLOBALS_BASE - 4, 3 * PAGE, 40, b"", [0]),     # from below memory
        ("memcpy", 3 * PAGE, 3 * PAGE + 64, 0, b"", []),
        ("memcpy", 3 * PAGE, 3 * PAGE + 64, 1, b"q", [0]),
        ("memcpy", _TOP - 74, 3 * PAGE, -3, b"q", [0]),     # until it loads past the top
        ("memset_a", 0, 2 * PAGE - 7, 30, b"", [29]),
        ("memset_a", 0, _TOP - 40, 30, b"", [0]),
        ("strcpy_a", 3 * PAGE, 3 * PAGE + 64, 0, b"abcdef\0gh\0", [5]),
        ("strcpy_a", _TOP - 200, _TOP - 198, 0, b"abcdef\0gh\0", [0]),
        ("strcpy_a", 3 * PAGE + 2, 3 * PAGE, 0, b"abcdef\0gh\0", [5]),
        ("strcpy_a", 3 * PAGE, 3 * PAGE + 7, 0, b"abcdef\0gh\0", [5]),   # the NUL's round
        ("strcpy_a", 3 * PAGE, 3 * PAGE + 64, 0, b"a\0", [0]),
        ("strlen_a", 2 * PAGE - 5, 0, 0, b"\xff" * 9 + b"\0", [8]),
        ("strlen_a", _TOP - 90, 0, 0, b"\xff" * 90, [81]),  # up to its slot, left to the loop
        ("copy_twice", 3 * PAGE, 2 * PAGE - 3, 9, b"\0" * 9, [8, 8]),
    ])
    def test_guard(self, libcorpus, lib_rules, fn, src, dst, n, data, rounds):
        """The rounds the bulk form runs: all but the last when the guard
        holds, none when a store would reach a byte a later round loads,
        the promoted range or past memory."""
        args, before = _bulk_call(fn, src, dst, n, data)
        got = []
        assert _rounds_returned(lambda: got.extend(self._runs(
            libcorpus, lib_rules, fn, args, before))) == rounds
        assert got[0] == got[1]

    @pytest.mark.parametrize("fn, src, dst, n, data", [
        ("memcpy", 2 * PAGE - 3, 3 * PAGE, 6, b"ab\0cd\0"),
        ("memset_a", 0, 2 * PAGE - 3, 6, b""),
        ("strcpy_a", 2 * PAGE - 3, 2 * PAGE - 5, 0, b"ab\xffcd\0"),
        ("strlen_a", 2 * PAGE - 3, 0, 0, b"ab\xffcd\0"),
        ("copy_twice", 2 * PAGE - 3, 3 * PAGE + 7, 5, b"abcde"),
    ])
    def test_every_budget(self, libcorpus, lib_rules, fn, src, dst, n, data):
        """A budget that cuts the loop leaves every round to it; one that
        holds them all lets the bulk form run all but the last."""
        args, before = _bulk_call(fn, src, dst, n, data)
        total = outcome(Machine, libcorpus, fn, args, mode="hybrid", rule_programs=lib_rules,
                        mem_size=_TOP, before=before)[1]
        bulk = set()
        for budget in range(1, total + 2):
            got = []
            bulk.update(_rounds_returned(lambda: got.extend(self._runs(
                libcorpus, lib_rules, fn, args, before, step_budget=budget))))
            assert got[0] == got[1], budget
        assert len(bulk - {0}) == 1, bulk
