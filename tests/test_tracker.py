"""Shadow-store algebra, interpreter semantics, hybrid switching, rule
application, traps, sources/sinks, and the compiled functions against the
step interpreter that compiled code replaced."""

import dataclasses
import functools
import gc
import math
import operator
import random
import re
import struct
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
from taintsum.rules import (
    GATHER_FIXED, GATHER_STRING, READ_OUT, SET_FIXED, SET_STRING,
    compile_library,
)
from taintsum.tracker import (
    DEFAULT_MEMORY, GLOBALS_BASE, MAX_FRAMES, PAGE, Image, Memory, RunReport, SinkHit,
    SinkSpec, SourceSpec, Tagmap, _Frame, _Writer, _compiled, _kind, _resize_vec, _wrap,
)
from taintsum.validate import build_plan, materialize_plan
from test_ir import _straightline_function
from test_rules import random_shadow_state, rule_modules


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
    step: ("mem", (addr, size-or-None)), ("nu", argindex) or ("ret", None);
    None for a null pointer or an unresolvable slot.  A size of None marks
    a string extent scanned at application time."""
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


def reference_apply(prog, arg_record, machine):
    """Rule application with per-step extents taken from the slot types,
    kept as the oracle for `apply_rule_program`, which takes them from the
    step."""
    acc = 0
    out_tag = 0
    current_entry = -1
    for step in prog.steps:
        if step.entry != current_entry:
            current_entry = step.entry
            acc = 0
            out_tag = 0
        machine.shadow_ops_rules += 1
        loc = _reference_region(machine, prog.function, step.slot, arg_record)
        if loc is None:
            continue
        kind, payload = loc
        if step.op in (GATHER_FIXED, GATHER_STRING):
            if kind == "nu":
                acc |= _fold(arg_record[payload][1])
            elif kind == "ret":
                acc |= _fold(machine.ret_shadow)
            else:
                addr, sz = payload
                if sz is None or step.op == GATHER_STRING:
                    sz = machine.scan_string(addr, step.max_len
                                             or machine.default_len)
                acc |= machine.tagmap.get_taint(addr, sz)
        elif step.op == READ_OUT:
            if kind == "ret":
                out_tag = _fold(machine.ret_shadow)
            elif kind == "nu":
                out_tag = _fold(arg_record[payload][1])
            else:
                addr, sz = payload
                if sz is None or step.max_len is not None:
                    sz = machine.scan_string(addr, step.max_len
                                             or machine.default_len)
                out_tag = machine.tagmap.get_taint(addr, sz)
        elif step.op in (SET_FIXED, SET_STRING):
            tag = out_tag | acc
            if kind == "ret":
                w = step.nbytes if step.nbytes is not None else len(machine.ret_shadow)
                machine.ret_shadow = bytes([tag]) * w
            elif kind == "mem":
                addr, sz = payload
                if sz is None or step.op == SET_STRING:
                    sz = machine.scan_string(addr, step.max_len
                                             or machine.default_len)
                machine.tagmap.set_taint(addr, tag, sz)


class TestRuleApplicationOracle:
    def test_matches_reference_on_random_shadow_states(self):
        """Step-carried extents give the same shadow state as extents
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

    def test_sink_inside_library_context_is_suppressed(
            self, student_flow, student_flow_rules):
        cfg = TaintConfig.from_json({
            "sources": [{"fn": "fgets_a", "where": "param",
                         "index": 0, "label": 1}],
            "sinks": [{"fn": "memcpy", "index": 1}]})
        instr = run(student_flow, "main", [], cfg, "instr", student_flow_rules)
        hybrid = run(student_flow, "main", [], cfg, "hybrid", student_flow_rules)
        # instruction mode checks the sink at the memcpy call inside
        # student_cpy; hybrid suppresses instrumentation there
        assert instr.sink_hits and instr.sink_hits[0].fn == "memcpy"
        assert hybrid.sink_hits == ()

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
        buf = Image(m).global_addr["buf"]
        for result in assert_same_runs(m, "main", [5], {}, taint_config=cfg).values():
            assert result[0].tainted_bytes_final == tuple((buf + i, 1) for i in (2, 3, 4))
            assert result[0].ret_tag == 2

    def test_parameter_source_narrows_the_argument(self):
        """The source gives %v the 4-byte vector of @take's parameter, which
        the i64 store after the call widens again by its fold."""
        m = parse_module(NARROWED)
        cfg = TaintConfig.from_json(
            {"sources": [{"fn": "take", "where": "param", "index": 0, "label": 4}]})
        cell = Image(m).global_addr["cell"]

        def pretaint(machine):
            machine.tagmap.set_vector(cell, bytes([1, 0, 0, 0, 0, 0, 0, 2]))
        for result in assert_same_runs(m, "main", [0], {}, taint_config=cfg,
                                       before=pretaint).values():
            tagged = dict(result[0].tainted_bytes_final)
            assert [tagged[cell + 8 + i] for i in range(8)] == [5, 4, 4, 4, 5, 5, 5, 5]


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
    the counters, final memory and the pages marked written, Tagmap pages,
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
            {p: bytes(page) for p, page in m.tagmap.pages.items()},
            m.ret_shadow, tuple(m.sink_hits), m.live, detail)


def assert_same_runs(module, entry, args, rules=None, **kw):
    """Both interpreters, both modes: identical outcomes, also from the
    consecutive machines of one image shared by both modes.  Returns the
    compiled interpreter's outcome per mode."""
    mem_size = kw.pop("mem_size", DEFAULT_MEMORY)
    images = {cls: Image(module, rules, mem_size) for cls in (Machine, ReferenceMachine)}
    got = {}
    for mode in ("instr", "hybrid"):
        decoded = outcome(Machine, module, entry, args, mode=mode,
                          rule_programs=rules, mem_size=mem_size, **kw)
        reference = outcome(ReferenceMachine, module, entry, args, mode=mode,
                            rule_programs=rules, mem_size=mem_size, **kw)
        assert decoded[0] == reference[0], (mode, decoded[0], reference[0])
        assert decoded == reference, mode
        for cls, image in images.items():
            assert outcome(cls, image, entry, args, mode=mode, **kw) == decoded, (
                cls.__name__, mode)
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
    `LOOP_CFG`'s sources resize.  Returns (source, entry argument count)."""
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
            line = f"  %c = call i16 @h({operand('i32')}, {operand('u8')})"
            temps.append(("c", "i16"))
        else:
            line = f"  %c = call i64 @k({operand('f64')}, {operand('i8')})"
            temps.append(("c", "i64"))
        return [line]

    entry = ["  %pad = alloca [16 x char]", "  %cnt = and i64 %p0, 3"]
    entry += define("acc") + steps() + ["  jmp head"]
    head = ["  %z = cmp i64 %cnt, 0", "  br %z, exit, body"]
    body = ["  %cnt = sub i64 %cnt, 1"] + steps()
    early = draw(st.booleans())        # the call before the branch, or after the join
    body += (call() if early else []) + [f"  br {operand('i64')}, then, join"]
    then = define("once") + ["  jmp join"]
    if not draw(st.booleans()):     # %once is never read
        temps.pop()
    join = steps() + ([] if early else call()) + steps()
    join += define("acc", "%acc") + ["  jmp head"]
    rty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
    blocks = {"entry": entry, "head": head, "body": body, "then": then, "join": join,
              "exit": [f"  ret {rty} {operand(rty)}"]}
    src = (HELPERS + f"\nfn @f({', '.join(params)}) -> {rty} {{\n"
           + "".join(f"{label}:\n" + "\n".join(lines) + "\n" for label, lines in blocks.items())
           + "}\n")
    return src, n_params


_SLOT_TYPES = _INT_TYPES + ("ptr(char)", "ptr(i64)")
_SLOT_OPS = ("load", "load", "store", "store", "zero", "wild load", "wild store",
             "saved", "call", "put", "divide", "stray")
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
def slotted_function(draw):
    """A random entry `@f` whose scalar allocas are all promoted: a loop of
    at most three iterations whose counter is the slot %ctr, and in the
    entry, loop body and exit, drawn steps on the slots (%sp, a `ptr(char)`,
    and one to three of other drawn types): loads, which may come before any
    store; stores of temps of any type and of tainted values then zero;
    loads and stores of any width through a gep off the escaped
    `[16 x char]` %buf with a drawn negative offset, which may land on a
    slot, directly or through a pointer saved in %sp; calls to @h and @k,
    and to @put, which writes through such a pointer; divisions that may
    trap; and rare loads through %p0, which trap out of bounds.  Returns
    (source, entry argument count, slot names)."""
    params, temps = ["%p0: i64"], [("p0", "i64")]
    for i in range(1, draw(st.integers(1, 3))):
        ty = draw(st.sampled_from(_INT_TYPES + _FLOAT_TYPES))
        params.append(f"%p{i}: {ty}")
        temps.append((f"p{i}", ty))
    slots = [("sp", "ptr(char)")] + [(f"s{j}", draw(st.sampled_from(_SLOT_TYPES)))
                                     for j in range(draw(st.integers(1, 3)))]
    counter = [0]

    def operand(ty):
        if draw(st.integers(0, 9)) < 7:
            return "%" + draw(st.sampled_from(temps))[0]
        if ty in _FLOAT_TYPES:
            return draw(st.sampled_from(("0.0", "1.5", "-2.25")))
        return str(draw(st.sampled_from((0, 1, -1, 7, 255, 2 ** 31))))

    def wild():
        counter[0] += 1
        return f"w{counter[0]}", [f"  %w{counter[0]} = gep [16 x char], %buf, 0,"
                                  f" {draw(st.integers(-40, -1))}"]

    def steps():
        out = []
        for _ in range(draw(st.integers(0, 5))):
            counter[0] += 1
            t = f"t{counter[0]}"
            kind = draw(st.sampled_from(_SLOT_OPS))
            slot, sty = draw(st.sampled_from(slots + [("ctr", "i64")] * (kind == "load")))
            wty = draw(st.sampled_from(_INT_TYPES))
            if kind == "load":
                out.append(f"  %{t} = load {sty}, %{slot}")
                temps.append((t, sty))
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
            elif kind == "divide":
                out.append(f"  %{t} = div {wty} {operand(wty)}, {operand(wty)}")
                temps.append((t, wty))
            elif draw(st.integers(0, 3)) == 0:      # stray
                out.append(f"  %{t} = load i32, %p0")
        return out

    entry = ["  %buf = alloca [16 x char]", "  %ctr = alloca i64"]
    entry += [f"  %{name} = alloca {ty}" for name, ty in slots]
    entry += [f"  store {ty} {operand(ty)}, %{name}" for name, ty in slots if draw(st.booleans())]
    entry += ["  %n = and i64 %p0, 3"] + steps() + ["  store i64 0, %ctr", "  jmp head"]
    head = ["  %i = load i64, %ctr", "  %z = cmp i64 %i, %n", "  br %z, exit, body"]
    body = steps() + ["  %i1 = add i64 %i, 1", "  store i64 %i1, %ctr", "  jmp head"]
    blocks = {"entry": entry, "head": head, "body": body,
              "exit": steps() + [f"  ret i64 {operand('i64')}"]}
    src = (HELPERS + PUT + f"\nfn @f({', '.join(params)}) -> i64 {{\n"
           + "".join(f"{label}:\n" + "\n".join(lines) + "\n" for label, lines in blocks.items())
           + "}\n")
    return src, len(params), ["ctr"] + [name for name, _ in slots]


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


class TestExactTraps:
    """Every trap inside a segment leaves the instruction counts, shadow-op
    counts, memory and Tagmap the step interpreter leaves, as does a step
    budget that runs out at any instruction of any segment."""

    @pytest.mark.parametrize("kind", sorted(MID_SEGMENT_TRAPS))
    def test_trap_inside_a_segment(self, kind):
        src, args, uid, kw = MID_SEGMENT_TRAPS[kind]
        m = parse_module(src + MAIN_CALLS_LIB)
        if uid is not None:     # after the first of its segment, before the last
            seg = next(seg for _, seg in _Writer(Image(m), m.functions["lib"], True).segs
                       if uid in [i.uid for i in seg])
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

    def test_undefined_read_in_warm_code(self):
        """Once a function's code is warm the interpreter fuses the read of
        `%x`'s local with the store of `%y`'s before it, and reports the
        failed read on the store's line; the trap still counts the read."""
        m = parse_module(WARM_UNDEFINED)
        image = Image(m, mem_size=1 << 16)
        want = {mode: outcome(ReferenceMachine, m, "f", [1], mode=mode, mem_size=1 << 16)
                for mode in ("instr", "hybrid")}
        assert want["instr"][:2] == (("trap", "undefined temporary", None), 4)
        for _ in range(20):
            for mode, reference in want.items():
                assert outcome(Machine, image, "f", [1], mode=mode) == reference, mode

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
        """The image keeps its compiled functions and bound rules after each
        of its machines is gone, so it must hold none of them."""
        image = Image(student_flow, student_flow_rules, 1 << 16)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for mode, budget in (("instr", None), ("hybrid", None), ("hybrid", 100)):
                m = Machine(image, mode=mode, taint_config=FLOW_CFG, **_budget(budget))
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
        assert ("memcpy", False) in image.code and ("memcpy", True) in image.code


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
            writer = _Writer(Image(bench_memcpy), bench_memcpy.functions[name], True)
            writer.code()
            assert [line for line in writer.src if not line.startswith(" ")] == [
                "def F(m, f):"]
        source = "\n".join(writer.src)      # main's: its call returns into it
        assert "v_r = c.code(m, c)" in source
        assert re.findall(r"\bt\[.*", source) == ["t['n']; g_n = tg['n']"]

    def test_bench_user_loop_reads_no_frame_temp(self, bench_user):
        writer = _Writer(Image(bench_user), bench_user.functions["main"], True)
        writer.code()
        source = "\n".join(writer.src)
        assert "tg.get(" not in source and "t['i']" not in source
        assert "t['n']" in source     # the parameter, once at entry


class TestPromotedSlots:
    """Scalar allocas used only by their own loads and stores live in
    locals; memory, Tagmap pages, counters and traps stay the step
    interpreter's."""

    @settings(max_examples=300, deadline=None)
    @given(slotted_function(), st.integers(0, 2 ** 32), BUDGETS, st.booleans())
    def test_random_slotted_functions(self, fn_src, seed, budget, sources):
        src, n, slots = fn_src
        m = parse_module(src)
        for live in (True, False):
            assert list(_Writer(Image(m), m.functions["f"], live).slots) == slots
        rules, _ = compile_library(m)
        rng = random.Random(seed)
        assert_same_runs(m, "f", _arg_values(rng, n), rules, arg_tags=_arg_tags(rng, n),
                         taint_config=SLOT_CFG if sources else None, mem_size=1 << 16,
                         **_budget(budget))

    @pytest.mark.parametrize("program, fn, slots", [
        ("bench_user", "main", ["sump", "ip"]), ("bench_memcpy", "memcpy", ["dp", "sp", "np"])])
    def test_benchmark_slots_skip_the_memory_path(self, program, fn, slots):
        module = corpus.load_module(program)
        for live in (True, False):
            writer = _Writer(Image(module), module.functions[fn], live)
            writer.code()
            source = "\n".join(writer.src)
            assert list(writer.slots) == slots
            for x in slots:
                assert f"P_{x} = " in source
                assert not re.search(rf"(_check_bounds\(|_[up]\w\(mem, |pages\.get\()v_{x}\b",
                                     source), (live, x)

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
        assert list(_Writer(Image(m), m.functions["f"], True).slots) == promoted
        assert_same_runs(m, "f", [], mem_size=1 << 16)


class TestCodeCache:
    """Images of one module share each function's written code, and code
    objects are shared process-wide by source text, so equal source means
    equal code and an entry is never stale."""

    def test_images_of_one_module_share_code(self, student_flow, student_flow_rules):
        a, b = (Image(student_flow, student_flow_rules) for _ in range(2))
        for fn in student_flow.functions.values():
            for live in (True, False):
                assert a.compiled(fn, live) is b.compiled(fn, live)

    def test_layout_and_memory_size_get_their_own_code(self):
        """@buf's address and the bounds checks are literals in the code; the
        load at the top of the smaller memory traps there only."""
        base, moved = (parse_module(LAYOUT.format(pad=pad)) for pad in (8, 40))
        images = [Image(base, mem_size=1 << 16), Image(moved, mem_size=1 << 16),
                  Image(base, mem_size=1 << 17)]
        codes = [im.compiled(im.module.functions["f"], True).__code__
                 for im in images]
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

    def test_cache_is_bounded(self):
        maxsize = _compiled.cache_info().maxsize
        assert maxsize is not None
        for k in range(maxsize + 5):
            m = parse_module(f"fn @f() -> i64 {{\nentry:\n  ret i64 {k}\n}}\n")
            assert Machine(m, mem_size=1 << 16).call_entry("f", []) == k
        assert _compiled.cache_info().currsize == maxsize


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
# code depends on; a parsed module refuses each.  "mem_size" changes the image.
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
    """Every image of a module takes a function's code from one bounded
    process-wide table; a parsed module refuses every change to what the
    writer read, so no entry goes stale."""

    @pytest.mark.parametrize("change", IN_PLACE)
    def test_stale_entry_is_never_used(self, change):
        m = parse_module(SHARED)
        f, mem_size = m.functions["f"], 1 << 16
        before = {live: Image(m, mem_size=mem_size).compiled(f, live) for live in (True, False)}
        for live, code in before.items():
            assert Image(m, mem_size=mem_size).compiled(f, live) is code
        if change == "mem_size":
            mem_size *= 2
        else:
            with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
                IN_PLACE[change](m)
            assert m == parse_module(SHARED)
        for live, code in before.items():
            same = Image(m, mem_size=mem_size).compiled(f, live) is code
            assert same == (change != "mem_size"), live
        assert_same_runs(m, "f", [300, 0x8000], {}, mem_size=mem_size,
                         arg_tags=[b"\x01" * 8, b"\x02" * 8])

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tracker, "CODE_TABLE_SIZE", 4)
        monkeypatch.setattr(tracker, "_code_table", {})
        modules = [parse_module(f"fn @f() -> i64 {{\nentry:\n  ret i64 {k}\n}}\n")
                   for k in range(7)]
        first = Image(modules[0], mem_size=1 << 16).compiled(modules[0].functions["f"], True)
        for k, m in enumerate(modules):
            assert Machine(m, mem_size=1 << 16).call_entry("f", []) == k
            assert len(tracker._code_table) <= 4
        again = Image(modules[0], mem_size=1 << 16).compiled(modules[0].functions["f"], True)
        assert again is not first and again.__code__ is first.__code__
        assert again.__globals__["_lines"] == first.__globals__["_lines"]

    def test_machines_of_two_images_are_independent(self, student_flow,
                                                    student_flow_rules):
        """What one image's machines leave behind, run to the end or stuck
        inside a summarized call, reaches no machine of another image of
        the module, although the two share code."""
        a, b = (Image(student_flow, student_flow_rules, 1 << 16) for _ in range(2))
        dirty = Machine(a, mode="hybrid", taint_config=FLOW_CFG)
        stdin = dirty.global_addr["stdin_buf"]
        dirty.write_bytes(stdin, b"zzzzzzz")
        dirty.tagmap.set_taint(stdin, 4, 32)
        dirty.call_entry("main", [])
        with pytest.raises(MachineTrap, match="step budget"):
            Machine(a, mode="hybrid", taint_config=FLOW_CFG, step_budget=100).call_entry(
                "main", [])
        for mode in ("hybrid", "instr"):
            want = outcome(ReferenceMachine, student_flow, "main", [], mode=mode,
                           rule_programs=student_flow_rules, taint_config=FLOW_CFG,
                           mem_size=1 << 16)
            assert outcome(Machine, b, "main", [], mode=mode,
                           taint_config=FLOW_CFG) == want, mode
        assert a.code and all(b.code[k] is code for k, code in a.code.items())


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
WRITE_PATHS = ("store", "alloca", "write_bytes", "slice", "stepped", "index")


def _write(machine, path, addr, data):
    """Write `data` (or its first 1, 2, 4 or 8 bytes) at `addr` through one
    of the machine's write paths; "alloca" zeroes the top 5000 bytes."""
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
        return Image(parse_module(POKES), mem_size=MEM_PAGES * PAGE)

    @staticmethod
    def _assert_compare_exact(a, b):
        same = bytes(a) == bytes(b)
        assert (a == b) is same and (b == a) is same
        assert (a != b) is (not same) and (b != a) is (not same)

    @settings(max_examples=200, deadline=None)
    @given(_WRITES)
    def test_equal_exactly_when_bytes_are(self, pokes, writes):
        machines = {"a": Machine(pokes), "b": Machine(pokes)}
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
        a, b = Machine(pokes), Machine(pokes)
        _write(a, path, addr, data)
        self._assert_compare_exact(a.memory, b.memory)
        assert a.memory != b.memory

    def test_compares_with_bytes_both_ways(self, pokes):
        m = Machine(pokes)
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
        mem = Machine(pokes).memory
        with pytest.raises(IndexError):
            mem[len(mem)] = 1
        with pytest.raises(IndexError):
            mem[PAGE:PAGE + 2] = b"abc"
        assert mem.dirty == set()

    def test_fresh_machine_reads_zero_outside_initializers(
            self, student_flow, student_flow_rules):
        image = Image(student_flow, student_flow_rules, 1 << 16)
        want = bytearray(1 << 16)
        for addr, init in image.inits:
            want[addr:addr + len(init)] = init
        for mode in ("instr", "hybrid"):
            dirty = Machine(image, mode=mode, taint_config=FLOW_CFG)
            dirty.call_entry("main", [])
            dirty.memory[GLOBALS_BASE:] = b"\xee" * ((1 << 16) - GLOBALS_BASE)
        fresh = Machine(image)
        assert bytes(fresh.memory) == want and fresh.memory == want
        assert fresh.memory.dirty == {a >> 12 for a, _ in image.inits}

    @pytest.mark.parametrize("mem_size", [0x2000, 0x3001, 1 << 16, DEFAULT_MEMORY])
    def test_length_is_mem_size(self, mem_size):
        m = Machine(parse_module(""), mem_size=mem_size)
        assert isinstance(m.memory, Memory) and len(m.memory) == mem_size

    def test_mem_size_that_cannot_hold_the_globals(self, student_flow):
        heap_start = Image(student_flow).heap_start
        assert Image(student_flow, mem_size=2 * heap_start).heap_start == heap_start
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
        leave nothing behind for the next machine of their image: it runs
        as a machine with a private image does."""
        image = Image(student_flow, student_flow_rules, 1 << 16)
        dirty = Machine(image, mode="hybrid", taint_config=FLOW_CFG)
        stdin = dirty.global_addr["stdin_buf"]
        dirty.write_bytes(stdin, b"zzzzzzz")
        dirty.tagmap.set_taint(stdin, 4, 32)
        dirty.call_entry("main", [])
        assert dirty.sink_hits and dirty.tagmap.pages
        stuck = Machine(image, mode="hybrid", taint_config=FLOW_CFG, step_budget=100)
        with pytest.raises(MachineTrap, match="step budget"):
            stuck.call_entry("main", [])
        assert not stuck.live and [f.fn.name for f in stuck._frames] == [
            "main", "student_cpy", "memcpy"]
        for mode in ("hybrid", "instr"):
            want = outcome(Machine, student_flow, "main", [], mode=mode,
                           rule_programs=student_flow_rules, taint_config=FLOW_CFG,
                           mem_size=1 << 16)
            assert outcome(Machine, image, "main", [], mode=mode,
                           taint_config=FLOW_CFG) == want, mode
        fresh = Machine(image)
        assert fresh.read_bytes(stdin, 6) == b"alice\0"
        assert (fresh.heap_ptr, fresh.stack_ptr, fresh.tagmap.pages) == (
            image.heap_start, 1 << 16, {})

    def test_image_fixes_rules_and_memory_size(self, student_flow, student_flow_rules):
        image = Image(student_flow, student_flow_rules, 1 << 16)
        assert Machine(image, mode="hybrid").rules == student_flow_rules
        assert Machine(image, mode="instr").rules == {}
        for kw in ({"rule_programs": {}}, {"mem_size": 1 << 16}):
            with pytest.raises(ValueError, match="an image fixes"):
                Machine(image, **kw)


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

    def test_decodes_only_the_functions_it_enters(self, libcorpus, lib_rules,
                                                  student_flow, student_flow_rules):
        m = Machine(libcorpus, mode="hybrid", rule_programs=lib_rules,
                    mem_size=1 << 20)
        s = m.alloc(16)
        m.write_bytes(s, b"abc\0")
        assert m.call_entry("strlen_a", [s]) == 3
        assert set(m.image.code) == {("strlen_a", False)}
        m = Machine(student_flow, mode="hybrid", rule_programs=student_flow_rules)
        m.call_entry("main", [])
        assert set(m.image.code) == {("main", True), ("fgets_a", True),
                                ("printf_a", True), ("student_cpy", False),
                                ("memcpy", False)}
        m = Machine(student_flow, mode="instr")
        m.call_entry("main", [])
        assert set(m.image.code) == {("main", True), ("fgets_a", True),
                                ("printf_a", True), ("student_cpy", True),
                                ("memcpy", True)}


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
        ops = [(s.op, str(s.slot)) for s in rules[fn].steps]
        assert (GATHER_STRING, "param1") in ops and (SET_STRING, "param0") in ops
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
        assert Image(m).global_addr["buf"] + EDGE == 2 * PAGE

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
