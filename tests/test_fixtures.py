"""End-to-end fixtures beyond the main corpus: global-input flows,
non-char pointer regions, and union handling under the full pipeline."""

import struct

import pytest

from taintsum import Machine, corpus, parse_module, summarize_library, taint_rule_gen
from taintsum.corpus import BufArg, IntArg
from taintsum.rules import GATHER_FIXED, SET_FIXED
from taintsum.validate import noninterference_check, oracle_compare


def entries_as_strs(summary):
    return {str(out): sorted(str(i) for i in ins)
            for out, ins in summary.entries}


GLOBAL_READER = """\
struct %cfg { [8 x char] tag, i32 limit }

global @settings : %cfg

fn @read_limit() -> i32 library {
entry:
  %p = gep %cfg, @settings, 0, 1
  %v = load i32, %p
  ret i32 %v
}

fn @scale_limit(%k: i32) -> i32 library {
entry:
  %p = gep %cfg, @settings, 0, 1
  %v = load i32, %p
  %r = mul i32 %v, %k
  ret i32 %r
}
"""


@pytest.fixture(scope="module")
def greader():
    return parse_module(GLOBAL_READER)


@pytest.fixture(scope="module")
def greader_rules(greader):
    summaries, diags = summarize_library(greader, include_control_deps=True)
    assert diags == []
    return {n: taint_rule_gen(s, greader) for n, s in summaries.items()}


class TestGlobalInputs:
    """Flows whose inputs are globals (the g_i -> p_o summary category)."""

    def test_summary_binds_global_field(self, greader):
        summaries, _ = summarize_library(greader)
        assert entries_as_strs(summaries["read_limit"]) == {
            "ret": ["@settings.limit"]}
        assert entries_as_strs(summaries["scale_limit"]) == {
            "ret": ["@settings.limit", "param0"]}

    def test_rule_gathers_global_storage(self, greader_rules):
        steps = greader_rules["read_limit"].steps
        assert [s.op for s in steps] == [GATHER_FIXED, "read_out", SET_FIXED]
        assert str(steps[0].slot) == "@settings.limit"
        assert steps[0].nbytes == 4

    def test_tainted_global_reaches_return_in_both_modes(self, greader,
                                                         greader_rules):
        for mode in ("instr", "hybrid"):
            m = Machine(greader, mode=mode, rule_programs=greader_rules,
                        mem_size=1 << 20)
            base = m.global_addr["settings"]
            m.write_bytes(base + 8, struct.pack("<i", 7))
            m.tagmap.set_taint(base + 8, 0x08, 4)
            result = m.call_entry("read_limit", [])
            assert result == 7
            assert any(b & 0x08 for b in m.ret_shadow), mode

    def test_untainted_global_leaves_return_clean(self, greader,
                                                  greader_rules):
        for mode in ("instr", "hybrid"):
            m = Machine(greader, mode=mode, rule_programs=greader_rules,
                        mem_size=1 << 20)
            m.call_entry("read_limit", [])
            assert not any(m.ret_shadow), mode

    def test_rule_stats_count_global_inputs(self, greader_rules):
        from taintsum.rules import rule_stats
        st = {s.function: s for s in rule_stats(greader_rules)}
        assert st["read_limit"].g2p == 1
        assert st["scale_limit"].g2p == 1 and st["scale_limit"].p2p == 1


INT_SINK = """\
fn @store_val(%p: ptr(i32), %v: i32) -> void library {
entry:
  store i32 %v, %p
  ret
}

fn @swap_halves(%p: ptr(i64)) -> void library {
entry:
  %x = load i64, %p
  %hi = shr i64 %x, 32
  %lo = shl i64 %x, 32
  %y = or i64 %lo, %hi
  store i64 %y, %p
  ret
}
"""

INT_DRIVERS = dict(corpus.DRIVERS,
                   store_val=(BufArg(4), IntArg("i32")),
                   swap_halves=(BufArg(8),))


@pytest.fixture(scope="module")
def intmod():
    return parse_module(INT_SINK)


@pytest.fixture(scope="module")
def intmod_rules(intmod):
    summaries, diags = summarize_library(intmod, include_control_deps=True)
    assert diags == []
    return {n: taint_rule_gen(s, intmod) for n, s in summaries.items()}


class TestIntPointerRegions:
    """Non-char pointer slots cover size_of(pointee) bytes at the pointed
    address, both when gathering and when setting."""

    def test_summaries(self, intmod):
        summaries, _ = summarize_library(intmod)
        assert entries_as_strs(summaries["store_val"]) == {
            "param0": ["param1"]}
        # the only flow is param0 <- param0, killed by the slot guard
        assert entries_as_strs(summaries["swap_halves"]) == {}

    def test_store_val_region_is_four_bytes(self, intmod, intmod_rules):
        for mode in ("instr", "hybrid"):
            m = Machine(intmod, mode=mode, rule_programs=intmod_rules,
                        mem_size=1 << 20)
            buf = m.alloc(16)
            m.call_entry("store_val", [buf, 99], [None, bytes([0x01]) * 4])
            got = [m.tagmap.get_taint(buf + i, 1) for i in range(8)]
            assert got[:4] == [1, 1, 1, 1], mode
            assert got[4:] == [0, 0, 0, 0], mode
            assert struct.unpack("<i", m.read_bytes(buf, 4)) == (99,)

    def test_containment_and_ni(self, intmod, intmod_rules):
        for fn in ("store_val", "swap_halves"):
            rep = oracle_compare(intmod, fn, trials=30, seed=0,
                                 rule_programs=intmod_rules,
                                 drivers=INT_DRIVERS)
            assert rep.violations == (), fn
            ni = noninterference_check(intmod, fn, trials=30, seed=0,
                                       rule_programs=intmod_rules,
                                       drivers=INT_DRIVERS)
            assert ni.violations == (), fn


class TestPipelineFuzz:
    """Random straight-line functions through the entire pipeline: graph,
    summary, rules, and both execution modes agreeing concretely."""

    def test_random_functions_full_pipeline(self):
        from hypothesis import given, settings
        from test_ir import _straightline_function
        from taintsum import build_pdg, run
        from taintsum.summaries import summarize_function

        @settings(max_examples=40, deadline=None)
        @given(_straightline_function())
        def check(src):
            lib_src = src.replace("-> i64 {", "-> i64 library {", 1)
            m = parse_module(lib_src)
            fn = m.functions["f"]
            _, _, summary = summarize_function(m, fn, {},
                                               include_control_deps=True)
            for out, ins in summary.entries:
                assert out not in ins
            rules = {"f": taint_rule_gen(summary, m)}
            args = list(range(1, len(fn.params) + 1))
            rep_i = run(m, "f", args, mode="instr", rule_programs=rules)
            rep_h = run(m, "f", args, mode="hybrid", rule_programs=rules)
            assert rep_i.exit_value == rep_h.exit_value

        check()


UNION_PIPE = """\
union %word { i32 as_int, [4 x char] as_bytes }

fn @word_cpy(%d: ptr(%word), %s: ptr(%word)) -> void library {
entry:
  %sp = gep %word, %s, 0, 0
  %v = load i32, %sp
  %dp = gep %word, %d, 0, 0
  store i32 %v, %dp
  ret
}
"""


class TestUnionHandling:
    def test_union_member_flow(self):
        m = parse_module(UNION_PIPE)
        summaries, diags = summarize_library(m)
        assert diags == []
        assert entries_as_strs(summaries["word_cpy"]) == {
            "param0.as_int": ["param1.as_int"]}
        prog = taint_rule_gen(summaries["word_cpy"], m)
        # union members live at offset zero with the member's size
        sets = [s for s in prog.steps if s.op == SET_FIXED]
        assert sets[0].nbytes == 4

    def test_union_rules_apply_at_offset_zero(self, ):
        m = parse_module(UNION_PIPE)
        summaries, _ = summarize_library(m)
        rules = {n: taint_rule_gen(s, m) for n, s in summaries.items()}
        machine = Machine(m, mode="hybrid", rule_programs=rules,
                          mem_size=1 << 20)
        d, s = machine.alloc(4), machine.alloc(4)
        machine.write_bytes(s, struct.pack("<i", 0x01020304))
        machine.tagmap.set_taint(s, 0x02, 4)
        machine.call_entry("word_cpy", [d, s])
        assert machine.tagmap.get_taint(d, 4) == 0x02
        assert struct.unpack("<i", machine.read_bytes(d, 4)) == (0x01020304,)
