"""Taint-rule compilation, serialization, statistics, and monotonicity."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from taintsum import (
    apply_rule_program, corpus, parse_module, parse_rules, serialize_rules,
    taint_rule_gen,
)
from taintsum.ir import I32, Ptr, VOID, Void
from taintsum.rules import (
    DEFAULT_STRING_CAP, GATHER_FIXED, GATHER_STRING, READ_OUT, RuleParseError,
    RuleStep, SET_FIXED, SET_STRING, TaintRuleProgram, check_rules,
    compile_library, rule_stats, rule_stats_csv,
)
from taintsum.summaries import SlotRef, Summary
from taintsum.tracker import Machine
from test_fixtures import GLOBAL_READER, INT_SINK, UNION_PIPE
from test_ir import _straightline_function, _types


def rule_modules():
    """Every corpus module plus the end-to-end fixture modules."""
    return ([corpus.load_module(n) for n in corpus.NAMES]
            + [parse_module(t) for t in (GLOBAL_READER, INT_SINK, UNION_PIPE)])


def random_shadow_state(module, fn, rng, null_rate=0.0):
    """A fresh machine whose pointer parameters point at random strings
    under random tags, and an argument record with random scalar tags;
    with `null_rate`, that share of pointer arguments is null."""
    machine = Machine(module, mode="instr", mem_size=1 << 20)
    record = []
    for pname, pty in fn.params:
        if isinstance(pty, Ptr):
            addr = machine.alloc(64)
            data = bytes(rng.randrange(1, 127) for _ in range(32))
            machine.write_bytes(addr, data + b"\0")
            machine.tagmap.set_vector(
                addr, bytes(rng.randrange(0, 4) for _ in range(64)))
            if null_rate and rng.random() < null_rate:
                addr = 0
            record.append((addr, bytes(8)))
        else:
            record.append((rng.randrange(1, 30), bytes(
                [rng.randrange(0, 4)]) * 8))
    return machine, record


def step_shapes(prog):
    return [(s.op, str(s.slot), s.entry) for s in prog.steps]


class TestRuleGen:
    def test_memcpy_string_steps(self, libcorpus, lib_summaries):
        prog = taint_rule_gen(lib_summaries["memcpy"], libcorpus)
        # entry 0: param0 <- {param1}; both are void* -> string extents
        assert step_shapes(prog)[:3] == [
            (GATHER_STRING, "param1", 0),
            (READ_OUT, "param0", 0),
            (SET_STRING, "param0", 0),
        ]
        # entry 1: ret <- {param0}: the return value is a pointer (8 bytes)
        assert step_shapes(prog)[3:] == [
            (GATHER_STRING, "param0", 1),
            (READ_OUT, "ret", 1),
            (SET_FIXED, "ret", 1),
        ]
        assert prog.steps[-1].nbytes == 8

    def test_scalar_entry(self):
        m = parse_module("fn @f(%x: i32) -> i32 library {\nentry:\n  ret i32 %x\n}\n")
        s = Summary("f", ((SlotRef("ret", ty=I32),
                           (SlotRef("param", index=0, ty=I32),)),))
        prog = taint_rule_gen(s, m)
        assert step_shapes(prog) == [
            (GATHER_FIXED, "param0", 0),
            (READ_OUT, "ret", 0),
            (SET_FIXED, "ret", 0),
        ]
        assert [st.nbytes for st in prog.steps] == [4, 4, 4]

    def test_int_pointer_uses_pointee_size(self):
        m = parse_module(
            "fn @f(%p: ptr(i32), %x: i32) -> void library {\n"
            "entry:\n  store i32 %x, %p\n  ret\n}\n")
        s = Summary("f", ((SlotRef("param", index=0, ty=Ptr(I32)),
                           (SlotRef("param", index=1, ty=I32),)),))
        prog = taint_rule_gen(s, m)
        ops = {st.op: st for st in prog.steps}
        assert ops[SET_FIXED].nbytes == 4      # region of one i32 at *p

    def test_field_slot_uses_field_extent(self, libcorpus, lib_summaries):
        prog = taint_rule_gen(lib_summaries["student_cpy"], libcorpus)
        sets = [s for s in prog.steps if s.op == SET_FIXED]
        by_slot = {str(s.slot): s.nbytes for s in sets}
        assert by_slot == {"@stu.id": 8, "@stu.score": 4}
        gathers = {str(s.slot): s.nbytes for s in prog.steps
                   if s.op == GATHER_FIXED}
        assert gathers == {"param0.id": 8, "param0.score": 4}

    def test_empty_summary(self, libcorpus):
        prog = taint_rule_gen(Summary("memcpy", ()), libcorpus)
        assert prog.steps == ()

    def test_accumulator_grouping_per_entry(self, libcorpus, lib_summaries_cdep):
        prog = taint_rule_gen(lib_summaries_cdep["copy_twice"], libcorpus)
        entries = sorted({s.entry for s in prog.steps})
        assert entries == [0, 1]
        for e in entries:
            ops = [s.op for s in prog.steps if s.entry == e]
            assert ops[-2:] in ([READ_OUT, SET_STRING],
                                [READ_OUT, SET_FIXED])
            assert all(op in (GATHER_FIXED, GATHER_STRING) for op in ops[:-2])

    def test_deterministic(self, libcorpus, lib_summaries_cdep):
        a = serialize_rules(taint_rule_gen(lib_summaries_cdep["memcpy"], libcorpus))
        b = serialize_rules(taint_rule_gen(lib_summaries_cdep["memcpy"], libcorpus))
        assert a == b

    def test_decompile_recovers_summary_slots(self, libcorpus, lib_summaries_cdep):
        for name, s in lib_summaries_cdep.items():
            prog = taint_rule_gen(s, libcorpus)
            got = [(out, tuple(sorted(ins, key=SlotRef.sort_key)))
                   for out, ins in prog.decompiled_entries()]
            want = [(out, ins) for out, ins in s.entries]
            assert got == want, name


class TestSerialization:
    def test_round_trip(self, libcorpus, lib_summaries_cdep):
        for s in lib_summaries_cdep.values():
            prog = taint_rule_gen(s, libcorpus)
            assert parse_rules(serialize_rules(prog)) == prog

    def test_empty_program_schema(self, libcorpus):
        text = serialize_rules(taint_rule_gen(Summary("f", ()), libcorpus))
        import json
        doc = json.loads(text)
        assert doc["v"] == 1 and doc["steps"] == [] and doc["function"] == "f"

    def test_truncated_json_reports_offset(self, libcorpus, lib_summaries):
        text = serialize_rules(taint_rule_gen(lib_summaries["memcpy"], libcorpus))
        with pytest.raises(RuleParseError, match="byte offset"):
            parse_rules(text[: len(text) // 2])

    def test_version_mismatch(self):
        with pytest.raises(RuleParseError, match="schema version"):
            parse_rules('{"v": 99, "function": "f", "steps": []}')

    def test_function_name_must_be_a_string(self):
        with pytest.raises(RuleParseError, match="function name"):
            parse_rules('{"v": 1, "function": ["f"], "steps": []}')


def _indented(prog):
    """The rule document through the standard library's indented encoder."""
    return json.dumps({"v": 1, "function": prog.function, "controlDeps": prog.control_deps,
                       "steps": [s.to_json() for s in prog.steps]}, indent=2) + "\n"


_names = st.text(min_size=1, max_size=6)
_paths = st.lists(_names, max_size=3).map(tuple)
_slots = st.one_of(
    st.builds(SlotRef, st.just("param"), index=st.integers(0, 12), ty=_types,
              field_path=_paths),
    st.builds(SlotRef, st.just("global"), name=_names, ty=_types, field_path=_paths),
    st.builds(SlotRef, st.just("ret"), ty=_types))
_steps = st.builds(RuleStep, st.sampled_from([GATHER_FIXED, GATHER_STRING, READ_OUT,
                                              SET_FIXED, SET_STRING]),
                   _slots, st.integers(0, 40), st.none() | st.integers(0, 1 << 40),
                   st.none() | st.integers(1, 4096))


class TestDirectSerialization:
    """`serialize_rules` writes the document itself; its text is the
    indented encoder's, byte for byte."""

    @pytest.mark.parametrize("cdep", [True, False])
    def test_every_corpus_program(self, cdep):
        for module in rule_modules():
            for prog in compile_library(module, cdep)[0].values():
                assert serialize_rules(prog) == _indented(prog), prog.function

    @settings(max_examples=200, deadline=None)
    @given(st.builds(TaintRuleProgram, _names, st.lists(_steps, max_size=5).map(tuple),
                     st.booleans()))
    def test_generated_programs(self, prog):
        assert serialize_rules(prog) == _indented(prog)

    def test_shapes_are_covered(self):
        """Optional extents, field paths and global slots all occur."""
        steps = [s for m in rule_modules() for p in compile_library(m)[0].values()
                 for s in p.steps]
        assert any(s.nbytes is not None for s in steps)
        assert any(s.max_len is not None for s in steps)
        assert any(s.slot.field_path for s in steps)
        assert any(s.slot.kind == "global" for s in steps)


class TestStats:
    def test_memcpy_categories(self, libcorpus, lib_summaries):
        prog = taint_rule_gen(lib_summaries["memcpy"], libcorpus)
        st = rule_stats([prog])[0]
        assert (st.p2p, st.p2g, st.g2p, st.g2g) == (2, 0, 0, 0)

    def test_student_cpy_writes_globals(self, libcorpus, lib_summaries):
        prog = taint_rule_gen(lib_summaries["student_cpy"], libcorpus)
        st = rule_stats([prog])[0]
        assert st.p2g >= 1 and st.p2p == 0

    def test_empty(self):
        assert rule_stats([]) == []

    def test_csv_shape(self, libcorpus, lib_summaries):
        progs = {n: taint_rule_gen(s, libcorpus) for n, s in lib_summaries.items()}
        text = rule_stats_csv(rule_stats(progs))
        lines = text.strip().splitlines()
        assert lines[0] == "function,p2p,p2g,g2p,g2g,steps"
        assert len(lines) == 1 + len(progs)
        assert lines[1].startswith("abs_a,")


class TestMonotonicity:
    def test_rules_never_clear_tags(self, libcorpus, lib_rules):
        """Post-state output tags are a bitwise superset of pre-state tags
        OR'd with the gathered input tags, on randomized shadow states."""
        rng = random.Random(7)
        for name, prog in sorted(lib_rules.items()):
            fn = libcorpus.functions[name]
            for _ in range(25):
                machine, arg_record = random_shadow_state(libcorpus, fn, rng)
                pre = {a: t for a, t in machine.tagmap.nonzero_bytes()}
                apply_rule_program(prog, arg_record, machine)
                post = {a: t for a, t in machine.tagmap.nonzero_bytes()}
                for addr, tag in pre.items():
                    assert post.get(addr, 0) & tag == tag, (name, addr)


def _reloaded(prog, module):
    """Serialize, parse and check a program as the CLI loads a rule file."""
    loaded = parse_rules(serialize_rules(prog))
    check_rules(loaded, module)
    return loaded


class TestLoadCheck:
    def test_compiled_programs_pass(self):
        for module in rule_modules():
            for cdeps in (True, False):
                for default_len in (1, 64):
                    progs, _ = compile_library(module, cdeps, default_len)
                    for prog in progs.values():
                        assert _reloaded(prog, module) == prog

    @settings(max_examples=40, deadline=None)
    @given(_straightline_function(), st.booleans(), st.sampled_from([1, 64]))
    def test_compiled_programs_of_random_functions_pass(self, src, cdeps,
                                                        default_len):
        m = parse_module(src.replace("-> i64 {", "-> i64 library {", 1))
        progs, _ = compile_library(m, cdeps, default_len)
        for prog in progs.values():
            assert _reloaded(prog, m) == prog

    def test_well_typed_retarget_is_accepted(self, libcorpus, lib_rules):
        # strcpy_a's two char* parameters are interchangeable to the check;
        # only a module/function hash stamp could tell them apart
        doc = json.loads(serialize_rules(lib_rules["strcpy_a"]))
        for step in doc["steps"]:
            if step["slot"].get("index") == 1:
                step["slot"]["index"] = 0
        prog = parse_rules(json.dumps(doc))
        check_rules(prog, libcorpus)
        assert prog != lib_rules["strcpy_a"]

    JSON_VALUES = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 70), st.text(max_size=3),
        st.sampled_from([
            "param", "global", "ret", "stu", "id", "score", "a", "b",
            "i32", "i64", "char", "ptr(char)", "ptr(void)", "ptr(%pair)",
            "ptr(%student)", "%student", "[8 x char]", GATHER_FIXED,
            GATHER_STRING, READ_OUT, SET_FIXED, SET_STRING]),
        st.lists(st.sampled_from(["id", "score", "a", "b", "x"]), max_size=2),
        st.lists(st.integers(0, 2), max_size=2),
        st.dictionaries(st.sampled_from(["a", "id"]), st.integers(0, 2),
                        max_size=1))
    STEP_FIELDS = ("bytes", "maxLen", "op", "entry")
    SLOT_FIELDS = ("index", "type", "fieldPath", "kind", "name")

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_single_field_corruption_is_diagnosed_or_sound(
            self, libcorpus, lib_rules, data):
        name = data.draw(st.sampled_from(
            sorted(n for n, p in lib_rules.items() if p.steps)))
        doc = json.loads(serialize_rules(lib_rules[name]))
        step = data.draw(st.sampled_from(doc["steps"]))
        field = data.draw(st.sampled_from(self.STEP_FIELDS + self.SLOT_FIELDS))
        (step if field in self.STEP_FIELDS else step["slot"])[field] = \
            data.draw(self.JSON_VALUES)
        try:
            prog = parse_rules(json.dumps(doc))
            check_rules(prog, libcorpus)
        except RuleParseError:
            return
        cap = next((s.max_len for s in prog.steps if s.max_len is not None),
                   DEFAULT_STRING_CAP)
        entries = Summary(name, tuple(prog.decompiled_entries()),
                          prog.control_deps)
        assert prog == taint_rule_gen(entries, libcorpus, cap)
        machine, record = random_shadow_state(
            libcorpus, libcorpus.functions[name], random.Random(0))
        apply_rule_program(prog, record, machine)
