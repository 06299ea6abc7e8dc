"""Taint-rule compilation, serialization, statistics, and monotonicity."""

import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from taintsum import (
    apply_rule_program, corpus, parse_module, parse_rules, serialize_rules,
    taint_rule_gen,
)
from taintsum.ir import I32, Ptr, StructRef
from taintsum.rules import (
    DEFAULT_STRING_CAP, RuleGenError, RuleParseError, TaintRuleProgram, _module_slot,
    check_rules, compile_library, rule_stats, rule_stats_csv, slot_extent,
)
from taintsum.summaries import SlotRef, Summary
from taintsum.tracker import Machine, _shared
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


def bound_shapes(prog, module):
    """The program's entries as its module binds them: ((out, nbytes),
    [(in, nbytes), ...]) with each slot printed, nbytes None for a string."""
    _, entries = _shared(module).bound(prog)
    return [((str(out), regions[-1][3]), [(str(s), r[3]) for s, r in zip(ins, regions)])
            for (out, ins), regions in zip(prog.entries, entries)]


class TestRuleGen:
    def test_memcpy_string_steps(self, libcorpus, lib_summaries):
        prog = taint_rule_gen(lib_summaries["memcpy"], libcorpus)
        assert prog.entries == lib_summaries["memcpy"].entries
        assert bound_shapes(prog, libcorpus) == [
            # entry 0: param0 <- {param1}; both are void* -> string extents
            (("param0", None), [("param1", None)]),
            # entry 1: ret <- {param0}: the return value is a pointer (8 bytes)
            (("ret", 8), [("param0", None)]),
        ]
        assert len(prog.steps) == 6 and prog.max_len == DEFAULT_STRING_CAP

    def test_scalar_entry(self):
        m = parse_module("fn @f(%x: i32) -> i32 library {\nentry:\n  ret i32 %x\n}\n")
        s = Summary("f", ((SlotRef("ret", ty=I32),
                           (SlotRef("param", index=0, ty=I32),)),))
        prog = taint_rule_gen(s, m)
        assert bound_shapes(prog, m) == [(("ret", 4), [("param0", 4)])]
        assert len(prog.steps) == 3

    def test_int_pointer_uses_pointee_size(self):
        m = parse_module(
            "fn @f(%p: ptr(i32), %x: i32) -> void library {\n"
            "entry:\n  store i32 %x, %p\n  ret\n}\n")
        s = Summary("f", ((SlotRef("param", index=0, ty=Ptr(I32)),
                           (SlotRef("param", index=1, ty=I32),)),))
        prog = taint_rule_gen(s, m)
        # region of one i32 at *p
        assert bound_shapes(prog, m) == [(("param0", 4), [("param1", 4)])]

    def test_field_slot_uses_field_extent(self, libcorpus, lib_summaries):
        prog = taint_rule_gen(lib_summaries["student_cpy"], libcorpus)
        assert bound_shapes(prog, libcorpus) == [
            (("@stu.id", 8), [("param0.id", 8)]),
            (("@stu.score", 4), [("param0.score", 4)])]

    def test_empty_summary(self, libcorpus):
        prog = taint_rule_gen(Summary("memcpy", ()), libcorpus)
        assert prog.entries == () and len(prog.steps) == 0

    def test_accumulator_grouping_per_entry(self, libcorpus, lib_summaries_cdep, lib_rules):
        """Each entry gathers into an accumulator of its own: pair_cpy's
        field `a` never taints field `b`, and the cost is one step per in,
        plus the out's read and set, per entry."""
        prog = taint_rule_gen(lib_summaries_cdep["copy_twice"], libcorpus)
        assert [len(ins) for _, ins in prog.entries] == [3, 2]
        assert len(prog.steps) == (3 + 2) + (2 + 2)
        m = Machine(libcorpus, mode="instr", mem_size=1 << 20)
        dest, src = m.alloc(8), m.alloc(8)
        m.tagmap.set_taint(src, 0x02, 4)            # src->a only
        apply_rule_program(lib_rules["pair_cpy"], [(dest, bytes(8)), (src, bytes(8))], m)
        assert (m.tagmap.get_taint(dest, 4), m.tagmap.get_taint(dest + 4, 4)) == (0x02, 0)

    def test_deterministic(self, libcorpus, lib_summaries_cdep):
        a = serialize_rules(taint_rule_gen(lib_summaries_cdep["memcpy"], libcorpus))
        b = serialize_rules(taint_rule_gen(lib_summaries_cdep["memcpy"], libcorpus))
        assert a == b

    def test_decompile_recovers_summary_slots(self, libcorpus, lib_summaries_cdep):
        for name, s in lib_summaries_cdep.items():
            prog = taint_rule_gen(s, libcorpus)
            assert prog.decompiled_entries() == s.entries, name

    def test_unresolvable_slot_type_is_a_generation_error(self):
        m = parse_module("fn @f(%p: ptr(%T), %q: ptr(i32)) -> void library {\nentry:\n"
                         "  %v = load i32, %q\n  store i32 %v, %p\n  ret\n}\n")
        summary = Summary("f", ((SlotRef("param", index=0, ty=Ptr(StructRef("T"))),
                                 (SlotRef("param", index=1, ty=Ptr(I32)),)),))
        with pytest.raises(RuleGenError, match="unresolvable slot type param0"):
            taint_rule_gen(summary, m)


class TestSerialization:
    def test_round_trip(self, libcorpus, lib_summaries_cdep):
        for s in lib_summaries_cdep.values():
            prog = taint_rule_gen(s, libcorpus)
            assert parse_rules(serialize_rules(prog)) == prog

    def test_empty_program_schema(self, libcorpus):
        doc = json.loads(serialize_rules(taint_rule_gen(Summary("f", ()), libcorpus)))
        assert doc == {"v": 2, "function": "f", "controlDeps": False, "maxLen": 64,
                       "entries": []}

    def test_entries_are_the_summary_documents(self, libcorpus, lib_summaries_cdep):
        for s in lib_summaries_cdep.values():
            doc = json.loads(serialize_rules(taint_rule_gen(s, libcorpus, 5)))
            assert doc == dict(s.to_json(), v=2, maxLen=5)

    def test_truncated_json_reports_offset(self, libcorpus, lib_summaries):
        text = serialize_rules(taint_rule_gen(lib_summaries["memcpy"], libcorpus))
        with pytest.raises(RuleParseError, match="byte offset"):
            parse_rules(text[: len(text) // 2])

    def test_version_mismatch(self):
        with pytest.raises(RuleParseError, match="schema version"):
            parse_rules('{"v": 99, "function": "f", "controlDeps": false, "maxLen": 64,'
                        ' "entries": []}')

    def test_function_name_must_be_a_string(self):
        with pytest.raises(RuleParseError, match="'function' is not a string"):
            parse_rules('{"v": 2, "function": ["f"], "controlDeps": false, "maxLen": 64,'
                        ' "entries": []}')


def _indented(prog):
    """The rule document through the standard library's indented encoder."""
    entries = Summary(prog.function, prog.entries).to_json()["entries"]
    return json.dumps({"v": 2, "function": prog.function, "controlDeps": prog.control_deps,
                       "maxLen": prog.max_len, "entries": entries}, indent=2) + "\n"


_names = st.text(min_size=1, max_size=6)
_paths = st.lists(_names, max_size=3).map(tuple)
_slots = st.one_of(
    st.builds(SlotRef, st.just("param"), index=st.integers(0, 12), ty=_types,
              field_path=_paths),
    st.builds(SlotRef, st.just("global"), name=_names, ty=_types, field_path=_paths),
    st.builds(SlotRef, st.just("ret"), ty=_types))
_entries = st.lists(st.tuples(_slots, st.lists(_slots, max_size=3).map(tuple)),
                    max_size=4).map(tuple)


class TestDirectSerialization:
    """`serialize_rules` writes the document itself; its text is the
    indented encoder's, byte for byte."""

    @pytest.mark.parametrize("cdep", [True, False])
    def test_every_corpus_program(self, cdep):
        for module in rule_modules():
            for prog in compile_library(module, cdep)[0].values():
                assert serialize_rules(prog) == _indented(prog), prog.function

    @settings(max_examples=200, deadline=None)
    @given(st.builds(TaintRuleProgram, _names, _entries, st.booleans(),
                     st.integers(1, 1 << 40)))
    def test_generated_programs(self, prog):
        """The text is the encoder's, and parsing it gives the program back."""
        text = serialize_rules(prog)
        assert text == _indented(prog)
        assert parse_rules(text) == prog

    def test_shapes_are_covered(self):
        """String and fixed extents, field paths, global and return slots
        all occur."""
        slots = [(slot, m) for m in rule_modules() for p in compile_library(m)[0].values()
                 for out, ins in p.entries for slot in (out, *ins)]
        assert {slot_extent(s, m) is None for s, m in slots} == {True, False}
        assert any(s.field_path for s, _ in slots)
        assert any(s.kind == "global" for s, _ in slots)
        assert any(s.kind == "ret" for s, _ in slots)


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
        for slot in _doc_slots(doc):
            if slot.get("index") == 1:
                slot["index"] = 0
        prog = parse_rules(json.dumps(doc))
        check_rules(prog, libcorpus)
        assert prog != lib_rules["strcpy_a"]

    JSON_VALUES = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 70), st.text(max_size=3),
        st.sampled_from([
            "param", "global", "ret", "stu", "id", "score", "a", "b",
            "i32", "i64", "char", "ptr(char)", "ptr(void)", "ptr(%pair)",
            "ptr(%student)", "%student", "[8 x char]"]),
        st.lists(st.sampled_from(["id", "score", "a", "b", "x"]), max_size=2),
        st.lists(st.integers(0, 2), max_size=2),
        st.dictionaries(st.sampled_from(["a", "id"]), st.integers(0, 2),
                        max_size=1))
    SLOT_FIELDS = ("index", "type", "fieldPath", "kind", "name")

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_single_field_corruption_is_diagnosed_or_sound(
            self, libcorpus, lib_rules, data):
        """A file with one slot field or the cap replaced is refused, or
        is a program of well-typed slots that applies without error."""
        name = data.draw(st.sampled_from(
            sorted(n for n, p in lib_rules.items() if p.entries)))
        doc = json.loads(serialize_rules(lib_rules[name]))
        field = data.draw(st.sampled_from(self.SLOT_FIELDS + ("maxLen",)))
        obj = doc if field == "maxLen" else data.draw(st.sampled_from(_doc_slots(doc)))
        obj[field] = data.draw(self.JSON_VALUES)
        try:
            prog = parse_rules(json.dumps(doc))
            check_rules(prog, libcorpus)
        except RuleParseError:
            return
        fn = libcorpus.functions[name]
        for out, ins in prog.entries:
            for slot in (out, *ins):
                assert _module_slot(slot, fn, libcorpus) == slot
        machine, record = random_shadow_state(libcorpus, fn, random.Random(0))
        apply_rule_program(prog, record, machine)


def _doc_slots(doc) -> list[dict]:
    """The slot objects of a rule document, outs and ins."""
    return [slot for e in doc["entries"] for slot in (e["out"], *e["ins"])]


def _json_paths(obj, at=()):
    """The path of every value inside a JSON document, as key and index
    tuples, parents before their children."""
    items = (obj.items() if type(obj) is dict else
             enumerate(obj) if type(obj) is list else ())
    for k, v in items:
        yield at + (k,)
        yield from _json_paths(v, at + (k,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@functools.cache
def _libcorpus_rule_texts() -> list[tuple[str, bool]]:
    """Each libcorpus rule file, with and without control deps, and
    whether it has a parameter slot."""
    module = corpus.load_module("libcorpus")
    progs = [p for cdeps in (True, False) for p in compile_library(module, cdeps)[0].values()]
    return [(serialize_rules(p), any(s.kind == "param" for out, ins in p.entries
                                     for s in (out, *ins))) for p in progs]


_ANY_JSON = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
                      st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
                      st.dictionaries(st.sampled_from(["kind", "a"]), st.integers(0, 2),
                                      max_size=1))


class TestMalformedRuleFiles:
    """Every mutant of a valid v2 rule file is refused with RuleParseError,
    whichever of its keys is dropped or mistyped, and never with another
    exception."""

    @staticmethod
    def _refused(text, module):
        with pytest.raises(RuleParseError):
            check_rules(parse_rules(text), module)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_every_mutant_is_refused(self, libcorpus, data):
        mutation = data.draw(st.sampled_from(
            ("drop", "retype", "controlDeps", "maxLen", "kind", "index")))
        texts = [t for t, has_slots in _libcorpus_rule_texts()
                 if has_slots or mutation not in ("kind", "index")]
        doc = json.loads(data.draw(st.sampled_from(texts)))
        slots = _doc_slots(doc)
        if mutation == "drop":
            path = data.draw(st.sampled_from(
                [p for p in _json_paths(doc) if type(p[-1]) is str]))
            del _at(doc, path[:-1])[path[-1]]
        elif mutation == "retype":
            path = data.draw(st.sampled_from(list(_json_paths(doc))))
            old = _at(doc, path)
            _at(doc, path[:-1])[path[-1]] = data.draw(
                _ANY_JSON.filter(lambda v: type(v) is not type(old)))
        elif mutation == "controlDeps":
            doc["controlDeps"] = "yes"
        elif mutation == "maxLen":
            doc["maxLen"] = data.draw(st.sampled_from([0, -1, "64", True]))
        elif mutation == "kind":
            data.draw(st.sampled_from(slots))["kind"] = data.draw(
                st.text(max_size=6).filter(lambda k: k not in ("param", "global", "ret")))
        else:
            slot = data.draw(st.sampled_from([s for s in slots if s["kind"] == "param"]))
            nparams = len(libcorpus.functions[doc["function"]].params)
            slot["index"] = data.draw(st.integers(-3, -1) | st.integers(nparams, nparams + 3))
        self._refused(json.dumps(doc), libcorpus)

    def test_mutations_reach_every_key(self, libcorpus, lib_rules):
        """The documents hold every key of the schema, so dropping and
        retyping reach each one."""
        keys = {p[-1] for prog in lib_rules.values()
                for p in _json_paths(json.loads(serialize_rules(prog))) if type(p[-1]) is str}
        assert keys == {"v", "function", "controlDeps", "maxLen", "entries", "out", "ins",
                        "kind", "index", "name", "type", "fieldPath"}

    def test_v1_file_is_refused(self, libcorpus):
        with pytest.raises(RuleParseError,
                           match="^unsupported rule schema version 1, expected 2$"):
            parse_rules('{"v": 1, "function": "memcpy", "controlDeps": true,'
                        ' "steps": []}')

    def test_control_deps_must_be_a_boolean(self, libcorpus, lib_rules):
        doc = json.loads(serialize_rules(lib_rules["memcpy"]))
        doc["controlDeps"] = "yes"
        with pytest.raises(RuleParseError, match="'controlDeps' is not a boolean"):
            parse_rules(json.dumps(doc))
