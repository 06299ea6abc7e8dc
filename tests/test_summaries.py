"""Type flattening, node binding, and summary generation.

Golden summaries were first produced by the brute-force reachability
oracle (see test_pdg) plus instruction-level twin executions (see
test_validate) and then frozen here; the brute-force cross-check also
runs inline so a traversal regression cannot silently change the goldens.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from taintsum import PdgError, build_pdg, corpus, parse_module
from taintsum import summaries as summaries_mod
from taintsum.ir import (
    Array, CHAR, Call, F32, Function, Gep, I32, I64, Int, Load, Ptr, Store,
    StructDecl, StructRef, Temp, is_prim_type, is_struct_like, validate_module,
)
from taintsum.summaries import (
    NodeBinding, SlotRef, Summary, _base_slot, _chain_root, flatten_prim_types, make_slot, source_nodes,
    summarize_function, summarize_library, summary_gen, target_nodes,
)
from test_pdg import brute_force_reachable


def entries_as_strs(summary):
    return {str(out): sorted(str(i) for i in ins)
            for out, ins in summary.entries}


class TestFlatten:
    def test_student(self):
        structs = {"student": StructDecl(
            "student", (("id", Array(CHAR, 8)), ("score", I32)))}
        flat = flatten_prim_types(structs)
        assert flat == {"student": frozenset({CHAR, I32})}

    def test_single_wide_int(self):
        structs = {"w": StructDecl("w", (("x", I64),))}
        assert flatten_prim_types(structs) == {"w": frozenset({I64})}

    def test_nested_struct_recurses(self):
        structs = {
            "b": StructDecl("b", (("f", F32),)),
            "a": StructDecl("a", (("inner", StructRef("b")), ("c", CHAR))),
        }
        assert flatten_prim_types(structs)["a"] == frozenset({F32, CHAR})

    def test_union_same_as_struct(self):
        fields = (("x", I32), ("y", F32))
        s = {"s": StructDecl("s", fields, is_union=False)}
        u = {"u": StructDecl("u", fields, is_union=True)}
        assert flatten_prim_types(s)["s"] == flatten_prim_types(u)["u"]

    def test_pointer_field_is_a_leaf(self):
        structs = {
            "n": StructDecl("n", (("next", Ptr(StructRef("n"))), ("v", I32))),
        }
        flat = flatten_prim_types(structs)["n"]
        assert Ptr(StructRef("n")) in flat and I32 in flat

    def test_idempotent_and_pure(self, libcorpus):
        a = flatten_prim_types(libcorpus.structs)
        b = flatten_prim_types(libcorpus.structs)
        assert a == b

    @given(st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.sampled_from([I32, I64, CHAR, F32, Array(I32, 3),
                                   Array(CHAR, 5), Ptr(CHAR)])),
        min_size=1, max_size=3, unique_by=lambda f: f[0]))
    def test_all_leaves_primitive(self, fields):
        structs = {"s": StructDecl("s", tuple(fields))}
        for t in flatten_prim_types(structs)["s"]:
            assert is_prim_type(t)


class TestSourceTargetNodes:
    def test_memcpy_sources_are_all_params(self, libcorpus):
        fn = libcorpus.functions["memcpy"]
        g = build_pdg(libcorpus, fn, {})
        binding = source_nodes(libcorpus, fn, g)
        slots = sorted(str(binding.wp[n]) for n in binding.sources)
        assert slots == ["param0", "param1", "param2"]
        for n in binding.sources:
            assert g.nodes[n].kind == "formal_in"

    def test_no_params_no_global_reads(self):
        m = parse_module("fn @f() -> i32 {\nentry:\n  ret i32 7\n}\n")
        g = build_pdg(m, "f", {})
        assert source_nodes(m, m.functions["f"], g).sources == []

    def test_student_cpy_field_sources(self, libcorpus, lib_summaries):
        fn = libcorpus.functions["student_cpy"]
        g = build_pdg(libcorpus, fn, {"memcpy": lib_summaries["memcpy"]})
        binding = source_nodes(libcorpus, fn, g)
        slots = sorted(str(binding.wp[n]) for n in binding.sources)
        assert "param0.id" in slots and "param0.score" in slots

    def test_memcpy_targets(self, libcorpus):
        fn = libcorpus.functions["memcpy"]
        g = build_pdg(libcorpus, fn, {})
        binding = target_nodes(libcorpus, fn, g)
        slots = sorted(str(binding.wp[n]) for n in binding.targets)
        assert slots == ["param0", "ret"]
        kinds = sorted(g.nodes[n].kind for n in binding.targets)
        assert kinds == ["general", "return"]   # the store + the ret

    def test_void_fn_target_is_just_return(self):
        m = parse_module("fn @f() -> void {\nentry:\n  ret\n}\n")
        g = build_pdg(m, "f", {})
        binding = target_nodes(m, m.functions["f"], g)
        assert [g.nodes[n].kind for n in binding.targets] == ["return"]

    def test_student_cpy_global_targets(self, libcorpus, lib_summaries):
        fn = libcorpus.functions["student_cpy"]
        g = build_pdg(libcorpus, fn, {"memcpy": lib_summaries["memcpy"]})
        binding = target_nodes(libcorpus, fn, g)
        slots = sorted(str(binding.wp[n]) for n in binding.targets)
        assert "@stu.id" in slots and "@stu.score" in slots


GOLDEN_EXPLICIT = {
    "memcpy": {"param0": ["param1"], "ret": ["param0"]},
    "memset_a": {"param0": ["param1"], "ret": ["param0"]},
    "strcpy_a": {"param0": ["param1"], "ret": ["param0"]},
    "strlen_a": {},
    "abs_a": {"ret": ["param0"]},
    "pair_cpy": {"param0.a": ["param1.a"], "param0.b": ["param1.b"]},
    "student_cpy": {"@stu.id": ["param0.id"], "@stu.score": ["param0.score"]},
    "enroll": {"@stu.id": ["param0.id"], "@stu.score": ["param0.score"]},
    "copy_twice": {"param0": ["param1", "param2"], "param1": ["param2"]},
}

GOLDEN_CDEP = {
    "memcpy": {"param0": ["param1", "param2"], "ret": ["param0"]},
    "memset_a": {"param0": ["param1", "param2"], "ret": ["param0"]},
    "strcpy_a": {"param0": ["param1"], "ret": ["param0"]},
    "strlen_a": {"ret": ["param0"]},
    "abs_a": {"ret": ["param0"]},
    "pair_cpy": {"param0.a": ["param1.a"], "param0.b": ["param1.b"]},
    "student_cpy": {"@stu.id": ["param0.id"], "@stu.score": ["param0.score"]},
    "enroll": {"@stu.id": ["param0.id"], "@stu.score": ["param0.score"]},
    "copy_twice": {"param0": ["param1", "param2", "param3"],
                   "param1": ["param2", "param3"]},
}


class TestSummaryGen:
    def test_golden_explicit(self, lib_summaries):
        got = {name: entries_as_strs(s) for name, s in lib_summaries.items()}
        assert got == GOLDEN_EXPLICIT

    def test_golden_control_deps(self, lib_summaries_cdep):
        got = {name: entries_as_strs(s) for name, s in lib_summaries_cdep.items()}
        assert got == GOLDEN_CDEP

    def test_matches_brute_force_oracle(self, libcorpus, lib_summaries,
                                        lib_summaries_cdep):
        # recompute every summary from the binding using the independent
        # closure instead of the library's traversal; callee composition
        # must use the summaries produced under the same setting
        for name in sorted(corpus.DRIVERS):
            fn = libcorpus.functions[name]
            for cdeps, golden, callee_set in (
                    (False, GOLDEN_EXPLICIT, lib_summaries),
                    (True, GOLDEN_CDEP, lib_summaries_cdep)):
                callee = {k: v for k, v in callee_set.items() if k != name}
                g = build_pdg(libcorpus, fn, callee)
                binding = source_nodes(libcorpus, fn, g).merged_with(
                    target_nodes(libcorpus, fn, g))
                agg: dict[str, set[str]] = {}
                for ns in binding.sources:
                    reach = brute_force_reachable(g, ns, cdeps)
                    for nt in binding.targets:
                        if nt in reach and binding.wp[ns] != binding.wp[nt]:
                            agg.setdefault(str(binding.wp[nt]),
                                           set()).add(str(binding.wp[ns]))
                oracle = {k: sorted(v) for k, v in agg.items()}
                assert oracle == golden[name], (name, cdeps)

    def test_out_never_among_ins(self, lib_summaries_cdep):
        for s in lib_summaries_cdep.values():
            for out, ins in s.entries:
                assert out not in ins

    def test_constant_return_has_no_entries(self):
        m = parse_module("fn @f() -> i32 {\nentry:\n  ret i32 42\n}\n")
        _, _, s = summarize_function(m, "f")
        assert s.entries == ()

    def test_slots_resolve_in_signature_or_globals(self, libcorpus,
                                                   lib_summaries_cdep):
        for name, s in lib_summaries_cdep.items():
            fn = libcorpus.functions[name]
            for out, ins in s.entries:
                for slot in (out, *ins):
                    if slot.kind == "param":
                        assert 0 <= slot.index < len(fn.params)
                    elif slot.kind == "global":
                        assert slot.name in libcorpus.globals


class TestSummarizeLibrary:
    def test_student_flow_summaries(self, student_flow):
        summaries, diags = summarize_library(student_flow, include_control_deps=False)
        assert diags == []
        assert sorted(summaries) == ["memcpy", "student_cpy"]
        assert entries_as_strs(summaries["student_cpy"]) == {
            "@stu.id": ["param0.id"], "@stu.score": ["param0.score"]}

    def test_no_library_functions(self):
        m = parse_module("fn @f() -> void {\nentry:\n  ret\n}\n")
        summaries, diags = summarize_library(m)
        assert summaries == {} and diags == []

    def test_library_recursion_excluded(self):
        src = """fn @a(%x: i64) -> i64 library {
entry:
  %r = call i64 @b(%x)
  ret i64 %r
}
fn @b(%x: i64) -> i64 library {
entry:
  %r = call i64 @a(%x)
  ret i64 %r
}
fn @ok(%x: i64) -> i64 library {
entry:
  ret i64 %x
}
"""
        m = parse_module(src)
        summaries, diags = summarize_library(m)
        assert sorted(summaries) == ["ok"]
        assert any("recursive call cycle" in d.message for d in diags)

    def test_dependent_on_excluded_is_excluded(self):
        src = """fn @a(%x: i64) -> i64 library {
entry:
  %r = call i64 @a(%x)
  ret i64 %r
}
fn @c(%x: i64) -> i64 library {
entry:
  %r = call i64 @a(%x)
  ret i64 %r
}
"""
        m = parse_module(src)
        summaries, diags = summarize_library(m)
        assert summaries == {}
        assert len(diags) >= 2

    def test_non_library_callee_is_descended(self):
        src = """fn @helper(%d: ptr(i32), %s: ptr(i32)) -> void {
entry:
  %v = load i32, %s
  store i32 %v, %d
  ret
}
fn @wrap(%d: ptr(i32), %s: ptr(i32)) -> void library {
entry:
  call void @helper(%d, %s)
  ret
}
"""
        m = parse_module(src)
        summaries, diags = summarize_library(m)
        assert diags == []
        assert entries_as_strs(summaries["wrap"]) == {"param0": ["param1"]}

    def test_two_level_composition_matches_inline_effect(self, lib_summaries):
        # enroll built on student_cpy's summary reproduces its slot relation
        assert (entries_as_strs(lib_summaries["enroll"])
                == entries_as_strs(lib_summaries["student_cpy"]))


class TestSerialization:
    def test_json_shape(self, lib_summaries):
        doc = lib_summaries["memcpy"].to_json()
        assert doc["function"] == "memcpy"
        assert doc["controlDeps"] is False
        entry = doc["entries"][0]
        assert set(entry) == {"out", "ins"}
        slot = entry["out"]
        assert slot["kind"] == "param" and slot["index"] == 0
        assert slot["type"] == "ptr(void)" and slot["fieldPath"] == []

    def test_entries_sorted_deterministically(self, lib_summaries_cdep):
        s = lib_summaries_cdep["copy_twice"]
        keys = [out.sort_key() for out, _ in s.entries]
        assert keys == sorted(keys)
        for _, ins in s.entries:
            ks = [i.sort_key() for i in ins]
            assert ks == sorted(ks)

    def test_text_is_stable(self, libcorpus, lib_summaries):
        again, _ = summarize_library(libcorpus, include_control_deps=False)
        a = json.dumps(lib_summaries["student_cpy"].to_json(), indent=2)
        b = json.dumps(again["student_cpy"].to_json(), indent=2)
        assert a == b


def _straightline_library(lanes):
    """One library function of 10 * lanes + 1 instructions with a fixed
    signature: each lane loads a field of %s and of @g, passes through a
    local, and writes a field of %o through the summarized @put."""
    lines = ["struct %rec { i64 f0, i64 f1, i64 f2, i64 f3 }",
             "global @g : %rec",
             "fn @put(%d: ptr(i64), %v: i64) -> void library {",
             "entry:", "  store i64 %v, %d", "  ret", "}",
             "fn @lib(%x: i64, %s: ptr(%rec), %o: ptr(%rec)) -> i64 library {",
             "entry:"]
    for k in range(lanes):
        lines += [f"  %a{k} = gep %rec, %s, 0, {k % 4}",
                  f"  %v{k} = load i64, %a{k}",
                  f"  %m{k} = alloca i64",
                  f"  store i64 %v{k}, %m{k}",
                  f"  %l{k} = load i64, %m{k}",
                  f"  %c{k} = add i64 %l{k}, %x",
                  f"  %b{k} = gep %rec, %o, 0, {(k + 1) % 4}",
                  f"  call void @put(%b{k}, %c{k})",
                  f"  %h{k} = gep %rec, @g, 0, {k % 4}",
                  f"  %w{k} = load i64, %h{k}"]
    lines += [f"  ret i64 %c{lanes - 1}", "}"]
    return parse_module("\n".join(lines) + "\n")


class TestScaling:
    """Work counts, not wall time: summarizing a longer function must not
    rescan it once per instruction."""

    def _summarize_counting_scans(self, module):
        scans = 0
        plain = Function.instructions

        def counted(fn):
            nonlocal scans
            scans += 1
            return plain(fn)

        with mock.patch.object(Function, "instructions", counted):
            summaries, diags = summarize_library(module)
        assert diags == []
        return summaries, scans

    def test_one_chain_table_per_graph(self, libcorpus):
        graphs = []
        init = summaries_mod._ChainTable.__init__

        def counted(table, module, g):
            graphs.append(g)
            init(table, module, g)

        with mock.patch.object(summaries_mod._ChainTable, "__init__", counted):
            summaries, _ = summarize_library(libcorpus)
        assert len(graphs) == len(set(map(id, graphs))) == len(summaries)

    def test_instruction_scans_do_not_grow_with_function_size(self):
        small, large = _straightline_library(40), _straightline_library(160)
        assert sum(len(b.instrs) for b in small.functions["lib"].blocks) == 401
        assert sum(len(b.instrs) for b in large.functions["lib"].blocks) == 1601
        small_sums, small_scans = self._summarize_counting_scans(small)
        large_sums, large_scans = self._summarize_counting_scans(large)
        assert large_scans == small_scans
        assert small_sums == large_sums
        assert entries_as_strs(large_sums["lib"]) == {
            "param2.f0": ["param0", "param1.f3"],
            "param2.f1": ["param0", "param1.f0"],
            "param2.f2": ["param0", "param1.f1"],
            "param2.f3": ["param0", "param1.f2"],
            "ret": ["param0", "param1.f3"],
        }


# ---------------------------------------------------------------------------
# Reference binding: the per-candidate scans that the chain table replaced,
# kept as the oracle for source_nodes and target_nodes
# ---------------------------------------------------------------------------

def _ref_candidates(module, fn, g):
    cands = []
    for i, (pname, pty) in enumerate(fn.params):
        cands.append((("param", i), [g.formal_in(i)], pty))
    for gname in module.globals:
        nodes = []
        for fname in g.included:
            nid = g.global_value_node(gname, fname)
            if nid is not None:
                nodes.append(nid)
        if nodes:
            cands.append((("global", gname), nodes, module.globals[gname].ty))
    return cands


def _ref_struct_refinements(module, fn, g, root, cand_nodes):
    reach = set()
    for n in cand_nodes:
        reach |= g.reachable_from(n, include_control_deps=False)
        reach.add(n)
    out = []
    for f in g.included.values():
        idx = g.index(f.name)
        for ins in idx.instrs:
            if isinstance(ins, Gep):
                chain = _chain_root(f, idx.defs, module, Temp(ins.dest))
                if chain is None or (chain[0], chain[1]) != root:
                    continue
                if g.node_of_instr(ins.uid) not in reach:
                    continue
                nxt = g.find_next_use(ins.uid)
                if nxt is None:
                    continue
                nxt_ins = idx.by_uid[nxt]
                if isinstance(nxt_ins, Load) and nxt_ins.addr == Temp(ins.dest):
                    out.append((g.node_of_instr(nxt),
                                _base_slot(module, fn, root, chain[2])))
    return out


def _ref_call_arg_bindings(module, fn, g, root, cand_nodes):
    reach = set()
    for n in cand_nodes:
        reach |= g.reachable_from(n, include_control_deps=False)
        reach.add(n)
    ins_nodes, out_nodes = [], []
    for f in g.included.values():
        idx = g.index(f.name)
        for ins in idx.instrs:
            if not isinstance(ins, Call) or ins.uid not in g.summarized_calls:
                continue
            for j, arg in enumerate(ins.args):
                chain = _chain_root(f, idx.defs, module, arg)
                if chain is None or (chain[0], chain[1]) != root:
                    continue
                base_path = chain[2]
                ai = g.actual_in(ins.uid, j)
                if ai is not None and ai in reach:
                    if g.is_summary_input(ai):
                        ins_nodes.append(
                            (ai, _base_slot(module, fn, root, base_path)))
                    for aj, fp, fnode in g.actual_in_fields(ins.uid):
                        if aj == j:
                            ins_nodes.append(
                                (fnode, _base_slot(module, fn, root, base_path + fp)))
                for aj, fp, anode in g.actual_out_nodes(ins.uid):
                    if aj == j:
                        out_nodes.append(
                            (anode, _base_slot(module, fn, root, base_path + fp)))
    return ins_nodes, out_nodes


def reference_source_nodes(module, fn, g):
    binding = NodeBinding()
    for root, nodes, ty in _ref_candidates(module, fn, g):
        slot = _base_slot(module, fn, root, ())
        if is_prim_type(ty) and not is_struct_like(ty):
            for n in nodes:
                binding.add_source(n, slot)
            continue
        for n, s in _ref_struct_refinements(module, fn, g, root, nodes):
            binding.add_source(n, s)
        for n, s in _ref_call_arg_bindings(module, fn, g, root, nodes)[0]:
            binding.add_source(n, s)
        if root[0] == "global":
            for n in nodes:
                if g.is_summary_input(n):
                    binding.add_source(n, slot)
    binding.sources.sort()
    return binding


def reference_target_nodes(module, fn, g):
    binding = NodeBinding()
    for rid in g.return_nodes():
        binding.add_target(rid, make_slot(module, "ret", base_ty=fn.ret_ty))
    for root, nodes, ty in _ref_candidates(module, fn, g):
        if root[0] != "global" and not isinstance(ty, Ptr):
            continue
        for f in g.included.values():
            idx = g.index(f.name)
            for ins in idx.instrs:
                if not isinstance(ins, Store):
                    continue
                chain = _chain_root(f, idx.defs, module, ins.addr)
                if chain is not None and (chain[0], chain[1]) == root:
                    binding.add_target(g.node_of_instr(ins.uid),
                                       _base_slot(module, fn, root, chain[2]))
                    continue
                if isinstance(ins.addr, Temp):
                    d = idx.defs.get(ins.addr.name)
                    if isinstance(d, Load):
                        lnode = g.node_of_instr(d.uid)
                        reach_ok = any(lnode in g.reachable_from(n) for n in nodes)
                        if reach_ok and g.find_next_use(d.uid) == ins.uid:
                            binding.add_target(g.node_of_instr(ins.uid),
                                               _base_slot(module, fn, root, ()))
        for n, s in _ref_call_arg_bindings(module, fn, g, root, nodes)[1]:
            binding.add_target(n, s)
    for cu in sorted(g.summarized_calls):
        for gname, fp, nid in g.global_out_nodes(cu):
            binding.add_target(
                nid, make_slot(module, "global", name=gname,
                               base_ty=module.globals[gname].ty, path=fp))
    binding.targets.sort()
    return binding


def _binding_facts(b):
    return b.sources, b.targets, sorted(b.wp.items())


def assert_binding_matches_reference(module, include_control_deps):
    """Every function's binding, built on the library summaries of the same
    setting, equals the reference's: sources, targets and first-bound slots."""
    summaries, _ = summarize_library(module, include_control_deps)
    for name, fn in module.functions.items():
        g = build_pdg(module, fn, {k: v for k, v in summaries.items() if k != name})
        for got, want in ((source_nodes(module, fn, g), reference_source_nodes(module, fn, g)),
                          (target_nodes(module, fn, g), reference_target_nodes(module, fn, g))):
            assert _binding_facts(got) == _binding_facts(want), name


def _perfbench_gen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


BINDING_HEADER = """\
struct %in { i64 x, i64 y }
struct %r { i64 a, %in n, ptr(i64) p }
global @g : %r
global @k : i64
global @gp : ptr(i64)
fn @put(%d: ptr(i64), %v: i64) -> void library {
entry:
  store i64 %v, %d
  ret
}
fn @cp(%d: ptr(%r), %s: ptr(%r)) -> void library {
entry:
  %sa = gep %r, %s, 0, 0
  %va = load i64, %sa
  %da = gep %r, %d, 0, 0
  store i64 %va, %da
  %sx = gep %r, %s, 0, 1, 0
  %vx = load i64, %sx
  %dy = gep %r, %d, 0, 1, 1
  store i64 %vx, %dy
  ret
}
fn @h(%d: ptr(%r), %v: i64) -> void {
entry:
  %a = gep %r, %d, 0, 0
  store i64 %v, %a
  ret
}
"""

_binding_op = st.tuples(
    st.sampled_from(["gep", "gep", "load", "store", "stash", "stash_ptr",
                     "put", "cp", "h", "add"]),
    st.integers(0, 1 << 16), st.integers(0, 1 << 16), st.integers(0, 1 << 16))


@st.composite
def binding_modules(draw):
    """A library function over struct-pointer parameters and struct globals
    that builds constant-gep field chains, loads and stores through them,
    stores through stashed pointers and calls summarized and descended
    callees."""
    ops = draw(st.lists(_binding_op, min_size=1, max_size=24))
    recs = ["%s", "%o", "@g"]            # ptr(%r)
    ins_ = []                            # ptr(%in)
    words = ["@k"]                       # ptr(i64)
    slots = ["%q", "@gp"]                # ptr(ptr(i64))
    vals = ["%x", "7"]
    body = []
    for k, (op, a, b, c) in enumerate(ops):
        val = vals[a % len(vals)]
        if op == "gep" and ins_ and b % 3 == 0:
            words.append(f"%e{k}")
            body.append(f"%e{k} = gep %in, {ins_[a % len(ins_)]}, {c % 2}, {b % 2}")
        elif op == "gep":
            base, lead = recs[a % len(recs)], c % 4 == 3
            path = [[0], [1], [1, 0], [1, 1], [2], []][b % 6]
            if not path:
                recs.append(f"%e{k}")
                body.append(f"%e{k} = gep %r, {base}, 1")
                continue
            idx = ", ".join(str(i) for i in [int(lead)] + path)
            body.append(f"%e{k} = gep %r, {base}, {idx}")
            # field 1 is an %in, field 2 a ptr(i64); every other path an i64
            {(1,): ins_, (2,): slots}.get(tuple(path), words).append(f"%e{k}")
        elif op == "load":
            vals.append(f"%e{k}")
            body.append(f"%e{k} = load i64, {words[b % len(words)]}")
        elif op == "store":
            body.append(f"store i64 {val}, {words[b % len(words)]}")
        elif op == "stash":
            body.append(f"%e{k} = load ptr(i64), {slots[b % len(slots)]}")
            if c % 4:
                body.append(f"store i64 {val}, %e{k}")
            else:
                words.append(f"%e{k}")
        elif op == "stash_ptr":
            body.append(f"store ptr(i64) {words[b % len(words)]}, {slots[c % len(slots)]}")
        elif op == "put":
            body.append(f"call void @put({words[b % len(words)]}, {val})")
        elif op == "cp":
            body.append(f"call void @cp({recs[b % len(recs)]}, {recs[c % len(recs)]})")
        elif op == "h":
            body.append(f"call void @h({recs[b % len(recs)]}, {val})")
        else:
            vals.append(f"%e{k}")
            body.append(f"%e{k} = add i64 {val}, {vals[b % len(vals)]}")
    text = (BINDING_HEADER
            + "fn @f(%x: i64, %s: ptr(%r), %o: ptr(%r), %q: ptr(ptr(i64)))"
            + " -> i64 library {\nentry:\n"
            + "".join(f"  {line}\n" for line in body)
            + f"  ret i64 {vals[-1]}\n}}\n")
    m = parse_module(text)
    assert validate_module(m) == [], text
    return m


class TestBindingMatchesReference:
    """The chain-table binding equals the per-candidate reference scans."""

    @pytest.mark.parametrize("name", ["libcorpus", "student_flow",
                                      "bench_memcpy", "bench_user"])
    def test_corpus(self, name):
        for cdeps in (False, True):
            assert_binding_matches_reference(corpus.load_module(name), cdeps)

    @pytest.mark.parametrize("seed", [3, 5])
    def test_generated(self, seed):
        gen = _perfbench_gen()
        for gm in (gen.scaled_module(seed, 200), gen.scaled_module(seed, 400),
                   gen.many_small_module(seed, count=10)):
            assert_binding_matches_reference(parse_module(gm.text), True)

    @settings(max_examples=200, deadline=None)
    @given(binding_modules(), st.booleans())
    def test_generated_struct_chains(self, module, cdeps):
        assert_binding_matches_reference(module, cdeps)


# ---------------------------------------------------------------------------
# Reference library order: the round-based ordering over first-library
# dependencies that the post-order walk replaced, kept as its oracle
# ---------------------------------------------------------------------------

def _ref_library_deps(module, fn):
    deps = set()
    seen = {fn.name}

    def walk(f):
        for ins in f.instructions():
            if not isinstance(ins, Call):
                continue
            callee = module.functions.get(ins.callee)
            if callee is None:
                continue
            if callee.is_library and callee.name != fn.name:
                deps.add(callee.name)
            elif callee.name not in seen:
                seen.add(callee.name)
                walk(callee)

    walk(fn)
    return deps


def reference_summarize_library(module, include_control_deps=False):
    diags = []
    lib = {f.name: f for f in module.library_functions()}
    deps = {name: _ref_library_deps(module, f) & set(lib) for name, f in lib.items()}
    order, placed, excluded = [], set(), set()
    remaining = sorted(lib)
    while remaining:
        progress = False
        for name in list(remaining):
            if deps[name] & excluded:
                excluded.add(name)
                remaining.remove(name)
                diags.append(f"@{name} depends on an excluded library function")
                progress = True
            elif deps[name] <= placed:
                order.append(name)
                placed.add(name)
                remaining.remove(name)
                progress = True
        if not progress:
            for name in remaining:
                diags.append(f"recursion cycle among library functions involving @{name};"
                             " excluded from summarization")
                excluded.add(name)
            break
    summaries = {}
    for name in order:
        try:
            _, _, summary = summarize_function(
                module, lib[name], summaries, include_control_deps)
        except PdgError as e:
            diags.append(f"@{name}: {e}")
            continue
        summaries[name] = summary
    return summaries, diags


def _named(messages):
    """The function each diagnostic names first."""
    return {re.search(r"@(\w+)", m).group(1) for m in messages}


@st.composite
def call_graph_modules(draw):
    """1-7 functions, each library or not, over two pointer parameters and
    an integer: a load, add and store, an optional branch around a second
    store, and up to three calls, to any function (itself too) or to one
    the module lacks, with the pointer arguments permuted or repeated."""
    n = draw(st.integers(1, 7))
    names = [f"f{i}" for i in range(n)]
    fns = []
    for name in names:
        body = ["  %v = load i64, %b", "  %w = add i64 %v, %x", "  store i64 %w, %a"]
        if draw(st.booleans()):
            body += ["  %c = cmp i64 %x, 0", "  br %c, t, e", "t:",
                     "  store i64 0, %b", "  jmp e", "e:"]
        last = "%w"
        for k in range(draw(st.integers(0, 3))):
            callee = draw(st.sampled_from(names + ["missing"]))
            p, q = draw(st.sampled_from(["%a", "%b"])), draw(st.sampled_from(["%a", "%b"]))
            arg = draw(st.sampled_from(["%x", last]))
            body.append(f"  %r{k} = call i64 @{callee}({p}, {q}, {arg})")
            last = f"%r{k}"
        lib = " library" if draw(st.booleans()) else ""
        fns.append(f"fn @{name}(%a: ptr(i64), %b: ptr(i64), %x: i64) -> i64{lib} {{\n"
                   "entry:\n" + "\n".join(body) + f"\n  ret i64 {last}\n}}\n")
    return parse_module("".join(fns))


class TestLibraryOrderMatchesReference:
    """The post-order walk makes the reference's summaries and excludes the
    functions it excludes, each with a diagnostic."""

    @settings(max_examples=300, deadline=None)
    @given(call_graph_modules())
    def test_generated_call_graphs(self, module):
        lib = {f.name for f in module.library_functions()}
        for cdeps in (False, True):
            got, diags = summarize_library(module, cdeps)
            want, ref_diags = reference_summarize_library(module, cdeps)
            assert got == want
            excluded = lib - set(got)
            assert _named(d.message for d in diags) == excluded == _named(ref_diags)

    def test_corpus(self):
        for name in corpus.NAMES:
            module = corpus.load_module(name)
            for cdeps in (False, True):
                assert summarize_library(module, cdeps) == (
                    reference_summarize_library(module, cdeps)[0], [])
