"""Dependency-graph construction, traversal predicates, and exports.

Reachability and control-dependence results are cross-checked against
brute-force recomputations that only look at the exported edge list and
the block CFG.
"""

import ast
from collections import deque
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from taintsum import build_pdg, corpus, parse_module
from taintsum import pdg as pdg_module
from taintsum.ir import Br, Jmp, Ptr, Ret, Temp
from taintsum.pdg import (
    PdgError, TRAVERSABLE, control_dependencies, immediate_postdominators,
)
from taintsum.summaries import summarize_library
from test_ir import _straightline_function



def _offline_scaled_sizes():
    """`perfbench/workloads.py`'s `SIZES`, read from its source: importing
    the module would put the benchmark's own `gen` and `reference` on the
    import path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    for stmt in ast.parse(path.read_text()).body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and getattr(stmt.targets[0], "id", None) == "SIZES"):
            return ast.literal_eval(stmt.value)
    raise LookupError(f"no SIZES in {path}")


def _adjacency(g, kinds):
    adj = {}
    for e in g.edges:
        if e.kind in kinds:
            adj.setdefault(e.src, []).append(e.dst)
    return adj


def _traversed(include_cdeps):
    return set(TRAVERSABLE) | ({"cdep"} if include_cdeps else set())


def brute_force_distances(g, src, include_cdeps=False):
    """Independent BFS over the exported edge list restricted to data,
    parameter-connector, summary (d_gnrl) and optionally cdep kinds: the
    number of edges from src to each node it reaches, src itself at 0."""
    adj = _adjacency(g, _traversed(include_cdeps))
    dist = {src: 0}
    q = deque([src])
    while q:
        n = q.popleft()
        for nxt in adj.get(n, ()):
            if nxt not in dist:
                dist[nxt] = dist[n] + 1
                q.append(nxt)
    return dist


def brute_force_reachable(g, src, include_cdeps=False):
    return set(brute_force_distances(g, src, include_cdeps)) - {src}


def assert_witness_paths(g, include_cdeps):
    """witness_path for every (src, dst) pair of the graph: None exactly
    when dst is src or unreachable, otherwise a walk over edges of the
    stated traversable kinds as long as the brute-force distance."""
    kinds = _traversed(include_cdeps)
    edges = set(_edge_list(g))
    for src in g.nodes:
        reach = g.reachable_from(src, include_cdeps)
        dist = brute_force_distances(g, src, include_cdeps)
        for dst in g.nodes:
            p = g.witness_path(src, dst, include_cdeps)
            if dst == src or dst not in reach:
                assert p is None, (src, dst)
                continue
            assert p.nodes[0] == src and p.nodes[-1] == dst
            assert len(p.kinds) == len(p.nodes) - 1 == dist[dst], (src, dst)
            assert set(p.kinds) <= kinds
            assert set(zip(p.nodes, p.nodes[1:], p.kinds)) <= edges


def _simple_paths_blocks(succ, start, goal):
    out = []
    def dfs(b, trail):
        if b == goal:
            out.append(tuple(trail))
            return
        for s in succ.get(b, ()):
            if s not in trail:
                dfs(s, trail + [s])
    dfs(start, [start])
    return out


def _block_successors(fn):
    succ = {}
    for b in fn.blocks:
        term = b.instrs[-1]
        if isinstance(term, Br):
            succ[b.label] = [term.then_label, term.else_label]
        elif isinstance(term, Jmp):
            succ[b.label] = [term.label]
        else:
            succ[b.label] = ["<exit>"]
    return succ


def brute_force_postdoms(fn):
    """Postdominance via simple-path enumeration on the block CFG."""
    succ = _block_successors(fn)
    result = {}
    labels = [b.label for b in fn.blocks]
    for lbl in labels:
        paths = _simple_paths_blocks(succ, lbl, "<exit>")
        if not paths:
            result[lbl] = set(labels) | {"<exit>"}
            continue
        common = set(paths[0])
        for p in paths[1:]:
            common &= set(p)
        result[lbl] = common
    result["<exit>"] = {"<exit>"}
    return result


def _edge_list(g):
    return [(e.src, e.dst, e.kind) for e in g.edges]


@st.composite
def _pointer_function(draw):
    """Random straight-line function that stashes cell pointers in pointer
    slots and reloads them, so one address may point to several cells."""
    n_cells, n_slots = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    lines = ["fn @f(%x: i64) -> i64 {", "entry:"]
    lines += [f"  %c{i} = alloca i64" for i in range(n_cells)]
    lines += [f"  %q{i} = alloca ptr(i64)" for i in range(n_slots)]
    # a pointer reloaded from %q0 may point to any cell
    lines += [f"  store ptr(i64) %c{i}, %q0" for i in range(n_cells)]
    ptrs = [f"%c{i}" for i in range(n_cells)]
    vals = ["%x"]
    for k in range(draw(st.integers(1, 16))):
        op = draw(st.sampled_from(["stash", "fetch", "write", "read"]))
        slot = f"%q{draw(st.integers(0, n_slots - 1))}"
        ptr = draw(st.sampled_from(ptrs))
        if op == "stash":
            lines.append(f"  store ptr(i64) {ptr}, {slot}")
        elif op == "fetch":
            lines.append(f"  %p{k} = load ptr(i64), {slot}")
            ptrs.append(f"%p{k}")
        elif op == "write":
            lines.append(f"  store i64 {draw(st.sampled_from(vals))}, {ptr}")
        else:
            lines.append(f"  %v{k} = load i64, {ptr}")
            vals.append(f"%v{k}")
    lines += [f"  ret i64 {vals[-1]}", "}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def memcpy_pdg(libcorpus):
    return build_pdg(libcorpus, "memcpy", {})


@pytest.fixture(scope="module")
def student_pdg(libcorpus, lib_summaries):
    return build_pdg(libcorpus, "student_cpy",
                     {"memcpy": lib_summaries["memcpy"]})


class TestBuild:
    def test_memcpy_return_reachable_from_dest(self, memcpy_pdg):
        g = memcpy_pdg
        src = g.formal_in(0)
        ret = g.return_nodes()[0]
        assert ret in g.reachable_from(src)
        path = g.witness_path(src, ret)
        assert set(path.kinds) <= {"d_gnrl", "def_use", "raw"}

    def test_single_ret_void_gives_two_nodes_no_data_edges(self):
        m = parse_module("fn @t() -> void {\nentry:\n  ret\n}\n")
        g = build_pdg(m, "t", {})
        assert sorted(n.kind for n in g.nodes.values()) == ["entry", "return"]
        assert g.edges == []

    def test_summarized_call_keeps_callee_body_out(self, student_pdg, libcorpus):
        g = student_pdg
        assert set(g.included) == {"student_cpy"}
        # no node carries a memcpy instruction id
        assert all((n.instr or "").split(":")[0] != "memcpy"
                   for n in g.nodes.values())
        ai_ao = [(g.nodes[e.src].kind, g.nodes[e.dst].kind)
                 for e in g.edges
                 if g.nodes[e.src].kind == "actual_in"
                 and g.nodes[e.dst].kind == "actual_out"]
        assert ai_ao, "expected summary-induced ActualIn->ActualOut edges"

    def test_unresolved_callee_without_summary(self):
        m = parse_module(
            "fn @f() -> void {\nentry:\n  call void @mystery()\n  ret\n}\n")
        with pytest.raises(PdgError, match="unresolved callee"):
            build_pdg(m, "f", {})

    def test_recursive_cycle_rejected(self):
        src = ("fn @a() -> void {\nentry:\n  call void @b()\n  ret\n}\n"
               "fn @b() -> void {\nentry:\n  call void @a()\n  ret\n}\n")
        m = parse_module(src)
        with pytest.raises(PdgError, match="recursive call cycle"):
            build_pdg(m, "a", {})

    def test_instr_index_total(self, memcpy_pdg, libcorpus):
        fn = libcorpus.functions["memcpy"]
        for ins in fn.instructions():
            assert ins.uid in memcpy_pdg.instr_index

    def test_edge_endpoints_exist(self, student_pdg):
        for e in student_pdg.edges:
            assert e.src in student_pdg.nodes and e.dst in student_pdg.nodes


class TestFindNextUse:
    def test_single_use(self, libcorpus, student_pdg):
        # %sscp = gep ... is immediately loaded
        fn = libcorpus.functions["student_cpy"]
        gep_uid = next(i.uid for i in fn.instructions()
                       if getattr(i, "dest", None) == "sscp")
        nxt = student_pdg.find_next_use(gep_uid)
        assert nxt == next(i.uid for i in fn.instructions()
                           if getattr(i, "dest", None) == "sc")

    def test_dead_definition(self):
        m = parse_module(
            "fn @f() -> void {\nentry:\n  %x = alloca i32\n  ret\n}\n")
        g = build_pdg(m, "f", {})
        uid = m.functions["f"].blocks[0].instrs[0].uid
        assert g.find_next_use(uid) is None

    def test_uses_in_two_blocks_take_earlier_block(self):
        src = """fn @f(%c: i64) -> i64 {
entry:
  %x = add i64 1, 2
  br %c, one, two
one:
  %a = add i64 %x, 1
  ret i64 %a
two:
  %b = add i64 %x, 2
  ret i64 %b
}
"""
        m = parse_module(src)
        g = build_pdg(m, "f", {})
        fn = m.functions["f"]
        x_uid = fn.blocks[0].instrs[0].uid
        a_uid = fn.blocks[1].instrs[0].uid
        assert g.find_next_use(x_uid) == a_uid


class TestFindPath:
    def test_src_param_to_store(self, memcpy_pdg, libcorpus):
        fn = libcorpus.functions["memcpy"]
        store_uid = next(i.uid for i in fn.instructions()
                         if type(i).__name__ == "Store"
                         and getattr(i.value, "name", None) == "ch")
        path = memcpy_pdg.witness_path(memcpy_pdg.formal_in(1),
                                       memcpy_pdg.instr_index[store_uid])
        assert path is not None

    def test_self_path_is_empty(self, memcpy_pdg):
        n = memcpy_pdg.formal_in(0)
        assert memcpy_pdg.witness_path(n, n) is None

    def test_counting_loop_needs_control_deps(self, libcorpus):
        g = build_pdg(libcorpus, "strlen_a", {})
        src = g.formal_in(0)
        ret = g.return_nodes()[0]
        assert g.witness_path(src, ret, include_control_deps=False) is None
        assert g.witness_path(src, ret, include_control_deps=True) is not None

    def test_no_alias_edges_and_no_repeats(self, memcpy_pdg):
        g = memcpy_pdg
        for src in [g.formal_in(i) for i in range(3)]:
            for dst in list(g.nodes)[:20]:
                p = g.witness_path(src, dst, include_control_deps=True)
                if p is not None:
                    assert "d_alias" not in p.kinds
                    assert "call" not in p.kinds
                    assert len(set(p.nodes)) == len(p.nodes)

    def test_alias_edges_exist_but_are_skipped(self, memcpy_pdg):
        assert any(e.kind == "d_alias" for e in memcpy_pdg.edges)


class TestClosureOracle:
    def test_reachability_matches_brute_force(self, libcorpus, lib_summaries):
        for name in sorted(corpus.DRIVERS):
            g = build_pdg(libcorpus, name,
                          {k: v for k, v in lib_summaries.items() if k != name})
            assert len(g.nodes) <= 200
            for cdeps in (False, True):
                for src in list(g.nodes):
                    got = g.reachable_from(src, cdeps)
                    want = brute_force_reachable(g, src, cdeps)
                    assert got == want, (name, src, cdeps)

    def test_find_path_nonempty_iff_reachable(self, libcorpus, lib_summaries):
        for name in sorted(corpus.DRIVERS):
            g = build_pdg(libcorpus, name,
                          {k: v for k, v in lib_summaries.items() if k != name})
            for cdeps in (False, True):
                assert_witness_paths(g, cdeps)

    @settings(max_examples=60, deadline=None)
    @given(_pointer_function(), st.booleans())
    def test_witness_path_on_random_functions(self, src, cdeps):
        assert_witness_paths(build_pdg(parse_module(src), "f", {}), cdeps)


# ---------------------------------------------------------------------------
# Reference control dependence: the iterative postdominator sets and the
# walk over them that immediate_postdominators replaced, kept as its oracle
# ---------------------------------------------------------------------------

def reference_postdominators(fn):
    """Iterative postdominator sets over the block CFG (virtual exit)."""
    succ = _block_successors(fn)
    labels = [b.label for b in fn.blocks]
    every = set(labels) | {"<exit>"}
    pdom = {lbl: set(every) for lbl in labels}
    pdom["<exit>"] = {"<exit>"}
    changed = True
    while changed:
        changed = False
        for lbl in reversed(labels):
            meet = set.intersection(*(pdom[s] for s in succ[lbl]))
            new = {lbl} | meet
            if new != pdom[lbl]:
                pdom[lbl] = new
                changed = True
    return pdom


def reference_ipdom(pdom, live, lbl):
    """The immediate postdominator of a block, or None for a block from
    which the exit cannot be reached (`live` holds those that reach it)."""
    if lbl not in live:
        return None
    strict = pdom[lbl] - {lbl}
    for s in strict:
        if pdom.get(s, set()) == strict:
            return s
    return None


def reference_live(fn):
    succ = _block_successors(fn)
    live = {"<exit>"}
    while grown := {b for b, ss in succ.items() if b not in live and live & set(ss)}:
        live |= grown
    return live


def reference_control_dependencies(fn):
    pdom = reference_postdominators(fn)
    succ = _block_successors(fn)
    live = reference_live(fn)
    deps = {b.label: set() for b in fn.blocks}
    for b in fn.blocks:
        term = b.instrs[-1]
        if not isinstance(term, Br):
            continue
        stop = reference_ipdom(pdom, live, b.label)
        for s in succ[b.label]:
            runner = s
            walked = set()
            while runner not in (stop, "<exit>", None) and runner not in walked:
                walked.add(runner)
                deps[runner].add(term.uid)
                runner = reference_ipdom(pdom, live, runner)
    return deps


def ipdom_chain_postdoms(fn):
    """Postdominator sets read off the immediate-postdominator chains; a
    block that cannot reach the exit is postdominated by every block."""
    ipdom = immediate_postdominators(fn)
    every = {b.label for b in fn.blocks} | {"<exit>"}
    pdom = {"<exit>": {"<exit>"}}
    for b in fn.blocks:
        if b.label not in ipdom:
            pdom[b.label] = set(every)
            continue
        chain, x = {b.label, "<exit>"}, b.label
        while x in ipdom:
            x = ipdom[x]
            chain.add(x)
        pdom[b.label] = chain
    return pdom


def assert_control_dependence_matches_reference(fn):
    pdom = reference_postdominators(fn)
    live = reference_live(fn)
    assert immediate_postdominators(fn) == {
        b.label: reference_ipdom(pdom, live, b.label)
        for b in fn.blocks if b.label in live}, fn.name
    assert control_dependencies(fn) == reference_control_dependencies(fn), fn.name


def _cfg_function(blocks):
    """A function whose blocks end as `blocks` says: (kind, then, else)
    with block indices taken modulo the block count."""
    lines = ["fn @f(%c: i64) -> void {"]
    for i, (kind, t, e) in enumerate(blocks):
        t, e = f"b{t % len(blocks)}", f"b{e % len(blocks)}"
        term = {"ret": "ret", "jmp": f"jmp {t}", "br": f"br %c, {t}, {e}"}[kind]
        lines += [f"b{i}:", f"  {term}"]
    return parse_module("\n".join(lines + ["}"]) + "\n").functions["f"]


_cfgs = st.lists(st.tuples(st.sampled_from(["br", "jmp", "ret"]),
                           st.integers(0, 7), st.integers(0, 7)),
                 min_size=1, max_size=8)


class TestControlDependenceDifferential:
    @settings(max_examples=500, deadline=None)
    @given(_cfgs)
    @example([("br", 0, 1), ("ret", 0, 0)])                   # self-loop
    @example([("br", 1, 1), ("ret", 0, 0)])                   # br %c, b, b
    @example([("br", 1, 2), ("jmp", 1, 0), ("ret", 0, 0)])    # loop without exit
    @example([("ret", 0, 0), ("br", 2, 0), ("ret", 0, 0)])    # unreachable blocks
    @example([("jmp", 3, 0), ("jmp", 1, 0), ("ret", 0, 0), ("br", 2, 1)])
    def test_random_cfgs(self, blocks):
        assert_control_dependence_matches_reference(_cfg_function(blocks))

    def test_code_after_ret(self):
        m = parse_module("fn @f(%c: i64) -> void {\nentry:\n  br %c, a, b\n"
                         "a:\n  ret\n  jmp b\nb:\n  ret\n}\n")
        assert_control_dependence_matches_reference(m.functions["f"])

    @pytest.mark.parametrize("name", corpus.NAMES)
    def test_corpus(self, name):
        for fn in corpus.load_module(name).functions.values():
            assert_control_dependence_matches_reference(fn)

    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_generated(self, seed):
        from test_summaries import _perfbench_gen   # test_summaries imports this file
        gen = _perfbench_gen()
        for gm in ([gen.scaled_module(seed, n) for n in _offline_scaled_sizes()]
                   + [gen.many_small_module(seed)]):
            for fn in parse_module(gm.text).functions.values():
                assert_control_dependence_matches_reference(fn)


class TestControlDependence:
    def test_postdoms_match_brute_force(self, libcorpus):
        for name in ("memcpy", "strlen_a", "strcpy_a", "memset_a"):
            fn = libcorpus.functions[name]
            assert ipdom_chain_postdoms(fn) == brute_force_postdoms(fn)

    def test_cdep_satisfies_frontier_property(self, libcorpus):
        # X control-dependent on br at A  iff  X postdominates some
        # successor of A but does not strictly postdominate A
        for name in sorted(corpus.DRIVERS):
            fn = libcorpus.functions[name]
            pdom = brute_force_postdoms(fn)
            deps = control_dependencies(fn)
            succ = {}
            for b in fn.blocks:
                term = b.instrs[-1]
                if isinstance(term, Br):
                    succ[term.uid] = (b.label, [term.then_label, term.else_label])
            for block_label, br_uids in deps.items():
                for br_uid in br_uids:
                    a_label, a_succs = succ[br_uid]
                    assert any(block_label in pdom[s] or block_label == s
                               for s in a_succs)
                    assert not (block_label != a_label
                                and block_label in pdom[a_label])
            # completeness
            for br_uid, (a_label, a_succs) in succ.items():
                for x in fn.blocks:
                    lbl = x.label
                    dominates_succ = any(
                        lbl == s or lbl in pdom.get(s, set()) for s in a_succs)
                    strictly_pdoms_a = lbl != a_label and lbl in pdom[a_label]
                    if dominates_succ and not strictly_pdoms_a:
                        assert br_uid in deps[lbl], (name, lbl, br_uid)

    def test_loop_body_depends_on_loop_branch(self, libcorpus):
        fn = libcorpus.functions["memcpy"]
        deps = control_dependencies(fn)
        br_uid = next(b.instrs[-1].uid for b in fn.blocks if b.label == "cond")
        assert br_uid in deps["body"]
        assert br_uid not in deps["done"]

    SPIN = """fn @spin(%a: i64, %b: i64, %o: ptr(i64)) -> i64 library {
entry:
  jmp b3
b1:
  jmp b1
b2:
  ret i64 0
b3:
  store i64 %a, %o
  br %b, b2, b1
}
"""

    def test_block_that_cannot_reach_exit_ends_the_walk(self):
        # b1 spins forever, so it has no immediate postdominator; the store
        # in b3 runs on every call and depends on no branch
        m = parse_module(self.SPIN)
        assert control_dependencies(m.functions["spin"]) == {
            "entry": set(), "b1": {"spin:4"}, "b2": set(), "b3": set()}
        summaries, diags = summarize_library(m, True)
        assert diags == []
        assert [(str(o), [str(i) for i in ins])
                for o, ins in summaries["spin"].entries] == [("param2", ["param0"])]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["br", "jmp", "ret"]),
                              st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=7))
    @example([("jmp", 3, 0), ("jmp", 1, 0), ("ret", 0, 0), ("br", 2, 1)])
    def test_no_dependence_on_an_unreaching_branch(self, blocks):
        # a block is control-dependent only on branches it can be reached
        # from (through at least one CFG edge)
        fn = _cfg_function(blocks)
        succ = {b.label: [] for b in fn.blocks}
        br_block = {}
        for b in fn.blocks:
            term = b.instrs[-1]
            if isinstance(term, Br):
                succ[b.label] = [term.then_label, term.else_label]
                br_block[term.uid] = b.label
            elif isinstance(term, Jmp):
                succ[b.label] = [term.label]

        def reached_from(start):
            seen, todo = set(), list(succ[start])
            while todo:
                b = todo.pop()
                if b not in seen:
                    seen.add(b)
                    todo.extend(succ[b])
            return seen

        for lbl, brs in control_dependencies(fn).items():
            for br_uid in brs:
                assert lbl in reached_from(br_block[br_uid]), (blocks, lbl, br_uid)


class TestExports:
    def test_two_node_digraph(self):
        m = parse_module("fn @t() -> void {\nentry:\n  ret\n}\n")
        dot = build_pdg(m, "t", {}).export_dot()
        assert dot.startswith('digraph "t" {')
        assert dot.count("[label=") == 2
        assert " -> " not in dot

    def test_dot_is_deterministic(self, libcorpus, lib_summaries):
        a = build_pdg(libcorpus, "student_cpy",
                      {"memcpy": lib_summaries["memcpy"]}).export_dot()
        b = build_pdg(libcorpus, "student_cpy",
                      {"memcpy": lib_summaries["memcpy"]}).export_dot()
        assert a == b

    def test_dot_structure_is_well_formed(self, memcpy_pdg):
        import re
        dot = memcpy_pdg.export_dot()
        assert dot.rstrip().endswith("}")
        body = dot[dot.index("{") + 1:dot.rindex("}")]
        node_re = re.compile(r'^\s*n\d+ \[label=".*"\];$')
        edge_re = re.compile(r'^\s*n\d+ -> n\d+ \[label="\w+"\];$')
        default_re = re.compile(r"^\s*node \[.*\];$")
        for line in filter(None, map(str.strip, body.splitlines())):
            assert (node_re.match(line) or edge_re.match(line)
                    or default_re.match(line)), line

    def test_json_dump_field_names(self, memcpy_pdg):
        doc = memcpy_pdg.export_json()
        assert doc["function"] == "memcpy"
        assert {"id", "kind", "instr", "label"} <= set(doc["nodes"][0])
        assert {"src", "dst", "kind"} == set(doc["edges"][0])

    def test_edges_are_made_once_when_first_read(self, libcorpus):
        """Building a graph makes no edge object and no d_alias edge; the
        first read of `edges` makes the sorted list both exports share."""
        with mock.patch.object(pdg_module, "PdgEdge", wraps=pdg_module.PdgEdge) as made, \
                mock.patch.object(pdg_module, "_alias_keys",
                                  wraps=pdg_module._alias_keys) as aliases:
            g = build_pdg(libcorpus, "memcpy", {})
            assert all(kind != "d_alias"
                       for n in g.nodes for _, kind in g.successors(n))
            assert made.call_count == aliases.call_count == 0
            dot, doc = g.export_dot(), g.export_json()
            assert aliases.call_count == 1
            assert made.call_count == len(g.edges) == len(doc["edges"])
        assert g.edges == sorted(g.edges, key=lambda e: (e.src, e.dst, e.kind))
        assert any(e.kind == "d_alias" for e in g.edges)
        assert dot.count(" -> ") == len(g.edges)


def brute_force_next_use(fn, uid):
    """Linear scan: the first later instruction, in program order, that
    reads the temp defined at uid."""
    instrs = list(fn.instructions())
    at = next((k for k, ins in enumerate(instrs) if ins.uid == uid), None)
    target = instrs[at].defined_temp() if at is not None else None
    if target is None:
        return None
    for ins in instrs[at + 1:]:
        if any(isinstance(op, Temp) and op.name == target
               for op in ins.operands()):
            return ins.uid
    return None


def _all_pairs_matcher(entries):
    """All-pairs stand-in for the class lookup: each entry in list order,
    kept when one of its regions and one of the query's share a root and
    `_pts_compat` accepts their paths."""
    def match(regions):
        return [k for k, (_, rs) in enumerate(entries)
                if any(r1 == r2 and pdg_module._pts_compat(p1, p2)
                       for r1, p1 in regions for r2, p2 in rs)]
    return match


def build_all_pairs(module, name, summaries):
    """build_pdg with memory edges found by testing every writer against
    every reader, and its d_alias edges every pointer def against every
    later one; the edges are read while the all-pairs lookup is in place."""
    with mock.patch.object(pdg_module, "_matcher", _all_pairs_matcher):
        g = build_pdg(module, name, summaries)
        g.edges
        return g


@pytest.fixture(scope="module")
def corpus_graphs():
    """(module, function name, callee summaries) for every corpus function."""
    out = []
    for mod_name in corpus.NAMES:
        m = corpus.load_module(mod_name)
        summaries, _ = summarize_library(m, include_control_deps=True)
        for name in sorted(m.functions):
            out.append((m, name, {k: v for k, v in summaries.items()
                                  if k != name}))
    return out


class TestIndexEquivalence:
    """The per-function index and the bucketed memory-edge search against
    brute-force recomputations."""

    def test_next_use_matches_linear_scan_on_corpus(self, corpus_graphs):
        for m, name, summaries in corpus_graphs:
            g = build_pdg(m, name, summaries)
            for fn in g.included.values():
                for ins in fn.instructions():
                    assert (g.find_next_use(ins.uid)
                            == brute_force_next_use(fn, ins.uid)), ins.uid

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_straightline_function(), _pointer_function()))
    def test_next_use_matches_linear_scan_on_random_functions(self, src):
        m = parse_module(src)
        g = build_pdg(m, "f", {})
        fn = m.functions["f"]
        for ins in fn.instructions():
            assert g.find_next_use(ins.uid) == brute_force_next_use(fn, ins.uid)

    def test_edge_order_matches_all_pairs_on_corpus(self, corpus_graphs):
        for m, name, summaries in corpus_graphs:
            g = build_pdg(m, name, summaries)
            oracle = build_all_pairs(m, name, summaries)
            assert _edge_list(g) == _edge_list(oracle), name
            assert all(g.successors(n) == oracle.successors(n) for n in g.nodes)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_straightline_function(), _pointer_function()))
    def test_edge_order_matches_all_pairs_on_random_functions(self, src):
        m = parse_module(src)
        g, oracle = build_pdg(m, "f", {}), build_all_pairs(m, "f", {})
        assert _edge_list(g) == _edge_list(oracle)
        assert all(g.successors(n) == oracle.successors(n) for n in g.nodes)

    @pytest.mark.parametrize("seed,size", [(1, 200), (1, 800), (5, 200),
                                           (5, 800), (1, None)])
    def test_matches_all_pairs_on_generated_modules(self, seed, size):
        """`perfbench/gen.py` modules (`None`: the many small functions):
        summaries, every closure and the exports, d_alias included."""
        from test_summaries import _perfbench_gen
        gen = _perfbench_gen()
        gm = (gen.many_small_module(seed) if size is None
              else gen.scaled_module(seed, size))
        m = parse_module(gm.text)
        summaries, _ = summarize_library(m, True)
        with mock.patch.object(pdg_module, "_matcher", _all_pairs_matcher):
            assert summarize_library(m, True)[0] == summaries
        for name in sorted(m.functions):
            callees = {k: v for k, v in summaries.items() if k != name}
            g, oracle = build_pdg(m, name, callees), build_all_pairs(m, name, callees)
            for n in g.nodes:
                assert g.successors(n) == oracle.successors(n)
                for cdeps in (False, True):
                    assert g.reachable_from(n, cdeps) == oracle.reachable_from(n, cdeps)
            assert g.export_json() == oracle.export_json(), name

    def test_reachable_from_result_is_not_shared_state(self, memcpy_pdg):
        g = memcpy_pdg
        src = g.formal_in(0)
        first = g.reachable_from(src)
        want = set(first)
        with pytest.raises(AttributeError):
            first.add(-1)
        first |= {-1}
        assert -1 not in g.reachable_from(src)
        assert g.reachable_from(src) == want == brute_force_reachable(g, src)


class _CountingPointsTo(pdg_module._PointsTo):
    transfers = 0

    def _transfer(self, fn, ins):
        self.transfers += 1
        super()._transfer(fn, ins)


def _sets(table):
    return {k: frozenset(v) for k, v in table.items() if v}


def plain_points_to(g):
    """Reference solve: whole passes over every included instruction, in
    program order, until a pass changes no set; with its pass count."""
    pts = _CountingPointsTo(g)
    for i, (pname, pty) in enumerate(g.root.params):
        if isinstance(pty, Ptr):
            pts.pts[(g.root.name, pname)] = {(("p", i), ())}
    instrs = [(fn.name, ins) for fn in g.included.values()
              for ins in fn.instructions()]
    passes = 0
    while True:
        before = (_sets(pts.pts), _sets(pts.contents))
        for fn, ins in instrs:
            pts._transfer(fn, ins)
        passes += 1
        if (_sets(pts.pts), _sets(pts.contents)) == before:
            return pts, passes


def assert_early_stop_matches_plain(m, name="f", summaries=None):
    """The graph's points-to sets equal the plain solve's, reached in no
    more passes; (early, plain) pass counts."""
    g = build_pdg(m, name, summaries or {})
    early = _CountingPointsTo(g)
    early.solve()
    plain, passes = plain_points_to(g)
    assert _sets(g._pts) == _sets(early.pts) == _sets(plain.pts)
    assert _sets(early.contents) == _sets(plain.contents)
    per_pass = sum(len(g.index(fn).instrs) for fn in g.included)
    assert early.transfers % per_pass == 0
    assert early.transfers // per_pass <= passes
    return early.transfers // per_pass, passes


# the load of %q comes before, in program order, the store that feeds it
LOAD_BEFORE_STORE_LOOP = """fn @f(%x: i64) -> i64 {
entry:
  %c = alloca i64
  %q = alloca ptr(i64)
  jmp loop
loop:
  %p = load ptr(i64), %q
  store i64 %x, %p
  store ptr(i64) %c, %q
  %v = load i64, %c
  br %v, loop, done
done:
  ret i64 %v
}
"""

# @id's return value is set after the root's instructions in a pass, and
# feeds the root's call of @put
DESCENDED_RETURN = """fn @id(%p: ptr(i64)) -> ptr(i64) {
entry:
  %q = gep i64, %p, 0
  ret ptr(i64) %q
}
fn @put(%d: ptr(i64), %v: i64) -> void {
entry:
  store i64 %v, %d
  ret
}
fn @f(%x: i64) -> i64 {
entry:
  %c = alloca i64
  %r = call ptr(i64) @id(%c)
  call void @put(%r, %x)
  %v = load i64, %c
  ret i64 %v
}
"""


class TestPointsToEarlyStop:
    """`_PointsTo.solve` stops after the first pass in which no set grew
    after a transfer had read it; a plain solve runs whole passes until one
    changes nothing."""

    @settings(max_examples=100, deadline=None)
    @given(_pointer_function())
    def test_matches_plain_solve_on_random_functions(self, src):
        assert_early_stop_matches_plain(parse_module(src))

    @pytest.mark.parametrize("src", [LOAD_BEFORE_STORE_LOOP, DESCENDED_RETURN],
                             ids=["loop", "descended_return"])
    def test_second_pass_is_kept_and_third_dropped(self, src):
        assert assert_early_stop_matches_plain(parse_module(src)) == (2, 3)

    def test_loop_store_reaches_the_earlier_load(self):
        """`store i64 %x, %p` writes %c only once the second pass has
        given %p the pointer stored after the load."""
        g = build_pdg(parse_module(LOAD_BEFORE_STORE_LOOP), "f", {})
        instrs = g.index("f").instrs
        store_x = next(i for i in instrs if getattr(i, "value", None) == Temp("x"))
        load_c = next(i for i in instrs if getattr(i, "dest", None) == "v")
        assert ((g.node_of_instr(load_c.uid), "raw")
                in g.successors(g.node_of_instr(store_x.uid)))

    def test_corpus(self, corpus_graphs):
        for m, name, summaries in corpus_graphs:
            assert_early_stop_matches_plain(m, name, summaries)
