"""Per-function program dependency graphs.

A Pdg covers one root function plus any defined callees that lack
summaries (those are descended into and linked with parameter-passing
edges); callees that do have summaries contribute only call-site
ActualIn/ActualOut nodes and direct summary-induced dependency edges.

Edge vocabulary: cdep, d_gnrl, d_alias, def_use, raw, p_form, p_act,
p_fld, p_in, p_out, call.  Path traversal walks data edges plus the
parameter connectors; d_alias and call edges are never traversed, and
cdep only on request.  So d_alias edges (two pointer definitions that may
alias) are derived from the solved points-to sets only for `Pdg.edges`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional

from .ir import (
    Alloca, BinOp, Br, Call, ConstInt, Function, Gep, GlobalRef, Instr,
    Jmp, Load, Module, Operand, Ptr, Ret, Store, Temp, is_struct_like,
    type_str,
)
from .parser import instr_str

TRAVERSABLE = frozenset(
    {"d_gnrl", "def_use", "raw", "p_form", "p_act", "p_fld", "p_in", "p_out"})
_EXIT = "<exit>"
_PTS_PATH_CAP = 6
_ANY = "*"
_NONE: frozenset = frozenset()


class PdgError(Exception):
    pass


@dataclass
class PdgNode:
    id: int
    kind: str                   # entry|formal_in|formal_out|actual_in|
                                # actual_out|field|global_value|call_site|
                                # return|general
    fn: str
    instr: Optional[str] = None
    param_index: Optional[int] = None
    call_uid: Optional[str] = None
    global_name: Optional[str] = None
    label: str = ""             # "" on an instruction's node: see Pdg.label


@dataclass(frozen=True)
class PdgEdge:
    src: int
    dst: int
    kind: str


@dataclass(frozen=True)
class Path:
    nodes: tuple[int, ...]
    kinds: tuple[str, ...]


FieldPath = tuple[str, ...]


def _rows(table: dict[tuple, int]) -> list[tuple]:
    """A call-site table as sorted (key..., node) rows."""
    return sorted(key + (node,) for key, node in table.items())


class FunctionIndex:
    """One pass over a function's instructions, taken when its graph is
    built: program order, uid lookup, the last definition of each temp and
    the ascending positions of the instructions that use it."""

    def __init__(self, fn: Function):
        self.instrs: tuple[Instr, ...] = tuple(fn.instructions())
        self.position: dict[str, int] = {}
        self.by_uid: dict[str, Instr] = {}
        self.defs: dict[str, Instr] = {}
        self.use_positions: dict[str, list[int]] = {}
        for i, ins in enumerate(self.instrs):
            self.position[ins.uid] = i
            self.by_uid[ins.uid] = ins
            d = ins.defined_temp()
            if d is not None:
                self.defs[d] = ins
            for op in ins.operands():
                if isinstance(op, Temp):
                    at = self.use_positions.setdefault(op.name, [])
                    if not at or at[-1] != i:
                        at.append(i)


class Pdg:
    """Built graph plus the lookup tables the summary derivation needs.

    Call-site tables are keyed by call uid: ActualOut nodes by (arg index,
    field path), field-refined ActualIn nodes likewise, and global-out
    nodes by (global name, field path).
    """

    def __init__(self, module: Module, root: Function):
        self.module = module
        self.function_name = root.name
        self.root = root
        self.nodes: dict[int, PdgNode] = {}
        self.instr_index: dict[str, int] = {}
        self.included: dict[str, Function] = {}
        self.summarized_calls: dict[str, str] = {}   # call uid -> callee name
        self._keys: dict[tuple[int, int, str], None] = {}   # every edge but d_alias
        self._edges: Optional[list[PdgEdge]] = None
        self._pts: dict[tuple[str, str], set] = {}     # solved points-to sets
        self._entry: dict[str, int] = {}
        self._formal_in: dict[tuple[str, int], int] = {}
        self._formal_out: dict[tuple[str, int], int] = {}
        self._returns: dict[str, list[int]] = {}
        self._gv: dict[tuple[str, str], int] = {}
        self._ai: dict[tuple[str, int], int] = {}
        self._ao: dict[str, dict[tuple[int, FieldPath], int]] = {}
        self._ai_field: dict[str, dict[tuple[int, FieldPath], int]] = {}
        self._gout: dict[str, dict[tuple[str, FieldPath], int]] = {}
        self._attached: dict[str, list[int]] = {}    # instr uid -> node ids
        self._succ: dict[int, list[tuple[int, str]]] = {}
        self._index: dict[str, FunctionIndex] = {}
        self._reach: dict[tuple[int, bool], frozenset[int]] = {}

    # -- construction helpers ------------------------------------------------

    def _new_node(self, **kw) -> PdgNode:
        node = PdgNode(id=len(self.nodes), **kw)
        self.nodes[node.id] = node
        if node.instr is not None:
            self._attached.setdefault(node.instr, []).append(node.id)
        return node

    def _add_edge(self, src: int, dst: int, kind: str) -> None:
        key = (src, dst, kind)
        if src != dst and key not in self._keys:
            self._keys[key] = None
            self._succ.setdefault(src, []).append((dst, kind))

    @property
    def edges(self) -> list[PdgEdge]:
        """Every edge, d_alias included, sorted; made when first read."""
        if self._edges is None:
            keys = sorted([*self._keys, *_alias_keys(self)])
            self._edges = [PdgEdge(*key) for key in keys]
        return self._edges

    # -- lookups --------------------------------------------------------------

    def index(self, fn: str) -> FunctionIndex:
        """The instruction index of an included function."""
        return self._index[fn]

    def formal_in(self, i: int) -> int:
        return self._formal_in[(self.function_name, i)]

    def return_nodes(self) -> list[int]:
        return list(self._returns.get(self.function_name, []))

    def global_value_node(self, name: str, fn: Optional[str] = None) -> Optional[int]:
        return self._gv.get((fn or self.function_name, name))

    def actual_in(self, call_uid: str, arg: int) -> Optional[int]:
        return self._ai.get((call_uid, arg))

    def actual_in_fields(self, call_uid: str) -> list[tuple[int, FieldPath, int]]:
        """(arg index, field path, node) of the call's field-refined
        ActualIn nodes, sorted."""
        return _rows(self._ai_field.get(call_uid, {}))

    def actual_out_nodes(self, call_uid: str) -> list[tuple[int, FieldPath, int]]:
        """(arg index, field path, node) of the call's ActualOut nodes, sorted."""
        return _rows(self._ao.get(call_uid, {}))

    def global_out_nodes(self, call_uid: str) -> list[tuple[str, FieldPath, int]]:
        """(global name, field path, node) of the globals a summarized
        callee writes at this call, sorted."""
        return _rows(self._gout.get(call_uid, {}))

    def is_summary_output(self, node_id: int) -> bool:
        """True for nodes that stand for a summarized callee's outputs."""
        n = self.nodes[node_id]
        if n.kind == "actual_out":
            return True
        if n.kind == "global_value" and n.call_uid is not None:
            return True
        return n.kind == "call_site" and n.instr in self.summarized_calls

    def is_summary_input(self, node_id: int) -> bool:
        """True when the node feeds a summarized callee (its outgoing d_gnrl
        edges were induced by a callee summary)."""
        return any(kind == "d_gnrl" and self.is_summary_output(dst)
                   for dst, kind in self._succ.get(node_id, ()))

    def node_of_instr(self, uid: str) -> Optional[int]:
        return self.instr_index.get(uid)

    def successors(self, node_id: int) -> list[tuple[int, str]]:
        return self._succ.get(node_id, [])

    def label(self, node_id: int) -> str:
        """The node's text: an instruction's own node shows the
        instruction, printed only when asked for."""
        n = self.nodes[node_id]
        if n.instr is not None and self.instr_index.get(n.instr) == node_id:
            return instr_str(self._index[n.fn].by_uid[n.instr])
        return n.label

    # -- traversal -------------------------------------------------------------

    def _allowed(self, include_control_deps: bool) -> frozenset[str]:
        if include_control_deps:
            return TRAVERSABLE | {"cdep"}
        return TRAVERSABLE

    def reachable_from(self, src: int,
                       include_control_deps: bool = False) -> frozenset[int]:
        """Brute-force-equivalent forward closure over traversable edges,
        computed once per (node, include_control_deps) of the built graph."""
        key = (src, bool(include_control_deps))
        hit = self._reach.get(key)
        if hit is not None:
            return hit
        allowed = self._allowed(include_control_deps)
        seen = {src}
        stack = [src]
        while stack:
            n = stack.pop()
            for dst, kind in self._succ.get(n, ()):
                if kind in allowed and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        seen.discard(src)
        hit = self._reach[key] = frozenset(seen)
        return hit

    def witness_path(self, src: int, dst: int,
                     include_control_deps: bool = False) -> Optional[Path]:
        """One shortest path from src to dst over traversable edges
        (breadth-first, successors in insertion order); None when dst is
        src or is not reachable from it."""
        allowed = self._allowed(include_control_deps)
        parent: dict[int, tuple[int, str]] = {src: (src, "")}
        queue = deque([src])
        while queue and dst not in parent:
            n = queue.popleft()
            for nxt, kind in self._succ.get(n, ()):
                if kind in allowed and nxt not in parent:
                    parent[nxt] = (n, kind)
                    queue.append(nxt)
        if dst == src or dst not in parent:
            return None
        nodes, kinds = [dst], []
        while nodes[-1] != src:
            prev, kind = parent[nodes[-1]]
            nodes.append(prev)
            kinds.append(kind)
        return Path(tuple(reversed(nodes)), tuple(reversed(kinds)))

    def find_next_use(self, instr_uid: str) -> Optional[str]:
        """Nearest later instruction (textual program order) using the
        temporary defined at instr_uid; None if the value is dead."""
        idx = self._index.get(instr_uid.split(":")[0])
        ins = idx.by_uid.get(instr_uid) if idx is not None else None
        target = ins.defined_temp() if ins is not None else None
        if target is None:
            return None
        uses = idx.use_positions.get(target, [])
        k = bisect_right(uses, idx.position[instr_uid])
        return idx.instrs[uses[k]].uid if k < len(uses) else None

    # -- export ----------------------------------------------------------------

    def export_dot(self) -> str:
        lines = [f'digraph "{self.function_name}" {{',
                 '  node [shape=box, fontname="monospace"];']
        for nid in sorted(self.nodes):
            label = self.label(nid).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{nid} [label="{nid}: {label}"];')
        for e in self.edges:
            lines.append(f'  n{e.src} -> n{e.dst} [label="{e.kind}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def export_json(self) -> dict:
        return {
            "function": self.function_name,
            "nodes": [
                {"id": nid, "kind": self.nodes[nid].kind,
                 "instr": self.nodes[nid].instr,
                 "label": self.label(nid)}
                for nid in sorted(self.nodes)
            ],
            "edges": [
                {"src": e.src, "dst": e.dst, "kind": e.kind}
                for e in self.edges
            ],
        }


# ---------------------------------------------------------------------------
# Flow-insensitive, field-sensitive points-to
# ---------------------------------------------------------------------------

def _pts_extend(path: tuple, indices: tuple[Operand, ...]) -> tuple:
    if path and path[-1] == _ANY:
        return path
    out = list(path)
    first = indices[0]
    if not (isinstance(first, ConstInt) and first.value == 0):
        out.append(None)            # shifted to a sibling object
    for idx in indices[1:]:
        out.append(idx.value if isinstance(idx, ConstInt) else None)
    if len(out) > _PTS_PATH_CAP:
        return (_ANY,)
    return tuple(out)


def _pts_compat(p1: tuple, p2: tuple) -> bool:
    if (p1 and p1[-1] == _ANY) or (p2 and p2[-1] == _ANY):
        p1 = p1[:-1] if p1 and p1[-1] == _ANY else p1
        p2 = p2[:-1] if p2 and p2[-1] == _ANY else p2
    for a, b in zip(p1, p2):
        if a is None or b is None or a == _ANY or b == _ANY:
            continue
        if a != b:
            return False
    return True


class _PointsTo:
    """pts: temp/param -> {(root, path)}; contents: root -> stored pointers.

    Roots: ("a", alloca uid), ("g", global), ("p", root param index).
    """

    def __init__(self, pdg: Pdg):
        self.pdg = pdg
        self.pts: dict[tuple[str, str], set] = {}
        self.contents: dict[tuple, set] = {}
        self.read: set = set()          # pts keys read in the current pass
        self.read_roots: set = set()    # contents keys read in the current pass

    def of_operand(self, fn: str, op: Operand) -> set:
        if isinstance(op, GlobalRef):
            return {(("g", op.name), ())}
        if isinstance(op, Temp):
            key = (fn, op.name)
            self.read.add(key)
            return self.pts.get(key, _NONE)
        return _NONE

    def solve(self) -> None:
        """Passes over every included instruction in program order, until
        one in which no set grew after a transfer of that pass, or the
        growing transfer itself, had read it: every transfer then saw the
        final value of each set it reads, so a further pass adds nothing."""
        for i, (pname, pty) in enumerate(self.pdg.root.params):
            if isinstance(pty, Ptr):
                self.pts.setdefault((self.pdg.root.name, pname), set()).add((("p", i), ()))
        instrs = [(fn.name, ins) for fn in self.pdg.included.values()
                  for ins in self.pdg.index(fn.name).instrs]
        self.again = True
        while self.again:
            self.again = False
            self.read.clear()
            self.read_roots.clear()
            for fn, ins in instrs:
                self._transfer(fn, ins)

    def _grow(self, table: dict, read: set, key, extra) -> None:
        if extra:
            dst = table.setdefault(key, set())
            before = len(dst)
            dst |= extra
            if len(dst) != before and key in read:
                self.again = True

    def _transfer(self, fn: str, ins: Instr) -> None:
        if isinstance(ins, Alloca):
            self._grow(self.pts, self.read, (fn, ins.dest), {(("a", ins.uid), ())})
        elif isinstance(ins, Gep):
            self._grow(self.pts, self.read, (fn, ins.dest),
                       {(r, _pts_extend(p, ins.indices))
                        for r, p in self.of_operand(fn, ins.base)})
        elif isinstance(ins, Load):
            src = set()
            for r, _ in self.of_operand(fn, ins.addr):
                self.read_roots.add(r)
                src |= self.contents.get(r, _NONE)
            self._grow(self.pts, self.read, (fn, ins.dest), src)
        elif isinstance(ins, Store):
            val = self.of_operand(fn, ins.value)
            if val:
                for r, _ in self.of_operand(fn, ins.addr):
                    self._grow(self.contents, self.read_roots, r, val)
        elif isinstance(ins, BinOp):
            self._grow(self.pts, self.read, (fn, ins.dest),
                       {(r, (_ANY,)) for op in (ins.lhs, ins.rhs)
                        for r, _ in self.of_operand(fn, op)})
        elif isinstance(ins, Call):
            callee = self.pdg.module.functions.get(ins.callee)
            ret = set()
            if ins.uid not in self.pdg.summarized_calls and callee is not None:
                for (pname, _), a in zip(callee.params, ins.args):
                    self._grow(self.pts, self.read, (callee.name, pname),
                               self.of_operand(fn, a))
                if ins.dest is not None:
                    for cins in self.pdg.index(callee.name).instrs:
                        if isinstance(cins, Ret) and cins.value is not None:
                            ret |= self.of_operand(callee.name, cins.value)
            elif ins.dest is not None:
                # a summarized callee may hand back any pointer argument
                for a in ins.args:
                    ret |= self.of_operand(fn, a)
            self._grow(self.pts, self.read, (fn, ins.dest), ret)


# ---------------------------------------------------------------------------
# Control dependence
# ---------------------------------------------------------------------------

def _block_successors(fn: Function) -> dict[str, list[str]]:
    succ = {}
    for b in fn.blocks:
        term = b.instrs[-1]
        if isinstance(term, Br):
            succ[b.label] = [term.then_label, term.else_label]
        elif isinstance(term, Jmp):
            succ[b.label] = [term.label]
        else:
            succ[b.label] = [_EXIT]
    return succ


def immediate_postdominators(fn: Function) -> dict[str, str]:
    """Block label -> its immediate postdominator (`_EXIT` for a block that
    returns), by Cooper, Harvey and Kennedy's iteration on the reverse CFG
    rooted at the virtual exit.  A block that cannot reach the exit has no
    entry."""
    succ = _block_successors(fn)
    preds: dict[str, list[str]] = {}
    for b, ss in succ.items():
        for s in ss:
            preds.setdefault(s, []).append(b)
    number: dict[str, int] = {}       # postorder of the reverse CFG
    stack = [(_EXIT, iter(preds.get(_EXIT, ())))]
    seen = {_EXIT}
    while stack:
        for p in stack[-1][1]:
            if p not in seen:
                seen.add(p)
                stack.append((p, iter(preds.get(p, ()))))
                break
        else:
            number[stack.pop()[0]] = len(number)
    order = list(number)[-2::-1]      # reverse postorder without the exit
    ipdom = {_EXIT: _EXIT}
    changed = True
    while changed:
        changed = False
        for b in order:
            new = None
            for s in succ[b]:
                if s not in ipdom:
                    continue
                while new is not None and s != new:
                    while number[s] < number[new]:
                        s = ipdom[s]
                    while number[new] < number[s]:
                        new = ipdom[new]
                new = s
            if ipdom.get(b) != new:
                ipdom[b] = new
                changed = True
    del ipdom[_EXIT]
    return ipdom


def control_dependencies(fn: Function) -> dict[str, set[str]]:
    """Map block label -> set of controlling Br instruction uids: each
    branch controls the blocks on the postdominator-tree walk from its
    successors up to, not including, its own immediate postdominator."""
    ipdom = immediate_postdominators(fn)
    deps: dict[str, set[str]] = {b.label: set() for b in fn.blocks}
    for b in fn.blocks:
        term = b.instrs[-1]
        if not isinstance(term, Br):
            continue
        stop = ipdom.get(b.label)
        for runner in (term.then_label, term.else_label):
            while runner not in (stop, _EXIT, None):
                deps[runner].add(term.uid)
                runner = ipdom.get(runner)
    return deps


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

def included_functions(module: Module, root: Function,
                       summaries: Mapping[str, object]) -> list[Function]:
    """Root plus the transitive defined callees without summaries, in the
    order the builder descends into them; a recursive call cycle or an
    unresolvable callee is a `PdgError`."""
    order: list[Function] = []
    state: dict[str, int] = {}

    def visit(fn: Function, trail: list[str]) -> None:
        state[fn.name] = 1
        order.append(fn)
        for ins in fn.instructions():
            if not isinstance(ins, Call) or ins.callee in summaries:
                continue
            callee = module.functions.get(ins.callee)
            if callee is None:
                raise PdgError(
                    f"unresolved callee @{ins.callee} with no summary"
                    f" (called from @{fn.name} at {ins.uid})")
            if state.get(callee.name) == 1:
                raise PdgError(
                    "recursive call cycle: "
                    + " -> ".join(trail + [fn.name, callee.name]))
            if callee.name not in state:
                visit(callee, trail + [fn.name])
        state[fn.name] = 2

    visit(root, [])
    return order


def build_pdg(module: Module, fn: Function | str,
              callee_summaries: Optional[Mapping[str, object]] = None) -> Pdg:
    """Construct the dependency graph of `fn`, composing summarized callees
    at their call sites and descending into defined unsummarized ones."""
    if isinstance(fn, str):
        fn = module.functions[fn]
    summaries = dict(callee_summaries or {})
    summaries.pop(fn.name, None)     # never summarize the function itself
    g = Pdg(module, fn)

    for f in included_functions(module, fn, summaries):
        g.included[f.name] = f
        g._index[f.name] = FunctionIndex(f)
    for f in g.included.values():
        _build_function_nodes(g, f)
    for f in g.included.values():
        _build_call_sites(g, f, summaries)
    for f in g.included.values():
        _build_operand_edges(g, f)

    pts = _PointsTo(g)
    pts.solve()
    g._pts = pts.pts
    _build_memory_edges(g, pts)
    _build_control_edges(g)
    return g


def _build_function_nodes(g: Pdg, fn: Function) -> None:
    entry = g._new_node(kind="entry", fn=fn.name,
                        label=f"<<ENTRY>> {fn.name}")
    g._entry[fn.name] = entry.id
    for i, (pname, pty) in enumerate(fn.params):
        fi = g._new_node(kind="formal_in", fn=fn.name, param_index=i,
                         label=f"FORMAL_IN: {i} {type_str(pty)}")
        fo = g._new_node(kind="formal_out", fn=fn.name, param_index=i,
                         label=f"FORMAL_OUT: {i} {type_str(pty)}")
        g._formal_in[(fn.name, i)] = fi.id
        g._formal_out[(fn.name, i)] = fo.id
        g._add_edge(entry.id, fi.id, "p_form")
        g._add_edge(fi.id, fo.id, "p_form")
        if is_struct_like(pty):
            sname = (pty.pointee if isinstance(pty, Ptr) else pty).name
            decl = g.module.structs.get(sname)
            for fidx, (_, fty) in enumerate(decl.fields if decl else ()):
                fld = g._new_node(
                    kind="field", fn=fn.name, param_index=i,
                    label=f"{type_str(fty)} arg_pos: {i} -f_id: {fidx}")
                g._add_edge(fi.id, fld.id, "p_fld")

    instrs = g.index(fn.name).instrs
    for ins in instrs:
        if isinstance(ins, Call):
            node = g._new_node(kind="call_site", fn=fn.name, instr=ins.uid,
                               call_uid=ins.uid)
        elif isinstance(ins, Ret):
            node = g._new_node(kind="return", fn=fn.name, instr=ins.uid)
            g._returns.setdefault(fn.name, []).append(node.id)
        else:
            node = g._new_node(kind="general", fn=fn.name, instr=ins.uid)
        g.instr_index[ins.uid] = node.id

    # one static value node per referenced global
    for ins in instrs:
        for op in ins.operands():
            if isinstance(op, GlobalRef) and (fn.name, op.name) not in g._gv:
                _ensure_global_node(g, fn.name, op.name)


def _ensure_global_node(g: Pdg, fn_name: str, gname: str) -> int:
    key = (fn_name, gname)
    if key not in g._gv:
        node = g._new_node(kind="global_value", fn=fn_name, global_name=gname,
                           label=f"GLOBAL_VALUE:@{gname}")
        g._gv[key] = node.id
    return g._gv[key]


def _build_call_sites(g: Pdg, fn: Function, summaries: Mapping[str, object]) -> None:
    for ins in g.index(fn.name).instrs:
        if not isinstance(ins, Call):
            continue
        callee = g.module.functions.get(ins.callee)
        summary = summaries.get(ins.callee)
        for j in range(len(ins.args)):
            # binding to the call site is recorded on the node; a call->arg
            # edge would conduct return-flow back into sibling arguments
            ai = g._new_node(
                kind="actual_in", fn=fn.name, instr=ins.uid, call_uid=ins.uid,
                label=f"ACTUAL_IN: {j} @{ins.callee}")
            g._ai[(ins.uid, j)] = ai.id

        if summary is not None:
            g.summarized_calls[ins.uid] = ins.callee
            _apply_summary_edges(g, fn, ins, summary)
        elif callee is not None:
            _link_inlined_call(g, fn, ins, callee)


def _summary_out_node(g: Pdg, fn: Function, ins: Call, slot) -> int:
    cs = g.instr_index[ins.uid]
    if slot.kind == "ret":
        return cs
    if slot.kind == "param":
        aos = g._ao.setdefault(ins.uid, {})
        key = (slot.index, slot.field_path)
        if key not in aos:
            node = g._new_node(
                kind="actual_out", fn=fn.name, instr=ins.uid, call_uid=ins.uid,
                label=f"ACTUAL_OUT: {slot.index} @{ins.callee}"
                      + ("." + ".".join(slot.field_path) if slot.field_path else ""))
            aos[key] = node.id
            ai = g._ai.get((ins.uid, slot.index))
            if ai is not None:
                g._add_edge(ai, node.id, "p_act")
        return aos[key]
    gouts = g._gout.setdefault(ins.uid, {})
    key = (slot.name, slot.field_path)
    if key not in gouts:
        node = g._new_node(
            kind="global_value", fn=fn.name, instr=ins.uid, call_uid=ins.uid,
            global_name=slot.name,
            label=f"GLOBAL_VALUE:@{slot.name}"
                  + ("." + ".".join(slot.field_path) if slot.field_path else "")
                  + f" (out of @{ins.callee})")
        gouts[key] = node.id
    return gouts[key]


def _summary_in_node(g: Pdg, fn: Function, ins: Call, slot) -> Optional[int]:
    if slot.kind == "param":
        if slot.index >= len(ins.args):
            return None
        ai = g._ai[(ins.uid, slot.index)]
        if not slot.field_path:
            return ai
        fields = g._ai_field.setdefault(ins.uid, {})
        key = (slot.index, slot.field_path)
        if key not in fields:
            node = g._new_node(
                kind="field", fn=fn.name, instr=ins.uid, call_uid=ins.uid,
                label=f"{type_str(slot.ty) if slot.ty else '?'} arg_pos:"
                      f" {slot.index} -f_id: {'.'.join(slot.field_path)}")
            fields[key] = node.id
            g._add_edge(ai, node.id, "p_fld")
        return fields[key]
    if slot.kind == "global":
        return _ensure_global_node(g, fn.name, slot.name)
    return None


def _apply_summary_edges(g: Pdg, fn: Function, ins: Call, summary) -> None:
    for out_slot, in_slots in summary.entries:
        dst = _summary_out_node(g, fn, ins, out_slot)
        for in_slot in in_slots:
            src = _summary_in_node(g, fn, ins, in_slot)
            if src is not None:
                g._add_edge(src, dst, "d_gnrl")


def _link_inlined_call(g: Pdg, fn: Function, ins: Call, callee: Function) -> None:
    cs = g.instr_index[ins.uid]
    g._add_edge(cs, g._entry[callee.name], "call")
    for j in range(min(len(ins.args), len(callee.params))):
        ai = g._ai[(ins.uid, j)]
        g._add_edge(ai, g._formal_in[(callee.name, j)], "p_in")
        if isinstance(callee.params[j][1], Ptr):
            aos = g._ao.setdefault(ins.uid, {})
            if (j, ()) not in aos:
                node = g._new_node(
                    kind="actual_out", fn=fn.name, instr=ins.uid,
                    call_uid=ins.uid, label=f"ACTUAL_OUT: {j} @{ins.callee}")
                aos[(j, ())] = node.id
            ao = aos[(j, ())]
            g._add_edge(g._formal_out[(callee.name, j)], ao, "p_out")
            g._add_edge(ai, ao, "p_act")
    for ret_node in g._returns.get(callee.name, ()):
        g._add_edge(ret_node, cs, "d_gnrl")


def _def_sites(g: Pdg, fn: Function) -> dict[str, int]:
    sites: dict[str, int] = {}
    for i, (pname, _) in enumerate(fn.params):
        sites[pname] = g._formal_in[(fn.name, i)]
    for d, ins in g.index(fn.name).defs.items():
        sites[d] = g.instr_index[ins.uid]
    return sites


def _build_operand_edges(g: Pdg, fn: Function) -> None:
    """def-use for temporaries, d_gnrl for parameter and global operands.
    Call arguments attach to their ActualIn node, everything else to the
    instruction's own node."""
    defs = _def_sites(g, fn)
    params = set(fn.param_names())
    for ins in g.index(fn.name).instrs:
        if isinstance(ins, Call):
            targets = [(op, g._ai[(ins.uid, j)]) for j, op in enumerate(ins.args)]
        else:
            targets = [(op, g.instr_index[ins.uid]) for op in ins.operands()]
        for op, dst in targets:
            if isinstance(op, Temp):
                src = defs.get(op.name)
                if src is None:
                    continue
                kind = "d_gnrl" if op.name in params else "def_use"
                g._add_edge(src, dst, kind)
            elif isinstance(op, GlobalRef):
                src = _ensure_global_node(g, fn.name, op.name)
                g._add_edge(src, dst, "d_gnrl")


def _matcher(entries: list[tuple[int, set]]):
    """Ascending indices of the entries whose regions may overlap given ones
    (a shared root, paths `_pts_compat` accepts), tested once per exact
    (root, path) class of the entries and kept per region set."""
    classes: dict[tuple, dict[tuple, list[int]]] = {}
    for k, (_, regions) in enumerate(entries):
        for root, path in regions:
            classes.setdefault(root, {}).setdefault(path, []).append(k)
    memo: dict[frozenset, list[int]] = {}

    def match(regions: set) -> list[int]:
        key = frozenset(regions)
        hit = memo.get(key)
        if hit is None:
            found: set[int] = set()
            for root, path in regions:
                for other, ks in classes.get(root, {}).items():
                    if path == other or _pts_compat(path, other):
                        found.update(ks)
            hit = memo[key] = sorted(found)
        return hit
    return match


def _build_memory_edges(g: Pdg, pts: _PointsTo) -> None:
    """raw edges from each memory writer to each reader whose regions may
    overlap, in reader order."""
    writers: list[tuple[int, set]] = []
    readers: list[tuple[int, set]] = []
    for f in g.included.values():
        for ins in g.index(f.name).instrs:
            if isinstance(ins, Store):
                regions = pts.of_operand(f.name, ins.addr)
                if regions:
                    writers.append((g.instr_index[ins.uid], regions))
            elif isinstance(ins, Load):
                regions = pts.of_operand(f.name, ins.addr)
                if regions:
                    readers.append((g.instr_index[ins.uid], regions))
            elif isinstance(ins, Call) and ins.uid in g.summarized_calls:
                for j, a in enumerate(ins.args):
                    regions = pts.of_operand(f.name, a)
                    if regions:
                        readers.append((g._ai[(ins.uid, j)], regions))

    for cu in sorted(g._ao):
        for j, fp, nid in g.actual_out_nodes(cu):
            fn_name = g.nodes[nid].fn
            call = g.index(fn_name).by_uid[cu]
            regions = pts.of_operand(fn_name, call.args[j])
            if regions:
                writers.append((nid, regions))
    for cu in sorted(g._gout):
        for gname, fp, nid in g.global_out_nodes(cu):
            writers.append((nid, {(("g", gname), ())}))
    # static global nodes read by a callee summary act as memory readers;
    # plain address uses (operand edges into geps/stores) do not qualify
    for nid in sorted(g._gv.values()):
        if g.is_summary_input(nid):
            readers.append((nid, {(("g", g.nodes[nid].global_name), ())}))

    match = _matcher(readers)
    for wnode, wregs in writers:
        for k in match(wregs):
            g._add_edge(wnode, readers[k][0], "raw")


def _alias_keys(g: Pdg) -> list[tuple[int, int, str]]:
    """(src, dst, "d_alias") for every two pointer definitions whose
    points-to sets may overlap, the lower node id first."""
    defs: list[tuple[int, set]] = []
    for f in g.included.values():
        for ins in g.index(f.name).instrs:
            regions = g._pts.get((f.name, ins.defined_temp()))
            if regions:
                defs.append((g.instr_index[ins.uid], regions))
    match = _matcher(defs)
    keys = []
    for i, (n1, r1) in enumerate(defs):
        later = match(r1)
        for j in later[bisect_right(later, i):]:
            n2 = defs[j][0]
            keys.append((min(n1, n2), max(n1, n2), "d_alias"))
    return keys


def _build_control_edges(g: Pdg) -> None:
    for f in g.included.values():
        deps = control_dependencies(f)
        by_block = {b.label: [ins.uid for ins in b.instrs] for b in f.blocks}
        for label, brs in deps.items():
            for br_uid in sorted(brs):
                br_node = g.instr_index[br_uid]
                for uid in by_block[label]:
                    for nid in g._attached.get(uid, ()):
                        g._add_edge(br_node, nid, "cdep")
