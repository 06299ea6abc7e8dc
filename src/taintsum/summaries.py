"""Library-function summaries: complex-type flattening, source/target node
derivation with the node-to-slot binding, and reachability-based summary
generation over the dependency graph.

A summary is the aggregated relation  output slot <- {input slots}  where a
slot names a parameter, a global, or the return value, optionally refined
by a field path into a struct.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .ir import (
    Array, Call, ConstInt, Diagnostic, Function, Gep, GlobalRef, Instr, Load,
    Module, Ptr, Store, StructDecl, StructRef, Temp, Type, VOID,
    field_path_offset, is_prim_type, is_struct_like, type_str,
)
from .parser import print_module
from .pdg import Pdg, PdgError, build_pdg, included_functions


# ---------------------------------------------------------------------------
# Type flattening
# ---------------------------------------------------------------------------

def flatten_prim_types(structs: Mapping[str, StructDecl]) -> dict[str, frozenset[Type]]:
    """Flatten each struct/union declaration to its set of primitive leaf
    types.  Arrays flatten to their element, nested declarations recurse,
    and any pointer counts as a primitive leaf."""
    result: dict[str, frozenset[Type]] = {}

    def collect(decl: StructDecl, acc: set[Type]) -> None:
        for _, fty in decl.fields:
            t = fty
            while isinstance(t, Array):
                t = t.elem
            if is_prim_type(t):
                acc.add(t)
            elif isinstance(t, StructRef) and t.name in structs:
                collect(structs[t.name], acc)

    for name, decl in structs.items():
        acc: set[Type] = set()
        collect(decl, acc)
        result[name] = frozenset(acc)
    return result


# ---------------------------------------------------------------------------
# Slots and the node binding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlotRef:
    kind: str                           # "param" | "global" | "ret"
    index: Optional[int] = None         # param order
    name: Optional[str] = None          # global name
    ty: Type = VOID
    field_path: tuple[str, ...] = ()

    def sort_key(self) -> tuple:
        return ({"param": 0, "global": 1, "ret": 2}[self.kind],
                self.index if self.index is not None else -1,
                self.name or "", self.field_path)

    def __str__(self) -> str:
        if self.kind == "param":
            base = f"param{self.index}"
        elif self.kind == "global":
            base = f"@{self.name}"
        else:
            base = "ret"
        if self.field_path:
            base += "." + ".".join(self.field_path)
        return base

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "param":
            out["index"] = self.index
        elif self.kind == "global":
            out["name"] = self.name
        out["type"] = type_str(self.ty)
        out["fieldPath"] = list(self.field_path)
        return out


@dataclass
class NodeBinding:
    sources: list[int] = field(default_factory=list)
    targets: list[int] = field(default_factory=list)
    wp: dict[int, SlotRef] = field(default_factory=dict)

    def add_source(self, node: int, slot: SlotRef) -> None:
        if node not in self.wp:
            self.wp[node] = slot
        if node not in self.sources:
            self.sources.append(node)

    def add_target(self, node: int, slot: SlotRef) -> None:
        if node not in self.wp:
            self.wp[node] = slot
        if node not in self.targets:
            self.targets.append(node)

    def merged_with(self, other: "NodeBinding") -> "NodeBinding":
        out = NodeBinding(list(self.sources), list(self.targets), dict(self.wp))
        for n in other.sources:
            out.add_source(n, other.wp[n])
        for n in other.targets:
            out.add_target(n, other.wp[n])
        return out


@dataclass(frozen=True)
class Summary:
    function: str
    entries: tuple[tuple[SlotRef, tuple[SlotRef, ...]], ...]
    control_deps: bool = False

    def to_json(self) -> dict:
        return {
            "function": self.function,
            "controlDeps": self.control_deps,
            "entries": [
                {"out": out.to_json(), "ins": [s.to_json() for s in ins]}
                for out, ins in self.entries
            ],
        }


def make_slot(module: Module, kind: str, *, index: int = None, name: str = None,
              base_ty: Type = VOID, path: tuple[str, ...] = ()) -> SlotRef:
    """The slot with the type of the field `path` names in `base_ty`."""
    ty = field_path_offset(base_ty, path, module.structs)[1] if path else base_ty
    return SlotRef(kind, index=index, name=name, ty=ty, field_path=path)


# ---------------------------------------------------------------------------
# Syntactic address chains (the "ad-hoc instruction pattern" part)
# ---------------------------------------------------------------------------

def _chain_root(fn: Function, defs: Mapping[str, Instr], module: Module,
                op) -> Optional[tuple[str, object, tuple[str, ...]]]:
    """Walk an operand back through constant gep chains to a parameter or
    global root; returns (rootkind, root, field path) or None.

    A nonzero or variable leading index defeats field recovery (the slot
    degrades to the whole parameter/global); loads break the chain."""
    path: tuple[str, ...] = ()
    whole = False
    params = fn.param_names()
    for _ in range(64):
        if isinstance(op, GlobalRef):
            return ("global", op.name, () if whole else path)
        if not isinstance(op, Temp):
            return None
        if op.name in params:
            return ("param", params.index(op.name), () if whole else path)
        d = defs.get(op.name)
        if not isinstance(d, Gep):
            return None
        seg, imprecise = _gep_field_names(module, d)
        if imprecise:
            whole = True
        path = seg + path
        op = d.base
    return None


def _gep_field_names(module: Module, gep: Gep) -> tuple[tuple[str, ...], bool]:
    first = gep.indices[0]
    imprecise = not (isinstance(first, ConstInt) and first.value == 0)
    names: list[str] = []
    t = gep.base_ty
    for idx in gep.indices[1:]:
        if isinstance(t, StructRef):
            decl = module.structs[t.name]
            fname, fty = decl.fields[idx.value]
            names.append(fname)
            t = fty
        elif isinstance(t, Array):
            # element offsets stay inside the field; the slot is the field
            t = t.elem
    return tuple(names), imprecise


# ---------------------------------------------------------------------------
# Source and target node derivation
# ---------------------------------------------------------------------------

def _candidates(module: Module, fn: Function, g: Pdg):
    """Parameter and global candidates as (root, node ids, type)."""
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


def _base_slot(module: Module, fn: Function, root: tuple,
               path: tuple[str, ...]) -> SlotRef:
    kind, ident = root
    if kind == "param":
        return make_slot(module, "param", index=ident,
                         base_ty=fn.params[ident][1], path=path)
    return make_slot(module, "global", name=ident,
                     base_ty=module.globals[ident].ty, path=path)


def _reach(g: Pdg, nodes: list[int]) -> set[int]:
    """The candidate's nodes and every node data-reachable from them."""
    reach = set(nodes)
    for n in nodes:
        reach |= g.reachable_from(n)
    return reach


class _ChainTable:
    """One program-order pass over a graph's instructions.

    `loads`, `stores` and `args` map each (root kind, root) to the field
    loads (gep node, load node, path), chained stores (store node, path)
    and summarized-call arguments (call uid, arg index, path) whose address
    chains back to it.  `stashed` holds (load node, store node) for each
    store through a pointer loaded just before it."""

    def __init__(self, module: Module, g: Pdg):
        self.loads, self.stores, self.args = {}, {}, {}
        self.stashed: list[tuple[int, int]] = []
        for f in g.included.values():
            idx = g.index(f.name)
            for ins in idx.instrs:
                node = g.node_of_instr(ins.uid)
                if isinstance(ins, Gep):
                    nxt = g.find_next_use(ins.uid)
                    use = idx.by_uid.get(nxt)
                    if isinstance(use, Load) and use.addr == Temp(ins.dest):
                        chain = _chain_root(f, idx.defs, module, use.addr)
                        self._add(self.loads, chain, node, g.node_of_instr(nxt))
                elif isinstance(ins, Store):
                    chain = _chain_root(f, idx.defs, module, ins.addr)
                    self._add(self.stores, chain, node)
                    if chain is None and isinstance(ins.addr, Temp):
                        d = idx.defs.get(ins.addr.name)
                        if isinstance(d, Load) and g.find_next_use(d.uid) == ins.uid:
                            self.stashed.append((g.node_of_instr(d.uid), node))
                elif isinstance(ins, Call) and ins.uid in g.summarized_calls:
                    for j, arg in enumerate(ins.args):
                        chain = _chain_root(f, idx.defs, module, arg)
                        self._add(self.args, chain, ins.uid, j)

    @staticmethod
    def _add(entries: dict, chain, *entry) -> None:
        if chain is not None:
            entries.setdefault(chain[:2], []).append(entry + (chain[2],))


_chain_tables: "weakref.WeakKeyDictionary[Pdg, _ChainTable]" = weakref.WeakKeyDictionary()


def _chain_table(g: Pdg) -> _ChainTable:
    """The graph's address-chain table, built once for both bindings."""
    if g not in _chain_tables:
        _chain_tables[g] = _ChainTable(g.module, g)
    return _chain_tables[g]


def source_nodes(module: Module, fn: Function, g: Pdg) -> NodeBinding:
    """Input candidates: primitive params/globals bind directly; struct-like
    ones bind through field loads and summarized call arguments."""
    binding = NodeBinding()
    table = _chain_table(g)
    for root, nodes, ty in _candidates(module, fn, g):
        slot = _base_slot(module, fn, root, ())
        if is_prim_type(ty) and not is_struct_like(ty):
            for n in nodes:
                binding.add_source(n, slot)
            continue
        reach = _reach(g, nodes)
        for gnode, lnode, path in table.loads.get(root, ()):
            if gnode in reach:
                binding.add_source(lnode, _base_slot(module, fn, root, path))
        for uid, j, path in table.args.get(root, ()):
            ai = g.actual_in(uid, j)
            if ai not in reach:
                continue
            if g.is_summary_input(ai):
                binding.add_source(ai, _base_slot(module, fn, root, path))
            for aj, fp, fnode in g.actual_in_fields(uid):
                if aj == j:
                    binding.add_source(
                        fnode, _base_slot(module, fn, root, path + fp))
        if root[0] == "global":
            for n in nodes:
                if g.is_summary_input(n):
                    binding.add_source(n, slot)
    binding.sources.sort()
    return binding


def target_nodes(module: Module, fn: Function, g: Pdg) -> NodeBinding:
    """Output candidates: every return instruction, stores that reach a
    global or pointer parameter, and summarized-call outputs."""
    binding = NodeBinding()
    for rid in g.return_nodes():
        binding.add_target(rid, make_slot(module, "ret", base_ty=fn.ret_ty))

    table = _chain_table(g)
    for root, nodes, ty in _candidates(module, fn, g):
        # only globals and pointer parameters name caller-visible storage
        if root[0] != "global" and not isinstance(ty, Ptr):
            continue
        for snode, path in table.stores.get(root, ()):
            binding.add_target(snode, _base_slot(module, fn, root, path))
        # stashed-pointer writes: load-then-store
        if table.stashed:
            reach = _reach(g, nodes)
            for lnode, snode in table.stashed:
                if lnode in reach:
                    binding.add_target(snode, _base_slot(module, fn, root, ()))
        for uid, j, path in table.args.get(root, ()):
            for aj, fp, anode in g.actual_out_nodes(uid):
                if aj == j:
                    binding.add_target(
                        anode, _base_slot(module, fn, root, path + fp))

    # globals written by summarized callees, regardless of local references
    for cu in sorted(g.summarized_calls):
        for gname, fp, nid in g.global_out_nodes(cu):
            binding.add_target(nid, _base_slot(module, fn, ("global", gname), fp))
    binding.targets.sort()
    return binding


# ---------------------------------------------------------------------------
# Summary generation
# ---------------------------------------------------------------------------

def summary_gen(binding: NodeBinding, g: Pdg,
                include_control_deps: bool = False) -> Summary:
    """Emit out <- in for every source/target pair connected in the graph
    whose slots differ, aggregated by output slot."""
    agg: dict[SlotRef, set[SlotRef]] = {}
    for ns in binding.sources:
        reach = g.reachable_from(ns, include_control_deps)
        for nt in binding.targets:
            if nt not in reach:
                continue
            s_in, s_out = binding.wp[ns], binding.wp[nt]
            if s_in == s_out:
                continue
            agg.setdefault(s_out, set()).add(s_in)
    entries = tuple(
        (out, tuple(sorted(agg[out], key=SlotRef.sort_key)))
        for out in sorted(agg, key=SlotRef.sort_key)
    )
    return Summary(g.function_name, entries, include_control_deps)


def summarize_function(module: Module, fn: Function | str,
                       callee_summaries: Mapping[str, Summary] | None = None,
                       include_control_deps: bool = False,
                       ) -> tuple[Pdg, NodeBinding, Summary]:
    if isinstance(fn, str):
        fn = module.functions[fn]
    g = build_pdg(module, fn, callee_summaries or {})
    binding = source_nodes(module, fn, g).merged_with(target_nodes(module, fn, g))
    return g, binding, summary_gen(binding, g, include_control_deps)


def summarize_library(module: Module, include_control_deps: bool = False,
                      ) -> tuple[dict[str, Summary], list[Diagnostic]]:
    """Summaries for every `library` function, in a post-order walk by name
    that summarizes the library callees a function's graph would descend
    into before the function.  One the graph builder rejects (recursion, or
    a callee neither defined nor summarized) gets the diagnostic
    `@f: <reason>` and no summary: it is tracked at instruction level."""
    todo = {f.name: f for f in module.library_functions()}
    summaries: dict[str, Summary] = {}
    diags: list[Diagnostic] = []

    def visit(fn: Function) -> None:
        try:
            for callee in included_functions(module, fn, summaries):
                if callee.name in todo:
                    visit(todo.pop(callee.name))
            _, _, summaries[fn.name] = summarize_function(
                module, fn, summaries, include_control_deps)
        except PdgError as e:
            diags.append(Diagnostic(f"@{fn.name}: {e}"))

    while todo:
        visit(todo.pop(min(todo)))
    return summaries, diags


# ---------------------------------------------------------------------------
# Body hash
# ---------------------------------------------------------------------------

def function_body_hash(fn: Function) -> str:
    m = Module(functions={fn.name: fn})
    return hashlib.sha256(print_module(m).encode()).hexdigest()[:16]
