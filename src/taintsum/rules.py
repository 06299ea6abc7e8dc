"""Compilation of function summaries into executable taint-rule programs.

Each summary entry becomes: one gather step per input slot (OR-folding the
input's shadow region into an accumulator that starts at zero), then a
read of the output's current tag followed by a set of the output region
to (old tag | accumulator).  Rules only ever add tag bits.

Regions: char*/void* slots scan to the string terminator at application
time (capped, terminator included); other pointer slots cover
size_of(pointee) bytes; field-path slots cover the field; scalar slots
live in the value-shadow of the recorded argument (or the return shadow).
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .ir import (
    Diagnostic, LayoutError, Module, Ptr, Void, is_char_or_void_ptr, size_of,
    type_str,
)
from .summaries import SlotRef, Summary, make_slot, summarize_library

DEFAULT_STRING_CAP = 64
SCHEMA_VERSION = 1

GATHER_FIXED = "gather_fixed"
GATHER_STRING = "gather_string"
READ_OUT = "read_out"
SET_FIXED = "set_fixed"
SET_STRING = "set_string"


@dataclass(frozen=True)
class RuleStep:
    op: str
    slot: SlotRef
    entry: int                      # summary entry this step belongs to
    nbytes: Optional[int] = None    # fixed/scalar extent
    max_len: Optional[int] = None   # string scan cap

    def to_json(self) -> dict:
        d: dict = {"op": self.op, "slot": self.slot.to_json(), "entry": self.entry}
        if self.nbytes is not None:
            d["bytes"] = self.nbytes
        if self.max_len is not None:
            d["maxLen"] = self.max_len
        return d

    @staticmethod
    def from_json(d: dict) -> "RuleStep":
        return RuleStep(d["op"], SlotRef.from_json(d["slot"]), d["entry"],
                        d.get("bytes"), d.get("maxLen"))


@dataclass(frozen=True)
class TaintRuleProgram:
    function: str
    steps: tuple[RuleStep, ...]
    control_deps: bool = False

    def decompiled_entries(self) -> list[tuple[SlotRef, tuple[SlotRef, ...]]]:
        """Recover the summary's slot structure from the step list."""
        outs: dict[int, SlotRef] = {}
        ins: dict[int, list[SlotRef]] = {}
        for s in self.steps:
            if s.op in (GATHER_FIXED, GATHER_STRING):
                ins.setdefault(s.entry, []).append(s.slot)
            elif s.op == READ_OUT:
                outs[s.entry] = s.slot
        return [(outs[i], tuple(ins.get(i, ()))) for i in sorted(outs)]


class RuleGenError(Exception):
    pass


class RuleParseError(Exception):
    pass


def slot_extent(slot: SlotRef, module: Module) -> tuple[str, Optional[int]]:
    """("string", None) for scanned extents, else ("fixed", nbytes).

    Return slots cover the value register, global slots their own storage,
    field-path slots the field; whole pointer parameters cover the pointee
    (string-scanned for char*/void*).
    """
    t = slot.ty

    def sized(ty) -> tuple[str, Optional[int]]:
        if isinstance(ty, Void):
            return ("fixed", 0)
        try:
            return ("fixed", size_of(ty, module.structs))
        except Exception as e:
            raise RuleGenError(f"unresolvable slot type {slot}: {e}") from e

    if slot.kind == "ret":
        return ("fixed", 8) if isinstance(t, Ptr) else sized(t)
    if slot.kind == "global" or slot.field_path:
        return sized(t)
    if is_char_or_void_ptr(t):
        return ("string", None)
    if isinstance(t, Ptr):
        return sized(t.pointee)
    return sized(t)


def taint_rule_gen(summary: Summary, module: Module,
                   default_len: int = DEFAULT_STRING_CAP) -> TaintRuleProgram:
    """Compile one summary into its rule program (deterministic: equal
    summaries yield identical programs)."""
    steps: list[RuleStep] = []
    for idx, (out, ins) in enumerate(summary.entries):
        for slot in ins:
            kind, n = slot_extent(slot, module)
            if kind == "string":
                steps.append(RuleStep(GATHER_STRING, slot, idx, max_len=default_len))
            else:
                steps.append(RuleStep(GATHER_FIXED, slot, idx, nbytes=n))
        kind, n = slot_extent(out, module)
        if kind == "string":
            steps.append(RuleStep(READ_OUT, out, idx, max_len=default_len))
            steps.append(RuleStep(SET_STRING, out, idx, max_len=default_len))
        else:
            steps.append(RuleStep(READ_OUT, out, idx, nbytes=n))
            steps.append(RuleStep(SET_FIXED, out, idx, nbytes=n))
    return TaintRuleProgram(summary.function, tuple(steps), summary.control_deps)


def compile_library(module: Module, include_control_deps: bool = True,
                    default_len: int = DEFAULT_STRING_CAP,
                    ) -> tuple[dict[str, TaintRuleProgram], list[Diagnostic]]:
    """Summarize every library function and compile each summary; returns
    the programs and the summarizer's diagnostics."""
    summaries, diags = summarize_library(module, include_control_deps)
    return ({name: taint_rule_gen(s, module, default_len)
             for name, s in summaries.items()}, diags)


def _module_slot(slot: SlotRef, fn, module: Module) -> SlotRef:
    """`make_slot` re-derived from the module for the slot's root and path."""
    if not all(isinstance(f, str) for f in slot.field_path):
        raise RuleParseError(f"field path {list(slot.field_path)!r} is not names")
    if (slot.kind == "param" and type(slot.index) is int
            and 0 <= slot.index < len(fn.params)):
        root = dict(index=slot.index, base_ty=fn.params[slot.index][1])
    elif (slot.kind == "global" and isinstance(slot.name, str)
          and slot.name in module.globals):
        root = dict(name=slot.name, base_ty=module.globals[slot.name].ty)
    elif slot.kind == "ret" and not slot.field_path:
        root = dict(base_ty=fn.ret_ty)
    else:
        raise RuleParseError(f"slot {slot} names nothing in @{fn.name}")
    try:
        return make_slot(module, slot.kind, path=slot.field_path, **root)
    except (KeyError, LayoutError) as e:
        raise RuleParseError(f"slot {slot}: field path does not resolve: {e}")


def check_rules(prog: TaintRuleProgram, module: Module) -> None:
    """Raise RuleParseError unless `prog` is exactly what `taint_rule_gen`
    compiles from its own entries: a library function, slots typed as the
    module types them, one positive string cap, and extents that match the
    slot types.  A program for a function the module lacks never fires and
    is not checked."""
    fn = module.functions.get(prog.function)
    if fn is None:
        return
    if not fn.is_library:
        raise RuleParseError(f"@{fn.name} is not a library function")
    for step in prog.steps:
        if type(step.entry) is not int:
            raise RuleParseError(f"step entry {step.entry!r} is not an integer")
        if _module_slot(step.slot, fn, module) != step.slot:
            raise RuleParseError(f"slot {step.slot} does not match @{fn.name}")
    cap = next((s.max_len for s in prog.steps if s.max_len is not None),
               DEFAULT_STRING_CAP)
    if type(cap) is not int or cap < 1:
        raise RuleParseError(f"maxLen {cap!r} is not a positive integer")
    summary = Summary(fn.name, tuple(prog.decompiled_entries()), prog.control_deps)
    if prog != taint_rule_gen(summary, module, cap):
        raise RuleParseError(
            f"steps of @{fn.name} differ from the rules compiled from its entries")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# json.dumps of a scalar, memoized by value and type: equal values of one
# type print alike, except floats (0.0 and -0.0), which are not memoized
_dumps = functools.lru_cache(maxsize=256, typed=True)(json.dumps)
_type_text = functools.lru_cache(maxsize=256)(type_str)


def _q(value) -> str:
    return json.dumps(value) if type(value) is float else _dumps(value)


def serialize_rules(prog: TaintRuleProgram) -> str:
    """The text `json.dumps(doc, indent=2) + "\\n"` gives for the document
    of `prog` (its steps as `RuleStep.to_json` writes them), written directly
    because that encoder runs in pure Python."""
    steps = []
    for s in prog.steps:
        slot = s.slot
        root = (f'\n        "index": {_q(slot.index)},' if slot.kind == "param" else
                f'\n        "name": {_q(slot.name)},' if slot.kind == "global" else "")
        path = "[]" if not slot.field_path else "[\n" + ",\n".join(
            "          " + _q(f) for f in slot.field_path) + "\n        ]"
        extent = ""
        if s.nbytes is not None:
            extent += f',\n      "bytes": {_q(s.nbytes)}'
        if s.max_len is not None:
            extent += f',\n      "maxLen": {_q(s.max_len)}'
        steps.append(f'    {{\n      "op": {_q(s.op)},\n      "slot": {{\n'
                     f'        "kind": {_q(slot.kind)},{root}\n'
                     f'        "type": {_q(_type_text(slot.ty))},\n'
                     f'        "fieldPath": {path}\n      }},\n'
                     f'      "entry": {_q(s.entry)}{extent}\n    }}')
    body = "[\n" + ",\n".join(steps) + "\n  ]" if steps else "[]"
    return (f'{{\n  "v": {_q(SCHEMA_VERSION)},\n  "function": {_q(prog.function)},\n'
            f'  "controlDeps": {_q(prog.control_deps)},\n  "steps": {body}\n}}\n')


def parse_rules(text: str) -> TaintRuleProgram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise RuleParseError(f"malformed rule JSON at byte offset {e.pos}: {e.msg}")
    if not isinstance(doc, dict):
        raise RuleParseError("rule JSON is not an object")
    if doc.get("v") != SCHEMA_VERSION:
        raise RuleParseError(
            f"unsupported rule schema version {doc.get('v')!r},"
            f" expected {SCHEMA_VERSION}")
    if not isinstance(doc.get("function"), str):
        raise RuleParseError("rule JSON has no function name")
    try:
        steps = tuple(RuleStep.from_json(s) for s in doc["steps"])
        return TaintRuleProgram(doc["function"], steps,
                                doc.get("controlDeps", False))
    except (KeyError, TypeError) as e:
        raise RuleParseError(f"rule JSON missing field: {e}")
    except ValueError as e:
        raise RuleParseError(str(e))


# ---------------------------------------------------------------------------
# Statistics (summary categories and step counts)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleStats:
    function: str
    p2p: int
    p2g: int
    g2p: int
    g2g: int
    steps: int


def rule_stats(programs: Iterable[TaintRuleProgram] | Mapping[str, TaintRuleProgram],
               ) -> list[RuleStats]:
    """Per-function entry counts split by input/output slot kind; return
    values count as parameter-side outputs."""
    if isinstance(programs, Mapping):
        progs = [programs[k] for k in sorted(programs)]
    else:
        progs = sorted(programs, key=lambda p: p.function)
    out = []
    for prog in progs:
        p2p = p2g = g2p = g2g = 0
        for out_slot, in_slots in prog.decompiled_entries():
            out_is_g = out_slot.kind == "global"
            in_kinds = {s.kind for s in in_slots}
            if "param" in in_kinds or "ret" in in_kinds:
                if out_is_g:
                    p2g += 1
                else:
                    p2p += 1
            if "global" in in_kinds:
                if out_is_g:
                    g2g += 1
                else:
                    g2p += 1
        out.append(RuleStats(prog.function, p2p, p2g, g2p, g2g, len(prog.steps)))
    return out


def rule_stats_csv(stats: list[RuleStats]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["function", "p2p", "p2g", "g2p", "g2g", "steps"])
    for s in stats:
        w.writerow([s.function, s.p2p, s.p2g, s.g2p, s.g2g, s.steps])
    return buf.getvalue()
