"""Taint-rule programs: a library function's summary entries, applied at
the function's return in place of its instruction-level tracking.

A rule program is the summary's entries, its control-dependence flag and
one string cap.  Applying an entry "out <- ins" ORs the tag of every input
region into an accumulator that starts at zero, then sets the output
region to (its old tag | accumulator).  Rules only ever add tag bits.

Regions (`slot_extent`): char*/void* slots scan to the string terminator at
application time (capped, terminator included); other pointer slots cover
size_of(pointee) bytes; field-path slots cover the field; scalar slots
live in the value-shadow of the recorded argument (or the return shadow).
Extents follow from the slot types, so a program stores none: the tracker
derives them once per module when it binds the program (`_Shared.bound`).

A rule file (schema v2) is the summary document's entries plus the cap:
{"v": 2, "function", "controlDeps", "maxLen", "entries": [{"out", "ins"}]}.
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
from .parser import parse_type_text
from .summaries import SlotRef, Summary, make_slot, summarize_library

DEFAULT_STRING_CAP = 64
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TaintRuleProgram:
    function: str
    entries: tuple[tuple[SlotRef, tuple[SlotRef, ...]], ...]
    control_deps: bool = False
    max_len: int = DEFAULT_STRING_CAP      # string scan cap, in bytes

    @property
    def steps(self) -> range:
        """One step per region an application reads or sets: each entry
        reads its ins and its out, and sets its out.  Its length is the
        program's cost per application, in shadow ops."""
        return range(sum(len(ins) + 2 for _, ins in self.entries))

    def decompiled_entries(self) -> tuple[tuple[SlotRef, tuple[SlotRef, ...]], ...]:
        """`entries`, by the name the rule-file readers in `perfbench/` call."""
        return self.entries


class RuleGenError(Exception):
    pass


class RuleParseError(Exception):
    pass


def slot_extent(slot: SlotRef, module: Module) -> Optional[int]:
    """The slot's extent in bytes, or None for a string scanned to its NUL.

    Return slots cover the value register, global slots their own storage,
    field-path slots the field; whole pointer parameters cover the pointee
    (string-scanned for char*/void*).
    """
    t = slot.ty

    def sized(ty) -> int:
        if isinstance(ty, Void):
            return 0
        try:
            return size_of(ty, module.structs)
        except Exception as e:
            raise RuleGenError(f"unresolvable slot type {slot}: {e}") from e

    if slot.kind == "ret":
        return 8 if isinstance(t, Ptr) else sized(t)
    if slot.kind == "global" or slot.field_path:
        return sized(t)
    if is_char_or_void_ptr(t):
        return None
    if isinstance(t, Ptr):
        return sized(t.pointee)
    return sized(t)


def _check_extents(prog: TaintRuleProgram, module: Module) -> None:
    """Raise RuleGenError unless every slot of `prog` has an extent."""
    for out, ins in prog.entries:
        for slot in (out, *ins):
            slot_extent(slot, module)


def taint_rule_gen(summary: Summary, module: Module,
                   default_len: int = DEFAULT_STRING_CAP) -> TaintRuleProgram:
    """The rule program of one summary, with string regions capped at
    `default_len` bytes; RuleGenError if a slot has no extent in `module`."""
    prog = TaintRuleProgram(summary.function, summary.entries,
                            summary.control_deps, default_len)
    _check_extents(prog, module)
    return prog


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
    """Raise RuleParseError unless `prog` fits the module: a library
    function, slots typed as the module types them, an extent for every
    slot, and one positive string cap.  A program for a function the module
    lacks never fires and is not checked."""
    fn = module.functions.get(prog.function)
    if fn is None:
        return
    if not fn.is_library:
        raise RuleParseError(f"@{fn.name} is not a library function")
    for out, ins in prog.entries:
        for slot in (out, *ins):
            if _module_slot(slot, fn, module) != slot:
                raise RuleParseError(f"slot {slot} does not match @{fn.name}")
    try:
        _check_extents(prog, module)
    except RuleGenError as e:
        raise RuleParseError(str(e))
    if type(prog.max_len) is not int or prog.max_len < 1:
        raise RuleParseError(f"maxLen {prog.max_len!r} is not a positive integer")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# json.dumps of a scalar, memoized by value and type: equal values of one
# type print alike, except floats (0.0 and -0.0), which are not memoized
_dumps = functools.lru_cache(maxsize=256, typed=True)(json.dumps)
_type_text = functools.lru_cache(maxsize=256)(type_str)


def _q(value) -> str:
    return json.dumps(value) if type(value) is float else _dumps(value)


def _slot_text(slot: SlotRef, pad: str) -> str:
    """`slot.to_json()` as the indented encoder writes it where the
    object's keys sit at indent `pad`."""
    root = (f'\n{pad}"index": {_q(slot.index)},' if slot.kind == "param" else
            f'\n{pad}"name": {_q(slot.name)},' if slot.kind == "global" else "")
    path = "[]" if not slot.field_path else "[\n" + ",\n".join(
        f"{pad}  {_q(f)}" for f in slot.field_path) + f"\n{pad}]"
    return (f'{{\n{pad}"kind": {_q(slot.kind)},{root}\n'
            f'{pad}"type": {_q(_type_text(slot.ty))},\n'
            f'{pad}"fieldPath": {path}\n{pad[2:]}}}')


def serialize_rules(prog: TaintRuleProgram) -> str:
    """The text `json.dumps(doc, indent=2) + "\\n"` gives for the document
    of `prog` (its entries as `Summary.to_json` writes them), written
    directly because that encoder runs in pure Python."""
    entries = []
    for out, ins in prog.entries:
        ins_text = "[]" if not ins else "[\n" + ",\n".join(
            "        " + _slot_text(s, " " * 10) for s in ins) + "\n      ]"
        entries.append(f'    {{\n      "out": {_slot_text(out, " " * 8)},\n'
                       f'      "ins": {ins_text}\n    }}')
    body = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    return (f'{{\n  "v": {_q(SCHEMA_VERSION)},\n  "function": {_q(prog.function)},\n'
            f'  "controlDeps": {_q(prog.control_deps)},\n  "maxLen": {_q(prog.max_len)},\n'
            f'  "entries": {body}\n}}\n')


_JSON_TYPES = {bool: "a boolean", int: "an integer", str: "a string",
               list: "a list", dict: "an object"}


def _field(obj, key: str, kind: type):
    """obj[key] of a rule JSON object, which must hold a JSON value of
    Python type `kind`; JSON `true` is no integer."""
    if type(obj) is not dict or key not in obj:
        raise RuleParseError(f"rule JSON has no field {key!r}")
    if type(obj[key]) is not kind:
        raise RuleParseError(f"rule JSON field {key!r} is not {_JSON_TYPES[kind]}")
    return obj[key]


def _slot(obj) -> SlotRef:
    """The slot `SlotRef.to_json` wrote as `obj`."""
    kind = _field(obj, "kind", str)
    root = ({"index": _field(obj, "index", int)} if kind == "param" else
            {"name": _field(obj, "name", str)} if kind == "global" else {})
    path = _field(obj, "fieldPath", list)
    try:
        ty = parse_type_text(_field(obj, "type", str))
    except ValueError as e:
        raise RuleParseError(str(e))
    return SlotRef(kind, ty=ty, field_path=tuple(path), **root)


def parse_rules(text: str) -> TaintRuleProgram:
    """The program of a rule file; RuleParseError unless the text is a v2
    document whose every field has its JSON type."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise RuleParseError(f"malformed rule JSON at byte offset {e.pos}: {e.msg}")
    except RecursionError:
        raise RuleParseError("rule JSON nested too deeply") from None
    if type(doc) is not dict:
        raise RuleParseError("rule JSON is not an object")
    v = doc.get("v")
    if type(v) is not int or v != SCHEMA_VERSION:
        raise RuleParseError(
            f"unsupported rule schema version {v!r}, expected {SCHEMA_VERSION}")
    entries = []
    for entry in _field(doc, "entries", list):
        entries.append((_slot(_field(entry, "out", dict)),
                        tuple(map(_slot, _field(entry, "ins", list)))))
    return TaintRuleProgram(_field(doc, "function", str), tuple(entries),
                            _field(doc, "controlDeps", bool), _field(doc, "maxLen", int))


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
        for out_slot, in_slots in prog.entries:
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
