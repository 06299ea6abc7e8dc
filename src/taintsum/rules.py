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
import io
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .ir import Module, Ptr, Void, is_char_or_void_ptr, size_of
from .summaries import SlotRef, Summary

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

    def entry_count(self) -> int:
        return 1 + max((s.entry for s in self.steps), default=-1)

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


def _slot_extent(slot: SlotRef, module: Module) -> tuple[str, Optional[int]]:
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
            kind, n = _slot_extent(slot, module)
            if kind == "string":
                steps.append(RuleStep(GATHER_STRING, slot, idx, max_len=default_len))
            else:
                steps.append(RuleStep(GATHER_FIXED, slot, idx, nbytes=n))
        kind, n = _slot_extent(out, module)
        if kind == "string":
            steps.append(RuleStep(READ_OUT, out, idx, max_len=default_len))
            steps.append(RuleStep(SET_STRING, out, idx, max_len=default_len))
        else:
            steps.append(RuleStep(READ_OUT, out, idx, nbytes=n))
            steps.append(RuleStep(SET_FIXED, out, idx, nbytes=n))
    return TaintRuleProgram(summary.function, tuple(steps), summary.control_deps)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_rules(prog: TaintRuleProgram) -> str:
    doc = {
        "v": SCHEMA_VERSION,
        "function": prog.function,
        "controlDeps": prog.control_deps,
        "steps": [s.to_json() for s in prog.steps],
    }
    return json.dumps(doc, indent=2) + "\n"


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
