"""Concrete IR interpreter with byte-granular shadow state.

Two tracking modes share identical concrete semantics:

  * instr:  every instruction propagates tags (explicit flows only);
  * hybrid: instruction-level propagation runs in user code, is suppressed
    inside library functions that carry rule programs, and the rules are
    applied at the outermost library call's return point against the
    recorded argument values.

`Machine.live` says whether the running code is tracked.  It drops on entry
to the outermost call with a rule program and rises at that call's return;
while it is down no tag vector is built or stored.

Tainting is observation-only: concrete execution never depends on it.
"""

from __future__ import annotations

import dis
import functools
import json
import math
import mmap
import operator
import re
import struct as _struct
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Optional, Sequence

from .ir import (
    Alloca, Array, BinOp, Br, Call, Char, ConstInt, Float, Function, Gep, GlobalRef,
    Instr, Int, Jmp, Load, Module, Operand, Ptr, Ret, Store, StructRef, Temp,
    Type, Void, align_of, align_up, field_offset, field_path_offset, size_of, type_str,
    validate_module,
)
from .rules import DEFAULT_STRING_CAP, RuleGenError, TaintRuleProgram, slot_extent
from .summaries import SlotRef

_PAGE_SHIFT = 12
PAGE = 1 << _PAGE_SHIFT
GLOBALS_BASE = 0x1000
DEFAULT_MEMORY = 16 * 1024 * 1024
DEFAULT_STEP_BUDGET = 10 ** 8
MAX_FRAMES = 512        # one Python frame each, under the recursion limit


class MachineTrap(Exception):
    def __init__(self, kind: str, instr: Optional[str] = None, detail: str = ""):
        self.kind, self.instr, self.detail = kind, instr, detail
        super().__init__(kind + (f" at {instr}" if instr else "")
                         + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# Concrete memory
# ---------------------------------------------------------------------------

class Memory(mmap.mmap):
    """A machine's memory: an anonymous private mapping, so building one
    costs the same whatever its size and the kernel zeroes a page only when
    it is first touched.  Every write marks the pages it touches in `dirty`:
    item and slice assignment and `move` do it themselves, a write through
    the buffer protocol (`struct.pack_into`) calls `mark`; `write` and
    `write_byte` mark nothing and are not used.  Two memories are equal when
    their bytes are; only the pages either one wrote are compared, since the
    rest are zero in both."""

    __slots__ = ("dirty",)
    __hash__ = None

    def __new__(cls, size: int):
        self = super().__new__(cls, -1, size, flags=mmap.MAP_PRIVATE)
        self.dirty: set[int] = set()
        return self

    def mark(self, addr: int, n: int) -> None:
        """Mark the pages of [addr, addr + n) written."""
        if n > 0:
            self.dirty.update(range(addr >> _PAGE_SHIFT,
                                    ((addr + n - 1) >> _PAGE_SHIFT) + 1))

    def move(self, dest: int, src: int, count: int) -> None:
        super().move(dest, src, count)
        self.mark(dest, count)

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)     # raises before anything is marked
        if isinstance(key, slice):      # marks the span the slice steps through
            lo, hi, step = key.indices(len(self))
            if step < 0:
                lo, hi = hi + 1, lo + 1
            self.mark(lo, hi - lo)
        else:
            self.mark(operator.index(key) % len(self), 1)

    def __eq__(self, other):
        if isinstance(other, Memory):
            return len(self) == len(other) and all(
                self[a:a + PAGE] == other[a:a + PAGE]
                for a in (p << _PAGE_SHIFT for p in self.dirty | other.dirty))
        if isinstance(other, (bytes, bytearray, memoryview, mmap.mmap)):
            return self[:] == bytes(other)      # bytes.__eq__ takes no mmap
        return NotImplemented


# ---------------------------------------------------------------------------
# Shadow store
# ---------------------------------------------------------------------------

class Tagmap:
    """Paged byte-granular shadow memory; absent pages read as tag 0 and
    pages are materialized only when a nonzero tag lands on them."""

    def __init__(self):
        self.pages: dict[int, bytearray] = {}

    def get_vector(self, addr: int, sz: int) -> bytes:
        off = addr & (PAGE - 1)
        if off + sz <= PAGE:        # one page: nearly every load and store
            page = self.pages.get(addr >> _PAGE_SHIFT)
            return bytes(sz) if page is None else bytes(page[off:off + sz])
        cuts = [0, *range(PAGE - off, sz, PAGE), sz]      # each piece takes the one-page path
        return b"".join([self.get_vector(addr + i, j - i) for i, j in zip(cuts, cuts[1:])])

    def set_vector(self, addr: int, vec: bytes) -> None:
        off, n = addr & (PAGE - 1), len(vec)
        if off + n > PAGE:          # each piece takes the one-page path
            cuts = [0, *range(PAGE - off, n, PAGE), n]
            for i, j in zip(cuts, cuts[1:]):
                self.set_vector(addr + i, vec[i:j])
            return
        page = self.pages.get(addr >> _PAGE_SHIFT)
        if page is None:
            if vec.count(0) == n:
                return
            page = self.pages[addr >> _PAGE_SHIFT] = bytearray(PAGE)
        page[off:off + n] = vec

    def get_taint(self, addr: int, sz: int) -> int:
        return _fold(self.get_vector(addr, sz))

    def set_taint(self, addr: int, tag: int, sz: int) -> None:
        self.set_vector(addr, bytes([tag]) * sz)

    def or_taint(self, addr: int, tag: int, sz: int) -> None:
        self.set_vector(addr, bytes(map(tag.__or__, self.get_vector(addr, sz))))

    def nonzero_bytes(self) -> list[tuple[int, int]]:
        out = []
        for pno, page in sorted(self.pages.items()):
            base = pno * PAGE
            out.extend(zip(compress(range(base, base + PAGE), page),
                           page.translate(None, b"\0")))
        return out

    def count_nonzero(self) -> int:
        return sum(PAGE - page.count(0) for page in self.pages.values())


# ---------------------------------------------------------------------------
# Taint configuration and the run report
# ---------------------------------------------------------------------------

def _entries(doc: dict, key: str) -> list:
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(s, dict) for s in items):
        raise ValueError(f'"{key}" must be a list of objects')
    return items


def _field(spec: dict, key: str, ok, what: str, default=None):
    value = spec.get(key, default)
    if not ok(value):
        raise ValueError(f'"{key}" must be {what}, got {json.dumps(value)}'
                         f" in {json.dumps(spec)}")
    return value


def _is_index(v) -> bool:
    return type(v) is int and v >= 0


@dataclass(frozen=True)
class SourceSpec:
    fn: str
    where: str                  # "param" | "ret"
    index: Optional[int] = None
    label: int = 1


@dataclass(frozen=True)
class SinkSpec:
    fn: str
    index: int


@dataclass(frozen=True)
class TaintConfig:
    sources: tuple[SourceSpec, ...] = ()
    sinks: tuple[SinkSpec, ...] = ()

    @staticmethod
    def from_json(doc) -> "TaintConfig":
        """Raises ValueError on a missing field or one of the wrong kind."""
        if not isinstance(doc, dict):
            raise ValueError("a taint config is a JSON object")
        sources = tuple(SourceSpec(
            _field(s, "fn", lambda v: isinstance(v, str), "a function name"),
            _field(s, "where", lambda v: v in ("param", "ret"),
                   '"param" or "ret"', "param"),
            _field(s, "index", lambda v: v is None or _is_index(v),
                   "a parameter index"),
            _field(s, "label", lambda v: type(v) is int and 1 <= v <= 255,
                   "an integer within one tag byte (1..255)", 1),
        ) for s in _entries(doc, "sources"))
        sinks = tuple(SinkSpec(
            _field(s, "fn", lambda v: isinstance(v, str), "a function name"),
            _field(s, "index", _is_index, "a parameter index"),
        ) for s in _entries(doc, "sinks"))
        return TaintConfig(sources, sinks)

    @staticmethod
    def load(path: str) -> "TaintConfig":
        with open(path, "r", encoding="utf-8") as fp:
            try:
                return TaintConfig.from_json(json.load(fp))
            except RecursionError:      # a ValueError, like any bad JSON
                raise ValueError("JSON nested too deeply") from None

    def check(self, module: Module) -> None:
        """Raises ValueError for a source or sink on a function the module
        lacks, on a parameter index at or beyond the function's arity, or on
        the return value of a void function."""
        for spec in self.sources + self.sinks:
            fn = module.functions.get(spec.fn)
            if fn is None:
                raise ValueError(f"taint config names @{spec.fn}, which the"
                                 " module does not define")
            i = spec.index or 0
            if isinstance(spec, SinkSpec) or spec.where == "param":
                if i >= len(fn.params):
                    raise ValueError(f"taint config names parameter {i} of @{fn.name},"
                                     f" which takes {len(fn.params)}")
            elif isinstance(fn.ret_ty, Void):
                raise ValueError(f"taint config names the return value of @{fn.name},"
                                 " which returns void")

    def withheld(self, module: Module, functions) -> dict[str, str]:
        """Each of `functions` whose callees, transitively, hold a function
        this config names, mapped to the first such name.  Its rule program
        cannot stand in for that source or sink, which never applies while
        the call runs untracked, so it is tracked at instruction level."""
        named, out = {s.fn for s in self.sources + self.sinks}, {}
        for name in functions:
            seen, todo = set(), [name]
            while todo:
                fn = module.functions.get(todo.pop())
                for ins in fn.instructions() if fn else ():
                    if isinstance(ins, Call) and ins.callee not in seen:
                        seen.add(ins.callee)
                        todo.append(ins.callee)
            if seen & named:
                out[name] = min(seen & named)
        return out


@dataclass(frozen=True)
class SinkHit:
    fn: str
    tag: int
    call_site: str


@dataclass(frozen=True)
class RunReport:
    exit_value: int
    shadow_ops_instr: int
    shadow_ops_rules: int
    instr_executed_total: int
    instr_executed_unins: int
    tainted_bytes_final: tuple[tuple[int, int], ...]
    sink_hits: tuple[SinkHit, ...]
    ret_tag: int

    def to_json(self) -> dict:
        return {
            "exitValue": self.exit_value,
            "shadowOpsInstr": self.shadow_ops_instr,
            "shadowOpsRules": self.shadow_ops_rules,
            "instrExecutedTotal": self.instr_executed_total,
            "instrExecutedUninstrumented": self.instr_executed_unins,
            "taintedBytesFinal": [list(x) for x in self.tainted_bytes_final],
            "sinkHits": [
                {"fn": h.fn, "tag": h.tag, "callSite": h.call_site}
                for h in self.sink_hits
            ],
            "retTag": self.ret_tag,
        }


# ---------------------------------------------------------------------------
# Value helpers
# ---------------------------------------------------------------------------

def _width(ty: Type) -> int:
    if isinstance(ty, (Int, Float)):
        return ty.bits // 8
    if isinstance(ty, (Char, Ptr, Void)):
        return 1 if isinstance(ty, Char) else 8 if isinstance(ty, Ptr) else 0
    raise MachineTrap("bad value type", detail=type_str(ty))


def _kind(ty: Type):
    """How a value of `ty` is normalized: "f", or the int (bias, mask) with
    ((v + bias) & mask) - bias wrapping `v` to `ty`."""
    if isinstance(ty, (Char, Ptr)):
        return (0, 0xFF) if isinstance(ty, Char) else _PTR
    if isinstance(ty, Float):
        return "f"
    if isinstance(ty, Int):
        return (1 << (ty.bits - 1) if ty.signed else 0), (1 << ty.bits) - 1
    raise MachineTrap("bad value type", detail=type_str(ty))


def _wrap(v, kind):
    return float(v) if kind == "f" else ((int(v) + kind[0]) & kind[1]) - kind[0]


def _norm(e: str, kind) -> str:
    """Int `e` wrapped to `kind`, by `_wrap`'s bias and mask only when out of range."""
    out = f"(z + {kind[0]} & {kind[1]:#x}) - {kind[0]}" if kind[0] else f"z & {kind[1]:#x}"
    return f"z if {-kind[0]} <= (z := {e}) <= {kind[1] - kind[0]} else {out}"


def _fold(vec: bytes) -> int:
    tag = 0
    for b in set(vec):      # distinct tags: at most 256, whatever the length
        tag |= b
    return tag


def _resize_vec(vec: bytes, n: int) -> bytes:
    if len(vec) >= n:
        return vec[:n]
    return vec + bytes([_fold(vec)]) * (n - len(vec))


@dataclass(slots=True)
class _Frame:
    fn: Function
    temps: dict[str, object]    # the parameters; a redefined one is stored back
    # the parameters' tag vectors and, around a call, its temp arguments'
    # tags, an int for a folded temp, which a parameter source may widen
    tags: dict[str, object]
    stack_mark: int
    call_ins: Optional[Call]
    code: object        # fn compiled, tracked or untracked: code(machine, frame)
    # argument values and tags at entry; set only on a rule-firing frame
    arg_record: Optional[list[tuple[object, bytes]]] = None


def _undefined(name: str) -> MachineTrap:
    return MachineTrap("undefined temporary", detail=f"%{name}")


# ---------------------------------------------------------------------------
# Compiled functions
# ---------------------------------------------------------------------------
#
# Each function a machine enters is compiled, tracked or untracked, into
# Python source: one function `F(m, f)` that runs frame `f` to its
# return.  An outer `while` runs the block whose index is `i`, and a block
# ends by setting `i`, except that a `jmp` to a block of one segment ending in
# a terminator runs a copy of that block's lines, and a block whose last
# transfer leads back to itself is an inner `while` that sets `i` only on its
# way out: a loop's iterations never pass through the dispatch, which holds
# block 0 and each block one of its blocks sets `i` to.  A compare that only
# the `br` after it reads is that branch's test.  An IR call is
# a Python call of the callee's function, so each IR frame is one Python
# frame, and temps stay locals.  What an instruction fixes is a literal there:
# constants, global addresses, widths, masks, gep offsets, block indices.  A
# temp %x is the local `v_x`, its tag `g_x`, bound only when a line reads it
# (`_Writer.tagged`): an int for a folded temp (`_Writer.fold`), which only
# binops, geps, allocas, one-byte loads and loads of slots with a fold define,
# splat where a vector leaves the locals (a store to memory, a call, a return,
# a write-back), and else the vector.  A value is wrapped only where its
# producer's range does not fit the kind read, and a wrap masks only a value
# that a range test finds outside it (`_norm`).  The parameters are read from
# the frame at entry and a redefined one is stored back, since rule sources
# read it; a tracked call passes a temp argument's tag through `f.tags`, where
# a parameter source may widen it, and back when a line it may run before
# reads it.  A read no path defined finds its local unbound, which
# `Machine._run` turns into the undefined-temporary trap.  Tracked loads,
# stores and allocas do the Tagmap's one-page work inline; a one-byte access
# cannot cross a page, and a one-byte unsigned load indexes the memory
# directly.  A promoted slot (`_Writer.promote`), a scalar alloca that only its
# own loads and stores use, keeps its value in the local `P_x` and its tag in
# `T_x`: the vector last stored, or an int.  It is always an int in a folded
# slot: every store to it stores a constant or a folded temp, and its function
# has no call and no store to memory, after which slots are read back.  A
# fold-read slot, whose loads' tags are only folded at its width or wider, also
# keeps the fold of `T_x` in `U_x` for its loads to read (a folded slot's `U_x`
# is `T_x`).  A store sets only these.  Its bytes are
# written back (`_spill`) before a call, a return and any other access that
# overlaps the frame's promoted range [R_lo, R_hi), and read back (`_fill`)
# after a call and such a store; a return then drops the locals, and a run
# that raises writes back what its innermost generated frame still held.  A
# write-back makes the slot's absent Tagmap page only for a nonzero vector,
# so an all-zero page counts as an absent one.  An access from GLOBALS_BASE up
# to the fast bound `R_f`, R_lo - 8, or from R_hi to the top of memory, is in
# bounds and clear of that range, so only one outside both is bounds-checked
# and overlap-tested.  A segment runs
# from a block's start or from just after a call up to and including the next
# call or terminator.  A run is a segment and the copy that replaces its
# `jmp` (`_Writer.run`): the step budget is checked, and the shadow ops are
# counted, once per run.
# Untracked, a loop that copies, fills or scans bytes (`_Writer.bulk`) runs
# every round but its last in one slice operation before its `while`.  Each
# value a round computes must be a constant plus values it starts with, and
# each value it reads before it sets it must move by a fixed step.  The rounds
# are a count's value or those before the first NUL (`_rounds`), and they run
# at once only when they fit the step budget, their bytes stay in memory and
# clear of the promoted range, and no store reaches a byte a later round
# loads.  They count as executed, and the loop runs the last round, or every
# round when the guard fails, so traps and budget cuts stay exact.  The
# instruction and shadow-op counts are locals, written to the machine before
# each call and return.  When the budget runs out in a run, `Machine._cut`
# runs the prefix that fits from the function's locals (`_Writer.cut`) and
# traps.  When a run raises, the line its innermost generated frame stopped on
# gives the instructions it did not run and the shadow ops it did not count.
# Every machine of a module shares its code (`_Shared`), since the parsed IR
# never changes.  The functions hold no machine.

_SOURCE = "<taintsum function>"
_MASK64 = 2 ** 64 - 1
_PTR, _I64 = (0, _MASK64), (1 << 63, _MASK64)
_PTR_TY, _ZERO = Ptr(Void()), ConstInt(0)
_BYTES = (Char(), Int(8), Int(8, False))      # the one-byte types
_STRUCTS = {c: _struct.Struct("<" + c) for c in "bBhHiIqQfd"}
_OPS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
_PROLOGUE = (("t", "f.temps"), ("tg", "f.tags"), ("mem", "m.memory"),
             ("tm", "m.tagmap"), ("pages", "m.tagmap.pages"), ("dirty", "mem.dirty"))
_ATOM = re.compile(r"[\w.]+|\(-[\w.]+\)")
_LOCAL = re.compile(r"'([vg]_[^']+)'")      # a temp's local in a NameError
_COUNT = object()      # where a run's shadow count goes


def _spill(m, c: str, a: int, value, vec=None) -> None:
    """Writes a promoted slot back: its value, of struct format `c`, at `a`
    and, when tracked, its tag vector or an int tag's splat.  A slot never
    crosses a page, and its absent page is made only for a nonzero vector."""
    _STRUCTS[c].pack_into(m.memory, a, value)
    vec = bytes((vec,)) * _STRUCTS[c].size if type(vec) is int else vec
    page = m.tagmap.pages.get(a >> _PAGE_SHIFT)
    if vec is not None and page is None and any(vec):
        page = m.tagmap.pages[a >> _PAGE_SHIFT] = bytearray(PAGE)
    if vec is not None and page is not None:
        page[a & PAGE - 1:(a & PAGE - 1) + len(vec)] = vec


def _fill(m, c: str, a: int, w: int) -> tuple:
    """A promoted slot's value, of struct format `c` at `a`, and its `w`-byte
    tag vector, read back after code that may have written them."""
    return _STRUCTS[c].unpack_from(m.memory, a)[0], m.tagmap.get_vector(a, w)


def _rounds(mem: Memory, k: Optional[int], room: int, src: Optional[int],
            dst: Optional[int], lo: int = 0, hi: int = 0) -> int:
    """How many rounds of a recognized loop run at once: `k`, or for a scan
    (`k` None) those before the first NUL from `src`.  0 unless they fit the
    `room` left in the step budget, and each round j's load at `src` + j and
    store at `dst` + j stay in memory, clear of the promoted range [lo, hi),
    with no store to a byte that a later round loads."""
    end = len(mem)
    if k is None:
        found = GLOBALS_BASE <= src < end and mem.find(b"\0", src, min(src + room + 1, end))
        k = found - src if found else 0
    if not 0 < k <= room or k > end:
        return 0
    for a in (src, dst):
        if a is not None and not (GLOBALS_BASE <= a <= end - k and (a + k <= lo or a >= hi)):
            return 0
    return 0 if src is not None and dst is not None and src < dst < src + k else k


def _stopped(e: BaseException, m) -> Optional[tuple[int, int, str]]:
    """The instruction count and the shadow ops not yet counted where the
    innermost generated frame `e` came through stopped, and the temp's local
    when it stopped reading an unbound one; None when `e` came through no
    generated frame.  Writes back the promoted slots that frame still held
    on machine `m`: an outer generated frame is at a call, which wrote its
    slots back, or at a budget cut, whose prefix took them over.  A
    function of its own, so that no traceback outlives it in a frame the
    traceback holds: that cycle would hold the machine."""
    tb, inner = e.__traceback__, None
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == _SOURCE:
            inner = tb
        tb = tb.tb_next
    if inner is None:
        return None
    frame, line = inner.tb_frame, inner.tb_lineno
    hit = isinstance(e, NameError) and _LOCAL.search(str(e))
    if hit:     # the read of an unbound local, which the interpreter may have
        # fused with the load or store before it, on the line before
        line = next((ins.positions.lineno for ins in dis.get_instructions(frame.f_code)
                     if ins.offset >= inner.tb_lasti and ins.opname.startswith("LOAD_FAST")
                     and hit[1] in (ins.argval if type(ins.argval) is tuple
                                    else (ins.argval,))), line)
    unrun, uncounted = frame.f_globals["_lines"][line]
    local = frame.f_locals
    for c, v, p, t in frame.f_globals["_slots"]:
        if p in local:
            _spill(m, c, local[v], local[p], local.get(t))
    return local["n"] - unrun, local.get("s", 0) + uncounted, hit and hit[1]


class _Uniform(dict):
    """The tag of each uniform vector of 1 to 8 bytes; any other vector is
    folded when it is looked up."""

    __missing__ = staticmethod(_fold)


@functools.cache
def _helpers() -> dict:
    """The names generated code uses besides its own constants: `_S<w>[t]`
    is the w-byte tag vector of tag t, `_Z<w>` the zero one and `_U[vec]`
    the fold of any vector."""
    splat = [tuple(bytes([t]) * w for t in range(256)) for w in range(9)]
    uniform = _Uniform((vec, t) for row in splat[1:] for t, vec in enumerate(row))
    f32 = _STRUCTS["f"]

    def idiv(a, b, uid):
        if b == 0:
            raise MachineTrap("division by zero", uid)
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    def bad(kind, uid, *operands):
        raise MachineTrap(kind, uid)
    ns = {"MachineTrap": MachineTrap, "_resize": _resize_vec, "_idiv": idiv, "_bad": bad,
          "_spill": _spill, "_fill": _fill, "_rounds": _rounds, "_U": uniform,
          "_irem": lambda a, b, uid: a - idiv(a, b, uid) * b,
          "_fdiv": lambda a, b: (a / b if b != 0.0 else
                                 math.copysign(math.inf, a) if a else math.nan),
          "_frem": lambda a, b: math.fmod(a, b) if b != 0.0 else math.nan,
          "_f32": lambda x: f32.unpack(f32.pack(x))[0]}
    for w, row in enumerate(splat):
        ns[f"_S{w}"], ns[f"_Z{w}"] = row, row[0]
    for c, s in _STRUCTS.items():
        ns["_u" + c], ns["_p" + c] = s.unpack_from, s.pack_into
    return ns


def _fmt(ty: Type) -> str:
    """The struct format character of `ty` in memory, for the 8- to 64-bit
    ints the parser admits."""
    w = _width(ty)
    if isinstance(ty, Float):
        return "f" if w == 4 else "d"
    c = "bhiq"[w.bit_length() - 1]
    return c if getattr(ty, "signed", False) else c.upper()


def _local(kind: str, temp: str) -> str:
    """The name of the local holding temp `temp`'s value ("v") or tag
    vector ("g")."""
    return f"{kind}_{temp.replace('.', '·')}"


def _lit(v) -> str:
    text = repr(v) if not isinstance(v, float) or math.isfinite(v) else f"float('{v}')"
    return f"({text})" if text.startswith("-") else text


class _Writer:
    """Writes one function as Python, tracked when `live`.  The lines of an
    instruction that ends a run hold `_COUNT` where the run's shadow count
    goes: after what it reads, before what it changes."""

    def __init__(self, shared: "_Shared", fn: Function, live: bool, mem_size: int):
        self.shared, self.fn, self.live, self.mem_size = shared, fn, live, mem_size
        functions = shared.module.functions
        # the kind of value each temp holds and the width of its tag vector,
        # None where its definitions differ; the temps read; the constants
        # the source names
        self.kinds, self.width, reads, self.ns = {}, {}, [], {}
        # what each binop or gep's tag vector is made from; the temps whose tag vectors a
        # line reads (the values stored, returned, passed); each temp's narrowest tag read
        feeds, work, self.tagged, self.last, self.narrow = {}, [], set(), {}, {}
        for name, ty in fn.params:
            self.note(name, ty)
        # (block index, instructions) of each segment; what follows a
        # terminator never runs, and a segment without one falls off its block
        self.segs: list[tuple[int, list[Instr]]] = []
        self.starts = []        # each block's first segment
        self.order = {id(ins): k for k, ins in enumerate(fn.instructions())}
        self.labels = {block.label: b for b, block in enumerate(fn.blocks)}
        self.edges = [(e, self.labels[t]) for e, block in enumerate(fn.blocks)     # branches
                      for ins in block.instrs for t in (getattr(ins, k, None) for k in (
                          "label", "then_label", "else_label")) if t in self.labels]
        # the blocks from a branch back to its target; `last`: how late a line
        # reading each temp's tag may run, after anything in such a block
        looped = {b for e, t in self.edges for b in range(t, e + 1)}
        for b, block in enumerate(fn.blocks):
            self.starts.append(len(self.segs))
            seg, dead = [], False
            self.segs.append((b, seg))
            for ins in block.instrs:
                kind = type(ins)
                reads += (op.name for op in ins.operands() if type(op) is Temp)
                if kind in (Gep, Alloca, Load, BinOp):
                    self.note(ins.dest, _PTR_TY if kind in (Gep, Alloca) else ins.ty)
                elif kind is Call and ins.callee in functions:
                    callee = functions[ins.callee]
                    if ins.dest:
                        self.note(ins.dest, callee.ret_ty)
                    # a parameter source gives a temp argument the parameter's width
                    for (_, pty), op in zip(callee.params, ins.args):
                        if type(op) is Temp:
                            self.note(op.name, pty, kind=False)
                if dead:
                    continue
                seg.append(ins)
                ops = [op.name for op in ins.operands()[:1 if kind is Store else None]
                       if type(op) is Temp]     # a store's value, not its address
                if kind in (BinOp, Gep):
                    feeds.setdefault(ins.dest, []).extend(ops)
                elif kind in (Store, Ret, Call):
                    work += ops
                w = 8 if kind is Gep else kind is BinOp and self.width[ins.dest] or 0
                for x in ops if kind in (BinOp, Gep, Store, Ret, Call) else ():
                    self.last[x] = max(self.last.get(x, -1),
                                       math.inf if b in looped else self.order[id(ins)])
                    self.narrow[x] = min(self.narrow.get(x, 8), w)
                dead = kind in (Br, Jmp, Ret)
                if kind is Call:
                    seg = []
                    self.segs.append((b, seg))
        self.starts.append(len(self.segs))
        while work:     # and the operands of a binop or gep whose vector is read
            if (x := work.pop()) not in self.tagged:
                self.tagged.add(x)
                work += feeds.get(x, ())
        params = [name for name, _ in fn.params]
        self.read_params = [name for name in params if name in reads]
        self.spill = set(params) & {ins.defined_temp() for ins in fn.instructions()}
        self.fused, self.fuse = None, {     # the compares that only the `br` after them reads
            id(c) for _, seg in self.segs for c, br in zip(seg, seg[1:]) if type(br) is Br
            and getattr(c, "op", "") == "cmp" and br.cond == Temp(c.dest)
            and reads.count(c.dest) == 1 and c.dest not in self.spill}
        self.fn_const = self.const(fn)
        self.slots = self.promote(params)
        self.folded, self.folded_slots, self.folds = self.fold(params)

    def promote(self, params: list[str]) -> dict[str, Alloca]:
        """The promoted slots by temp: each alloca that runs in the entry
        block, which no branch enters, of an int, char or pointer, whose
        temp is defined there only and used only after it, as the address
        of loads and stores of that type."""
        fn, order = self.fn, self.order
        defs = [ins.defined_temp() for ins in fn.instructions()]
        if any(t == 0 for _, t in self.edges):
            return {}
        slots = {ins.dest: ins for b, seg in self.segs if b == 0 for ins in seg
                 if type(ins) is Alloca and type(ins.ty) in (Int, Char, Ptr)
                 and ins.dest not in params and defs.count(ins.dest) == 1}
        for ins in fn.instructions():
            for op in ins.operands():
                a = slots.get(op.name) if type(op) is Temp else None
                if a is not None and not (type(ins) in (Load, Store) and ins.ty == a.ty
                                          and getattr(ins, "value", None) != op
                                          and order[id(ins)] > order[id(a)]):
                    del slots[op.name]
        return slots

    def fold(self, params: list[str]) -> tuple[set[str], set[str], dict[str, str]]:
        """The folded temps and slots, and each slot's local holding its fold
        (see the header comment): from every promoted slot down to those whose
        stores all store folded temps, or whose loads all define folded temps."""
        instrs = list(self.fn.instructions())
        at = {id(i): type(i.addr) is Temp and i.addr.name in self.slots and i.addr.name
              for i in instrs if type(i) in (Load, Store)}     # the slot each accesses
        flat = set() if any(type(i) is Call or type(i) is Store and not at[id(i)]
                            for i in instrs) else set(self.slots)
        reads = {x for x in self.slots if all(self.narrow.get(i.dest, 8) >= _width(self.slots[x].ty)
                                              for i in instrs if type(i) is Load and at[id(i)] == x)}
        while True:
            folded = {i.dest for i in instrs if type(i) in (Alloca, Load, Gep, BinOp)} - set(
                params) - {i.dest for i in instrs if type(i) is Call or type(i) is Load and (
                    at[id(i)] not in flat | reads if at[id(i)] else i.ty not in _BYTES)}
            kept = ({x for x in flat if all(type(i.value) is not Temp or i.value.name in folded
                                            for i in instrs if type(i) is Store and at[id(i)] == x)},
                    {x for x in reads if all(i.dest in folded for i in instrs
                                             if type(i) is Load and at[id(i)] == x)})
            if kept == (flat, reads):
                return folded, flat, {x: _local("T" if x in flat else "U", x) for x in flat | reads}
            flat, reads = kept

    def held(self, ins: Instr) -> list[str]:
        """The promoted slots allocated before `ins` runs."""
        return [x for x, a in self.slots.items() if self.order[id(a)] < self.order[id(ins)]]

    def write_back(self, held: list[str]) -> str:
        """A statement writing the `held` slots back to memory and, when
        tracked, to the Tagmap."""
        return "; ".join(f"_spill(m, {_fmt(self.slots[x].ty)!r}, {_local('v', x)}, "
                         + ", ".join(_local(k, x) for k in "PT"[:1 + self.live]) + ")"
                         for x in held)

    def read_back(self, held: list[str]) -> str:
        """A statement reading the `held` slots back into their locals."""
        return "; ".join(", ".join(_local(k, x) for k in "PT"[:1 + self.live])
                         + f" = _fill(m, {_fmt(self.slots[x].ty)!r}, {_local('v', x)},"
                         f" {_width(self.slots[x].ty)})" + "[0]" * (not self.live)
                         + f"; {self.folds.get(x)} = _U[{_local('T', x)}]" * (
                             self.live and x in self.folds) for x in held)

    def set_tag(self, x: str, op: Operand, w: int) -> str:
        """A statement setting slot `x`'s tag, and its fold, to operand `op`'s."""
        t, u = _local("T", x), self.folds.get(x)
        if u is None or type(op) is Temp and op.name not in self.folded:      # a vector
            return f"{t} = {self.vec(op, w)}" + f"; {u} = _U[{t}]" * bool(u)
        return " = ".join(dict.fromkeys((t, u))) + f" = {self.tag(op, w)}"

    def note(self, name: str, ty: Type, kind: bool = True) -> None:
        """Notes a definition of `name` of type `ty`: its tag vector's width
        and, when `kind`, its value's kind."""
        w = _width(ty) if isinstance(ty, (Int, Float, Char, Ptr, Void)) else None
        self.width[name] = w if self.width.get(name, w) == w else None
        if kind:
            k = None if w is None or isinstance(ty, Void) else _kind(ty)
            self.kinds[name] = k if self.kinds.get(name, k) == k else None

    def code(self):
        """The function compiled."""
        self.used, body = set(), []
        looped = any(type(ins) in (Br, Jmp) for _, instrs in self.segs for ins in instrs)
        if looped:      # a tree over block 0 and the blocks its blocks set `i` to
            lines = [[] for _ in self.fn.blocks]
            sets = [self.block(b, 0, lines[b]) for b in range(len(lines))]
            tree, todo = set(), {0}
            while todo:
                tree |= todo
                todo = {t for b in todo for t in sets[b]} - tree
            body.append((1, "while True:", (0, 0)))
            self.dispatch(sorted(tree), 2, body, lines)
        elif self.fn.blocks:       # no branch: only the entry block runs
            self.block(0, 1, body)
        else:
            body.append((1, "raise MachineTrap('no terminator', detail="
                            f"{self.fn.name!r})", (0, 0)))
        vecs = [p for p in self.read_params if self.live and p in self.tagged]
        entry = [f"{_local('v', p)} = t[{p!r}]" + (
            f"; {_local('g', p)} = tg[{p!r}]" if p in vecs else "") for p in self.read_params]
        self.used.update(("t",) * bool(entry) + ("tg",) * bool(vecs))
        prologue = self.prologue() + ["n = m.instr_total", "b = m.step_budget"]
        prologue += ["s = 0"] * self.live + entry + ["i = 0"] * looped
        self.src = ["def F(m, f):"] + ["    " + s for s in prologue]
        self.src += ["    " * depth + line for depth, line, _ in body]
        self.lines = [(0, 0)] * (2 + len(prologue)) + [mark for _, _, mark in body]
        return self.namespace()["F"]

    def cut(self, i: int, j: int, local: dict):
        """The run from segment `i` cut to its first `j` instructions and
        then the budget trap on the next, as a function of the machine, the
        frame and the locals its function had when the budget ran out,
        `local`."""
        self.used, run = set(), self.run(i)
        lines, marks, done, tail = self.instructions(run[:j])
        if tail is not None:
            uid = run[j].uid
            lines += [f"s += {done}"] * bool(done) + [
                f"n += 1; raise MachineTrap('step budget exhausted', {uid!r})"]
        prologue = self.prologue() + [f"{v} = L[{v!r}]" for v in local if v[1:2] == "_"]
        prologue += [f"n = L['n'] + {j}"] + ["s = L['s']"] * self.live
        self.src = ["def c(m, f, L):"] + ["    " + s for s in prologue + lines]
        self.lines = ([(0, 0)] * (2 + len(prologue)) + marks
                      + [(0, 0)] * (len(lines) - len(marks)))
        return self.namespace()["c"]

    def namespace(self) -> dict:
        slots = tuple((_fmt(a.ty), _local("v", x), _local("P", x), _local("T", x))
                      for x, a in self.slots.items())
        ns = dict(_helpers(), **self.ns, _lines=self.lines, _slots=slots)
        exec(compile("\n".join(self.src), _SOURCE, "exec"), ns)
        return ns

    def prologue(self) -> list[str]:
        return [f"{name} = {value}" for name, value in _PROLOGUE if name in self.used]

    def dispatch(self, blocks: list[int], depth: int, body: list, lines: list) -> None:
        """The lines running whichever of `blocks` is block `i`: its `lines`."""
        if len(blocks) > 1:
            mid = len(blocks) // 2
            body.append((depth, f"if i < {blocks[mid]}:", (0, 0)))
            self.dispatch(blocks[:mid], depth + 1, body, lines)
            body.append((depth, "else:", (0, 0)))
            self.dispatch(blocks[mid:], depth + 1, body, lines)
        else:
            body += [(depth + d, line, mark) for d, line, mark in lines[blocks[0]]]

    def block(self, b: int, depth: int, body: list) -> list[int]:
        """The lines running block `b` and a copy its last run holds
        (`run`); body gets (indent, line, mark) for each.  When the last
        transfer leads back to `b`, they run in an inner `while` that only
        the other edge leaves.  Returns the blocks the lines set `i` to."""
        lines = []
        end, instrs = self.segments(self.starts[b], lines)
        labels = ((end.then_label, end.else_label) if type(end) is Br else
                  (end.label,) * 2 if type(end) is Jmp else (None, None))
        then, other = (label and self.target(label, end) for label in labels)
        tests, mark = self.tests if type(end) is Br else (None, (0, 0))
        loop = (here := str(b)) in (then, other)
        if not self.live and tests and other == here != then:    # leaves when cond holds
            body += [(depth, line, (0, 0)) for line in self.bulk(instrs)]
        body += [(depth, "while True:", (0, 0))] * loop
        body += [(depth + loop, line, mark) for line, mark in lines]
        if then is not None and not loop:
            body.append((depth, f"i = {then}" if not tests else
                         f"i = {then} if {tests[0]} else {other}", mark))
        elif tests:      # the edge out, which still reads the condition
            out = other if then == here else then
            body.append((depth + 1, f"if {tests[then == here]}: "
                         + (f"i = {out}; break" if out != here else "pass"), mark))
        return [int(t) for t in (then, other) if t and t != here and t.isdigit()]

    def bulk(self, instrs: list[Instr]) -> list[str]:
        """Untracked, lines running all but the last round of a byte copy, fill or scan."""
        defs, env, moves, src, dst = {i.defined_temp() for i in instrs}, {}, {}, False, False
        kinds = {_local("P", x): _kind(a.ty) for x, a in self.slots.items()}

        def form(op, kind, v=None):     # its value in a round
            if v := v or type(op) is Temp and op.name in defs and _local("v", op.name):
                if v not in env:        # what the last round left
                    moves[v] = kinds.setdefault(v, op and self.kinds.get(op.name))
                    env[v] = ("+", (v,), 0)
                return env[v] if kind in (_PTR, _I64) or (env[v] or "*")[0] != "+" else None
            c = type(op) is not Temp and self.konst(op, kind, True)     # the same each round
            return ("+", (), c) if c is not False else ("+", (self.val(op, kind, True),), 0)
        for ins in instrs:
            t, a = type(ins), getattr(ins, "addr", None)
            slot = type(a) is Temp and a.name in self.slots and _local("P", a.name)
            k = _kind(ins.ty) if t in (Store, BinOp) or slot else _PTR
            if slot:        # loaded, or stored
                env[slot] = f = form(None, k, v=slot) if t is Load else form(ins.value, k)
            elif t is Load and type(ins.ty) is Char and src is dst is False:
                f = ("*", src := form(a, _PTR))
            elif t is Store and type(ins.ty) is Char and dst is False:
                dst, byte = form(a, _PTR), form(ins.value, k)
            elif (op := getattr(ins, "op", "add")) in ("add", "sub") and k in (_PTR, _I64) and (
                    t is BinOp or t is Gep and type(ins.base_ty) is Char):    # one index
                f, g = (form(o, k) for o in ins.operands())
                f = f and g and f[0] == g[0] == "+" and (op == "add" or not g[1]) and (
                    "+", f[1] + g[1], f[2] + g[2] if op == "add" else f[2] - g[2]) or None
            elif t is BinOp and ins.op == "cmp" and k != "f" and getattr(ins.rhs, "value", 1) == 0:
                f = ("=", form(ins.lhs, k))
            elif t not in (Br, Jmp):
                return []
            if ins.defined_temp():
                env[_local("v", ins.dest)] = f

        def at(f):      # f as the first round starts, and the step it moves by
            moving = [v for v in f[1] if v in moves] if f and f[0] == "+" else [0, 0]
            return (" + ".join(f[1] + (_lit(f[2]),) * (f[2] != 0 or not f[1])),
                    sum(env[v][2] for v in moving)) if len(moving) < 2 else (None, None)
        x = (x := form(instrs[-1].cond, _I64)) and x[0] == "=" and x[1]
        count, step = ("None", -1) if x and x[0] == "*" else at(x)     # a scan, or a count
        (s, ds), (d, dd) = (("None", 1) if f is False else at(f) for f in (src, dst))
        fill = dst is not False and byte != ("*", src) and at(byte)
        sets = {v: at(env[v]) for v in kinds if env.get(v, ("+", (v,), 0)) != ("+", (v,), 0)}
        if {ds, dd, abs(step or 0)} != {1} or fill and fill[1] != 0 or any(
                env[v] is None or env[v][:2] != ("+", (v,)) or env[v][2] and k not in (_PTR, _I64)
                for v, k in moves.items()) or (None, None) in sets.values():
            return []       # what a round reads before it sets moves by the same step each round
        new = ", ".join(_norm(f"{e} + {n} * (K - 1)", kinds[v]) for v, (e, n) in sets.items())
        put = f"mem[{d}:{d} + K] = V * K; " if fill else f"mem.move({d}, {s}, K); "
        return [f"try: {f'V = bytes(({fill[0]},)); ' if fill else ''}K = _rounds(mem, "
                + (count if x[0] == "*" else f"{-step} * ({count})") + f", (b - n) // "
                f"{len(instrs)}, {s}, {d}{', R_lo, R_hi' * bool(self.slots)}); E = ({new},)",
                "except NameError: K = 0", f"if K: {put * (dst is not False)}n += "
                f"{len(instrs)} * K; [{', '.join(sets)}] = E"]

    def run(self, j: int) -> list[Instr]:
        """Segment `j` and, in place of a `jmp` that ends it to another
        block of one segment ending in a terminator, a copy of that
        segment: one budget check and one shadow count."""
        b, instrs = self.segs[j]
        h = self.labels.get(instrs[-1].label) if instrs and type(instrs[-1]) is Jmp else None
        if h in (None, b) or self.starts[h + 1] - self.starts[h] != 1 or type(
                (self.segs[self.starts[h]][1] or [None])[-1]) not in (Br, Jmp, Ret):
            return instrs
        return instrs + self.segs[self.starts[h]][1]

    def segments(self, j: int, lines: list) -> tuple[Optional[Instr], list[Instr]]:
        """Appends the (line, mark) of the run from segment `j`, and of the
        next after one that ends in a call, to `lines`; returns the last
        instruction when decoded, leaving a `br` or `jmp`'s transfer to
        `block`, and the instructions of the runs."""
        ran = []
        while True:
            b, instrs = self.segs[j][0], self.run(j)
            ran += instrs
            if instrs:      # the budget runs out here: run what fits elsewhere
                k = len(instrs)
                lines.append((f"if (n := n + {k}) > b: n -= {k}; m._cut("
                              f"{self.fn_const}, {self.live}, {j}, f, locals())", (0, 0)))
            head, marks, done, tail = self.instructions(instrs)
            end = instrs[-1] if instrs and tail is not None else None
            if tail is not None:
                if not tail and type(end) not in (Br, Jmp):     # falls off its block
                    tail = [f"raise MachineTrap('no terminator', detail={self.fn.blocks[b].label!r})"]
                head += [f"s += {done}"] * bool(done) + tail
            lines += zip(head, marks + [(0, 0)] * (len(head) - len(marks)))
            if type(end) is not Call:
                return end, ran
            j += 1

    def instructions(self, instrs: list[Instr]) -> tuple[list, list, int, Optional[list]]:
        """The lines of `instrs` up to the shadow count of one that ends a
        run with their (instructions not run, shadow ops not counted), that
        count, and the lines after it; none after `instrs` that end without
        a terminator, None after one that cannot be decoded."""
        head, marks, done = [], [], 0
        for p, ins in enumerate(instrs):
            if (left := len(instrs) - p - 1) and type(ins) is Jmp:      # a run's copy follows
                continue
            try:
                lines = _EMIT.get(type(ins), _Writer.unknown)(self, ins)
                lines = [] if left == 1 and id(ins) in self.fuse else lines     # `block` writes it
            except Exception as e:      # undecodable: raises the same whenever it runs
                args = (e.kind, e.instr, e.detail) if isinstance(e, MachineTrap) else e.args
                head.append(f"raise {self.const(functools.partial(type(e), *args))}()")
                return head, marks + [(left, done)], done, None
            at = lines.index(_COUNT) if _COUNT in lines else len(lines)
            head += lines[:at]
            marks += [(left, done)] * at
            if self.live:
                done += type(ins) in (Load, Store, Gep, BinOp) or (
                    type(ins) in (Call, Ret) and bool(ins.operands()))
            if at < len(lines):
                return head, marks, done, lines[at + 1:]
        return head, marks, done, []

    # The lines of each kind of instruction

    def alloca(self, ins: Alloca) -> list:
        structs = self.shared.module.structs
        sz = size_of(ins.ty, structs)
        align, zeros = ~(max(align_of(ins.ty, structs), 1) - 1), self.const(bytes(sz))
        self.used.update(("mem", "dirty", "tm", "pages"))
        lines = [f"a = (m.stack_ptr - {sz}) & {align}",
                 f"if a <= m.heap_ptr: raise MachineTrap('stack overflow', {ins.uid!r})",
                 "m.stack_ptr = a"]
        if sz:      # zeroed past `Memory.__setitem__`, which would mark the same pages
            put = self.const(_struct.Struct(f"{sz}s").pack_into)
            lines += [f"{put}(mem, a, {zeros}); dirty.add(q := a >> {_PAGE_SHIFT})",
                      # allocation bookkeeping: a one-page frame zeroes only a present page
                      f"if (o := a & {PAGE - 1}) > {PAGE - sz}: mem.mark(a, {sz});"
                      f" tm.set_vector(a, {zeros})",
                      f"elif (p := pages.get(q)) is not None: p[o:o + {sz}] = {zeros}"]
        lines += self.define(ins.dest, "a", 8)
        if (x := ins.dest) in self.slots:      # zero, like its bytes; the range grows down
            lines.append(f"{_local('P', x)} = 0" + f"; {self.set_tag(x, _ZERO, sz)}" * self.live
                         + "; R_lo, R_f = a, a - 8" + f"; R_hi = a + {sz}" * (not self.held(ins)))
        return lines

    def load(self, ins: Load) -> list:
        w = _width(ins.ty)
        if type(ins.addr) is Temp and ins.addr.name in self.slots:
            x = ins.addr.name
            return self.define(ins.dest, _local("P", x), w, self.folds.get(x, _local("T", x)),
                               x not in self.folds)
        a, lines = self.atom(self.val(ins.addr, _PTR), "a")
        self.used.update(("mem", "tm", "pages") if self.live else ("mem",))
        c, pick = _fmt(ins.ty), f" if (p := pages.get({a} >> {_PAGE_SHIFT})) is None else "
        tag = f"0{pick}p[{a} & {PAGE - 1}]" if w == 1 else (    # a byte is on one page
            f"tm.get_vector({a}, {w}) if (o := {a} & {PAGE - 1}) > {PAGE - w} else "
            f"_Z{w}{pick}bytes(p[o:o + {w}])")
        return lines + self.check(a, w, ins) + (
            self.define(ins.dest, f"mem[{a}]" if c == "B" else f"_u{c}(mem, {a})[0]"
                        if w else "0", w, tag, w != 1))

    def store(self, ins: Store) -> list:
        w = _width(ins.ty)
        slot = type(ins.addr) is Temp and ins.addr.name in self.slots and ins.addr.name
        a, lines = ("", []) if slot else self.atom(self.val(ins.addr, _PTR), "a")
        x = self.val(ins.value, _kind(ins.ty), wrap_globals=True)
        if slot:        # `_spill` makes the page of a nonzero vector
            return [f"{_local('P', slot)} = {x}"] + [self.set_tag(slot, ins.value, w)] * self.live
        x, more = self.atom(x, "x")
        self.used.update(("mem", "dirty", "tm", "pages") if self.live else ("mem", "dirty"))
        lines += more + [*self.check(a, w, ins, x if type(ins.value) is Temp and not more else ""),
                         f"_p{_fmt(ins.ty)}(mem, {a}, {x})",
                         f"dirty.add(q := {a} >> {_PAGE_SHIFT})"]
        cross = f"if (o := {a} & {PAGE - 1}) > {PAGE - w}: dirty.add(q + 1)"
        held = self.held(ins)       # read back after a store that passed the fast bound
        after = [f"if R_f < {a} < R_hi and R_lo - {w} < {a}: {self.read_back(held)}"] * bool(held)
        if not self.live:
            return lines + [cross] * (w > 1) + after
        g, more = self.atom(self.tag(ins.value, 1) if w == 1 else self.vec(ins.value, w), "g")
        put, zero = (f"p[{a} & {PAGE - 1}] = {g}", "0") if w == 1 else (    # a byte's is an int
            f"p[o:o + {w}] = {g}", f"_Z{w}")
        lines += more + [f"{cross}; tm.set_vector({a}, {g})"] * (w != 1) + [
            f"{'el' * (w != 1)}if (p := pages.get(q)) is not None: {put}"]
        if g != zero:       # the page is made only for a nonzero tag
            lines.append(f"elif {g} != {zero}: p = pages[q] = bytearray({PAGE}); {put}")
        return lines + after

    def gep(self, ins: Gep) -> list:
        structs, t, off = self.shared.module.structs, ins.base_ty, 0
        strides = [(ins.indices[0], size_of(t, structs))]
        for idx in ins.indices[1:]:
            if isinstance(t, StructRef):
                decl = structs[t.name]
                fname, t = decl.fields[idx.value]   # validated constant
                off += field_offset(decl, fname, structs)
            elif isinstance(t, Array):
                strides.append((idx, size_of(t.elem, structs)))
                t = t.elem
            else:
                raise MachineTrap("malformed gep", ins.uid)
        terms = [self.val(ins.base, _PTR)]
        for idx, stride in strides:
            if type(idx) is Temp:
                terms.append(self.val(idx, _I64) + f" * {stride}" * (stride != 1))
            else:
                off += self.konst(idx, _I64) * stride
        terms[1:1] = [_lit(off)] * (off != 0)
        tags = [self.tag(op, 8) for op in (ins.base, *ins.indices) if type(op) is Temp]
        return self.define(ins.dest, terms[0] if len(terms) == 1 else   # a pointer already
                           _norm(" + ".join(terms), _PTR), 8, tag=" | ".join(tags) or "0")

    def binop(self, ins: BinOp) -> list:
        kind, w, op, uid = _kind(ins.ty), _width(ins.ty), ins.op, repr(ins.uid)
        a, b = self.val(ins.lhs, kind), self.val(ins.rhs, kind)
        if op == "cmp":
            if id(ins) in self.fuse:    # the next `br`'s tests; a trap on their line counts
                self.fused = (f"{a} == {b}", f"{a} != {b}"), (1, -self.live)   # as one here
            e = f"1.0 if {a} == {b} else 0.0" if kind == "f" else f"1 if {a} == {b} else 0"
        elif op in _OPS and (kind != "f" or op in ("add", "sub", "mul")):
            e = f"{a} {_OPS[op]} {b}"
        elif op in ("div", "rem"):
            e = f"_f{op}({a}, {b})" if kind == "f" else f"_i{op}({a}, {b}, {uid})"
        elif op in ("shl", "shr") and kind != "f":
            e = f"{a} {'<<' if op == 'shl' else '>>'} ({b} & {kind[1].bit_length() - 1})"
        else:
            bad = "float bit operation" if kind == "f" else "unknown op"
            e = f"_bad({bad!r}, {uid}, {a}, {b})"
        if kind == "f" and ins.ty.bits == 32 and op != "cmp":
            e = f"_f32({e})"
        elif kind != "f" and op != "cmp":
            e = _norm(e, kind)
        tags = [t for t in (self.tag(ins.lhs, w), self.tag(ins.rhs, w)) if t != "0"]
        return self.define(ins.dest, e, w, tag=" | ".join(tags) or "0")

    def br(self, ins: Br) -> list:
        c = self.val(ins.cond, _I64)    # raises now when it cannot be decoded
        self.tests, self.fused = self.fused or ((f"{c} != 0", f"{c} == 0"), (0, 0)), None
        return [_COUNT]                 # `block` writes the transfer from `tests`

    def jmp(self, ins: Jmp) -> list:
        return [_COUNT]

    def call(self, ins: Call) -> list:
        callee = self.shared.module.functions.get(ins.callee)
        if callee is None:
            raise MachineTrap("unresolved callee", ins.uid, f"@{ins.callee}")
        if len(ins.args) < len(callee.params):      # a parameter no argument defines
            raise _undefined(callee.params[len(ins.args)][0])
        pairs = list(zip(callee.params, ins.args))
        args = ", ".join(self.val(op, _kind(pty), True) for (_, pty), op in pairs)
        lines = [f"args = [{args}]"]
        temps = [x for x in dict.fromkeys(op.name for op in ins.args if type(op) is Temp)
                 if self.last[x] > self.order[id(ins)]]     # whose tag a later line reads
        vecs, after = "vecs" if self.live else "()", []
        if self.live:       # those tags go round through f.tags
            lines.append("vecs = [" + ", ".join(self.vec(op, _width(pty))
                                                for (_, pty), op in pairs) + "]")
            lines += [f"tg[{x!r}] = {_local('g', x)}" for x in temps]
            after = [f"{_local('g', x)} = tg[{x!r}]" for x in temps]
            self.used.update(("tg",) * bool(temps))
        run = "c.code(m, c)"
        if ins.dest:
            run = f"{_local('v', ins.dest)} = {run}"
            if self.live:
                w = _width(callee.ret_ty)
                after += [f"{_local('g', ins.dest)} = _resize(m.ret_shadow or _Z{w}, {w})"
                          ] * (ins.dest in self.tagged)
            if ins.dest in self.spill:
                after.append(f"t[{ins.dest!r}] = {_local('v', ins.dest)}")
                self.used.add("t")
        held = self.held(ins)       # the callee may read or write them
        return lines + [_COUNT, self.flush()] + [self.write_back(held)] * bool(held) + [
            f"c = m._call({self.const(callee)}, args, {vecs}, {self.const(ins)})",
            run, "n = m.instr_total"] + [self.read_back(held)] * bool(held) + after

    def ret(self, ins: Ret) -> list:
        has, ty = ins.value is not None, self.fn.ret_ty
        x, lines = self.atom(self.val(ins.value, _kind(ty)) if has else "0", "x")
        if self.live:
            shadow = self.vec(ins.value, _width(ty)) if has else "b''"
            lines += [f"m.ret_shadow = {shadow}", _COUNT, self.flush()]
        else:       # a rule-firing frame's instructions all ran untracked
            lines += [_COUNT, self.flush(),
                      "if f.arg_record is not None: m.instr_unins += n - m._unins_from"]
        held = self.held(ins)       # written back once: the locals go
        lines += [self.write_back(held) + "; del " + ", ".join(
            _local(k, x) for x in held for k in "PT"[:1 + self.live])] * bool(held)
        return lines + [f"return m._do_ret(f, {x})"]

    def flush(self) -> str:
        """The line writing the counts to the machine, which a callee or
        `_do_ret` goes on from."""
        return "m.instr_total = n" + "; m.shadow_ops_instr += s; s = 0" * self.live

    def unknown(self, ins: Instr) -> list:
        raise MachineTrap("unknown instruction", ins.uid)

    # Operands and temps

    def check(self, a: str, w: int, ins: Instr, x: str = "") -> list[str]:
        """The bounds check of a `w`-byte access at `a`, reading a stored
        temp's local `x` first as the step interpreter does, and, where slots
        are held, the write-back of an access overlapping the promoted range,
        both run only outside [GLOBALS_BASE, R_f] and [R_hi, mem_size - w]."""
        top, held = self.mem_size - w, self.held(ins)
        check = (f"if not {GLOBALS_BASE} <= {a} <= {top}: "
                 f"m._check_bounds({a}, {w}, {ins.uid!r}{x and ', ' + x})")
        return [f"if not ({GLOBALS_BASE} <= {a} <= R_f or R_hi <= {a} <= {top}):", "    " + check,
                f"    if R_lo - {w} < {a} < R_hi: {self.write_back(held)}"] if held else [check]

    def define(self, name: str, value: str, width: int, tag: str = "0",
               vec: bool = False) -> list[str]:
        """Lines binding temp `name` to `value` and, when tracked and a line
        reads it, to its tag `tag`: a vector when `vec`, else an int, splat
        to `width` bytes unless `name` is folded."""
        v, g = _local("v", name), _local("g", name)
        tag = tag if vec or name in self.folded else f"_S{width}[{tag}]"
        lines = [f"{v} = {value}"] + [f"{g} = {tag}"] * (self.live and name in self.tagged)
        if name in self.spill:      # a redefined parameter, which rule sources read
            lines.append(f"t[{name!r}] = {v}")
            self.used.add("t")
        return lines

    def konst(self, op: Operand, kind, wrap_globals: bool = False):
        """A constant or global operand's value as a `kind` value; a
        global's address is used as it is unless `wrap_globals`."""
        if type(op) is GlobalRef:
            v = self.shared.global_addr[op.name]
            return _wrap(v, kind) if wrap_globals else v
        return _wrap(op.value, kind)

    def val(self, op: Operand, kind, wrap_globals: bool = False) -> str:
        """An expression of the operand as a `kind` value."""
        if type(op) is not Temp:
            return _lit(self.konst(op, kind, wrap_globals))
        e, have = _local("v", op.name), self.kinds.get(op.name)
        if have == kind or isinstance(have, tuple) and kind != "f" and all(
                _wrap(x, kind) == x for x in (-have[0], have[1] - have[0])):
            return e        # its producer normalized it to a range inside `kind`'s
        if kind == "f":
            return f"float({e})"
        return f"({_norm(e if isinstance(have, tuple) else f'int({e})', kind)})"

    def vec(self, op: Operand, w: int) -> str:
        """An expression of the operand's tag vector resized to `w` bytes."""
        if type(op) is not Temp:
            return f"_Z{w}"
        g = _local("g", op.name)
        return f"_S{w}[{g}]" if op.name in self.folded else g if self.width.get(
            op.name) == w else f"_resize({g}, {w})"

    def tag(self, op: Operand, w: int) -> str:
        """An expression of the fold of the operand's tag vector resized to
        `w` (>= 1) bytes."""
        if type(op) is not Temp:
            return "0"
        g, width = _local("g", op.name), self.width.get(op.name)
        return g if op.name in self.folded else f"{g}[0]" if w == 1 and width else (
            f"_U[{g}]" if width is not None and width <= w else f"_U[{g}[:{w}]]")

    def target(self, label: str, ins: Instr) -> str:
        """The segment a branch to `label` goes to; a label the function
        lacks traps when taken."""
        i = self.labels.get(label)
        return f"_bad('unknown label', {ins.uid!r})" if i is None else str(i)

    def atom(self, e: str, name: str) -> tuple[str, list[str]]:
        """`e` itself when it is a name or a literal, else `name` and the
        line assigning `e` to it."""
        return (e, []) if _ATOM.fullmatch(e) else (name, [f"{name} = {e}"])

    def const(self, obj) -> str:
        name = f"k{len(self.ns)}"
        self.ns[name] = obj
        return name


_EMIT = {Alloca: _Writer.alloca, Load: _Writer.load, Store: _Writer.store,
         Gep: _Writer.gep, BinOp: _Writer.binop, Br: _Writer.br, Jmp: _Writer.jmp,
         Call: _Writer.call, Ret: _Writer.ret}


# ---------------------------------------------------------------------------
# What the machines of a module share
# ---------------------------------------------------------------------------

class _Shared:
    """What every machine of one module shares, since the parsed IR never
    changes: the global layout, each function's `code` by (name, tracked,
    memory size), by function name its parameters' value kinds and tag
    widths (`signatures`) and the last rule program `bound`, as (program,
    cost, regions) (`bindings`).  It holds no machine, so a machine is freed
    by reference counting while its module's entry lives on."""

    def __init__(self, module: Module):
        self.module = module
        self.global_addr, self.inits = {}, []     # inits: copied into each memory
        addr, structs = GLOBALS_BASE, module.structs
        for g in module.globals.values():
            addr = align_up(addr, max(align_of(g.ty, structs), 1))
            self.global_addr[g.name] = addr
            if g.init:
                self.inits.append((addr, g.init))
            addr += size_of(g.ty, structs)
        self.globals_end, self.heap_start = addr, align_up(addr, 16)
        self.code, self.bindings, self.signatures = {}, {}, {}

    def compiled(self, fn: Function, live: bool, mem_size: int):
        key = (fn.name, live, mem_size)
        code = self.code.get(key)
        if code is None:
            code = self.code[key] = _Writer(self, fn, live, mem_size).code()
        return code

    def bound(self, prog: TaintRuleProgram) -> tuple:
        """`prog`'s cost, `len(prog.steps)`, and each entry as the regions of
        its ins and then its out, each (kind, where, offset, nbytes): kind
        "ret", "nu" (by-value scalar argument `where`), "arg" (memory behind
        pointer argument `where`, plus `offset`) or "mem" (at `offset`);
        `nbytes` is the slot's extent, None for a string scanned when
        applied.  Another program of the function is bound anew."""
        hit = self.bindings.get(prog.function)
        if hit is None or hit[0] is not prog:
            module = self.module

            def region(slot: SlotRef) -> tuple:
                where, off, kind = slot.index, 0, slot.kind
                if kind == "global":
                    kind, off = "mem", self.global_addr[slot.name]
                    base_ty = module.globals[slot.name].ty
                elif kind == "param":
                    kind = "arg" if slot.field_path or isinstance(slot.ty, Ptr) else "nu"
                    base_ty = module.functions[prog.function].params[where][1]
                if slot.field_path:
                    off += field_path_offset(base_ty, slot.field_path, module.structs)[0]
                return kind, where, off, slot_extent(slot, module)

            entries = tuple((*map(region, ins), region(out)) for out, ins in prog.entries)
            hit = self.bindings[prog.function] = (prog, len(prog.steps), entries)
        return hit[1:]


# id of module -> its _Shared, least recently used first.  An entry holds
# its module, so no id is reused while it lives, and at most one code per
# (function, tracked, memory size) its machines ran and one bound program per
# rule-firing function; an evicted entry is freed with all of them.
MODULE_TABLE_SIZE = 64
_module_table: dict[int, _Shared] = {}


def _shared(module: Module) -> _Shared:
    """`module`'s entry in the process-wide table, made on a miss."""
    hit = _module_table.pop(id(module), None) or _Shared(module)
    _module_table[id(module)] = hit
    while len(_module_table) > MODULE_TABLE_SIZE:
        del _module_table[next(iter(_module_table))]
    return hit


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

class Machine:
    """The state of one run: memory, Tagmap, frames and counters, which
    `reset` clears for the next.  What no run changes comes from the
    module's `_Shared`.  Raises ValueError when the globals reach past the
    lower half of `mem_size`, which is the heap's."""

    def __init__(self, module: Module, *, mode: str = "instr",
                 rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
                 taint_config: Optional[TaintConfig] = None,
                 mem_size: int = DEFAULT_MEMORY,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 default_len: int = DEFAULT_STRING_CAP):
        if mode not in ("instr", "hybrid"):
            raise ValueError(f"unknown mode {mode!r}")
        shared = self.shared = _shared(module)
        if shared.heap_start > mem_size // 2:
            raise ValueError(f"the globals need 0x{shared.heap_start:x} bytes, more than"
                             f" half of mem_size 0x{mem_size:x}")
        self.module, self.mode, self.cfg = module, mode, taint_config or TaintConfig()
        self.mem_size, self.memory = mem_size, Memory(mem_size)
        self.global_addr, self.globals_end = shared.global_addr, shared.globals_end
        self.step_budget, self.default_len = step_budget, default_len
        self._sources, self._sinks = {}, {}
        for s in self.cfg.sources + self.cfg.sinks:
            by_fn = self._sources if isinstance(s, SourceSpec) else self._sinks
            by_fn.setdefault(s.fn, []).append(s)
        # in instr mode no rule ever fires, nor one whose callees hold a
        # source or sink (`TaintConfig.withheld`)
        self.rules = dict(rule_programs or {}) if mode == "hybrid" else {}
        if self.rules and (self._sources or self._sinks):
            withheld = self.cfg.withheld(self.module, self.rules)
            self.rules = {f: p for f, p in self.rules.items() if f not in withheld}
        self.reset()

    def reset(self) -> None:
        """Returns the machine to the state a fresh one of its module, rules,
        memory size, mode and config starts in: each written page is zeroed,
        past `__setitem__` so that it stays unmarked, and the globals'
        initial bytes rewritten."""
        memory = self.memory
        for a in (p << _PAGE_SHIFT for p in memory.dirty):
            n = min(PAGE, len(memory) - a)
            mmap.mmap.__setitem__(memory, slice(a, a + n), bytes(n))
        memory.dirty.clear()
        for addr, init in self.shared.inits:
            memory[addr:addr + len(init)] = init
        self.heap_ptr, self.stack_ptr = self.shared.heap_start, self.mem_size
        self.tagmap, self.ret_shadow = Tagmap(), b""
        self.live = True        # false while a rule-firing call runs
        self._unins_from = 0    # the instruction count when it last fell
        self.exit_value = 0     # what the last return returned
        self.shadow_ops_instr = self.shadow_ops_rules = 0
        self.instr_total = self.instr_unins = 0
        self.sink_hits: list[SinkHit] = []
        self._frames: list[_Frame] = []

    # -- memory ----------------------------------------------------------------

    def alloc(self, n: int, align: int = 8) -> int:
        addr = align_up(self.heap_ptr, align)
        if addr + n >= self.mem_size // 2:
            raise MachineTrap("out of scratch memory")
        self.heap_ptr = addr + n
        return addr

    def _check_bounds(self, addr: int, sz: int, uid: Optional[str], value=None) -> None:
        """Traps unless [addr, addr + sz) is in memory; `value` is ignored."""
        if addr < GLOBALS_BASE or addr + sz > self.mem_size:
            raise MachineTrap("out-of-bounds access", uid,
                              f"addr=0x{addr:x} size={sz}")

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check_bounds(addr, n := len(data), None)
        mmap.mmap.__setitem__(self.memory, slice(addr, addr + n), data)
        self.memory.mark(addr, n)

    def read_bytes(self, addr: int, n: int) -> bytes:
        self._check_bounds(addr, n, None)
        return self.memory[addr:addr + n]

    def scan_string(self, addr: int, cap: int) -> int:
        """Byte extent of a NUL-terminated region: terminator included,
        capped at `cap` when no terminator shows up."""
        end = min(addr + cap, self.mem_size)
        i = self.memory.find(b"\0", addr, end) if addr < end else -1
        return i - addr + 1 if i >= 0 else max(end - addr, 0)

    # -- calls -------------------------------------------------------------------

    def call_entry(self, fn_name: str, args: Sequence[object],
                   arg_tags: Optional[Sequence[Optional[bytes]]] = None) -> int:
        """Invoke a function as the program entry and run to completion;
        returns its (integer) result, 0 for void.  Each tag vector may be any
        bytes-like object; it is copied to `bytes`."""
        fn = self.module.functions.get(fn_name)
        if fn is None:
            raise MachineTrap("unknown entry function", detail=fn_name)
        if len(args) != len(fn.params):
            raise MachineTrap("entry argument count mismatch",
                              detail=f"{fn_name} wants {len(fn.params)}")
        sig = self.shared.signatures.get(fn_name)
        if sig is None:
            sig = self.shared.signatures[fn_name] = (
                [_kind(t) for _, t in fn.params], [_width(t) for _, t in fn.params])
        args = [_wrap(a, k) for a, k in zip(args, sig[0])]
        vecs = [_resize_vec(bytes(arg_tags[i]), w) if arg_tags is not None and arg_tags[i]
                else bytes(w) for i, w in enumerate(sig[1])]
        self._call(fn, args, vecs, None)
        return self._run()

    def _make_frame(self, fn: Function, args: Sequence[object],
                    vecs: Sequence[bytes], call_ins: Optional[Call]) -> _Frame:
        """`fn`'s frame, for arguments of its parameters' types."""
        if len(self._frames) >= MAX_FRAMES:
            raise MachineTrap("stack overflow (frame cap)",
                              call_ins.uid if call_ins else None)
        names = [p for p, _ in fn.params]
        temps, tags = dict(zip(names, args)), dict(zip(names, vecs))
        record = None
        if self.live and fn.name in self.rules:
            record = [(temps[p], tags[p]) for p in names]
            self.live, self._unins_from = False, self.instr_total
        return _Frame(fn, temps, tags, self.stack_ptr, call_ins,
                      self.shared.compiled(fn, self.live, self.mem_size), record)

    def _call(self, callee: Function, args: list, vecs, ins: Optional[Call]) -> _Frame:
        """Enters `callee` from `ins`, or as the entry when None; the caller
        runs the frame's code."""
        self._check_sinks(callee.name, args, vecs, ins.uid if ins else "<entry>")
        self._frames.append(frame := self._make_frame(callee, args, vecs, ins))
        return frame

    # A source or sink never runs while `live` is down: a rule whose callees
    # hold one is withheld.

    def _check_sinks(self, fn_name: str, args, vecs, call_uid: str) -> None:
        if fn_name not in self._sinks:
            return
        fn = self.module.functions[fn_name]
        for i in (spec.index for spec in self._sinks[fn_name] if spec.index < len(args)):
            region = self._param_region(fn.params[i][1], args[i])
            tag = _fold(vecs[i]) if region is None else self.tagmap.get_taint(*region)
            if tag:
                self.sink_hits.append(SinkHit(fn_name, tag, call_uid))

    def _apply_sources(self, frame: _Frame, caller: Optional[_Frame]) -> None:
        for spec in self._sources.get(frame.fn.name, ()):
            if spec.where == "ret":
                w = len(self.ret_shadow) or _width(frame.fn.ret_ty)
                self.ret_shadow = bytes(map(spec.label.__or__, _resize_vec(self.ret_shadow, w)))
                continue
            i = spec.index or 0
            if i >= len(frame.fn.params):
                continue
            pty = frame.fn.params[i][1]
            value = frame.temps[frame.fn.params[i][0]]
            region = self._param_region(pty, value)
            if region is not None:
                self.tagmap.or_taint(region[0], spec.label, region[1])
            elif caller is not None and frame.call_ins is not None:
                op = frame.call_ins.args[i]
                if isinstance(op, Temp):
                    vec = caller.tags.get(op.name, bytes(_width(pty)))
                    caller.tags[op.name] = spec.label | vec if type(vec) is int else bytes(
                        map(spec.label.__or__, _resize_vec(vec, _width(pty))))

    def _param_region(self, ty: Type, value) -> Optional[tuple[int, int]]:
        """Shadow region named by a pointer-typed parameter value, as a rule
        step on the parameter would cover it; None for scalars (their taint
        lives in the value shadow) and for an unresolvable pointee."""
        if not isinstance(ty, Ptr) or not isinstance(value, int) or value == 0:
            return None
        try:
            n = slot_extent(SlotRef("param", ty=ty), self.module)
        except RuleGenError:
            return None
        return (value, self.scan_string(value, self.default_len) if n is None else n)

    # -- interpreter -------------------------------------------------------------

    def _run(self) -> int:
        """Runs the entry frame's code, which returns through each frame it
        calls; a run that raises leaves the counters where the innermost
        generated frame stopped."""
        f = self._frames[-1]
        try:
            f.code(self, f)
        except BaseException as e:
            stop = _stopped(e, self)
            if stop is not None:
                self.instr_total, uncounted, unbound = stop
                self.shadow_ops_instr += uncounted
            if not self.live:   # the budget trap's instruction never ran
                self.instr_unins += (self.instr_total - self._unins_from
                                     - (self.instr_total > self.step_budget))
            if stop is not None and unbound:    # a temp no path defined
                raise _undefined(unbound[2:].replace("·", ".")) from None
            raise
        return self.exit_value

    def _cut(self, fn: Function, live: bool, i: int, frame: _Frame, local: dict) -> None:
        """Runs the prefix of the run from segment `i` of `fn`'s code that
        the step budget leaves, from the locals its budget check failed
        with, and traps."""
        writer = _Writer(self.shared, fn, live, self.mem_size)
        writer.cut(i, self.step_budget - local["n"], local)(self, frame, local)

    def _do_ret(self, frame: _Frame, value):
        """Pops `frame`, applies its rule program and sources, and returns
        `value`, which the last return leaves as the exit value."""
        self.stack_ptr = frame.stack_mark
        self._frames.pop()
        if frame.arg_record is not None:
            self.live = True
            self.ret_shadow = b""     # the untracked body's `ret` set none
            apply_rule_program(self.rules[frame.fn.name], frame.arg_record, self)
        if frame.fn.name in self._sources:
            self._apply_sources(frame, self._frames[-1] if self._frames else None)
        self.exit_value = int(value)
        return value


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def apply_rule_program(prog: TaintRuleProgram, arg_record, machine: Machine) -> None:
    """Execute a rule program, bound to the machine's module, against the
    shadow state using the argument values recorded at call entry: each
    entry ORs the tags of its in-regions and then of its out-region, and
    sets the out-region to the result.  A region covers its slot's extent,
    or the string scanned at application time up to `max_len`; a null
    pointer's region, like a by-value scalar's, covers no memory."""
    cost, entries = machine.shared.bound(prog)
    tagmap, cap = machine.tagmap, prog.max_len
    machine.shadow_ops_rules += cost
    for regions in entries:
        acc = 0
        for kind, where, addr, nbytes in regions:
            n = 0       # bytes of memory the region covers
            if kind == "nu" or kind == "ret":
                acc |= _fold(arg_record[where][1] if kind == "nu" else machine.ret_shadow)
            elif kind == "mem" or arg_record[where][0] != 0:
                if kind == "arg":
                    addr += arg_record[where][0]
                n = nbytes if nbytes is not None else machine.scan_string(addr, cap)
                acc |= tagmap.get_taint(addr, n)
        # the loop ended on the out's region
        if kind == "ret":
            machine.ret_shadow = bytes([acc]) * nbytes
        elif n:
            tagmap.set_taint(addr, acc, n)


# ---------------------------------------------------------------------------
# Top-level run
# ---------------------------------------------------------------------------

def run(module: Module, entry: str, args: Sequence[int] = (),
        cfg: Optional[TaintConfig] = None, mode: str = "instr",
        rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
        **machine_kw) -> RunReport:
    """Validate, check the taint config, execute, and report.  In hybrid
    mode a library function without a rule program is tracked at
    instruction level."""
    diags = validate_module(module)
    if diags:
        raise ValueError("module is not well-formed: "
                         + "; ".join(str(d) for d in diags[:5]))
    if cfg is not None:
        cfg.check(module)
    machine = Machine(module, mode=mode, rule_programs=rule_programs,
                      taint_config=cfg, **machine_kw)
    exit_value = machine.call_entry(entry, list(args))
    return RunReport(
        exit_value=exit_value,
        shadow_ops_instr=machine.shadow_ops_instr,
        shadow_ops_rules=machine.shadow_ops_rules,
        instr_executed_total=machine.instr_total,
        instr_executed_unins=machine.instr_unins,
        tainted_bytes_final=tuple(machine.tagmap.nonzero_bytes()),
        sink_hits=tuple(machine.sink_hits),
        ret_tag=_fold(machine.ret_shadow),
    )
