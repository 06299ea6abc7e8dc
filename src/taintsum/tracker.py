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
from typing import Iterator, Mapping, Optional, Sequence

from .ir import (
    Alloca, Array, BinOp, Br, Call, Char, Float, Function, Gep, GlobalRef,
    Instr, Int, Jmp, Load, Module, Operand, Ptr, Ret, Store, StructRef, Temp,
    Type, Void, align_of, align_up, field_offset, field_path_offset, size_of,
    validate_module,
)
from .rules import (
    DEFAULT_STRING_CAP, READ_OUT, SET_FIXED, SET_STRING, RuleGenError,
    TaintRuleProgram, slot_extent,
)
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
        msg = kind + (f" at {instr}" if instr else "")
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# ---------------------------------------------------------------------------
# Concrete memory
# ---------------------------------------------------------------------------

class Memory(mmap.mmap):
    """A machine's memory: an anonymous private mapping, so building one
    costs the same whatever its size and the kernel zeroes a page only when
    it is first touched.  Every write marks the pages it touches in `dirty`:
    item and slice assignment do it themselves, a write through the buffer
    protocol (`struct.pack_into`) calls `mark`; `write`, `write_byte` and
    `move` mark nothing and are not used.  Two memories are equal when
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

    @staticmethod
    def _pieces(addr: int, sz: int) -> Iterator[tuple[int, int, int, int]]:
        """(page number, page offset, range offset, length) for each page
        piece of [addr, addr + sz)."""
        i = 0
        while i < sz:
            pno, off = divmod(addr + i, PAGE)
            n = min(sz - i, PAGE - off)
            yield pno, off, i, n
            i += n

    def get_vector(self, addr: int, sz: int) -> bytes:
        off = addr & (PAGE - 1)
        if off + sz <= PAGE:        # one page: nearly every load and store
            page = self.pages.get(addr >> _PAGE_SHIFT)
            return bytes(sz) if page is None else bytes(page[off:off + sz])
        return b"".join(self.get_vector(pno * PAGE + off, n)
                        for pno, off, _, n in self._pieces(addr, sz))

    def set_vector(self, addr: int, vec: bytes) -> None:
        off, n = addr & (PAGE - 1), len(vec)
        if off + n > PAGE:          # each piece takes the one-page path
            for pno, off, i, k in self._pieces(addr, n):
                self.set_vector(pno * PAGE + off, vec[i:i + k])
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
        old = int.from_bytes(self.get_vector(addr, sz), "little")
        mask = int.from_bytes(bytes([tag]) * sz, "little")
        self.set_vector(addr, (old | mask).to_bytes(sz, "little"))

    def nonzero_bytes(self) -> list[tuple[int, int]]:
        out = []
        for pno in sorted(self.pages):
            page = self.pages[pno]
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
            return TaintConfig.from_json(json.load(fp))

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
    if isinstance(ty, Int):
        return ty.bits // 8
    if isinstance(ty, Float):
        return ty.bits // 8
    if isinstance(ty, Char):
        return 1
    if isinstance(ty, Ptr):
        return 8
    if isinstance(ty, Void):
        return 0
    raise MachineTrap("bad value type", detail=str(ty))


def _kind(ty: Type):
    """How a value of `ty` is normalized: "f", or the int (bias, mask) with
    ((v + bias) & mask) - bias wrapping `v` to `ty`."""
    if isinstance(ty, (Char, Ptr)):
        return (0, 0xFF) if isinstance(ty, Char) else _PTR
    if isinstance(ty, Float):
        return "f"
    return (1 << (ty.bits - 1) if ty.signed else 0), (1 << ty.bits) - 1


def _wrap(v, kind):
    return float(v) if kind == "f" else ((int(v) + kind[0]) & kind[1]) - kind[0]


def _fold(vec: bytes) -> int:
    tag = 0
    for b in set(vec):      # distinct tags: at most 256, whatever the length
        tag |= b
    return tag


def _resize_vec(vec: bytes, n: int) -> bytes:
    if len(vec) == n:
        return vec
    if len(vec) > n:
        return vec[:n]
    return vec + bytes([_fold(vec)]) * (n - len(vec))


@dataclass(slots=True)
class _Frame:
    fn: Function
    temps: dict[str, object]    # the parameters; a redefined one is stored back
    # the parameters' tag vectors and, around a call, its temp arguments',
    # which a parameter source may widen
    tags: dict[str, bytes]
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
# An image compiles each function its machines enter, tracked or untracked,
# into Python source: one function `F(m, f)` that runs frame `f` to its
# return, with a `while` loop dispatching from block to block.  An IR call is
# a Python call of the callee's function, so each IR frame is one Python
# frame and temps stay locals across calls.  What an instruction fixes is a
# literal there: constants, global addresses, widths, masks, gep offsets,
# block indices.  A temp %x is the local `v_x`, its tag vector `g_x`.  The
# parameters are read from the frame at entry and a redefined one is stored
# back, since rule sources read it; a tracked call passes its temp
# arguments' tag vectors through `f.tags`, where a parameter source may
# widen them.  A read no path defined finds its local unbound, which
# `Machine._run` turns into the undefined-temporary trap.  Tracked loads,
# stores and allocas do the Tagmap's one-page work inline.  A promoted slot
# (`_Writer.promote`), a scalar alloca that only its own loads and stores
# use, keeps its value in the local `P_x` and its tag vector in `T_x`; a
# store of a nonzero vector still makes the slot's absent Tagmap page.  Its
# bytes are written back (`_spill`) before a call, a return and any other
# access that overlaps the frame's promoted range [R_lo, R_hi), and read
# back (`_fill`) after a call and such a store; a return then drops the
# locals, and a run that raises writes back what its innermost generated
# frame still held.  A segment runs
# from a block's start or from just after a call up to and including the
# next call or terminator; the step budget is checked once per segment.
# The instruction and shadow-op counts are locals, written to the machine
# before each call and return, so a callee counts on from its caller's
# count.  When the budget runs out in a segment, `Machine._cut` runs the
# prefix that fits from the function's locals (`_Writer.cut`) and traps.
# When a run raises, the line its innermost generated frame stopped on gives
# the instructions that frame did not run and the shadow ops it did not
# count.  A function's code is shared by every image of its module
# (`_shared_code`), keyed by the identities of the module and the function,
# since the parsed IR never changes; code objects are shared by source
# text.  The functions hold no machine.

_SOURCE = "<taintsum function>"
_MASK64 = 2 ** 64 - 1
_PTR, _I64 = (0, _MASK64), (1 << 63, _MASK64)
_PTR_TY = Ptr(Void())
_STRUCTS = {c: _struct.Struct("<" + c) for c in "bBhHiIqQfd"}
_OPS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
_PROLOGUE = (("t", "f.temps"), ("tg", "f.tags"), ("mem", "m.memory"),
             ("tm", "m.tagmap"), ("pages", "m.tagmap.pages"), ("dirty", "mem.dirty"))
_ATOM = re.compile(r"[\w.]+|\(-[\w.]+\)")
_LOCAL = re.compile(r"'([vg]_[^']+)'")      # a temp's local in a NameError
_COUNT = object()      # where a segment's shadow count goes


@functools.lru_cache(maxsize=512)
def _compiled(source: str):
    return compile(source, _SOURCE, "exec")


def _spill(m, c: str, a: int, value, vec: Optional[bytes] = None) -> None:
    """Writes a promoted slot back: its value, of struct format `c`, at `a`
    and, when tracked, its tag vector.  A slot never crosses a page, and a
    nonzero vector made its page when it was stored, so an absent page
    keeps zeros."""
    _STRUCTS[c].pack_into(m.memory, a, value)
    page = m.tagmap.pages.get(a >> _PAGE_SHIFT)
    if vec is not None and page is not None:
        page[a & PAGE - 1:(a & PAGE - 1) + len(vec)] = vec


def _fill(m, c: str, a: int, w: int) -> tuple:
    """A promoted slot's value, of struct format `c` at `a`, and its `w`-byte
    tag vector, read back after code that may have written them."""
    page, o = m.tagmap.pages.get(a >> _PAGE_SHIFT), a & (PAGE - 1)
    return (_STRUCTS[c].unpack_from(m.memory, a)[0],
            bytes(w) if page is None else bytes(page[o:o + w]))


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
    is the w-byte tag vector of tag t, `_Z<w>` the zero one, `_U[vec]` the
    fold of any vector and `_tag` that of a vector cut to w (>= 1) bytes."""
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
          "_spill": _spill, "_fill": _fill,
          "_U": uniform, "_tag": lambda vec, w: uniform[vec[:w]],
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
    instruction that ends a segment hold `_COUNT` where the segment's shadow
    count goes: after what it reads, before what it changes."""

    def __init__(self, image: "Image", fn: Function, live: bool):
        self.image, self.fn, self.live = image, fn, live
        functions = image.module.functions
        # the kind of value each temp holds and the width of its tag vector,
        # None where its definitions differ; the temps read; the constants
        # the source names
        self.kinds, self.width, reads, self.ns = {}, {}, set(), {}
        for name, ty in fn.params:
            self.note(name, ty)
        # (block index, instructions) of each segment; what follows a
        # terminator never runs, and a segment without one falls off its block
        self.segs: list[tuple[int, list[Instr]]] = []
        self.starts = []        # each block's first segment
        for b, block in enumerate(fn.blocks):
            self.starts.append(len(self.segs))
            seg, dead = [], False
            self.segs.append((b, seg))
            for ins in block.instrs:
                kind = type(ins)
                reads.update(op.name for op in ins.operands() if type(op) is Temp)
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
                dead = kind in (Br, Jmp, Ret)
                if kind is Call:
                    seg = []
                    self.segs.append((b, seg))
        self.starts.append(len(self.segs))
        self.labels = {block.label: b for b, block in enumerate(fn.blocks)}
        params = [name for name, _ in fn.params]
        self.read_params = [name for name in params if name in reads]
        self.spill = set(params) & {ins.defined_temp() for ins in fn.instructions()}
        self.fn_const = self.const(fn)
        self.order = {id(ins): k for k, ins in enumerate(fn.instructions())}
        self.slots = self.promote(params)

    def promote(self, params: list[str]) -> dict[str, Alloca]:
        """The promoted slots by temp: each alloca that runs in the entry
        block, which no branch enters, of an int, char or pointer, whose
        temp is defined there only and used only after it, as the address
        of loads and stores of that type."""
        fn, order = self.fn, self.order
        defs = [ins.defined_temp() for ins in fn.instructions()]
        if fn.blocks and any(fn.blocks[0].label in (getattr(ins, "label", None),
                             getattr(ins, "then_label", None), getattr(ins, "else_label", None))
                             for ins in fn.instructions()):
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
                         f" {_width(self.slots[x].ty)})" + "[0]" * (not self.live) for x in held)

    def note(self, name: str, ty: Type, kind: bool = True) -> None:
        """Notes a definition of `name` of type `ty`: its tag vector's width
        and, when `kind`, its value's kind."""
        try:
            w = _width(ty)
        except MachineTrap:     # not a value type
            w = None
        self.width[name] = w if self.width.get(name, w) == w else None
        if kind:
            k = None if w is None or isinstance(ty, Void) else _kind(ty)
            self.kinds[name] = k if self.kinds.get(name, k) == k else None

    def code(self):
        """The function compiled."""
        self.used, body = set(), []
        looped = any(type(ins) in (Br, Jmp) for _, instrs in self.segs for ins in instrs)
        if looped:
            body.append((1, "while True:", (0, 0)))
            self.dispatch(range(len(self.fn.blocks)), 2, body)
        elif self.fn.blocks:       # no branch: only the entry block runs
            self.block(0, 1, body)
        else:
            body.append((1, "raise MachineTrap('no terminator', detail="
                            f"{self.fn.name!r})", (0, 0)))
        entry = [f"{_local('v', p)} = t[{p!r}]" + (
            f"; {_local('g', p)} = tg[{p!r}]" if self.live else "") for p in self.read_params]
        if entry:
            self.used.update(("t", "tg") if self.live else ("t",))
        prologue = self.prologue() + ["n = m.instr_total", "b = m.step_budget"]
        prologue += ["s = 0"] * self.live + entry + ["i = 0"] * looped
        self.src = ["def F(m, f):"] + ["    " + s for s in prologue]
        self.src += ["    " * depth + line for depth, line, _ in body]
        self.lines = [(0, 0)] * (2 + len(prologue)) + [mark for _, _, mark in body]
        return self.namespace()["F"]

    def cut(self, i: int, j: int, local: dict):
        """Segment `i` cut to its first `j` instructions and then the budget
        trap on the next, as a function of the machine, the frame and the
        locals its function had when the budget ran out, `local`."""
        self.used = set()
        lines, marks, done, tail = self.instructions(self.segs[i][1][:j])
        if tail is not None:
            uid = self.segs[i][1][j].uid
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
        exec(_compiled("\n".join(self.src)), ns)
        return ns

    def prologue(self) -> list[str]:
        return [f"{name} = {value}" for name, value in _PROLOGUE if name in self.used]

    def dispatch(self, blocks: range, depth: int, body: list) -> None:
        """The lines running whichever of `blocks` is block `i`."""
        if len(blocks) > 1:
            mid = len(blocks) // 2
            body.append((depth, f"if i < {blocks[mid]}:", (0, 0)))
            self.dispatch(blocks[:mid], depth + 1, body)
            body.append((depth, "else:", (0, 0)))
            self.dispatch(blocks[mid:], depth + 1, body)
        else:
            self.block(blocks[0], depth, body)

    def block(self, b: int, depth: int, body: list) -> None:
        """The lines running block `b`, segment by segment; body gets
        (indent, line, mark) for each."""
        for j in range(self.starts[b], self.starts[b + 1]):
            instrs = self.segs[j][1]
            if instrs:      # the budget runs out here: run what fits elsewhere
                k = len(instrs)
                body.append((depth, f"if (n := n + {k}) > b: n -= {k}; m._cut("
                                    f"{self.fn_const}, {self.live}, {j}, f, locals())",
                             (0, 0)))
            lines, marks, done, tail = self.instructions(instrs)
            if tail is not None:
                lines += [f"s += {done}"] * bool(done) + (tail or [
                    f"raise MachineTrap('no terminator', detail={self.fn.blocks[b].label!r})"])
            body += [(depth, line, mark) for line, mark in
                     zip(lines, marks + [(0, 0)] * (len(lines) - len(marks)))]
            if tail is None:
                return

    def instructions(self, instrs: list[Instr]) -> tuple[list, list, int, Optional[list]]:
        """The lines of `instrs` up to the shadow count of one that ends a
        segment with their (instructions not run, shadow ops not counted),
        that count, and the lines after it; none after `instrs` that end
        without a terminator, None after one that cannot be decoded."""
        head, marks, done = [], [], 0
        for p, ins in enumerate(instrs):
            left = len(instrs) - p - 1
            try:
                lines = _EMIT.get(type(ins), _Writer.unknown)(self, ins)
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
        structs = self.image.module.structs
        sz = size_of(ins.ty, structs)
        align, zeros = ~(max(align_of(ins.ty, structs), 1) - 1), self.const(bytes(sz))
        self.used.update(("mem", "tm", "pages"))
        lines = [f"a = (m.stack_ptr - {sz}) & {align}",
                 f"if a <= m.heap_ptr: raise MachineTrap('stack overflow', {ins.uid!r})",
                 "m.stack_ptr = a", f"mem[a:a + {sz}] = {zeros}",
                 # allocation bookkeeping: a one-page frame zeroes only a present page
                 f"if (o := a & {PAGE - 1}) > {PAGE - sz}: tm.set_vector(a, {zeros})",
                 f"elif (p := pages.get(a >> {_PAGE_SHIFT})) is not None: p[o:o + {sz}] = {zeros}",
                 *self.define(ins.dest, "a", 8, tag="0")]
        if ins.dest in self.slots:      # zero, like its bytes; the range grows down
            lines.append(f"{_local('P', ins.dest)} = 0" + f"; {_local('T', ins.dest)} = _Z{sz}"
                         * self.live + ("; R_lo = a" if self.held(ins) else
                                        f"; R_lo, R_hi = a, a + {sz}"))
        return lines

    def load(self, ins: Load) -> list:
        w = _width(ins.ty)
        if type(ins.addr) is Temp and ins.addr.name in self.slots:
            x = ins.addr.name
            return self.define(ins.dest, _local("P", x), w, vec=_local("T", x))
        a, lines = self.atom(self.val(ins.addr, _PTR), "a")
        self.used.update(("mem", "tm", "pages") if self.live else ("mem",))
        return lines + [self.check(a, w, ins)] + self.overlap(
            a, w, ins, self.write_back) + self.define(
            ins.dest, f"_u{_fmt(ins.ty)}(mem, {a})[0]" if w else "0", w,
            vec=f"tm.get_vector({a}, {w}) if (o := {a} & {PAGE - 1}) > {PAGE - w} else _Z{w}"
                f" if (p := pages.get({a} >> {_PAGE_SHIFT})) is None else bytes(p[o:o + {w}])")

    def store(self, ins: Store) -> list:
        w = _width(ins.ty)
        slot = type(ins.addr) is Temp and ins.addr.name in self.slots and ins.addr.name
        a, lines = ("", []) if slot else self.atom(self.val(ins.addr, _PTR), "a")
        x = self.val(ins.value, _kind(ins.ty), wrap_globals=True)
        if slot:
            p, t = _local("P", slot), _local("T", slot)
            if not self.live:
                return [f"{p} = {x}"]
            g = self.vec(ins.value, w)      # a nonzero vector makes the page now
            self.used.add("pages")
            return [f"{p} = {x}", f"{t} = {g}"] + [
                f"if {t} != _Z{w} and (q := {_local('v', slot)} >> {_PAGE_SHIFT})"
                f" not in pages: pages[q] = bytearray({PAGE})"] * (g != f"_Z{w}")
        x, more = self.atom(x, "x")
        self.used.update(("mem", "dirty", "tm", "pages") if self.live else ("mem", "dirty"))
        lines += more + [self.check(a, w, ins), *self.overlap(a, w, ins, self.write_back),
                         f"_p{_fmt(ins.ty)}(mem, {a}, {x})",
                         f"dirty.add(q := {a} >> {_PAGE_SHIFT})"]
        cross = f"if (o := {a} & {PAGE - 1}) > {PAGE - w}: dirty.add(q + 1)"
        after = self.overlap(a, w, ins, self.read_back)
        if not self.live:
            return lines + [cross] * (w > 1) + after
        g, more = self.atom(self.vec(ins.value, w), "g")
        lines += more + [f"{cross}; tm.set_vector({a}, {g})",
                         f"elif (p := pages.get(q)) is not None: p[o:o + {w}] = {g}"]
        if g != f"_Z{w}":       # the page is made only for a nonzero vector
            lines.append(f"elif {g} != _Z{w}: p = pages[q] = bytearray({PAGE});"
                         f" p[o:o + {w}] = {g}")
        return lines + after

    def overlap(self, a: str, w: int, ins: Instr, then) -> list[str]:
        """The line running `then` of the slots held at `ins` when the `w`
        bytes at `a` overlap the frame's promoted range."""
        held = self.held(ins)
        return [f"if R_lo - {w} < {a} < R_hi: {then(held)}"] if held else []

    def gep(self, ins: Gep) -> list:
        structs, t, off = self.image.module.structs, ins.base_ty, 0
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
                terms.append(f"{self.val(idx, _I64)} * {stride}")
            else:
                off += self.konst(idx, _I64) * stride
        terms.insert(1, _lit(off))
        tags = [self.tag(op, 8) for op in (ins.base, *ins.indices) if type(op) is Temp]
        return self.define(ins.dest, f"({' + '.join(terms)}) & {_MASK64:#x}", 8,
                           tag=" | ".join(tags) or "0")

    def binop(self, ins: BinOp) -> list:
        kind, w, op, uid = _kind(ins.ty), _width(ins.ty), ins.op, repr(ins.uid)
        a, b = self.val(ins.lhs, kind), self.val(ins.rhs, kind)
        if op == "cmp":
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
            bias, mask = kind
            e = f"(({e}) + {bias} & {mask:#x}) - {bias}" if bias else f"({e}) & {mask:#x}"
        tags = [t for t in (self.tag(ins.lhs, w), self.tag(ins.rhs, w)) if t != "0"]
        return self.define(ins.dest, e, w, tag=" | ".join(tags) or "0")

    def br(self, ins: Br) -> list:
        then, other = self.target(ins.then_label, ins), self.target(ins.else_label, ins)
        return [_COUNT, f"i = {then} if {self.val(ins.cond, _I64)} != 0 else {other}"]

    def jmp(self, ins: Jmp) -> list:
        return [_COUNT, f"i = {self.target(ins.label, ins)}"]

    def call(self, ins: Call) -> list:
        callee = self.image.module.functions.get(ins.callee)
        if callee is None:
            raise MachineTrap("unresolved callee", ins.uid, f"@{ins.callee}")
        if len(ins.args) < len(callee.params):      # a parameter no argument defines
            raise _undefined(callee.params[len(ins.args)][0])
        pairs = list(zip(callee.params, ins.args))
        args = ", ".join(self.val(op, _kind(pty), True) for (_, pty), op in pairs)
        lines = [f"args = [{args}]"]
        temps = list(dict.fromkeys(op.name for op in ins.args if type(op) is Temp))
        vecs, after = "()", []
        if self.live:       # the temp arguments' tag vectors go round through f.tags
            lines.append("vecs = [" + ", ".join(self.vec(op, _width(pty))
                                                for (_, pty), op in pairs) + "]")
            lines += [f"tg[{x!r}] = {_local('g', x)}" for x in temps]
            after = [f"{_local('g', x)} = tg[{x!r}]" for x in temps]
            vecs = "vecs"
            self.used.add("tg")
        run = "c.code(m, c)"
        if ins.dest:
            run = f"{_local('v', ins.dest)} = {run}"
            if self.live:
                w = _width(callee.ret_ty)
                after.append(f"{_local('g', ins.dest)} = _resize(m.ret_shadow or _Z{w}, {w})")
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

    def check(self, a: str, w: int, ins: Instr) -> str:
        """The bounds check of a `w`-byte access at `a`."""
        return (f"if not {GLOBALS_BASE} <= {a} <= {self.image.mem_size - w}:"
                f" m._check_bounds({a}, {w}, {ins.uid!r})")

    def define(self, name: str, value: str, width: int, vec: str = "",
               tag: str = "") -> list[str]:
        """Lines binding temp `name` to `value` and, when tracked, to a tag
        vector of `width` bytes: `vec`, or the splat of the int tag `tag`."""
        v, g = _local("v", name), _local("g", name)
        lines = [f"{v} = {value}"] + [f"{g} = {vec or f'_S{width}[{tag}]'}"] * self.live
        if name in self.spill:      # a redefined parameter, which rule sources read
            lines.append(f"t[{name!r}] = {v}")
            self.used.add("t")
        return lines

    def konst(self, op: Operand, kind, wrap_globals: bool = False):
        """A constant or global operand's value as a `kind` value; a
        global's address is used as it is unless `wrap_globals`."""
        if type(op) is GlobalRef:
            v = self.image.global_addr[op.name]
            return _wrap(v, kind) if wrap_globals else v
        return _wrap(op.value, kind)

    def val(self, op: Operand, kind, wrap_globals: bool = False) -> str:
        """An expression of the operand as a `kind` value."""
        if type(op) is not Temp:
            return _lit(self.konst(op, kind, wrap_globals))
        e, have = _local("v", op.name), self.kinds.get(op.name)
        if have == kind:        # its producer normalized it
            return e
        if kind == "f":
            return f"float({e})"
        bias, mask = kind
        e = e if isinstance(have, tuple) else f"int({e})"
        return f"(({e} + {bias} & {mask:#x}) - {bias})" if bias else f"({e} & {mask:#x})"

    def vec(self, op: Operand, w: int) -> str:
        """An expression of the operand's tag vector resized to `w` bytes."""
        if type(op) is not Temp:
            return f"_Z{w}"
        g = _local("g", op.name)
        return g if self.width.get(op.name) == w else f"_resize({g}, {w})"

    def tag(self, op: Operand, w: int) -> str:
        """An expression of the fold of the operand's tag vector resized to
        `w` (>= 1) bytes."""
        if type(op) is not Temp:
            return "0"
        g, width = _local("g", op.name), self.width.get(op.name)
        return f"_U[{g}]" if width is not None and width <= w else f"_tag({g}, {w})"

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

# (id of module, id of function, live, mem_size) -> (module, code), least
# recently used first.  An entry holds its module, and through it the
# function, so neither id is reused while it lives; the parsed IR is
# immutable, so an entry never goes stale.
CODE_TABLE_SIZE = 256
_code_table: dict[tuple, tuple] = {}


def _shared_code(image: "Image", fn: Function, live: bool):
    """`fn`'s code from the process-wide table, written on a miss."""
    key = (id(image.module), id(fn), live, image.mem_size)
    hit = _code_table.pop(key, None)
    if hit is None:
        hit = (image.module, _Writer(image, fn, live).code())
    _code_table[key] = hit
    while len(_code_table) > CODE_TABLE_SIZE:
        del _code_table[next(iter(_code_table))]
    return hit[1]


# ---------------------------------------------------------------------------
# The module image
# ---------------------------------------------------------------------------

class Image:
    """What no run changes, built once and shared by every machine made from
    it: the global layout, each function's compiled code and the rule
    programs bound to the module.  It holds no machine, so a machine is
    freed by reference counting while its image lives on.  Raises
    ValueError when the globals reach past the lower half of `mem_size`,
    which is the heap's."""

    def __init__(self, module: Module,
                 rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
                 mem_size: int = DEFAULT_MEMORY):
        self.module = module
        self.rules = dict(rule_programs or {})
        self.mem_size = mem_size
        self.global_addr: dict[str, int] = {}
        self.inits: list[tuple[int, bytes]] = []    # copied into each memory
        addr, structs = GLOBALS_BASE, module.structs
        for g in module.globals.values():
            addr = align_up(addr, max(align_of(g.ty, structs), 1))
            self.global_addr[g.name] = addr
            if g.init:
                self.inits.append((addr, g.init))
            addr += size_of(g.ty, structs)
        self.globals_end = addr
        self.heap_start = align_up(addr, 16)
        if self.heap_start > mem_size // 2:
            raise ValueError(f"the globals need 0x{self.heap_start:x} bytes, more than"
                             f" half of mem_size 0x{mem_size:x}")
        # (function name, tracked) -> its code, taken from the shared table
        # at the first frame that runs it
        self.code: dict[tuple[str, bool], object] = {}
        self._bound: dict[str, tuple[TaintRuleProgram, tuple]] = {}

    def compiled(self, fn: Function, live: bool):
        code = self.code.get((fn.name, live))
        if code is None:
            code = self.code[fn.name, live] = _shared_code(self, fn, live)
        return code

    def bound(self, prog: TaintRuleProgram) -> tuple:
        """`prog`'s steps as (entry, op, kind, where, offset, nbytes, max_len),
        kind "ret", "nu" (by-value scalar argument `where`), "arg" (memory
        behind pointer argument `where`, plus `offset`) or "mem" (at `offset`)."""
        hit = self._bound.get(prog.function)
        if hit is None or hit[0] is not prog:
            module, steps = self.module, []
            for step in prog.steps:
                slot, where, off = step.slot, step.slot.index, 0
                if slot.kind == "ret":
                    kind = "ret"
                elif slot.kind == "global":
                    kind, off = "mem", self.global_addr[slot.name]
                    base_ty = module.globals[slot.name].ty
                elif slot.field_path or isinstance(slot.ty, Ptr):
                    kind = "arg"
                    base_ty = module.functions[prog.function].params[where][1]
                else:
                    kind = "nu"
                if slot.field_path:
                    off += field_path_offset(base_ty, slot.field_path, module.structs)[0]
                op = {READ_OUT: "read", SET_FIXED: "set", SET_STRING: "set"}.get(
                    step.op, "gather")
                steps.append((step.entry, op, kind, where, off, step.nbytes, step.max_len))
            hit = self._bound[prog.function] = (prog, tuple(steps))
        return hit[1]


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

class Machine:
    """The state of one run: memory, Tagmap, frames and counters.  The first
    argument is an `Image`, or a `Module` to build one from; an image fixes
    the rule programs and the memory size."""

    def __init__(self, image: Image | Module, *, mode: str = "instr",
                 rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
                 taint_config: Optional[TaintConfig] = None,
                 mem_size: Optional[int] = None,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 default_len: int = DEFAULT_STRING_CAP):
        if mode not in ("instr", "hybrid"):
            raise ValueError(f"unknown mode {mode!r}")
        if isinstance(image, Module):
            image = Image(image, rule_programs,
                          DEFAULT_MEMORY if mem_size is None else mem_size)
        elif rule_programs is not None or mem_size is not None:
            raise ValueError("an image fixes the rule programs and memory size")
        self.image, self.module, self.mode = image, image.module, mode
        # in instr mode no rule ever fires
        self.rules = image.rules if mode == "hybrid" else {}
        self.cfg = taint_config or TaintConfig()
        self.mem_size = image.mem_size
        self.memory = Memory(image.mem_size)
        for addr, init in image.inits:
            self.memory[addr:addr + len(init)] = init
        self.global_addr, self.globals_end = image.global_addr, image.globals_end
        self.heap_ptr, self.stack_ptr = image.heap_start, image.mem_size
        self.tagmap, self.ret_shadow = Tagmap(), b""
        self.step_budget = step_budget
        self.default_len = default_len
        self.live = True        # false while a rule-firing call runs
        self._unins_from = 0    # the instruction count when it last fell
        self.exit_value = 0     # what the last return returned
        self.shadow_ops_instr = self.shadow_ops_rules = 0
        self.instr_total = self.instr_unins = 0
        self.sink_hits: list[SinkHit] = []
        self._frames: list[_Frame] = []
        self._sources, self._sinks = {}, {}
        for s in self.cfg.sources + self.cfg.sinks:
            by_fn = self._sources if isinstance(s, SourceSpec) else self._sinks
            by_fn.setdefault(s.fn, []).append(s)

    # -- memory ----------------------------------------------------------------

    def alloc(self, n: int, align: int = 8) -> int:
        addr = align_up(self.heap_ptr, align)
        if addr + n >= self.mem_size // 2:
            raise MachineTrap("out of scratch memory")
        self.heap_ptr = addr + n
        return addr

    def _check_bounds(self, addr: int, sz: int, uid: Optional[str]) -> None:
        if addr < GLOBALS_BASE or addr + sz > self.mem_size:
            raise MachineTrap("out-of-bounds access", uid,
                              f"addr=0x{addr:x} size={sz}")

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check_bounds(addr, len(data), None)
        self.memory[addr:addr + len(data)] = data

    def read_bytes(self, addr: int, n: int) -> bytes:
        self._check_bounds(addr, n, None)
        return self.memory[addr:addr + n]

    def scan_string(self, addr: int, cap: int) -> int:
        """Byte extent of a NUL-terminated region: terminator included,
        capped at `cap` when no terminator shows up."""
        end = min(addr + cap, self.mem_size)
        i = self.memory.find(b"\0", addr, end)
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
        args = [_wrap(a, _kind(t)) for a, (_, t) in zip(args, fn.params)]
        vecs = [_resize_vec(bytes(arg_tags[i]), _width(pty))
                if arg_tags is not None and arg_tags[i] else bytes(_width(pty))
                for i, (_, pty) in enumerate(fn.params)]
        self._check_sinks(fn.name, args, vecs, "<entry>")
        self._frames.append(self._make_frame(fn, args, vecs, call_ins=None))
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
                      self.image.compiled(fn, self.live), record)

    def _call(self, callee: Function, args: list, vecs, ins: Call) -> _Frame:
        """Enters `callee` from `ins`; the caller runs the frame's code."""
        self._check_sinks(callee.name, args, vecs, ins.uid)
        frame = self._make_frame(callee, args, vecs, ins)
        self._frames.append(frame)
        return frame

    def _check_sinks(self, fn_name: str, args, vecs, call_uid: str) -> None:
        if not self.live or fn_name not in self._sinks:
            return
        fn = self.module.functions[fn_name]
        for spec in self._sinks[fn_name]:
            i = spec.index
            if i >= len(args):
                continue
            region = self._param_region(fn.params[i][1], args[i])
            tag = _fold(vecs[i]) if region is None else self.tagmap.get_taint(*region)
            if tag:
                self.sink_hits.append(SinkHit(fn_name, tag, call_uid))

    def _apply_sources(self, frame: _Frame, caller: Optional[_Frame]) -> None:
        if not self.live:
            return
        for spec in self._sources.get(frame.fn.name, ()):
            if spec.where == "ret":
                w = len(self.ret_shadow) or _width(frame.fn.ret_ty)
                self.ret_shadow = bytes(
                    b | spec.label for b in _resize_vec(self.ret_shadow, w))
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
                    caller.tags[op.name] = bytes(
                        b | spec.label for b in _resize_vec(vec, _width(pty)))

    def _param_region(self, ty: Type, value) -> Optional[tuple[int, int]]:
        """Shadow region named by a pointer-typed parameter value, as a rule
        step on the parameter would cover it; None for scalars (their taint
        lives in the value shadow) and for an unresolvable pointee."""
        if not isinstance(ty, Ptr) or not isinstance(value, int) or value == 0:
            return None
        try:
            kind, n = slot_extent(SlotRef("param", ty=ty), self.module)
        except RuleGenError:
            return None
        return (value, self.scan_string(value, self.default_len) if kind == "string" else n)

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
        """Runs the prefix of segment `i` of `fn`'s code that the step budget
        leaves, from the locals its budget check failed with, and traps."""
        _Writer(self.image, fn, live).cut(i, self.step_budget - local["n"], local)(
            self, frame, local)

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
    """Execute a compiled rule program, bound to the machine's image,
    against the shadow state using the argument values recorded at call
    entry.  Each region covers the step's `nbytes`, or the string scanned at
    application time up to `max_len`; a null pointer makes its step a no-op."""
    steps, tagmap, current = machine.image.bound(prog), machine.tagmap, -1
    machine.shadow_ops_rules += len(steps)
    for entry, op, kind, where, off, nbytes, max_len in steps:
        if entry != current:
            current, acc, out_tag = entry, 0, 0
        if kind == "arg" or kind == "mem":
            addr = off
            if kind == "arg":
                if arg_record[where][0] == 0:
                    continue
                addr += arg_record[where][0]
            n = nbytes if nbytes is not None else machine.scan_string(addr, max_len)
            if op == "set":
                tagmap.set_taint(addr, out_tag | acc, n)
                continue
            tag = tagmap.get_taint(addr, n)
        elif op == "set":       # by-value scalars have no caller-visible cell
            if kind == "ret":
                machine.ret_shadow = bytes([out_tag | acc]) * nbytes
            continue
        else:
            tag = _fold(machine.ret_shadow if kind == "ret" else arg_record[where][1])
        if op == "read":
            out_tag = tag
        else:
            acc |= tag


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
