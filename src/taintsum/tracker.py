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

import functools
import json
import math
import mmap
import operator
import struct as _struct
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .ir import (
    Alloca, Array, BinOp, Br, Call, Char, Float, Function, Gep, GlobalRef,
    Instr, Int, Jmp, Load, Module, Operand, Ptr, Ret, Store, StructRef, Temp,
    Type, Void, align_of, align_up, field_offset, field_path_offset, size_of,
    validate_module,
)
from .rules import READ_OUT, SET_FIXED, SET_STRING, TaintRuleProgram

_PAGE_SHIFT = 12
PAGE = 1 << _PAGE_SHIFT
GLOBALS_BASE = 0x1000
DEFAULT_MEMORY = 16 * 1024 * 1024
DEFAULT_STEP_BUDGET = 10 ** 8
DEFAULT_MAX_FRAMES = 512


class MachineTrap(Exception):
    def __init__(self, kind: str, instr: Optional[str] = None, detail: str = ""):
        self.kind = kind
        self.instr = instr
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
        lacks, or on a parameter index at or beyond the function's arity."""
        for spec in self.sources + self.sinks:
            fn = module.functions.get(spec.fn)
            if fn is None:
                raise ValueError(f"taint config names @{spec.fn}, which the"
                                 " module does not define")
            i = spec.index or 0
            if (isinstance(spec, SinkSpec) or spec.where == "param") and i >= len(fn.params):
                raise ValueError(f"taint config names parameter {i} of @{fn.name},"
                                 f" which takes {len(fn.params)}")


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
    temps: dict[str, object]
    tags: dict[str, bytes]
    stack_mark: int
    call_ins: Optional[Call]
    code: list[list[Handler]]       # fn decoded, tracked or untracked
    # argument values and tags at entry; set only on a rule-firing frame
    arg_record: Optional[list[tuple[object, bytes]]] = None
    block: int = 0
    pc: int = 0


class _Temps(dict):
    """A frame's temporaries; reading one not yet defined traps."""

    def __missing__(self, name: str):
        raise MachineTrap("undefined temporary", detail=f"%{name}")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------
#
# An image decodes each function its machines enter, once, into per-block
# lists of handlers `h(machine, frame)` with what the instruction fixes
# resolved: operand readers, widths, masks, formats, gep strides and offsets,
# block indices, the temps whose tags it folds.  A handler returns None to
# stay in its frame, 0 after a call and the value after a return.  It never
# holds a machine, so the image keeps none alive.

Handler = Callable[["Machine", "_Frame"], Optional[int]]
_MASK64 = 2 ** 64 - 1
_PTR, _I64 = (0, _MASK64), (1 << 63, _MASK64)
_Z1 = b"\0"
_F32 = _struct.Struct("<f")


@functools.cache
def _tag_tables() -> tuple[list, dict]:
    """The uniform tag vectors of 0 to 8 bytes by width and tag, and the
    tag of each one that is not empty."""
    splat = [tuple(bytes([t]) * w for t in range(256)) for w in range(9)]
    return splat, {vec: t for row in splat[1:] for t, vec in enumerate(row)}


def _tag(uniform: dict, vec: bytes, w: int) -> int:
    """The fold of a value's tag vector resized to `w` (>= 1) bytes."""
    t = uniform.get(vec)
    return _fold(vec[:w]) if t is None else t


def _codec(ty: Type) -> tuple[int, Callable, Callable]:
    """(width, unpack_from, pack_into) of `ty` in memory, for the 8- to
    64-bit ints the parser admits; pack_into takes a value normalized to
    `ty`."""
    w = _width(ty)
    if not w:       # void: nothing to move, and it reads as 0
        return 0, lambda mem, a: (0,), lambda mem, a, v: None
    if isinstance(ty, Float):
        s = _struct.Struct("<f" if ty.bits == 32 else "<d")
    else:
        fmt = "bhiq"[w.bit_length() - 1]
        s = _struct.Struct("<" + (fmt if getattr(ty, "signed", False) else fmt.upper()))
    return w, s.unpack_from, s.pack_into


def _temp_kinds(fn: Function, functions) -> dict:
    """The kind of value each temp holds; None where its definitions differ."""
    defs = list(fn.params)
    for i in fn.instructions():
        if isinstance(i, (Gep, Alloca)):
            defs.append((i.dest, Ptr(Void())))     # an address
        elif isinstance(i, (Load, BinOp)):
            defs.append((i.dest, i.ty))
        elif isinstance(i, Call) and i.dest and i.callee in functions:
            defs.append((i.dest, functions[i.callee].ret_ty))
    kinds: dict = {}
    for name, ty in defs:
        try:
            k = _kind(ty)
        except AttributeError:      # not a value type
            k = None
        kinds[name] = k if kinds.get(name, k) == k else None
    return kinds


def _idiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)        # ZeroDivisionError when b == 0
    return -q if (a < 0) != (b < 0) else q


_INT_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": _idiv, "rem": lambda a, b: a - _idiv(a, b) * b, "and": operator.and_,
    "or": operator.or_, "xor": operator.xor, "cmp": operator.eq}
_FLOAT_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": lambda a, b: (a / b if b != 0.0 else
                         math.copysign(math.inf, a) if a else math.nan),
    "rem": lambda a, b: math.fmod(a, b) if b != 0.0 else math.nan,
    "cmp": lambda a, b: 1.0 if a == b else 0.0}


def _calc(ins: BinOp, kind) -> Callable:
    """`ins`'s operation on two operand values, the result normalized."""
    uid = ins.uid

    def trap(a, b):
        raise MachineTrap("float bit operation" if kind == "f" else "unknown op", uid)
    if kind == "f":
        f = _FLOAT_OPS.get(ins.op, trap)
        return f if ins.ty.bits != 32 or ins.op == "cmp" else (
            lambda a, b: _F32.unpack(_F32.pack(f(a, b)))[0])
    bias, mask = kind
    sh = mask.bit_length() - 1      # shift counts wrap at the width
    f = {"shl": lambda a, b: a << (b & sh),
         "shr": lambda a, b: a >> (b & sh),     # arithmetic for signed, logical otherwise
         }.get(ins.op) or _INT_OPS.get(ins.op, trap)

    def calc(a, b):
        try:
            return ((f(a, b) + bias) & mask) - bias
        except ZeroDivisionError:
            raise MachineTrap("division by zero", uid) from None
    return calc


def _decoded_or_deferred(ins: Instr, fn: Function, live: bool, env) -> Handler:
    """The instruction's handler.  One that cannot be decoded (no width, a
    malformed gep, an unresolved callee, ...) is decoded again each time it
    runs, and so raises then what running the instruction raises."""
    try:
        return _decode(ins, fn, live, env)
    except Exception:
        return lambda m, f: _decode(ins, fn, live, env)(m, f)


def _decode(ins: Instr, fn: Function, live: bool, env) -> Handler:
    """The handler of one instruction; tracked when `live`."""
    labels, kinds, global_addr, module, mem_size = env
    uid, dest = ins.uid, getattr(ins, "dest", None)
    splat, uniform = _tag_tables()

    def val(op: Operand, kind, wrap_globals: bool = False):
        """A reader of the operand as a `kind` value; a global's address is
        used as it is unless `wrap_globals`."""
        if isinstance(op, Temp):
            name = op.name
            if kinds.get(name) == kind:     # its producer normalized it
                return operator.itemgetter(name)
            return lambda t: _wrap(t[name], kind)
        v = global_addr[op.name] if isinstance(op, GlobalRef) else op.value
        v = _wrap(v, kind) if wrap_globals or not isinstance(op, GlobalRef) else v
        return lambda t: v

    def key(op: Operand) -> Optional[str]:
        return op.name if isinstance(op, Temp) else None

    if isinstance(ins, Alloca):
        sz = size_of(ins.ty, module.structs)
        align, zeros = ~(max(align_of(ins.ty, module.structs), 1) - 1), bytes(sz)

        def alloca(m, f):
            addr = (m.stack_ptr - sz) & align
            if addr <= m.heap_ptr:
                raise MachineTrap("stack overflow", uid)
            m.stack_ptr = addr
            m.memory[addr:addr + sz] = zeros
            m.tagmap.set_vector(addr, zeros)    # allocation bookkeeping
            f.temps[dest], f.tags[dest] = addr, splat[8][0]
            f.pc += 1
        return alloca
    if isinstance(ins, (Load, Store)):
        w, unpack, pack = _codec(ins.ty)
        hi, ra, last = mem_size - w, val(ins.addr, _PTR), max(w - 1, 0)
    if isinstance(ins, Load):
        def load(m, f):
            addr = ra(f.temps)
            if not GLOBALS_BASE <= addr <= hi:
                m._check_bounds(addr, w, uid)
            f.temps[dest] = unpack(m.memory, addr)[0]
            if live:
                f.tags[dest] = m.tagmap.get_vector(addr, w)
                m.shadow_ops_instr += 1
            f.pc += 1
        return load
    if isinstance(ins, Store):
        rv, kv = val(ins.value, _kind(ins.ty), wrap_globals=True), key(ins.value)

        def store(m, f):
            addr, v = ra(f.temps), rv(f.temps)
            if not GLOBALS_BASE <= addr <= hi:
                m._check_bounds(addr, w, uid)
            mem = m.memory
            pack(mem, addr, v)
            mem.dirty.add(addr >> _PAGE_SHIFT)
            mem.dirty.add((addr + last) >> _PAGE_SHIFT)
            if live:
                m.tagmap.set_vector(addr, _resize_vec(f.tags.get(kv, _Z1), w))
                m.shadow_ops_instr += 1
            f.pc += 1
        return store
    if isinstance(ins, Gep):
        structs, t, off = module.structs, ins.base_ty, 0
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
                raise MachineTrap("malformed gep", uid)
        base, terms = val(ins.base, _PTR), []
        for idx, stride in strides:
            if isinstance(idx, Temp):
                terms.append((val(idx, _I64), stride))
            else:       # a constant's reader ignores the temps
                off += val(idx, _I64)(None) * stride
        keys = [k for k in map(key, (ins.base, *ins.indices)) if k is not None]

        def gep(m, f):
            t = f.temps
            addr = base(t) + off
            for r, stride in terms:
                addr += r(t) * stride
            t[dest] = addr & _MASK64
            if live:
                tags, tag = f.tags, 0
                for k in keys:
                    tag |= _tag(uniform, tags.get(k, _Z1), 8)
                tags[dest] = splat[8][tag]
                m.shadow_ops_instr += 1
            f.pc += 1
        return gep
    if isinstance(ins, BinOp):
        kind = _kind(ins.ty)
        calc, ra, rb = _calc(ins, kind), val(ins.lhs, kind), val(ins.rhs, kind)
        ka, kb, w = key(ins.lhs), key(ins.rhs), _width(ins.ty)
        vecs = splat[w]

        def binop(m, f):
            t = f.temps
            t[dest] = calc(ra(t), rb(t))
            if live:
                tags = f.tags
                tags[dest] = vecs[_tag(uniform, tags.get(ka, _Z1), w)
                                  | _tag(uniform, tags.get(kb, _Z1), w)]
                m.shadow_ops_instr += 1
            f.pc += 1
        return binop
    if isinstance(ins, Br):     # a label the function lacks fails when taken
        rc, then_b = val(ins.cond, _I64), labels.get(ins.then_label)
        else_b = labels.get(ins.else_label)

        def br(m, f):
            f.block = then_b if rc(f.temps) != 0 else else_b
            f.pc = 0
        return br
    if isinstance(ins, Jmp):
        target = labels.get(ins.label)

        def jmp(m, f):
            f.block, f.pc = target, 0
        return jmp
    if isinstance(ins, Call):
        callee = module.functions.get(ins.callee)
        if callee is None:
            raise MachineTrap("unresolved callee", uid, f"@{ins.callee}")
        pairs = list(zip(callee.params, ins.args))
        readers = [val(op, _kind(pty)) for (_, pty), op in pairs]
        vec_of = [(key(op), _width(pty)) for (_, pty), op in pairs] if live else []
        counted = int(live and bool(ins.args))

        def call(m, f):
            args = [r(f.temps) for r in readers]
            vecs = [_resize_vec(f.tags.get(k, _Z1), w) for k, w in vec_of]
            m.shadow_ops_instr += counted
            m._check_sinks(callee.name, args, vecs, uid)
            f.pc += 1
            m._frames.append(m._make_frame(callee, args, vecs, ins))
            return 0
        return call
    if isinstance(ins, Ret):
        has = ins.value is not None
        rv = val(ins.value, _kind(fn.ret_ty)) if has else (lambda t: 0)
        kv, w = (key(ins.value), _width(fn.ret_ty)) if has and live else (None, 0)

        def ret(m, f):
            value = rv(f.temps)
            if live:
                m.ret_shadow = _resize_vec(f.tags.get(kv, _Z1), w) if has else b""
                m.shadow_ops_instr += has
            return m._do_ret(f, value)
        return ret
    raise MachineTrap("unknown instruction", uid)


# ---------------------------------------------------------------------------
# The module image
# ---------------------------------------------------------------------------

class Image:
    """What no run changes, built once and shared by every machine made from
    it: the global layout, each function's handler tables and the rule
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
        # (function name, tracked) -> its blocks as handler lists, decoded
        # at the first frame that runs them
        self.code: dict[tuple[str, bool], list[list[Handler]]] = {}
        self._bound: dict[str, tuple[TaintRuleProgram, tuple]] = {}

    def decoded(self, fn: Function, live: bool) -> list[list[Handler]]:
        code = self.code.get((fn.name, live))
        if code is None:
            env = ({b.label: i for i, b in enumerate(fn.blocks)},
                   _temp_kinds(fn, self.module.functions),
                   self.global_addr, self.module, self.mem_size)
            code = self.code[fn.name, live] = [
                [_decoded_or_deferred(ins, fn, live, env) for ins in b.instrs]
                for b in fn.blocks]
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
    argument is an `Image`, or a `Module` to build a private one from; an
    image fixes the rule programs and the memory size."""

    def __init__(self, image: Image | Module, *, mode: str = "instr",
                 rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
                 taint_config: Optional[TaintConfig] = None,
                 mem_size: Optional[int] = None,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 max_frames: int = DEFAULT_MAX_FRAMES,
                 default_len: int = 64):
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
        self.step_budget, self.max_frames = step_budget, max_frames
        self.default_len = default_len
        self.live = True        # false while a rule-firing call runs
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

    def read_value(self, ty: Type, addr: int, uid: Optional[str] = None):
        w, unpack, _ = _codec(ty)
        self._check_bounds(addr, w, uid)
        return unpack(self.memory, addr)[0]

    def write_value(self, ty: Type, addr: int, value, uid: Optional[str] = None):
        w, _, pack = _codec(ty)
        self._check_bounds(addr, w, uid)
        pack(self.memory, addr, _wrap(value, _kind(ty)) if w else None)
        self.memory.mark(addr, w)

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
        returns its (integer) result, 0 for void."""
        fn = self.module.functions.get(fn_name)
        if fn is None:
            raise MachineTrap("unknown entry function", detail=fn_name)
        if len(args) != len(fn.params):
            raise MachineTrap("entry argument count mismatch",
                              detail=f"{fn_name} wants {len(fn.params)}")
        vecs = [_resize_vec(arg_tags[i], _width(pty))
                if arg_tags is not None and arg_tags[i] else bytes(_width(pty))
                for i, (_, pty) in enumerate(fn.params)]
        self._check_sinks(fn.name, [_wrap(a, _kind(t)) for a, (_, t) in
                                    zip(args, fn.params)], vecs, "<entry>")
        self._frames.append(self._make_frame(fn, list(args), vecs, call_ins=None))
        return self._run_loop()

    def _make_frame(self, fn: Function, args: Sequence[object],
                    vecs: Sequence[bytes], call_ins: Optional[Call]) -> _Frame:
        if len(self._frames) >= self.max_frames:
            raise MachineTrap("stack overflow (frame cap)",
                              call_ins.uid if call_ins else None)
        temps = _Temps((p, _wrap(v, _kind(t))) for (p, t), v in zip(fn.params, args))
        tags = dict(zip((p for p, _ in fn.params), vecs))
        record = None
        if self.live and fn.name in self.rules:
            record = [(temps[p], tags[p]) for p, _ in fn.params]
            self.live = False
        return _Frame(fn, temps, tags, self.stack_ptr, call_ins,
                      self.image.decoded(fn, self.live), record)

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
        """Shadow region named by a pointer-typed parameter value; None for
        scalars (their taint lives in the value shadow)."""
        if not isinstance(ty, Ptr) or not isinstance(value, int) or value == 0:
            return None
        pointee = ty.pointee
        if isinstance(pointee, (Char, Void)):
            return (value, self.scan_string(value, self.default_len))
        try:
            return (value, size_of(pointee, self.module.structs))
        except Exception:
            return None

    # -- interpreter -------------------------------------------------------------

    def _run_loop(self) -> int:
        frames, budget, n = self._frames, self.step_budget, self.instr_total
        try:
            while frames:
                frame = frames[-1]
                code, live, start, ret = frame.code, self.live, n, None
                try:
                    while ret is None:      # until this frame calls or returns
                        n += 1
                        if n > budget:
                            ins = frame.fn.blocks[frame.block].instrs[frame.pc]
                            raise MachineTrap("step budget exhausted", ins.uid)
                        ret = code[frame.block][frame.pc](self, frame)
                finally:
                    if not live:    # the budget trap's instruction never ran
                        self.instr_unins += n - start - (n > budget)
        finally:
            self.instr_total = n
        return ret

    def _do_ret(self, frame: _Frame, value) -> int:
        fn = frame.fn
        self.stack_ptr = frame.stack_mark
        self._frames.pop()
        caller = self._frames[-1] if self._frames else None
        if frame.arg_record is not None:
            self.live = True
            self.ret_shadow = b""     # the untracked body's `ret` set none
            apply_rule_program(self.rules[fn.name], frame.arg_record, self)
        self._apply_sources(frame, caller)
        if caller is not None and frame.call_ins is not None:
            dest = frame.call_ins.dest
            if dest is not None:
                caller.temps[dest] = _wrap(value, _kind(fn.ret_ty))
                if self.live:
                    w = _width(fn.ret_ty)
                    caller.tags[dest] = _resize_vec(self.ret_shadow or bytes(w), w)
        return int(value)


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
        fallback: Sequence[str] = (), **machine_kw) -> RunReport:
    """Validate, check the taint config, execute, and report.  In hybrid
    mode every library function must either carry a rule program or be
    listed in `fallback` (falling back to instruction-level tracking)."""
    diags = validate_module(module)
    if diags:
        raise ValueError("module is not well-formed: "
                         + "; ".join(str(d) for d in diags[:5]))
    if cfg is not None:
        cfg.check(module)
    rule_programs = dict(rule_programs or {})
    if mode == "hybrid":
        missing = [f.name for f in module.library_functions()
                   if f.name not in rule_programs and f.name not in fallback]
        if missing:
            raise ValueError(
                "hybrid mode needs rules or an explicit fallback for: "
                + ", ".join(sorted(missing)))
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
