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

import json
import math
import struct as _struct
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Mapping, Optional, Sequence

from .ir import (
    Alloca, Array, BinOp, Br, Call, Char, ConstInt, Float, Function, Gep,
    GlobalRef, Instr, Int, Jmp, Load, Module, Operand, Ptr, Ret, Store,
    StructRef, Temp, Type, Void, align_of, align_up, field_offset,
    field_path_offset, size_of, validate_module,
)
from .rules import READ_OUT, SET_FIXED, SET_STRING, TaintRuleProgram

PAGE = 4096
GLOBALS_BASE = 0x1000
DEFAULT_MEMORY = 16 * 1024 * 1024
DEFAULT_STEP_BUDGET = 10 ** 8
DEFAULT_MAX_FRAMES = 512
_COND_TY = Int(64)


class MachineTrap(Exception):
    def __init__(self, kind: str, instr: Optional[str] = None, detail: str = ""):
        self.kind = kind
        self.instr = instr
        msg = kind + (f" at {instr}" if instr else "")
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


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
        out = bytearray(sz)
        for pno, off, i, n in self._pieces(addr, sz):
            page = self.pages.get(pno)
            if page is not None:
                out[i:i + n] = page[off:off + n]
        return bytes(out)

    def set_vector(self, addr: int, vec: bytes) -> None:
        for pno, off, i, n in self._pieces(addr, len(vec)):
            piece = vec[i:i + n]
            page = self.pages.get(pno)
            if page is None:
                if not any(piece):
                    continue
                page = self.pages[pno] = bytearray(PAGE)
            page[off:off + n] = piece

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


def _norm_int(v: int, ty: Type) -> int:
    if isinstance(ty, Char):
        return v & 0xFF
    if isinstance(ty, Ptr):
        return v & (2 ** 64 - 1)
    bits = ty.bits
    v &= (1 << bits) - 1
    if ty.signed and v >= 1 << (bits - 1):
        v -= 1 << bits
    return v


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


@dataclass
class _Frame:
    fn: Function
    temps: dict[str, object]
    tags: dict[str, bytes]
    block: int
    pc: int
    stack_mark: int
    call_ins: Optional[Call]
    # argument values and tags at entry; set only on a rule-firing frame
    arg_record: Optional[list[tuple[object, bytes]]] = None


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

class Machine:
    def __init__(self, module: Module, *, mode: str = "instr",
                 rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
                 taint_config: Optional[TaintConfig] = None,
                 mem_size: int = DEFAULT_MEMORY,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 max_frames: int = DEFAULT_MAX_FRAMES,
                 default_len: int = 64):
        if mode not in ("instr", "hybrid"):
            raise ValueError(f"unknown mode {mode!r}")
        self.module = module
        self.mode = mode
        # in instr mode no rule ever fires
        self.rules = dict(rule_programs or {}) if mode == "hybrid" else {}
        self.cfg = taint_config or TaintConfig()
        self.mem_size = mem_size
        self.memory = bytearray(mem_size)
        self.tagmap = Tagmap()
        self.ret_shadow = b""
        self.step_budget = step_budget
        self.max_frames = max_frames
        self.default_len = default_len

        self.live = True        # false while a rule-firing call runs
        self.shadow_ops_instr = 0
        self.shadow_ops_rules = 0
        self.instr_total = 0
        self.instr_unins = 0
        self.sink_hits: list[SinkHit] = []

        self.global_addr: dict[str, int] = {}
        self._layout_globals()
        self.stack_ptr = mem_size
        self._frames: list[_Frame] = []
        self._labels = {
            f.name: {b.label: i for i, b in enumerate(f.blocks)}
            for f in module.functions.values()
        }
        self._sources = {}
        for s in self.cfg.sources:
            self._sources.setdefault(s.fn, []).append(s)
        self._sinks = {}
        for s in self.cfg.sinks:
            self._sinks.setdefault(s.fn, []).append(s)

    # -- memory ----------------------------------------------------------------

    def _layout_globals(self) -> None:
        addr = GLOBALS_BASE
        for g in self.module.globals.values():
            a = align_of(g.ty, self.module.structs)
            addr = align_up(addr, max(a, 1))
            sz = size_of(g.ty, self.module.structs)
            self.global_addr[g.name] = addr
            if g.init:
                self.memory[addr:addr + len(g.init)] = g.init
            addr += sz
        self.heap_ptr = align_up(addr, 16)
        self.globals_end = addr

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
        w = _width(ty)
        self._check_bounds(addr, w, uid)
        raw = bytes(self.memory[addr:addr + w])
        if isinstance(ty, Float):
            return _struct.unpack("<f" if ty.bits == 32 else "<d", raw)[0]
        v = int.from_bytes(raw, "little")
        if isinstance(ty, Int) and ty.signed and v >= 1 << (ty.bits - 1):
            v -= 1 << ty.bits
        return v

    def write_value(self, ty: Type, addr: int, value, uid: Optional[str] = None):
        w = _width(ty)
        self._check_bounds(addr, w, uid)
        if isinstance(ty, Float):
            raw = _struct.pack("<f" if ty.bits == 32 else "<d", value)
        else:
            raw = (int(value) & (2 ** (w * 8) - 1)).to_bytes(w, "little")
        self.memory[addr:addr + w] = raw

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check_bounds(addr, len(data), None)
        self.memory[addr:addr + len(data)] = data

    def read_bytes(self, addr: int, n: int) -> bytes:
        self._check_bounds(addr, n, None)
        return bytes(self.memory[addr:addr + n])

    def scan_string(self, addr: int, cap: int) -> int:
        """Byte extent of a NUL-terminated region: terminator included,
        capped at `cap` when no terminator shows up."""
        end = min(addr + cap, self.mem_size)
        for i in range(addr, end):
            if self.memory[i] == 0:
                return i - addr + 1
        return max(end - addr, 0)

    # -- tags -------------------------------------------------------------------

    def _operand_value(self, frame: _Frame, op: Operand, ty: Type):
        if isinstance(op, Temp):
            try:
                v = frame.temps[op.name]
            except KeyError:
                raise MachineTrap("undefined temporary", detail=f"%{op.name}")
            if isinstance(ty, Float):
                return float(v)
            return _norm_int(int(v), ty)
        if isinstance(op, GlobalRef):
            return self.global_addr[op.name]
        if isinstance(op, ConstInt):
            return float(op.value) if isinstance(ty, Float) else _norm_int(op.value, ty)
        return op.value if isinstance(ty, Float) else _norm_int(int(op.value), ty)

    def _operand_tags(self, frame: _Frame, op: Operand, n: int) -> bytes:
        if isinstance(op, Temp):
            return _resize_vec(frame.tags.get(op.name, b"\0"), n)
        return bytes(n)

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
        vecs = []
        for i, (pname, pty) in enumerate(fn.params):
            w = _width(pty)
            vec = bytes(w)
            if arg_tags is not None and arg_tags[i]:
                vec = _resize_vec(arg_tags[i], w)
            vecs.append(vec)
        self._check_sinks(fn.name, [self._coerce(a, t) for a, (_, t) in
                                    zip(args, fn.params)], vecs, "<entry>")
        frame = self._make_frame(fn, list(args), vecs, call_ins=None)
        self._frames.append(frame)
        return self._run_loop()

    def _coerce(self, v, ty: Type):
        return float(v) if isinstance(ty, Float) else _norm_int(int(v), ty)

    def _make_frame(self, fn: Function, args: Sequence[object],
                    vecs: Sequence[bytes], call_ins: Optional[Call]) -> _Frame:
        if len(self._frames) >= self.max_frames:
            raise MachineTrap("stack overflow (frame cap)",
                              call_ins.uid if call_ins else None)
        temps = {p: self._coerce(v, t) for (p, t), v in zip(fn.params, args)}
        tags = dict(zip((p for p, _ in fn.params), vecs))
        frame = _Frame(fn, temps, tags, 0, 0, self.stack_ptr, call_ins)
        if self.live and fn.name in self.rules:
            frame.arg_record = [(temps[p], tags[p]) for p, _ in fn.params]
            self.live = False
        return frame

    def _check_sinks(self, fn_name: str, args, vecs, call_uid: str) -> None:
        if not self.live or fn_name not in self._sinks:
            return
        fn = self.module.functions[fn_name]
        for spec in self._sinks[fn_name]:
            i = spec.index
            if i >= len(args):
                continue
            pty = fn.params[i][1]
            region = self._param_region(pty, args[i])
            if region is None:
                tag = _fold(vecs[i])
            else:
                tag = self.tagmap.get_taint(*region)
            if tag:
                self.sink_hits.append(SinkHit(fn_name, tag, call_uid))

    def _apply_sources(self, frame: _Frame, caller: Optional[_Frame]) -> None:
        if not self.live:
            return
        specs = self._sources.get(frame.fn.name)
        if not specs:
            return
        for spec in specs:
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
        exit_value = 0
        while self._frames:
            frame = self._frames[-1]
            block = frame.fn.blocks[frame.block]
            ins = block.instrs[frame.pc]
            self.instr_total += 1
            if self.instr_total > self.step_budget:
                raise MachineTrap("step budget exhausted", ins.uid)
            if not self.live:
                self.instr_unins += 1
            exit_value = self._step(frame, ins)
        return exit_value

    def _step(self, frame: _Frame, ins: Instr) -> int:
        live = self.live
        fn = frame.fn
        if isinstance(ins, Alloca):
            sz = size_of(ins.ty, self.module.structs)
            a = align_of(ins.ty, self.module.structs)
            addr = (self.stack_ptr - sz) & ~(max(a, 1) - 1)
            if addr <= self.heap_ptr:
                raise MachineTrap("stack overflow", ins.uid)
            self.stack_ptr = addr
            self.memory[addr:addr + sz] = bytes(sz)
            self.tagmap.set_taint(addr, 0, sz)     # allocation bookkeeping
            frame.temps[ins.dest] = addr
            frame.tags[ins.dest] = bytes(8)
            frame.pc += 1
        elif isinstance(ins, Load):
            addr = self._operand_value(frame, ins.addr, Ptr(ins.ty))
            frame.temps[ins.dest] = self.read_value(ins.ty, addr, ins.uid)
            if live:
                frame.tags[ins.dest] = self.tagmap.get_vector(addr, _width(ins.ty))
                self.shadow_ops_instr += 1
            frame.pc += 1
        elif isinstance(ins, Store):
            addr = self._operand_value(frame, ins.addr, Ptr(ins.ty))
            value = self._operand_value(frame, ins.value, ins.ty)
            self.write_value(ins.ty, addr, value, ins.uid)
            if live:
                w = _width(ins.ty)
                self.tagmap.set_vector(addr, self._operand_tags(frame, ins.value, w))
                self.shadow_ops_instr += 1
            frame.pc += 1
        elif isinstance(ins, Gep):
            frame.temps[ins.dest] = self._gep_addr(frame, ins)
            if live:
                tag = _fold(self._operand_tags(frame, ins.base, 8))
                for idx in ins.indices:
                    tag |= _fold(self._operand_tags(frame, idx, 8))
                frame.tags[ins.dest] = bytes([tag]) * 8
                self.shadow_ops_instr += 1
            frame.pc += 1
        elif isinstance(ins, BinOp):
            frame.temps[ins.dest] = self._binop(frame, ins)
            if live:
                w = _width(ins.ty)
                tag = (_fold(self._operand_tags(frame, ins.lhs, w))
                       | _fold(self._operand_tags(frame, ins.rhs, w)))
                frame.tags[ins.dest] = bytes([tag]) * w
                self.shadow_ops_instr += 1
            frame.pc += 1
        elif isinstance(ins, Br):
            cond = self._operand_value(frame, ins.cond, _COND_TY)
            label = ins.then_label if cond != 0 else ins.else_label
            frame.block = self._labels[fn.name][label]
            frame.pc = 0
        elif isinstance(ins, Jmp):
            frame.block = self._labels[fn.name][ins.label]
            frame.pc = 0
        elif isinstance(ins, Call):
            return self._do_call(frame, ins)
        elif isinstance(ins, Ret):
            return self._do_ret(frame, ins)
        else:
            raise MachineTrap("unknown instruction", ins.uid)
        return 0

    def _gep_addr(self, frame: _Frame, ins: Gep) -> int:
        base = self._operand_value(frame, ins.base, Ptr(ins.base_ty))
        structs = self.module.structs
        t: Type = ins.base_ty
        first = self._operand_value(frame, ins.indices[0], Int(64))
        addr = base + first * size_of(t, structs)
        for idx in ins.indices[1:]:
            if isinstance(t, StructRef):
                decl = structs[t.name]
                fname, fty = decl.fields[idx.value]  # validated constant
                addr += field_offset(decl, fname, structs)
                t = fty
            elif isinstance(t, Array):
                i = self._operand_value(frame, idx, Int(64))
                addr += i * size_of(t.elem, structs)
                t = t.elem
            else:
                raise MachineTrap("malformed gep", ins.uid)
        return addr & (2 ** 64 - 1)

    def _binop(self, frame: _Frame, ins: BinOp):
        ty = ins.ty
        a = self._operand_value(frame, ins.lhs, ty)
        b = self._operand_value(frame, ins.rhs, ty)
        op = ins.op
        if isinstance(ty, Float):
            if op == "add":
                r = a + b
            elif op == "sub":
                r = a - b
            elif op == "mul":
                r = a * b
            elif op == "div":
                if b != 0.0:
                    r = a / b
                else:
                    r = math.copysign(math.inf, a) if a else math.nan
            elif op == "rem":
                r = math.fmod(a, b) if b != 0.0 else math.nan
            elif op == "cmp":
                return 1.0 if a == b else 0.0
            else:
                raise MachineTrap("float bit operation", ins.uid)
            if ty.bits == 32:
                r = _struct.unpack("<f", _struct.pack("<f", r))[0]
            return r
        bits = 8 if isinstance(ty, Char) else 64 if isinstance(ty, Ptr) else ty.bits
        if op == "add":
            r = a + b
        elif op == "sub":
            r = a - b
        elif op == "mul":
            r = a * b
        elif op in ("div", "rem"):
            if b == 0:
                raise MachineTrap("division by zero", ins.uid)
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            r = q if op == "div" else a - q * b
        elif op == "and":
            r = a & b
        elif op == "or":
            r = a | b
        elif op == "xor":
            r = a ^ b
        elif op == "shl":
            r = a << (b & (bits - 1))
        elif op == "shr":
            r = a >> (b & (bits - 1))   # arithmetic for signed, logical otherwise
        elif op == "cmp":
            r = 1 if a == b else 0
        else:
            raise MachineTrap("unknown op", ins.uid)
        return _norm_int(r, ty)

    def _do_call(self, frame: _Frame, ins: Call) -> int:
        callee = self.module.functions.get(ins.callee)
        if callee is None:
            raise MachineTrap("unresolved callee", ins.uid, f"@{ins.callee}")
        args = []
        vecs = []
        for (pname, pty), op in zip(callee.params, ins.args):
            args.append(self._operand_value(frame, op, pty))
            if self.live:
                vecs.append(self._operand_tags(frame, op, _width(pty)))
        if self.live and ins.args:
            self.shadow_ops_instr += 1
        self._check_sinks(callee.name, args, vecs, ins.uid)
        frame.pc += 1
        self._frames.append(self._make_frame(callee, args, vecs, call_ins=ins))
        return 0

    def _do_ret(self, frame: _Frame, ins: Ret) -> int:
        fn = frame.fn
        value = 0
        if ins.value is not None:
            value = self._operand_value(frame, ins.value, fn.ret_ty)
        if self.live:
            if ins.value is not None:
                self.ret_shadow = self._operand_tags(
                    frame, ins.value, _width(fn.ret_ty))
                self.shadow_ops_instr += 1
            else:
                self.ret_shadow = b""
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
                caller.temps[dest] = self._coerce(value, fn.ret_ty)
                if self.live:
                    w = _width(fn.ret_ty)
                    caller.tags[dest] = _resize_vec(self.ret_shadow or bytes(w), w)
        return int(value)



# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def _rule_region(machine: Machine, fn_name: str, slot,
                 arg_record) -> Optional[tuple[str, int]]:
    """Resolve a slot to ("ret", 0), ("nu", argindex) for a by-value
    scalar, or ("mem", address); None for a null pointer, which makes the
    step a no-op.  Extents come from the step, never from the slot."""
    if slot.kind == "ret":
        return ("ret", 0)
    if slot.kind == "global":
        base = machine.global_addr[slot.name]
        base_ty = machine.module.globals[slot.name].ty
    elif slot.field_path or isinstance(slot.ty, Ptr):
        base = arg_record[slot.index][0]
        if base == 0:
            return None
        base_ty = machine.module.functions[fn_name].params[slot.index][1]
    else:
        return ("nu", slot.index)
    if slot.field_path:
        base += field_path_offset(base_ty, slot.field_path, machine.module.structs)[0]
    return ("mem", base)


def apply_rule_program(prog: TaintRuleProgram, arg_record, machine: Machine) -> None:
    """Execute a compiled rule program against the shadow state using the
    argument values recorded at call entry.  Each region covers the step's
    `nbytes`, or the string scanned at application time up to `max_len`."""
    acc = 0
    out_tag = 0
    current_entry = -1

    for step in prog.steps:
        if step.entry != current_entry:
            current_entry = step.entry
            acc = 0
            out_tag = 0
        machine.shadow_ops_rules += 1
        loc = _rule_region(machine, prog.function, step.slot, arg_record)
        if loc is None:
            continue
        kind, where = loc
        if kind == "mem":
            n = (step.nbytes if step.nbytes is not None
                 else machine.scan_string(where, step.max_len))
        if step.op in (SET_FIXED, SET_STRING):
            # by-value scalars have no caller-visible cell to set
            if kind == "mem":
                machine.tagmap.set_taint(where, out_tag | acc, n)
            elif kind == "ret":
                machine.ret_shadow = bytes([out_tag | acc]) * step.nbytes
            continue
        if kind == "mem":
            tag = machine.tagmap.get_taint(where, n)
        else:
            tag = _fold(machine.ret_shadow if kind == "ret" else arg_record[where][1])
        if step.op == READ_OUT:
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
    """Validate, execute, and report.  In hybrid mode every library
    function must either carry a rule program or be listed in `fallback`
    (falling back to instruction-level tracking)."""
    diags = validate_module(module)
    if diags:
        raise ValueError("module is not well-formed: "
                         + "; ".join(str(d) for d in diags[:5]))
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
