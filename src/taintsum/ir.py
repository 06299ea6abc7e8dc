"""Typed IR core: the type lattice, byte-level data layout, module/function/
instruction structure, and the well-formedness checker.

Everything here is immutable after construction and safe to share between
concurrent analysis workers.  Layout follows a single fixed x64-ish
convention: pointers are 8 bytes, natural alignment is min(size, 8).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Union

POINTER_BYTES = 8
MAX_ALIGN = 8


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Type:
    """Base class for IR types.  Concrete variants are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Int(Type):
    bits: int           # 8, 16, 32, or 64
    signed: bool = True


@dataclass(frozen=True)
class Float(Type):
    bits: int           # 32 or 64


@dataclass(frozen=True)
class Char(Type):
    pass


@dataclass(frozen=True)
class Void(Type):
    pass


@dataclass(frozen=True)
class Ptr(Type):
    pointee: Type


@dataclass(frozen=True)
class Array(Type):
    elem: Type
    length: int


@dataclass(frozen=True)
class Fn(Type):
    params: tuple[Type, ...]
    ret: Type


@dataclass(frozen=True)
class StructRef(Type):
    """Reference to a struct or union declaration by name.

    Field lists live on the owning Module's StructDecl so recursive types
    (through pointers) stay representable.
    """

    name: str


CHAR = Char()
VOID = Void()
I8, I16, I32, I64 = Int(8), Int(16), Int(32), Int(64)
U8, U16, U32, U64 = Int(8, False), Int(16, False), Int(32, False), Int(64, False)
F32, F64 = Float(32), Float(64)


def type_str(t: Type) -> str:
    """Canonical textual spelling of a type (the parser accepts it back)."""
    if isinstance(t, Int):
        return ("i" if t.signed else "u") + str(t.bits)
    if isinstance(t, Float):
        return "f" + str(t.bits)
    if isinstance(t, Char):
        return "char"
    if isinstance(t, Void):
        return "void"
    if isinstance(t, Ptr):
        return f"ptr({type_str(t.pointee)})"
    if isinstance(t, Array):
        return f"[{t.length} x {type_str(t.elem)}]"
    if isinstance(t, Fn):
        params = ", ".join(type_str(p) for p in t.params)
        return f"fn({params}) -> {type_str(t.ret)}"
    if isinstance(t, StructRef):
        return "%" + t.name
    raise TypeError(f"unknown type {t!r}")


def is_prim_type(t: Type) -> bool:
    """Primitiveness test used by flattening and candidate classification.

    Ints, floats, char, void and any pointer count as primitive; pointers
    to structs/unions are still classified separately where field
    refinement applies (see contains_struct).
    """
    return isinstance(t, (Int, Float, Char, Void, Ptr))


def is_struct_like(t: Type) -> bool:
    """True for struct/union values and pointers to them."""
    if isinstance(t, StructRef):
        return True
    return isinstance(t, Ptr) and isinstance(t.pointee, StructRef)


def is_char_or_void_ptr(t: Type) -> bool:
    return isinstance(t, Ptr) and isinstance(t.pointee, (Char, Void))


def contains_fn_ptr(t: Type) -> bool:
    if isinstance(t, Fn):
        return True
    if isinstance(t, Ptr):
        return contains_fn_ptr(t.pointee)
    if isinstance(t, Array):
        return contains_fn_ptr(t.elem)
    return False


# ---------------------------------------------------------------------------
# Declarations and operands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructDecl:
    name: str
    fields: tuple[tuple[str, Type], ...]
    is_union: bool = False

    def field_type(self, name: str) -> Type:
        for n, t in self.fields:
            if n == name:
                return t
        raise KeyError(f"struct %{self.name} has no field {name!r}")


@dataclass(frozen=True)
class GlobalDecl:
    name: str
    ty: Type
    init: Optional[bytes] = None


@dataclass(frozen=True)
class Temp:
    name: str           # %name, sigil stripped


@dataclass(frozen=True)
class GlobalRef:
    name: str           # @name, sigil stripped


@dataclass(frozen=True)
class ConstInt:
    value: int


@dataclass(frozen=True)
class ConstFloat:
    value: float


Operand = Union[Temp, GlobalRef, ConstInt, ConstFloat]

BINOPS = ("add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "cmp")


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instr:
    """Base instruction.  `uid` is a stable per-function id ("fn:index",
    assigned in textual order) used by diagnostics, the PDG and reports."""

    uid: str = field(default="", init=False, compare=False)

    def defined_temp(self) -> Optional[str]:
        return getattr(self, "dest", None)

    def operands(self) -> tuple[Operand, ...]:
        return ()


@dataclass(frozen=True)
class Alloca(Instr):
    dest: str
    ty: Type


@dataclass(frozen=True)
class Load(Instr):
    dest: str
    ty: Type
    addr: Operand

    def operands(self):
        return (self.addr,)


@dataclass(frozen=True)
class Store(Instr):
    ty: Type
    value: Operand
    addr: Operand

    def operands(self):
        return (self.value, self.addr)


@dataclass(frozen=True)
class Gep(Instr):
    dest: str
    base_ty: Type
    base: Operand
    indices: tuple[Operand, ...]

    def operands(self):
        return (self.base,) + self.indices


@dataclass(frozen=True)
class BinOp(Instr):
    dest: str
    op: str
    ty: Type
    lhs: Operand
    rhs: Operand

    def operands(self):
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class Call(Instr):
    dest: Optional[str]
    ret_ty: Type
    callee: str
    args: tuple[Operand, ...]

    def operands(self):
        return self.args

    def defined_temp(self):
        return self.dest


@dataclass(frozen=True)
class Br(Instr):
    cond: Operand
    then_label: str
    else_label: str

    def operands(self):
        return (self.cond,)


@dataclass(frozen=True)
class Jmp(Instr):
    label: str


@dataclass(frozen=True)
class Ret(Instr):
    ty: Type
    value: Optional[Operand] = None

    def operands(self):
        return (self.value,) if self.value is not None else ()


TERMINATORS = (Br, Jmp, Ret)


@dataclass(frozen=True)
class Block:
    label: str
    instrs: tuple[Instr, ...]


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple[tuple[str, Type], ...]
    ret_ty: Type
    blocks: tuple[Block, ...]
    is_library: bool = False

    def __post_init__(self):
        for idx, ins in enumerate(self.instructions()):
            object.__setattr__(ins, "uid", f"{self.name}:{idx}")

    def param_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.params)

    def instructions(self) -> Iterator[Instr]:
        for b in self.blocks:
            yield from b.instrs


_empty_view = functools.partial(MappingProxyType, {})


@dataclass(frozen=True)
class Module:
    """`parse_module` gives it read-only views (`types.MappingProxyType`)
    of its structs, globals and functions."""

    structs: Mapping[str, StructDecl] = field(default_factory=_empty_view)
    globals: Mapping[str, GlobalDecl] = field(default_factory=_empty_view)
    functions: Mapping[str, Function] = field(default_factory=_empty_view)

    def library_functions(self) -> list[Function]:
        return [f for f in self.functions.values() if f.is_library]


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------

class LayoutError(Exception):
    pass


def align_up(n: int, a: int) -> int:
    return (n + a - 1) // a * a


def align_of(t: Type, structs: Mapping[str, StructDecl]) -> int:
    if isinstance(t, Int):
        return min(t.bits // 8, MAX_ALIGN)
    if isinstance(t, Float):
        return min(t.bits // 8, MAX_ALIGN)
    if isinstance(t, Char):
        return 1
    if isinstance(t, Ptr):
        return POINTER_BYTES
    if isinstance(t, Array):
        return align_of(t.elem, structs)
    if isinstance(t, StructRef):
        decl = structs[t.name]
        return max(align_of(ft, structs) for _, ft in decl.fields)
    raise LayoutError(f"type {type_str(t)} has no alignment")


def size_of(t: Type, structs: Mapping[str, StructDecl]) -> int:
    """Byte size under the fixed layout convention.

    Structs get natural-alignment padding between fields and tail padding
    up to the struct's own alignment; unions are the padded max of their
    members.  Void and function types have no size.
    """
    if isinstance(t, Int):
        return t.bits // 8
    if isinstance(t, Float):
        return t.bits // 8
    if isinstance(t, Char):
        return 1
    if isinstance(t, Ptr):
        return POINTER_BYTES
    if isinstance(t, Array):
        return t.length * size_of(t.elem, structs)
    if isinstance(t, StructRef):
        decl = structs[t.name]
        a = align_of(t, structs)
        if decl.is_union:
            sz = max(size_of(ft, structs) for _, ft in decl.fields)
            return align_up(sz, a)
        off = 0
        for _, ft in decl.fields:
            off = align_up(off, align_of(ft, structs)) + size_of(ft, structs)
        return align_up(off, a)
    raise LayoutError(f"type {type_str(t)} is unsized")


def field_offset(decl: StructDecl, field_name: str,
                 structs: Mapping[str, StructDecl]) -> int:
    """Byte offset of a field; union members all live at offset 0."""
    if decl.is_union:
        decl.field_type(field_name)  # raises on unknown field
        return 0
    off = 0
    for n, ft in decl.fields:
        off = align_up(off, align_of(ft, structs))
        if n == field_name:
            return off
        off += size_of(ft, structs)
    raise KeyError(f"struct %{decl.name} has no field {field_name!r}")


def field_path_offset(base: Type, path: tuple[str, ...],
                      structs: Mapping[str, StructDecl]) -> tuple[int, Type]:
    """Resolve a field-name path against a struct (or pointer-to-struct)
    type; returns (byte offset, leaf field type)."""
    t = base.pointee if isinstance(base, Ptr) else base
    off = 0
    for name in path:
        if not isinstance(t, StructRef):
            raise LayoutError(f"field path {path} does not fit {type_str(base)}")
        decl = structs[t.name]
        off += field_offset(decl, name, structs)
        t = decl.field_type(name)
    return off, t


# ---------------------------------------------------------------------------
# Diagnostics and the well-formedness checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    message: str
    line: Optional[int] = None
    col: Optional[int] = None
    instr: Optional[str] = None

    def __str__(self) -> str:
        loc = ""
        if self.line is not None:
            loc = f"{self.line}:{self.col if self.col is not None else 0}: "
        at = f" [{self.instr}]" if self.instr else ""
        return f"{loc}{self.message}{at}"


def _check_struct_recursion(m: Module) -> list[Diagnostic]:
    # A struct may only reach itself через pointer indirection.
    def direct_refs(t: Type) -> set[str]:
        if isinstance(t, StructRef):
            return {t.name}
        if isinstance(t, Array):
            return direct_refs(t.elem)
        return set()

    diags = []
    graph = {
        name: set().union(*(direct_refs(ft) for _, ft in d.fields))
        for name, d in m.structs.items()
    }
    state: dict[str, int] = {}

    def visit(n: str, trail: list[str]) -> None:
        state[n] = 1
        for s in sorted(graph.get(n, ())):
            if s not in m.structs:
                continue
            if state.get(s) == 1:
                diags.append(Diagnostic(
                    f"recursive type %{s} without pointer indirection"
                    f" (via {' -> '.join(trail + [n, s])})"))
            elif s not in state:
                visit(s, trail + [n])
        state[n] = 2

    for name in m.structs:
        if name not in state:
            visit(name, [])
    return diags


def _known_types(m: Module, t: Type) -> bool:
    if isinstance(t, StructRef):
        return t.name in m.structs
    if isinstance(t, Ptr):
        return _known_types(m, t.pointee)
    if isinstance(t, Array):
        return _known_types(m, t.elem)
    if isinstance(t, Fn):
        return all(_known_types(m, p) for p in t.params) and _known_types(m, t.ret)
    return True


def check_gep_indices(base_ty: Type, indices: tuple[Operand, ...],
                      structs: Mapping[str, StructDecl]) -> Optional[str]:
    """Validate a gep index chain against the base pointee type.

    The first index scales over whole objects; subsequent indices descend:
    struct fields need in-range constants, array elements accept anything
    integer-valued.  Returns an error string or None.
    """
    if not indices:
        return "gep needs at least one index"
    t = base_ty
    for idx in indices[1:]:
        if isinstance(t, StructRef):
            if not isinstance(idx, ConstInt):
                return "struct field index must be a constant"
            decl = structs.get(t.name)
            if decl is None:
                return f"unknown struct %{t.name}"
            if not (0 <= idx.value < len(decl.fields)):
                return f"field index {idx.value} out of range for %{t.name}"
            t = decl.fields[idx.value][1]
        elif isinstance(t, Array):
            t = t.elem
        else:
            return f"cannot index into {type_str(t)}"
    return None


def validate_module(m: Module) -> list[Diagnostic]:
    """Structural well-formedness: empty list iff every invariant holds."""
    diags: list[Diagnostic] = []

    for name, decl in m.structs.items():
        if not decl.fields:
            diags.append(Diagnostic(f"struct %{name} has no fields"))
        seen = set()
        for fname, fty in decl.fields:
            if fname in seen:
                diags.append(Diagnostic(f"duplicate field {fname!r} in %{name}"))
            seen.add(fname)
            if not _known_types(m, fty):
                diags.append(Diagnostic(f"unknown type in field %{name}.{fname}"))
            if contains_fn_ptr(fty):
                diags.append(Diagnostic(
                    f"function-pointer field unsupported (%{name}.{fname})"))
    diags.extend(_check_struct_recursion(m))

    value_names = set(m.globals) | set(m.functions)
    if len(value_names) != len(m.globals) + len(m.functions):
        for g in m.globals:
            if g in m.functions:
                diags.append(Diagnostic(f"@{g} defined as both global and function"))

    for g in m.globals.values():
        if not _known_types(m, g.ty):
            diags.append(Diagnostic(f"unknown type for global @{g.name}"))
            continue
        if isinstance(g.ty, (Void, Fn)) or contains_fn_ptr(g.ty):
            diags.append(Diagnostic(f"global @{g.name} has unsized or function type"))
            continue
        if g.init is not None and len(g.init) > size_of(g.ty, m.structs):
            diags.append(Diagnostic(f"initializer of @{g.name} exceeds its size"))

    for fn in m.functions.values():
        diags.extend(_validate_function(m, fn))
    return diags


def _validate_function(m: Module, fn: Function) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    pnames = set()
    for pname, pty in fn.params:
        if pname in pnames:
            diags.append(Diagnostic(f"duplicate parameter %{pname} in @{fn.name}"))
        pnames.add(pname)
        if contains_fn_ptr(pty):
            diags.append(Diagnostic(
                f"function-pointer parameter unsupported (@{fn.name} %{pname})"))
        if not _known_types(m, pty):
            diags.append(Diagnostic(f"unknown parameter type in @{fn.name}"))

    if not fn.blocks:
        diags.append(Diagnostic(f"function @{fn.name} has no blocks"))
        return diags

    labels = set()
    for b in fn.blocks:
        if b.label in labels:
            diags.append(Diagnostic(f"duplicate label {b.label} in @{fn.name}"))
        labels.add(b.label)

    defined: set[str] = set(pnames)
    for b in fn.blocks:
        if not b.instrs:
            diags.append(Diagnostic(f"block {b.label} in @{fn.name} is empty"))
            continue
        if not isinstance(b.instrs[-1], TERMINATORS):
            diags.append(Diagnostic(
                f"block {b.label} in @{fn.name} missing terminator"))
        for ins in b.instrs[:-1]:
            if isinstance(ins, TERMINATORS):
                diags.append(Diagnostic(
                    f"terminator not at end of block {b.label}", instr=ins.uid))
        for ins in b.instrs:
            d = ins.defined_temp()
            if d is not None:
                if d in defined:
                    diags.append(Diagnostic(
                        f"temporary %{d} reassigned in @{fn.name}", instr=ins.uid))
                defined.add(d)

    # operand resolution, callee resolution, per-form checks
    all_defined = defined
    for ins in fn.instructions():
        for op in ins.operands():
            if isinstance(op, Temp) and op.name not in all_defined:
                diags.append(Diagnostic(
                    f"undefined temporary %{op.name}", instr=ins.uid))
            if isinstance(op, GlobalRef) and op.name not in m.globals:
                diags.append(Diagnostic(
                    f"unknown global @{op.name}", instr=ins.uid))
        if isinstance(ins, Call):
            callee = m.functions.get(ins.callee)
            if callee is None:
                diags.append(Diagnostic(
                    f"unresolved callee @{ins.callee}", instr=ins.uid))
            elif len(callee.params) != len(ins.args):
                diags.append(Diagnostic(
                    f"call to @{ins.callee} passes {len(ins.args)} args,"
                    f" expected {len(callee.params)}", instr=ins.uid))
        elif isinstance(ins, Gep):
            err = check_gep_indices(ins.base_ty, ins.indices, m.structs)
            if err:
                diags.append(Diagnostic(err, instr=ins.uid))
        elif isinstance(ins, (Br, Jmp)):
            targets = ([ins.then_label, ins.else_label]
                       if isinstance(ins, Br) else [ins.label])
            for t in targets:
                if t not in labels:
                    diags.append(Diagnostic(
                        f"unknown label {t} in @{fn.name}", instr=ins.uid))
        elif isinstance(ins, Ret):
            if isinstance(fn.ret_ty, Void) and ins.value is not None:
                diags.append(Diagnostic(
                    f"@{fn.name} returns void but ret carries a value",
                    instr=ins.uid))
            if not isinstance(fn.ret_ty, Void) and ins.value is None:
                diags.append(Diagnostic(
                    f"@{fn.name} must return a value", instr=ins.uid))
        elif isinstance(ins, (Load, Store)) and not isinstance(
                ins.ty, (Int, Float, Char, Ptr)):
            diags.append(Diagnostic(
                f"{'load' if isinstance(ins, Load) else 'store'} of"
                f" {type_str(ins.ty)}, a type with no width", instr=ins.uid))
        elif isinstance(ins, BinOp) and ins.op not in BINOPS:
            diags.append(Diagnostic(f"unknown op {ins.op!r}", instr=ins.uid))
    return diags
