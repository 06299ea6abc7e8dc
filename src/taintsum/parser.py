"""Line-oriented textual syntax for the IR: parser and canonical printer.

Grammar sketch (comments start with ';'):

    struct %Name { <type> <field>, ... }
    union  %Name { <type> <field>, ... }
    global @name : <type> [= bytes(1, 2, ...)]
    fn @name(%p: <type>, ...) -> <type> [library] {
    label:
      %d = alloca <type>
      %d = load <type>, <addr>
      store <type> <value>, <addr>
      %d = gep <type>, <base>, <idx>, ...
      %d = add|sub|mul|div|rem|and|or|xor|shl|shr|cmp <type> <lhs>, <rhs>
      [%d =] call <type> @f(<arg>, ...)
      br <cond>, <labelT>, <labelF>
      jmp <label>
      ret [<type> <value>]
    }

Types: i8..i64, u8..u64, f32, f64, char, void, ptr(<type>),
[<n> x <type>], %StructName, fn(<type>, ...) -> <type>.

Each line holds one construct; a token after its end is an error.
print_module() emits canonical text that re-parses to a structurally
identical module.
"""

from __future__ import annotations

import re
from string import ascii_letters
from types import MappingProxyType

from .ir import (
    Alloca, Array, BinOp, Block, Br, Call, CHAR, ConstFloat, ConstInt,
    contains_fn_ptr, Diagnostic, F32, F64, Fn, Function, Gep, GlobalDecl,
    GlobalRef, I8, I16, I32, I64, Instr, Jmp, Load, Module, Operand, Ptr,
    Ret, Store, StructDecl, StructRef, Temp, type_str, Type, U8, U16, U32,
    U64, VOID, Void, BINOPS,
)


class ParseError(Exception):
    """Raised when the source has syntax or structural problems; carries
    the full diagnostic list."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics[:5]))


# One alternative per token kind; a token's kind is read off its first
# character where the grammar needs it (see _is_name, _is_number).
_TOKEN_RE = re.compile(
    r"->|[(){}\[\],:=]|[%@][A-Za-z_][A-Za-z0-9_.]*"
    r"|-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+|[A-Za-z_][A-Za-z0-9_.]*|\S")
_WORD_START = frozenset(ascii_letters + "_")
_NAMED_TYPES = {type_str(t): t for t in (
    I8, I16, I32, I64, U8, U16, U32, U64, F32, F64, CHAR, VOID)}
_BINOPS = frozenset(BINOPS)


def _tokens(text: str) -> list[str]:
    """The token texts of one comment-free line, then "" for its end."""
    toks = _TOKEN_RE.findall(text)
    toks.append("")
    return toks


def _column(text: str, at: int) -> int:
    """1-based column of the line's token number `at`; 0 for its end."""
    for k, mo in enumerate(_TOKEN_RE.finditer(text)):
        if k == at:
            return mo.start() + 1
    return 0


def _is_word(t: str) -> bool:
    return t[:1] in _WORD_START


def _is_name(t: str, sigil: str) -> bool:
    """A `%name` or `@name` token."""
    return t[:1] == sigil and len(t) > 1


def _is_number(t: str) -> bool:
    return t[:1].isdecimal() or (t[:1] == "-" and t[1:2].isdecimal())


class _LineError(Exception):
    def __init__(self, message, at=0):
        self.message = message
        self.at = at                # token index on the line
        super().__init__(message)


def _expect(toks: list[str], i: int, text: str) -> int:
    if toks[i] != text:
        raise _LineError(f"expected {text!r}, got {toks[i]!r}", i)
    return i + 1


def _end(toks: list[str], i: int) -> None:
    if toks[i]:
        raise _LineError(f"expected end of line, got {toks[i]!r}", i)


def _label(toks: list[str], i: int) -> str:
    if not _is_word(toks[i]):
        raise _LineError(f"expected a label, got {toks[i]!r}", i)
    return toks[i]


class _Parser:
    """One parse of a module's text.  Types and operands are interned by
    their token text (a type by its run of tokens) for its lifetime."""

    def __init__(self, text: str = ""):
        self.types: dict[str | tuple[str, ...], Type] = dict(_NAMED_TYPES)
        self.operands: dict[str, Operand] = {}
        self.lines = text.splitlines()
        self.diags: list[Diagnostic] = []
        self.structs: dict[str, StructDecl] = {}
        self.globals: dict[str, GlobalDecl] = {}
        self.functions: dict[str, Function] = {}
        self.rest = self._token_lines()

    def type_at(self, toks: list[str], i: int) -> tuple[Type, int]:
        """The type starting at token i, and the index after it."""
        t = toks[i]
        ty = self.types.get(t)
        if ty is not None:
            return ty, i + 1
        if t in ("ptr", "fn", "["):
            ty, j = self._compound_type(toks, i)
            return self.types.setdefault(tuple(toks[i:j]), ty), j
        if _is_name(t, "%"):
            ty = self.types[t] = StructRef(t[1:])
            return ty, i + 1
        if _is_word(t):
            raise _LineError(f"unknown type name {t!r}", i)
        raise _LineError(f"expected a type, got {t!r}", i)

    def _compound_type(self, toks: list[str], i: int) -> tuple[Type, int]:
        if toks[i] == "ptr":
            inner, i = self.type_at(toks, _expect(toks, i + 1, "("))
            return Ptr(inner), _expect(toks, i, ")")
        if toks[i] == "fn":
            i = _expect(toks, i + 1, "(")
            params = []
            if toks[i] != ")":
                ty, i = self.type_at(toks, i)
                params.append(ty)
                while toks[i] == ",":
                    ty, i = self.type_at(toks, i + 1)
                    params.append(ty)
            i = _expect(toks, _expect(toks, i, ")"), "->")
            ret, i = self.type_at(toks, i)
            return Fn(tuple(params), ret), i
        n = toks[i + 1]
        if not _is_number(n) or "." in n or int(n) < 1:
            raise _LineError("array length must be a positive integer", i + 1)
        elem, i = self.type_at(toks, _expect(toks, i + 2, "x"))
        return Array(elem, int(n)), _expect(toks, i, "]")

    def operand(self, toks: list[str], i: int) -> Operand:
        t = toks[i]
        op = self.operands.get(t)
        if op is not None:
            return op
        if _is_name(t, "%"):
            op = Temp(t[1:])
        elif _is_name(t, "@"):
            op = GlobalRef(t[1:])
        elif _is_number(t):
            op = ConstFloat(float(t)) if "." in t else ConstInt(int(t))
        else:
            raise _LineError(f"expected an operand, got {t!r}", i)
        self.operands[t] = op
        return op

    def _token_lines(self):
        """(line number, comment-free text, tokens) of each line that has
        a token, shared by the top level and the function bodies."""
        for line_no, line in enumerate(self.lines, 1):
            pos = line.find(";")
            text = line if pos < 0 else line[:pos]
            toks = _tokens(text)
            if len(toks) > 1:
                yield line_no, text, toks

    def error(self, msg, line, col=1):
        self.diags.append(Diagnostic(msg, line=line, col=col))

    def _line_end(self, toks: list[str], i: int, line_no: int, text: str):
        """Reports tokens after a function header or its closing brace,
        which still open or close the body."""
        try:
            _end(toks, i)
        except _LineError as e:
            self.error(e.message, line_no, _column(text, e.at))

    def run(self) -> Module:
        for line_no, text, toks in self.rest:
            head = toks[0]
            try:
                if head in ("struct", "union"):
                    self._parse_struct(toks, line_no)
                elif head == "global":
                    self._parse_global(toks, line_no)
                elif head == "fn":
                    self._parse_fn(toks, line_no, text)
                else:
                    raise _LineError(f"expected a top-level declaration, got {head!r}")
            except _LineError as e:
                self.error(e.message, line_no, _column(text, e.at))
        if self.diags:
            raise ParseError(self.diags)
        return Module(MappingProxyType(self.structs), MappingProxyType(self.globals),
                      MappingProxyType(self.functions))

    def _parse_struct(self, toks: list[str], line_no: int):
        if not _is_name(toks[1], "%"):
            raise _LineError("struct name must look like %Name", 1)
        name = toks[1][1:]
        i = _expect(toks, 2, "{")
        fields = []
        while toks[i] != "}":
            fty, i = self.type_at(toks, i)
            if not _is_word(toks[i]):
                raise _LineError("expected a field name", i)
            fields.append((toks[i], fty))
            i += 1
            if toks[i] == ",":
                i += 1
        _end(toks, i + 1)
        if name in self.structs:
            self.error(f"duplicate definition of %{name}", line_no)
            return
        self.structs[name] = StructDecl(name, tuple(fields), toks[0] == "union")

    def _parse_global(self, toks: list[str], line_no: int):
        if not _is_name(toks[1], "@"):
            raise _LineError("global name must look like @name", 1)
        name = toks[1][1:]
        ty, i = self.type_at(toks, _expect(toks, 2, ":"))
        init = None
        if toks[i] == "=":
            i = _expect(toks, _expect(toks, i + 1, "bytes"), "(")
            vals = []
            while toks[i] != ")":
                v = toks[i]
                if not _is_number(v) or "." in v or not 0 <= int(v) <= 255:
                    raise _LineError("bytes(...) entries must be 0..255", i)
                vals.append(int(v))
                i += 1
                if toks[i] == ",":
                    i += 1
            i += 1
            init = bytes(vals)
        _end(toks, i)
        if name in self.globals or name in self.functions:
            self.error(f"duplicate definition of @{name}", line_no)
            return
        self.globals[name] = GlobalDecl(name, ty, init)

    def _parse_fn(self, toks: list[str], line_no: int, text: str):
        if not _is_name(toks[1], "@"):
            raise _LineError("function name must look like @name", 1)
        name = toks[1][1:]
        i = _expect(toks, 2, "(")
        params = []
        while toks[i] != ")":
            at = i
            if not _is_name(toks[at], "%"):
                if toks[at] == ".":
                    raise _LineError("variadic functions unsupported", at)
                raise _LineError("parameter must look like %name", at)
            pty, i = self.type_at(toks, _expect(toks, at + 1, ":"))
            if contains_fn_ptr(pty):
                raise _LineError("function-pointer parameter unsupported", at)
            params.append((toks[at][1:], pty))
            if toks[i] == ",":
                i += 1
        ret_ty, i = self.type_at(toks, _expect(toks, i + 1, "->"))
        is_library = toks[i] == "library"
        self._line_end(toks, _expect(toks, i + is_library, "{"), line_no, text)

        blocks = self._parse_body(name)
        if name in self.functions or name in self.globals:
            self.error(f"duplicate definition of @{name}", line_no)
            return
        self.functions[name] = Function(
            name, tuple(params), ret_ty,
            tuple(Block(label, tuple(instrs)) for label, instrs in blocks), is_library)

    def _parse_body(self, fn_name: str) -> list[tuple[str, list[Instr]]]:
        """(label, instructions) of each block."""
        blocks: list[tuple[str, list[Instr]]] = []
        instrs: list[Instr] | None = None
        for line_no, text, toks in self.rest:
            if toks[0] == "}":
                self._line_end(toks, 1, line_no, text)
                return blocks
            if len(toks) == 3 and toks[1] == ":" and _is_word(toks[0]):
                instrs = []
                blocks.append((toks[0], instrs))
                continue
            if instrs is None:
                self.error(f"instruction outside any block in @{fn_name}", line_no)
                instrs = []
                blocks.append(("entry", instrs))
            try:
                ins, i = self._parse_instr(toks)
                _end(toks, i)
                instrs.append(ins)
            except _LineError as e:
                self.error(e.message, line_no, _column(text, e.at))
        self.error(f"unterminated body of @{fn_name} (missing '}}')", len(self.lines))
        return blocks

    def _parse_instr(self, toks: list[str]) -> tuple[Instr, int]:
        """The instruction on the line, and the index after it."""
        head = toks[0]
        if _is_name(head, "%"):
            dest, op = head[1:], toks[_expect(toks, 1, "=")]
            if op in _BINOPS:
                ty, i = self.type_at(toks, 3)
                lhs = self.operand(toks, i)
                i = _expect(toks, i + 1, ",")
                return BinOp(dest, op, ty, lhs, self.operand(toks, i)), i + 1
            if op == "load":
                ty, i = self.type_at(toks, 3)
                i = _expect(toks, i, ",")
                return Load(dest, ty, self.operand(toks, i)), i + 1
            if op == "gep":
                base_ty, i = self.type_at(toks, 3)
                i = _expect(toks, i, ",")
                base = self.operand(toks, i)
                indices = []
                while toks[i + 1] == ",":
                    i += 2
                    indices.append(self.operand(toks, i))
                if not indices:
                    raise _LineError("gep needs at least one index", 2)
                return Gep(dest, base_ty, base, tuple(indices)), i + 1
            if op == "alloca":
                ty, i = self.type_at(toks, 3)
                return Alloca(dest, ty), i
            if op == "call":
                return self._parse_call(toks, 3, dest)
            raise _LineError(f"unknown opcode {op!r}", 2)
        if head == "store":
            ty, i = self.type_at(toks, 1)
            value = self.operand(toks, i)
            i = _expect(toks, i + 1, ",")
            return Store(ty, value, self.operand(toks, i)), i + 1
        if head == "br":
            cond = self.operand(toks, 1)
            then_label = _label(toks, _expect(toks, 2, ","))
            return Br(cond, then_label, _label(toks, _expect(toks, 4, ","))), 6
        if head == "jmp":
            return Jmp(_label(toks, 1)), 2
        if head == "ret":
            if toks[1] in ("", "void"):
                return Ret(VOID), 1 + (toks[1] == "void")
            ty, i = self.type_at(toks, 1)
            return Ret(ty, self.operand(toks, i)), i + 1
        if head == "call":
            return self._parse_call(toks, 1, None)
        raise _LineError(f"cannot parse instruction starting at {head!r}")

    def _parse_call(self, toks: list[str], i: int, dest) -> tuple[Call, int]:
        ret_ty, i = self.type_at(toks, i)
        if not _is_name(toks[i], "@"):
            raise _LineError("call target must look like @name", i)
        callee = toks[i][1:]
        i = _expect(toks, i + 1, "(")
        args = []
        while toks[i] != ")":
            args.append(self.operand(toks, i))
            i += 1
            if toks[i] == ",":
                i += 1
        if isinstance(ret_ty, Void):
            dest = None
        return Call(dest, ret_ty, callee, tuple(args)), i + 1


def parse_module(text: str) -> Module:
    """Parse IR source into an immutable Module; raises ParseError with
    line/column diagnostics on malformed input.  The empty string is the
    empty module.  Modules are linked by parsing their concatenated text."""
    return _Parser(text).run()


def parse_type_text(text: str) -> Type:
    """Parse one whole type written as type_str() prints it; ValueError
    if the text is not exactly one type."""
    toks = _tokens(text)
    try:
        ty, i = _Parser().type_at(toks, 0)
    except _LineError as e:
        raise ValueError(f"bad type {text!r}: {e.message}") from None
    if toks[i]:
        raise ValueError(f"bad type {text!r}: {toks[i]!r} after the type")
    return ty


def parse_leading_type(text: str) -> Type | None:
    """The type written at the start of text, or None when the text does
    not start with one."""
    try:
        return _Parser().type_at(_tokens(text), 0)[0]
    except _LineError:
        return None


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def operand_str(op: Operand) -> str:
    if isinstance(op, Temp):
        return "%" + op.name
    if isinstance(op, GlobalRef):
        return "@" + op.name
    if isinstance(op, ConstInt):
        return str(op.value)
    if isinstance(op, ConstFloat):
        return repr(op.value)
    raise TypeError(op)


def instr_str(ins: Instr) -> str:
    if isinstance(ins, Alloca):
        return f"%{ins.dest} = alloca {type_str(ins.ty)}"
    if isinstance(ins, Load):
        return f"%{ins.dest} = load {type_str(ins.ty)}, {operand_str(ins.addr)}"
    if isinstance(ins, Store):
        return (f"store {type_str(ins.ty)} {operand_str(ins.value)},"
                f" {operand_str(ins.addr)}")
    if isinstance(ins, Gep):
        idx = ", ".join(operand_str(i) for i in ins.indices)
        return (f"%{ins.dest} = gep {type_str(ins.base_ty)},"
                f" {operand_str(ins.base)}, {idx}")
    if isinstance(ins, BinOp):
        return (f"%{ins.dest} = {ins.op} {type_str(ins.ty)}"
                f" {operand_str(ins.lhs)}, {operand_str(ins.rhs)}")
    if isinstance(ins, Call):
        args = ", ".join(operand_str(a) for a in ins.args)
        head = f"%{ins.dest} = " if ins.dest is not None else ""
        return f"{head}call {type_str(ins.ret_ty)} @{ins.callee}({args})"
    if isinstance(ins, Br):
        return f"br {operand_str(ins.cond)}, {ins.then_label}, {ins.else_label}"
    if isinstance(ins, Jmp):
        return f"jmp {ins.label}"
    if isinstance(ins, Ret):
        if ins.value is None:
            return "ret"
        return f"ret {type_str(ins.ty)} {operand_str(ins.value)}"
    raise TypeError(ins)


def print_module(m: Module) -> str:
    out: list[str] = []
    for decl in m.structs.values():
        kw = "union" if decl.is_union else "struct"
        fields = ", ".join(f"{type_str(t)} {n}" for n, t in decl.fields)
        out.append(f"{kw} %{decl.name} {{ {fields} }}")
    if m.structs:
        out.append("")
    for g in m.globals.values():
        line = f"global @{g.name} : {type_str(g.ty)}"
        if g.init is not None:
            line += " = bytes(" + ", ".join(str(b) for b in g.init) + ")"
        out.append(line)
    if m.globals:
        out.append("")
    for fn in m.functions.values():
        params = ", ".join(f"%{n}: {type_str(t)}" for n, t in fn.params)
        lib = " library" if fn.is_library else ""
        out.append(f"fn @{fn.name}({params}) -> {type_str(fn.ret_ty)}{lib} {{")
        for b in fn.blocks:
            out.append(f"{b.label}:")
            for ins in b.instrs:
                out.append("  " + instr_str(ins))
        out.append("}")
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n" if out else ""
