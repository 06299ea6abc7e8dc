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

print_module() emits canonical text that re-parses to a structurally
identical module.
"""

from __future__ import annotations

import re
from types import MappingProxyType

from .ir import (
    Alloca, Array, BinOp, Block, Br, Call, CHAR, ConstFloat, ConstInt,
    contains_fn_ptr, Diagnostic, Fn, Float, Function, Gep, GlobalDecl,
    GlobalRef, Instr, Int, Jmp, Load, Module, Operand, Ptr, Ret, Store,
    StructDecl, StructRef, Temp, type_str, Type, VOID, Void, BINOPS,
)


class ParseError(Exception):
    """Raised when the source has syntax or structural problems; carries
    the full diagnostic list."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics[:5]))


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<arrow>->)
      | (?P<punct>[(){}\[\],:=])
      | (?P<pct>%[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<at>@[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<float>-?\d+\.\d+(?:[eE][-+]?\d+)?)
      | (?P<int>-?\d+)
      | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)


def _tokenize(line: str) -> list[tuple[str, str, int]]:
    """Returns (kind, text, column) triples; comments already stripped."""
    out = []
    for mo in _TOKEN_RE.finditer(line):
        kind = mo.lastgroup
        out.append((kind, mo.group(kind), mo.start(kind) + 1))
    return out


class _Cursor:
    def __init__(self, tokens, line_no):
        self.toks = tokens
        self.i = 0
        self.line = line_no

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, "", 0)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def at_end(self):
        return self.i >= len(self.toks)

    def expect(self, text):
        kind, got, col = self.next()
        if got != text:
            raise _LineError(f"expected {text!r}, got {got!r}", col)
        return got


class _LineError(Exception):
    def __init__(self, message, col=1):
        self.message = message
        self.col = col
        super().__init__(message)


_INT_TYPES = {f"i{b}": Int(b) for b in (8, 16, 32, 64)}
_INT_TYPES.update({f"u{b}": Int(b, False) for b in (8, 16, 32, 64)})


def parse_type(cur: _Cursor) -> Type:
    kind, text, col = cur.next()
    if kind == "word":
        if text in _INT_TYPES:
            return _INT_TYPES[text]
        if text == "f32":
            return Float(32)
        if text == "f64":
            return Float(64)
        if text == "char":
            return CHAR
        if text == "void":
            return VOID
        if text == "ptr":
            cur.expect("(")
            inner = parse_type(cur)
            cur.expect(")")
            return Ptr(inner)
        if text == "fn":
            cur.expect("(")
            params = []
            if cur.peek()[1] != ")":
                params.append(parse_type(cur))
                while cur.peek()[1] == ",":
                    cur.next()
                    params.append(parse_type(cur))
            cur.expect(")")
            cur.expect("->")
            ret = parse_type(cur)
            return Fn(tuple(params), ret)
        raise _LineError(f"unknown type name {text!r}", col)
    if text == "[":
        kind, n, ncol = cur.next()
        if kind != "int" or int(n) < 1:
            raise _LineError("array length must be a positive integer", ncol)
        cur.expect("x")
        elem = parse_type(cur)
        cur.expect("]")
        return Array(elem, int(n))
    if kind == "pct":
        return StructRef(text[1:])
    raise _LineError(f"expected a type, got {text!r}", col)


def parse_type_text(text: str) -> Type:
    """Parse one whole type written as type_str() prints it; ValueError
    if the text is not exactly one type."""
    cur = _Cursor(_tokenize(text), 0)
    try:
        ty = parse_type(cur)
    except _LineError as e:
        raise ValueError(f"bad type {text!r}: {e.message}") from None
    if not cur.at_end():
        raise ValueError(f"bad type {text!r}: {cur.peek()[1]!r} after the type")
    return ty


def parse_leading_type(text: str) -> Type | None:
    """The type written at the start of text, or None when the text does
    not start with one."""
    try:
        return parse_type(_Cursor(_tokenize(text), 0))
    except _LineError:
        return None


def _parse_operand(cur: _Cursor) -> Operand:
    kind, text, col = cur.next()
    if kind == "pct":
        return Temp(text[1:])
    if kind == "at":
        return GlobalRef(text[1:])
    if kind == "int":
        return ConstInt(int(text))
    if kind == "float":
        return ConstFloat(float(text))
    raise _LineError(f"expected an operand, got {text!r}", col)


def _strip_comment(line: str) -> str:
    pos = line.find(";")
    return line if pos < 0 else line[:pos]


class _ModuleParser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.diags: list[Diagnostic] = []
        self.structs: dict[str, StructDecl] = {}
        self.globals: dict[str, GlobalDecl] = {}
        self.functions: dict[str, Function] = {}
        self.n = 0

    def error(self, msg, line, col=1):
        self.diags.append(Diagnostic(msg, line=line, col=col))

    def run(self) -> Module:
        while self.n < len(self.lines):
            raw = _strip_comment(self.lines[self.n])
            line_no = self.n + 1
            self.n += 1
            toks = _tokenize(raw)
            if not toks:
                continue
            head = toks[0][1]
            cur = _Cursor(toks, line_no)
            try:
                if head in ("struct", "union"):
                    self._parse_struct(cur)
                elif head == "global":
                    self._parse_global(cur)
                elif head == "fn":
                    self._parse_fn(cur)
                else:
                    self.error(f"expected a top-level declaration, got {head!r}",
                               line_no, toks[0][2])
            except _LineError as e:
                self.error(e.message, line_no, e.col)
        if self.diags:
            raise ParseError(self.diags)
        return Module(MappingProxyType(self.structs), MappingProxyType(self.globals),
                      MappingProxyType(self.functions))

    def _parse_struct(self, cur: _Cursor):
        is_union = cur.next()[1] == "union"
        kind, name_tok, col = cur.next()
        if kind != "pct":
            raise _LineError("struct name must look like %Name", col)
        name = name_tok[1:]
        cur.expect("{")
        fields = []
        while cur.peek()[1] != "}":
            fty = parse_type(cur)
            fkind, fname, fcol = cur.next()
            if fkind != "word":
                raise _LineError("expected a field name", fcol)
            fields.append((fname, fty))
            if cur.peek()[1] == ",":
                cur.next()
        cur.expect("}")
        if name in self.structs:
            self.error(f"duplicate definition of %{name}", cur.line)
            return
        self.structs[name] = StructDecl(name, tuple(fields), is_union)

    def _parse_global(self, cur: _Cursor):
        cur.next()  # 'global'
        kind, name_tok, col = cur.next()
        if kind != "at":
            raise _LineError("global name must look like @name", col)
        name = name_tok[1:]
        cur.expect(":")
        ty = parse_type(cur)
        init = None
        if cur.peek()[1] == "=":
            cur.next()
            cur.expect("bytes")
            cur.expect("(")
            vals = []
            while cur.peek()[1] != ")":
                k, v, vcol = cur.next()
                if k != "int" or not (0 <= int(v) <= 255):
                    raise _LineError("bytes(...) entries must be 0..255", vcol)
                vals.append(int(v))
                if cur.peek()[1] == ",":
                    cur.next()
            cur.expect(")")
            init = bytes(vals)
        if name in self.globals or name in self.functions:
            self.error(f"duplicate definition of @{name}", cur.line)
            return
        self.globals[name] = GlobalDecl(name, ty, init)

    def _parse_fn(self, cur: _Cursor):
        cur.next()  # 'fn'
        kind, name_tok, col = cur.next()
        if kind != "at":
            raise _LineError("function name must look like @name", col)
        name = name_tok[1:]
        cur.expect("(")
        params = []
        while cur.peek()[1] != ")":
            pkind, pname, pcol = cur.next()
            if pkind != "pct":
                if pname == ".":
                    raise _LineError("variadic functions unsupported", pcol)
                raise _LineError("parameter must look like %name", pcol)
            cur.expect(":")
            pty = parse_type(cur)
            if contains_fn_ptr(pty):
                raise _LineError("function-pointer parameter unsupported", pcol)
            params.append((pname[1:], pty))
            if cur.peek()[1] == ",":
                cur.next()
        cur.expect(")")
        cur.expect("->")
        ret_ty = parse_type(cur)
        is_library = False
        if cur.peek()[1] == "library":
            cur.next()
            is_library = True
        cur.expect("{")
        header_line = cur.line

        blocks = self._parse_body(name)
        if name in self.functions or name in self.globals:
            self.error(f"duplicate definition of @{name}", header_line)
            return
        self.functions[name] = Function(
            name, tuple(params), ret_ty,
            tuple(Block(label, tuple(instrs)) for label, instrs in blocks), is_library)

    def _parse_body(self, fn_name: str) -> list[tuple[str, list[Instr]]]:
        """(label, instructions) of each block."""
        blocks: list[tuple[str, list[Instr]]] = []
        instrs: list[Instr] | None = None
        while self.n < len(self.lines):
            raw = _strip_comment(self.lines[self.n])
            line_no = self.n + 1
            self.n += 1
            toks = _tokenize(raw)
            if not toks:
                continue
            if toks[0][1] == "}":
                return blocks
            cur = _Cursor(toks, line_no)
            # label line: `name:`
            if (len(toks) == 2 and toks[0][0] == "word" and toks[1][1] == ":"):
                instrs = []
                blocks.append((toks[0][1], instrs))
                continue
            if instrs is None:
                self.error(f"instruction outside any block in @{fn_name}", line_no)
                instrs = []
                blocks.append(("entry", instrs))
            try:
                instrs.append(self._parse_instr(cur))
            except _LineError as e:
                self.error(e.message, line_no, e.col)
        self.error(f"unterminated body of @{fn_name} (missing '}}')", self.n)
        return blocks

    def _parse_instr(self, cur: _Cursor) -> Instr:
        kind, first, col = cur.peek()
        if kind == "pct":
            cur.next()
            dest = first[1:]
            cur.expect("=")
            return self._parse_op(cur, dest)
        if first in ("store", "br", "jmp", "ret", "call"):
            cur.next()
            if first == "store":
                ty = parse_type(cur)
                value = _parse_operand(cur)
                cur.expect(",")
                addr = _parse_operand(cur)
                return Store(ty, value, addr)
            if first == "br":
                cond = _parse_operand(cur)
                cur.expect(",")
                t = cur.next()[1]
                cur.expect(",")
                e = cur.next()[1]
                return Br(cond, t, e)
            if first == "jmp":
                return Jmp(cur.next()[1])
            if first == "ret":
                if cur.at_end() or cur.peek()[1] == "void":
                    return Ret(VOID)
                ty = parse_type(cur)
                return Ret(ty, _parse_operand(cur))
            return self._parse_call(cur, None)
        raise _LineError(f"cannot parse instruction starting at {first!r}", col)

    def _parse_op(self, cur: _Cursor, dest: str) -> Instr:
        kind, op, col = cur.next()
        if op == "alloca":
            return Alloca(dest, parse_type(cur))
        if op == "load":
            ty = parse_type(cur)
            cur.expect(",")
            return Load(dest, ty, _parse_operand(cur))
        if op == "gep":
            base_ty = parse_type(cur)
            cur.expect(",")
            base = _parse_operand(cur)
            indices = []
            while cur.peek()[1] == ",":
                cur.next()
                indices.append(_parse_operand(cur))
            if not indices:
                raise _LineError("gep needs at least one index", col)
            return Gep(dest, base_ty, base, tuple(indices))
        if op == "call":
            return self._parse_call(cur, dest)
        if op in BINOPS:
            ty = parse_type(cur)
            lhs = _parse_operand(cur)
            cur.expect(",")
            rhs = _parse_operand(cur)
            return BinOp(dest, op, ty, lhs, rhs)
        raise _LineError(f"unknown opcode {op!r}", col)

    def _parse_call(self, cur: _Cursor, dest) -> Call:
        ret_ty = parse_type(cur)
        kind, callee, col = cur.next()
        if kind != "at":
            raise _LineError("call target must look like @name", col)
        cur.expect("(")
        args = []
        while cur.peek()[1] != ")":
            args.append(_parse_operand(cur))
            if cur.peek()[1] == ",":
                cur.next()
        cur.expect(")")
        if isinstance(ret_ty, Void):
            dest = None
        return Call(dest, ret_ty, callee[1:], tuple(args))


def parse_module(text: str) -> Module:
    """Parse IR source into an immutable Module; raises ParseError with
    line/column diagnostics on malformed input.  The empty string is the
    empty module.  Modules are linked by parsing their concatenated text."""
    return _ModuleParser(text).run()


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
