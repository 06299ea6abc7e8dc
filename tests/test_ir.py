"""Type system, layout, parser/printer round-trips, and well-formedness."""

import dataclasses
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from taintsum import corpus, parse_module, print_module, size_of, validate_module
from taintsum.cli import main
from taintsum.ir import (
    Array, CHAR, Char, F32, F64, I8, I16, I32, I64, Int, LayoutError, Module,
    Ptr, StructDecl, StructRef, Structs, U8, U64, VOID, align_of, field_offset,
    field_path_offset, type_str,
)
from taintsum.parser import ParseError, _Parser, parse_type_text


STUDENT = StructDecl("student", (("id", Array(CHAR, 8)), ("score", I32)))
STRUCTS = {"student": STUDENT}


class TestLayout:
    def test_scalar_sizes(self):
        assert size_of(I32, {}) == 4
        assert size_of(I8, {}) == 1
        assert size_of(U64, {}) == 8
        assert size_of(F32, {}) == 4
        assert size_of(CHAR, {}) == 1
        assert size_of(Ptr(VOID), {}) == 8

    def test_array_size(self):
        assert size_of(Array(CHAR, 8), {}) == 8
        assert size_of(Array(I32, 3), {}) == 12

    def test_student_layout(self):
        # char[8] at 0, then i32 aligned to 4 -> offset 8, total 12
        assert size_of(StructRef("student"), STRUCTS) == 12
        assert field_offset(STUDENT, "id", STRUCTS) == 0
        assert field_offset(STUDENT, "score", STRUCTS) == 8

    def test_padding_between_fields(self):
        decl = StructDecl("p", (("c", CHAR), ("x", I64)))
        structs = {"p": decl}
        assert field_offset(decl, "x", structs) == 8
        assert size_of(StructRef("p"), structs) == 16

    def test_union_fields_at_zero(self):
        decl = StructDecl("u", (("a", I32), ("b", Array(CHAR, 7))), is_union=True)
        structs = {"u": decl}
        assert field_offset(decl, "a", structs) == 0
        assert field_offset(decl, "b", structs) == 0
        assert size_of(StructRef("u"), structs) == 8  # max(4,7) padded to 4

    def test_void_is_unsized(self):
        with pytest.raises(LayoutError):
            size_of(VOID, {})

    def test_unknown_field(self):
        with pytest.raises(KeyError):
            field_offset(STUDENT, "nope", STRUCTS)

    def test_field_path_offset(self):
        off, leaf = field_path_offset(Ptr(StructRef("student")), ("score",), STRUCTS)
        assert off == 8 and leaf == I32


# a modest pool of layoutable types for property checks
_prims = st.sampled_from([I8, I16, I32, I64, U8, U64, F32, F64, CHAR])
_types = st.recursive(
    _prims,
    lambda inner: st.one_of(
        st.builds(Ptr, inner),
        st.builds(Array, inner, st.integers(min_value=1, max_value=4)),
    ),
    max_leaves=6,
)


class TestLayoutProperties:
    @given(_types)
    def test_size_positive_and_alignment_sane(self, t):
        sz = size_of(t, {})
        assert sz >= 1
        assert 1 <= align_of(t, {}) <= 8

    @given(st.lists(st.tuples(st.text("abcdefg", min_size=1, max_size=3), _types),
                    min_size=1, max_size=5, unique_by=lambda f: f[0]))
    def test_field_offsets_stay_inside_struct(self, fields):
        decl = StructDecl("s", tuple(fields))
        structs = {"s": decl}
        total = size_of(StructRef("s"), structs)
        for name, fty in fields:
            off = field_offset(decl, name, structs)
            assert off + size_of(fty, structs) <= total

    @given(_types)
    def test_type_string_round_trips(self, t):
        assert parse_type_text(type_str(t)) == t


class TestParser:
    def test_corpus_round_trips(self):
        for name in corpus.NAMES:
            m = corpus.load_module(name)
            assert parse_module(print_module(m)) == m

    @pytest.mark.parametrize("name", corpus.NAMES)
    def test_parsed_module_is_deeply_immutable(self, name):
        """Every IR node is a frozen dataclass, every sequence a tuple and
        every mapping a read-only view or the structs' own read-only
        `Structs`."""
        def walk(x):
            if dataclasses.is_dataclass(x):
                assert type(x).__dataclass_params__.frozen, type(x)
                for f in dataclasses.fields(x):
                    walk(getattr(x, f.name))
            elif isinstance(x, (MappingProxyType, Structs)):
                assert not hasattr(x, "__setitem__") and not hasattr(x, "__delitem__")
                for item in x.items():
                    walk(item)
            elif isinstance(x, tuple):
                for v in x:
                    walk(v)
            else:
                assert isinstance(x, (str, int, float, bytes, type(None))), type(x)
        walk(corpus.load_module(name))

    def test_empty_module(self):
        m = parse_module("")
        assert m == Module()

    def test_student_flow_shape(self, student_flow):
        assert set(student_flow.structs) == {"student"}
        assert set(student_flow.globals) == {"stu", "stdin_buf"}
        assert len(student_flow.functions) == 5
        assert sorted(f.name for f in student_flow.library_functions()) == [
            "memcpy", "student_cpy"]

    def test_function_pointer_param_rejected(self):
        src = "fn @f(%p0: ptr(fn(i32) -> i32)) -> void {\nentry:\n  ret\n}\n"
        with pytest.raises(ParseError) as exc:
            parse_module(src)
        assert "function-pointer parameter unsupported" in str(exc.value)

    def test_variadic_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_module("fn @f(%a: i32, ...) -> void {\nentry:\n  ret\n}\n")
        assert "variadic" in str(exc.value)

    def test_function_typed_field_rejected_by_validator(self):
        m = parse_module("struct %cb { ptr(fn(i32) -> i32) handler }\n")
        assert any("function-pointer field" in d.message
                   for d in validate_module(m))

    def test_duplicate_definition(self):
        src = "global @x : i32\nglobal @x : i64\n"
        with pytest.raises(ParseError) as exc:
            parse_module(src)
        assert "duplicate definition" in str(exc.value)

    def test_unknown_type_name(self):
        with pytest.raises(ParseError) as exc:
            parse_module("global @x : i33\n")
        assert "unknown type name" in str(exc.value)

    def test_diagnostics_carry_position(self):
        try:
            parse_module("\nglobal @x :\n")
        except ParseError as e:
            d = e.diagnostics[0]
            assert d.line == 2 and d.col is not None
        else:
            pytest.fail("expected a parse error")

    def test_comments_and_blank_lines_ignored(self):
        m = parse_module("; nothing here\n\n; more\nglobal @g : i32 = bytes(7)\n")
        assert m.globals["g"].init == b"\x07"


class TestValidator:
    def test_corpus_modules_validate(self):
        for name in corpus.NAMES:
            assert validate_module(corpus.load_module(name)) == []

    def _fn(self, body: str) -> Module:
        return parse_module(f"fn @f() -> void {{\n{body}\n}}\n")

    def test_missing_terminator(self):
        m = self._fn("entry:\n  %x = alloca i32")
        diags = validate_module(m)
        assert len(diags) == 1 and "missing terminator" in diags[0].message
        assert "entry" in diags[0].message

    def test_unresolved_callee(self):
        m = self._fn("entry:\n  call void @g()\n  ret")
        diags = validate_module(m)
        assert any("unresolved callee @g" in d.message for d in diags)
        assert any(d.instr == "f:0" for d in diags)

    def test_temp_reassignment(self):
        m = self._fn("entry:\n  %x = alloca i32\n  %x = alloca i32\n  ret")
        assert any("reassigned" in d.message for d in validate_module(m))

    def test_undefined_temporary(self):
        m = self._fn("entry:\n  %y = load i32, %nope\n  ret")
        assert any("undefined temporary %nope" in d.message
                   for d in validate_module(m))

    def test_bad_gep_chain(self):
        src = ("struct %s { i32 a }\n"
               "fn @f(%p: ptr(%s)) -> void {\n"
               "entry:\n  %x = gep %s, %p, 0, 9\n  ret\n}\n")
        assert any("out of range" in d.message
                   for d in validate_module(parse_module(src)))

    def test_struct_recursion_needs_pointer(self):
        src = "struct %a { %a x }\nfn @f() -> void {\nentry:\n  ret\n}\n"
        assert any("recursive type" in d.message
                   for d in validate_module(parse_module(src)))

    def test_recursion_through_pointer_is_fine(self):
        src = "struct %a { ptr(%a) next, i32 v }\n"
        assert validate_module(parse_module(src)) == []

    def test_terminator_mid_block(self):
        m = self._fn("entry:\n  ret\n  %x = alloca i32\n  ret")
        assert any("terminator not at end" in d.message
                   for d in validate_module(m))

    def test_ret_value_mismatch(self):
        m = parse_module("fn @f() -> i32 {\nentry:\n  ret\n}\n")
        assert any("must return a value" in d.message
                   for d in validate_module(m))

    @pytest.mark.parametrize("ty", ["%pair", "[4 x i32]", "void", "fn(i32) -> i32"])
    def test_widthless_load_and_store(self, ty):
        src = ("struct %pair { i32 a, i32 b }\n"
               "fn @f(%p: ptr(i32)) -> void {\nentry:\n"
               f"  %v = load {ty}, %p\n  store {ty} 0, %p\n  ret\n}}\n")
        assert [(d.instr, d.message) for d in validate_module(parse_module(src))] == [
            ("f:0", f"load of {ty}, a type with no width"),
            ("f:1", f"store of {ty}, a type with no width")]

    def test_widthless_load_stops_run(self, tmp_path, capsys):
        path = tmp_path / "widthless.ir"
        path.write_text("struct %pair { i32 a, i32 b }\n"
                        "fn @main(%p: ptr(%pair)) -> i32 {\nentry:\n"
                        "  %v = load %pair, %p\n  ret i32 0\n}\n")
        assert main(["run", str(path), "--entry", "main", "--args", "4096"]) == 1
        assert "load of %pair, a type with no width [main:0]" in capsys.readouterr().err


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]), _prims),
                min_size=1, max_size=4, unique_by=lambda f: f[0]),
       st.booleans())
def test_struct_decl_round_trip(fields, is_union):
    decl = StructDecl("t", tuple(fields), is_union)
    m = Module(structs={"t": decl})
    assert parse_module(print_module(m)) == m


@st.composite
def _straightline_function(draw):
    """Random well-formed single-block function over integer temps."""
    n_params = draw(st.integers(0, 3))
    params = ", ".join(f"%p{i}: i64" for i in range(n_params))
    names = [f"p{i}" for i in range(n_params)]
    lines = [f"fn @f({params}) -> i64 {{", "entry:"]
    ops = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr", "cmp"]
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["binop", "alloca", "memory"]))
        if kind == "binop" or not names:
            def operand():
                if names and draw(st.booleans()):
                    return "%" + draw(st.sampled_from(names))
                return str(draw(st.integers(-100, 100)))
            lines.append(f"  %t{i} = {draw(st.sampled_from(ops))} i64"
                         f" {operand()}, {operand()}")
            names.append(f"t{i}")
        elif kind == "alloca":
            lines.append(f"  %t{i} = alloca i64")
            names.append(f"t{i}")
        else:
            lines.append(f"  %a{i} = alloca i64")
            lines.append(f"  store i64 {draw(st.integers(-9, 9))}, %a{i}")
            lines.append(f"  %t{i} = load i64, %a{i}")
            names.append(f"t{i}")
    result = "%" + names[-1] if names else "0"
    lines += [f"  ret i64 {result}", "}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=80)
@given(_straightline_function())
def test_random_function_round_trips_and_validates(src):
    m = parse_module(src)
    assert validate_module(m) == []
    assert parse_module(print_module(m)) == m


# Malformed modules and the exact (line, col, message) list ParseError
# gives for each.  Column 0 stands for the end of the line.
PARSE_DIAGNOSTICS = {
    "unknown_type": ("global @x : i33\n", [(1, 13, "unknown type name 'i33'")]),
    "array_length": ("global @a : [0 x i8]\n",
                     [(1, 14, "array length must be a positive integer")]),
    "array_float_length": ("global @a : [1.5 x i8]\n",
                           [(1, 14, "array length must be a positive integer")]),
    "array_missing_x": ("global @a : [4 i8]\n", [(1, 16, "expected 'x', got 'i8'")]),
    "type_expected": ("global @a : 5\n", [(1, 13, "expected a type, got '5'")]),
    "type_at_end_of_line": ("\nglobal @x :\n", [(2, 0, "expected a type, got ''")]),
    "ptr_missing_paren": ("global @p : ptr i8\n", [(1, 17, "expected '(', got 'i8'")]),
    "fn_type_missing_arrow": ("global @p : ptr(fn(i8, i16) i8)\n",
                              [(1, 29, "expected '->', got 'i8'")]),
    "global_name": ("global x : i8\n", [(1, 8, "global name must look like @name")]),
    "global_colon": ("global @x i8\n", [(1, 11, "expected ':', got 'i8'")]),
    "bytes_range": ("global @g : [2 x i8] = bytes(1, 300)\n",
                    [(1, 33, "bytes(...) entries must be 0..255")]),
    "bytes_word": ("global @g : i8 = bytes(a)\n",
                   [(1, 24, "bytes(...) entries must be 0..255")]),
    "bytes_keyword": ("global @g : i8 = (1)\n", [(1, 18, "expected 'bytes', got '('")]),
    "duplicate_global": ("global @x : i32\nglobal @x : i64\n",
                         [(2, 1, "duplicate definition of @x")]),
    "struct_name": ("struct s { i8 a }\n", [(1, 8, "struct name must look like %Name")]),
    "struct_field_name": ("struct %s { i8 5 }\n", [(1, 16, "expected a field name")]),
    "struct_brace": ("struct %s i8 a }\n", [(1, 11, "expected '{', got 'i8'")]),
    "struct_duplicate": ("struct %s { i8 a }\nunion %s { i8 b }\n",
                         [(2, 1, "duplicate definition of %s")]),
    "top_level": ("hello world\nfn\n",
                  [(1, 1, "expected a top-level declaration, got 'hello'"),
                   (2, 0, "function name must look like @name")]),
    "fn_name": ("fn f() -> void {\n", [(1, 4, "function name must look like @name")]),
    # a bad header that opens a body: the body, up to its '}', is skipped
    "fn_param": ("fn @f(x: i8) -> void {\nentry:\n  ret\n}\n",
                 [(1, 7, "parameter must look like %name")]),
    "fn_variadic": ("fn @f(%a: i32, ...) -> void {\n}\n",
                    [(1, 16, "variadic functions unsupported")]),
    "fn_ptr_param": ("fn @f(%p0: ptr(fn(i32) -> i32)) -> void {\n}\n",
                     [(1, 7, "function-pointer parameter unsupported")]),
    "fn_arrow": ("fn @f() void {\n}\n",
                 [(1, 9, "expected '->', got 'void'")]),
    "fn_brace": ("fn @f() -> void\n}\n",
                 [(1, 0, "expected '{', got ''"),
                  (2, 1, "expected a top-level declaration, got '}'")]),
    "body": ("fn @f(%c: i64) -> i64 {\n  %a = add i64 1, 2\nentry:\n"
             "  %x = frob i64 1, 2\n  %y = add i64 1, ,\n  %z = gep %s, %p\n"
             "  call void g()\n  foo bar\n  %w = add i64 1 $ 2\n"
             "  %v = load i64 %p\n  store i64 %a %p\n  br %c b1, b2\n"
             "  %u = alloca\n  ret i64\n}\n",
             [(2, 1, "instruction outside any block in @f"),
              (4, 8, "unknown opcode 'frob'"),
              (5, 19, "expected an operand, got ','"),
              (6, 8, "gep needs at least one index"),
              (7, 13, "call target must look like @name"),
              (8, 3, "cannot parse instruction starting at 'foo'"),
              (9, 18, "expected ',', got '$'"),
              (10, 17, "expected ',', got '%p'"),
              (11, 16, "expected ',', got '%p'"),
              (12, 9, "expected ',', got 'b1'"),
              (13, 0, "expected a type, got ''"),
              (14, 0, "expected an operand, got ''")]),
    "operands": ("fn @f() -> void {\nentry:\n  %x = add i64 abc, 1\n"
                 "  %y = sub i64 1, -\n  store i64 1, =\n  %z = add i64 %, @\n  ret\n}\n",
                 [(3, 16, "expected an operand, got 'abc'"),
                  (4, 19, "expected an operand, got '-'"),
                  (5, 16, "expected an operand, got '='"),
                  (6, 16, "expected an operand, got '%'")]),
    "unterminated": ("fn @f() -> void {\nentry:\n  ret\n",
                     [(3, 1, "unterminated body of @f (missing '}')")]),
    "duplicate_fn": ("global @f : i8\nfn @f() -> void {\nentry:\n  ret\n}\n",
                     [(2, 1, "duplicate definition of @f")]),
    # tokens after the end of a line's construct, and missing labels: each
    # of these parsed without a diagnostic before, dropping what followed
    "trailing_instruction": ("fn @f() -> void {\nentry:\n  %x = add i64 1, 2, 3\n  ret\n}\n",
                             [(3, 20, "expected end of line, got ','")]),
    "trailing_ret": ("fn @f() -> void {\nentry:\n  ret void 5\n}\n",
                     [(3, 12, "expected end of line, got '5'")]),
    "trailing_call": ("fn @g() -> void {\nentry:\n  ret\n}\n"
                      "fn @f() -> void {\nentry:\n  call void @g() junk\n  ret\n}\n",
                      [(7, 18, "expected end of line, got 'junk'")]),
    "trailing_struct": ("struct %s { i64 a } junk\n",
                        [(1, 21, "expected end of line, got 'junk'")]),
    "trailing_global": ("global @g : i64 junk\n",
                        [(1, 17, "expected end of line, got 'junk'")]),
    "trailing_header": ("fn @f() -> void { junk\nentry:\n  ret\n}\n",
                        [(1, 19, "expected end of line, got 'junk'")]),
    "trailing_brace": ("fn @f() -> void {\nentry:\n  ret\n} junk\n",
                       [(4, 3, "expected end of line, got 'junk'")]),
    "missing_jmp_label": ("fn @f() -> void {\nentry:\n  jmp\n}\n",
                          [(3, 0, "expected a label, got ''")]),
    "missing_br_label": ("fn @f(%c: i64) -> void {\nentry:\n  br %c, a,\n}\n",
                         [(3, 0, "expected a label, got ''")]),
    "br_label_not_a_name": ("fn @f(%c: i64) -> void {\nentry:\n  br %c, 5, b\n}\n",
                            [(3, 10, "expected a label, got '5'")]),
    # a ',' between two items of a list and none after the last: each of
    # these parsed without a diagnostic before, and printed with commas
    "call_missing_comma": ("fn @f() -> void {\nentry:\n  call void @h(1 2)\n  ret\n}\n",
                           [(3, 18, "expected ')', got '2'")]),
    "call_trailing_comma": ("fn @f() -> void {\nentry:\n  call void @h(1, 2,)\n  ret\n}\n",
                            [(3, 21, "expected an operand, got ')'")]),
    "param_missing_comma": ("fn @h(%x: i64 %y: i64) -> void {\n}\n",
                            [(1, 15, "expected ')', got '%y'")]),
    "param_trailing_comma": ("fn @h(%x: i64, %y: i64,) -> void {\n}\n",
                             [(1, 24, "parameter must look like %name")]),
    "struct_missing_comma": ("struct %s { i8 a i8 b }\n",
                             [(1, 18, "expected '}', got 'i8'")]),
    "struct_trailing_comma": ("struct %s { i8 a, i8 b, }\n",
                              [(1, 25, "expected a type, got '}'")]),
    "bytes_missing_comma": ("global @g : [2 x i8] = bytes(1 2)\n",
                            [(1, 32, "expected ')', got '2'")]),
    "bytes_trailing_comma": ("global @g : [2 x i8] = bytes(1, 2,)\n",
                             [(1, 35, "bytes(...) entries must be 0..255")]),
}


@pytest.mark.parametrize("name", PARSE_DIAGNOSTICS)
def test_parse_diagnostics_are_pinned(name):
    src, want = PARSE_DIAGNOSTICS[name]
    try:
        parse_module(src)
    except ParseError as e:
        got = [(d.line, d.col, d.message) for d in e.diagnostics]
    else:
        got = []
    assert got == want


def test_a_bad_header_skips_only_its_own_body():
    """The body of a function whose header is bad is skipped up to its
    '}'; the next function still parses and reports its own errors."""
    src = ("fn @f(%x: bogus) -> void library {\nentry:\n  %y = add i32 1, 2\n  ret\n}\n"
           "fn @g(%a: i32) -> i32 {\nentry:\n  %b = frob i32 %a, 1\n  ret i32 %a\n}\n"
           "fn @h() -> void {\nentry:\n  ret\n}\n")
    parser = _Parser(src)
    with pytest.raises(ParseError) as e:
        parser.run()
    assert [(d.line, d.col, d.message) for d in e.value.diagnostics] == [
        (1, 11, "unknown type name 'bogus'"), (8, 8, "unknown opcode 'frob'")]
    assert set(parser.functions) == {"g", "h"}
    assert len(parser.functions["g"].blocks[0].instrs) == 1
    assert parse_module(src[src.index("fn @g"):].replace("frob", "add")).functions["g"]
