"""Struct layouts kept per module, plans drawn from resolved drivers, and
rule programs bound once per module, against what they replace: the
recursive layout functions and the per-trial plan builder, kept here as
references, as `ReferenceMachine` is for the tracker."""

import dataclasses
import random
import struct as _struct

import pytest
from hypothesis import given, settings, strategies as st

from taintsum import corpus, tracker
from taintsum.corpus import BufArg, CountArg, CStringArg, DRIVERS, IntArg, StructPtrArg
from taintsum.ir import (
    Array, CHAR, Char, F32, F64, Float, Fn, I8, I16, I32, I64, Int, LayoutError,
    MAX_ALIGN, Module, POINTER_BYTES, Ptr, StructDecl, StructRef, U8, U16, U32, U64,
    VOID, align_of, align_up, field_offset, field_path_offset, size_of, type_str,
)
from taintsum.tracker import Machine
from taintsum.validate import (
    HarnessError, _draw_plan, _resolve_driver, build_plan, default_rules, materialize_plan,
)


# ---------------------------------------------------------------------------
# The references
# ---------------------------------------------------------------------------

def ref_align_of(t, structs):
    if isinstance(t, Int):
        return min(t.bits // 8, MAX_ALIGN)
    if isinstance(t, Float):
        return min(t.bits // 8, MAX_ALIGN)
    if isinstance(t, Char):
        return 1
    if isinstance(t, Ptr):
        return POINTER_BYTES
    if isinstance(t, Array):
        return ref_align_of(t.elem, structs)
    if isinstance(t, StructRef):
        decl = structs[t.name]
        return max(ref_align_of(ft, structs) for _, ft in decl.fields)
    raise LayoutError(f"type {type_str(t)} has no alignment")


def ref_size_of(t, structs):
    if isinstance(t, Int):
        return t.bits // 8
    if isinstance(t, Float):
        return t.bits // 8
    if isinstance(t, Char):
        return 1
    if isinstance(t, Ptr):
        return POINTER_BYTES
    if isinstance(t, Array):
        return t.length * ref_size_of(t.elem, structs)
    if isinstance(t, StructRef):
        decl = structs[t.name]
        a = ref_align_of(t, structs)
        if decl.is_union:
            sz = max(ref_size_of(ft, structs) for _, ft in decl.fields)
            return align_up(sz, a)
        off = 0
        for _, ft in decl.fields:
            off = align_up(off, ref_align_of(ft, structs)) + ref_size_of(ft, structs)
        return align_up(off, a)
    raise LayoutError(f"type {type_str(t)} is unsized")


def ref_field_offset(decl, field_name, structs):
    if decl.is_union:
        decl.field_type(field_name)
        return 0
    off = 0
    for n, ft in decl.fields:
        off = align_up(off, ref_align_of(ft, structs))
        if n == field_name:
            return off
        off += ref_size_of(ft, structs)
    raise KeyError(f"struct %{decl.name} has no field {field_name!r}")


def ref_field_path_offset(base, path, structs):
    t = base.pointee if isinstance(base, Ptr) else base
    off = 0
    for name in path:
        if not isinstance(t, StructRef):
            raise LayoutError(f"field path {path} does not fit {type_str(base)}")
        decl = structs[t.name]
        off += ref_field_offset(decl, name, structs)
        t = decl.field_type(name)
    return off, t


def _ref_int_bounds(ty):
    bits = int(ty[1:])
    if ty.startswith("i"):
        return (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    return (0, (1 << bits) - 1)


def ref_gen_struct_bytes(module, name, rng):
    decl = module.structs[name]
    size = ref_size_of(StructRef(name), module.structs)
    buf = bytearray(size)
    for fname, fty in decl.fields:
        off = ref_field_offset(decl, fname, module.structs)
        buf[off:off + ref_size_of(fty, module.structs)] = ref_gen_field(module, fty, rng)
    return bytes(buf)


def ref_gen_field(module, ty, rng):
    if isinstance(ty, Array) and isinstance(ty.elem, Char):
        n = rng.randint(1, max(1, ty.length - 1))
        s = bytes(rng.randrange(33, 127) for _ in range(n))
        return s.ljust(ty.length, b"\0")[:ty.length]
    if isinstance(ty, (Int, Char)):
        bits = 8 if isinstance(ty, Char) else ty.bits
        return rng.getrandbits(bits).to_bytes(bits // 8, "little")
    if isinstance(ty, Float):
        return _struct.pack("<f" if ty.bits == 32 else "<d", rng.uniform(-1e3, 1e3))
    if isinstance(ty, StructRef):
        return ref_gen_struct_bytes(module, ty.name, rng)
    if isinstance(ty, Array):
        return b"".join(ref_gen_field(module, ty.elem, rng) for _ in range(ty.length))
    return bytes(ref_size_of(ty, module.structs))


def ref_build_plan(module, fn_name, rng, drivers=None):
    """(kind, value, content) of each item."""
    items = []
    for spec in (drivers if drivers is not None else DRIVERS)[fn_name]:
        if isinstance(spec, IntArg):
            lo, hi = _ref_int_bounds(spec.ty)
            lo = spec.lo if spec.lo is not None else lo
            hi = spec.hi if spec.hi is not None else hi
            items.append(("scalar", rng.randint(lo, hi), b""))
        elif isinstance(spec, CStringArg):
            n = rng.randint(spec.min_len, spec.max_len)
            s = bytes(rng.randrange(33, 127) for _ in range(n))
            items.append(("buffer", 0, s.ljust(spec.cap, b"\0")))
        elif isinstance(spec, BufArg):
            items.append(("buffer", 0, bytes(spec.size)))
        elif isinstance(spec, StructPtrArg):
            items.append(("buffer", 0, ref_gen_struct_bytes(module, spec.struct, rng)))
        else:
            ref = items[spec.of][2]
            strlen = ref.index(b"\0") if b"\0" in ref else len(ref)
            items.append(("scalar", strlen + spec.plus, b""))
    return items


def outcome(f, *args):
    """What `f(*args)` returns, or the type of what it raises."""
    try:
        return ("value", f(*args))
    except (LayoutError, KeyError, ValueError, RecursionError) as e:
        return ("raises", type(e))


# ---------------------------------------------------------------------------
# Random struct declarations
# ---------------------------------------------------------------------------

_SCALARS = [I8, I16, I32, I64, U8, U16, U32, U64, F32, F64, CHAR, Ptr(I32), Ptr(VOID)]
_NAMES = ["a", "b", "c", "d", "e"]


@st.composite
def _decls(draw, well_formed: bool):
    """Struct and union declarations s0, s1, ...; each field is a scalar,
    an array or a struct declared before it.  Unless `well_formed`, some
    fields are also void, function or unknown structs, some structs have no
    fields and names may repeat (`test_a_struct_that_holds_itself` has the
    cycles, which take a RecursionError each time)."""
    n = draw(st.integers(1, 5))
    decls = []
    for i in range(n):
        earlier = [StructRef(f"s{j}") for j in range(i)]

        def field_type(depth=0):
            kinds = ["scalar", "array"] + ["struct"] * bool(earlier)
            if not well_formed:
                kinds += ["bad"]
            kind = draw(st.sampled_from(kinds))
            if kind == "scalar":
                return draw(st.sampled_from(_SCALARS))
            if kind == "struct":
                return draw(st.sampled_from(earlier))
            if kind == "array" and depth < 2:
                elem = CHAR if draw(st.booleans()) else field_type(depth + 1)
                return Array(elem, draw(st.integers(1, 5)))
            if kind == "bad":
                return draw(st.sampled_from([VOID, Fn((I32,), I32), StructRef("missing")]))
            return CHAR

        k = draw(st.integers(0 if not well_formed else 1, 4))
        names = (draw(st.lists(st.sampled_from(_NAMES), min_size=k, max_size=k))
                 if not well_formed else _NAMES[:k])
        decls.append(StructDecl(f"s{i}", tuple((nm, field_type()) for nm in names),
                                draw(st.booleans())))
    return decls


def _paths(decl, structs, depth=3):
    """Field-name paths into `decl`, each ending at a field or a bad name."""
    out = [("nope",)]
    for name, ft in decl.fields:
        out.append((name,))
        if depth and isinstance(ft, StructRef) and ft.name in structs:
            out += [(name, *rest) for rest in _paths(structs[ft.name], structs, depth - 1)]
        else:
            out.append((name, "deeper"))
    return out


class TestLayoutsMatchTheReference:
    @settings(max_examples=150, deadline=None)
    @given(_decls(well_formed=False))
    def test_random_declarations(self, decls):
        structs = {d.name: d for d in decls}
        kept = Module(structs=structs).structs
        for table in (kept, kept, structs):    # kept layouts, twice; a plain mapping
            for d in decls:
                for ty in (StructRef(d.name), Array(StructRef(d.name), 3), Ptr(StructRef(d.name))):
                    assert outcome(size_of, ty, table) == outcome(ref_size_of, ty, structs)
                    assert outcome(align_of, ty, table) == outcome(ref_align_of, ty, structs)
                for decl in (d, dataclasses.replace(d), dataclasses.replace(d, name="other")):
                    for name in [n for n, _ in d.fields] + ["nope"]:
                        assert (outcome(field_offset, decl, name, table)
                                == outcome(ref_field_offset, decl, name, structs)), (decl, name)
                for path in _paths(d, structs):
                    for base in (StructRef(d.name), Ptr(StructRef(d.name))):
                        assert (outcome(field_path_offset, base, path, table)
                                == outcome(ref_field_path_offset, base, path, structs))

    @pytest.mark.parametrize("ty", [VOID, Fn((I32,), I32), StructRef("missing"),
                                    Array(VOID, 2)])
    def test_unsized_and_unknown_types(self, ty):
        for f, ref in ((size_of, ref_size_of), (align_of, ref_align_of)):
            assert outcome(f, ty, Module().structs) == outcome(ref, ty, {})

    def test_a_struct_that_holds_itself(self):
        structs = {"a": StructDecl("a", (("x", I32), ("y", StructRef("b")))),
                   "b": StructDecl("b", (("z", StructRef("a")),))}
        kept = Module(structs=structs).structs
        for name in structs:
            assert outcome(size_of, StructRef(name), kept) == ("raises", RecursionError)
        assert field_offset(structs["a"], "x", kept) == ref_field_offset(structs["a"], "x", structs)

    def test_corpus_layouts(self):
        for name in corpus.NAMES:
            m = corpus.load_module(name)
            for s, decl in m.structs.items():
                assert size_of(StructRef(s), m.structs) == ref_size_of(StructRef(s), m.structs)
                for fname, _ in decl.fields:
                    assert (field_offset(decl, fname, m.structs)
                            == ref_field_offset(decl, fname, m.structs))


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def assert_same_plans(module, fn_name, drivers, seeds):
    """Every plan, and every twin prefix `noninterference_check` draws, is
    the reference's item by item, and leaves the rng where it did."""
    drawers = _resolve_driver(module, fn_name, drivers)
    for seed in seeds:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        want = ref_build_plan(module, fn_name, ref_rng, drivers)
        assert [tuple(item) for item in build_plan(module, fn_name, rng, drivers)] == want
        assert rng.getstate() == ref_rng.getstate()
        for p in range(len(want)):
            assert tuple(_draw_plan(drawers[:p + 1], random.Random(seed))[p]) == want[p]


def test_corpus_plans(libcorpus):
    for fn_name in DRIVERS:
        assert_same_plans(libcorpus, fn_name, None, range(150))


@st.composite
def _driver(draw, structs):
    specs = []
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["int", "cstring", "buf", "struct"]
                                    + ["count"] * bool(i)))
        if kind == "int":
            ty = draw(st.sampled_from(["i8", "i16", "i32", "i64", "u8", "u32", "u64"]))
            lo, hi = _ref_int_bounds(ty)
            if draw(st.booleans()):
                lo = draw(st.integers(lo, hi))
                hi = draw(st.integers(lo, hi))
            specs.append(IntArg(ty, lo, hi))
        elif kind == "cstring":
            lo = draw(st.integers(0, 40))
            hi = draw(st.integers(lo, 40))
            specs.append(CStringArg(draw(st.integers(hi, 48)), lo, hi))
        elif kind == "buf":
            specs.append(BufArg(draw(st.integers(0, 64))))
        elif kind == "struct":
            specs.append(StructPtrArg(draw(st.sampled_from(sorted(structs)))))
        else:
            specs.append(CountArg(draw(st.integers(0, i - 1)), draw(st.integers(0, 2))))
    return tuple(specs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generated_struct_drivers(data):
    decls = data.draw(_decls(well_formed=True))
    module = Module(structs={d.name: d for d in decls})
    drivers = {"f": data.draw(_driver(module.structs))}
    assert_same_plans(module, "f", drivers, range(20))


def test_driver_errors(libcorpus):
    with pytest.raises(HarnessError, match="no argument recipe for @nope"):
        build_plan(libcorpus, "nope", random.Random(0))
    with pytest.raises(HarnessError, match="unknown argument spec"):
        build_plan(libcorpus, "f", random.Random(0), {"f": (IntArg(), "junk")})


def test_each_buffer_is_written_and_marked(libcorpus):
    m = Machine(libcorpus, mem_size=1 << 20)
    plan = build_plan(libcorpus, "copy_twice", random.Random(3))
    before = set(m.memory.dirty)
    args, regions = materialize_plan(m, plan)
    for item, region in zip(plan, regions):
        if region is not None:
            addr, n = region
            assert m.read_bytes(addr, n) == item.content
            assert set(range(addr >> 12, (addr + n - 1 >> 12) + 1)) <= m.memory.dirty
    assert m.memory.dirty - before == {a >> 12 for a, _ in filter(None, regions)}


# ---------------------------------------------------------------------------
# What the machines of one module share
# ---------------------------------------------------------------------------

def test_images_of_a_module_bind_a_program_once(monkeypatch):
    lib = corpus.load_module("libcorpus")       # a module no machine has seen
    rules = default_rules(lib)
    extents = []
    slot_extent = tracker.slot_extent
    monkeypatch.setattr(tracker, "slot_extent",
                        lambda slot, module: extents.append(slot) or slot_extent(slot, module))
    a, b = (Machine(lib, mode="hybrid", rule_programs=rules) for _ in range(2))
    assert a.shared is b.shared
    prog = rules["pair_cpy"]
    first = a.shared.bound(prog)
    bound_once = len(extents)
    assert bound_once == sum(len(ins) + 1 for _, ins in prog.entries)
    assert b.shared.bound(prog) == first and b.shared.bound(prog)[1] is first[1]
    assert len(extents) == bound_once
    other = dataclasses.replace(prog)       # equal, but another program object
    again = b.shared.bound(other)
    assert len(extents) == 2 * bound_once
    assert again == first and again[1] is not first[1]
    assert a.shared.bound(other)[1] is again[1]
    assert a.shared.bound(prog)[1] is not again[1] and len(extents) == 3 * bound_once
