"""Evaluation harnesses: mode comparison of tainted space, twin-execution
noninterference checking, and shadow-operation benchmarking.

Each harness call keeps its machines, one per mode or twin, and resets them
between trials, so that the two tracking modes (and the two executions of
a twin pair) see identical memory layouts from plan-generated inputs;
reports are deterministic given (module, seed, trials).
"""

from __future__ import annotations

import random
import struct as _struct
import time
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

from .corpus import BufArg, CountArg, CStringArg, DRIVERS, IntArg, StructPtrArg
from .ir import (
    Array, Char, Float, Function, Int, Module, StructRef, Type, Void,
    field_offset, size_of,
)
from .rules import TaintRuleProgram, compile_library
from .tracker import GLOBALS_BASE, PAGE, Machine, Tagmap, run

HARNESS_MEMORY = 1 * 1024 * 1024
MAX_SUBSETS = 256


class HarnessError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input plans
# ---------------------------------------------------------------------------

class _PlanItem(NamedTuple):
    kind: str                       # "scalar" | "buffer"
    value: int = 0
    content: bytes = b""


def _int_bounds(ty: str) -> tuple[int, int]:
    signed = ty.startswith("i")
    bits = int(ty[1:])
    if signed:
        return (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    return (0, (1 << bits) - 1)


# `randrange(33, 127)` takes 32-bit words until the top 7 bits of one are
# below 94 and gives 33 plus them: a top byte below 188, halved, plus 33
_PRINTABLE = bytes(33 + (b >> 1) for b in range(188)).ljust(256, b"\0")
_REJECTED = bytes(range(188, 256))


def _printable(rng: random.Random, n: int) -> bytes:
    """`n` bytes drawn as `n` calls of `rng.randrange(33, 127)` draw them,
    from the same words in the same order: `getrandbits(32 * k)` gives the
    next `k` words, the first in the lowest bits."""
    out = b""
    while len(out) < n:
        k = n - len(out)        # no more words than bytes still wanted
        words = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
        out += words[3::4].translate(_PRINTABLE, _REJECTED)
    return out


def _field_gen(module: Module, ty: Type):
    """A function of the rng giving random bytes for a value of `ty`; a
    struct's fields are drawn in order, each written over its own bytes."""
    structs = module.structs
    if isinstance(ty, Array) and isinstance(ty.elem, Char):
        cap, top = ty.length, max(1, ty.length - 1)
        return lambda rng: _printable(rng, rng.randint(1, top)).ljust(cap, b"\0")[:cap]
    if isinstance(ty, (Int, Char)):
        bits = 8 if isinstance(ty, Char) else ty.bits
        return lambda rng: rng.getrandbits(bits).to_bytes(bits // 8, "little")
    if isinstance(ty, Float):
        pack = _struct.Struct("<f" if ty.bits == 32 else "<d").pack
        return lambda rng: pack(rng.uniform(-1e3, 1e3))
    if isinstance(ty, Array):
        elem, n = _field_gen(module, ty.elem), ty.length
        return lambda rng: b"".join([elem(rng) for _ in range(n)])
    if not isinstance(ty, StructRef):
        zeros = bytes(size_of(ty, structs))
        return lambda rng: zeros
    decl, size, fields = structs[ty.name], size_of(ty, structs), []
    for fname, fty in decl.fields:
        off = field_offset(decl, fname, structs)
        fields.append((off, off + size_of(fty, structs), _field_gen(module, fty)))

    def gen(rng: random.Random) -> bytes:
        buf = bytearray(size)
        for lo, hi, field_gen in fields:
            buf[lo:hi] = field_gen(rng)
        return bytes(buf)
    return gen


def _drawer(module: Module, spec):
    """`spec` resolved against `module`: a function of the rng and the
    items drawn before its own that draws its item."""
    if isinstance(spec, IntArg):
        lo, hi = _int_bounds(spec.ty)
        lo = spec.lo if spec.lo is not None else lo
        hi = spec.hi if spec.hi is not None else hi
        return lambda rng, items: _PlanItem("scalar", rng.randint(lo, hi))
    if isinstance(spec, CStringArg):
        cap, lo, hi = spec.cap, spec.min_len, spec.max_len
        return lambda rng, items: _PlanItem(
            "buffer", content=_printable(rng, rng.randint(lo, hi)).ljust(cap, b"\0"))
    if isinstance(spec, BufArg):
        item = _PlanItem("buffer", content=bytes(spec.size))
        return lambda rng, items: item
    if isinstance(spec, StructPtrArg):
        gen = _field_gen(module, StructRef(spec.struct))
        return lambda rng, items: _PlanItem("buffer", content=gen(rng))
    if isinstance(spec, CountArg):
        of, plus = spec.of, spec.plus
        return lambda rng, items: _PlanItem(
            "scalar", len(items[of].content.split(b"\0", 1)[0]) + plus)
    raise HarnessError(f"unknown argument spec {spec!r}")


def _resolve_driver(module: Module, fn_name: str,
                   drivers: Optional[Mapping[str, tuple]] = None) -> tuple:
    """`fn_name`'s driver resolved against `module` once, for every plan
    drawn from it (`_draw_plan`): buffer sizes, and struct sizes and field
    offsets, worked out."""
    driver = (drivers if drivers is not None else DRIVERS).get(fn_name)
    if driver is None:
        raise HarnessError(f"no argument recipe for @{fn_name}")
    return tuple(_drawer(module, spec) for spec in driver)


def _draw_plan(drawers: Sequence, rng: random.Random) -> list[_PlanItem]:
    """A plan of the `drawers` of a resolved driver, or of a prefix of
    them, drawn in order from `rng`."""
    items: list[_PlanItem] = []
    for draw in drawers:
        items.append(draw(rng, items))
    return items


def build_plan(module: Module, fn_name: str, rng: random.Random,
               drivers: Optional[Mapping[str, tuple]] = None) -> list[_PlanItem]:
    return _draw_plan(_resolve_driver(module, fn_name, drivers), rng)


def materialize_plan(machine: Machine, plan: Sequence[_PlanItem],
                     ) -> tuple[list[int], list[Optional[tuple[int, int]]]]:
    """Allocate and fill buffers; returns (arg values, per-arg regions)."""
    args: list[int] = []
    regions: list[Optional[tuple[int, int]]] = []
    for kind, value, content in plan:
        if kind == "scalar":
            args.append(value)
            regions.append(None)
        else:
            n = len(content)
            addr = machine.alloc(n)
            machine.write_bytes(addr, content)
            args.append(addr)
            regions.append((addr, n))
    return args, regions


def _subsets(k: int) -> list[tuple[int, ...]]:
    from itertools import combinations
    out: list[tuple[int, ...]] = []
    for size in range(1, k + 1):
        out.extend(combinations(range(k), size))
        if len(out) >= MAX_SUBSETS:
            break
    return out[:MAX_SUBSETS]


def _run_trial(machine: Machine, fn_name: str, plan,
               subset: tuple[int, ...]) -> list:
    """Resets `machine` and runs one trial on it, tainting the arguments of
    `subset`; returns the per-arg regions of its plan."""
    machine.reset()
    args, regions = materialize_plan(machine, plan)
    arg_tags: list[Optional[bytes]] = [None] * len(args)
    for i in subset:
        label = 1 << (i % 8)
        if regions[i] is not None:
            machine.tagmap.set_taint(regions[i][0], label, regions[i][1])
        else:
            arg_tags[i] = bytes([label]) * 8
    machine.call_entry(fn_name, args, arg_tags)
    return regions


def default_rules(module: Module) -> dict[str, TaintRuleProgram]:
    return compile_library(module)[0]


def _function(module: Module, fn_name: str) -> Function:
    fn = module.functions.get(fn_name)
    if fn is None:
        raise HarnessError(f"no function @{fn_name}")
    return fn


def _rules(module: Module, rule_programs: Optional[Mapping[str, TaintRuleProgram]],
           ) -> Mapping[str, TaintRuleProgram]:
    """A harness call's rules: those given, or else the module's own."""
    return default_rules(module) if rule_programs is None else rule_programs


# ---------------------------------------------------------------------------
# Tainting-effect comparison (instruction-level oracle vs rules)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    function: str
    trials: int
    avg_tainted_instr: float
    avg_tainted_hybrid: float
    ratio: float
    return_tainted_instr: bool
    return_tainted_hybrid: bool
    violations: tuple[tuple[int, int], ...]     # (trial, byte address)
    sum_tainted_instr: int = 0
    sum_tainted_hybrid: int = 0

    def to_json(self) -> dict:
        return {
            "function": self.function,
            "trials": self.trials,
            "avgTaintedBytesInstr": self.avg_tainted_instr,
            "avgTaintedBytesHybrid": self.avg_tainted_hybrid,
            "ratio": self.ratio,
            "returnTaintedInstr": self.return_tainted_instr,
            "returnTaintedHybrid": self.return_tainted_hybrid,
            "violations": [list(v) for v in self.violations],
        }


_NONZERO = bytes([0] + [1] * 255)     # translates each nonzero tag to 1


def _uncovered(tm: Tagmap, other: Tagmap, ranges: Sequence[tuple[int, int]]) -> list[int]:
    """The addresses, ascending, within any of the [lo, hi) `ranges` that
    `tm` tags and `other` does not, compared page by page."""
    spans: list[list[int]] = []      # the ranges merged, in order
    for lo, hi in sorted(r for r in ranges if r[0] < r[1]):
        if spans and lo <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], hi)
        else:
            spans.append([lo, hi])
    out = []
    for pno in sorted(tm.pages):
        base, page, cover = pno * PAGE, tm.pages[pno], other.pages.get(pno)
        for lo, hi in spans:
            lo, hi = max(lo, base) - base, min(hi, base + PAGE) - base
            if lo < hi:     # a bit 8k for each byte k tagged here and not there
                miss = int.from_bytes(page[lo:hi].translate(_NONZERO), "little")
                if cover is not None:
                    miss &= ~int.from_bytes(cover[lo:hi].translate(_NONZERO), "little")
                while miss:
                    low = miss & -miss
                    out.append(base + lo + low.bit_length() // 8)
                    miss ^= low
    return out


def oracle_compare(module: Module, fn_name: str, trials: int = 100,
                   seed: int = 0,
                   rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
                   drivers: Optional[Mapping[str, tuple]] = None,
                   ) -> ComparisonReport:
    """Run the function under both modes with parameter-sized tainting over
    every nonempty parameter subset, comparing tainted-byte counts and
    asserting that rules never miss a persistent byte the instruction-level
    oracle taints."""
    subsets = _subsets(len(_function(module, fn_name).params))
    kw = dict(rule_programs=_rules(module, rule_programs), mem_size=HARNESS_MEMORY)
    m_i, m_h = Machine(module, **kw), Machine(module, mode="hybrid", **kw)
    drawers = _resolve_driver(module, fn_name, drivers)
    sum_i = sum_h = 0
    ret_i = ret_h = False
    violations: list[tuple[int, int]] = []
    for t in range(trials):
        plan = _draw_plan(drawers, random.Random(f"{seed}:{fn_name}:{t}"))
        subset = subsets[t % len(subsets)] if subsets else ()
        regions = _run_trial(m_i, fn_name, plan, subset)
        _run_trial(m_h, fn_name, plan, subset)
        sum_i += m_i.tagmap.count_nonzero()
        sum_h += m_h.tagmap.count_nonzero()
        ret_i = ret_i or any(m_i.ret_shadow)
        ret_h = ret_h or any(m_h.ret_shadow)
        ranges = [(GLOBALS_BASE, m_i.globals_end)] + [
            (addr, addr + n) for addr, n in filter(None, regions)]
        violations += [(t, addr) for addr in _uncovered(m_i.tagmap, m_h.tagmap, ranges)]
    avg_i = sum_i / trials if trials else 0.0
    avg_h = sum_h / trials if trials else 0.0
    if avg_i > 0:
        ratio = avg_h / avg_i
    else:
        ratio = 1.0 if avg_h == 0 else float("inf")
    return ComparisonReport(fn_name, trials, avg_i, avg_h, ratio,
                            ret_i, ret_h, tuple(violations), sum_i, sum_h)


# ---------------------------------------------------------------------------
# Noninterference twin execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NIViolation:
    slot: str
    value_a: str
    value_b: str
    trial: int


@dataclass(frozen=True)
class NIReport:
    function: str
    trials: int
    tainted_choices: tuple[int, ...]
    violations: tuple[NIViolation, ...]

    def to_json(self) -> dict:
        return {
            "function": self.function,
            "trials": self.trials,
            "taintedChoices": list(self.tainted_choices),
            "violations": [
                {"slot": v.slot, "a": v.value_a, "b": v.value_b, "trial": v.trial}
                for v in self.violations
            ],
        }


def _high_roots(entries, tainted_param: int) -> set[tuple]:
    """Transitive closure of slots that may carry the tainted label after
    the call, over a rule program's `entries`: the tainted slot
    itself plus every entry output whose inputs intersect the closure
    (rules only ever add tag bits)."""
    def root(slot) -> tuple:
        if slot.kind == "param":
            return ("param", slot.index)
        if slot.kind == "global":
            return ("global", slot.name)
        return ("ret",)

    high: set[tuple] = {("param", tainted_param)}
    changed = True
    while changed:
        changed = False
        for out, ins in entries:
            if root(out) not in high and any(root(s) in high for s in ins):
                high.add(root(out))
                changed = True
    return high


def noninterference_check(
        module: Module, fn_name: str, trials: int = 100, seed: int = 0,
        rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
        drivers: Optional[Mapping[str, tuple]] = None) -> NIReport:
    """Twin executions with equal low inputs and independent high inputs;
    any concrete difference on an output the rules classify as untainted
    is a noninterference violation."""
    fn = _function(module, fn_name)
    prog = _rules(module, rule_programs).get(fn_name)
    if prog is None:
        raise HarnessError(f"@{fn_name} has no rule program")
    if not fn.params:
        raise HarnessError(f"@{fn_name} has no parameter to taint")
    choices: list[int] = []
    violations: list[NIViolation] = []
    nparams = len(fn.params)
    highs = [_high_roots(prog.entries, p) for p in range(nparams)]
    m_a, m_b = Machine(module, mem_size=HARNESS_MEMORY), Machine(module, mem_size=HARNESS_MEMORY)
    drawers = _resolve_driver(module, fn_name, drivers)
    sizes = [(g, addr, size_of(module.globals[g].ty, module.structs))
             for g, addr in m_a.global_addr.items()]
    for t in range(trials):
        rng = random.Random(f"{seed}:ni:{fn_name}:{t}")
        p_star = rng.randrange(nparams)
        choices.append(p_star)
        plan_shared = _draw_plan(drawers, rng)
        plan_b = list(plan_shared)
        # the twin's item, which only the items before it can change
        rng_b = random.Random(f"{seed}:ni:{fn_name}:{t}:twin")
        plan_b[p_star] = _draw_plan(drawers[:p_star + 1], rng_b)[p_star]

        regions = _run_trial(m_a, fn_name, plan_shared, ())
        _run_trial(m_b, fn_name, plan_b, ())
        ret_a, ret_b = m_a.exit_value, m_b.exit_value

        high = highs[p_star]
        if ("ret",) not in high and not isinstance(fn.ret_ty, Void):
            if ret_a != ret_b:
                violations.append(NIViolation("ret", str(ret_a), str(ret_b), t))
        low = [(f"param{i}", *region) for i, region in enumerate(regions)
               if region is not None and i != p_star and ("param", i) not in high]
        low += [(f"@{g}", addr, n) for g, addr, n in sizes if ("global", g) not in high]
        for slot, lo, n in low:
            a, b = m_a.read_bytes(lo, n), m_b.read_bytes(lo, n)
            if a != b:
                violations.append(NIViolation(slot, a.hex(), b.hex(), t))
    return NIReport(fn_name, trials, tuple(choices), tuple(violations))


# ---------------------------------------------------------------------------
# Benchmarks and mode transparency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    mode: str
    instr_total: int
    instr_unins: int
    shadow_ops_instr: int
    shadow_ops_rules: int
    wall_seconds: float

    @property
    def shadow_ops_total(self) -> int:
        return self.shadow_ops_instr + self.shadow_ops_rules


@dataclass(frozen=True)
class BenchReport:
    entry: str
    args: tuple[int, ...]
    rows: tuple[BenchRow, ...]

    @property
    def reduction(self) -> float:
        by_mode = {r.mode: r for r in self.rows}
        h = by_mode["hybrid"].shadow_ops_total
        i = by_mode["instr"].shadow_ops_total
        return i / h if h else float("inf")

    def to_csv(self) -> str:
        lines = ["mode,instr_total,instr_uninstrumented,shadow_ops_instr,"
                 "shadow_ops_rules,shadow_ops_total,wall_seconds"]
        for r in self.rows:
            lines.append(f"{r.mode},{r.instr_total},{r.instr_unins},"
                         f"{r.shadow_ops_instr},{r.shadow_ops_rules},"
                         f"{r.shadow_ops_total},{r.wall_seconds:.6f}")
        lines.append(f"reduction,,,,,{self.reduction:.3f},")
        return "\n".join(lines) + "\n"


def bench(module: Module, entry: str = "main", args: Sequence[int] = (),
          rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
          **run_kw) -> BenchReport:
    rules = _rules(module, rule_programs)
    rows = []
    for mode in ("instr", "hybrid"):
        t0 = time.perf_counter()
        rep = run(module, entry, args, mode=mode, rule_programs=rules, **run_kw)
        dt = time.perf_counter() - t0
        rows.append(BenchRow(mode, rep.instr_executed_total,
                             rep.instr_executed_unins, rep.shadow_ops_instr,
                             rep.shadow_ops_rules, dt))
    return BenchReport(entry, tuple(args), tuple(rows))


def _both_modes(module: Module, rules, entry: str, args_of) -> list[tuple]:
    """(exit value, final memory) of an instr and then a hybrid machine of
    `module`, each called with `args_of(machine)`."""
    out = []
    for mode in ("instr", "hybrid"):
        m = Machine(module, mode=mode, rule_programs=rules, mem_size=HARNESS_MEMORY)
        out.append((m.call_entry(entry, args_of(m)), m.memory))
    return out


def transparency_check(module: Module, entry: str, args: Sequence[int],
                       rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
                       ) -> list[str]:
    """Concrete exit value and final memory must not depend on the mode."""
    (x_i, mem_i), (x_h, mem_h) = _both_modes(
        module, _rules(module, rule_programs), entry, lambda m: list(args))
    mismatches = []
    if x_i != x_h:
        mismatches.append(f"exit value differs: {x_i} vs {x_h}")
    if mem_i != mem_h:
        mismatches.append("final concrete memory differs")
    return mismatches


def transparency_check_fn(
        module: Module, fn_name: str, seed: int,
        rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
        drivers: Optional[Mapping[str, tuple]] = None) -> list[str]:
    """Driver-based variant for library functions with generated inputs."""
    plan = build_plan(module, fn_name, random.Random(f"transparency:{seed}:{fn_name}"),
                      drivers)
    instr, hybrid = _both_modes(module, _rules(module, rule_programs), fn_name,
                                lambda m: materialize_plan(m, plan)[0])
    return [f"@{fn_name} diverges between modes (seed {seed})"] if instr != hybrid else []
