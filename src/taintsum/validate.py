"""Evaluation harnesses: mode comparison of tainted space, twin-execution
noninterference checking, and shadow-operation benchmarking.

Every harness drives fresh machines with plan-generated inputs so that the
two tracking modes (and the two executions of a twin pair) see identical
memory layouts; reports are deterministic given (module, seed, trials).
"""

from __future__ import annotations

import random
import struct as _struct
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .corpus import BufArg, CountArg, CStringArg, DRIVERS, IntArg, StructPtrArg
from .ir import (
    Array, Char, Float, Function, Int, Module, StructRef, Type, Void,
    field_offset, size_of,
)
from .rules import DEFAULT_STRING_CAP, TaintRuleProgram, compile_library
from .tracker import GLOBALS_BASE, PAGE, Image, Machine, Tagmap, run

HARNESS_MEMORY = 1 * 1024 * 1024
MAX_SUBSETS = 256


class HarnessError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PlanItem:
    kind: str                       # "scalar" | "buffer"
    value: int = 0
    content: bytes = b""


def _int_bounds(ty: str) -> tuple[int, int]:
    signed = ty.startswith("i")
    bits = int(ty[1:])
    if signed:
        return (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    return (0, (1 << bits) - 1)


def _gen_struct_bytes(module: Module, name: str, rng: random.Random) -> bytes:
    decl = module.structs[name]
    size = size_of(StructRef(name), module.structs)
    buf = bytearray(size)
    for fname, fty in decl.fields:
        off = field_offset(decl, fname, module.structs)
        buf[off:off + size_of(fty, module.structs)] = _gen_field(module, fty, rng)
    return bytes(buf)


def _gen_field(module: Module, ty: Type, rng: random.Random) -> bytes:
    if isinstance(ty, Array) and isinstance(ty.elem, Char):
        n = rng.randint(1, max(1, ty.length - 1))
        s = bytes(rng.randrange(33, 127) for _ in range(n))
        return s.ljust(ty.length, b"\0")[:ty.length]
    if isinstance(ty, (Int, Char)):
        bits = 8 if isinstance(ty, Char) else ty.bits
        v = rng.getrandbits(bits)
        return v.to_bytes(bits // 8, "little")
    if isinstance(ty, Float):
        v = rng.uniform(-1e3, 1e3)
        return _struct.pack("<f" if ty.bits == 32 else "<d", v)
    if isinstance(ty, StructRef):
        return _gen_struct_bytes(module, ty.name, rng)
    if isinstance(ty, Array):
        return b"".join(_gen_field(module, ty.elem, rng)
                        for _ in range(ty.length))
    return bytes(size_of(ty, module.structs))


def build_plan(module: Module, fn_name: str, rng: random.Random,
               drivers: Optional[Mapping[str, tuple]] = None) -> list[_PlanItem]:
    driver = (drivers if drivers is not None else DRIVERS).get(fn_name)
    if driver is None:
        raise HarnessError(f"no argument recipe for @{fn_name}")
    items: list[_PlanItem] = []
    for spec in driver:
        if isinstance(spec, IntArg):
            lo, hi = _int_bounds(spec.ty)
            lo = spec.lo if spec.lo is not None else lo
            hi = spec.hi if spec.hi is not None else hi
            items.append(_PlanItem("scalar", value=rng.randint(lo, hi)))
        elif isinstance(spec, CStringArg):
            n = rng.randint(spec.min_len, spec.max_len)
            s = bytes(rng.randrange(33, 127) for _ in range(n))
            items.append(_PlanItem("buffer", content=s.ljust(spec.cap, b"\0")))
        elif isinstance(spec, BufArg):
            items.append(_PlanItem("buffer", content=bytes(spec.size)))
        elif isinstance(spec, StructPtrArg):
            items.append(_PlanItem(
                "buffer", content=_gen_struct_bytes(module, spec.struct, rng)))
        elif isinstance(spec, CountArg):
            ref = items[spec.of].content
            strlen = ref.index(b"\0") if b"\0" in ref else len(ref)
            items.append(_PlanItem("scalar", value=strlen + spec.plus))
        else:
            raise HarnessError(f"unknown argument spec {spec!r}")
    return items


def materialize_plan(machine: Machine, plan: Sequence[_PlanItem],
                     ) -> tuple[list[int], list[Optional[tuple[int, int]]]]:
    """Allocate and fill buffers; returns (arg values, per-arg regions)."""
    args: list[int] = []
    regions: list[Optional[tuple[int, int]]] = []
    for item in plan:
        if item.kind == "scalar":
            args.append(item.value)
            regions.append(None)
        else:
            addr = machine.alloc(len(item.content))
            machine.write_bytes(addr, item.content)
            args.append(addr)
            regions.append((addr, len(item.content)))
    return args, regions


def _subsets(k: int) -> list[tuple[int, ...]]:
    from itertools import combinations
    out: list[tuple[int, ...]] = []
    for size in range(1, k + 1):
        out.extend(combinations(range(k), size))
        if len(out) >= MAX_SUBSETS:
            break
    return out[:MAX_SUBSETS]


def _run_trial(image: Image, fn_name: str, plan, mode: str,
               subset: tuple[int, ...]) -> Machine:
    machine = Machine(image, mode=mode)
    args, regions = materialize_plan(machine, plan)
    arg_tags: list[Optional[bytes]] = [None] * len(args)
    for i in subset:
        label = 1 << (i % 8)
        if regions[i] is not None:
            machine.tagmap.set_taint(regions[i][0], label, regions[i][1])
        else:
            arg_tags[i] = bytes([label]) * 8
    machine.call_entry(fn_name, args, arg_tags)
    machine.trial_regions = regions        # for the persistent-byte walk
    return machine


def default_rules(module: Module, include_control_deps: bool = True,
                  default_len: int = DEFAULT_STRING_CAP) -> dict[str, TaintRuleProgram]:
    return compile_library(module, include_control_deps, default_len)[0]


def _function(module: Module, fn_name: str) -> Function:
    fn = module.functions.get(fn_name)
    if fn is None:
        raise HarnessError(f"no function @{fn_name}")
    return fn


def _image(module: Module, rule_programs: Optional[Mapping[str, TaintRuleProgram]],
           mem_size: int) -> Image:
    """The one image of a harness call: its rules, or else the module's own."""
    return Image(module, default_rules(module) if rule_programs is None
                 else rule_programs, mem_size)


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
                   mem_size: int = HARNESS_MEMORY,
                   drivers: Optional[Mapping[str, tuple]] = None,
                   ) -> ComparisonReport:
    """Run the function under both modes with parameter-sized tainting over
    every nonempty parameter subset, comparing tainted-byte counts and
    asserting that rules never miss a persistent byte the instruction-level
    oracle taints."""
    subsets = _subsets(len(_function(module, fn_name).params))
    image = _image(module, rule_programs, mem_size)
    sum_i = sum_h = 0
    ret_i = ret_h = False
    violations: list[tuple[int, int]] = []
    for t in range(trials):
        rng = random.Random(f"{seed}:{fn_name}:{t}")
        plan = build_plan(module, fn_name, rng, drivers)
        subset = subsets[t % len(subsets)] if subsets else ()
        m_i = _run_trial(image, fn_name, plan, "instr", subset)
        m_h = _run_trial(image, fn_name, plan, "hybrid", subset)
        sum_i += m_i.tagmap.count_nonzero()
        sum_h += m_h.tagmap.count_nonzero()
        ret_i = ret_i or any(m_i.ret_shadow)
        ret_h = ret_h or any(m_h.ret_shadow)
        ranges = [(GLOBALS_BASE, m_i.globals_end)] + [
            (addr, addr + n) for addr, n in filter(None, m_i.trial_regions)]
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


def _high_roots(prog: TaintRuleProgram, tainted_param: int) -> set[tuple]:
    """Transitive closure of slots that may carry the tainted label after
    the call: the tainted slot itself plus every entry output whose inputs
    intersect the closure (rules only ever add tag bits)."""
    def root(slot) -> tuple:
        if slot.kind == "param":
            return ("param", slot.index)
        if slot.kind == "global":
            return ("global", slot.name)
        return ("ret",)

    high: set[tuple] = {("param", tainted_param)}
    entries = prog.decompiled_entries()
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
        mem_size: int = HARNESS_MEMORY,
        drivers: Optional[Mapping[str, tuple]] = None) -> NIReport:
    """Twin executions with equal low inputs and independent high inputs;
    any concrete difference on an output the rules classify as untainted
    is a noninterference violation."""
    fn = _function(module, fn_name)
    rules = (dict(rule_programs) if rule_programs is not None
             else default_rules(module))
    prog = rules.get(fn_name)
    if prog is None:
        raise HarnessError(f"@{fn_name} has no rule program")
    if not fn.params:
        raise HarnessError(f"@{fn_name} has no parameter to taint")
    choices: list[int] = []
    violations: list[NIViolation] = []
    nparams, image = len(fn.params), Image(module, mem_size=mem_size)
    for t in range(trials):
        rng = random.Random(f"{seed}:ni:{fn_name}:{t}")
        p_star = rng.randrange(nparams)
        choices.append(p_star)
        plan_shared = build_plan(module, fn_name, rng, drivers)
        plan_b = list(plan_shared)
        rng_b = random.Random(f"{seed}:ni:{fn_name}:{t}:twin")
        plan_b[p_star] = build_plan(module, fn_name, rng_b, drivers)[p_star]

        m_a = Machine(image)
        m_b = Machine(image)
        args_a, regions = materialize_plan(m_a, plan_shared)
        args_b, _ = materialize_plan(m_b, plan_b)
        ret_a = m_a.call_entry(fn_name, args_a)
        ret_b = m_b.call_entry(fn_name, args_b)

        high = _high_roots(prog, p_star)
        if ("ret",) not in high and not isinstance(fn.ret_ty, Void):
            if ret_a != ret_b:
                violations.append(NIViolation("ret", str(ret_a), str(ret_b), t))
        low = [(f"param{i}", *region) for i, region in enumerate(regions)
               if region is not None and i != p_star and ("param", i) not in high]
        low += [(f"@{g}", addr, size_of(module.globals[g].ty, module.structs))
                for g, addr in m_a.global_addr.items() if ("global", g) not in high]
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
    rules = dict(rule_programs) if rule_programs is not None else default_rules(module)
    rows = []
    for mode in ("instr", "hybrid"):
        t0 = time.perf_counter()
        rep = run(module, entry, args, mode=mode, rule_programs=rules, **run_kw)
        dt = time.perf_counter() - t0
        rows.append(BenchRow(mode, rep.instr_executed_total,
                             rep.instr_executed_unins, rep.shadow_ops_instr,
                             rep.shadow_ops_rules, dt))
    return BenchReport(entry, tuple(args), tuple(rows))


def _both_modes(image: Image, entry: str, args_of) -> list[tuple]:
    """(exit value, final memory) of an instr and then a hybrid machine of
    `image`, each called with `args_of(machine)`."""
    out = []
    for mode in ("instr", "hybrid"):
        m = Machine(image, mode=mode)
        out.append((m.call_entry(entry, args_of(m)), m.memory))
    return out


def transparency_check(module: Module, entry: str, args: Sequence[int],
                       rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
                       mem_size: int = HARNESS_MEMORY) -> list[str]:
    """Concrete exit value and final memory must not depend on the mode."""
    (x_i, mem_i), (x_h, mem_h) = _both_modes(
        _image(module, rule_programs, mem_size), entry, lambda m: list(args))
    mismatches = []
    if x_i != x_h:
        mismatches.append(f"exit value differs: {x_i} vs {x_h}")
    if mem_i != mem_h:
        mismatches.append("final concrete memory differs")
    return mismatches


def transparency_check_fn(
        module: Module, fn_name: str, seed: int,
        rule_programs: Optional[Mapping[str, TaintRuleProgram]] = None,
        mem_size: int = HARNESS_MEMORY,
        drivers: Optional[Mapping[str, tuple]] = None) -> list[str]:
    """Driver-based variant for library functions with generated inputs."""
    image = _image(module, rule_programs, mem_size)
    plan = build_plan(module, fn_name, random.Random(f"transparency:{seed}:{fn_name}"),
                      drivers)
    instr, hybrid = _both_modes(image, fn_name, lambda m: materialize_plan(m, plan)[0])
    return [f"@{fn_name} diverges between modes (seed {seed})"] if instr != hybrid else []
