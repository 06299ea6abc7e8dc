"""Seeded generator of library modules for the offline workload.

Every generated library function is a set of *lanes*.  A lane reads one
named input slot (a scalar parameter, a field of the input struct `%s`, or
a field of the global `@gin`), threads the value through a private local
(`alloca` + `store`/`load` + arithmetic), merges it with an earlier lane's
value (odd lanes) or a constant (even lanes) through the summarized helper
`@mix`, and finally branches on an earlier lane's value, storing itself
into a field of `%o` on one side and of `@gout` on the other.  The last
lane's value is returned.

The summary is therefore known by construction: each output slot depends
on the inputs of every lane that stores into it, plus (through the
branch's control dependence) the inputs of the lane that decided the
branch; `ret` depends on the last lane's inputs.  The lane's position
fixes its input kind, merge partner and branch decider, so the dependency
structure, and with it the analysis cost, is the same for every seed; the
seed picks which parameter and fields each lane reads and writes, the
arithmetic and the constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_SCALARS = 4          # %p0..%p3 : i64  -> param0..param3
N_FIELDS = 8           # %rec fields f0..f7
S_PARAM = N_SCALARS    # %s : ptr(%rec)  -> param4.fK
O_PARAM = N_SCALARS + 1  # %o : ptr(%rec) -> param5.fK

HELPER = """\
fn @mix(%a: i64, %b: i64) -> i64 library {
entry:
  %r = add i64 %a, %b
  ret i64 %r
}
"""
HELPER_SUMMARY = {"ret": ["param0", "param1"]}

SIGNATURE = ", ".join([f"%p{i}: i64" for i in range(N_SCALARS)]
                      + ["%s: ptr(%rec)", "%o: ptr(%rec)"])


@dataclass(frozen=True)
class GeneratedModule:
    name: str
    text: str
    functions: int                       # library functions, helper included
    instructions: int                    # IR instructions in them
    expected: dict[str, dict[str, list[str]]]   # fn -> {out: sorted ins}


def lane_size(depth: int) -> int:
    """Instructions per lane: read 2, alloca 1, chain 3*depth, call 1,
    branch 2 + two arms of 3."""
    return 12 + 3 * depth


def _header() -> str:
    fields = ", ".join(f"i64 f{k}" for k in range(N_FIELDS))
    return (f"struct %rec {{ {fields} }}\n\n"
            "global @gin : %rec\nglobal @gout : %rec\n\n" + HELPER + "\n")


def _function(name: str, lanes: int, depth: int, rng: random.Random,
              ) -> tuple[str, dict[str, list[str]], int]:
    lines = [f"fn @{name}({SIGNATURE}) -> i64 library {{", "entry:"]
    ins: list[set[str]] = []        # inputs carried by each lane's value
    outs: dict[str, set[str]] = {}
    for j in range(lanes):
        p = f"%l{j}_"
        kind = ("scalar", "field", "global")[j % 3]
        if kind == "scalar":
            i = rng.randrange(N_SCALARS)
            slot = f"param{i}"
            lines.append(f"  {p}a = add i64 %p{i}, {rng.randrange(1, 100)}")
            lines.append(f"  {p}v = xor i64 {p}a, {rng.randrange(1, 100)}")
        else:
            k = rng.randrange(N_FIELDS)
            base, slot = (("%s", f"param{S_PARAM}.f{k}") if kind == "field"
                          else ("@gin", f"@gin.f{k}"))
            lines.append(f"  {p}a = gep %rec, {base}, 0, {k}")
            lines.append(f"  {p}v = load i64, {p}a")
        carried = {slot}

        lines.append(f"  {p}m = alloca i64")
        cur = f"{p}v"
        for d in range(depth):
            op = rng.choice(("add", "sub", "xor", "mul"))
            lines.append(f"  store i64 {cur}, {p}m")
            lines.append(f"  {p}ld{d} = load i64, {p}m")
            lines.append(f"  {p}c{d} = {op} i64 {p}ld{d}, {rng.randrange(1, 100)}")
            cur = f"{p}c{d}"

        if j % 2:
            partner = j // 2
            lines.append(f"  {p}x = call i64 @mix({cur}, %l{partner}_x)")
            carried |= ins[partner]
        else:
            lines.append(f"  {p}x = call i64 @mix({cur}, {rng.randrange(1, 100)})")
        ins.append(carried)

        decider = j // 3
        deps = carried | ins[decider]
        lines.append(f"  {p}z = cmp i64 %l{decider}_x, {rng.randrange(100)}")
        lines.append(f"  br {p}z, l{j}_t, l{j}_e")
        for arm in ("t", "e"):
            k = rng.randrange(N_FIELDS)
            base, slot = (("%o", f"param{O_PARAM}.f{k}") if arm == "t"
                          else ("@gout", f"@gout.f{k}"))
            lines.append(f"l{j}_{arm}:")
            lines.append(f"  {p}{arm} = gep %rec, {base}, 0, {k}")
            lines.append(f"  store i64 {p}x, {p}{arm}")
            lines.append(f"  jmp l{j}_j")
            outs.setdefault(slot, set()).update(deps)
        lines.append(f"l{j}_j:")

    lines.append(f"  ret i64 %l{lanes - 1}_x")
    lines.append("}")
    outs["ret"] = set(ins[-1])
    expected = {out: sorted(s) for out, s in outs.items()}
    return "\n".join(lines) + "\n", expected, lanes * lane_size(depth) + 1


def scaled_module(seed: int, target_instr: int, depth: int = 6) -> GeneratedModule:
    """One library function of about `target_instr` instructions."""
    rng = random.Random(f"perfbench:scaled:{seed}:{target_instr}")
    lanes = max(1, round((target_instr - 1) / lane_size(depth)))
    body, expected, n = _function("scaled", lanes, depth, rng)
    return GeneratedModule(
        f"scaled-{target_instr}", _header() + body, 2, n + 2,
        {"mix": HELPER_SUMMARY, "scaled": expected})


def many_small_module(seed: int, count: int = 100, lanes: int = 2,
                      depth: int = 3) -> GeneratedModule:
    """`count` corpus-sized functions (43 instructions each by default)."""
    rng = random.Random(f"perfbench:small:{seed}")
    parts, expected, total = [_header()], {"mix": HELPER_SUMMARY}, 2
    for k in range(count):
        body, exp, n = _function(f"small{k}", lanes, depth, rng)
        parts.append(body + "\n")
        expected[f"small{k}"] = exp
        total += n
    return GeneratedModule(f"small-x{count}", "".join(parts), count + 1,
                           total, expected)
