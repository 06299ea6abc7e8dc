"""Per-function cost of one library call in each tracking mode: the table
of the paper's per-function speed-up, for this interpreter.

    python3 tools/fn_speedup.py [--reps 15] [--calls 100] [--json]

For each `libcorpus` function at its driver (`corpus.DRIVERS`), a machine
of each kind calls the function with every parameter tainted, as
`compare` taints a trial's subset of all of them:

  * instr:      instruction-level tracking throughout;
  * hybrid:     the library's rule programs fire at the call's return;
  * zero-rule:  hybrid with an empty rule program for every library
                function, so the body runs untracked and no rule applies:
                the least a compiled rule program could cost.

Only `Machine.call_entry` is timed.  Before each call, outside the timer,
the machine is reset and the plan (seeded per function, the same for every
call) is written and tainted.  A repetition times `--calls` calls of each
kind, the kinds in an order that rotates from one repetition to the next,
between two runs of the calibration loop of `perfbench/workloads.py`; a
call's cost is its mean time in that repetition over the mean of the two
calibrations, in milli-cal (mcal), and the table keeps each kind's least
cost over the repetitions.  The shadow-op counts are one call's.  The
geometric means are printed beside the paper's 1.58x (Sdft over libdft64
on glibc core functions) as context, not as a comparison of the two
systems.  The package and the calibration loop are imported from the tree
the script is in.  Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from taintsum import corpus  # noqa: E402
from taintsum.tracker import Machine  # noqa: E402
from taintsum.validate import (  # noqa: E402
    HARNESS_MEMORY, build_plan, default_rules, materialize_plan,
)
from workloads import calibrate  # noqa: E402

KINDS = ("instr", "hybrid", "zero-rule")
PAPER_SPEEDUP = 1.58


def machines(lib) -> dict[str, Machine]:
    rules = default_rules(lib)
    zero = {name: dataclasses.replace(prog, entries=()) for name, prog in rules.items()}
    return {"instr": Machine(lib, mem_size=HARNESS_MEMORY),
            "hybrid": Machine(lib, mode="hybrid", rule_programs=rules, mem_size=HARNESS_MEMORY),
            "zero-rule": Machine(lib, mode="hybrid", rule_programs=zero,
                                 mem_size=HARNESS_MEMORY)}


def timed_calls(m: Machine, fn: str, plan, calls: int) -> tuple[float, tuple[int, int]]:
    """Seconds `calls` calls of `fn` take on `m`, each from a reset machine
    with every parameter tainted, and the shadow ops (instr, rules) of one."""
    total = 0.0
    for _ in range(calls):
        m.reset()
        args, regions = materialize_plan(m, plan)
        tags = []
        for i, region in enumerate(regions):
            label = 1 << (i % 8)
            if region is not None:
                m.tagmap.set_taint(region[0], label, region[1])
            tags.append(None if region is not None else bytes([label]) * 8)
        t0 = time.perf_counter()
        m.call_entry(fn, args, tags)
        total += time.perf_counter() - t0
    return total, (m.shadow_ops_instr, m.shadow_ops_rules)


def table(reps: int, calls: int) -> dict:
    lib = corpus.load_module("libcorpus")
    ms = machines(lib)
    rows = {}
    for fn in corpus.DRIVERS:
        plan = build_plan(lib, fn, random.Random(f"fn_speedup:{fn}"))
        best = dict.fromkeys(KINDS, math.inf)
        ops = {}
        for rep in range(reps):
            order = KINDS[rep % 3:] + KINDS[:rep % 3]
            before = calibrate()
            seconds = {}
            for kind in order:
                seconds[kind], ops[kind] = timed_calls(ms[kind], fn, plan, calls)
            cal = (before + calibrate()) / 2
            for kind in KINDS:
                best[kind] = min(best[kind], 1e3 * seconds[kind] / calls / cal)
        rows[fn] = {**{f"{kind}_mcal": best[kind] for kind in KINDS},
                    "instr_per_hybrid": best["instr"] / best["hybrid"],
                    "instr_per_zero_rule": best["instr"] / best["zero-rule"],
                    **{f"shadow_ops_{kind}": list(ops[kind]) for kind in KINDS}}
    geo = {key: math.exp(sum(math.log(r[key]) for r in rows.values()) / len(rows))
           for key in ("instr_per_hybrid", "instr_per_zero_rule")}
    return {"reps": reps, "calls": calls, "rows": rows, "geomean": geo,
            "paper_speedup": PAPER_SPEEDUP}


def print_table(doc: dict) -> None:
    print(f"# one call, least over {doc['reps']} reps of {doc['calls']} calls;"
          " shadow ops (instr, rules) of one call")
    print(f"{'function':<12} {'instr':>8} {'hybrid':>8} {'zero-rule':>9}"
          f" {'i/h':>6} {'i/zero':>6}  ops instr / hybrid / zero-rule")
    print(f"{'':<12} {'mcal':>8} {'mcal':>8} {'mcal':>9}")
    for fn, r in doc["rows"].items():
        ops = " / ".join(f"{a},{b}" for a, b in (r[f"shadow_ops_{k}"] for k in KINDS))
        print(f"{fn:<12} {r['instr_mcal']:>8.3f} {r['hybrid_mcal']:>8.3f}"
              f" {r['zero-rule_mcal']:>9.3f} {r['instr_per_hybrid']:>6.2f}"
              f" {r['instr_per_zero_rule']:>6.2f}  {ops}")
    geo = doc["geomean"]
    print(f"{'geomean':<12} {'':>8} {'':>8} {'':>9} {geo['instr_per_hybrid']:>6.2f}"
          f" {geo['instr_per_zero_rule']:>6.2f}")
    print(f"# context, not a comparison of systems: the paper reports {PAPER_SPEEDUP}x"
          " for Sdft over libdft64 on glibc core functions")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=15, help="repetitions (default 15)")
    ap.add_argument("--calls", type=int, default=100, help="calls per repetition (default 100)")
    ap.add_argument("--json", action="store_true", help="print the table as one JSON object")
    args = ap.parse_args(argv)
    if args.reps < 1 or args.calls < 1:
        ap.error("--reps and --calls must be positive")
    doc = table(args.reps, args.calls)
    if args.json:
        print(json.dumps(doc))
    else:
        print_table(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
