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

Untracked code runs a recognized copy, fill or scan loop's rounds in one
slice operation, and counts them as executed, as it counts native
execution: the zero-rule and hybrid columns time that, the instr column
every instruction.

Only `Machine.call_entry` is timed, after one call of each kind that
compiles the function's code.  Before each call, outside the timer, the
machine is reset and the plan (seeded per function, the same for every
call) is written and tainted.  A repetition times `--calls` calls of each
kind, the kinds in an order that rotates from one repetition to the next,
between two runs of the calibration loop of `perfbench/workloads.py`; a
call's cost is its mean time in that repetition over the mean of the two
calibrations, in milli-cal (mcal), and the table keeps each kind's least
cost over the repetitions.  The ratios instr/hybrid and instr/zero-rule are
taken within each repetition, whose kinds share its drift, and the table
gives their median and interquartile range over the repetitions.  The
collector runs before each kind's calls, and `gc` counts the collections
that still started inside a timed call.  The shadow-op counts are one
call's.  The geometric means of the median ratios are printed beside the
paper's 1.58x (Sdft over libdft64 on glibc core functions) as context, not
as a comparison of the two systems.  The package and the calibration loop
are imported from the tree the script is in.  Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import random
import statistics
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
RATIOS = {"instr_per_hybrid": "hybrid", "instr_per_zero_rule": "zero-rule"}
PAPER_SPEEDUP = 1.58


class Collections:
    """Counts the collections that start while `timing` is set."""

    def __init__(self):
        self.timing, self.inside = False, 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start" and self.timing:
            self.inside += 1


def machines(lib) -> dict[str, Machine]:
    rules = default_rules(lib)
    zero = {name: dataclasses.replace(prog, entries=()) for name, prog in rules.items()}
    return {"instr": Machine(lib, mem_size=HARNESS_MEMORY),
            "hybrid": Machine(lib, mode="hybrid", rule_programs=rules, mem_size=HARNESS_MEMORY),
            "zero-rule": Machine(lib, mode="hybrid", rule_programs=zero,
                                 mem_size=HARNESS_MEMORY)}


def timed_calls(m: Machine, fn: str, plan, calls: int,
                gcs: Collections) -> tuple[float, tuple[int, int]]:
    """Seconds `calls` calls of `fn` take on `m`, each from a reset machine
    with every parameter tainted, and the shadow ops (instr, rules) of one;
    collects garbage first."""
    total = 0.0
    gc.collect()
    for _ in range(calls):
        m.reset()
        args, regions = materialize_plan(m, plan)
        tags = []
        for i, region in enumerate(regions):
            label = 1 << (i % 8)
            if region is not None:
                m.tagmap.set_taint(region[0], label, region[1])
            tags.append(None if region is not None else bytes([label]) * 8)
        gcs.timing = True
        t0 = time.perf_counter()
        m.call_entry(fn, args, tags)
        total += time.perf_counter() - t0
        gcs.timing = False
    return total, (m.shadow_ops_instr, m.shadow_ops_rules)


def median_iqr(values: list[float]) -> tuple[float, list[float]]:
    if len(values) == 1:
        return values[0], [values[0]] * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, [q1, q3]


def table(reps: int, calls: int) -> dict:
    lib = corpus.load_module("libcorpus")
    ms, gcs = machines(lib), Collections()
    rows = {}
    gc.callbacks.append(gcs)
    try:
        for fn in corpus.DRIVERS:
            plan = build_plan(lib, fn, random.Random(f"fn_speedup:{fn}"))
            costs = {kind: [] for kind in KINDS}
            for kind in KINDS:      # compiles the function's code, untimed
                timed_calls(ms[kind], fn, plan, 1, gcs)
            ops, gcs.inside = {}, 0
            for rep in range(reps):
                order = KINDS[rep % 3:] + KINDS[:rep % 3]
                before = calibrate()
                seconds = {}
                for kind in order:
                    seconds[kind], ops[kind] = timed_calls(ms[kind], fn, plan, calls, gcs)
                cal = (before + calibrate()) / 2
                for kind in KINDS:
                    costs[kind].append(1e3 * seconds[kind] / calls / cal)
            rows[fn] = {f"{kind}_mcal": min(costs[kind]) for kind in KINDS}
            for key, kind in RATIOS.items():
                rows[fn][key], rows[fn][f"{key}_iqr"] = median_iqr(
                    [i / k for i, k in zip(costs["instr"], costs[kind])])
            rows[fn].update({f"shadow_ops_{kind}": list(ops[kind]) for kind in KINDS},
                            gc_in_calls=gcs.inside)
    finally:
        gc.callbacks.remove(gcs)
    geo = {key: math.exp(sum(math.log(r[key]) for r in rows.values()) / len(rows))
           for key in RATIOS}
    return {"reps": reps, "calls": calls, "rows": rows, "geomean": geo,
            "paper_speedup": PAPER_SPEEDUP}


def print_table(doc: dict) -> None:
    print(f"# one call, least over {doc['reps']} reps of {doc['calls']} calls; ratios:"
          " median (quartiles) of the reps'; gc: collections inside timed calls;"
          " shadow ops (instr, rules) of one call")
    print(f"{'function':<12} {'instr':>8} {'hybrid':>8} {'zero-rule':>9}"
          f" {'i/h':>16} {'i/zero':>16} {'gc':>3}  ops instr / hybrid / zero-rule")
    print(f"{'':<12} {'mcal':>8} {'mcal':>8} {'mcal':>9}")
    for fn, r in doc["rows"].items():
        ops = " / ".join(f"{a},{b}" for a, b in (r[f"shadow_ops_{k}"] for k in KINDS))
        ratios = "".join(f" {r[key]:>5.2f} ({r[key + '_iqr'][0]:.2f}-{r[key + '_iqr'][1]:.2f})"
                         for key in RATIOS)
        print(f"{fn:<12} {r['instr_mcal']:>8.3f} {r['hybrid_mcal']:>8.3f}"
              f" {r['zero-rule_mcal']:>9.3f}{ratios} {r['gc_in_calls']:>3}  {ops}")
    geo = doc["geomean"]
    print(f"{'geomean':<12} {'':>8} {'':>8} {'':>9} {geo['instr_per_hybrid']:>16.2f}"
          f" {geo['instr_per_zero_rule']:>16.2f}")
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
