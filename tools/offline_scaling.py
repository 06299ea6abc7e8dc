"""How the offline phase's cost grows with function size, for two trees.

    python3 tools/offline_scaling.py --parent PARENT_TREE --change CHANGE_TREE \\
        --seed 11 --reps 5

For each generator size (`perfbench/gen.py`'s `scaled_module`, 800 to
25,600 target instructions) and each repetition, one fresh
subprocess per tree times, on that tree's own `src/`:

  * `parse_module` of the module text;
  * `summarize_library` of the parsed module (control dependences on), and
    inside it the time spent in each phase of `PHASES`: the PDG builder's
    nodes and instruction indexes, control dependences, operand edges,
    points-to solve and memory (raw) edges, and the source/target binding.

Each time is taken in calibration units (`cal`, `workloads.calibrate` of
the tree's `perfbench/`, measured just before and just after the timed
call, which starts right after a full collection as `offline-scaled`'s
units do); a size below 6,400 is timed 6,400 // size times in its process
and the least time of each phase kept.  The subprocesses run one after the
other, and the tree that runs first alternates from repetition to
repetition.  The table gives each tree's median over the repetitions,
then the log-log slope between consecutive sizes (the exponent k of
time ~ n^k over one doubling) and over the whole range (least squares),
where n is the module's instruction count.  A last table counts the
generation-2 collections (`gc.callbacks`) of each process that fell inside
the timed calls and inside the calibrations just after them, summed over
its timings, median over the repetitions.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

SIDES = ("parent", "change")
SIZES = (800, 1600, 3200, 6400, 12800, 25600)
# phase inside summarize_library -> the (module, dotted attribute) calls it times
PHASES = {
    "nodes": (("pdg", "_build_function_nodes"), ("pdg", "FunctionIndex.__init__")),
    "cdep": (("pdg", "control_dependencies"),),
    "operand": (("pdg", "_build_operand_edges"),),
    "pts": (("pdg", "_PointsTo.solve"),),
    "memory": (("pdg", "_build_memory_edges"),),
    "bind": (("summaries", "source_nodes"), ("summaries", "target_nodes")),
}
COLUMNS = ("parse", "summarize") + tuple(PHASES)
GC_ZONES = ("call", "cal")      # the timed call, the calibration just after it
INNER_INSTR = 6400      # a size below this is timed 6400 // size times, best kept


def worker(tree: Path, size: int, seed: int) -> None:
    """Time one size on one tree; print the times in cal as a JSON line."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import gen
    from workloads import calibrate
    from taintsum import parse_module, summarize_library

    phase_s = dict.fromkeys(PHASES, 0.0)

    def timed(phase, call):
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return call(*args)
            finally:
                phase_s[phase] += time.perf_counter() - t0
        return wrapper

    for phase, calls in PHASES.items():
        for module, name in calls:
            owner = importlib.import_module(f"taintsum.{module}")
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, attr, timed(phase, getattr(owner, attr)))
    gm = gen.scaled_module(seed, size)

    zone = [None]
    gc2 = dict.fromkeys(GC_ZONES, 0)

    def on_gc(phase, info):
        if phase == "start" and info["generation"] == 2 and zone[0]:
            gc2[zone[0]] += 1
    gc.callbacks.append(on_gc)

    def in_cal(call):
        """The call's result, its wall seconds and the cal around it."""
        gc.collect()
        before = calibrate()
        zone[0] = "call"
        t0 = time.perf_counter()
        result = call()
        dt = time.perf_counter() - t0
        zone[0] = "cal"
        after = calibrate()
        zone[0] = None
        return result, dt, (before + after) / 2

    best = {}
    for _ in range(max(1, INNER_INSTR // size)):
        phase_s.update(dict.fromkeys(PHASES, 0.0))
        m, parse_s, parse_cal = in_cal(lambda: parse_module(gm.text))
        (_, diags), summarize_s, summarize_cal = in_cal(lambda: summarize_library(m, True))
        if diags:
            sys.exit(f"error: {gm.name}: {diags}")
        times = {"parse": parse_s / parse_cal, "summarize": summarize_s / summarize_cal}
        times.update((phase, t / summarize_cal) for phase, t in phase_s.items())
        for column, t in times.items():
            best[column] = min(best.get(column, t), t)
    print(json.dumps(dict(best, instructions=gm.instructions,
                          **{f"gc2_{z}": n for z, n in gc2.items()})))


def run_worker(tree: Path, size: int, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
           "--size", str(size), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) over log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", type=Path, help="root of the parent tree")
    ap.add_argument("--change", type=Path, help="root of the changed tree")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--size", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker.resolve(), args.size, args.seed)
        return 0
    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {(side, size): [] for side in SIDES for size in SIZES}
    instructions = {}
    for k in range(args.reps):
        for size in SIZES:
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                r = run_worker(trees[side], size, args.seed)
                instructions[size] = r["instructions"]
                runs[side, size].append(r)
                print(f"# rep {k + 1}/{args.reps} size {size} {side}:"
                      + "".join(f" {c} {r[c]:.3f}" for c in COLUMNS)
                      + "".join(f" gc2_{z} {r[f'gc2_{z}']}" for z in GC_ZONES),
                      file=sys.stderr, flush=True)

    med = {(side, size, p): median(r[p] for r in runs[side, size])
           for side, size in runs for p in COLUMNS}
    print(f"seed {args.seed}, median of {args.reps} runs per tree, times in cal")
    print("| instructions | " + " | ".join(f"{p} {side}" for p in COLUMNS for side in SIDES)
          + " |")
    print("|" + " --- |" * (1 + len(COLUMNS) * len(SIDES)))
    for size in SIZES:
        print(f"| {instructions[size]} | "
              + " | ".join(f"{med[side, size, p]:.3f}" for p in COLUMNS for side in SIDES)
              + " |")
    print()
    print("log-log slope (time ~ n^k)")
    print("| from | to | " + " | ".join(f"{p} {side}" for p in COLUMNS for side in SIDES)
          + " |")
    print("|" + " --- |" * (2 + len(COLUMNS) * len(SIDES)))
    for a, b in zip(SIZES, SIZES[1:]):
        ks = [slope([(instructions[s], med[side, s, p]) for s in (a, b)])
              for p in COLUMNS for side in SIDES]
        print(f"| {instructions[a]} | {instructions[b]} | "
              + " | ".join(f"{k:.2f}" for k in ks) + " |")
    ks = [slope([(instructions[s], med[side, s, p]) for s in SIZES])
          for p in COLUMNS for side in SIDES]
    print(f"| {instructions[SIZES[0]]} | {instructions[SIZES[-1]]} (fit) | "
          + " | ".join(f"{k:.2f}" for k in ks) + " |")
    print()
    print("generation-2 collections per process, median: in the timed calls (call)"
          " and in the calibrations just after them (cal)")
    print("| instructions | " + " | ".join(f"{z} {side}" for z in GC_ZONES for side in SIDES)
          + " |")
    print("|" + " --- |" * (1 + len(GC_ZONES) * len(SIDES)))
    for size in SIZES:
        print(f"| {instructions[size]} | "
              + " | ".join(f"{median(r[f'gc2_{z}'] for r in runs[side, size]):g}"
                           for z in GC_ZONES for side in SIDES) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
