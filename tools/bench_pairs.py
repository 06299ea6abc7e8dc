"""Paired, alternating benchmark runs of two trees, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --workloads harness-libcorpus online-track offline-scaled \\
        --seed 11 --seconds 30 --pairs 10 --pr N --what "what the change is"

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each tree, from that tree's root, one run after the
other; the side that runs first alternates from pair to pair, starting with
the parent.  The JSON last line of every run is kept as it was printed
(`runs`), and `summary` gives, per workload and end-to-end metric of the
change tree's BENCHMARK.json, each side's median and quartiles (inclusive
method), the number of pairs in which the change did better and the paired
shift, change minus parent: the median of the pairs' differences and the
Hodges-Lehmann estimate with its distribution-free interval at about
`LEVEL` (`shift`); plus each run's (correct, failed checks).  `peak_rss_mb` also
gets each pair's shift in the 256 KiB steps the allocator's arenas grow by.
`host` is the environment line the runs print, and `loc` each tree's source
lines per module of `src/taintsum`.  The file is rewritten after every pair, so an interrupted run
keeps the pairs it finished.  Standard library only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ARENA_MB = 0.25      # the allocator maps memory in 256 KiB arenas
LEVEL = 0.95        # the confidence the shift's interval aims at


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """The run's JSON result and the environment line it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:"
                 f"\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), next((s[2:] for s in lines if s.startswith("# python")), "")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def signed_rank_tail(n: int) -> tuple[int, float]:
    """The largest c >= 1 with P(T < c) <= (1 - LEVEL) / 2 for the Wilcoxon
    signed-rank statistic T of `n` pairs, or 1 when there is none, and the
    two-sided coverage 1 - 2 P(T < c) of the interval it gives."""
    counts = [1]        # counts[t]: the sign patterns of ranks 1..k with T = t
    for k in range(1, n + 1):
        counts = [a + (counts[t - k] if t >= k else 0)
                  for t, a in enumerate(counts + [0] * k)]
    below = list(itertools.accumulate(counts))      # below[t]: those with T <= t
    c = max(1, sum(x <= (1 - LEVEL) / 2 * 2 ** n for x in below))
    return c, 1 - 2 * below[c - 1] / 2 ** n


def paired_shift(parent: list[float], change: list[float]) -> dict:
    """Change minus parent over the pairs: the median difference, the
    Hodges-Lehmann estimate (the median of the Walsh averages, the means
    of every two differences and of each with itself) and the interval
    between the c-th smallest and c-th largest Walsh average, c from
    `signed_rank_tail`, with its exact coverage."""
    d = [b - a for a, b in zip(parent, change)]
    walsh = sorted((d[i] + d[j]) / 2 for i in range(len(d)) for j in range(i, len(d)))
    c, coverage = signed_rank_tail(len(d))
    return {"median": statistics.median(d), "hodges_lehmann": statistics.median(walsh),
            "interval": [walsh[c - 1], walsh[-c]], "coverage": coverage}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out: dict = {}
    for m in metrics:
        name = m["name"]
        if not all(name in p[side]["metrics"] for p in pairs for side in SIDES):
            continue
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        better = sum((c > p) if m["better"] == "higher" else (c < p)
                     for p, c in zip(values["parent"], values["change"]))
        out[name] = {"unit": m["unit"],
                     **{side: quartiles(values[side]) for side in SIDES},
                     "change_better_pairs": f"{better}/{len(pairs)}",
                     "shift": paired_shift(values["parent"], values["change"])}
        if name == "peak_rss_mb":
            shifts = [(c - p) / ARENA_MB for p, c in zip(values["parent"], values["change"])]
            out[name]["shift_arenas"] = {**quartiles(sorted(shifts)), "pairs": shifts}
    out["correct_failed"] = {side: [[p[side]["correct"], p[side]["failed"]] for p in pairs]
                             for side in SIDES}
    return out


def lines_of_code(tree: Path) -> dict[str, int]:
    """Source lines of each module of the tree's package, and their total."""
    loc = {p.stem: len(p.read_text(encoding="utf-8").splitlines())
           for p in sorted((tree / "src" / "taintsum").glob("*.py"))}
    return {**loc, "total": sum(loc.values())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    ap.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--pr", required=True, help="writes BENCH_<pr>.json here")
    ap.add_argument("--what", default="", help="a line saying what is compared")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = {"what": args.what,
           "command": f"python3 perfbench/run.py --workload <name> --seed {args.seed}"
                      f" --seconds {args.seconds:g} --trace 0",
           "host": "", "summary": {}, "runs": {},
           "loc": {side: lines_of_code(tree) for side, tree in trees.items()}}
    out = Path(f"BENCH_{args.pr}.json")
    for workload in args.workloads:
        pairs = doc["runs"][workload] = []
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"pair": k + 1, "first": order[0]}
            for side in order:
                pair[side], doc["host"] = run_once(trees[side], workload, args.seed,
                                                   args.seconds)
            pairs.append(pair)
            doc["summary"][workload] = summarize(pairs, bench["end_to_end"])
            out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            p, c = (pair[s]["metrics"]["primary_per_cal"]["value"] for s in SIDES)
            print(f"{workload} pair {k + 1}/{args.pairs}: primary_per_cal"
                  f" parent {p:.4g} change {c:.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
