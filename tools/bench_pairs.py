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
method) and the number of pairs in which the change did better, plus each
run's (correct, failed checks); `host` is the environment line the runs
print.  The file is rewritten after every pair, so an interrupted run
keeps the pairs it finished.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


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
                     "change_better_pairs": f"{better}/{len(pairs)}"}
    out["correct_failed"] = {side: [[p[side]["correct"], p[side]["failed"]] for p in pairs]
                             for side in SIDES}
    return out


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
           "host": "", "summary": {}, "runs": {}}
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
