"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py        # from the repository root, ~2 minutes

Checks that the offline generator is deterministic (same seed, same bytes;
another seed, same shape), that every workload and metric name the
command prints, with its unit, matches BENCHMARK.json, and that the
command fails without printing a result where the package is missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import workloads

ROOT = Path.cwd()


def generated(seed: int) -> list[gen.GeneratedModule]:
    return ([gen.scaled_module(seed, n) for n in workloads.SIZES]
            + [gen.many_small_module(seed)])


def shape(gm: gen.GeneratedModule) -> tuple:
    text = gm.text
    return (gm.instructions, gm.functions, sorted(gm.expected),
            len(text.splitlines()), len(re.findall(r"^\w+:$", text, re.M)))


def check_generator() -> None:
    first, again, other = generated(1), generated(1), generated(2)
    for a, b, c in zip(first, again, other):
        assert a.text.encode() == b.text.encode(), f"{a.name}: seed 1 not reproducible"
        assert a.expected == b.expected, f"{a.name}: expected summary not reproducible"
        assert a.text != c.text, f"{a.name}: seeds 1 and 2 give the same module"
        assert shape(a) == shape(c), f"{a.name}: seeds 1 and 2 differ in shape"
    print(f"ok generator: {len(first)} modules reproducible, same shape across seeds")


def result_of(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def check_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS), (names, list(workloads.WORKLOADS))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in names:
            rc, out = result_of(ROOT, w, trace)
            assert rc == 0, f"{w} --trace {trace} exited {rc}"
            res = json.loads(out.strip().splitlines()[-1])
            assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            assert got == want, (w, trace, set(got) ^ set(want))
            if trace == 0:
                assert all(v["value"] > 0 for v in res["metrics"].values()), res
            print(f"ok names: {w} --trace {trace}: {len(got)} metrics")


def check_missing_package() -> None:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = result_of(bare, next(iter(workloads.WORKLOADS)), 0)
        assert rc != 0 and not out.strip().endswith("}"), (rc, out)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok missing package: exit {rc}, no result")


if __name__ == "__main__":
    check_generator()
    check_missing_package()
    check_names()
    print("selftest passed")
