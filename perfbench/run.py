"""taintsum benchmark: one workload per run, metrics as a JSON last line.

    python3 perfbench/run.py --workload offline-scaled --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.
`--trace 0` measures for `--seconds` and reports the end-to-end metrics,
whose times are in calibration units (`cal`, see `workloads.calibrate`).
`--trace 1` measures half the window untraced and half with spans around
every public layer call, and reports the per-layer metrics, including the
tracing overhead.  `--workload all` runs every workload in this process
and prints their metrics prefixed with the workload name.

Human-readable lines (environment, every metric with its unit, failed
checks) come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import spans
import workloads as wl

SETUP_REPS = 9
WALL, CAL = 0, 1
# setup_s is reported in reference seconds: seconds scaled to a host on
# which one `cal` takes this long (it takes 25 to 40 ms on a 2-vCPU Xeon)
REFERENCE_CAL_S = 0.025

# name -> (unit, the per-round figure it is the median of)
END_TO_END = {
    "setup_s": ("s", None),
    "primary_per_cal": ("1/cal", "primary"),
    "secondary_per_cal": ("1/cal", "secondary"),
    "worst_case_cal": ("cal", "worst"),
    "peak_rss_mb": ("MiB", None),
}
# the same figures in wall-clock units, under the names the workloads'
# users know them by
WALL_NAMES = {
    "offline-scaled": {"primary": ("offline_instr_per_s", "instr/s"),
                       "secondary": ("offline_fn_per_s", "fn/s"),
                       "worst": ("offline_large_s", "s")},
    "online-track": {"primary": ("track_instr_per_s.instr", "instr/s"),
                     "secondary": ("track_instr_per_s.hybrid", "instr/s"),
                     "worst": ("track_memcpy_instr_s", "s")},
    "harness-libcorpus": {"primary": ("harness_trials_per_s", "trials/s"),
                          "secondary": ("harness_compare_trials_per_s", "trials/s"),
                          "worst": ("harness_pass_s", "s")},
}
MODULES = ("__init__", "__main__", "cli", "corpus", "ir", "parser", "pdg",
           "rules", "summaries", "tracker", "validate")
LIBCORPUS_FNS = ("abs_a", "copy_twice", "enroll", "memcpy", "memset_a",
                 "pair_cpy", "strcpy_a", "strlen_a", "student_cpy")


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.s": "s" for layer in spans.LAYERS}
    units.update({
        "parser.instr_per_s": "instr/s",
        "pdg.build_s.max": "s", "pdg.instr.max": "count",
        "pdg.nodes.max": "count", "pdg.edges.max": "count",
        "pdg.slope": "ratio",
        "summaries.bind_s": "s", "summaries.gen_s": "s",
        "summaries.entries": "count",
        "rules.gen_s": "s", "rules.serialize_s": "s", "rules.steps": "count",
        "cli.rules_s": "s",
        "tracker.machine_setup_us": "us", "tracker.rule_apply_us": "us",
        "tagmap.scan_s": "s",
    })
    for mode in ("instr", "hybrid"):
        units.update({f"tracker.run_s.{mode}": "s",
                      f"tracker.ns_per_instr.{mode}": "ns",
                      f"tracker.instr_total.{mode}": "count",
                      f"tracker.shadow_ops_instr.{mode}": "count",
                      f"tracker.tainted_bytes.{mode}": "count"})
    units.update({
        "tracker.instr_unins.hybrid": "count",
        "tracker.shadow_ops_rules.hybrid": "count",
        "tracker.shadow_op_ratio": "ratio", "tracker.hybrid_wall_ratio": "ratio",
        "tracker.missed_bytes": "count",
        "validate.compare_s": "s", "validate.nitest_s": "s",
        "validate.transparency_s": "s", "validate.violations": "count",
    })
    units.update({f"validate.ratio.{fn}": "ratio" for fn in LIBCORPUS_FNS})
    units.update({f"loc.{m}": "lines" for m in MODULES})
    units.update({"wall.primary_per_s": "1/s", "wall.secondary_per_s": "1/s",
                  "wall.worst_case_s": "s", "wall.cal_s": "s"})
    units.update({"trace.overhead": "ratio", "error_rate": "ratio"})
    return units


PER_LAYER = per_layer_units()


def environment() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count()}


def lines_of_code(src: Path) -> dict[str, int]:
    return {f"loc.{m}": len((src / f"{m}.py").read_text(encoding="utf-8").splitlines())
            for m in MODULES}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> list[tuple[dict, dict]]:
    """Rounds until `seconds` have passed; each gives (wall, cal) figures."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        gc.collect()        # every round starts from the same collector state
        rounds.append(workload.round(len(rounds)))
    return rounds


def medians(rounds: list[tuple[dict, dict]], which: int) -> dict[str, float]:
    """Medians over the rounds of the wall (0) or calibrated (1) figures."""
    return {k: median(r[which][k] for r in rounds) for k in rounds[0][which]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 src: Path, out_dir: Path) -> tuple[dict, wl.Checks, dict]:
    checks = wl.Checks()
    setup_wall, setup_ref = [], []
    for _ in range(SETUP_REPS):
        cal = wl.calibrate()
        t0 = time.perf_counter()
        ts = wl.import_taintsum()
        w = wl.WORKLOADS[name](ts, seed, checks)
        dt = time.perf_counter() - t0
        setup_wall.append(dt)
        setup_ref.append(dt * REFERENCE_CAL_S * 2 / (cal + wl.calibrate()))
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        if not trace:
            rounds = measure(w, seconds)
            wl.corpus_check(ts, seed, checks, tmp)
            cal = medians(rounds, CAL)
            metrics = {"setup_s": median(setup_ref), "peak_rss_mb": peak_rss_mb()}
            metrics.update({m: cal[key] for m, (_, key) in END_TO_END.items() if key})
            return metrics, checks, {"wall": medians(rounds, WALL),
                                     "setup_wall_s": median(setup_wall),
                                     "details": w.details()}
        untraced = measure(w, seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(w, seconds / 2)
            tainted = wl.corpus_check(ts, seed, checks, tmp)
        finally:
            tracer.uninstall()
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
        metrics = tracer.layer_metrics(LIBCORPUS_FNS)
        metrics.update({f"tracker.tainted_bytes.{m}": n for m, n in tainted.items()})
        metrics["tracker.missed_bytes"] = tainted["instr"] - tainted["hybrid"]
        metrics["tracker.rule_apply_us"] = wl.direct_rule_apply_us(ts, seed)
        metrics.update(lines_of_code(src))
        wall = medians(untraced, WALL)
        metrics.update({"wall.primary_per_s": wall["primary"],
                        "wall.secondary_per_s": wall["secondary"],
                        "wall.worst_case_s": wall["worst"],
                        "wall.cal_s": wall["cal_s"]})
        metrics["trace.overhead"] = (medians(untraced, CAL)["primary"]
                                     / medians(traced, CAL)["primary"] - 1)
        metrics["error_rate"] = len(checks.failures) / checks.attempted
        return metrics, checks, {"wall": wall, "traced_wall": medians(traced, WALL),
                                 "setup_wall_s": median(setup_wall),
                                 "details": w.details()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report_lines(name: str, metrics: dict, units: dict, checks, info: dict) -> None:
    print(f"# workload {name}: {checks.attempted} checks,"
          f" {len(checks.failures)} failed")
    for what in checks.failures[:20]:
        print(f"# FAILED {what}")
    rows = [(m, v, units[m]) for m, v in metrics.items()]
    if "error_rate" not in metrics:
        rows.append(("error_rate", len(checks.failures) / checks.attempted, "ratio"))
    names = WALL_NAMES[name]
    rows += [(wall_name, info["wall"][key], unit)
             for key, (wall_name, unit) in names.items()]
    rows.append(("cal_s", info["wall"]["cal_s"], "s"))
    rows.append(("setup_wall_s", info["setup_wall_s"], "s"))
    if "traced_wall" in info:
        rows += [(f"traced.{wall_name}", info["traced_wall"][key], unit)
                 for key, (wall_name, unit) in names.items()]
    rows += info["details"]
    for m, v, unit in sorted(rows):
        print(f"{m:40s} {v:16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src" / "taintsum"
    if not (src / "__init__.py").is_file():
        print(f"error: no taintsum package under {root / 'src'}; run from the"
              " repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in wl.WORKLOADS for n in names):
        ap.error(f"--workload must be one of {', '.join(wl.WORKLOADS)} or all")
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    env = environment()
    print(f"# python {env['python']}; cpu {env['cpu']}; nproc {env['nproc']}")
    units = PER_LAYER if args.trace else {m: u for m, (u, _) in END_TO_END.items()}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, checks, info = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), src, out_dir)
        report_lines(name, metrics, units, checks, info)
        result["attempted"] += checks.attempted
        result["failed"] += len(checks.failures)
        prefix = f"{name}/" if len(names) > 1 else ""
        result["metrics"].update({prefix + m: {"value": v, "unit": units[m]}
                                  for m, v in metrics.items()})
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
