"""Smoke tests of the scripts in `tools/` that no other test runs, so that a
change to the package they read cannot leave them broken unnoticed."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from taintsum import corpus

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("program", corpus.NAMES)
def test_show_code_prints_compilable_source(program, capsys):
    """Every function of every corpus program, tracked and untracked."""
    show_code = _tool("show_code")
    for fn in corpus.load_module(program).functions:
        for flags in ([], ["--untracked"]):
            assert show_code.main([program, fn, *flags]) == 0
            source = capsys.readouterr().out
            assert source.startswith("def F(m, f):"), (program, fn, flags)
            compile(source, f"{program}:{fn}", "exec")


def test_show_code_as_a_script():
    proc = subprocess.run([sys.executable, str(TOOLS / "show_code.py"), "libcorpus",
                           "@strcpy_a"], capture_output=True, text=True, check=True)
    compile(proc.stdout, "strcpy_a", "exec")


def test_fn_speedup_lists_every_libcorpus_function():
    proc = subprocess.run([sys.executable, str(TOOLS / "fn_speedup.py"), "--reps", "1",
                           "--calls", "1", "--json"],
                          capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout)
    assert list(doc["rows"]) == list(corpus.load_module("libcorpus").functions)
    ratios = {"instr_per_hybrid", "instr_per_zero_rule"}
    for fn, row in doc["rows"].items():
        assert all(row[f"{kind}_mcal"] > 0 for kind in ("instr", "hybrid", "zero-rule")), fn
        for key in ratios:      # one rep: its ratio is the median and both quartiles
            assert row[f"{key}_iqr"] == [row[key]] * 2 and row[key] > 0, (fn, key)
        assert type(row["gc_in_calls"]) is int and row["gc_in_calls"] >= 0, fn
    assert set(doc["geomean"]) == ratios


def test_fn_speedup_ratios_are_medians_of_paired_reps(capsys):
    """Each ratio is the median of the reps' own ratios, between its
    quartiles, and the table prints both."""
    fn_speedup = _tool("fn_speedup")
    doc = fn_speedup.table(reps=3, calls=1)
    for fn, row in doc["rows"].items():
        for key in ("instr_per_hybrid", "instr_per_zero_rule"):
            q1, q3 = row[f"{key}_iqr"]
            assert 0 < q1 <= row[key] <= q3, (fn, key)
    fn_speedup.print_table(doc)
    out = capsys.readouterr().out
    assert "geomean" in out and f"({doc['rows']['memcpy']['instr_per_hybrid_iqr'][0]:.2f}-" in out


def test_bench_pairs_paired_shift_on_fixed_lists():
    """Differences 1..10: the median and the Hodges-Lehmann estimate are
    5.5, and the interval runs from the 9th smallest Walsh average to the
    9th largest, since P(T <= 8) = 25/1024 for 10 pairs.  Differences 1, 2,
    3, 10, 20: five pairs admit no 95% tail, so the interval is the whole
    range, and the estimate is the 8th of the 15 Walsh averages."""
    bench_pairs = _tool("bench_pairs")
    parent = [100.0 + k for k in range(10)]
    assert bench_pairs.paired_shift(parent, [p + d for p, d in zip(parent, range(1, 11))]) == {
        "median": 5.5, "hodges_lehmann": 5.5, "interval": [3.0, 8.0], "coverage": 1 - 50 / 1024}
    assert bench_pairs.paired_shift([5.0] * 5, [6.0, 7.0, 8.0, 15.0, 25.0]) == {
        "median": 3.0, "hodges_lehmann": 6.0, "interval": [1.0, 20.0], "coverage": 1 - 2 / 32}
    assert bench_pairs.LEVEL == 0.95
    assert bench_pairs.signed_rank_tail(6) == (1, 1 - 2 / 64)
    assert bench_pairs.signed_rank_tail(20)[0] == 53     # the tables' 52, plus one


def test_bench_pairs_summary_holds_the_shift():
    bench_pairs = _tool("bench_pairs")
    metrics = [{"name": "secondary_per_cal", "unit": "1/cal", "better": "higher"}]
    pairs = [{side: {"metrics": {"secondary_per_cal": {"value": v + k}},
                     "correct": 1, "failed": 0} for side, v in (("parent", 10), ("change", 12))}
             for k in range(6)]
    row = bench_pairs.summarize(pairs, metrics)["secondary_per_cal"]
    assert row["change_better_pairs"] == "6/6"
    assert row["shift"] == {"median": 2, "hodges_lehmann": 2, "interval": [2, 2],
                            "coverage": 1 - 2 / 64}


def test_offline_scaling_worker_times_every_phase():
    """One worker process on this tree: every column in cal, and the
    generation-2 collection counts of the timed calls and calibrations."""
    offline_scaling = _tool("offline_scaling")
    proc = subprocess.run([sys.executable, str(TOOLS / "offline_scaling.py"), "--worker",
                           str(TOOLS.parent), "--size", "800", "--seed", "11"],
                          capture_output=True, text=True, check=True)
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(row[c] > 0 for c in offline_scaling.COLUMNS), row
    assert all(type(row[f"gc2_{z}"]) is int and row[f"gc2_{z}"] >= 0
               for z in offline_scaling.GC_ZONES), row
    assert row["instructions"] > 0


def test_print_outputs_machine_runs_repeat(capsys):
    """`print_outputs.py`, which a change's byte-identity check diffs
    between trees: three of its machine-run sections print something, and
    the same in a second run."""
    print_outputs = _tool("print_outputs")
    for section in (print_outputs.looped_outputs, print_outputs.recursion_outputs,
                    print_outputs.wild_outputs):
        runs = []
        for _ in range(2):
            section()
            runs.append(capsys.readouterr().out)
        assert runs[0] and runs[0] == runs[1], section.__name__
