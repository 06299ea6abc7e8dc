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
