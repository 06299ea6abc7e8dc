"""The calls the benchmark in `perfbench/` makes into the package.

`perfbench/spans.py` reads `len(taint_rule_gen(...).steps)` for its
`rules.steps` figure under `--trace 1`, `perfbench/workloads.py` checks
rule files through `parse_rules(text).decompiled_entries()` and times
`apply_rule_program(prog, record, m)`, and `perfbench/selftest.py` runs
them all.  These tests call the same code, so a refactor of the rule layer
that breaks the benchmark fails here first.
"""

import sys
from pathlib import Path
from statistics import mean

import taintsum
import taintsum.cli  # noqa: F401  (the tracer wraps its main)
from taintsum import corpus, parse_rules, serialize_rules, summarize_library, taint_rule_gen

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def corpus_programs():
    """(module, summary, rule program) for every library function of every
    corpus module, with control deps as the CLI compiles them."""
    out = []
    for name in corpus.NAMES:
        m = corpus.load_module(name)
        summaries, _ = summarize_library(m, True)
        out += [(m, s, taint_rule_gen(s, m)) for _, s in sorted(summaries.items())]
    return out


def test_rules_gen_span_reads_the_program_cost():
    after = next(info for _, attr, _, info in spans.FUNCTIONS if attr == "taint_rule_gen")
    for m, s, prog in corpus_programs():
        assert after((s, m), {}, prog) == sum(len(ins) + 2 for _, ins in s.entries)


def test_rule_files_give_back_their_summary_entries():
    for _, s, prog in corpus_programs():
        assert parse_rules(serialize_rules(prog)).decompiled_entries() == s.entries


def test_direct_rule_apply_runs_on_every_libcorpus_program():
    assert workloads.direct_rule_apply_us(taintsum, 0) > 0


def test_traced_rule_figures():
    """Under the tracer, `rules.steps` is the mean program cost and the
    hybrid run's rule shadow ops are the machine's own count."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        m = taintsum.corpus.load_module("student_flow")
        summaries, _ = taintsum.summarize_library(m, True)
        progs = {n: taintsum.taint_rule_gen(s, m) for n, s in summaries.items()}
        report = taintsum.run(m, "main", [], None, "hybrid", progs)
    finally:
        tracer.uninstall()
    figures = tracer.layer_metrics(())
    assert figures["rules.steps"] == mean(len(p.steps) for p in progs.values())
    assert (figures["tracker.shadow_ops_rules.hybrid"] == report.shadow_ops_rules
            == len(progs["student_cpy"].steps) > 0)


def test_harness_round_passes_its_checks():
    """One round of `harness-libcorpus`, which calls the harnesses with
    positional arguments on the rules of `validate.default_rules(lib)`."""
    checks = workloads.Checks()
    workloads.Harness(taintsum, 0, checks).round(0)
    assert checks.attempted == 3 * len(corpus.DRIVERS) and checks.failures == []
