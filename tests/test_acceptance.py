"""Acceptance suite: one test per shipped guarantee, each printing a
labeled PASS line (run with `pytest tests/test_acceptance.py -v -s`).

Budgets and tolerances are pinned here, not configurable: the motivating
flow must finish under 1 s, the statistical gates run 100+ trials under
2 minutes, the tainted-space ratio gate is [0.8, 1.3], and the benchmark
gate is a >=5x shadow-operation reduction with >30% of executed
instructions uninstrumented.
"""

import random
import time

import pytest

from taintsum import (
    Machine, TaintConfig, build_pdg, corpus, run, taint_rule_gen,
)
from taintsum.ir import CHAR, I32
from taintsum.summaries import (
    flatten_prim_types, source_nodes, summarize_library, summary_gen,
    target_nodes,
)
from taintsum.tracker import Tagmap
from taintsum.validate import (
    bench, noninterference_check, oracle_compare, transparency_check,
    transparency_check_fn,
)
from test_rules import bound_shapes

TRIALS = 100
CORPUS_FNS = tuple(sorted(corpus.DRIVERS))          # 9 library functions


def report(criterion: str, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: PASS"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)


def test_criterion_1_motivating_flow(student_flow, student_flow_rules):
    cfg = TaintConfig.from_json({
        "sources": [{"fn": "fgets_a", "where": "param", "index": 0, "label": 1}],
        "sinks": [{"fn": "printf_a", "index": 0}],
    })
    t0 = time.perf_counter()
    hits = {}
    for mode in ("instr", "hybrid"):
        rep = run(student_flow, "main", [], cfg, mode, student_flow_rules)
        hits[mode] = [h for h in rep.sink_hits if h.tag & 1]
    elapsed = time.perf_counter() - t0
    assert hits["instr"] and hits["hybrid"]
    assert elapsed < 1.0
    report("1 motivating-example flow",
           f"both modes hit the sink with label 1 in {elapsed * 1000:.0f} ms")


def test_criterion_2_soundness_containment(libcorpus, lib_rules):
    assert len(CORPUS_FNS) >= 8
    t0 = time.perf_counter()
    total_violations = 0
    for fn in CORPUS_FNS:
        rep = oracle_compare(libcorpus, fn, trials=TRIALS, seed=0,
                             rule_programs=lib_rules)
        total_violations += len(rep.violations)
        assert rep.violations == (), (fn, rep.violations[:3])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("2 soundness containment",
           f"{len(CORPUS_FNS)} fns x {TRIALS} trials, 0 persistent-byte"
           f" violations in {elapsed:.1f} s")


def test_criterion_3_noninterference(libcorpus, lib_rules):
    t0 = time.perf_counter()
    for fn in CORPUS_FNS:
        rep = noninterference_check(libcorpus, fn, trials=TRIALS, seed=0,
                                    rule_programs=lib_rules)
        assert rep.violations == (), (fn, rep.violations[:3])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("3 noninterference",
           f"{len(CORPUS_FNS)} fns x {TRIALS} twin trials, 0 violations"
           f" in {elapsed:.1f} s")


def test_criterion_4_implicit_flow_capture(libcorpus, lib_rules):
    rep = oracle_compare(libcorpus, "strlen_a", trials=TRIALS, seed=0,
                         rule_programs=lib_rules)
    assert rep.return_tainted_instr is False
    assert rep.return_tainted_hybrid is True
    report("4 implicit-flow capture",
           "strlen return: instruction-level untainted, rules tainted")


def test_criterion_5_tainting_effect_ratio(libcorpus, lib_rules):
    sum_i = sum_h = 0
    for fn in CORPUS_FNS:
        rep = oracle_compare(libcorpus, fn, trials=TRIALS, seed=0,
                             rule_programs=lib_rules)
        sum_i += rep.sum_tainted_instr
        sum_h += rep.sum_tainted_hybrid
    ratio = sum_h / sum_i
    assert 0.8 <= ratio <= 1.3
    report("5 tainting-effect ratio", f"aggregate hybrid/instr = {ratio:.3f}")


def test_criterion_6_efficiency(bench_memcpy):
    from taintsum.validate import default_rules
    rules = default_rules(bench_memcpy)
    rep = bench(bench_memcpy, "main", [1024], rule_programs=rules)
    by_mode = {r.mode: r for r in rep.rows}
    small = bench(bench_memcpy, "main", [64], rule_programs=rules)
    h, h64 = by_mode["hybrid"], {r.mode: r for r in small.rows}["hybrid"]
    # in-library cost is the rule steps; it must not depend on n
    assert h.shadow_ops_rules == h64.shadow_ops_rules
    assert h.shadow_ops_instr == h64.shadow_ops_instr
    reduction = rep.reduction
    assert reduction >= 5.0
    frac = h.instr_unins / h.instr_total
    assert frac > 0.3
    report("6 efficiency analog",
           f"reduction {reduction:.0f}x, uninstrumented fraction {frac:.2f},"
           f" library cost constant in n")


def test_criterion_7_algorithmic_fixtures(libcorpus, lib_summaries,
                                          lib_summaries_cdep):
    flat = flatten_prim_types(libcorpus.structs)
    assert flat["student"] == frozenset({CHAR, I32})

    def slot_strs(binding, which):
        return sorted(str(binding.wp[n]) for n in getattr(binding, which))

    # memcpy: sources are the three parameters, targets the ret + the
    # store through dest
    g = build_pdg(libcorpus, "memcpy", {})
    fn = libcorpus.functions["memcpy"]
    src_b = source_nodes(libcorpus, fn, g)
    tgt_b = target_nodes(libcorpus, fn, g)
    assert slot_strs(src_b, "sources") == ["param0", "param1", "param2"]
    assert slot_strs(tgt_b, "targets") == ["param0", "ret"]

    def entries(s):
        return {str(out): sorted(str(i) for i in ins) for out, ins in s.entries}

    plain = summary_gen(src_b.merged_with(tgt_b), g, False)
    cdep = summary_gen(src_b.merged_with(tgt_b), g, True)
    assert entries(plain) == {"param0": ["param1"], "ret": ["param0"]}
    assert entries(cdep) == {"param0": ["param1", "param2"], "ret": ["param0"]}

    # student_cpy composes memcpy's summary and writes the global record
    gs = build_pdg(libcorpus, "student_cpy",
                   {"memcpy": lib_summaries["memcpy"]})
    fns = libcorpus.functions["student_cpy"]
    sb = source_nodes(libcorpus, fns, gs)
    tb = target_nodes(libcorpus, fns, gs)
    # the memcpy call exposes three inputs: src->id (arg 1), src->score
    # (field load), and the global's id region (arg 0 feeds memcpy's
    # ret<-dest entry); the last one only yields guard-killed self flows
    assert slot_strs(sb, "sources") == ["@stu.id", "param0.id", "param0.score"]
    assert "@stu.id" in slot_strs(tb, "targets")
    stu = summary_gen(sb.merged_with(tb), gs, False)
    assert entries(stu) == {"@stu.id": ["param0.id"],
                            "@stu.score": ["param0.score"]}

    # rule programs compiled from the frozen summaries, with the extents
    # a module binds: (slot, bytes) per out and in, None for a string
    mem_prog = taint_rule_gen(lib_summaries["memcpy"], libcorpus)
    assert bound_shapes(mem_prog, libcorpus) == [
        (("param0", None), [("param1", None)]), (("ret", 8), [("param0", None)])]
    stu_prog = taint_rule_gen(lib_summaries["student_cpy"], libcorpus)
    assert bound_shapes(stu_prog, libcorpus) == [
        (("@stu.id", 8), [("param0.id", 8)]), (("@stu.score", 4), [("param0.score", 4)])]
    report("7 algorithmic fixtures",
           "flatten/source/target/summary/rules match frozen goldens")


def test_criterion_8_tagmap_algebra():
    tm = Tagmap()
    base = 0x8000 - 32          # straddle a page boundary
    rng = random.Random(0)
    for i in range(64):
        tm.set_taint(base + i, rng.randrange(0, 256), 1)
    checks = 0
    for start in range(64):
        for n in range(0, 64 - start + 1):
            folded = 0
            for i in range(n):
                folded |= tm.get_taint(base + start + i, 1)
            assert tm.get_taint(base + start, n) == folded
            checks += 1
    report("8 tagmap algebra", f"exhaustive OR-fold, {checks} region reads")


def test_criterion_9_mode_transparency(libcorpus, student_flow, bench_memcpy,
                                       bench_user, lib_rules, student_flow_rules):
    t0 = time.perf_counter()
    assert transparency_check(student_flow, "main", [],
                              rule_programs=student_flow_rules) == []
    from taintsum.validate import default_rules
    mb_rules = default_rules(bench_memcpy)
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randrange(0, 2048)
        assert transparency_check(bench_memcpy, "main", [n],
                                  rule_programs=mb_rules) == []
        assert transparency_check(bench_user, "main", [rng.randrange(0, 256)],
                                  rule_programs={}) == []
    fuzzed = 0
    per_fn = -(-1000 // len(CORPUS_FNS))        # ceil to reach 1000 total
    for fn in CORPUS_FNS:
        for seed in range(per_fn):
            assert transparency_check_fn(libcorpus, fn, seed,
                                         rule_programs=lib_rules) == []
            fuzzed += 1
    elapsed = time.perf_counter() - t0
    assert fuzzed >= 1000
    report("9 mode transparency",
           f"corpus programs + {fuzzed} fuzzed inputs identical"
           f" in {elapsed:.1f} s")
