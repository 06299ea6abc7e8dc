"""Evaluation harnesses: oracle comparison, noninterference twins, and the
shadow-operation benchmark, including the negative cases that justify
control-dependency summaries."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from taintsum import Machine, TaintRuleProgram, corpus, parse_module, validate
from taintsum.tracker import PAGE, Tagmap
from taintsum.validate import (
    HARNESS_MEMORY, _uncovered, bench, build_plan, default_rules, materialize_plan,
    noninterference_check, oracle_compare, transparency_check,
    transparency_check_fn,
)


@pytest.fixture(scope="module")
def explicit_rules(libcorpus, lib_summaries):
    from taintsum import taint_rule_gen
    return {n: taint_rule_gen(s, libcorpus) for n, s in lib_summaries.items()}


class TestOracleCompare:
    def test_memcpy(self, libcorpus, lib_rules):
        rep = oracle_compare(libcorpus, "memcpy", trials=40, seed=3,
                             rule_programs=lib_rules)
        assert rep.violations == ()
        assert rep.return_tainted_hybrid is True
        assert rep.return_tainted_instr is False

    def test_strlen_return_flags(self, libcorpus, lib_rules):
        rep = oracle_compare(libcorpus, "strlen_a", trials=30, seed=3,
                             rule_programs=lib_rules)
        assert rep.return_tainted_instr is False
        assert rep.return_tainted_hybrid is True

    def test_identity_scalar_ratio_is_one(self, lib_rules):
        src = """fn @ident(%x: i32) -> i32 library {
entry:
  ret i32 %x
}
"""
        m = parse_module(src)
        drivers = dict(corpus.DRIVERS, ident=(corpus.IntArg("i32"),))
        rules = default_rules(m)
        rep = oracle_compare(m, "ident", trials=20, seed=1,
                             rule_programs=rules, drivers=drivers)
        assert rep.ratio == 1.0
        assert rep.violations == ()
        assert rep.return_tainted_instr and rep.return_tainted_hybrid

    def test_containment_across_corpus(self, libcorpus, lib_rules):
        for fn in sorted(corpus.DRIVERS):
            rep = oracle_compare(libcorpus, fn, trials=25, seed=9,
                                 rule_programs=lib_rules)
            assert rep.violations == (), fn

    def test_empty_programs_violate_on_argument_buffers(self, libcorpus):
        """Rules that taint nothing must be caught on the caller's buffers,
        not only on globals: memcpy's copied bytes land in `dest`."""
        empty = {f.name: TaintRuleProgram(f.name, ())
                 for f in libcorpus.library_functions()}
        rep = oracle_compare(libcorpus, "memcpy", trials=4, seed=0,
                             rule_programs=empty)
        assert rep.violations
        for t, addr in rep.violations:
            plan = build_plan(libcorpus, "memcpy", random.Random(f"0:memcpy:{t}"))
            machine = Machine(libcorpus, mem_size=HARNESS_MEMORY)
            dest, n = materialize_plan(machine, plan)[1][0]
            assert dest <= addr < dest + n

    def test_deterministic_given_seed(self, libcorpus, lib_rules):
        a = oracle_compare(libcorpus, "memcpy", trials=12, seed=5,
                           rule_programs=lib_rules)
        b = oracle_compare(libcorpus, "memcpy", trials=12, seed=5,
                           rule_programs=lib_rules)
        assert a == b

    def test_plan_generation_is_deterministic(self, libcorpus):
        import random
        p1 = build_plan(libcorpus, "memcpy", random.Random("x"))
        p2 = build_plan(libcorpus, "memcpy", random.Random("x"))
        assert p1 == p2


def _uncovered_per_byte(tm, other, ranges):
    """The per-byte containment scan `_uncovered` replaced, kept as its
    oracle."""
    return [addr for addr, _tag in tm.nonzero_bytes()
            if any(lo <= addr < hi for lo, hi in ranges) and other.get_taint(addr, 1) == 0]


# tag vectors written around the edges of three pages
_VECTORS = st.lists(st.tuples(st.integers(PAGE - 40, 4 * PAGE + 40),
                              st.binary(min_size=1, max_size=80)), max_size=8)


class TestUncovered:
    @settings(max_examples=300, deadline=None)
    @given(_VECTORS, _VECTORS, st.lists(st.tuples(st.integers(PAGE - 60, 4 * PAGE + 60),
                                                  st.integers(-4, 3 * PAGE)), max_size=5))
    def test_matches_the_per_byte_scan(self, mine, theirs, ranges):
        """Overlapping, empty and page-crossing ranges; pages present in one
        Tagmap only or in both."""
        tms = Tagmap(), Tagmap()
        for tm, writes in zip(tms, (mine, theirs)):
            for addr, vec in writes:
                tm.set_vector(addr, vec)
        ranges = [(lo, lo + n) for lo, n in ranges]
        assert _uncovered(*tms, ranges) == _uncovered_per_byte(*tms, ranges)


class TestNoninterference:
    def test_corpus_is_clean_with_control_dep_rules(self, libcorpus, lib_rules):
        for fn in sorted(corpus.DRIVERS):
            rep = noninterference_check(libcorpus, fn, trials=40, seed=2,
                                        rule_programs=lib_rules)
            assert rep.violations == (), (fn, rep.violations[:2])

    def test_strlen_violates_without_control_deps(self, libcorpus,
                                                  explicit_rules):
        # without control-dependency entries the return value is classified
        # low, but it concretely depends on the tainted string
        rep = noninterference_check(libcorpus, "strlen_a", trials=30, seed=2,
                                    rule_programs=explicit_rules)
        assert rep.violations
        assert all(v.slot == "ret" for v in rep.violations)

    def test_memcpy_count_violates_without_control_deps(
            self, libcorpus, explicit_rules):
        rep = noninterference_check(libcorpus, "memcpy", trials=60, seed=2,
                                    rule_programs=explicit_rules)
        assert any(v.slot == "param0" for v in rep.violations)

    def test_pure_copy_has_no_low_differences(self, libcorpus, lib_rules):
        rep = noninterference_check(libcorpus, "pair_cpy", trials=50, seed=8,
                                    rule_programs=lib_rules)
        assert rep.violations == ()
        assert len(rep.tainted_choices) == 50

    def test_one_machine_pair_and_one_closure_per_call(
            self, libcorpus, lib_rules, monkeypatch):
        """A harness call builds its machines once and resets them between
        trials; `nitest` takes each parameter's high-root closure over the
        rule program's entries once."""
        made, closures = [], []

        class Counted(Machine):
            def __init__(self, module, **kw):
                made.append(kw.get("mode", "instr"))
                super().__init__(module, **kw)
        high_roots = validate._high_roots
        monkeypatch.setattr(validate, "Machine", Counted)
        monkeypatch.setattr(validate, "_high_roots",
                            lambda entries, p: closures.append(p) or high_roots(entries, p))
        ni = noninterference_check(libcorpus, "copy_twice", trials=12, seed=1,
                                   rule_programs=lib_rules)
        assert made == ["instr", "instr"] and closures == [0, 1, 2, 3]
        oracle_compare(libcorpus, "copy_twice", trials=12, seed=1, rule_programs=lib_rules)
        assert made[2:] == ["instr", "hybrid"]
        monkeypatch.undo()
        assert ni == noninterference_check(libcorpus, "copy_twice", trials=12, seed=1,
                                           rule_programs=lib_rules)

    def test_deterministic(self, libcorpus, lib_rules):
        a = noninterference_check(libcorpus, "student_cpy", trials=15, seed=4,
                                  rule_programs=lib_rules)
        b = noninterference_check(libcorpus, "student_cpy", trials=15, seed=4,
                                  rule_programs=lib_rules)
        assert a == b


class TestBench:
    def test_memcpy_loop_reduction(self, bench_memcpy):
        rules = default_rules(bench_memcpy)
        rep = bench(bench_memcpy, "main", [1024], rule_programs=rules)
        by_mode = {r.mode: r for r in rep.rows}
        n = 1024
        assert by_mode["instr"].shadow_ops_instr >= 2 * n
        assert rep.reduction >= 5.0
        frac = (by_mode["hybrid"].instr_unins
                / by_mode["hybrid"].instr_total)
        assert frac > 0.3

    def test_hybrid_library_cost_constant_in_n(self, bench_memcpy):
        rules = default_rules(bench_memcpy)
        small = bench(bench_memcpy, "main", [64], rule_programs=rules)
        large = bench(bench_memcpy, "main", [1024], rule_programs=rules)
        h_small = {r.mode: r for r in small.rows}["hybrid"]
        h_large = {r.mode: r for r in large.rows}["hybrid"]
        assert h_small.shadow_ops_rules == h_large.shadow_ops_rules
        assert h_small.shadow_ops_instr == h_large.shadow_ops_instr

    def test_no_library_calls_identical_counters(self, bench_user):
        rep = bench(bench_user, "main", [100], rule_programs={})
        a, b = rep.rows
        assert (a.instr_total, a.shadow_ops_instr) == (b.instr_total,
                                                       b.shadow_ops_instr)
        assert a.instr_unins == b.instr_unins == 0
        assert a.shadow_ops_rules == b.shadow_ops_rules == 0

    def test_uninstrumented_counter_on_flow_demo(self, student_flow,
                                                 student_flow_rules):
        rep = bench(student_flow, "main", [], rule_programs=student_flow_rules)
        by_mode = {r.mode: r for r in rep.rows}
        assert by_mode["hybrid"].instr_unins > 0
        assert by_mode["instr"].instr_unins == 0

    def test_csv_shape(self, bench_user):
        text = bench(bench_user, "main", [10], rule_programs={}).to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("mode,instr_total")
        assert lines[1].startswith("instr,") and lines[2].startswith("hybrid,")
        assert lines[3].startswith("reduction,")


class TestTransparency:
    def test_corpus_programs(self, student_flow, bench_memcpy, bench_user,
                             student_flow_rules):
        assert transparency_check(student_flow, "main", [],
                                  rule_programs=student_flow_rules) == []
        assert transparency_check(bench_memcpy, "main", [512]) == []
        assert transparency_check(bench_user, "main", [99],
                                  rule_programs={}) == []

    def test_driver_fuzz_smoke(self, libcorpus, lib_rules):
        for fn in sorted(corpus.DRIVERS):
            for seed in range(5):
                assert transparency_check_fn(libcorpus, fn, seed,
                                             rule_programs=lib_rules) == []
