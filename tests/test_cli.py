"""Command-line behavior: artifact layout, exit codes, idempotence."""

import json

import pytest

from taintsum import corpus
from taintsum.cli import main
from test_tracker import NESTED_SOURCE_AND_SINK, RECURSIVE_CFG_DOC, RECURSIVE_LIB


@pytest.fixture()
def workdir(tmp_path):
    corpus.materialize(tmp_path / "corpus")
    (tmp_path / "cfg.json").write_text(json.dumps({
        "sources": [{"fn": "fgets_a", "where": "param", "index": 0, "label": 1}],
        "sinks": [{"fn": "printf_a", "index": 0}],
    }))
    return tmp_path


def student_flow_path(workdir):
    return str(workdir / "corpus" / "student_flow.ir")


class TestOffline:
    def test_parse_ok(self, workdir, capsys):
        assert main(["parse", student_flow_path(workdir)]) == 0
        out = capsys.readouterr().out
        assert "5 functions" in out and "2 library" in out

    def test_parse_canonical_print_round_trips(self, workdir, capsys):
        assert main(["parse", student_flow_path(workdir), "--print"]) == 0
        text = capsys.readouterr().out
        from taintsum import parse_module, print_module
        assert print_module(parse_module(text)) == text

    def test_parse_rejects_bad_module(self, workdir, capsys):
        bad = workdir / "bad.ir"
        bad.write_text("fn @f() -> void {\nentry:\n  %x = alloca i32\n}\n")
        assert main(["parse", str(bad)]) == 1
        assert "missing terminator" in capsys.readouterr().err

    def test_summarize_writes_one_file_per_library_fn(self, workdir, capsys):
        out = workdir / "build"
        assert main(["summarize", student_flow_path(workdir), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.glob("*.summary.json"))
        assert files == ["memcpy.summary.json", "student_cpy.summary.json"]
        doc = json.loads((out / "memcpy.summary.json").read_text())
        assert doc["function"] == "memcpy" and doc["controlDeps"] is True

    def test_summarize_cache_skips_unchanged(self, workdir, capsys):
        out = workdir / "build"
        main(["summarize", student_flow_path(workdir), "--out", str(out)])
        capsys.readouterr()
        main(["summarize", student_flow_path(workdir), "--out", str(out)])
        assert "wrote" not in capsys.readouterr().out

    def test_summarize_reflects_edited_callee(self, workdir, capsys):
        # copy_twice's summary comes from memcpy's; editing only memcpy
        # must still refresh it
        lib = workdir / "corpus" / "libcorpus.ir"
        out = workdir / "build"
        assert main(["summarize", str(lib), "--out", str(out)]) == 0
        assert len(json.loads(
            (out / "copy_twice.summary.json").read_text())["entries"]) == 2
        text = lib.read_text()
        first = text.index("  store char %ch, %dp0\n")
        lib.write_text(text[:first]
                       + text[first + len("  store char %ch, %dp0\n"):])
        assert main(["summarize", str(lib), "--out", str(out)]) == 0
        fresh = workdir / "fresh"
        assert main(["summarize", str(lib), "--out", str(fresh)]) == 0
        for p in fresh.glob("*.summary.json"):
            assert (out / p.name).read_text() == p.read_text(), p.name
        assert json.loads(
            (out / "copy_twice.summary.json").read_text())["entries"] == []

    def test_rules_and_stats(self, workdir, capsys):
        out = workdir / "build"
        assert main(["rules", student_flow_path(workdir), "--out", str(out),
                     "--stats"]) == 0
        text = capsys.readouterr().out
        assert (out / "memcpy.rules.json").exists()
        assert (out / "rule_stats.csv").exists()
        assert "memcpy,2,0,0,0" in text

    def test_pdg_dot_and_json(self, workdir):
        out = workdir / "build"
        assert main(["pdg", student_flow_path(workdir), "--out", str(out),
                     "--json"]) == 0
        dot = (out / "memcpy.pdg.dot").read_text()
        assert dot.startswith("digraph")
        doc = json.loads((out / "memcpy.pdg.json").read_text())
        assert doc["function"] == "memcpy"

    def test_pdg_goes_on_past_a_rejected_function(self, workdir, capsys):
        """Without --fn, `build_pdg` rejecting the recursive @a is a note,
        printed once, and @b's graph is still written; --fn naming @a still
        fails."""
        path, out = workdir / "rec.ir", workdir / "pb"
        path.write_text("fn @a(%x: i64) -> i64 library {\nentry:\n"
                        "  %y = call i64 @a(%x)\n  ret i64 %y\n}\n"
                        "fn @b(%x: i64) -> i64 library {\nentry:\n  ret i64 %x\n}\n")
        assert main(["pdg", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "note: @a: recursive call cycle: a -> a\n"
        assert sorted(p.name for p in out.iterdir()) == ["b.pdg.dot"]
        assert main(["pdg", str(path), "--out", str(out), "--fn", "a"]) == 1
        assert "error: @a: recursive call cycle: a -> a\n" in capsys.readouterr().err

    def test_flatten(self, workdir, capsys):
        assert main(["flatten", student_flow_path(workdir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"student": ["char", "i32"]}

    def test_artifacts_idempotent(self, workdir):
        out = workdir / "build"
        for _ in range(2):
            main(["summarize", student_flow_path(workdir), "--out", str(out)])
            main(["rules", student_flow_path(workdir), "--out", str(out)])
            main(["pdg", student_flow_path(workdir), "--out", str(out)])
        snap1 = {p.name: p.read_bytes() for p in out.iterdir()}
        main(["rules", student_flow_path(workdir), "--out", str(out)])
        snap2 = {p.name: p.read_bytes() for p in out.iterdir()}
        assert snap1 == snap2


class TestOnline:
    def test_run_hybrid_reports_sink_hit(self, workdir, capsys):
        out = workdir / "build"
        main(["rules", student_flow_path(workdir), "--out", str(out)])
        capsys.readouterr()
        rc = main(["run", student_flow_path(workdir), "--entry", "main",
                   "--mode", "hybrid", "--rules", str(out),
                   "--taint-config", str(workdir / "cfg.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["sinkHits"]) >= 1
        assert doc["sinkHits"][0]["tag"] == 1

    def test_run_hybrid_notes_each_withheld_rule(self, workdir, capsys):
        """A rule whose callees hold a configured source or sink is noted
        and withheld, and hybrid mode reports the sink hits instr mode does."""
        path = workdir / "nested.ir"
        path.write_text(corpus.load_text("student_flow") + NESTED_SOURCE_AND_SINK)
        hits = {}
        for mode in ("instr", "hybrid"):
            assert main(["run", str(path), "--entry", "main2", "--mode", mode,
                         "--taint-config", str(workdir / "cfg.json")]) == 0
            out, err = capsys.readouterr()
            hits[mode] = json.loads(out)["sinkHits"]
        assert err.splitlines() == [
            f"note: @{f}: its callees include @{g}, which the taint config names;"
            " tracked at instruction level"
            for f, g in (("read_into", "fgets_a"), ("show", "printf_a"))]
        assert len(hits["hybrid"]) == 2 and hits["hybrid"] == hits["instr"]

    def test_run_entry_args(self, workdir, capsys):
        rc = main(["run", str(workdir / "corpus" / "bench_user.ir"),
                   "--entry", "main", "--args", "8"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exitValue"] == 3 + 1 + 4 + 1 + 5 + 9 + 2 + 6

    def test_run_trap_exits_one(self, workdir, capsys):
        bad = workdir / "div0.ir"
        bad.write_text(
            "fn @main() -> i32 {\nentry:\n  %x = div i32 1, 0\n  ret i32 %x\n}\n")
        assert main(["run", str(bad)]) == 1
        assert "division by zero" in capsys.readouterr().err

    def test_compare_gate(self, workdir, capsys):
        rc = main(["--trials", "6", "compare",
                   str(workdir / "corpus" / "libcorpus.ir"), "--fn", "memcpy"])
        assert rc == 0
        assert "memcpy" in capsys.readouterr().out

    def test_nitest_gate_fails_without_control_deps(self, workdir, capsys):
        rc = main(["--trials", "30", "--control-deps", "off", "nitest",
                   str(workdir / "corpus" / "libcorpus.ir"),
                   "--fn", "strlen_a"])
        assert rc == 1

    def test_nitest_gate_passes_with_control_deps(self, workdir, capsys):
        rc = main(["--trials", "30", "nitest",
                   str(workdir / "corpus" / "libcorpus.ir"),
                   "--fn", "strlen_a"])
        assert rc == 0

    def test_hybrid_tracks_library_functions_without_summaries(self, workdir, capsys):
        ir, cfg = workdir / "recursive.ir", workdir / "recursive.cfg.json"
        ir.write_text(RECURSIVE_LIB)
        cfg.write_text(json.dumps(RECURSIVE_CFG_DOC))
        seen = {}
        for mode in ("instr", "hybrid"):
            assert main(["run", str(ir), "--args", "3", "--mode", mode,
                         "--taint-config", str(cfg)]) == 0
            doc = json.loads(capsys.readouterr().out)
            seen[mode] = (doc["exitValue"], doc["taintedBytesFinal"], doc["sinkHits"])
        assert seen["instr"] == seen["hybrid"] and seen["instr"][2]
        assert main(["bench", str(ir), "--args", "3"]) == 0
        captured = capsys.readouterr()
        assert "hybrid,68,2," in captured.out
        assert "note: @rcopy: recursive call cycle: rcopy -> rcopy" in captured.err

    def test_bench_csv(self, workdir, capsys):
        rc = main(["bench", str(workdir / "corpus" / "bench_memcpy.ir"),
                   "--args", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("mode,instr_total")
        assert "reduction," in out


class TestBadRuleFiles:
    """A malformed rule file is a diagnostic and exit 1, never a traceback."""

    @pytest.fixture()
    def bad_rules(self, workdir):
        rules = workdir / "r"
        assert main(["rules", str(workdir / "corpus" / "libcorpus.ir"),
                     "--out", str(rules)]) == 0
        (rules / "memcpy.rules.json").write_text('{"v": 2, "entries": [')
        return rules

    def _assert_diagnostic(self, rc, capsys, rules):
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert f"error: {rules / 'memcpy.rules.json'}: " in err

    def test_run(self, workdir, bad_rules, capsys):
        rc = main(["run", student_flow_path(workdir), "--mode", "hybrid",
                   "--rules", str(bad_rules)])
        self._assert_diagnostic(rc, capsys, bad_rules)

    def test_compare(self, workdir, bad_rules, capsys):
        rc = main(["--trials", "2", "compare",
                   str(workdir / "corpus" / "libcorpus.ir"),
                   "--rules", str(bad_rules)])
        self._assert_diagnostic(rc, capsys, bad_rules)

    def test_nitest(self, workdir, bad_rules, capsys):
        rc = main(["--trials", "2", "nitest",
                   str(workdir / "corpus" / "libcorpus.ir"),
                   "--rules", str(bad_rules)])
        self._assert_diagnostic(rc, capsys, bad_rules)

    def test_bench(self, workdir, bad_rules, capsys):
        rc = main(["bench", str(workdir / "corpus" / "bench_memcpy.ir"),
                   "--args", "16", "--rules", str(bad_rules)])
        self._assert_diagnostic(rc, capsys, bad_rules)

    def test_rule_file_that_is_not_an_object(self, workdir, bad_rules, capsys):
        (bad_rules / "memcpy.rules.json").write_text("[]")
        rc = main(["bench", str(workdir / "corpus" / "bench_memcpy.ir"),
                   "--args", "16", "--rules", str(bad_rules)])
        self._assert_diagnostic(rc, capsys, bad_rules)

    def test_rule_slot_with_bad_type(self, workdir, bad_rules, capsys):
        good = json.loads((bad_rules / "strcpy_a.rules.json").read_text())
        good["entries"][0]["out"]["type"] = "ptr(char"
        (bad_rules / "memcpy.rules.json").write_text(json.dumps(good))
        rc = main(["bench", str(workdir / "corpus" / "bench_memcpy.ir"),
                   "--args", "16", "--rules", str(bad_rules)])
        self._assert_diagnostic(rc, capsys, bad_rules)


class TestDeeplyNestedJson:
    """A rule file or taint config nested deeper than the JSON reader
    goes is a diagnostic and exit 1, not a RecursionError traceback."""

    DEEP = "[" * 100_000

    def _assert_diagnostic(self, rc, capsys, path):
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert err.startswith(f"error: {path}: ") and "nested too deeply" in err

    @pytest.fixture()
    def deep_rules(self, workdir, capsys):
        rules = workdir / "r"
        assert main(["rules", str(workdir / "corpus" / "libcorpus.ir"),
                     "--out", str(rules)]) == 0
        (rules / "memcpy.rules.json").write_text(self.DEEP)
        capsys.readouterr()
        return rules

    def test_run_rules(self, workdir, deep_rules, capsys):
        rc = main(["run", str(workdir / "corpus" / "bench_memcpy.ir"), "--args", "16",
                   "--mode", "hybrid", "--rules", str(deep_rules)])
        self._assert_diagnostic(rc, capsys, deep_rules / "memcpy.rules.json")

    def test_compare_rules(self, workdir, deep_rules, capsys):
        rc = main(["--trials", "2", "compare", str(workdir / "corpus" / "libcorpus.ir"),
                   "--rules", str(deep_rules)])
        self._assert_diagnostic(rc, capsys, deep_rules / "memcpy.rules.json")

    def test_run_taint_config(self, workdir, capsys):
        cfg = workdir / "deep.json"
        cfg.write_text(self.DEEP)
        rc = main(["run", student_flow_path(workdir), "--taint-config", str(cfg)])
        self._assert_diagnostic(rc, capsys, cfg)


class TestDeeplyNestedTypes:
    """A type nested 3000 deep is a diagnostic and exit 1, in an IR module
    and in a rule file, not a RecursionError traceback."""

    DEPTH = 3000

    def test_parameter_type_in_ir(self, workdir, capsys):
        deep = workdir / "deep.ir"
        deep.write_text(f"fn @f(%p: {'ptr(' * self.DEPTH}i32{')' * self.DEPTH}) -> void"
                        " library {\nentry:\n  ret\n}\n")
        assert main(["rules", str(deep), "--out", str(workdir / "r")]) == 1
        err = capsys.readouterr().err
        assert f"{deep}:1:11: type nested too deeply" in err and "Traceback" not in err

    def test_slot_type_in_a_rule_file(self, workdir, capsys):
        lib, rules = str(workdir / "corpus" / "libcorpus.ir"), workdir / "r"
        assert main(["rules", lib, "--out", str(rules)]) == 0
        path = rules / "memcpy.rules.json"
        doc = json.loads(path.read_text())
        doc["entries"][0]["out"]["type"] = "ptr(" * self.DEPTH
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--trials", "2", "compare", lib, "--rules", str(rules)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bad type 'ptr(")
        assert err.endswith("': type nested too deeply\n") and "Traceback" not in err


class TestBadTaintConfig:
    """A malformed --taint-config is a diagnostic and exit 1, never a
    traceback."""

    def _run(self, workdir, cfg, capsys):
        rc = main(["run", student_flow_path(workdir), "--taint-config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert err.startswith(f"error: {cfg}: ")

    def test_source_without_fn(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"sources": [{"where": "param"}]}))
        self._run(workdir, cfg, capsys)

    def test_bad_json(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text('{"sources": [')
        self._run(workdir, cfg, capsys)

    def test_index_that_is_not_an_integer(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"sources": [
            {"fn": "fgets_a", "where": "param", "index": "x"}]}))
        self._run(workdir, cfg, capsys)

    def test_missing_file(self, workdir, capsys):
        self._run(workdir, workdir / "absent.json", capsys)


class TestTaintConfigCheckedAgainstModule:
    """A taint config that names a function the module lacks, a parameter
    past a function's arity, or the return value of a void function, is a
    diagnostic and exit 1, not a run with no tainted byte and no sink hit."""

    def _run(self, workdir, doc, capsys, mode="instr"):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["run", student_flow_path(workdir), "--taint-config", str(cfg),
                   "--mode", mode])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert err.startswith("error: taint config names ")
        return err

    @pytest.mark.parametrize("mode", ["instr", "hybrid"])
    def test_function_the_module_lacks(self, workdir, capsys, mode):
        err = self._run(workdir, {
            "sources": [{"fn": "fgets_b", "index": 0}],
            "sinks": [{"fn": "printf_a", "index": 0}]}, capsys, mode)
        assert "@fgets_b" in err

    def test_sink_index_beyond_arity(self, workdir, capsys):
        err = self._run(workdir, {
            "sources": [{"fn": "fgets_a", "index": 0}],
            "sinks": [{"fn": "printf_a", "index": 3}]}, capsys)
        assert "parameter 3 of @printf_a" in err

    def test_source_index_beyond_arity(self, workdir, capsys):
        err = self._run(workdir, {
            "sources": [{"fn": "fgets_a", "where": "param", "index": 2}]}, capsys)
        assert "parameter 2 of @fgets_a" in err

    def test_return_source_on_a_void_function(self, workdir, capsys):
        err = self._run(workdir, {
            "sources": [{"fn": "student_cpy", "where": "ret", "label": 1}]}, capsys)
        assert err == ("error: taint config names the return value of"
                       " @student_cpy, which returns void\n")

    def test_return_source_needs_no_index(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({
            "sources": [{"fn": "fgets_a", "where": "ret", "label": 2}]}))
        assert main(["run", student_flow_path(workdir), "--taint-config",
                     str(cfg)]) == 0


class TestRuleFilesCheckedAgainstModule:
    """A rule file that parses but does not fit the module is a diagnostic
    and exit 1 at load, not a silently skipped step at run time."""

    @pytest.fixture()
    def sf_rules(self, workdir):
        rules = workdir / "sf"
        assert main(["rules", student_flow_path(workdir), "--out", str(rules)]) == 0
        return rules

    def _edit(self, path, change):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))

    def _run_hybrid(self, workdir, rules):
        return main(["run", student_flow_path(workdir), "--mode", "hybrid",
                     "--rules", str(rules),
                     "--taint-config", str(workdir / "cfg.json")])

    def _assert_diagnostic(self, rc, capsys, path):
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert f"error: {path}: " in err

    def test_gather_index_beyond_arity(self, workdir, sf_rules, capsys):
        def retarget(doc):
            for slot in (s for e in doc["entries"] for s in e["ins"]):
                if slot["kind"] == "param":
                    slot["index"] = 7
        for p in sf_rules.glob("*.rules.json"):
            self._edit(p, retarget)
        rc = self._run_hybrid(workdir, sf_rules)
        self._assert_diagnostic(rc, capsys, sf_rules / "memcpy.rules.json")

    def test_edited_fixed_extent(self, workdir, sf_rules, capsys):
        # a slot's extent follows from its type: widen the score field
        def widen(doc):
            for slot in (s for e in doc["entries"] for s in (e["out"], *e["ins"])):
                if slot["type"] == "i32":
                    slot["type"] = "i64"
        self._edit(sf_rules / "student_cpy.rules.json", widen)
        rc = self._run_hybrid(workdir, sf_rules)
        self._assert_diagnostic(rc, capsys, sf_rules / "student_cpy.rules.json")

    def test_zero_string_cap(self, workdir, sf_rules, capsys):
        def zero(doc):
            doc["maxLen"] = 0
        self._edit(sf_rules / "memcpy.rules.json", zero)
        rc = self._run_hybrid(workdir, sf_rules)
        self._assert_diagnostic(rc, capsys, sf_rules / "memcpy.rules.json")

    def test_rules_for_a_non_library_function(self, workdir, sf_rules, capsys):
        (sf_rules / "main.rules.json").write_text(
            json.dumps({"v": 2, "function": "main", "controlDeps": True, "maxLen": 64,
                        "entries": []}))
        rc = self._run_hybrid(workdir, sf_rules)
        self._assert_diagnostic(rc, capsys, sf_rules / "main.rules.json")

    def test_rules_for_absent_functions_are_ignored(self, workdir, capsys):
        lib_rules = workdir / "lib"
        assert main(["rules", str(workdir / "corpus" / "libcorpus.ir"),
                     "--out", str(lib_rules)]) == 0
        assert self._run_hybrid(workdir, lib_rules) == 0
        assert main(["bench", str(workdir / "corpus" / "bench_memcpy.ir"),
                     "--args", "16", "--rules", str(lib_rules)]) == 0


class TestUsage:
    def test_unknown_subcommand_exits_two(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "x.ir"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["parse", "--bogus", student_flow_path(workdir)])
        assert exc.value.code == 2

    def test_missing_file_exits_nonzero(self, capsys):
        rc = main(["parse", "/nonexistent.ir"])
        assert rc != 0

    def test_compare_without_driver_reports_error(self, workdir, capsys):
        nodrv = workdir / "nodrv.ir"
        nodrv.write_text(
            "fn @mystery(%x: i32) -> i32 library {\nentry:\n  ret i32 %x\n}\n")
        rc = main(["--trials", "2", "compare", str(nodrv)])
        assert rc == 1
        assert "no argument recipe" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_default_len_must_be_positive(self, workdir, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([f"--default-len={value}", "run", student_flow_path(workdir),
                  "--mode", "hybrid"])
        assert exc.value.code == 2
        assert "--default-len" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_trials_must_be_positive(self, workdir, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([f"--trials={value}", "nitest",
                  str(workdir / "corpus" / "libcorpus.ir"), "--fn", "memcpy"])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, corpus_file, value", [
        ("run", "bench_user.ir", "x"),
        ("bench", "bench_memcpy.ir", "1,x"),
    ])
    def test_args_must_be_integers(self, workdir, cmd, corpus_file, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(workdir / "corpus" / corpus_file), f"--args={value}"])
        assert exc.value.code == 2
        assert "--args" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["run", "bench"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_step_budget_must_be_positive(self, workdir, cmd, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(workdir / "corpus" / "bench_memcpy.ir"), "--args", "4",
                  f"--step-budget={value}"])
        assert exc.value.code == 2
        assert "--step-budget" in capsys.readouterr().err


class TestBenchErrors:
    """A run that traps or cannot start is a diagnostic and exit 1, as for
    `run`, never a traceback."""

    @pytest.mark.parametrize("extra, message", [
        (["--args", "64", "--step-budget", "5"], "step budget exhausted"),
        (["--args", "64", "--entry", "nosuch"], "unknown entry function"),
        ([], "entry argument count mismatch"),
    ])
    def test_diagnostic(self, workdir, extra, message, capsys):
        rc = main(["bench", str(workdir / "corpus" / "bench_memcpy.ir"), *extra])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""


class TestHarnessUnknownFunction:
    """`--fn` naming a function the module lacks is a diagnostic and exit 1,
    as for `pdg --fn`, never a traceback."""

    @pytest.mark.parametrize("cmd", ["compare", "nitest"])
    def test_diagnostic(self, workdir, cmd, capsys):
        rc = main(["--trials", "3", cmd, str(workdir / "corpus" / "libcorpus.ir"),
                   "--fn", "nosuch"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no function @nosuch\n"
        assert captured.out == ""


class TestHarnessZeroParameters:
    """`nitest` on a function without parameters has nothing to taint: a
    diagnostic and exit 1, as `compare` gives, never a traceback."""

    ZERO = "global @g : i32\n\nfn @zero() -> i32 library {\nentry:\n  %x = load i32, @g\n  ret i32 %x\n}\n"

    @pytest.mark.parametrize("cmd, message", [
        ("nitest", "error: @zero has no parameter to taint\n"),
        ("compare", "error: no argument recipe for @zero\n"),
    ])
    def test_diagnostic(self, workdir, cmd, message, capsys):
        path = workdir / "z.ir"
        path.write_text(self.ZERO)
        rc = main(["--trials", "2", cmd, str(path), "--fn", "zero"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""


class TestRulesNotADirectory:
    """A `--rules` path that does not exist, or is a file, is a diagnostic
    and exit 1; it was read as an empty rule set, so `compare` passed
    without testing a rule."""

    COMMANDS = {
        "run": ["run", "student_flow.ir", "--mode", "hybrid"],
        "run-instr": ["run", "student_flow.ir", "--mode", "instr"],
        "compare": ["--trials", "3", "compare", "libcorpus.ir", "--fn", "memcpy"],
        "nitest": ["--trials", "3", "nitest", "libcorpus.ir", "--fn", "memcpy"],
        "bench": ["bench", "bench_memcpy.ir", "--args", "8"],
    }

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_diagnostic(self, workdir, cmd, kind, capsys):
        path = workdir / ("nonexistent" if kind == "missing" else "cfg.json")
        argv = [str(workdir / "corpus" / a) if a.endswith(".ir") else a
                for a in self.COMMANDS[cmd]]
        rc = main(argv + ["--rules", str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: not a directory\n"
        assert captured.out == ""

    def test_an_empty_directory_is_still_a_rule_set(self, workdir, capsys):
        (workdir / "empty").mkdir()
        rc = main(["--trials", "3", "compare", str(workdir / "corpus" / "libcorpus.ir"),
                   "--fn", "memcpy", "--rules", str(workdir / "empty")])
        assert rc == 0 and "ratio=1.000" in capsys.readouterr().out


class TestUnwritableOutput:
    """An `--out` or `--report` path that cannot be written is a diagnostic
    naming it and exit 1, never a traceback."""

    COMMANDS = {
        "flatten": ["flatten", "libcorpus.ir"],
        "pdg": ["pdg", "student_flow.ir", "--fn", "memcpy"],
        "summarize": ["summarize", "student_flow.ir"],
        "rules": ["rules", "student_flow.ir"],
        "compare": ["--trials", "3", "compare", "libcorpus.ir", "--fn", "memcpy"],
        "nitest": ["--trials", "3", "nitest", "libcorpus.ir", "--fn", "memcpy"],
        "bench": ["bench", "bench_memcpy.ir", "--args", "8"],
    }

    @staticmethod
    def _argv(workdir, args):
        return [str(workdir / "corpus" / a) if a.endswith(".ir") else a for a in args]

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    @pytest.mark.parametrize("under, reason", [
        ("", "File exists"), ("sub", "Not a directory")])
    def test_out_names_a_file(self, workdir, cmd, under, reason, capsys):
        out = workdir / "cfg.json" / under if under else workdir / "cfg.json"
        rc = main(self._argv(workdir, self.COMMANDS[cmd]) + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.endswith(f"error: {out}: {reason}\n")

    def test_out_file_that_is_a_directory(self, workdir, capsys):
        out = workdir / "build"
        (out / "rule_stats.csv").mkdir(parents=True)
        rc = main(["rules", str(workdir / "corpus" / "student_flow.ir"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {out / 'rule_stats.csv'}: Is a directory\n"

    def test_report_over_a_file_that_is_not_utf8(self, workdir, capsys):
        report = workdir / "r.json"
        report.write_bytes(b"\xff\xfe")
        assert main(["run", str(workdir / "corpus" / "student_flow.ir"),
                     "--report", str(report)]) == 0
        assert report.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("where, reason", [
        ("nonexistent/dir/r.json", "No such file or directory"),
        ("cfg.json/r.json", "Not a directory"),
        ("corpus", "Is a directory"),
    ])
    def test_report_path(self, workdir, where, reason, capsys):
        report = workdir / where
        rc = main(["run", str(workdir / "corpus" / "student_flow.ir"),
                   "--report", str(report)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {report}: {reason}\n" and captured.out == ""


class TestRunStops:
    """A run that stops, on a trap, on a value of an aggregate type, or on
    a float that no int or f32 holds, is a diagnostic and exit 1 in every
    command that runs code, never a traceback."""

    BY_VALUE = "struct %s { i32 a }\n\nfn @f(%x: %s) -> i64 {\nentry:\n  ret i64 0\n}\n"
    ARRAY_OP = ("fn @g(%y: i64) -> i64 {\nentry:\n  %z = add [4 x char] %y, 1\n  ret i64 0\n}\n\n"
                "fn @main() -> i64 {\nentry:\n  %r = call i64 @g(1)\n  ret i64 %r\n}\n")
    INFINITY = ("fn @main() -> i64 {\nentry:\n  %x = div f64 1.0, 0.0\n"
                "  %y = add i64 %x, 1\n  ret i64 %y\n}\n")
    BEYOND_F32 = ("fn @main() -> i64 {\nentry:\n  %x = mul f64 100000000000000000000.0,"
                  " 100000000000000000000.0\n  %y = add f32 %x, 0.0\n  ret i64 0\n}\n")

    CASES = {"array-op": (ARRAY_OP, "bad value type"),
             "infinity": (INFINITY, "cannot convert float infinity to integer"),
             "beyond-f32": (BEYOND_F32, "float too large")}

    @staticmethod
    def _stops(argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err, captured.err
        assert captured.out == ""

    def test_by_value_struct_parameter(self, workdir, capsys):
        path = workdir / "m.ir"
        path.write_text(self.BY_VALUE)
        self._stops(["run", str(path), "--entry", "f", "--args", "0"], "bad value type", capsys)

    @pytest.mark.parametrize("src, entry, line", [
        (BY_VALUE, ["--entry", "f", "--args", "0"], "error: bad value type: %s\n"),
        (ARRAY_OP, [], "error: bad value type: [4 x char]\n")])
    def test_bad_value_type_names_the_ir_type(self, workdir, src, entry, line, capsys):
        """The `error:` line spells the type as the IR does."""
        path = workdir / "m.ir"
        path.write_text(src)
        assert main(["run", str(path), *entry]) == 1
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("cmd", ["run", "bench"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_and_bench(self, workdir, cmd, case, capsys):
        src, message = self.CASES[case]
        path = workdir / "m.ir"
        path.write_text(src)
        self._stops([cmd, str(path)], message, capsys)

    @pytest.mark.parametrize("cmd", ["compare", "nitest"])
    def test_harness_trap(self, workdir, cmd, capsys):
        lib = workdir / "corpus" / "libcorpus.ir"
        text = lib.read_text()
        assert "  %s = shr i32 %x, 31\n" in text
        lib.write_text(text.replace("  %s = shr i32 %x, 31\n", "  %s = div i32 %x, 0\n"))
        self._stops(["--trials", "3", cmd, str(lib), "--fn", "abs_a"],
                    "division by zero at abs_a:0", capsys)
