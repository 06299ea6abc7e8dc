"""Print every output a user sees from the bundled corpus, so that two trees
can be diffed to show a change leaves them byte-identical:

  * `compare` and `nitest` text and their `--out` JSON for libcorpus at
    seeds 0, 1, 7 and 42, control dependences on and off;
  * `taintsum run` reports for the four corpus programs in both modes,
    with and without `--rules`;
  * the transparency checks on the libcorpus drivers and the programs;
  * the offline artifacts, control dependences on and off: `summarize`
    output, `rules --stats` output with the rule files and `rule_stats.csv`,
    and `pdg --json` output with the DOT and JSON files, for the four
    corpus modules and the `offline-scaled` generated modules of
    `perfbench/gen.py` at seeds 1 and 5;
  * for a small module whose library functions recurse, into themselves
    and into each other, the same offline artifacts, `run` in both modes
    and `bench` (its wall seconds elided);
  * for a small module with a call inside a loop and a temp defined on one
    branch only, machine runs in both modes at several step budgets, some
    of which run out inside a loop: the exit value or the trap, and the
    counters;
  * for a small module, in both modes, a recursion 500 calls deep, one a
    call deeper than the frame cap admits, and a loop that calls a
    summarized function at every step budget up to the whole run: the exit
    value or the trap, and the counters;
  * for a small module whose scalar allocas the tracker keeps in locals
    while pointers off an escaped buffer, and a summarized call, alias
    them, in both modes at every step budget up to its whole run: the exit
    value or the trap, the counters and the tagged bytes.

Usage, from the root of each tree:

    python3 tools/print_outputs.py > outputs.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from taintsum import Machine, MachineTrap, TaintConfig, corpus, parse_module  # noqa: E402
from taintsum.cli import main as taintsum  # noqa: E402
from taintsum.tracker import MAX_FRAMES  # noqa: E402
from taintsum.rules import compile_library  # noqa: E402
from taintsum.validate import (  # noqa: E402
    default_rules, transparency_check, transparency_check_fn,
)
from workloads import SIZES  # noqa: E402

SEEDS = (0, 1, 7, 42)
GEN_SEEDS = (1, 5)
OFFLINE = (("summarize", ()), ("rules", ("--stats",)), ("pdg", ("--json",)))
# (program, entry, entry arguments, taint config)
RUNS = (
    ("student_flow", "main", "", {
        "sources": [{"fn": "fgets_a", "where": "param", "index": 0, "label": 1}],
        "sinks": [{"fn": "printf_a", "index": 0}]}),
    ("bench_memcpy", "main", "300", {
        "sources": [{"fn": "main", "where": "param", "index": 0, "label": 2}]}),
    ("bench_user", "main", "64", {
        "sources": [{"fn": "main", "where": "param", "index": 0, "label": 4}]}),
    ("libcorpus", "enroll", "4096", {
        "sources": [{"fn": "enroll", "where": "param", "index": 0, "label": 8}],
        "sinks": [{"fn": "student_cpy", "index": 0}]}),
)

# @down recurses into itself and @ping and @pong into each other, so they
# and @both, which calls @ping, get no summary; @add gets one
RECURSIVE = """\
global @src : [4 x char] = bytes(104, 105)
global @dst : [4 x char]
fn @down(%d: ptr(char), %s: ptr(char), %n: i64) -> i64 library {
entry:
  %z = cmp i64 %n, 0
  br %z, done, more
more:
  %c = load char, %s
  store char %c, %d
  %d1 = gep char, %d, 1
  %s1 = gep char, %s, 1
  %n1 = sub i64 %n, 1
  %r = call i64 @down(%d1, %s1, %n1)
  %r1 = add i64 %r, %c
  ret i64 %r1
done:
  ret i64 0
}
fn @ping(%n: i64) -> i64 library {
entry:
  %z = cmp i64 %n, 0
  br %z, yes, no
yes:
  ret i64 1
no:
  %n1 = sub i64 %n, 1
  %r = call i64 @pong(%n1)
  ret i64 %r
}
fn @pong(%n: i64) -> i64 library {
entry:
  %z = cmp i64 %n, 0
  br %z, yes, no
yes:
  ret i64 0
no:
  %n1 = sub i64 %n, 1
  %r = call i64 @ping(%n1)
  ret i64 %r
}
fn @both(%n: i64) -> i64 library {
entry:
  %p = call i64 @ping(%n)
  %r = add i64 %p, %p
  ret i64 %r
}
fn @add(%a: i64, %b: i64) -> i64 library {
entry:
  %r = add i64 %a, %b
  ret i64 %r
}
fn @read(%p: ptr(char)) -> void {
entry:
  ret
}
fn @show(%p: ptr(char)) -> i64 {
entry:
  %c = load char, %p
  ret i64 %c
}
fn @main(%n: i64) -> i64 {
entry:
  %s = gep [4 x char], @src, 0, 0
  call void @read(%s)
  %d = gep [4 x char], @dst, 0, 0
  %k = call i64 @down(%d, %s, %n)
  %p = call i64 @both(%n)
  %m = call i64 @add(%k, %p)
  %v = call i64 @show(%d)
  %r = add i64 %m, %v
  ret i64 %r
}
"""
RECURSIVE_CFG = {"sources": [{"fn": "read", "where": "param", "index": 0, "label": 1},
                             {"fn": "main", "where": "param", "index": 0, "label": 2}],
                 "sinks": [{"fn": "show", "index": 0}]}

# @sum's loop calls the summarized @step, whose parameter source widens the
# tag vector of the char %c it is passed; %last is defined only on odd
# iterations, so with n = 0 its read after the loop traps
LOOPED = """\
global @buf : [8 x char] = bytes(5, 0, 7, 9, 2)
fn @step(%x: i64) -> i64 library {
entry:
  %y = add i64 %x, 3
  ret i64 %y
}
fn @sum(%p: ptr(char), %n: i64) -> i64 {
entry:
  %ip = alloca i64
  %ap = alloca i64
  store i64 0, %ip
  store i64 0, %ap
  jmp head
head:
  %i = load i64, %ip
  %z = cmp i64 %i, %n
  br %z, done, body
body:
  %q = gep char, %p, %i
  %c = load char, %q
  %s = call i64 @step(%c)
  %a = load i64, %ap
  %a1 = add i64 %a, %s
  store i64 %a1, %ap
  %i1 = add i64 %i, 1
  store i64 %i1, %ip
  %odd = and i64 %i1, 1
  br %odd, mark, head
mark:
  %last = add i64 %a1, %c
  jmp head
done:
  %r = add i64 %last, %n
  ret i64 %r
}
fn @main(%n: i64) -> i64 {
entry:
  %p = gep [8 x char], @buf, 0, 0
  %r = call i64 @sum(%p, %n)
  ret i64 %r
}
"""
LOOPED_CFG = {"sources": [{"fn": "step", "where": "param", "index": 0, "label": 4},
                          {"fn": "step", "where": "ret", "label": 2}]}

# @down recurses %n calls deep; @loop calls the summarized @inc three times,
# so the budgets below its whole run cut it inside each call
DEEP = """\
fn @down(%n: i64) -> i64 {
entry:
  %z = cmp i64 %n, 0
  br %z, done, more
more:
  %m = sub i64 %n, 1
  %r = call i64 @down(%m)
  %s = add i64 %r, %m
  ret i64 %s
done:
  ret i64 %n
}
fn @inc(%p: ptr(i64), %k: i64) -> i64 library {
entry:
  %v = load i64, %p
  %w = add i64 %v, %k
  store i64 %w, %p
  %x = mul i64 %w, 3
  ret i64 %x
}
fn @loop(%n: i64) -> i64 {
entry:
  %cell = alloca i64
  store i64 %n, %cell
  %ip = alloca i64
  store i64 0, %ip
  jmp head
head:
  %i = load i64, %ip
  %z = cmp i64 %i, 3
  br %z, done, body
body:
  %r = call i64 @inc(%cell, %i)
  %i1 = add i64 %i, 1
  store i64 %i1, %ip
  jmp head
done:
  %v = load i64, %cell
  %s = add i64 %v, %r
  ret i64 %s
}
"""
# @wild's scalar allocas live in locals: %x is read before any store, %sp
# is stored tainted and then zero, %a and %b point 8 and 9 bytes below
# %buf, at %sp and %cp, so a load and a store through them alias the slots,
# and so does the summarized @poke, which the loop calls with %a; with
# %n = 3 the division at the end traps
WILD = """\
fn @poke(%p: ptr(i64), %v: i64) -> i64 library {
entry:
  %o = load i64, %p
  %w = add i64 %o, %v
  store i64 %w, %p
  ret i64 %o
}
fn @wild(%n: i64) -> i64 {
entry:
  %buf = alloca [16 x char]
  %sp = alloca i64
  %cp = alloca char
  %ip = alloca i64
  %x = load i64, %sp
  store i64 %n, %sp
  store char 0, %cp
  %a = gep [16 x char], %buf, 0, -8
  %b = gep [16 x char], %buf, 0, -9
  store char %n, %b
  %c = load char, %cp
  store i64 0, %ip
  jmp head
head:
  %i = load i64, %ip
  %z = cmp i64 %i, 3
  br %z, done, body
body:
  %r = call i64 @poke(%a, %i)
  %s = load i64, %sp
  %s1 = add i64 %s, %r
  store i64 %s1, %sp
  %i1 = add i64 %i, 1
  store i64 %i1, %ip
  jmp head
done:
  %y = load i64, %a
  store i64 0, %sp
  %d = sub i64 %n, 3
  %q = div i64 %c, %d
  %e = add i64 %q, %y
  %f = add i64 %e, %x
  ret i64 %f
}
"""
TAG = b"\x02"       # of the entry's argument
DEEP_CFG = {"sources": [{"fn": "down", "where": "param", "index": 0, "label": 1},
                        {"fn": "inc", "where": "ret", "label": 4}]}


def cli(tmp: Path, *argv) -> str:
    """The command line, exit code, stdout and stderr, with `tmp` elided."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = taintsum([str(a) for a in argv])
    text = f"$ taintsum {' '.join(map(str, argv))}\nrc={rc}\n{out.getvalue()}{err.getvalue()}"
    return text.replace(str(tmp), "<tmp>")


def offline_artifacts(tmp: Path, module: Path) -> None:
    """Each offline command's output and then every file it wrote."""
    for cdeps in ("on", "off"):
        for cmd, extra in OFFLINE:
            out = tmp / f"{module.stem}-{cmd}-{cdeps}"
            print(cli(tmp, "--control-deps", cdeps, cmd, module, "--out", out, *extra),
                  end="")
            for path in sorted(out.iterdir()):
                print(f"--- {path.name}\n{path.read_text(encoding='utf-8')}", end="")


def recursive_outputs(tmp: Path) -> None:
    module, cfg = tmp / "recursive.ir", tmp / "recursive.cfg.json"
    module.write_text(RECURSIVE, encoding="utf-8")
    cfg.write_text(json.dumps(RECURSIVE_CFG), encoding="utf-8")
    offline_artifacts(tmp, module)
    for mode in ("instr", "hybrid"):
        print(cli(tmp, "run", module, "--args", "2", "--mode", mode,
                  "--taint-config", cfg), end="")
    print(re.sub(r",[0-9.]+\n", ",<s>\n", cli(tmp, "bench", module, "--args", "2")), end="")


def machine_run(module, entry: str, arg: int, arg_tags=None, **kw) -> tuple[str, Machine]:
    """The exit value or the trap and the counters of one machine run, and
    the machine."""
    m = Machine(module, mem_size=1 << 16, **kw)
    try:
        exit_value = m.call_entry(entry, [arg], arg_tags)
        result = f"exit {exit_value} ret tag {max(m.ret_shadow, default=0)}"
    except MachineTrap as e:
        result = f"trap {e}"
    return (f"{result}; instr {m.instr_total} unins {m.instr_unins}"
            f" shadow {m.shadow_ops_instr}+{m.shadow_ops_rules}"
            f" tagged {m.tagmap.nonzero_bytes()}"), m


def looped_outputs() -> None:
    """Each run's exit value or trap and its counters, at budgets from one
    instruction to the whole run."""
    module = parse_module(LOOPED)
    kw = {"rule_programs": compile_library(module)[0],
          "taint_config": TaintConfig.from_json(LOOPED_CFG)}
    for mode in ("instr", "hybrid"):
        for n in (0, 3):
            budgets = [None]
            for budget in budgets:
                result, m = machine_run(module, "main", n, mode=mode, **kw,
                                        **({} if budget is None else {"step_budget": budget}))
                if budget is None:      # 9 runs out inside @sum's loop
                    total = m.instr_total
                    budgets += [1, 9, total // 3, total // 2, total - 1, total]
                print(f"looped {mode} n={n} budget={budget}: {result}")


def recursion_outputs() -> None:
    """Runs whose argument has tag `TAG`: the recursion's exit value or trap
    and its counters, and the loop's at every budget up to its whole run."""
    module = parse_module(DEEP)
    kw = {"rule_programs": compile_library(module)[0],
          "taint_config": TaintConfig.from_json(DEEP_CFG)}
    for mode in ("instr", "hybrid"):
        for n in (500, MAX_FRAMES):
            print(f"deep {mode} down({n}):", machine_run(module, "down", n, [TAG], mode=mode,
                                                        **kw)[0])
        total = machine_run(module, "loop", 5, [TAG], mode=mode, **kw)[1].instr_total
        for budget in range(1, total + 1):
            print(f"deep {mode} loop(5) budget={budget}:", machine_run(
                module, "loop", 5, [TAG], mode=mode, step_budget=budget, **kw)[0])


def wild_outputs() -> None:
    """Runs of @wild whose argument has tag `TAG`: the exit value or trap,
    the counters and the tagged bytes at every budget up to its whole run."""
    module = parse_module(WILD)
    rules = compile_library(module)[0]
    for mode in ("instr", "hybrid"):
        for n in (3, 5):
            total = machine_run(module, "wild", n, [TAG], mode=mode,
                                rule_programs=rules)[1].instr_total
            for budget in range(1, total + 1):
                print(f"wild {mode} n={n} budget={budget}:", machine_run(
                    module, "wild", n, [TAG], mode=mode, rule_programs=rules,
                    step_budget=budget)[0])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus.materialize(tmp)
        for name, *_ in RUNS:
            offline_artifacts(tmp, tmp / f"{name}.ir")
        for seed in GEN_SEEDS:
            for gm in [gen.scaled_module(seed, n) for n in SIZES] + [gen.many_small_module(seed)]:
                module = tmp / f"{gm.name}-seed{seed}.ir"
                module.write_text(gm.text, encoding="utf-8")
                offline_artifacts(tmp, module)
        lib = tmp / "libcorpus.ir"
        for cdeps in ("on", "off"):
            for seed in SEEDS:
                for cmd in ("compare", "nitest"):
                    out = tmp / f"{cmd}-{cdeps}-{seed}"
                    print(cli(tmp, "--seed", seed, "--control-deps", cdeps, cmd, lib,
                              "--out", out), end="")
                    print((out / f"{cmd}.json").read_text(encoding="utf-8"), end="")
        for name, entry, args, cfg in RUNS:
            cfg_path = tmp / f"{name}.cfg.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            rules_dir = tmp / f"{name}.rules"
            cli(tmp, "rules", tmp / f"{name}.ir", "--out", rules_dir)
            for mode in ("instr", "hybrid"):
                for extra in ((), ("--rules", rules_dir)):
                    print(cli(tmp, "run", tmp / f"{name}.ir", "--entry", entry, "--args", args,
                              "--mode", mode, "--taint-config", cfg_path, *extra), end="")
        recursive_outputs(tmp)
    looped_outputs()
    recursion_outputs()
    wild_outputs()
    lib_module = corpus.load_module("libcorpus")
    rules = default_rules(lib_module)
    for fn in sorted(corpus.DRIVERS):
        for seed in SEEDS:
            print("transparency", fn, seed, transparency_check_fn(lib_module, fn, seed, rules))
    for name, entry, args, _ in RUNS:
        module = corpus.load_module(name)
        print("transparency", name, transparency_check(
            module, entry, [int(a) for a in args.split(",") if a]))


if __name__ == "__main__":
    main()
