"""Command-line front end.

Offline subcommands (parse, pdg, flatten, summarize, rules) write analysis
artifacts under --out with deterministic names; online subcommands (run,
compare, nitest, bench) consume the module plus, for hybrid tracking, the
rule files produced offline.

Exit codes: 0 success, 1 analysis/validation failure or violations,
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .ir import Module, type_str, validate_module
from .parser import ParseError, parse_module, print_module
from .pdg import PdgError, build_pdg
from .rules import (
    DEFAULT_STRING_CAP, RuleParseError, TaintRuleProgram, check_rules,
    compile_library, parse_rules, rule_stats, rule_stats_csv, serialize_rules,
)
from .summaries import (
    Summary, flatten_prim_types, function_body_hash, summarize_library,
)
from .tracker import DEFAULT_STEP_BUDGET, MachineTrap, TaintConfig, run
from .validate import HarnessError, bench, noninterference_check, oracle_compare


def _load_module(path: str) -> Module:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    try:
        m = parse_module(text)
    except ParseError as e:
        for d in e.diagnostics:
            print(f"{path}:{d}", file=sys.stderr)
        raise SystemExit(1)
    diags = validate_module(m)
    if diags:
        for d in diags:
            print(f"{path}: {d}", file=sys.stderr)
        raise SystemExit(1)
    return m


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise SystemExit(f"error: {out}: {e.strerror or e}")
    return out


def _control_deps(args) -> bool:
    return args.control_deps == "on"


def _summaries_for(m: Module, args) -> dict[str, Summary]:
    summaries, diags = summarize_library(m, _control_deps(args))
    for d in diags:
        print(f"note: {d}", file=sys.stderr)
    return summaries


def _rules_for(m: Module, args) -> dict[str, TaintRuleProgram]:
    """The rule programs in --rules, checked against the module, or else
    the ones compiled from the module's library summaries."""
    if args.rules:
        return _load_rules_dir(args.rules, m)
    progs, diags = compile_library(m, _control_deps(args), args.default_len)
    for d in diags:
        print(f"note: {d}", file=sys.stderr)
    return progs


def _write_if_changed(path: Path, text: str) -> bool:
    """Write unless the file already holds `text`; True if it wrote.  A
    path that cannot be read or written is a diagnostic and exit 1."""
    try:
        if path.exists() and path.read_bytes() == text.encode("utf-8"):
            return False
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise SystemExit(f"error: {path}: {e.strerror or e}")
    return True


def cmd_parse(args) -> int:
    m = _load_module(args.module)
    if args.print_canonical:
        sys.stdout.write(print_module(m))
    else:
        print(f"{args.module}: {len(m.structs)} structs, {len(m.globals)} globals,"
              f" {len(m.functions)} functions"
              f" ({len(m.library_functions())} library)")
    return 0


def cmd_flatten(args) -> int:
    m = _load_module(args.module)
    flat = flatten_prim_types(m.structs)
    doc = {name: sorted(type_str(t) for t in types)
           for name, types in sorted(flat.items())}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        _write_if_changed(_out_dir(args) / "primtypes.json", text)
    sys.stdout.write(text)
    return 0


def cmd_pdg(args) -> int:
    m = _load_module(args.module)
    summaries = _summaries_for(m, args)
    names = [args.fn] if args.fn else sorted(f.name for f in m.library_functions())
    out = _out_dir(args)
    for name in names:
        if name not in m.functions:
            print(f"error: no function @{name}", file=sys.stderr)
            return 1
        try:
            g = build_pdg(m, name, {k: v for k, v in summaries.items() if k != name})
        except PdgError as e:
            if args.fn:
                print(f"error: @{name}: {e}", file=sys.stderr)
                return 1
            if name in summaries:   # else the summarizer's note named it
                print(f"note: @{name}: {e}", file=sys.stderr)
            continue
        _write_if_changed(out / f"{name}.pdg.dot", g.export_dot())
        if args.json:
            _write_if_changed(out / f"{name}.pdg.json",
                              json.dumps(g.export_json(), indent=2) + "\n")
        print(f"wrote {out / (name + '.pdg.dot')}")
    return 0


def cmd_summarize(args) -> int:
    m = _load_module(args.module)
    out = _out_dir(args)
    summaries = _summaries_for(m, args)
    for name in sorted(summaries):
        path = out / f"{name}.summary.json"
        doc = summaries[name].to_json()
        doc["bodyHash"] = function_body_hash(m.functions[name])
        if _write_if_changed(path, json.dumps(doc, indent=2) + "\n"):
            print(f"wrote {path}")
    return 0


def cmd_rules(args) -> int:
    m = _load_module(args.module)
    out = _out_dir(args)
    progs = _rules_for(m, args)
    for name in sorted(progs):
        path = out / f"{name}.rules.json"
        _write_if_changed(path, serialize_rules(progs[name]))
        print(f"wrote {path}")
    stats_text = rule_stats_csv(rule_stats(progs))
    _write_if_changed(out / "rule_stats.csv", stats_text)
    if args.stats:
        sys.stdout.write(stats_text)
    return 0


def _load_rules_dir(path: str, module: Module) -> dict[str, TaintRuleProgram]:
    if not Path(path).is_dir():
        raise SystemExit(f"error: {path}: not a directory")
    progs = {}
    for p in sorted(Path(path).glob("*.rules.json")):
        try:
            prog = parse_rules(p.read_text(encoding="utf-8"))
            check_rules(prog, module)
        except RuleParseError as e:
            raise SystemExit(f"error: {p}: {e}")
        progs[prog.function] = prog
    return progs


def cmd_run(args) -> int:
    m = _load_module(args.module)
    try:
        cfg = TaintConfig.load(args.taint_config) if args.taint_config else None
    except (OSError, ValueError) as e:
        raise SystemExit(f"error: {args.taint_config}: {e}")
    progs = _rules_for(m, args) if args.rules or args.mode == "hybrid" else {}
    try:
        report = run(m, args.entry, args.args, cfg, args.mode, progs,
                     step_budget=args.step_budget, default_len=args.default_len)
    except (MachineTrap, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    text = json.dumps(report.to_json(), indent=2) + "\n"
    if args.report:
        _write_if_changed(Path(args.report), text)
    sys.stdout.write(text)
    return 0


def _harness(args, check, describe, out_name: str) -> int:
    """Run `check` on --fn or every library function; exit 1 on any
    violation or harness error."""
    m = _load_module(args.module)
    progs = _rules_for(m, args)
    names = [args.fn] if args.fn else sorted(
        corpus_fn.name for corpus_fn in m.library_functions())
    failed = False
    results = []
    for name in names:
        try:
            rep = check(m, name, trials=args.trials, seed=args.seed,
                        rule_programs=progs)
        except HarnessError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        results.append(rep.to_json())
        print(f"{name}: {describe(rep)}")
        failed = failed or bool(rep.violations)
    if args.out:
        _write_if_changed(_out_dir(args) / out_name,
                          json.dumps(results, indent=2) + "\n")
    return 1 if failed else 0


def cmd_compare(args) -> int:
    def describe(rep) -> str:
        flag = f"  ({len(rep.violations)} violations)" if rep.violations else ""
        return (f"instr={rep.avg_tainted_instr:.1f}"
                f" hybrid={rep.avg_tainted_hybrid:.1f} ratio={rep.ratio:.3f}"
                f" ret {rep.return_tainted_instr}->{rep.return_tainted_hybrid}{flag}")
    return _harness(args, oracle_compare, describe, "compare.json")


def cmd_nitest(args) -> int:
    return _harness(args, noninterference_check, lambda rep: (
        f"{rep.trials} trials, {len(rep.violations)} violations"), "nitest.json")


def cmd_bench(args) -> int:
    m = _load_module(args.module)
    progs = _rules_for(m, args)
    try:
        rep = bench(m, args.entry, args.args, rule_programs=progs,
                    step_budget=args.step_budget)
    except (MachineTrap, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(rep.to_csv())
    if args.out:
        _write_if_changed(_out_dir(args) / "bench.csv", rep.to_csv())
    return 0


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _int_list(text: str) -> list[int]:
    try:
        return [int(a) for a in text.split(",") if a]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}") from None


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="taintsum",
        description="Library-summary-based hybrid dynamic data-flow tracking")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=_positive_int, default=100)
    ap.add_argument("--default-len", type=_positive_int, default=DEFAULT_STRING_CAP,
                    help="string scan cap for rule regions")
    ap.add_argument("--control-deps", choices=("on", "off"), default="on")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse and validate a module")
    p.add_argument("module")
    p.add_argument("--print", dest="print_canonical", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("flatten", help="flatten struct types to primitives")
    p.add_argument("module")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("pdg", help="export dependency graphs")
    p.add_argument("module")
    p.add_argument("--fn", default=None)
    p.add_argument("--out", default="build")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pdg)

    p = sub.add_parser("summarize", help="derive library-function summaries")
    p.add_argument("module")
    p.add_argument("--out", default="build")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("rules", help="compile summaries into taint rules")
    p.add_argument("module")
    p.add_argument("--out", default="build")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_rules, rules=None)

    p = sub.add_parser("run", help="execute under taint tracking")
    p.add_argument("module")
    p.add_argument("--entry", default="main")
    p.add_argument("--mode", choices=("instr", "hybrid"), default="instr")
    p.add_argument("--rules", default=None, help="directory of *.rules.json")
    p.add_argument("--taint-config", default=None)
    p.add_argument("--args", type=_int_list, default="",
                   help="comma-separated entry arguments")
    p.add_argument("--step-budget", type=_positive_int, default=DEFAULT_STEP_BUDGET)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="tainting-effect comparison vs oracle")
    p.add_argument("module")
    p.add_argument("--fn", default=None)
    p.add_argument("--rules", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("nitest", help="noninterference twin-execution check")
    p.add_argument("module")
    p.add_argument("--fn", default=None)
    p.add_argument("--rules", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nitest)

    p = sub.add_parser("bench", help="shadow-operation benchmark")
    p.add_argument("module")
    p.add_argument("--entry", default="main")
    p.add_argument("--args", type=_int_list, default="",
                   help="comma-separated entry arguments")
    p.add_argument("--rules", default=None)
    p.add_argument("--step-budget", type=_positive_int, default=DEFAULT_STEP_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_argparser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as e:
        if isinstance(e.code, int):
            return e.code
        print(e.code, file=sys.stderr)
        return 1
    except PdgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
