"""Span recording around the public calls of each `taintsum` layer.

Tracing is installed only for a traced run: `Tracer.install()` replaces
each public function (wherever a `taintsum` module holds a reference to
it) and a few public methods with wrappers that record a span, and
`uninstall()` puts the originals back.  Nothing under `src/` changes, and
untraced runs execute the original functions.

A span is `[name, parent index, start ns, end ns, info]`.  Spans stay in
memory and are written out once, at the end of the run.  A layer is the
part of a span name before the first dot; its self time is the span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from statistics import mean

LAYERS = ("parser", "pdg", "summaries", "rules", "cli", "tracker", "validate")
MODES = ("instr", "hybrid")
SLOPE_MIN_INSTR = 100     # smaller builds measure fixed overhead, not growth


def _instr_count(fn) -> int:
    return sum(len(b.instrs) for b in fn.blocks)


def _exec_before(args, kwargs):
    m = args[0]
    return (m.instr_total, m.instr_unins, m.shadow_ops_instr, m.shadow_ops_rules)


def _exec_after(args, kwargs, result, before):
    m = args[0]
    now = _exec_before(args, kwargs)
    return (m.mode,) + tuple(a - b for a, b in zip(now, before))


# (module, attribute, span name, info after the call)
FUNCTIONS = (
    ("taintsum.parser", "parse_module", "parser.parse",
     lambda a, k, r: sum(_instr_count(f) for f in r.functions.values())),
    ("taintsum.pdg", "build_pdg", "pdg.build",
     lambda a, k, r: (_instr_count(r.root), len(r.nodes), len(r.edges))),
    ("taintsum.summaries", "summarize_library", "summaries.library", None),
    ("taintsum.summaries", "source_nodes", "summaries.bind", None),
    ("taintsum.summaries", "target_nodes", "summaries.bind", None),
    ("taintsum.summaries", "summary_gen", "summaries.gen",
     lambda a, k, r: len(r.entries)),
    ("taintsum.rules", "taint_rule_gen", "rules.gen",
     lambda a, k, r: len(r.steps)),
    ("taintsum.rules", "serialize_rules", "rules.serialize", None),
    ("taintsum.rules", "parse_rules", "rules.parse", None),
    ("taintsum.cli", "main", "cli.main",
     lambda a, k, r: (a[0] if a else k.get("argv") or ["?"])[0]),
    ("taintsum.tracker", "run", "tracker.run", None),
    ("taintsum.tracker", "apply_rule_program", "tracker.rule", None),
    ("taintsum.validate", "oracle_compare", "validate.compare",
     lambda a, k, r: (r.function, r.ratio, len(r.violations))),
    ("taintsum.validate", "noninterference_check", "validate.nitest",
     lambda a, k, r: len(r.violations)),
    ("taintsum.validate", "transparency_check", "validate.transparency",
     lambda a, k, r: len(r)),
    ("taintsum.validate", "transparency_check_fn", "validate.transparency",
     lambda a, k, r: len(r)),
)

# (module, class, method, span name, info before, info after)
METHODS = (
    ("taintsum.tracker", "Machine", "__init__", "tracker.setup", None, None),
    ("taintsum.tracker", "Machine", "call_entry", "tracker.exec",
     _exec_before, _exec_after),
    ("taintsum.tracker", "Tagmap", "count_nonzero", "tagmap.scan", None, None),
    ("taintsum.tracker", "Tagmap", "nonzero_bytes", "tagmap.scan", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            rec = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after:
                rec[4] = (after(args, kwargs, result, state) if before
                          else after(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap every listed callable; the modules must be imported."""
        ours = [m for n, m in sys.modules.items()
                if n == "taintsum" or n.startswith("taintsum.")]
        for modname, attr, name, after in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig, None, after)
            for mod in ours:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for modname, clsname, meth, name, before, after in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig, before, after))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"format": "[name, parent, start_ns, end_ns, info]",
                       "spans": self.spans}, fp)

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, vlib_fns) -> dict[str, float]:
        """Per-layer figures over every recorded span.  `vlib_fns` names the
        libcorpus functions whose tainted-space ratio is reported."""
        spans = self.spans
        dur = [(s[3] - s[2]) / 1e9 for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self_s[s[0].split(".", 1)[0]] += dur[i] - child[i]
            by_name[s[0]].append(i)

        def total(name) -> float:
            return sum(dur[i] for i in by_name[name])

        out: dict[str, float] = {f"{layer}.s": self_s[layer] for layer in LAYERS}

        parsed = sum(spans[i][4] for i in by_name["parser.parse"])
        out["parser.instr_per_s"] = _div(parsed, total("parser.parse"))

        builds = [(spans[i][4], dur[i]) for i in by_name["pdg.build"]]
        if builds:
            (n_instr, nodes, edges), t = max(builds, key=lambda b: (b[0][0], b[1]))
        else:
            n_instr = nodes = edges = t = 0
        out.update({"pdg.build_s.max": t, "pdg.instr.max": n_instr,
                    "pdg.nodes.max": nodes, "pdg.edges.max": edges,
                    "pdg.slope": loglog_slope([(info[0], d) for info, d in builds
                                               if info[0] >= SLOPE_MIN_INSTR])})

        out["summaries.bind_s"] = total("summaries.bind")
        out["summaries.gen_s"] = total("summaries.gen")
        out["summaries.entries"] = _mean(spans[i][4] for i in by_name["summaries.gen"])
        out["rules.gen_s"] = total("rules.gen")
        out["rules.serialize_s"] = total("rules.serialize")
        out["rules.steps"] = _mean(spans[i][4] for i in by_name["rules.gen"])
        rules_calls = [i for i in by_name["cli.main"] if spans[i][4] == "rules"]
        out["cli.rules_s"] = _div(sum(dur[i] for i in rules_calls), len(rules_calls))

        out["tracker.machine_setup_us"] = _div(1e6 * total("tracker.setup"),
                                               len(by_name["tracker.setup"]))
        per_mode = {m: [0.0, 0, 0, 0, 0] for m in MODES}
        for i in by_name["tracker.exec"]:
            mode, instr, unins, ops_i, ops_r = spans[i][4]
            acc = per_mode[mode]
            for k, v in enumerate((dur[i], instr, unins, ops_i, ops_r)):
                acc[k] += v
        for m in MODES:
            wall, instr, _, ops_i, _ = per_mode[m]
            out[f"tracker.run_s.{m}"] = wall
            out[f"tracker.instr_total.{m}"] = instr
            out[f"tracker.ns_per_instr.{m}"] = _div(1e9 * wall, instr)
            out[f"tracker.shadow_ops_instr.{m}"] = ops_i
        out["tracker.instr_unins.hybrid"] = per_mode["hybrid"][2]
        out["tracker.shadow_ops_rules.hybrid"] = per_mode["hybrid"][4]
        out["tracker.shadow_op_ratio"] = _div(
            per_mode["instr"][3] + per_mode["instr"][4],
            per_mode["hybrid"][3] + per_mode["hybrid"][4])
        out["tracker.hybrid_wall_ratio"] = _div(
            out["tracker.ns_per_instr.hybrid"], out["tracker.ns_per_instr.instr"])
        out["tagmap.scan_s"] = total("tagmap.scan")

        out["validate.compare_s"] = total("validate.compare")
        out["validate.nitest_s"] = total("validate.nitest")
        out["validate.transparency_s"] = total("validate.transparency")
        compares = [spans[i][4] for i in by_name["validate.compare"]]
        out["validate.violations"] = (
            sum(c[2] for c in compares)
            + sum(spans[i][4] for i in by_name["validate.nitest"])
            + sum(spans[i][4] for i in by_name["validate.transparency"]))
        for fn in vlib_fns:
            out[f"validate.ratio.{fn}"] = _mean(c[1] for c in compares if c[0] == fn)
        return out


def _div(a, b) -> float:
    return a / b if b else 0.0


def _mean(values) -> float:
    values = list(values)
    return mean(values) if values else 0.0


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size), one point per
    distinct size (its mean time)."""
    by_size: dict[int, list[float]] = defaultdict(list)
    for size, t in points:
        if size > 0 and t > 0:
            by_size[size].append(t)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(mean(ts)) for ts in by_size.values()]
    mx, my = mean(xs), mean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
