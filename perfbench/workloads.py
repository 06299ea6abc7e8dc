"""The three workloads, their output checks, and the bundled-corpus check.

Each workload builds its inputs from the seed in set-up, then runs rounds
of fixed work until the measuring window is over.  A round returns the
figures the end-to-end metrics are medians of, once in wall-clock units
and once in calibration units (`cal`, see `calibrate`):

  primary    the workload's main work items per second (per cal)
  secondary  a second rate that a change could trade against the first
  worst      seconds (cals) of the largest single unit a user waits for

The wall figures also carry `cal_s`, the calibration time of the round.
Checks run after each timed unit and are counted, never timed.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import random
import sys
import time
from pathlib import Path
from statistics import median

import gen
import reference as ref

MODES = ("instr", "hybrid")
SIZES = (200, 400, 800, 1600, 3200)
HARNESS_TRIALS = 10         # trials per harness and function in one round
USER_RUNS = 10              # bench_user runs per online round
RULE_APPLY_REPS = 50        # direct apply_rule_program calls per program


class _Cell:
    __slots__ = ("key", "val")

    def __init__(self, key, val):
        self.key = key
        self.val = val


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the time unit `cal`, 25 to
    40 ms on a 2-vCPU Xeon.

    On a shared host the interpreter's speed drifts by a factor of 1.5 to 2
    over tens of seconds.  Run just before and after each timed unit, this
    loop drifts with it, so a unit's cost in `cal` is the program's own.
    Allocation-heavy code alone drifts more than the workloads do and
    integer arithmetic alone less; the sum of the two halves tracks them."""
    t0 = time.perf_counter()
    table, cells, buf = {}, [], bytearray(4096)
    for i in range(20000):
        c = _Cell(i & 511, i)
        cells.append(c)
        table[c.key] = table.get(c.key, 0) ^ c.val
        buf[i & 4095] |= i & 0xFF
    x = 0
    for i in range(150000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def round_figures(wall: dict, cal: float) -> tuple[dict, dict]:
    """(wall, cal) figures of a round whose calibration is `cal`."""
    in_cal = {"primary": wall["primary"] * cal,
              "secondary": wall["secondary"] * cal,
              "worst": wall["worst"] / cal}
    return dict(wall, cal_s=cal), in_cal


def import_taintsum():
    """Fresh import of the package (and its CLI), as a user's process pays it."""
    for name in [n for n in sys.modules
                 if n == "taintsum" or n.startswith("taintsum.")]:
        del sys.modules[name]
    ts = importlib.import_module("taintsum")
    importlib.import_module("taintsum.cli")
    return ts


def load_corpus(ts) -> dict:
    return {name: ts.corpus.load_module(name) for name in ts.corpus.NAMES}


def compile_rules(ts, module) -> dict:
    summaries, _ = ts.summarize_library(module, True)
    return {n: ts.taint_rule_gen(s, module) for n, s in summaries.items()}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# offline-scaled
# ---------------------------------------------------------------------------

class Offline:
    """Generated library modules through parse -> summarize -> rules ->
    serialize: one function per size, plus many corpus-sized functions."""

    name = "offline-scaled"

    def __init__(self, ts, seed: int, checks: Checks):
        self.ts, self.checks = ts, checks
        self.corpus = load_corpus(ts)
        self.scaled = [gen.scaled_module(seed, n) for n in SIZES]
        self.small = gen.many_small_module(seed)
        self.size_s: dict[int, list[float]] = {gm.instructions: [] for gm in self.scaled}

    def _pipeline(self, gm: gen.GeneratedModule) -> tuple[float, list[float]]:
        """Wall seconds, and the calibrations just before and after."""
        ts = self.ts
        gc.collect()
        cals = [calibrate()]
        t0 = time.perf_counter()
        m = ts.parse_module(gm.text)
        summaries, diags = ts.summarize_library(m, True)
        texts = [ts.serialize_rules(ts.taint_rule_gen(summaries[n], m))
                 for n in sorted(summaries)]
        dt = time.perf_counter() - t0
        cals.append(calibrate())
        self.checks.check(not diags and len(texts) == gm.functions,
                          f"{gm.name}: diagnostics {diags}")
        for fn, want in gm.expected.items():
            got = ref.entries_as_strs(summaries[fn].entries) if fn in summaries else None
            self.checks.check(got == want, f"{gm.name}: @{fn} summary {got} != {want}")
        return dt, cals

    def round(self, r: int) -> tuple[dict, dict]:
        timed = [self._pipeline(gm) for gm in self.scaled + [self.small]]
        for gm, (dt, _) in zip(self.scaled, timed):
            self.size_s[gm.instructions].append(dt)
        # each unit in its own calibration, the mean of the two around it
        in_cal = [dt * 2 / sum(cals) for dt, cals in timed]
        scaled, small = [dt for dt, _ in timed[:-1]], timed[-1][0]
        instr, fns = sum(gm.instructions for gm in self.scaled), self.small.functions
        wall = {"primary": instr / sum(scaled), "secondary": fns / small,
                "worst": scaled[-1],
                "cal_s": median(c for _, cals in timed for c in cals)}
        return wall, {"primary": instr / sum(in_cal[:-1]),
                      "secondary": fns / in_cal[-1], "worst": in_cal[-2]}

    def details(self) -> list[tuple[str, float, str]]:
        return [(f"offline_s.{n}", median(ts), "s") for n, ts in self.size_s.items()]


# ---------------------------------------------------------------------------
# online-track
# ---------------------------------------------------------------------------

def memcpy_pretaint(machine) -> None:
    machine.tagmap.set_taint(machine.global_addr["src_buf"], ref.MEMCPY_LABEL,
                             ref.MEMCPY_N)


def tainted_in(machine, addr: int, n: int) -> int:
    return sum(1 for a, _ in machine.tagmap.nonzero_bytes() if addr <= a < addr + n)


def execute(ts, module, entry, args, mode, rules=None, cfg=None, before=None):
    """Timed tracked execution: machine construction, sources, the run."""
    t0 = time.perf_counter()
    m = ts.Machine(module, mode=mode, rule_programs=rules, taint_config=cfg)
    if before:
        before(m)
    exit_value = m.call_entry(entry, list(args))
    return time.perf_counter() - t0, m, exit_value


def check_memcpy_pair(checks: Checks, ms: dict, exits: dict) -> dict:
    """instr mode taints exactly the n copied @dst_buf bytes; both modes
    agree concretely.  Returns the tainted @dst_buf bytes per mode."""
    dst = ms["instr"].global_addr["dst_buf"]
    tainted = {mode: tainted_in(m, dst, ref.BUF_BYTES) for mode, m in ms.items()}
    checks.check(tainted_in(ms["instr"], dst, ref.MEMCPY_N) == ref.MEMCPY_N
                 and tainted["instr"] == ref.MEMCPY_N,
                 f"memcpy: instr mode taints {tainted['instr']} @dst_buf bytes")
    check_transparent(checks, "bench_memcpy", ms, exits)
    return tainted


def check_transparent(checks: Checks, what: str, ms: dict, exits: dict) -> None:
    checks.check(exits["instr"] == exits["hybrid"]
                 and ms["instr"].memory == ms["hybrid"].memory,
                 f"{what}: exit value or final memory differs between modes")


class Online:
    """Long tracked executions in both modes: bench_memcpy (library-heavy,
    hybrid suppresses it), bench_user (user code only, hybrid equals
    instr) and student_flow, mixed so each kind is at least a quarter."""

    name = "online-track"

    def __init__(self, ts, seed: int, checks: Checks):
        self.ts, self.checks = ts, checks
        self.corpus = load_corpus(ts)
        c = self.corpus
        self.rules = {n: compile_rules(ts, c[n])
                      for n in ("bench_memcpy", "student_flow")}
        self.cfg = ts.TaintConfig.from_json(ref.STUDENT_FLOW_CONFIG)
        rng = random.Random(f"perfbench:online:{seed}")
        self.user_data = bytes(rng.randrange(256) for _ in range(ref.BENCH_USER_N))

    def _user_pretaint(self, m) -> None:
        addr = m.global_addr["data"]
        m.write_bytes(addr, self.user_data)
        m.tagmap.set_taint(addr, ref.BENCH_USER_LABEL, ref.BENCH_USER_N)

    def round(self, r: int) -> tuple[dict, dict]:
        c = self.corpus
        cal = calibrate()
        wall = dict.fromkeys(MODES, 0.0)
        instr = dict.fromkeys(MODES, 0)
        kind = {"bench_memcpy": 0, "bench_user": 0}
        mix = [("bench_memcpy", c["bench_memcpy"], [ref.MEMCPY_N],
                self.rules["bench_memcpy"], None, memcpy_pretaint)]
        mix += [("bench_user", c["bench_user"], [ref.BENCH_USER_N], {}, None,
                 self._user_pretaint)] * USER_RUNS
        mix.append(("student_flow", c["student_flow"], [],
                    self.rules["student_flow"], self.cfg, None))
        for what, module, args, rules, cfg, before in mix:
            ms, exits = {}, {}
            for mode in MODES:
                dt, ms[mode], exits[mode] = execute(
                    self.ts, module, "main", args, mode,
                    rules if mode == "hybrid" else None, cfg, before)
                wall[mode] += dt
                instr[mode] += ms[mode].instr_total
                if what in kind:
                    kind[what] += ms[mode].instr_total
                if what == "bench_memcpy" and mode == "instr":
                    worst = dt
            self._check(what, ms, exits)
        total = sum(instr.values())
        self.checks.check(min(kind.values()) >= total / 4,
                          f"online mix is unbalanced: {kind} of {total}")
        return round_figures({"primary": instr["instr"] / wall["instr"],
                              "secondary": instr["hybrid"] / wall["hybrid"],
                              "worst": worst}, (cal + calibrate()) / 2)

    def _check(self, what: str, ms: dict, exits: dict) -> None:
        checks = self.checks
        if what == "bench_memcpy":
            check_memcpy_pair(checks, ms, exits)
            return
        check_transparent(checks, what, ms, exits)
        if what == "bench_user":
            tags = {mode: any(m.ret_shadow) for mode, m in ms.items()}
            checks.check(tags == {"instr": True, "hybrid": True},
                         f"bench_user: return taint per mode {tags}")
        else:
            hits = {mode: [h.tag for h in m.sink_hits] for mode, m in ms.items()}
            checks.check(all(h == ref.STUDENT_FLOW_SINK_TAGS for h in hits.values()),
                         f"student_flow: sink tags {hits}")

    def details(self) -> list[tuple[str, float, str]]:
        return []


# ---------------------------------------------------------------------------
# harness-libcorpus
# ---------------------------------------------------------------------------

class Harness:
    """The CI gate: oracle_compare + noninterference_check +
    transparency_check_fn over the nine libcorpus functions; many short
    machines instead of one long instruction loop."""

    name = "harness-libcorpus"

    def __init__(self, ts, seed: int, checks: Checks):
        self.ts, self.checks, self.seed = ts, checks, seed
        self.corpus = load_corpus(ts)
        self.lib = self.corpus["libcorpus"]
        self.rules = ts.validate.default_rules(self.lib)
        self.fns = sorted(ts.corpus.DRIVERS)

    def round(self, r: int) -> tuple[dict, dict]:
        v, lib, rules, checks = self.ts.validate, self.lib, self.rules, self.checks
        seed = self.seed * 1000 + r
        cal = calibrate()
        t_compare = 0.0
        t0 = time.perf_counter()
        for fn in self.fns:
            tc = time.perf_counter()
            cmp = v.oracle_compare(lib, fn, HARNESS_TRIALS, seed, rules)
            t_compare += time.perf_counter() - tc
            ni = v.noninterference_check(lib, fn, HARNESS_TRIALS, seed, rules)
            tr = [v.transparency_check_fn(lib, fn, seed * HARNESS_TRIALS + t, rules)
                  for t in range(HARNESS_TRIALS)]
            checks.check(not cmp.violations, f"compare @{fn}: {len(cmp.violations)} violations")
            checks.check(not ni.violations, f"nitest @{fn}: {len(ni.violations)} violations")
            checks.check(not any(tr), f"transparency @{fn}: {tr}")
        dt = time.perf_counter() - t0
        n = len(self.fns) * HARNESS_TRIALS
        return round_figures({"primary": 3 * n / dt, "secondary": n / t_compare,
                              "worst": dt}, (cal + calibrate()) / 2)

    def details(self) -> list[tuple[str, float, str]]:
        return []


WORKLOADS = {w.name: w for w in (Offline, Online, Harness)}


# ---------------------------------------------------------------------------
# The bundled-corpus check, run once after every workload
# ---------------------------------------------------------------------------

def corpus_check(ts, seed: int, checks: Checks, tmp: Path) -> dict:
    """Corpus outputs against the hand-written references, the README's
    CLI flow, the memcpy pair and a short pass of the three harnesses.
    Returns the memcpy pair's tainted @dst_buf bytes per mode."""
    c = load_corpus(ts)
    lib = c["libcorpus"]
    for cdeps, golden in ((False, ref.LIBCORPUS_EXPLICIT), (True, ref.LIBCORPUS_CDEP)):
        summaries, diags = ts.summarize_library(lib, cdeps)
        checks.check(sorted(summaries) == sorted(golden) and not diags,
                     f"libcorpus summaries {sorted(summaries)} {diags}")
        for fn, want in golden.items():
            got = ref.entries_as_strs(summaries[fn].entries) if fn in summaries else None
            checks.check(got == want, f"libcorpus @{fn} cdeps={cdeps}: {got} != {want}")

    ts.corpus.materialize(tmp)
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(ref.STUDENT_FLOW_CONFIG), encoding="utf-8")

    def cli(*argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = ts.cli.main([str(a) for a in argv])
        return rc, out.getvalue()

    rc, _ = cli("rules", tmp / "libcorpus.ir", "--out", tmp / "lib")
    checks.check(rc == 0, f"taintsum rules libcorpus.ir exited {rc}")
    for fn, want in ref.LIBCORPUS_CDEP.items():
        path = tmp / "lib" / f"{fn}.rules.json"
        got = (ref.entries_as_strs(ts.parse_rules(path.read_text()).decompiled_entries())
               if path.exists() else None)
        checks.check(got == want, f"{fn}.rules.json entries {got} != {want}")
    sf = tmp / "student_flow.ir"
    rc, _ = cli("rules", sf, "--out", tmp / "sf")
    checks.check(rc == 0, f"taintsum rules student_flow.ir exited {rc}")
    for mode in MODES:
        extra = ("--rules", tmp / "sf") if mode == "hybrid" else ()
        rc, text = cli("run", sf, "--entry", "main", "--mode", mode, *extra,
                       "--taint-config", cfg_path)
        tags = [h["tag"] for h in json.loads(text)["sinkHits"]] if rc == 0 else None
        checks.check(tags == ref.STUDENT_FLOW_SINK_TAGS,
                     f"taintsum run student_flow --mode {mode}: sink tags {tags}")

    memcpy_rules = compile_rules(ts, c["bench_memcpy"])
    ms, exits = {}, {}
    for mode in MODES:
        _, ms[mode], exits[mode] = execute(
            ts, c["bench_memcpy"], "main", [ref.MEMCPY_N], mode,
            memcpy_rules if mode == "hybrid" else None, before=memcpy_pretaint)
    tainted = check_memcpy_pair(checks, ms, exits)
    del ms

    v = ts.validate
    lib_rules = compile_rules(ts, lib)
    for fn in sorted(ts.corpus.DRIVERS):
        cmp = v.oracle_compare(lib, fn, 2, seed, lib_rules)
        ni = v.noninterference_check(lib, fn, 2, seed, lib_rules)
        tr = v.transparency_check_fn(lib, fn, seed, lib_rules)
        checks.check(not cmp.violations and not ni.violations and not tr,
                     f"harness @{fn}: violations in the corpus check")

    return tainted


def direct_rule_apply_us(ts, seed: int) -> float:
    """Mean microseconds of one apply_rule_program call, over every
    libcorpus program applied to a prepared machine with tainted inputs."""
    v = ts.validate
    lib = ts.corpus.load_module("libcorpus")
    rules = compile_rules(ts, lib)
    total, calls = 0.0, 0
    for fn, prog in sorted(rules.items()):
        m = ts.Machine(lib, mode="hybrid", rule_programs=rules,
                       mem_size=v.HARNESS_MEMORY)
        plan = v.build_plan(lib, fn, random.Random(f"perfbench:apply:{seed}:{fn}"))
        args, regions = v.materialize_plan(m, plan)
        record = []
        for value, region, (_, pty) in zip(args, regions, lib.functions[fn].params):
            if region is not None:
                m.tagmap.set_taint(region[0], 1, region[1])
            record.append((value, bytes([1]) * ts.size_of(pty, lib.structs)))
        t0 = time.perf_counter()
        for _ in range(RULE_APPLY_REPS):
            ts.apply_rule_program(prog, record, m)
        total += time.perf_counter() - t0
        calls += RULE_APPLY_REPS
    return 1e6 * total / calls
