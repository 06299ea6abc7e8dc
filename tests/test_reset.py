"""`Machine.reset`: a machine reset after any run equals a fresh one.

These tests live apart from test_tracker.py, a module of thousands of
lines: pytest re-reads the source of a failing test's module for every
failing example hypothesis formats while it shrinks, so the time a failure
takes to report grows with the module's length.
"""

import functools
import random
from itertools import compress

from hypothesis import Phase, given, settings, strategies as st

from taintsum import Machine, MachineTrap, TaintConfig, corpus
from taintsum.rules import compile_library
from taintsum.validate import build_plan, materialize_plan
from test_tracker import BUDGETS, _budget


@functools.cache
def _reset_setup(name: str) -> tuple:
    """A corpus program and the machine keywords of its rules and memory."""
    module = corpus.load_module(name)
    return module, dict(rule_programs=compile_library(module)[0], mem_size=1 << 20)


def _reset_trial(module, entry: str, seed: int, wild: bool):
    """One trial as a function of the machine it runs on, drawn from
    `seed`: a libcorpus function on its driver's plan, or a corpus
    program's entry on an argument below 64, with a random subset of the
    arguments tagged; `wild` makes the first argument a random 64-bit
    value, which may trap.  The trial returns the exit value or the trap."""
    rng = random.Random(seed)
    plan = build_plan(module, entry, rng) if entry in corpus.DRIVERS else None
    nparams = len(module.functions[entry].params)
    small, tagged = rng.randrange(64), [rng.random() < 0.5 for _ in range(nparams)]
    wild_arg = rng.getrandbits(64) if wild and plan else None

    def go(m):
        args, regions = (materialize_plan(m, plan) if plan else
                         ([small] * nparams, [None] * nparams))
        tags = [None] * nparams
        for i in compress(range(nparams), tagged):
            if regions[i] is None:
                tags[i] = bytes([1 << i]) * 8
            else:
                m.tagmap.set_taint(regions[i][0], 1 << i, regions[i][1])
        if wild_arg is not None:
            args[0] = wild_arg
        try:
            return m.call_entry(entry, args, tags)
        except MachineTrap as e:
            return e.kind, e.instr
    return go


def _run_state(m) -> dict:
    """Every field of `m` but its memory and Tagmap, with the counters."""
    return {k: v for k, v in vars(m).items() if k not in ("memory", "tagmap")}


# a source and a sink inside rule-firing calls of libcorpus and student_flow
RESET_CFG = TaintConfig.from_json({
    "sources": [{"fn": "memcpy", "where": "param", "index": 0, "label": 2},
                {"fn": "student_cpy", "where": "param", "index": 0, "label": 4}],
    "sinks": [{"fn": "memcpy", "index": 1}]})
RESET_ENTRIES = ([("libcorpus", fn) for fn in sorted(corpus.DRIVERS)]
                 + [(name, "main") for name in ("student_flow", "bench_memcpy", "bench_user")])


class TestReset:
    """`Machine.reset` returns a machine, after any run, to the state a
    fresh one of its module, rules, memory size, mode and config starts in."""

    # Hypothesis formats every failing example it runs, and pytest re-reads
    # the source of each traceback frame to do so.  When a failure raises
    # inside the tracker, the explain phase and the search for further
    # distinct failures took minutes of that; one failure, shrunk, reports
    # in seconds.
    @settings(max_examples=80, deadline=None, phases=set(Phase) - {Phase.explain},
              report_multiple_bugs=False)
    @given(st.sampled_from(RESET_ENTRIES), st.integers(0, 2 ** 32), st.booleans(),
           st.sampled_from(("instr", "hybrid")), BUDGETS, st.sampled_from((None, RESET_CFG)))
    def test_reset_machine_equals_a_fresh_one(self, entry, seed, wild, mode, budget, cfg):
        module, setup = _reset_setup(entry[0])
        kw = dict(setup, mode=mode, taint_config=cfg, **_budget(budget))
        trial = _reset_trial(module, entry[1], seed, wild)
        m = Machine(module, **kw)
        first = trial(m)
        m.reset()
        fresh = Machine(module, **kw)
        initial = bytearray(setup["mem_size"])
        for addr, init in m.shared.inits:
            initial[addr:addr + len(init)] = init
        assert bytes(m.memory) == bytes(fresh.memory) == initial and m.memory == fresh.memory
        assert m.memory.dirty == fresh.memory.dirty
        assert m.tagmap.pages == fresh.tagmap.pages == {}
        assert _run_state(m) == _run_state(fresh)
        assert trial(m) == trial(fresh) == first
        assert bytes(m.memory) == bytes(fresh.memory)
        assert m.tagmap.pages == fresh.tagmap.pages
        assert _run_state(m) == _run_state(fresh)

    def test_counters_and_fields_after_a_trap(self):
        """A run cut by its step budget leaves frames, counters and a
        lowered `live` behind; reset restores every one of them."""
        module, setup = _reset_setup("libcorpus")
        m = Machine(module, mode="hybrid", step_budget=30, **setup)
        trial = _reset_trial(module, "copy_twice", 0, False)
        assert trial(m)[0] == "step budget exhausted"
        assert m._frames and not m.live and m.instr_total and m.instr_unins
        m.reset()
        assert (m._frames, m.live, m.instr_total, m.instr_unins, m.shadow_ops_instr,
                m.shadow_ops_rules, m.sink_hits, m.ret_shadow, m.exit_value,
                m._unins_from) == ([], True, 0, 0, 0, 0, [], b"", 0, 0)
        assert (m.heap_ptr, m.stack_ptr) == (m.shared.heap_start, setup["mem_size"])
