"""Hybrid dynamic data-flow tracking for a small typed IR.

Offline: dependency-graph construction, library-function summarization,
and taint-rule compilation.  Online: a byte-level shadow-memory
interpreter interleaving instruction-level propagation with rule
application at library return points, plus the evaluation harnesses.
"""

from .ir import (
    Diagnostic, Module, field_offset, size_of, type_str, validate_module,
)
from .parser import ParseError, parse_module, print_module
from .pdg import Pdg, PdgError, build_pdg
from .rules import (
    TaintRuleProgram, parse_rules, rule_stats, serialize_rules, taint_rule_gen,
)
from .summaries import (
    SlotRef, Summary, flatten_prim_types, source_nodes, summarize_library,
    summary_gen, target_nodes,
)
from .tracker import (
    Machine, MachineTrap, RunReport, TaintConfig, Tagmap, apply_rule_program, run,
)
from .validate import bench, noninterference_check, oracle_compare

__version__ = "0.1.0"

__all__ = [
    "Diagnostic", "Machine", "MachineTrap", "Module", "ParseError", "Pdg",
    "PdgError", "RunReport", "SlotRef", "Summary", "TaintConfig",
    "TaintRuleProgram", "Tagmap", "apply_rule_program", "bench", "build_pdg",
    "field_offset", "flatten_prim_types", "noninterference_check",
    "oracle_compare", "parse_module", "parse_rules", "print_module", "rule_stats",
    "run", "serialize_rules", "size_of", "source_nodes", "summarize_library",
    "summary_gen", "taint_rule_gen", "target_nodes", "type_str",
    "validate_module",
]
