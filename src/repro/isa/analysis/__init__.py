"""Unified static-analysis framework for RISC-A programs.

The package gathers every static analysis in the repo behind one worklist
solver and one pass manager:

* :mod:`~repro.isa.analysis.solver` -- the generic FIFO worklist
  (:func:`iterate`) and the monotone per-register fixpoint over the
  CFG's blocks (:func:`infer_dataflow`).
* :mod:`~repro.isa.analysis.cfg` / :mod:`~repro.isa.analysis.dataflow` --
  the CFG (the one basic-block decomposition every analysis, compiled
  codegen and the timing IR read), reaching definitions and liveness
  (the verifier re-exports these for compatibility).
* :mod:`~repro.isa.analysis.lattices` -- width, trailing-zeros, constant
  and value-range transfer functions (shared with the compiled backend's
  elision fixpoint).
* :mod:`~repro.isa.analysis.passes` -- :class:`ProgramAnalyses`, the
  cached pass manager (:func:`analyses_for`), SBOX pointer taint, natural
  loops and the memory-interval alias pass.
* :mod:`~repro.isa.analysis.cost` -- the static cycle-cost estimator:
  provable lower and upper bounds on simulated cycles per
  (program, config), driving ``repro.tools.analyze``.

See ``docs/analysis.md``.
"""

from repro.isa.analysis.cfg import CFG, BasicBlock
from repro.isa.analysis.cost import (
    CostReport,
    MemoryReplay,
    chain_weights,
    estimate_cost,
    replay_memory,
)
from repro.isa.analysis.dataflow import (
    ENTRY,
    Liveness,
    ReachingDefs,
    defs_of,
    uses_of,
)
from repro.isa.analysis.lattices import (
    UNKNOWN_WIDTH,
    WRITES_DEST,
    ZAPNOT_MASKS,
    const_join,
    infer_constants,
    infer_ranges,
    infer_trailing_zeros,
    infer_widths,
    lit_width,
    make_const_step,
    make_range_step,
    make_tz_step,
    make_width_step,
    range_join,
    tz_of_int,
)
from repro.isa.analysis.passes import (
    POINTER_OPS,
    MemoryFacts,
    NaturalLoops,
    ProgramAnalyses,
    ProgramArrays,
    analyses_for,
    table_pointer_taint,
    taint_step,
)
from repro.isa.analysis.solver import infer_dataflow, iterate

__all__ = [
    "BasicBlock", "CFG", "CostReport", "ENTRY", "Liveness", "MemoryFacts",
    "MemoryReplay", "NaturalLoops", "POINTER_OPS", "ProgramAnalyses",
    "ProgramArrays", "ReachingDefs", "UNKNOWN_WIDTH", "WRITES_DEST",
    "ZAPNOT_MASKS", "analyses_for", "chain_weights", "const_join",
    "defs_of", "estimate_cost", "infer_constants", "infer_dataflow",
    "infer_ranges", "infer_trailing_zeros", "infer_widths", "iterate",
    "lit_width", "make_const_step", "make_range_step", "make_tz_step",
    "make_width_step", "range_join", "replay_memory",
    "table_pointer_taint", "taint_step", "tz_of_int", "uses_of",
]
