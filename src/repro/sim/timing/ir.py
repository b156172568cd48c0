"""Static timing IR: per-program scheduling structure, computed once.

The generic engine re-derives everything about an instruction -- latency
class, functional-unit pool, source registers, branch-ness -- on every
dynamic instance.  The IR hoists that work to *program* scope: one pass
over the finalized :class:`~repro.isa.program.Program` cuts the basic
blocks of its shared :class:`~repro.isa.analysis.cfg.CFG` into runs of
at most :data:`MAX_BLOCK` entries (so generated code stays compact) and
precomputes, per run, the exact static-index run a trace must contain
for the block to have executed start to finish.

The ``"specialized"`` engine's code generator walks the blocks inside
a natural loop and emits one unrolled scheduling body per block; at run
time a single array comparison against :attr:`TimingBlock.expect`
proves a trace window *is* that block, so the emitted body needs no
per-entry dispatch at all.  The IR itself is engine-neutral static
metadata and is cached on the trace's :class:`~repro.sim.trace.StaticInfo`
(one per program, however many traces and configs consume it).
"""

from __future__ import annotations

from array import array

from repro.isa.program import Program
from repro.sim.trace import SEQ_TYPECODE, StaticInfo

#: Longest block the code generator unrolls; longer straight-line runs are
#: split into consecutive sub-blocks (the follow-on sub-block is simply
#: another leader, so splitting never costs correctness, only one more
#: dispatch per MAX_BLOCK entries).
MAX_BLOCK = 64


class TimingBlock:
    """One straight-line run of static instructions."""

    __slots__ = ("index", "leader", "length", "expect", "branch_end",
                 "loop_depth")

    def __init__(self, index: int, leader: int, length: int,
                 branch_end: bool):
        self.index = index
        self.leader = leader
        self.length = length
        #: The dynamic static-index run this block produces when executed.
        self.expect = array(SEQ_TYPECODE, range(leader, leader + length))
        #: True when the final instruction is a branch (the block may be
        #: followed by any leader); False for fall-through splits and HALT.
        self.branch_end = branch_end
        #: Natural-loop nesting depth of the leader (0 = straight-line
        #: code), filled in by :class:`TimingIR` from the shared analysis
        #: framework's :class:`~repro.isa.analysis.passes.NaturalLoops`.
        self.loop_depth = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TimingBlock({self.index}: [{self.leader}.."
                f"{self.leader + self.length}), branch={self.branch_end})")


class TimingIR:
    """Block decomposition of one program, keyed by block leader.

    ``loop_blocks`` are the blocks inside a natural loop, the ones the
    code generator compiles: a block outside every loop runs once per
    run of the program, and the per-entry loop takes it.
    """

    __slots__ = ("program", "n_instructions", "blocks", "block_at",
                 "loop_blocks")

    def __init__(self, static: StaticInfo, program: Program):
        # Blocks and loop structure come from the shared analysis
        # framework (the CFG and its natural loops).  Imported lazily:
        # the IR is hot-path sim code and must not pull the analysis
        # package in unless a program is actually decomposed.
        from repro.isa.analysis.passes import analyses_for

        self.program = program
        self.n_instructions = len(program.instructions)
        is_branch = static.is_branch
        analyses = analyses_for(program)
        loops = analyses.loops

        self.blocks: list[TimingBlock] = []
        self.block_at: dict[int, TimingBlock] = {}
        for cfg_block in analyses.cfg.blocks:
            start, end = cfg_block.start, cfg_block.end
            while start < end:
                length = min(MAX_BLOCK, end - start)
                block = TimingBlock(
                    len(self.blocks), start, length,
                    branch_end=start + length == end and is_branch[end - 1],
                )
                block.loop_depth = loops.depth_of_index(start)
                self.blocks.append(block)
                self.block_at[start] = block
                start += length
        self.loop_blocks = [block for block in self.blocks
                            if block.loop_depth]


def timing_ir(static: StaticInfo, program: Program) -> TimingIR:
    """The program's timing IR, computed once and cached on ``static``.

    ``StaticInfo`` is built once per program (``StaticInfo.from_program``)
    and shared by every trace of it, so caching here gives the desired
    once-per-program cost without a separate global table.
    """
    ir = getattr(static, "_timing_ir", None)
    if ir is None or ir.program is not program:
        ir = TimingIR(static, program)
        static._timing_ir = ir
    return ir
