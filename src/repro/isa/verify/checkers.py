"""The verifier's checker suite.

Each checker is a function ``(VerifyContext) -> list[Diagnostic]`` registered
in :data:`CHECKERS` under its stable id.  Checker ids, severities, and the
rules they implement are catalogued in ``docs/lint.md``; the known-bad
corpus in ``tests/isa/test_verify_checkers.py`` pins one program per
checker class to its exact diagnostic.

All checkers operate on the same :class:`VerifyContext`: the CFG plus the
reaching-definitions and liveness solutions from the shared analysis
framework (:mod:`repro.isa.analysis`).  Checkers that need the lattice
passes (value range, width, the alias pass) pull the full
:class:`~repro.isa.analysis.passes.ProgramAnalyses` bundle via
:meth:`VerifyContext.passes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.isa import opcodes as op
from repro.isa.analysis.cfg import CFG
from repro.isa.analysis.dataflow import (
    ENTRY,
    Liveness,
    ReachingDefs,
    defs_of,
    uses_of,
)
from repro.isa.analysis.lattices import (
    UNKNOWN_WIDTH,
    make_range_step,
    make_width_step,
)
from repro.isa.analysis.passes import (
    ProgramAnalyses,
    table_pointer_taint,
    taint_step,
)
from repro.isa.analysis.solver import iterate
from repro.isa.features import Features
from repro.isa.program import Program
from repro.isa.registers import SCRATCH_REGS
from repro.isa.verify.diagnostics import Diagnostic
from repro.isa.verify.ranges import (
    encoding_violations,
    rotate_amount_violations,
)

#: Minimum feature level required to execute each extension opcode.
REQUIRED_FEATURES: dict[int, Features] = {
    op.ROLL: Features.ROT, op.RORL: Features.ROT,
    op.ROLQ: Features.ROT, op.RORQ: Features.ROT,
    op.ROLXL: Features.OPT, op.RORXL: Features.OPT,
    op.MULMOD: Features.OPT, op.SBOX: Features.OPT,
    op.SBOXSYNC: Features.OPT, op.XBOX: Features.OPT,
    op.GRPL: Features.OPT, op.GRPQ: Features.OPT,
}

@dataclass
class VerifyContext:
    """Shared analysis state handed to every checker."""

    program: Program
    cfg: CFG
    rdefs: ReachingDefs
    liveness: Liveness
    #: Feature level the program claims to target (None skips gating).
    features: Features | None = None
    #: The full pass-manager bundle (lattices, alias pass, loops); built
    #: lazily from the program when a checker first needs it.
    analyses: ProgramAnalyses | None = None

    def passes(self) -> ProgramAnalyses:
        if self.analyses is None:
            self.analyses = ProgramAnalyses(self.program)
        return self.analyses

    def render(self, index: int) -> str:
        return self.program.instructions[index].render()


def _diag(ctx, checker, severity, index, message, **detail) -> Diagnostic:
    return Diagnostic(
        checker=checker, severity=severity, message=message, index=index,
        instruction=ctx.render(index) if index is not None else None,
        detail=detail,
    )


# --------------------------------------------------------------------- #
# Dataflow lints
# --------------------------------------------------------------------- #

def check_use_before_def(ctx: VerifyContext) -> list[Diagnostic]:
    """A register read that may still hold its entry value on some path."""
    diagnostics = []
    instructions = ctx.program.instructions
    for block in ctx.cfg.blocks:
        if block.bid not in ctx.cfg.reachable:
            continue
        state = dict(ctx.rdefs.block_in[block.bid])
        for index in block.indices():
            instruction = instructions[index]
            for reg in uses_of(instruction):
                if ENTRY in state.get(reg, frozenset()):
                    every = state[reg] == frozenset({ENTRY})
                    path = "every path" if every else "some path"
                    diagnostics.append(_diag(
                        ctx, "use-before-def", "warning", index,
                        f"r{reg} is read before any definition on {path} "
                        f"(holds its entry value 0)",
                        reg=reg,
                    ))
            for reg in defs_of(instruction):
                state[reg] = frozenset({index})
    return diagnostics


def check_dead_write(ctx: VerifyContext) -> list[Diagnostic]:
    """A register definition no path reads before overwriting it."""
    diagnostics = []
    instructions = ctx.program.instructions
    for block in ctx.cfg.blocks:
        if block.bid not in ctx.cfg.reachable:
            continue
        live = set(ctx.liveness.live_out[block.bid])
        # Walk backwards so per-instruction liveness is one pass per block.
        for index in reversed(block.indices()):
            instruction = instructions[index]
            for reg in defs_of(instruction):
                if reg not in live:
                    diagnostics.append(_diag(
                        ctx, "dead-write", "warning", index,
                        f"r{reg} is written but never read before being "
                        f"overwritten (or the program ends)",
                        reg=reg,
                    ))
                live.discard(reg)
            for reg in uses_of(instruction):
                live.add(reg)
    diagnostics.reverse()
    return diagnostics


def check_unreachable(ctx: VerifyContext) -> list[Diagnostic]:
    """Basic blocks no path from the entry reaches."""
    diagnostics = []
    for block in ctx.cfg.blocks:
        if block.bid in ctx.cfg.reachable:
            continue
        diagnostics.append(_diag(
            ctx, "unreachable", "warning", block.start,
            f"instructions {block.start}..{block.end - 1} are unreachable",
            span=[block.start, block.end],
        ))
    return diagnostics


# --------------------------------------------------------------------- #
# Structural checks
# --------------------------------------------------------------------- #

def check_branch_targets(ctx: VerifyContext) -> list[Diagnostic]:
    """Branches past the end, fall-off-end paths, and degenerate branches."""
    diagnostics = []
    instructions = ctx.program.instructions
    n = len(instructions)
    for index, instruction in enumerate(instructions):
        if instruction.code not in op.BRANCH_CODES:
            continue
        target = instruction.target
        if not isinstance(target, int) or not 0 <= target < n:
            diagnostics.append(_diag(
                ctx, "branch-target", "error", index,
                f"branch target {target!r} is outside the program "
                f"(valid indices 0..{n - 1})",
                target=target,
            ))
            continue
        if target == index and instruction.code == op.BR:
            diagnostics.append(_diag(
                ctx, "branch-target", "error", index,
                "unconditional branch to itself never terminates",
                target=target,
            ))
        elif target == index + 1 \
                and instruction.code in op.COND_BRANCH_CODES:
            diagnostics.append(_diag(
                ctx, "branch-target", "warning", index,
                "conditional branch to its own fall-through has no effect",
                target=target,
            ))
    missing_halt = "execution can run past the program end (missing halt)"
    if not n:
        # No block to anchor it: execution starts past the end.
        diagnostics.append(_diag(ctx, "branch-target", "error", None,
                                 missing_halt))
    for block in ctx.cfg.blocks:
        if block.bid not in ctx.cfg.reachable or not block.falls_off_end:
            continue
        diagnostics.append(_diag(
            ctx, "branch-target", "error", block.end - 1, missing_halt,
        ))
    return diagnostics


def check_ranges(ctx: VerifyContext) -> list[Diagnostic]:
    """Encoding-width violations (errors) and masked rotate amounts."""
    diagnostics = []
    for index, instruction in enumerate(ctx.program.instructions):
        for field, message in encoding_violations(instruction):
            diagnostics.append(_diag(
                ctx, "range", "error", index, message, field=field,
            ))
        for field, message in rotate_amount_violations(instruction):
            diagnostics.append(_diag(
                ctx, "range", "warning", index, message, field=field,
            ))
    return diagnostics


def check_feature_gate(ctx: VerifyContext) -> list[Diagnostic]:
    """Extension instructions above the program's declared feature level."""
    if ctx.features is None:
        return []
    diagnostics = []
    for index, instruction in enumerate(ctx.program.instructions):
        needed = REQUIRED_FEATURES.get(instruction.code)
        if needed is not None and ctx.features < needed:
            diagnostics.append(_diag(
                ctx, "feature-gate", "error", index,
                f"{instruction.name} requires the {needed.name} feature "
                f"level; the program declares {ctx.features.name}",
                required=needed.name, declared=ctx.features.name,
            ))
    return diagnostics


def check_scratch_discipline(ctx: VerifyContext) -> list[Diagnostic]:
    """Assembler-scratch registers must stay local to their idiom.

    Two rules: scratch must never be consumed from program entry (an error
    -- the idiom that was supposed to define it is missing), and scratch
    must not be live across a loop back edge (a warning -- idiom
    expansions never span iterations, so a loop-carried scratch value
    means two idioms interleaved incorrectly).
    """
    diagnostics = []
    scratch = frozenset(SCRATCH_REGS)
    instructions = ctx.program.instructions
    for block in ctx.cfg.blocks:
        if block.bid not in ctx.cfg.reachable:
            continue
        state = dict(ctx.rdefs.block_in[block.bid])
        for index in block.indices():
            instruction = instructions[index]
            for reg in uses_of(instruction):
                if reg in scratch and ENTRY in state.get(reg, frozenset()):
                    diagnostics.append(_diag(
                        ctx, "scratch-discipline", "error", index,
                        f"scratch register r{reg} is consumed before any "
                        f"idiom defined it",
                        reg=reg,
                    ))
            for reg in defs_of(instruction):
                state[reg] = frozenset({index})
    for src, dst in ctx.cfg.back_edges():
        carried = sorted(scratch & ctx.liveness.live_in[dst])
        branch_index = ctx.cfg.blocks[src].end - 1
        for reg in carried:
            diagnostics.append(_diag(
                ctx, "scratch-discipline", "warning", branch_index,
                f"scratch register r{reg} is live across the loop back "
                f"edge to instruction {ctx.cfg.blocks[dst].start}",
                reg=reg, back_edge=[src, dst],
            ))
    return diagnostics


# --------------------------------------------------------------------- #
# SBox-cache coherence (the paper's SBOXSYNC rule)
# --------------------------------------------------------------------- #

def check_sbox_coherence(ctx: VerifyContext) -> list[Diagnostic]:
    """Stores into SBOX-backed tables need SBOXSYNC before the next read.

    The paper's coherence rule: the dedicated SBox caches snoop nothing,
    so after a store that may modify a table's backing memory the kernel
    must issue ``SBOXSYNC.t`` before the next non-aliased ``SBOX.t`` read
    -- on *every* CFG path.  Aliased SBOX reads (RC4's form) go through
    the load/store ordering machinery and are exempt.  "May modify" means
    the store's base register may point into table ``t`` according to the
    pointer-taint analysis seeded from SBOX base operands.
    """
    instructions = ctx.program.instructions
    taint_in, seeds = table_pointer_taint(ctx.program, ctx.cfg, ctx.rdefs)

    dirty_in: list[frozenset[int]] = [frozenset() for _ in ctx.cfg.blocks]

    def transfer(bid: int) -> frozenset[int]:
        dirty = set(dirty_in[bid])
        # Re-run the taint transfer locally so the dirty walk sees the
        # same per-point pointer sets the fixpoint computed.
        taint = dict(taint_in[bid])
        for index in ctx.cfg.blocks[bid].indices():
            instruction = instructions[index]
            if instruction.code in op.STORE_CODES \
                    and instruction.src2 is not None:
                dirty |= taint.get(instruction.src2, frozenset())
            elif instruction.code == op.SBOXSYNC:
                dirty.discard(instruction.table)
            taint_step(instruction, index, taint, seeds)
        return frozenset(dirty)

    def process(bid: int) -> list[int]:
        out = transfer(bid)
        changed = []
        for succ in ctx.cfg.blocks[bid].successors:
            if not out <= dirty_in[succ]:
                dirty_in[succ] = dirty_in[succ] | out
                changed.append(succ)
        return changed

    iterate(ctx.cfg.rpo, process)

    diagnostics = []
    for block in ctx.cfg.blocks:
        if block.bid not in ctx.cfg.reachable:
            continue
        dirty = set(dirty_in[block.bid])
        taint = dict(taint_in[block.bid])
        for index in block.indices():
            instruction = instructions[index]
            if instruction.code == op.SBOX and not instruction.aliased \
                    and instruction.table in dirty:
                diagnostics.append(_diag(
                    ctx, "sbox-coherence", "error", index,
                    f"SBOX reads table {instruction.table} after a store "
                    f"that may modify it, with no intervening "
                    f"sboxsync.{instruction.table} on some path",
                    table=instruction.table,
                ))
            if instruction.code in op.STORE_CODES \
                    and instruction.src2 is not None:
                dirty |= taint.get(instruction.src2, frozenset())
            elif instruction.code == op.SBOXSYNC:
                dirty.discard(instruction.table)
            taint_step(instruction, index, taint, seeds)
    return diagnostics


# --------------------------------------------------------------------- #
# Lattice-backed lints (value range, width, store forwarding)
# --------------------------------------------------------------------- #

#: Shift/rotate opcodes masked to 6 bits of amount by the machine.
_AMOUNT64_OPS = frozenset({op.SLL, op.SRL, op.SRA, op.ROLQ, op.RORQ})
#: 32-bit rotates: amounts are masked to 5 bits.
_AMOUNT32_OPS = frozenset({op.ROLL, op.RORL, op.ROLXL, op.RORXL})


def check_value_range(ctx: VerifyContext) -> list[Diagnostic]:
    """Register shift/rotate amounts that are provably out of range.

    The machine masks shift amounts to 6 bits (5 for 32-bit rotates), so
    an amount register whose value-range fact proves it *always* exceeds
    the mask means the code relies on silent wrap-around -- legal, but
    almost always a strength-reduction bug.  Literal amounts are already
    covered by the ``range`` checker; this one needs the value-range
    lattice to see through register dataflow.
    """
    analyses = ctx.passes()
    arrays = analyses.arrays
    entry = analyses.array_ranges
    step = make_range_step(arrays)
    diagnostics = []
    for block in analyses.cfg.blocks:
        state = list(entry[block.bid])
        for i in block.indices():
            code = arrays.code[i]
            if arrays.lit[i] is None \
                    and (code in _AMOUNT64_OPS or code in _AMOUNT32_OPS):
                mask = 63 if code in _AMOUNT64_OPS else 31
                amount = arrays.src2[i]
                fact = None if amount == 31 else state[amount]
                if fact is not None and fact[0] > mask:
                    diagnostics.append(_diag(
                        ctx, "value-range", "warning", i,
                        f"r{amount} always holds "
                        + (f"{fact[0]}" if fact[0] == fact[1]
                           else f"at least {fact[0]}")
                        + f", which exceeds the {mask}-bit-masked "
                        f"shift/rotate amount range",
                        reg=amount, lo=fact[0], hi=fact[1], mask=mask,
                    ))
            step(state, i)
    return diagnostics


def check_width_trunc(ctx: VerifyContext) -> list[Diagnostic]:
    """32-bit rotates whose operand provably carries more than 32 bits.

    ``ROLL``/``RORL`` (and their XBOX-fused forms) operate on the low 32
    bits only; feeding them a value the width lattice proves is wider
    than 32 bits silently discards the upper half.  Kernels that mean to
    truncate do it explicitly (ZAPNOT / ADDL), so a provably-wide rotate
    operand is flagged.  ``UNKNOWN_WIDTH`` operands are *not* flagged --
    the lattice merely lost track, which happens at every join of a
    64-bit producer with anything.
    """
    analyses = ctx.passes()
    arrays = analyses.arrays
    entry = analyses.array_widths
    step = make_width_step(arrays)
    diagnostics = []
    for block in analyses.cfg.blocks:
        state = list(entry[block.bid])
        for i in block.indices():
            if arrays.code[i] in _AMOUNT32_OPS:
                src = arrays.src1[i]
                w = 0 if src == 31 else state[src]
                if 32 < w < UNKNOWN_WIDTH:
                    diagnostics.append(_diag(
                        ctx, "width-trunc", "warning", i,
                        f"32-bit rotate reads r{src}, which provably "
                        f"carries up to {w} significant bits; the upper "
                        f"{w - 32} are silently discarded",
                        reg=src, width=w,
                    ))
            step(state, i)
    return diagnostics


#: Store-queue capacity of the smallest shipped machine (ALPHA21264):
#: a forwarding distance at or beyond this many younger stores means the
#: producing store can age out of the queue before the load issues.
STORE_FORWARD_DISTANCE = 32


def check_store_forward(ctx: VerifyContext) -> list[Diagnostic]:
    """Store-to-load pairs the store queue cannot forward cheaply.

    Built on the memory-interval alias pass: within a basic block, a load
    (or aliased SBOX read) whose proved byte interval overlaps an earlier
    store's is flagged when

    * the overlap is *partial* -- the load is not fully contained in the
      store, so the value must be stitched from the queue entry and the
      cache (real store queues stall or replay here), or
    * at least :data:`STORE_FORWARD_DISTANCE` younger stores separate the
      pair, so the entry can age out of the smallest shipped store queue
      before the load issues.

    Stores with unproved addresses between the pair veto the diagnostic
    (any of them could re-cover the load and forward cleanly).
    """
    analyses = ctx.passes()
    memory = analyses.memory
    instructions = ctx.program.instructions
    diagnostics = []
    for block in analyses.cfg.blocks:
        # (position, interval-or-None) of every store so far in the block.
        stores: list[tuple[int, tuple[int, int] | None]] = []
        for i in block.indices():
            instruction = instructions[i]
            if instruction.code in op.STORE_CODES:
                stores.append((i, memory.intervals[i]))
                continue
            is_aliased_sbox = (
                instruction.code == op.SBOX and instruction.aliased
            )
            if not (instruction.code in op.LOAD_CODES or is_aliased_sbox):
                continue
            load_iv = memory.intervals[i]
            if load_iv is None:
                continue
            for younger, (s, store_iv) in enumerate(reversed(stores)):
                if store_iv is None:
                    # An unproved store address: it could re-cover the
                    # load and forward cleanly, so stop reasoning here.
                    break
                if store_iv[1] <= load_iv[0] or load_iv[1] <= store_iv[0]:
                    continue
                contained = (store_iv[0] <= load_iv[0]
                             and load_iv[1] <= store_iv[1])
                if not contained:
                    diagnostics.append(_diag(
                        ctx, "store-forward", "warning", i,
                        f"load overlaps the store at instruction {s} "
                        f"only partially; the store queue cannot forward "
                        f"it and the load must wait for the cache",
                        store=s,
                        load_bytes=list(load_iv),
                        store_bytes=list(store_iv),
                    ))
                elif younger >= STORE_FORWARD_DISTANCE:
                    diagnostics.append(_diag(
                        ctx, "store-forward", "warning", i,
                        f"{younger} stores separate this load from its "
                        f"forwarding store at instruction {s}; the entry "
                        f"can age out of a {STORE_FORWARD_DISTANCE}-entry "
                        f"store queue before the load issues",
                        store=s, distance=younger,
                    ))
                break
    return diagnostics


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

Checker = Callable[[VerifyContext], list[Diagnostic]]

CHECKERS: dict[str, Checker] = {
    "use-before-def": check_use_before_def,
    "dead-write": check_dead_write,
    "unreachable": check_unreachable,
    "branch-target": check_branch_targets,
    "range": check_ranges,
    "feature-gate": check_feature_gate,
    "scratch-discipline": check_scratch_discipline,
    "sbox-coherence": check_sbox_coherence,
    "value-range": check_value_range,
    "width-trunc": check_width_trunc,
    "store-forward": check_store_forward,
}
