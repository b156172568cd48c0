"""The pass manager: cached per-program analysis results.

:class:`ProgramAnalyses` bundles every static analysis the repo knows how
to run over one finalized :class:`~repro.isa.program.Program` -- the CFG,
reaching definitions, liveness, the four register lattices, SBOX pointer
taint, natural loops and the memory-interval alias pass -- each computed
lazily and memoized on the instance.  :func:`analyses_for` adds a
digest-keyed bounded cache on top so repeated verification / timing /
cost-estimation / compiled codegen of the same program shares one set
of results.

The SBOX pointer-taint analysis lives here (moved from
:mod:`repro.isa.verify.checkers`, which imports it back) because the
coherence checker and the alias pass both consume it.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property

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
    M64,
    infer_constants,
    infer_ranges,
    infer_trailing_zeros,
    infer_widths,
    make_const_step,
    make_range_step,
    make_tz_step,
    make_width_step,
)
from repro.isa.analysis.solver import iterate
from repro.isa.instruction import Instruction
from repro.isa.program import Program

#: Opcodes whose result can carry a derived pointer (copies, address
#: arithmetic); loads and SBOX produce table *contents*, not pointers.
POINTER_OPS = frozenset(
    spec.code for spec in op.SPECS.values()
    if spec.fmt == "op" and spec.klass in ("ialu", "rotator")
) | {op.LDA}

#: Bytes a memory opcode touches (SBOX reads one 4-byte table entry).
_MEM_SIZES = {**op.MEM_SIZES, op.SBOX: 4}


class ProgramArrays:
    """A program decoded into the parallel arrays both backends read.

    One entry per instruction in each of ``code``, ``dest``, ``src1``,
    ``src2``, ``lit``, ``disp``, ``target`` and ``bsel``.  ``dest`` slot
    32 is the discard slot for ``r31`` and absent destinations; absent
    sources read as ``r31``.  :class:`repro.sim.machine.Machine` decodes
    through this class, so the lattice transfer functions in
    :mod:`repro.isa.analysis.lattices` see identical inputs whether they
    run here or inside the compiled backend's elision fixpoint.
    """

    def __init__(self, program: Program):
        if not program.finalized:
            raise ValueError("analysis requires a finalized program")
        instructions = program.instructions
        n = len(instructions)
        self.n = n
        self.code = [0] * n
        self.dest = [32] * n
        self.src1 = [31] * n
        self.src2 = [31] * n
        self.lit: "list[int | None]" = [None] * n
        self.disp = [0] * n
        self.target = [0] * n
        self.bsel = [0] * n
        for i, instr in enumerate(instructions):
            self.code[i] = instr.code
            if instr.dest is not None:
                self.dest[i] = 32 if instr.dest == 31 else instr.dest
            if instr.src1 is not None:
                self.src1[i] = instr.src1
            if instr.src2 is not None:
                self.src2[i] = instr.src2
            self.lit[i] = instr.lit
            self.disp[i] = instr.disp
            if isinstance(instr.target, int):
                self.target[i] = instr.target
            self.bsel[i] = instr.bsel


# --------------------------------------------------------------------- #
# SBOX pointer taint
# --------------------------------------------------------------------- #

def taint_step(
    instruction: Instruction,
    index: int,
    state: "dict[int, frozenset[int]]",
    seeds: "dict[int, set[int]]",
) -> None:
    """Apply one instruction's pointer-taint transfer to ``state`` in place."""
    for reg in defs_of(instruction):
        taint: frozenset[int] = frozenset(seeds.get(index, ()))
        if instruction.code in POINTER_OPS:
            for src in uses_of(instruction):
                taint = taint | state.get(src, frozenset())
        if taint:
            state[reg] = taint
        else:
            state.pop(reg, None)


def table_pointer_taint(
    program: Program, cfg: CFG, rdefs: ReachingDefs
) -> "tuple[list[dict[int, frozenset[int]]], dict[int, set[int]]]":
    """Forward may-point-to analysis: register -> set of SBOX table ids.

    Seeds: every definition that reaches the *table base* operand (src1)
    of an SBOX instruction for table ``t`` produces a table-``t`` pointer.
    Propagation: copies and address arithmetic (operate-format IALU /
    rotator ops plus LDA) carry the union of their sources' taints; loads
    and SBOX results are table contents, not pointers, and any other
    definition kills the taint.
    """
    instructions = program.instructions
    # Seed pass: def site -> tables whose base it materializes.
    seeds: dict[int, set[int]] = {}
    for block in cfg.blocks:
        if block.bid not in cfg.reachable:
            continue
        state = dict(rdefs.block_in[block.bid])
        for index in block.indices():
            instruction = instructions[index]
            if instruction.code == op.SBOX and instruction.src1 is not None:
                for d in state.get(instruction.src1, frozenset()):
                    if d != ENTRY:
                        seeds.setdefault(d, set()).add(instruction.table)
            for reg in defs_of(instruction):
                state[reg] = frozenset({index})

    block_in: list[dict[int, frozenset[int]]] = [{} for _ in cfg.blocks]

    def process(bid: int) -> list[int]:
        state = dict(block_in[bid])
        for index in cfg.blocks[bid].indices():
            taint_step(instructions[index], index, state, seeds)
        changed_succs = []
        for succ in cfg.blocks[bid].successors:
            succ_in = block_in[succ]
            changed = False
            for reg, taint in state.items():
                if not taint <= succ_in.get(reg, frozenset()):
                    succ_in[reg] = succ_in.get(reg, frozenset()) | taint
                    changed = True
            if changed:
                changed_succs.append(succ)
        return changed_succs

    iterate(cfg.rpo, process)
    return block_in, seeds


# --------------------------------------------------------------------- #
# Natural loops
# --------------------------------------------------------------------- #

class NaturalLoops:
    """Natural loops from the CFG's back edges.

    A back edge ``src -> header`` (header dominates src) induces the loop
    body: the header plus every block that reaches ``src`` without
    passing through the header.  Back edges sharing a header are merged
    into one loop.  ``depth[bid]`` counts the loop bodies containing the
    block (0 = not in any loop), which the timing IR surfaces as
    :attr:`TimingBlock.loop_depth`.
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        bodies: dict[int, set[int]] = {}
        for src, header in cfg.back_edges():
            body = bodies.setdefault(header, {header})
            stack = [src]
            while stack:
                bid = stack.pop()
                if bid in body:
                    continue
                body.add(bid)
                stack.extend(cfg.blocks[bid].predecessors)
        #: header block id -> frozen loop body (header included).
        self.loops: dict[int, frozenset[int]] = {
            header: frozenset(body) for header, body in bodies.items()
        }
        self.depth = [0] * len(cfg.blocks)
        for body in self.loops.values():
            for bid in body:
                self.depth[bid] += 1

    def depth_of_index(self, index: int) -> int:
        """Loop-nesting depth of the block holding instruction ``index``."""
        return self.depth[self.cfg.block_of[index]]


# --------------------------------------------------------------------- #
# Memory intervals (the alias pass)
# --------------------------------------------------------------------- #

class MemoryFacts:
    """Provable byte intervals for every memory access.

    Built on the constant lattice: a load/store whose base register holds
    a proved constant (the ``disp(r31)`` scratch idiom, or any LDA-built
    address) gets the exact half-open byte interval ``[addr, addr+size)``.
    An aliased SBOX read with a proved base gets its table row's 1 KiB
    region (exact entry when the selected index byte is also constant).
    ``None`` means the address could not be proved, so the access may
    alias anything.
    """

    def __init__(self, analyses: "ProgramAnalyses"):
        arrays = analyses.arrays
        program = analyses.program
        step = make_const_step(arrays)
        entry_consts = analyses.array_constants
        #: Per-instruction interval ``(start, end)`` or None; only memory
        #: opcodes (loads, stores, SBOX) ever get a non-None entry.
        self.intervals: "list[tuple[int, int] | None]" = [None] * arrays.n
        for block in analyses.cfg.blocks:
            state = list(entry_consts[block.bid])
            for i in block.indices():
                instr = program.instructions[i]
                size = _MEM_SIZES.get(instr.code)
                if size is not None and instr.code != op.SBOX:
                    base = arrays.src2[i]
                    bv = 0 if base == 31 else state[base]
                    if bv is not None:
                        addr = (bv + arrays.disp[i]) & M64
                        self.intervals[i] = (addr, addr + size)
                elif instr.code == op.SBOX and instr.aliased:
                    base = arrays.src1[i]
                    bv = None if base == 31 else state[base]
                    if bv is not None:
                        row = bv & ~0x3FF
                        idx_src = arrays.src2[i]
                        iv = 0 if idx_src == 31 else state[idx_src]
                        if iv is not None:
                            idx = (iv >> (arrays.bsel[i] * 8)) & 0xFF
                            addr = row | (idx << 2)
                            self.intervals[i] = (addr, addr + 4)
                        else:
                            self.intervals[i] = (row, row + 0x400)
                step(state, i)

    def disjoint(self, i: int, j: int) -> bool:
        """True when accesses ``i`` and ``j`` provably touch disjoint bytes."""
        a, b = self.intervals[i], self.intervals[j]
        if a is None or b is None:
            return False
        return a[1] <= b[0] or b[1] <= a[0]

    def may_alias(self, i: int, j: int) -> bool:
        return not self.disjoint(i, j)


# --------------------------------------------------------------------- #
# The pass manager
# --------------------------------------------------------------------- #

class ProgramAnalyses:
    """Lazily-computed, memoized analyses over one finalized program.

    Every attribute is a ``cached_property``: nothing runs until asked
    for, and nothing runs twice.  Share instances via
    :func:`analyses_for` so the verifier, the timing IR, the cost model
    and the compiled backend's codegen (in every recording mode) reuse
    one CFG and one set of fixpoints per program.
    """

    def __init__(self, program: Program):
        if not program.finalized:
            raise ValueError("analysis requires a finalized program")
        self.program = program

    @cached_property
    def arrays(self) -> ProgramArrays:
        return ProgramArrays(self.program)

    @cached_property
    def cfg(self) -> CFG:
        return CFG(self.program)

    @cached_property
    def rdefs(self) -> ReachingDefs:
        return ReachingDefs(self.cfg)

    @cached_property
    def liveness(self) -> Liveness:
        return Liveness(self.cfg)

    @cached_property
    def array_widths(self) -> "list[list[int]]":
        return infer_widths(self.cfg, make_width_step(self.arrays))

    @cached_property
    def array_trailing_zeros(self) -> "list[list[int]]":
        return infer_trailing_zeros(self.cfg, make_tz_step(self.arrays))

    @cached_property
    def array_constants(self) -> "list[list]":
        return infer_constants(self.cfg, make_const_step(self.arrays))

    @cached_property
    def array_ranges(self) -> "list[list]":
        return infer_ranges(self.cfg, make_range_step(self.arrays))

    @cached_property
    def taint(
        self,
    ) -> "tuple[list[dict[int, frozenset[int]]], dict[int, set[int]]]":
        return table_pointer_taint(self.program, self.cfg, self.rdefs)

    @cached_property
    def loops(self) -> NaturalLoops:
        return NaturalLoops(self.cfg)

    @cached_property
    def memory(self) -> MemoryFacts:
        return MemoryFacts(self)


#: Bounded cache: program digest -> ProgramAnalyses (LRU on access).
_CACHE_LIMIT = 64
_cache: "OrderedDict[str, ProgramAnalyses]" = OrderedDict()


def analyses_for(program: Program) -> ProgramAnalyses:
    """The shared :class:`ProgramAnalyses` for a finalized program.

    Keyed by :meth:`Program.digest` with a small LRU bound, so verifying,
    timing and cost-estimating the same kernel reuse one result set while
    sweeps over many programs cannot grow memory without bound.
    """
    key = program.digest()
    found = _cache.get(key)
    if found is not None:
        _cache.move_to_end(key)
        return found
    analyses = ProgramAnalyses(program)
    _cache[key] = analyses
    while len(_cache) > _CACHE_LIMIT:
        _cache.popitem(last=False)
    return analyses
