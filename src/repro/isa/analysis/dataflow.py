"""Register dataflow analyses over the analysis CFG.

Classic iterative bit-vector style analyses, specialized to RISC-A's 32
architectural registers:

* **Reaching definitions** (forward, may): which instruction indices may
  have produced each register's value at each program point.  The virtual
  definition :data:`ENTRY` stands for "the register's value at program
  entry" (architecturally zero), so a use whose reaching set contains
  :data:`ENTRY` is a potential use-before-def.
* **Liveness** (backward, may): which registers may still be read before
  being overwritten.  A definition that is not live immediately after the
  defining instruction is a dead write.

Writes to ``r31`` are architecturally discarded and reads of it are
constant zero, so ``r31`` is excluded from both defs and uses.

Both fixpoints run on :func:`repro.isa.analysis.solver.iterate`, the
shared FIFO worklist; :mod:`repro.isa.verify` exports ``ReachingDefs``,
``Liveness`` and ``ENTRY`` from here.
"""

from __future__ import annotations

from repro.isa.analysis.cfg import CFG
from repro.isa.analysis.solver import iterate
from repro.isa.instruction import Instruction
from repro.isa.registers import ZERO_REG

#: Virtual definition index: the register's value at program entry.
ENTRY = -1


def defs_of(instruction: Instruction) -> tuple[int, ...]:
    """Registers this instruction writes (excluding the zero register)."""
    if instruction.spec.writes_dest and instruction.dest is not None \
            and instruction.dest != ZERO_REG:
        return (instruction.dest,)
    return ()


def uses_of(instruction: Instruction) -> tuple[int, ...]:
    """Registers this instruction reads (excluding the zero register)."""
    return tuple(
        reg for reg in instruction.source_regs() if reg != ZERO_REG
    )


class ReachingDefs:
    """Forward may-analysis: sets of defining instruction indices.

    ``block_in[bid]`` maps each register to a frozenset of instruction
    indices (or :data:`ENTRY`) whose definitions may reach the top of the
    block.  :meth:`at` walks a block to recover the state just before one
    instruction.
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        instructions = cfg.program.instructions
        entry_state = {reg: frozenset({ENTRY}) for reg in range(ZERO_REG)}
        empty: dict[int, frozenset[int]] = {
            reg: frozenset() for reg in range(ZERO_REG)
        }
        self.block_in: list[dict[int, frozenset[int]]] = [
            dict(empty) for _ in cfg.blocks
        ]
        if cfg.blocks:
            self.block_in[0] = dict(entry_state)
        # Precompute each block's transfer function: last def per register
        # plus the set of registers it writes at all.
        self._last_def: list[dict[int, int]] = []
        for block in cfg.blocks:
            last: dict[int, int] = {}
            for index in block.indices():
                for reg in defs_of(instructions[index]):
                    last[reg] = index
            self._last_def.append(last)
        iterate(self.cfg.rpo, self._process)

    def _transfer(self, bid: int) -> dict[int, frozenset[int]]:
        out = dict(self.block_in[bid])
        for reg, index in self._last_def[bid].items():
            out[reg] = frozenset({index})
        return out

    def _process(self, bid: int) -> list[int]:
        out = self._transfer(bid)
        changed_succs = []
        for succ in self.cfg.blocks[bid].successors:
            succ_in = self.block_in[succ]
            changed = False
            for reg, defs in out.items():
                if not defs <= succ_in[reg]:
                    succ_in[reg] = succ_in[reg] | defs
                    changed = True
            if changed:
                changed_succs.append(succ)
        return changed_succs

    def at(self, index: int) -> dict[int, frozenset[int]]:
        """Reaching definitions just *before* instruction ``index``."""
        bid = self.cfg.block_of[index]
        state = dict(self.block_in[bid])
        instructions = self.cfg.program.instructions
        for i in range(self.cfg.blocks[bid].start, index):
            for reg in defs_of(instructions[i]):
                state[reg] = frozenset({i})
        return state

    def unique_dominating_def(self, index: int, reg: int) -> int | None:
        """The single def of ``reg`` reaching ``index``, when it dominates.

        Returns the defining instruction index iff exactly one real
        definition reaches the use *and* that definition dominates it
        (same block earlier, or a strictly dominating block).  This is the
        edge relation the critical-path oracle builds chains from: such a
        def provably executes before every dynamic execution of the use.
        """
        defs = self.at(index).get(reg, frozenset())
        if len(defs) != 1:
            return None
        (d,) = defs
        if d == ENTRY:
            return None
        use_bid = self.cfg.block_of[index]
        def_bid = self.cfg.block_of[d]
        if def_bid == use_bid:
            return d if d < index else None
        return d if self.cfg.dominates(def_bid, use_bid) else None


class Liveness:
    """Backward may-analysis: registers read before overwritten."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        instructions = cfg.program.instructions
        self.live_in: list[frozenset[int]] = [
            frozenset() for _ in cfg.blocks
        ]
        self.live_out: list[frozenset[int]] = [
            frozenset() for _ in cfg.blocks
        ]
        # Upward-exposed uses and kill sets per block.
        self._gen: list[frozenset[int]] = []
        self._kill: list[frozenset[int]] = []
        for block in cfg.blocks:
            gen: set[int] = set()
            kill: set[int] = set()
            for index in block.indices():
                instruction = instructions[index]
                for reg in uses_of(instruction):
                    if reg not in kill:
                        gen.add(reg)
                for reg in defs_of(instruction):
                    kill.add(reg)
            self._gen.append(frozenset(gen))
            self._kill.append(frozenset(kill))
        iterate(reversed(self.cfg.rpo), self._process)

    def _process(self, bid: int) -> list[int]:
        out: frozenset[int] = frozenset()
        for succ in self.cfg.blocks[bid].successors:
            out = out | self.live_in[succ]
        new_in = self._gen[bid] | (out - self._kill[bid])
        self.live_out[bid] = out
        if new_in != self.live_in[bid]:
            self.live_in[bid] = new_in
            return list(self.cfg.blocks[bid].predecessors)
        return []

    def live_after(self, index: int) -> frozenset[int]:
        """Registers live just *after* instruction ``index``."""
        bid = self.cfg.block_of[index]
        block = self.cfg.blocks[bid]
        live = set(self.live_out[bid])
        instructions = self.cfg.program.instructions
        for i in range(block.end - 1, index, -1):
            instruction = instructions[i]
            for reg in defs_of(instruction):
                live.discard(reg)
            for reg in uses_of(instruction):
                live.add(reg)
        return frozenset(live)
