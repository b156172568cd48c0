"""Control-flow graph construction for finalized RISC-A programs.

Basic blocks are maximal straight-line instruction runs; leaders are the
entry, every branch target, and every instruction after a branch or a
HALT.  This is the repo's one block decomposition: the lattice
fixpoints, the alias pass, the cost model, compiled codegen and the
timing IR all read these blocks.  The graph carries:

* successor / predecessor edges (fall-through, branch-taken, both for
  conditional branches; HALT ends a path),
* reverse postorder (dominators of a block always precede it in RPO),
* immediate dominators via the Cooper/Harvey/Kennedy iterative algorithm,
* the *guaranteed* block set -- blocks every terminating execution must
  pass through (dominators of every exit block) -- which the critical-path
  oracle uses to keep its lower bound sound.

Index ``len(program)`` is modeled as a virtual "off-the-end" exit so a
branch past the last instruction (legal to :meth:`Program.finalize`, fatal
to the functional machine) is visible to the checkers.

Home of the shared analysis framework; :mod:`repro.isa.verify` exports
``CFG`` and ``BasicBlock`` from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import opcodes as op
from repro.isa.program import Program

#: Opcodes after which a new block starts.
_ENDS_BLOCK = op.BRANCH_CODES | {op.HALT}


@dataclass
class BasicBlock:
    """A maximal straight-line run ``[start, end)`` of instructions."""

    bid: int
    start: int
    end: int
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)
    #: True when the block ends a path by HALT.
    halts: bool = False
    #: True when falling out of this block runs past the program end.
    falls_off_end: bool = False

    def __len__(self) -> int:
        return self.end - self.start

    def indices(self) -> range:
        return range(self.start, self.end)


class CFG:
    """Basic blocks plus derived orderings and dominator information."""

    def __init__(self, program: Program):
        if not program.finalized:
            raise ValueError("verifier requires a finalized program")
        self.program = program
        self.blocks: list[BasicBlock] = []
        #: Block id containing instruction index i.
        self.block_of: list[int] = []
        self._build()
        self.rpo = self._reverse_postorder()
        self.reachable = frozenset(self.rpo)
        self.idom = self._dominators()
        self.guaranteed = self._guaranteed_blocks()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _build(self) -> None:
        instructions = self.program.instructions
        n = len(instructions)
        leaders = {0} if n else set()
        for index, instruction in enumerate(instructions):
            if instruction.code in op.BRANCH_CODES:
                target = instruction.target
                if isinstance(target, int) and 0 <= target < n:
                    leaders.add(target)
            if instruction.code in _ENDS_BLOCK and index + 1 < n:
                leaders.add(index + 1)
        ordered = sorted(leaders)
        starts = {start: bid for bid, start in enumerate(ordered)}
        for bid, start in enumerate(ordered):
            end = ordered[bid + 1] if bid + 1 < len(ordered) else n
            self.blocks.append(BasicBlock(bid=bid, start=start, end=end))
        self.block_of = [0] * n
        for block in self.blocks:
            for index in block.indices():
                self.block_of[index] = block.bid

        for block in self.blocks:
            last = instructions[block.end - 1]
            if last.code == op.HALT:
                block.halts = True
                continue
            if last.code in op.BRANCH_CODES:
                target = last.target
                if isinstance(target, int) and 0 <= target < n:
                    block.successors.append(starts[target])
                elif isinstance(target, int) and target == n:
                    block.falls_off_end = True
                if last.code in op.COND_BRANCH_CODES:
                    if block.end < n:
                        block.successors.append(starts[block.end])
                    else:
                        block.falls_off_end = True
            else:
                if block.end < n:
                    block.successors.append(starts[block.end])
                else:
                    block.falls_off_end = True
        for block in self.blocks:
            # Deduplicate (a conditional branch to the fall-through).
            block.successors = list(dict.fromkeys(block.successors))
        for block in self.blocks:
            for succ in block.successors:
                self.blocks[succ].predecessors.append(block.bid)

    def _reverse_postorder(self) -> list[int]:
        if not self.blocks:
            return []
        seen = [False] * len(self.blocks)
        order: list[int] = []
        # Iterative DFS with an explicit stack of (block, successor-iter).
        stack = [(0, iter(self.blocks[0].successors))]
        seen[0] = True
        while stack:
            bid, succs = stack[-1]
            advanced = False
            for succ in succs:
                if not seen[succ]:
                    seen[succ] = True
                    stack.append((succ, iter(self.blocks[succ].successors)))
                    advanced = True
                    break
            if not advanced:
                order.append(bid)
                stack.pop()
        order.reverse()
        return order

    # ------------------------------------------------------------------ #
    # Dominators
    # ------------------------------------------------------------------ #

    def _dominators(self) -> list[int | None]:
        """Immediate dominators (Cooper/Harvey/Kennedy); unreachable -> None."""
        idom: list[int | None] = [None] * len(self.blocks)
        if not self.blocks:
            return idom
        rpo_index = {bid: i for i, bid in enumerate(self.rpo)}
        idom[0] = 0
        changed = True
        while changed:
            changed = False
            for bid in self.rpo:
                if bid == 0:
                    continue
                new_idom: int | None = None
                for pred in self.blocks[bid].predecessors:
                    if idom[pred] is None and pred != 0:
                        continue
                    if pred not in rpo_index:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(
                            pred, new_idom, idom, rpo_index
                        )
                if new_idom is not None and idom[bid] != new_idom:
                    idom[bid] = new_idom
                    changed = True
        return idom

    @staticmethod
    def _intersect(a: int, b: int, idom, rpo_index) -> int:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]
        return a

    def dominates(self, a: int, b: int) -> bool:
        """True when block ``a`` dominates block ``b`` (reflexive)."""
        if a == b:
            return True
        node: int | None = b
        while node is not None and node != 0:
            node = self.idom[node]
            if node == a:
                return True
        return a == 0 and b in self.reachable

    def _guaranteed_blocks(self) -> frozenset[int]:
        """Blocks on every entry-to-exit path (dominators of all exits).

        Exits are reachable HALT blocks and off-the-end blocks.  With no
        exit at all (a provably non-terminating program) only the entry
        block is guaranteed.
        """
        exits = [
            block.bid for block in self.blocks
            if block.bid in self.reachable
            and (block.halts or block.falls_off_end)
        ]
        if not self.blocks:
            return frozenset()
        if not exits:
            return frozenset({0})
        guaranteed: set[int] | None = None
        for exit_bid in exits:
            doms = set()
            node: int | None = exit_bid
            while True:
                doms.add(node)
                if node == 0:
                    break
                node = self.idom[node]
                if node is None:
                    break
            guaranteed = doms if guaranteed is None else guaranteed & doms
        return frozenset(guaranteed or {0})

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def back_edges(self) -> list[tuple[int, int]]:
        """CFG edges ``(src, dst)`` where ``dst`` dominates ``src``."""
        edges = []
        for block in self.blocks:
            if block.bid not in self.reachable:
                continue
            for succ in block.successors:
                if self.dominates(succ, block.bid):
                    edges.append((block.bid, succ))
        return edges
