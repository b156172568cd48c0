"""Static critical-path estimation: a sound lower bound on DF cycles.

The dataflow (DF) machine removes every structural constraint, so its
cycle count is bounded below by the longest true register-dependence
chain.  This module computes that chain height statically:

* **Edges** come from :meth:`ReachingDefs.unique_dominating_def`: a use is
  chained to its producer only when exactly one real definition reaches it
  *and* that definition dominates the use.  Such a producer executes
  before every dynamic instance of the consumer, so the chain corresponds
  to a real dependence chain in every terminating run.
* **Edge weights** are per-instruction minimum result latencies -- the
  smallest ``complete - max(operand ready)`` gap the timing model can
  produce for that instruction class under the given
  :class:`MachineConfig` (store-forwarding, SBox-cache hits, and perfect
  memory are all assumed in the minimum, so the weight never exceeds what
  the scheduler charges).
* **The bound** is the maximum chain height over instructions in the
  CFG's *guaranteed* blocks (blocks on every entry-to-exit path), which
  execute at least once in any terminating run.  Since the timing model's
  final cycle count is at least the completion time of every executed
  instruction, ``height <= simulated cycles`` always holds.

``tests/isa/test_critical_path.py`` asserts the inequality against the DF
machine for every shipped cipher.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.analysis.cfg import CFG
from repro.isa.analysis.dataflow import ENTRY, ReachingDefs, defs_of, uses_of
from repro.isa.program import Program
from repro.sim.config import DATAFLOW, MachineConfig


def min_latencies(config: MachineConfig) -> dict[str, int]:
    """Minimum result latency per instruction class under ``config``.

    Each entry is a provable lower bound on ``complete - earliest`` in
    :mod:`repro.sim.timing` for that class:

    * loads can complete via store-forwarding (address generation + 1),
      hence ``min(load_latency, 2)``;
    * SBOX reads can hit a dedicated cache after zero address-generation
      cycles or forward from a store, hence 1;
    * everything else completes a fixed latency after issue, and issue
      never precedes operand readiness.
    """
    return {
        "ialu": config.alu_latency,
        "rotator": config.rotator_latency,
        "load": min(config.load_latency, 2),
        "store": config.store_latency,
        "sbox": 1,
        "sync": 1,
        "mul32": config.mul32_latency,
        "mul64": config.mul64_latency,
        "mulmod": config.mulmod_latency,
    }


@dataclass
class CriticalPath:
    """The oracle's result: a lower bound plus the chain that realizes it."""

    #: Sound lower bound on the DF machine's simulated cycles.
    cycles: int
    #: Instruction indices of the realizing chain, producer first.
    chain: list[int] = field(default_factory=list)
    config: str = DATAFLOW.name

    def as_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "chain": list(self.chain),
            "config": self.config,
        }


def critical_path(
    program: Program,
    config: MachineConfig = DATAFLOW,
    cfg: CFG | None = None,
    rdefs: ReachingDefs | None = None,
) -> CriticalPath:
    """Compute the static dependence-height lower bound for ``program``."""
    if cfg is None:
        cfg = CFG(program)
    if rdefs is None:
        rdefs = ReachingDefs(cfg)
    latency = min_latencies(config)
    instructions = program.instructions
    default_latency = config.alu_latency  # timing model's fallback class

    heights: dict[int, int] = {}
    prev: dict[int, int | None] = {}

    # RPO guarantees a dominating def's block is processed before any block
    # it dominates, and the in-block walk keeps the reaching state (and the
    # unique-def test) incremental -- one pass per block.
    for bid in cfg.rpo:
        block = cfg.blocks[bid]
        state = dict(rdefs.block_in[bid])
        for index in block.indices():
            instruction = instructions[index]
            best = 0
            best_def: int | None = None
            for reg in uses_of(instruction):
                defs = state.get(reg, frozenset())
                if len(defs) != 1:
                    continue
                (d,) = defs
                if d == ENTRY:
                    continue
                def_bid = cfg.block_of[d]
                if def_bid != bid and not cfg.dominates(def_bid, bid):
                    continue
                h = heights.get(d, 0)
                if h > best:
                    best = h
                    best_def = d
            klass = instruction.spec.klass
            heights[index] = best + latency.get(klass, default_latency)
            prev[index] = best_def
            for reg in defs_of(instruction):
                state[reg] = frozenset({index})

    bound = 0
    leaf: int | None = None
    for bid in cfg.guaranteed:
        for index in cfg.blocks[bid].indices():
            h = heights.get(index, 0)
            if h > bound:
                bound = h
                leaf = index

    chain: list[int] = []
    node = leaf
    while node is not None:
        chain.append(node)
        node = prev.get(node)
    chain.reverse()
    return CriticalPath(cycles=bound, chain=chain, config=config.name)
