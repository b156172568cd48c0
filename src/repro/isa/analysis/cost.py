"""Static per-(program, config) cycle-cost bounds (`repro.isa.analysis.cost`).

:func:`estimate_cost` brackets the timing simulator's cycle count for one
functional run without ever invoking the timing model:

* **Lower bound** -- the maximum of the register-dependence-height oracle
  (:func:`repro.isa.verify.critical_path`, which generalizes to any
  config via its per-class minimum latencies) and the machine's
  throughput limits: ``N`` dynamic instructions cannot fetch, issue or
  retire faster than the configured widths allow, and each functional
  unit class cannot serve its dynamic demand faster than
  ``demand / units`` cycles.  Every term is a provable floor on
  ``SimStats.cycles``, so the max is too.
* **Upper bound** -- a block-granular Graham bound.  For each static
  basic block, a serial-safe per-execution cost ``u_b`` is computed:
  front-end depth + fetch slots + the block's internal weighted
  dependence height + issue slots + per-FU slot demand + retirement
  slots + a fixed slop.  Dynamic cost is ``sum(count_b * u_b)`` over the
  block execution counts observed in the trace, plus a full mispredict
  penalty for every conditional-branch execution and the *exact* extra
  memory-hierarchy cycles obtained by replaying the trace's addresses
  through a fresh cache model (:func:`replay_memory`).  The induction:
  if cycle ``C`` bounds every completion and retirement through dynamic
  block ``m``, then block ``m+1`` finds all operands, window slots and
  resources free after ``C``, and finishes within ``u_b`` more cycles.

Both bounds are asserted against simulated DF/4W/8W+ cycles for the full
cipher matrix in ``tests/isa/test_cost_model.py``, plus a hypothesis
property over generated programs; see ``docs/analysis.md`` for the full
soundness argument.

This module deliberately imports :mod:`repro.sim` (and the verifier)
only inside functions: the analysis package stays importable on its own
and free of import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.analysis.passes import ProgramAnalyses, analyses_for
from repro.isa.program import Program

if TYPE_CHECKING:  # function-level at runtime; see module docstring
    from repro.sim.config import MachineConfig
    from repro.sim.trace import Trace

#: Fixed per-block-execution slack in the upper bound: absorbs fetch-group
#: breaks on taken branches, retirement rounding, and the +-1 cycle
#: offsets between the model's fetch/dispatch/issue stages.
BLOCK_SLOP = 8

#: One-time pipeline-fill slack added to the upper bound.
STARTUP_SLOP = 8

#: Per-instruction overhead (fetch + issue + retire slots) charged when a
#: block is so large the window could recycle within it and the bound
#: falls back to fully serial execution.
SERIAL_OVERHEAD = 4


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def chain_weights(config: "MachineConfig") -> dict[str, int]:
    """Worst-case result latency per class for in-block dependence height.

    Each entry bounds ``complete - max(operand ready)`` for its class in
    the timing model, *excluding* memory-hierarchy extras (added exactly,
    once, from :func:`replay_memory`):

    * loads: one address-generation cycle plus the cache pipe
      (``load_latency - 1``), or address generation + 1 when forwarded;
    * stores: address resolution + ``store_latency``;
    * SBOX: the worst path is a dedicated-cache miss
      (``sbox_cache_latency + sbox_dcache_latency``); +1 slack covers the
      forwarded/aliased paths' address handling;
    * everything else: its configured fixed latency.
    """
    return {
        "ialu": config.alu_latency,
        "rotator": config.rotator_latency,
        "load": 1 + max(1, config.load_latency - 1),
        "store": config.store_latency + 1,
        "sbox": max(2, config.sbox_cache_latency
                    + config.sbox_dcache_latency) + 1,
        "sync": 1,
        "mul32": config.mul32_latency,
        "mul64": config.mul64_latency,
        "mulmod": config.mulmod_latency,
    }


# --------------------------------------------------------------------- #
# Memory replay
# --------------------------------------------------------------------- #

@dataclass
class MemoryReplay:
    """Exact memory-system facts from one program-order trace walk.

    The timing model's forwarding and cache decisions are pure functions
    of (program order, effective addresses, ``lsq_size``): the store
    queue is appended to and aged in program order, and every cache
    access happens in program order too.  Replaying the trace against a
    fresh queue + hierarchy therefore reproduces *exactly* which loads
    forward, which accesses consume d-cache ports, and how many extra
    hierarchy cycles (L1 misses, TLB walks) the simulation will charge --
    without computing any timing.
    """

    #: Dynamic trace length.
    instructions: int = 0
    #: Loads / aliased SBOX reads satisfied by store-forwarding.
    forwarded: int = 0
    #: Accesses charged to a d-cache port (non-forwarded loads, all
    #: stores, SBOX reads on the d-cache path).
    dport_uses: int = 0
    #: Accesses per dedicated SBox cache port.
    sport_uses: list[int] = field(default_factory=list)
    #: Total extra hierarchy cycles beyond the base access latency.
    extra_cycles: int = 0
    #: Dedicated SBox-cache misses.
    sbox_misses: int = 0
    #: Dynamic instruction count per timing class.
    class_counts: dict[str, int] = field(default_factory=dict)
    #: Total multiplier slot-cost demand (per-op cost summed).
    mul_cost: int = 0
    #: Dynamic conditional-branch executions.
    cond_branches: int = 0


def replay_memory(
    trace: "Trace",
    config: "MachineConfig",
    warm_ranges: "list[tuple[int, int]] | None" = None,
) -> MemoryReplay:
    """Walk the trace in program order through a fresh memory model.

    The hierarchy and SBox caches are a fresh
    :class:`repro.sim.timing.stages.MemoryOrderState`'s, and the walk
    follows the generic engine's access pattern exactly (same store-queue
    aging, same SBox-cache scheduling rule), so the counts are those the
    simulation will see.
    """
    from repro.sim.timing.stages import MemoryOrderState

    state = MemoryOrderState(config, warm_ranges)
    hierarchy = state.hierarchy
    sbox_array = state.sbox_array

    static = trace.static
    klass = static.klass
    mem_size = static.mem_size
    sbox_table = static.sbox_table
    sbox_aliased = static.sbox_aliased
    is_cond = static.is_cond_branch
    lsq_size = config.lsq_size

    out = MemoryReplay(sport_uses=[0] * (config.sbox_caches or 0))
    counts: dict[str, int] = {}
    # The timing model's byte-map store queue, without the data-ready
    # cycles: byte -> order of the latest store to it, live iff within
    # the last ``lsq_size`` stores.
    store_order: dict[int, int] = {}
    store_count = 0

    def live(addr: int, size: int) -> bool:
        """Whether a store still in the queue overlaps the access."""
        barrier = store_count - lsq_size
        return any(store_order.get(byte, barrier) > barrier
                   for byte in range(addr, addr + size))

    seq = trace.seq
    addrs = trace.addrs
    mul_costs = {
        "mul32": config.mul32_cost,
        "mul64": config.mul64_cost,
        "mulmod": config.mulmod_cost,
    }

    for j in range(len(seq)):
        s = seq[j]
        k = klass[s]
        counts[k] = counts.get(k, 0) + 1
        if is_cond[s]:
            out.cond_branches += 1
        cost = mul_costs.get(k)
        if cost is not None:
            out.mul_cost += cost
        if k == "load":
            addr = addrs[j]
            if live(addr, mem_size[s]):
                out.forwarded += 1
            else:
                out.dport_uses += 1
                if hierarchy is not None:
                    out.extra_cycles += hierarchy.access(addr)
        elif k == "store":
            addr = addrs[j]
            out.dport_uses += 1
            if hierarchy is not None:
                hierarchy.access(addr, is_store=True)
            store_count += 1
            for byte in range(addr, addr + mem_size[s]):
                store_order[byte] = store_count
        elif k == "sbox":
            addr = addrs[j]
            if sbox_aliased[s]:
                if live(addr, 4):
                    out.forwarded += 1
                else:
                    out.dport_uses += 1
                    if hierarchy is not None:
                        out.extra_cycles += hierarchy.access(addr)
            elif sbox_array is not None \
                    and sbox_table[s] < sbox_array.count:
                table = sbox_table[s]
                out.sport_uses[table % sbox_array.count] += 1
                if not sbox_array.access(table, addr):
                    out.sbox_misses += 1
            else:
                out.dport_uses += 1
                if hierarchy is not None:
                    out.extra_cycles += hierarchy.access(addr)
        elif k == "sync":
            if sbox_array is not None:
                sbox_array.sync(sbox_table[s])

    out.instructions = len(seq)
    out.class_counts = counts
    return out


# --------------------------------------------------------------------- #
# Per-block upper-bound cost
# --------------------------------------------------------------------- #

def _block_height(static, start: int, end: int,
                  weights: dict[str, int], default: int) -> int:
    """Weighted dependence height of one straight-line block.

    Register operands start at height 0 (block-entry values are covered
    by the induction hypothesis); loads and aliased SBOX reads are
    additionally ordered after the latest prior store in the block (the
    forwarding / address-ordering dependence), non-aliased SBOX reads
    after the latest SBOXSYNC.
    """
    klass = static.klass
    dest = static.dest
    srcs = static.srcs
    is_load = static.is_load
    is_store = static.is_store
    sbox_aliased = static.sbox_aliased
    is_sync = static.is_sync

    reg_height: dict[int, int] = {}
    last_store = 0
    last_sync = 0
    top = 0
    for i in range(start, end):
        ready = 0
        for r in srcs[i]:
            h = reg_height.get(r, 0)
            if h > ready:
                ready = h
        k = klass[i]
        if is_load[i] or (k == "sbox" and sbox_aliased[i]):
            if last_store > ready:
                ready = last_store
        elif k == "sbox":
            if last_sync > ready:
                ready = last_sync
        h = ready + weights.get(k, default)
        if is_store[i]:
            if h > last_store:
                last_store = h
        elif is_sync[i]:
            last_sync = h
        d = dest[i]
        if d >= 0:
            reg_height[d] = h
        if h > top:
            top = h
    return top


def _block_unit_cost(static, program, start: int, end: int,
                     config: "MachineConfig",
                     weights: dict[str, int]) -> int:
    """Serial-safe cycles one execution of block ``[start, end)`` adds."""
    n_b = end - start
    default = config.alu_latency
    window = config.window_size
    if window is not None and n_b >= window:
        # The window could recycle within the block: charge fully serial
        # execution (each instruction's full latency plus fixed per-slot
        # overhead) -- trivially at least the real cost.
        klass = static.klass
        total = sum(weights.get(klass[i], default) + SERIAL_OVERHEAD
                    for i in range(start, end))
        return total + BLOCK_SLOP

    cost = config.frontend_depth + BLOCK_SLOP
    if config.fetch_width is not None:
        cost += _ceil_div(n_b, config.fetch_width)
    cost += _block_height(static, start, end, weights, default)
    if config.issue_width is not None:
        cost += _ceil_div(n_b, config.issue_width)
    if config.retire_width is not None:
        cost += 2 * _ceil_div(n_b, config.retire_width)

    # Per-FU slot demand.
    klass = static.klass
    sbox_table = static.sbox_table
    sbox_aliased = static.sbox_aliased
    n_ialu = n_rot = n_dport = mul_cost = 0
    sport = [0] * (config.sbox_caches or 0)
    mul_costs = {
        "mul32": config.mul32_cost,
        "mul64": config.mul64_cost,
        "mulmod": config.mulmod_cost,
    }
    for i in range(start, end):
        k = klass[i]
        if k == "ialu":
            n_ialu += 1
        elif k == "rotator":
            n_rot += 1
        elif k in ("load", "store"):
            n_dport += 1
        elif k == "sbox":
            if (not sbox_aliased[i] and config.sbox_caches
                    and sbox_table[i] < config.sbox_caches):
                sport[sbox_table[i] % config.sbox_caches] += 1
            else:
                n_dport += 1
        else:
            c = mul_costs.get(k)
            if c is not None:
                mul_cost += c
    if config.num_ialu is not None and n_ialu:
        cost += _ceil_div(n_ialu, config.num_ialu)
    if config.num_rotator is not None and n_rot:
        cost += _ceil_div(n_rot, config.num_rotator)
    if config.mul_slots is not None and mul_cost:
        cost += _ceil_div(mul_cost, config.mul_slots)
    if config.dcache_ports is not None and n_dport:
        cost += _ceil_div(n_dport, config.dcache_ports)
    for uses in sport:
        if uses:
            cost += _ceil_div(uses, config.sbox_cache_ports)
    return cost


# --------------------------------------------------------------------- #
# The estimator
# --------------------------------------------------------------------- #

@dataclass
class CostReport:
    """Static cycle-cost bracket for one (program, config) pair."""

    name: str
    config: str
    #: Provable floor on the timing model's cycle count.
    lower_bound: int
    #: Provable ceiling on the timing model's cycle count.
    upper_bound: int
    #: Dynamic trace length the bounds were computed for.
    instructions: int
    #: Named contributions to each bound (for reports and the dashboard).
    components: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        """Upper/lower ratio -- the bracket's tightness (1.0 = exact)."""
        return self.upper_bound / self.lower_bound if self.lower_bound \
            else float("inf")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "config": self.config,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "instructions": self.instructions,
            "gap": round(self.gap, 4),
            "components": dict(self.components),
        }


def estimate_cost(
    program: Program,
    config: "MachineConfig",
    trace: "Trace",
    warm_ranges: "list[tuple[int, int]] | None" = None,
    analyses: "ProgramAnalyses | None" = None,
    name: str = "program",
) -> CostReport:
    """Bracket the simulated cycle count of ``trace`` under ``config``.

    ``trace`` is a *functional* trace (no timing attached); the bounds
    hold for ``simulate(trace, config, warm_ranges).cycles``.  Pass the
    same ``warm_ranges`` the simulation will use so the memory replay
    sees identical cache state.
    """
    from repro.isa.verify.critical_path import critical_path

    if analyses is None:
        analyses = analyses_for(program)
    static = trace.static
    replay = replay_memory(trace, config, warm_ranges)
    n = replay.instructions

    # ---- lower bound -------------------------------------------------- #
    cp = critical_path(
        program, config, cfg=analyses.cfg, rdefs=analyses.rdefs
    )
    lower_terms: dict[str, int] = {"critical_path": cp.cycles}
    if config.fetch_width is not None:
        lower_terms["fetch"] = _ceil_div(n, config.fetch_width)
    if config.issue_width is not None:
        lower_terms["issue"] = _ceil_div(n, config.issue_width)
    if config.retire_width is not None:
        lower_terms["retire"] = _ceil_div(n, config.retire_width)
    counts = replay.class_counts
    if config.num_ialu is not None and counts.get("ialu"):
        lower_terms["ialu"] = _ceil_div(counts["ialu"], config.num_ialu)
    if config.num_rotator is not None and counts.get("rotator"):
        lower_terms["rotator"] = _ceil_div(
            counts["rotator"], config.num_rotator
        )
    if config.mul_slots is not None and replay.mul_cost:
        lower_terms["mul"] = _ceil_div(replay.mul_cost, config.mul_slots)
    if config.dcache_ports is not None and replay.dport_uses:
        lower_terms["dcache_ports"] = _ceil_div(
            replay.dport_uses, config.dcache_ports
        )
    if replay.sport_uses:
        busiest = max(replay.sport_uses)
        if busiest:
            lower_terms["sbox_ports"] = _ceil_div(
                busiest, config.sbox_cache_ports
            )
    lower = max(lower_terms.values())

    # ---- upper bound --------------------------------------------------- #
    weights = chain_weights(config)
    exec_counts = [0] * len(program.instructions)
    for s in trace.seq:
        exec_counts[s] += 1

    block_cycles = 0
    for block in analyses.cfg.blocks:
        count = max(exec_counts[i] for i in block.indices())
        if not count:
            continue
        block_cycles += count * _block_unit_cost(
            static, program, block.start, block.end, config, weights
        )
    mispredict = 0
    if not config.perfect_branch_prediction:
        mispredict = replay.cond_branches * config.mispredict_penalty
    upper = (STARTUP_SLOP + config.frontend_depth + block_cycles
             + mispredict + replay.extra_cycles)

    return CostReport(
        name=name,
        config=config.name,
        lower_bound=lower,
        upper_bound=upper,
        instructions=n,
        components={
            "lower": lower_terms,
            "upper": {
                "startup": STARTUP_SLOP + config.frontend_depth,
                "blocks": block_cycles,
                "mispredict": mispredict,
                "memory_extra": replay.extra_cycles,
            },
            "replay": {
                "forwarded": replay.forwarded,
                "dport_uses": replay.dport_uses,
                "sbox_misses": replay.sbox_misses,
            },
        },
    )
