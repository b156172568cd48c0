"""Machine model configurations (the paper's Table 2 plus study variants).

``None`` for a resource count or structure size means *infinite*.  The
presets:

* ``BASE4W``   -- the section 3.2 baseline used for Figures 4 and 5: 4-wide,
  256-entry window, one multiply initiated per cycle at 7 cycles, realistic
  memory, real predictor, conservative load/store ordering.
* ``ALPHA21264`` -- the validation stand-in for the paper's real 600 MHz
  21264 workstation runs (DESIGN.md substitution #2): BASE4W with the
  21264's published 80-entry window, 32-entry load queue and 4-cycle loads.
* ``FOURW`` (4W), ``FOURW_PLUS`` (4W+), ``EIGHTW_PLUS`` (8W+) -- Table 2's
  evaluation machines with optimized multipliers, MULMOD hardware, and (for
  the + models) dedicated SBox caches and extra rotator units.
* ``DATAFLOW`` (DF) -- infinite everything, perfect prediction, perfect
  memory, perfect alias detection: the upper-bound machine.

For the Figure 5 bottleneck study, :func:`bottleneck_config` re-inserts a
single constraint into the dataflow machine, exactly following the paper's
methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MachineConfig:
    name: str

    # Front end.
    fetch_width: int | None = 4            # instructions fetched per cycle
    fetch_groups_per_cycle: int = 1        # taken-branch-terminated groups
    fetch_break_on_taken: bool = True
    frontend_depth: int = 2                # fetch -> earliest issue offset
    perfect_branch_prediction: bool = False
    mispredict_penalty: int = 8            # branch resolve -> refetch (min)
    predictor_entries: int = 2048

    # Window and issue.
    window_size: int | None = 256
    issue_width: int | None = 4
    retire_width: int | None = 8

    # Functional units (None = unlimited).
    num_ialu: int | None = 4
    num_rotator: int | None = 2
    alu_latency: int = 1
    rotator_latency: int = 1

    # Multipliers: a slot model -- a 64-bit multiply consumes ``mul64_cost``
    # slots in its issue cycle, etc.  BASE4W's single multiplier = 2 slots
    # with every multiply costing 2; Table 2's "1-64/2-32" = 2 slots with a
    # 32-bit multiply or MULMOD costing 1.
    mul_slots: int | None = 2
    mul64_cost: int = 2
    mul32_cost: int = 2
    mulmod_cost: int = 2
    mul64_latency: int = 7
    mul32_latency: int = 7
    mulmod_latency: int = 4

    # Memory system.
    perfect_memory: bool = False
    perfect_alias: bool = False
    dcache_ports: int | None = 2
    load_latency: int = 3                  # pipelined L1 hit (addr gen + access)
    store_latency: int = 1
    lsq_size: int = 64

    # SBOX execution.
    sbox_caches: int = 0                   # 0 -> SBOX uses a d-cache port
    sbox_cache_ports: int = 1              # accesses/cycle per SBox cache
    sbox_dcache_latency: int = 2           # SBOX via d-cache port (paper: 2)
    sbox_cache_latency: int = 1            # SBox-cache hit (paper: 1)

    # Cache hierarchy parameters (ignored under perfect_memory).
    l1_size: int = 32768
    l1_assoc: int = 2
    l1_block: int = 32
    l2_size: int = 524288
    l2_assoc: int = 4
    l2_hit_latency: int = 12
    memory_latency: int = 120
    tlb_entries: int = 32
    tlb_assoc: int = 8
    page_size: int = 8192
    tlb_miss_latency: int = 30

    # Simulator instrumentation / memory-bounding knobs.  These control the
    # timing model's bookkeeping, never the simulated cycle counts; see
    # docs/observability.md.
    #: Instructions between per-cycle resource-map prune passes.  Each pass
    #: trims entries below the safe horizon by walking the (monotone) dead
    #: cycle range, so pruning is amortized O(1) per cycle and the maps
    #: stay at O(prune_interval + window) entries -- the bound that keeps
    #: streaming simulation at constant memory.
    prune_interval: int = 8192
    #: Hard cap on rows captured by the ``schedule_range`` hook per run
    #: (``None`` = unbounded).  A truncated capture sets
    #: ``stats.extra["schedule_truncated"]``.
    max_schedule_entries: int | None = 100_000

    def with_(self, **changes) -> "MachineConfig":
        """Return a modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)


BASE4W = MachineConfig(name="base-4W")

ALPHA21264 = BASE4W.with_(
    name="alpha-21264",
    window_size=80,
    lsq_size=32,
    load_latency=4,        # 21264 L1 load-to-use is one cycle longer
    mispredict_penalty=7,
)

# Table 2 machines.
FOURW = BASE4W.with_(
    name="4W",
    window_size=128,
    mul32_cost=1,
    mulmod_cost=1,
    mul32_latency=4,       # early-out 32-bit multiply
    num_rotator=2,
)

FOURW_PLUS = FOURW.with_(
    name="4W+",
    sbox_caches=4,
    sbox_cache_ports=1,
    num_rotator=4,
)

EIGHTW_PLUS = FOURW_PLUS.with_(
    name="8W+",
    fetch_width=8,
    fetch_groups_per_cycle=2,
    window_size=256,
    issue_width=8,
    retire_width=16,
    num_ialu=8,
    num_rotator=8,
    mul_slots=4,
    dcache_ports=4,
    sbox_cache_ports=2,
)

DATAFLOW = MachineConfig(
    name="DF",
    fetch_width=None,
    fetch_break_on_taken=False,
    frontend_depth=0,
    perfect_branch_prediction=True,
    window_size=None,
    issue_width=None,
    retire_width=None,
    num_ialu=None,
    num_rotator=None,
    mul_slots=None,
    mul32_cost=1,
    mulmod_cost=1,
    mul32_latency=4,
    perfect_memory=True,
    perfect_alias=True,
    dcache_ports=None,
    sbox_caches=4,
    sbox_cache_ports=10**9,
    lsq_size=10**9,
)

#: Dataflow machine for *original* (baseline-ISA) code: same as DATAFLOW but
#: with the baseline's 7-cycle multiplies, so Figure 4's DF column reflects
#: the code the baseline machine runs.
DATAFLOW_BASEISA = DATAFLOW.with_(
    name="DF-base",
    mul32_latency=7,
    mul32_cost=2,
)

BOTTLENECKS = ("alias", "branch", "issue", "mem", "res", "window", "all")


def bottleneck_config(which: str, baseline: MachineConfig = BASE4W) -> MachineConfig:
    """Figure 5 methodology: one bottleneck re-inserted into the DF machine.

    ``which`` is one of :data:`BOTTLENECKS`; ``'all'`` returns the full
    baseline machine.  The dataflow base uses the baseline ISA's multiplier
    latencies so the comparison isolates the named constraint.
    """
    df = DATAFLOW_BASEISA.with_(
        name=f"DF+{which}",
        mul32_latency=baseline.mul32_latency,
        mul32_cost=1,  # cost irrelevant while slots are infinite
    )
    if which == "alias":
        return df.with_(perfect_alias=False, lsq_size=baseline.lsq_size)
    if which == "branch":
        return df.with_(
            perfect_branch_prediction=False,
            mispredict_penalty=baseline.mispredict_penalty,
            frontend_depth=baseline.frontend_depth,
        )
    if which == "issue":
        return df.with_(
            issue_width=baseline.issue_width,
            retire_width=baseline.retire_width,
            fetch_width=baseline.fetch_width,
        )
    if which == "mem":
        return df.with_(perfect_memory=False)
    if which == "res":
        return df.with_(
            num_ialu=baseline.num_ialu,
            num_rotator=baseline.num_rotator,
            mul_slots=baseline.mul_slots,
            mul64_cost=baseline.mul64_cost,
            mul32_cost=baseline.mul32_cost,
            mulmod_cost=baseline.mulmod_cost,
            dcache_ports=baseline.dcache_ports,
            sbox_caches=0,
        )
    if which == "window":
        return df.with_(window_size=baseline.window_size)
    if which == "all":
        return baseline
    raise ValueError(f"unknown bottleneck {which!r}; pick from {BOTTLENECKS}")
