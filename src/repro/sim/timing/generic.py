"""The ``"generic"`` timing engine: the per-entry scheduler loop.

One flat loop over trace entries handles every machine configuration and
every trace shape (including synthetic chunks with explicit ``taken``
flags).  It is not written here: :attr:`GenericPipeline._advance` is the
loop the stage emitters of :mod:`repro.sim.timing.scheduler` generate
with nothing known, once per process.  The ``"specialized"`` engine
subclasses the pipeline and runs the same loop until it tiers up and for
every window its blocks cannot take.

What can be decided per static instruction is decided once, at
construction, in an op table (:func:`op_table`): each instruction's kind,
functional-unit pool (already elided where it can never bind), slot cost,
contention category and latency.  Both the loop and the blocks read
these only from the table.

A pipeline reads some config fields only through its op table, so what
it observes of its config is the table plus the remaining fields
(:func:`timing_view`); configs with equal views over a program time it
alike, and the runner builds one pipeline for them (:func:`group_by_view`).
"""

from __future__ import annotations

from dataclasses import fields

from repro.sim.config import MachineConfig
from repro.sim.timing.scheduler import per_entry_loop
from repro.sim.timing.stages import (
    _C_FU_IALU,
    _C_FU_MEM,
    _C_FU_MUL,
    _C_FU_ROT,
    _C_FU_SBOX,
    _C_ISSUE,
    _K_EXEC,
    _K_LOAD,
    _K_SBOX,
    _K_SBOX_CACHE,
    _K_STORE,
    _K_SYNC,
    _UNLIMITED,
    PipelineBase,
)
from repro.sim.trace import StaticInfo


#: ``MachineConfig`` fields the loop reads only through the op table.
OP_TABLE_FIELDS = frozenset({
    "num_ialu", "num_rotator", "alu_latency", "rotator_latency",
    "mul_slots", "mul64_cost", "mul32_cost", "mulmod_cost",
    "mul64_latency", "mul32_latency", "mulmod_latency",
    "dcache_ports", "load_latency", "store_latency",
    "sbox_cache_ports", "sbox_cache_latency",
})
#: Fields nothing reads unless the op table has an SBox-cache access: the
#: SBox-cache state, and the miss latency the d-cache SBOX rows carry.
SBOX_CACHE_FIELDS = ("sbox_caches", "sbox_dcache_latency")
#: Every other field but ``name``.  A field not named above is observed,
#: so a new field can only cost sharing, never correctness.
_OBSERVED_FIELDS = tuple(
    f.name for f in fields(MachineConfig)
    if f.name != "name" and f.name not in OP_TABLE_FIELDS
    and f.name not in SBOX_CACHE_FIELDS
)


def op_table(config: MachineConfig, static: StaticInfo) -> list[tuple]:
    """``(kind, pool, limit, cost, category, latency)`` per static
    instruction.

    ``pool`` names the unit pool's per-cycle map -- ``"ialu"``, ``"rot"``,
    ``"mul"``, ``"dport"`` or ``"sbox<i>"`` -- which each pipeline binds to
    its own.  It is ``None`` for a pool that can never bind: an unlimited
    one, or -- with tracked issue -- a cost-1 pool at least as wide as
    issue (per-cycle pool use <= issue use, which the issue check keeps
    below the pool limit), so its checks and bookkeeping are skipped.  The
    latency of a memory access is its hit latency; the scheduler adds the
    hierarchy's extra cycles, or replaces it when the access forwards.
    """
    issue_width = config.issue_width
    track_issue = issue_width is not None

    def pool(name, size, cost, category, width_bound=True):
        if size is None or (width_bound and track_issue
                            and size >= issue_width):
            return None, _UNLIMITED, cost, category
        return name, size, cost, category

    # Each distinct op is one tuple shared by every instruction that has
    # it: the table costs a pointer per instruction, and a pipeline binds
    # each distinct op once.
    dport = pool("dport", config.dcache_ports, 1, _C_FU_MEM)
    no_unit = (None, _UNLIMITED, 1, _C_ISSUE)
    by_class = {
        "ialu": (_K_EXEC, *pool("ialu", config.num_ialu, 1, _C_FU_IALU),
                 config.alu_latency),
        "rotator": (_K_EXEC, *pool("rot", config.num_rotator, 1, _C_FU_ROT),
                    config.rotator_latency),
        "load": (_K_LOAD, *dport, config.load_latency - 1),
        "store": (_K_STORE, *dport, config.store_latency),
        "sync": (_K_SYNC, *no_unit, 1),
    }
    for klass, cost, latency in (
            ("mul32", config.mul32_cost, config.mul32_latency),
            ("mul64", config.mul64_cost, config.mul64_latency),
            ("mulmod", config.mulmod_cost, config.mulmod_latency)):
        # The multiplier pool is shared by ops of different costs, so it
        # is never elided.
        by_class[klass] = (_K_EXEC, *pool("mul", config.mul_slots, cost,
                                          _C_FU_MUL, width_bound=False),
                           latency)
    other = (_K_EXEC, *no_unit, config.alu_latency)
    sbox_dcache = (_K_SBOX, *dport, config.sbox_dcache_latency)
    sbox_caches = config.sbox_caches
    sbox_cached = [
        (_K_SBOX_CACHE, *pool(f"sbox{index}", config.sbox_cache_ports, 1,
                              _C_FU_SBOX), config.sbox_cache_latency)
        for index in range(sbox_caches)
    ]
    ops = []
    for s, klass in enumerate(static.klass):
        if klass != "sbox":
            ops.append(by_class.get(klass, other))
            continue
        table = static.sbox_table[s]
        if sbox_caches and not static.sbox_aliased[s] and table < sbox_caches:
            # The table designator schedules this access onto a dedicated
            # SBox cache; ids beyond the cache count (e.g. 3DES's eight
            # logical tables) deliberately stay on the d-cache path so a
            # single-tag sector cache is not thrashed between tables.
            ops.append(sbox_cached[table % sbox_caches])
        else:
            ops.append(sbox_dcache)
    return ops


def _observed(config: MachineConfig) -> tuple:
    return tuple(getattr(config, name) for name in _OBSERVED_FIELDS)


def timing_view(config: MachineConfig, static: StaticInfo,
                ops: "list[tuple] | None" = None) -> tuple:
    """What a pipeline over ``static``'s program can observe of ``config``.

    ``(fields, op table)``: the program's :func:`op_table` -- ``ops`` when
    the caller has it -- and the value of every field the loop reads
    outside it.  That is every field but ``name`` and
    :data:`OP_TABLE_FIELDS`, and also but :data:`SBOX_CACHE_FIELDS` when
    the table has no SBox-cache access.  Two configs with equal views
    build identical pipelines over the program, so every trace of it
    times the same on both; only ``config_name`` and whether
    ``extra["sbox_cache_hits"]`` is reported can differ
    (:func:`~repro.sim.timing.stages.shared_stats`).
    """
    ops = tuple(op_table(config, static) if ops is None else ops)
    observed = _observed(config)
    if any(op[0] == _K_SBOX_CACHE for op in ops):
        observed += tuple(getattr(config, name) for name in SBOX_CACHE_FIELDS)
    return observed, ops


def group_by_view(configs, static: StaticInfo) -> list[tuple]:
    """Which pipeline serves each config over ``static``'s program.

    One ``(leader, ops)`` per config: ``leader`` is the index of the first
    config whose :func:`timing_view` equals this one's, itself for a
    config that needs its own pipeline; ``ops`` is the op table computed
    for a leader, to build its pipeline with, else ``None``.  Op tables
    are computed only for configs whose fields outside the table agree
    with another config's, and nothing is kept between calls.
    """
    plan = [(index, None) for index in range(len(configs))]
    rivals: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        rivals.setdefault(_observed(config), []).append(index)
    for indices in rivals.values():
        if len(indices) < 2:
            continue
        leaders: dict[tuple, int] = {}
        for index in indices:
            ops = op_table(configs[index], static)
            leader = leaders.setdefault(
                timing_view(configs[index], static, ops), index)
            plan[index] = (leader, ops if leader == index else None)
    return plan


class GenericPipeline(PipelineBase):
    """The per-entry loop over the stage components."""

    engine_name = "generic"

    def __init__(self, config, static, program, warm_ranges=None,
                 schedule_range=None, ops=None):
        super().__init__(config, static, program, warm_ranges=warm_ranges,
                         schedule_range=schedule_range)
        # The op table with each pool name bound to this pipeline's map,
        # each distinct op once.
        scheduler = self.scheduler
        pools = {None: None, "ialu": scheduler.ialu_used,
                 "rot": scheduler.rot_used, "mul": scheduler.mul_used,
                 "dport": scheduler.dport_used}
        for index, used in enumerate(scheduler.sport_used):
            pools[f"sbox{index}"] = used
        if ops is None:
            ops = op_table(config, static)
        bound = {op: (op[0], pools[op[1]], *op[2:]) for op in set(ops)}
        self._ops = [bound[op] for op in ops]

    #: The per-entry loop, generated once per process from the stage
    #: emitters with nothing known (:mod:`repro.sim.timing.scheduler`).
    _advance = per_entry_loop()

    def _prune_maps(self, horizon: int, store_count: int) -> None:
        """Fold finalized cycles and drop dead map entries.

        Stats are invariant to *when* pruning happens.  Mutates the
        resource dicts in place, so callers' pinned references (the
        specialized engine's generated code calls this too) stay valid.
        """
        scheduler = self.scheduler
        if (self._attribute
                and horizon > self.attribution.flushed_until):
            # Slot attribution below the horizon is final (no later
            # instruction can issue there); the flush also trims
            # ``issue_used``, which is never populated without it.
            self.attribution.flush(horizon, scheduler.issue_used,
                                   self._issue_width)
        trim_mark = scheduler.trim_mark
        if horizon > trim_mark:
            span = horizon - trim_mark
            for counters in (scheduler.ialu_used,
                             scheduler.rot_used, scheduler.mul_used,
                             scheduler.dport_used, *scheduler.sport_used):
                if not counters:
                    continue
                if len(counters) * 4 > span:
                    # Dense map: walk the dead cycle range (cycles are
                    # monotone, so each is visited once ever).
                    pop = counters.pop
                    for cycle in range(trim_mark, horizon):
                        pop(cycle, None)
                else:
                    # Sparse map: scanning its keys is cheaper than
                    # walking the range.
                    for cycle in [c for c in counters if c < horizon]:
                        del counters[cycle]
            scheduler.trim_mark = horizon
        # Drop byte entries aged out of the queue once the map has grown
        # well past its live size.
        store_map = self.memorder.store_map
        lsq_size = self.config.lsq_size
        if len(store_map) > 16 * lsq_size:
            cutoff = store_count - lsq_size
            for address in [a for a, entry in store_map.items()
                            if entry[0] <= cutoff]:
                del store_map[address]


class GenericEngine:
    """Engine wrapper: builds :class:`GenericPipeline` instances."""

    name = "generic"

    def make_pipeline(
        self,
        config,
        static,
        program,
        *,
        warm_ranges=None,
        schedule_range=None,
        ops=None,
    ) -> GenericPipeline:
        return GenericPipeline(
            config, static, program,
            warm_ranges=warm_ranges, schedule_range=schedule_range, ops=ops,
        )
