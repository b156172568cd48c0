"""The ``"generic"`` timing engine: the per-entry scheduler loop.

This is the reference implementation of the timing model -- a single flat
loop over trace entries.  It handles every machine configuration and
every trace shape (including synthetic chunks with explicit ``taken``
flags), and its output defines correctness for every other engine.  The
``"specialized"`` engine subclasses it: it runs this loop until it tiers
up and for every window its generated code cannot take, and must match it
bit for bit (``tests/sim/test_timing_engines.py`` is the oracle).

What can be decided per static instruction is decided once, at
construction, in an op table (:func:`op_table`): each instruction's kind,
functional-unit pool (already elided where it can never bind), slot cost,
contention category and latency.  Per entry the loop resolves a memory
access's unit and latency (store forward, d-cache, SBox cache) before
issue, then every kind shares one issue block whose uncontended case --
one issue-slot probe and one unit probe -- runs inline.

A pipeline reads some config fields only through its op table, so what
it observes of its config is the table plus the remaining fields
(:func:`timing_view`); configs with equal views over a program time it
alike, and the runner builds one pipeline for them (:func:`group_by_view`).

The loop reads and writes the stage components' state directly (see
:mod:`repro.sim.timing.stages`): a store-queue probe costs one byte-map
lookup per accessed byte and a retirement one frontier comparison, so the
per-entry cost does not grow with the load/store queue depth.
"""

from __future__ import annotations

from dataclasses import fields

from repro.sim.config import MachineConfig
from repro.sim.timing.stages import (
    _C_ALIAS,
    _C_FETCH,
    _C_FRONTEND,
    _C_FU_IALU,
    _C_FU_MEM,
    _C_FU_MUL,
    _C_FU_ROT,
    _C_FU_SBOX,
    _C_ISSUE,
    _C_MISPREDICT,
    _C_OPERAND,
    _C_WINDOW,
    _UNLIMITED,
    PipelineBase,
)
from repro.sim.trace import StaticInfo

# Op-table kinds.  Every class whose issue needs only its operands and a
# unit (IALU, rotator, the multiplies, anything unclassified) is _K_EXEC;
# the others carry memory-order or SBox-cache work.  Kinds from _K_STORE
# on also have work after issue.
(_K_EXEC, _K_LOAD, _K_SBOX, _K_SBOX_CACHE, _K_STORE, _K_SYNC) = range(6)


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
    below the pool limit), so its checks and bookkeeping are skipped, the
    same elision as the generated code.  The latency of a memory access is
    its hit latency; the loop adds the hierarchy's extra cycles, or
    replaces it when the access forwards.
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
    """Per-entry interpreter over the stage components."""

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

    def _advance(
        self,
        seq,
        addrs,
        taken_arr,
        base_pos: int,
        lo: int,
        hi: int,
        next_s,
    ) -> None:
        """Process trace entries ``seq[lo:hi]``.

        ``base_pos`` is the global trace position of ``seq[0]``.
        ``taken_arr`` carries explicit branch outcomes when present;
        otherwise outcomes are inferred from the following entry --
        ``seq[j + 1]`` in-bounds, else ``next_s`` (the first entry of the
        next chunk), else taken (``next_s is None`` = end of trace).

        The body is one flat loop over the entries with all carried state
        rebound to locals on entry and scalar state (the stat counters
        included) written back on exit -- the dict/list state is mutated
        in place.
        """
        config = self.config
        static = self.static
        stats = self.stats
        frontend = self.frontend
        scheduler = self.scheduler
        memorder = self.memorder
        attribution = self.attribution

        ops = self._ops
        dest = static.dest
        srcs = static.srcs
        addr_srcs = static.addr_srcs
        is_branch = static.is_branch
        is_cond = static.is_cond_branch
        mem_size = static.mem_size
        sbox_table = static.sbox_table
        sbox_aliased = static.sbox_aliased

        predictor = frontend.predictor
        hierarchy = memorder.hierarchy
        hierarchy_access = hierarchy.access if hierarchy is not None else None
        sbox_array = memorder.sbox_array

        issue_used = scheduler.issue_used
        issue_get = issue_used.get
        reg_ready = scheduler.reg_ready
        retire_ring = scheduler.retire_ring
        retire_prev = scheduler.retire_prev
        retire_count = scheduler.retire_count
        max_complete = scheduler.max_complete
        prune_mark = scheduler.prune_mark

        issue_width = self._issue_width
        retire_width = self._retire_width
        track_issue = self._track_issue
        attribute = self._attribute
        window = config.window_size
        frontend_depth = config.frontend_depth
        perfect_alias = config.perfect_alias
        lsq_size = config.lsq_size
        prune_interval = config.prune_interval
        sbox_miss_latency = config.sbox_dcache_latency

        fetch_cycle = frontend.fetch_cycle
        fetch_slots_used = frontend.fetch_slots_used
        fetch_groups_used = frontend.fetch_groups_used
        mispredict_until = frontend.mispredict_until
        fetch_width = config.fetch_width
        groups_per_cycle = config.fetch_groups_per_cycle
        break_on_taken = config.fetch_break_on_taken

        last_store_addr_known = memorder.last_store_addr_known
        store_map = memorder.store_map
        store_map_get = store_map.get
        store_count = memorder.store_count
        sync_barrier = memorder.sync_barrier

        n_loads = n_stores = n_sbox = n_sbox_misses = n_forwards = 0
        n_branches = n_mispredicts = 0

        bumps: list[int] = []
        bumps_append = bumps.append
        if attribute:
            label_append = attribution.labels.append
            frontier = attribution.frontier
            hot = attribution.hot
            exec_counts = attribution.exec_counts
        else:
            frontier = 0

        def issue_at(cycle: int, fu_used, fu_limit: int, cost: int,
                     fu_cat: int) -> int:
            """First cycle >= ``cycle`` with an issue slot and unit room.

            The contended path: the issue block has found ``cycle`` itself
            full.  Records in ``bumps`` what blocked each cycle passed.
            """
            if attribute:
                bumps.clear()
            while True:
                if track_issue and issue_get(cycle, 0) >= issue_width:
                    if attribute:
                        bumps_append(_C_ISSUE)
                elif (fu_used is not None
                      and fu_used.get(cycle, 0) + cost > fu_limit):
                    if attribute:
                        bumps_append(fu_cat)
                else:
                    break
                cycle += 1
            if track_issue:
                issue_used[cycle] = issue_get(cycle, 0) + 1
            if fu_used is not None:
                fu_used[cycle] = fu_used.get(cycle, 0) + cost
            return cycle

        schedule = self._schedule
        sched_start = self._sched_start
        sched_end = self._sched_end
        seq_len = len(seq)

        for j in range(lo, hi):
            pos = base_pos + j
            s = seq[j]
            kind, fu_used, fu_limit, cost, fu_cat, latency = ops[s]

            # ---- fetch ----------------------------------------------------
            this_fetch = fetch_cycle
            if fetch_width is not None:
                if fetch_slots_used >= fetch_width:
                    fetch_cycle += 1
                    fetch_slots_used = 0
                    fetch_groups_used = 0
                    this_fetch = fetch_cycle
                fetch_slots_used += 1

            # ---- dispatch / operands --------------------------------------
            enter = this_fetch + frontend_depth
            earliest = enter
            if window:
                freed = retire_ring[pos % window]
                if freed > earliest:
                    earliest = freed
            dispatch_floor = earliest
            for r in srcs[s]:
                t = reg_ready[r]
                if t > earliest:
                    earliest = t

            # ---- memory order: resolve the unit and latency ---------------
            # ``operand_end`` / ``request`` bound the attribution segments:
            # [dispatch_floor, operand_end) is operand wait (incl. address
            # generation), [operand_end, request) is memory-ordering/alias
            # stall, [request, issued) is issue/FU contention per ``bumps``.
            # Cache and SBox-cache state depends on program order only,
            # never on the issue cycle, so accesses resolve before issue.
            if not kind:
                operand_end = request = earliest
            elif kind == _K_LOAD or kind == _K_SBOX:
                addr = addrs[j]
                forward = 0
                if kind == _K_LOAD:
                    n_loads += 1
                    # Address generation, then ordered cache access.
                    operand_end = request = earliest + 1
                    ordered = True
                    size = mem_size[s]
                else:
                    # An SBOX read on the d-cache path: only the aliased
                    # form is ordered against stores.
                    n_sbox += 1
                    operand_end = request = earliest
                    ordered = sbox_aliased[s]
                    size = 4
                    if not ordered and sync_barrier > request:
                        request = sync_barrier
                if ordered:
                    if not perfect_alias and last_store_addr_known > request:
                        request = last_store_addr_known
                    # Latest live overlapping store: the byte entry with
                    # the greatest store order above the queue's age
                    # barrier.
                    barrier_order = store_count - lsq_size
                    for byte in range(addr, addr + size):
                        entry = store_map_get(byte)
                        if entry is not None and entry[0] > barrier_order:
                            barrier_order = entry[0]
                            forward = entry[1]
                if forward:
                    if forward > request:
                        request = forward
                    fu_used = None
                    latency = 1
                    n_forwards += 1
                elif hierarchy is not None:
                    latency += hierarchy_access(addr)
            elif kind == _K_SBOX_CACHE:
                n_sbox += 1
                operand_end = request = earliest
                if sync_barrier > request:
                    request = sync_barrier
                if not sbox_array.access(sbox_table[s], addrs[j]):
                    n_sbox_misses += 1
                    latency += sbox_miss_latency
            elif kind == _K_STORE:
                # The address resolves when the base register is ready.
                addr = addrs[j]
                n_stores += 1
                addr_known = dispatch_floor
                for r in addr_srcs[s]:
                    t = reg_ready[r]
                    if t > addr_known:
                        addr_known = t
                addr_known += 1
                operand_end = request = (earliest if earliest > addr_known
                                         else addr_known)
                if hierarchy is not None:
                    hierarchy_access(addr, True)
                if not perfect_alias and addr_known > last_store_addr_known:
                    last_store_addr_known = addr_known
            else:
                operand_end = request = earliest
                if sbox_array is not None:
                    sbox_array.sync(sbox_table[s])

            # ---- issue + execute ------------------------------------------
            # The uncontended case inline: one issue-slot probe and one unit
            # probe at the request cycle; ``issue_at`` walks contention.
            if track_issue:
                used = issue_get(request, 0)
                if used >= issue_width:
                    issued = issue_at(request, fu_used, fu_limit, cost,
                                      fu_cat)
                elif fu_used is None:
                    issue_used[request] = used + 1
                    issued = request
                else:
                    fu = fu_used.get(request, 0) + cost
                    if fu > fu_limit:
                        issued = issue_at(request, fu_used, fu_limit, cost,
                                          fu_cat)
                    else:
                        issue_used[request] = used + 1
                        fu_used[request] = fu
                        issued = request
            elif fu_used is None:
                issued = request
            else:
                fu = fu_used.get(request, 0) + cost
                if fu > fu_limit:
                    issued = issue_at(request, fu_used, fu_limit, cost,
                                      fu_cat)
                else:
                    fu_used[request] = fu
                    issued = request
            complete = issued + latency
            if kind >= _K_STORE:
                if kind == _K_STORE:
                    store_count += 1
                    entry = (store_count, complete)
                    for byte in range(addr, addr + mem_size[s]):
                        store_map[byte] = entry
                else:
                    sync_barrier = complete

            # ---- stall attribution ----------------------------------------
            if attribute:
                exec_counts[s] += 1
                # Machine view: label every cycle up to this issue with the
                # category blocking the oldest unissued instruction (cycles
                # below ``frontier`` were labeled by older instructions).
                if issued > frontier:
                    for cycle in range(frontier, issued):
                        if cycle < this_fetch:
                            cat = (_C_MISPREDICT if cycle < mispredict_until
                                   else _C_FETCH)
                        elif cycle < enter:
                            cat = _C_FRONTEND
                        elif cycle < dispatch_floor:
                            cat = _C_WINDOW
                        elif cycle < operand_end:
                            cat = _C_OPERAND
                        elif cycle < request:
                            cat = _C_ALIAS
                        else:
                            cat = bumps[cycle - request]
                        label_append(cat)
                    frontier = issued
                # Instruction view: cycles *this* instruction spent blocked
                # (enter <= dispatch_floor <= operand_end <= request <=
                # issued).  ``bumps`` is fresh only when issue was contended.
                if issued != enter:
                    row = hot[s]
                    row[_C_WINDOW - _C_WINDOW] += dispatch_floor - enter
                    row[_C_OPERAND - _C_WINDOW] += operand_end - dispatch_floor
                    row[_C_ALIAS - _C_WINDOW] += request - operand_end
                    if issued != request:
                        for cat in bumps:
                            row[cat - _C_WINDOW] += 1

            # ---- branch resolution / fetch redirect -----------------------
            if is_branch[s]:
                if taken_arr is not None:
                    taken = bool(taken_arr[j])
                else:
                    jn = j + 1
                    if jn < seq_len:
                        taken = seq[jn] != s + 1
                    elif next_s is None:
                        taken = True
                    else:
                        taken = next_s != s + 1
                n_branches += 1
                correct = True
                if predictor is not None and is_cond[s]:
                    correct = predictor.predict_and_update(s, taken)
                if not correct:
                    n_mispredicts += 1
                    redirect = complete + config.mispredict_penalty
                    if redirect > fetch_cycle:
                        fetch_cycle = redirect
                        fetch_slots_used = 0
                        fetch_groups_used = 0
                        if redirect > mispredict_until:
                            mispredict_until = redirect
                elif taken and break_on_taken and fetch_width is not None:
                    fetch_groups_used += 1
                    if fetch_groups_used >= groups_per_cycle:
                        fetch_cycle += 1
                        fetch_slots_used = 0
                        fetch_groups_used = 0

            # ---- writeback / retire ---------------------------------------
            d = dest[s]
            if d >= 0:
                reg_ready[d] = complete
            if complete > max_complete:
                max_complete = complete

            r = complete + 1
            if r < retire_prev:
                r = retire_prev
            if retire_width != _UNLIMITED:
                # Only the frontier cycle can fill (SchedulerState).
                if r == retire_prev:
                    if retire_count >= retire_width:
                        r += 1
                        retire_prev = r
                        retire_count = 1
                    else:
                        retire_count += 1
                else:
                    retire_prev = r
                    retire_count = 1
            else:
                retire_prev = r
            if window:
                retire_ring[pos % window] = r
            if schedule is not None and sched_start <= pos < sched_end:
                # dispatch_floor = window entry (fetch throttled by ROB
                # space), the honest "F" column for visualization.
                schedule.append((pos, s, dispatch_floor, issued, complete, r))

            # ---- prune resource maps --------------------------------------
            if pos - prune_mark >= prune_interval:
                prune_mark = pos
                if attribute:
                    attribution.frontier = frontier
                # ``dispatch_floor`` is monotone in ``pos`` (fetch cycles
                # and in-order retirement both only move forward) and every
                # resource probe of every later instruction starts at or
                # above it, so cycles below it are final.
                self._prune_maps(
                    min(dispatch_floor, retire_prev) - 8192, store_count
                )

        # ---- write carried scalar state back to the stage components ------
        frontend.fetch_cycle = fetch_cycle
        frontend.fetch_slots_used = fetch_slots_used
        frontend.fetch_groups_used = fetch_groups_used
        frontend.mispredict_until = mispredict_until
        scheduler.retire_prev = retire_prev
        scheduler.retire_count = retire_count
        scheduler.max_complete = max_complete
        scheduler.prune_mark = prune_mark
        memorder.last_store_addr_known = last_store_addr_known
        memorder.store_count = store_count
        memorder.sync_barrier = sync_barrier
        if attribute:
            attribution.frontier = frontier
        stats.loads += n_loads
        stats.stores += n_stores
        stats.sbox_accesses += n_sbox
        stats.sbox_cache_misses += n_sbox_misses
        stats.store_forwards += n_forwards
        stats.branches += n_branches
        stats.mispredictions += n_mispredicts
        self._count += hi - lo

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
