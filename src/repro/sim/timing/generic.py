"""The ``"generic"`` timing engine: the per-entry scheduler loop.

This is the reference implementation of the timing model -- a single flat
loop over trace entries that re-examines every instruction's class,
sources and latencies per dynamic instance.  It handles every machine
configuration and every trace shape (including synthetic chunks with
explicit ``taken`` flags), and its output defines correctness for every
other engine.  The ``"specialized"`` engine subclasses it: it runs this
loop until it tiers up and for every window its generated code cannot
take, and must match it bit for bit (``tests/sim/test_timing_engines.py``
is the oracle).

The loop reads and writes the stage components' state directly (see
:mod:`repro.sim.timing.stages`): a store-queue probe costs one byte-map
lookup per accessed byte and a retirement one frontier comparison, so the
per-entry cost does not grow with the load/store queue depth.
"""

from __future__ import annotations

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
    _N_WAIT,
    _UNLIMITED,
    PipelineBase,
)


class GenericPipeline(PipelineBase):
    """Per-entry interpreter over the stage components."""

    engine_name = "generic"

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
        rebound to locals on entry and scalar state written back on exit --
        the dict/list state is mutated in place.
        """
        config = self.config
        static = self.static
        stats = self.stats
        frontend = self.frontend
        scheduler = self.scheduler
        memorder = self.memorder
        attribution = self.attribution

        klass = static.klass
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
        sbox_array = memorder.sbox_array

        issue_used = scheduler.issue_used
        ialu_used = scheduler.ialu_used
        rot_used = scheduler.rot_used
        mul_used = scheduler.mul_used
        dport_used = scheduler.dport_used
        sport_used = scheduler.sport_used
        _no_fu = scheduler.no_fu
        reg_ready = scheduler.reg_ready
        retire_ring = scheduler.retire_ring
        retire_prev = scheduler.retire_prev
        retire_count = scheduler.retire_count
        max_complete = scheduler.max_complete
        prune_mark = scheduler.prune_mark

        issue_width = self._issue_width
        num_ialu = self._num_ialu
        num_rot = self._num_rot
        mul_slots = self._mul_slots
        dports = self._dports
        retire_width = self._retire_width
        sbox_ports = self._sbox_ports
        track_issue = self._track_issue
        attribute = self._attribute
        if track_issue:
            # A cost-1 pool at least as wide as issue can never be the
            # binding constraint (per-cycle pool use <= issue use, which
            # the issue check keeps below the pool limit), so skip its
            # checks and bookkeeping -- same elision as the generated code.
            if num_ialu >= issue_width:
                num_ialu = _UNLIMITED
            if num_rot >= issue_width:
                num_rot = _UNLIMITED
            if dports >= issue_width:
                dports = _UNLIMITED
            if sbox_ports >= issue_width:
                sbox_ports = _UNLIMITED
        window = config.window_size
        frontend_depth = config.frontend_depth
        alu_lat = config.alu_latency
        rot_lat = config.rotator_latency
        load_lat = config.load_latency
        store_lat = config.store_latency
        perfect_alias = config.perfect_alias
        lsq_size = config.lsq_size
        prune_interval = config.prune_interval

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

        bumps: list[int] = []
        if attribute:
            label_append = attribution.labels.append
            frontier = attribution.frontier
            hot = attribution.hot
            exec_counts = attribution.exec_counts
        else:
            frontier = 0

        def issue_at(cycle: int, fu_used: dict, fu_limit: int,
                     cost: int = 1, fu_cat: int = _C_ISSUE) -> int:
            """First cycle >= ``cycle`` with an issue slot and FU room."""
            if attribute:
                bumps.clear()
            while True:
                if track_issue and issue_used.get(cycle, 0) >= issue_width:
                    if attribute:
                        bumps.append(_C_ISSUE)
                    cycle += 1
                    continue
                if (fu_limit != _UNLIMITED
                        and fu_used.get(cycle, 0) + cost > fu_limit):
                    if attribute:
                        bumps.append(fu_cat)
                    cycle += 1
                    continue
                break
            if track_issue:
                issue_used[cycle] = issue_used.get(cycle, 0) + 1
            if fu_limit != _UNLIMITED:
                fu_used[cycle] = fu_used.get(cycle, 0) + cost
            return cycle

        schedule = self._schedule
        sched_start = self._sched_start
        sched_end = self._sched_end
        seq_len = len(seq)

        for j in range(lo, hi):
            pos = base_pos + j
            s = seq[j]
            k = klass[s]

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

            # ---- issue + execute ------------------------------------------
            # ``operand_end`` / ``request`` bound the attribution segments:
            # [dispatch_floor, operand_end) is operand wait (incl. address
            # generation), [operand_end, request) is memory-ordering/alias
            # stall, [request, issued) is issue/FU contention per ``bumps``.
            if k == "ialu":
                operand_end = request = earliest
                issued = issue_at(request, ialu_used, num_ialu,
                                  fu_cat=_C_FU_IALU)
                complete = issued + alu_lat
            elif k == "rotator":
                operand_end = request = earliest
                issued = issue_at(request, rot_used, num_rot,
                                  fu_cat=_C_FU_ROT)
                complete = issued + rot_lat
            elif k == "load":
                # Address generation, then ordered cache access.
                addr_ready = earliest + 1
                operand_end = addr_ready
                if not perfect_alias and last_store_addr_known > addr_ready:
                    addr_ready = last_store_addr_known
                addr = addrs[j]
                size = mem_size[s]
                # Latest live overlapping store: the byte entry with the
                # greatest store order above the queue's age barrier.
                barrier_order = store_count - lsq_size
                forward = 0
                for byte in range(addr, addr + size):
                    entry = store_map_get(byte)
                    if entry is not None and entry[0] > barrier_order:
                        barrier_order = entry[0]
                        forward = entry[1]
                if forward:
                    request = max(addr_ready, forward)
                    issued = issue_at(request, _no_fu, _UNLIMITED)
                    complete = issued + 1
                    stats.store_forwards += 1
                else:
                    request = addr_ready
                    issued = issue_at(request, dport_used, dports,
                                      fu_cat=_C_FU_MEM)
                    extra = 0
                    if hierarchy is not None:
                        extra = hierarchy.access(addr)
                    complete = issued + (load_lat - 1) + extra
                stats.loads += 1
            elif k == "store":
                # The address resolves when the base register is ready.
                addr_known = dispatch_floor
                for r in addr_srcs[s]:
                    t = reg_ready[r]
                    if t > addr_known:
                        addr_known = t
                addr_known += 1
                operand_end = request = max(earliest, addr_known)
                issued = issue_at(request, dport_used, dports,
                                  fu_cat=_C_FU_MEM)
                addr = addrs[j]
                if hierarchy is not None:
                    hierarchy.access(addr, is_store=True)
                complete = issued + store_lat
                if not perfect_alias and addr_known > last_store_addr_known:
                    last_store_addr_known = addr_known
                store_count += 1
                entry = (store_count, complete)
                for byte in range(addr, addr + mem_size[s]):
                    store_map[byte] = entry
                stats.stores += 1
            elif k == "sbox":
                aliased = sbox_aliased[s]
                addr = addrs[j]
                stats.sbox_accesses += 1
                operand_end = earliest
                access_ready = earliest
                if (aliased and not perfect_alias
                        and last_store_addr_known > access_ready):
                    access_ready = last_store_addr_known
                if not aliased and sync_barrier > access_ready:
                    access_ready = sync_barrier
                forward = 0
                if aliased:
                    barrier_order = store_count - lsq_size
                    for byte in range(addr, addr + 4):
                        entry = store_map_get(byte)
                        if entry is not None and entry[0] > barrier_order:
                            barrier_order = entry[0]
                            forward = entry[1]
                if forward:
                    request = max(access_ready, forward)
                    issued = issue_at(request, _no_fu, _UNLIMITED)
                    complete = issued + 1
                    stats.store_forwards += 1
                elif (sbox_array is not None and not aliased
                      and sbox_table[s] < sbox_array.count):
                    # The table designator schedules this access onto a
                    # dedicated SBox cache; ids beyond the cache count (e.g.
                    # 3DES's eight logical tables) deliberately stay on the
                    # d-cache path so a single-tag sector cache is not
                    # thrashed between tables.
                    table = sbox_table[s]
                    port = table % sbox_array.count
                    request = access_ready
                    issued = issue_at(request, sport_used[port], sbox_ports,
                                      fu_cat=_C_FU_SBOX)
                    if sbox_array.access(table, addr):
                        complete = issued + config.sbox_cache_latency
                    else:
                        stats.sbox_cache_misses += 1
                        complete = (issued + config.sbox_cache_latency
                                    + config.sbox_dcache_latency)
                else:
                    request = access_ready
                    issued = issue_at(request, dport_used, dports,
                                      fu_cat=_C_FU_MEM)
                    extra = 0
                    if hierarchy is not None:
                        extra = hierarchy.access(addr)
                    complete = issued + config.sbox_dcache_latency + extra
            elif k == "mul32":
                operand_end = request = earliest
                issued = issue_at(request, mul_used, mul_slots,
                                  config.mul32_cost, fu_cat=_C_FU_MUL)
                complete = issued + config.mul32_latency
            elif k == "mul64":
                operand_end = request = earliest
                issued = issue_at(request, mul_used, mul_slots,
                                  config.mul64_cost, fu_cat=_C_FU_MUL)
                complete = issued + config.mul64_latency
            elif k == "mulmod":
                operand_end = request = earliest
                issued = issue_at(request, mul_used, mul_slots,
                                  config.mulmod_cost, fu_cat=_C_FU_MUL)
                complete = issued + config.mulmod_latency
            elif k == "sync":
                operand_end = request = earliest
                issued = issue_at(request, _no_fu, _UNLIMITED)
                complete = issued + 1
                if sbox_array is not None:
                    sbox_array.sync(sbox_table[s])
                sync_barrier = complete
            else:
                operand_end = request = earliest
                issued = issue_at(request, _no_fu, _UNLIMITED)
                complete = issued + alu_lat

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
                # Instruction view: cycles *this* instruction spent blocked.
                window_wait = dispatch_floor - enter
                operand_wait = operand_end - dispatch_floor
                alias_wait = request - operand_end
                if window_wait or operand_wait or alias_wait or bumps:
                    row = hot.get(s)
                    if row is None:
                        row = hot[s] = [0] * _N_WAIT
                    row[_C_WINDOW - _C_WINDOW] += window_wait
                    row[_C_OPERAND - _C_WINDOW] += operand_wait
                    row[_C_ALIAS - _C_WINDOW] += alias_wait
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
                stats.branches += 1
                correct = True
                if predictor is not None and is_cond[s]:
                    correct = predictor.predict_and_update(s, taken)
                if not correct:
                    stats.mispredictions += 1
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
    ) -> GenericPipeline:
        return GenericPipeline(
            config, static, program,
            warm_ranges=warm_ranges, schedule_range=schedule_range,
        )
