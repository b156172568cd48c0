"""Exact iteration memo: time each repeated loop iteration once.

A cipher kernel's loop reaches a periodic steady state: after its first
few dozen iterations, almost every iteration starts from a scheduling
state, and meets cache, predictor and store-forwarding outcomes, that an
earlier iteration already had.  After FastSim (Schnarr and Larus, "Fast
Out-of-Order Processor Simulation Using Memoization", ASPLOS 1998), the
``"specialized"`` engine's pipelines memoize (state, inputs) -> (next
state, statistics) per iteration and replay the transition exactly when
the pair comes back.  :class:`IterationMemo` is the memo one
:class:`~repro.sim.timing.specialized.SpecializedPipeline` drives.

**Iterations.**  Every visit to the header of an outermost natural loop
(:func:`loop_headers`) starts one; it runs to the next visit, and the
visited entry is its lookahead (the last branch's outcome).  An
iteration a chunk seam cuts is held back, copied, and finished with the
next feed, so chunking costs no hits.

**The key** is ``(path, outcomes, state, fetch)``:

* the path: the iteration's static indices, lookahead included;
* the order-only outcomes, from one pass (:meth:`IterationMemo._outcomes`)
  that runs before every lookup and updates the hierarchy, the predictor
  and the SBox caches exactly as the scheduler would: the nonzero extra
  latencies of the cache hierarchy's accesses, the SBox-cache misses, the
  mispredicted conditional branches and each forwarding load's source as
  the store's relative order.  The pass tracks the iteration's own
  stores in an overlay, so the stage state does not see them early;
* the carried stage state relative to the dispatch horizon
  ``B = max(fetch cycle + frontend depth, retire time in the window slot
  of the iteration's first entry)``, a lower bound on every dispatch
  cycle of the iteration, hence on every cycle it reads.  Register ready
  times, window slots, the last ``min(lsq_size, window)`` stores' ready
  times, the retire frontier, ``last_store_addr_known`` and the sync
  barrier are clamped at ``B`` (below it, each only ever loses a
  ``max``); the issue and unit maps at cycles in ``[B, retire
  frontier)``, the attribution frontier and ``mispredict_until`` (raised
  to the frontier, below which it never decides a label) are kept exact;
* the fetch state: ``fetch_slots_used``, ``fetch_groups_used`` and the
  fetch cycle relative to ``B`` -- or *behind*, when the fetch cycle
  plus frontend depth trails ``min(B, attribution frontier)`` by more
  than the iteration's length plus two.  Fetch then cannot bind dispatch,
  a stall label or a redirect test until the first misprediction, and
  only shifts the instruction view's window column (dispatch minus
  earliest entry) by the lag for each entry fetched up to there: the
  transition records those entries per static instruction, and each hit
  adds count x lag.

**A hit** applies the recorded transition: the fetch state, the written
registers and window slots, the retire frontier, the issue- and
unit-map cycles it claimed, the stall labels it appended, its stores in
the store map at the trace's own addresses, ``last_store_addr_known``,
the sync barrier and the prune check.  The additive parts -- hot-spot
rows, execution counts, ``SimStats`` counters -- are folded in at finish
from per-transition hit counts.  A hit's out-state is the next key's
state, so a run of hits never reads the stage state back.

**A miss** runs the per-entry loop (``GenericPipeline._advance``) over
the iteration with replay objects standing in for the hierarchy, the
predictor and the SBox-cache array, which return the pass's outcomes,
and records the transition.

**When it runs** (:mod:`repro.sim.timing.specialized` decides): on
bounded windows only (DF is never memoized), never with
``schedule_range`` or explicit ``taken`` flags, and never once a
pipeline has tiered up.  A pipeline engages at the first header visit
after ``MEMO_ENGAGE_VISITS`` visits made at or after entry
``MEMO_ENGAGE_ENTRIES``; it drops the memo for good when fewer than
:data:`PROBATION_HITS` of its first :data:`PROBATION_ITERATIONS` memo
iterations hit, and only then may tier up.  ``docs/timing.md``
("Memoized iterations") has the measurements behind each constant.

The output contract is the engine's: bit-identical
:class:`~repro.sim.stats.SimStats` against the ``"generic"`` engine for
every config, trace and chunking (``tests/sim/test_timing_memo.py``).
"""

from __future__ import annotations

from array import array
from collections import Counter
from operator import sub

from repro.sim.timing.generic import GenericPipeline
from repro.sim.timing.stages import (
    _K_LOAD,
    _K_SBOX,
    _K_SBOX_CACHE,
    _K_STORE,
    _K_SYNC,
    _N_WAIT,
)

#: Probation: a pipeline drops its memo for good when fewer than
#: ``PROBATION_HITS`` of its first ``PROBATION_ITERATIONS`` memo
#: iterations hit.  RC4 (5% of iterations repeat at 2 KiB) and the
#: Blowfish key setup (none) drop; the block-cipher kernels, engaged
#: past their first distinct iterations, hit on almost every one
#: (docs/timing.md, "Memoized iterations").
PROBATION_ITERATIONS = 16
PROBATION_HITS = 4
#: Transitions one pipeline records at most (the block-cipher kernels
#: need 18-46); past it, misses still run but record nothing.
MAX_TRANSITIONS = 256
#: Distinct iteration paths one pipeline plans at most; the memo is
#: dropped, as in probation, at an iteration on a further path.
MAX_PATHS = 64

#: ``SimStats`` counters a transition adds to, in the loop's order.
_COUNTERS = ("branches", "loads", "stores", "sbox_accesses",
             "store_forwards", "mispredictions", "sbox_cache_misses")


def loop_headers(program) -> frozenset:
    """Instruction indices of ``program``'s outermost natural-loop headers.

    Imported lazily, like the timing IR: the analysis framework loads only
    for a pipeline that has fed ``MEMO_ENGAGE_ENTRIES`` entries.
    """
    from repro.isa.analysis.passes import analyses_for

    analyses = analyses_for(program)
    loops = analyses.loops
    return frozenset(analyses.cfg.blocks[header].start
                     for header in loops.loops if loops.depth[header] == 1)


def next_visit(seq, headers, lo: int, hi: int) -> int:
    """The first index in ``[lo, hi)`` whose entry is a header, else -1."""
    found = hi
    for header in headers:
        try:
            found = seq.index(header, lo, found)
        except ValueError:
            pass
    return found if found < hi else -1


class _Path:
    """One iteration path's plan: what the order-only pass visits and
    what a transition writes, per entry offset."""

    __slots__ = ("index", "seq", "length", "ordered", "hier", "sbox",
                 "branches", "stores", "dests", "counts", "hits")

    def __init__(self, index: int, seq, pipeline):
        static = pipeline.static
        ops = pipeline._ops
        mem_size = static.mem_size
        sbox_table = static.sbox_table
        predicted = pipeline.frontend.predictor is not None
        self.index = index
        self.seq = seq
        length = self.length = len(seq) - 1
        #: Ordered reads and stores, for forwarding: (offset, bytes, store).
        self.ordered = []
        #: Hierarchy accesses: (offset, store, ordinal among ordered reads
        #: or -1); a read that forwards makes no access.
        self.hier = []
        #: SBox-cache accesses and syncs: (offset, table, sync).
        self.sbox = []
        #: Conditional branches: (offset, static index, taken).
        self.branches = []
        #: Stores: (offset, bytes).
        self.stores = []
        dests = {}
        reads = 0
        for offset in range(length):
            s = seq[offset]
            kind = ops[s][0]
            if kind == _K_LOAD or (kind == _K_SBOX and static.sbox_aliased[s]):
                size = mem_size[s] if kind == _K_LOAD else 4
                self.ordered.append((offset, size, False))
                self.hier.append((offset, False, reads))
                reads += 1
            elif kind == _K_SBOX:
                self.hier.append((offset, False, -1))
            elif kind == _K_SBOX_CACHE:
                self.sbox.append((offset, sbox_table[s], False))
            elif kind == _K_STORE:
                self.ordered.append((offset, mem_size[s], True))
                self.hier.append((offset, True, -1))
                self.stores.append((offset, mem_size[s]))
            elif kind == _K_SYNC:
                self.sbox.append((offset, sbox_table[s], True))
            if predicted and static.is_cond_branch[s]:
                self.branches.append((offset, s, seq[offset + 1] != s + 1))
            if static.dest[s] >= 0:
                dests[static.dest[s]] = None
        self.dests = tuple(dests)
        #: Entries per static instruction, for the execution counts.
        self.counts = tuple(Counter(seq[:length]).items())
        #: Hits since the last fold.
        self.hits = 0


class _Transition:
    """What one miss recorded: the out-state, and every change the
    iteration made relative to its horizon ``B``."""

    __slots__ = ("state", "shift", "fetch", "sched", "regs", "ring", "maps",
                 "labels", "stores", "counts", "hot", "pre", "hits",
                 "lag_sum")


class _ReplayHierarchy:
    """The cache hierarchy during a miss: the pass's extra latencies."""

    __slots__ = ("extras", "next")

    def __init__(self, misses: tuple):
        self.extras = dict(zip(misses[::2], misses[1::2]))
        self.next = 0

    def access(self, address, is_store=False):
        index = self.next
        self.next = index + 1
        return self.extras.get(index, 0)


class _ReplaySBoxes:
    """The SBox-cache array during a miss: the pass's hits; syncs were
    applied by the pass."""

    __slots__ = ("misses", "next")

    def __init__(self, misses: tuple):
        self.misses = frozenset(misses)
        self.next = 0

    def access(self, table, address):
        index = self.next
        self.next = index + 1
        return index not in self.misses

    def sync(self, table):
        pass


class _ReplayPredictor:
    """The branch predictor during a miss: the pass's outcomes."""

    __slots__ = ("wrong", "next")

    def __init__(self, wrong: tuple):
        self.wrong = frozenset(wrong)
        self.next = 0

    def predict_and_update(self, static_index, taken):
        index = self.next
        self.next = index + 1
        return index not in self.wrong


class IterationMemo:
    """One pipeline's memo, engaged at a header visit.

    :meth:`advance` takes the pipeline's windows while :attr:`engaged`;
    probation clears it (``kept`` too), and :meth:`finish` folds the
    hits' additive deltas into the stage state.
    """

    def __init__(self, pipeline, headers: frozenset):
        config = pipeline.config
        self.p = pipeline
        self.headers = headers
        self.engaged = self.kept = True
        #: Memo iterations, hits, entries served and transitions recorded.
        self.iterations = self.hits = self.served = self.keys = 0
        self._window = config.window_size
        self._depth = config.frontend_depth
        self._lsq = config.lsq_size
        self._table: dict = {}
        self._paths: dict = {}
        #: The head of an iteration a chunk seam cut:
        #: ``(seq, addrs, position of its first entry)``.
        self._pending = None
        #: The current key state and its horizon; None when it has to be
        #: read from the stage state.
        self._state: "bytes | None" = None
        self._base = 0
        scheduler = pipeline.scheduler
        used = {id(op[1]) for op in pipeline._ops if op[1] is not None}
        self._maps = ([scheduler.issue_used] if pipeline._attribute else []) + [
            pool for pool in (scheduler.ialu_used, scheduler.rot_used,
                              scheduler.mul_used, scheduler.dport_used,
                              *scheduler.sport_used)
            if id(pool) in used]
        # Ready times of the last ``len(_ready)`` stores by order; older
        # stores retired before any window slot the key reads.
        memorder = pipeline.memorder
        size = min(self._lsq, self._window)
        self._ready = [0] * size
        live = memorder.store_count - size
        for order, ready in memorder.store_map.values():
            if order > live:
                self._ready[order % size] = ready
        #: The 64-byte lines of every byte stored so far (a superset of the
        #: store map's), so a read elsewhere skips the forwarding probe.
        self._stored = {byte >> 6 for byte in memorder.store_map}

    # -- driver ---------------------------------------------------------------

    def advance(self, seq, addrs, base_pos, lo, hi, next_s) -> int:
        """Entries ``seq[lo:hi]``, ``seq[lo]`` a header visit unless an
        iteration is pending.  Returns ``hi``, or the header visit at
        which probation dropped the memo (the caller runs the rest)."""
        pending = self._pending
        if pending is not None:
            visit = next_visit(seq, self.headers, lo, hi)
            head, head_addrs, start = pending
            if visit < 0:
                head += seq[lo:hi]
                head_addrs += addrs[lo:hi]
                return hi
            self._pending = None
            # The visit itself is the iteration's lookahead entry.
            head += seq[lo:visit + 1]
            head_addrs += addrs[lo:visit + 1]
            self._iteration(head, head_addrs, start, 0, len(head) - 1)
            if not self.engaged:
                return visit
            lo = visit
        while lo < hi:
            visit = next_visit(seq, self.headers, lo + 1, hi)
            if visit < 0:
                self._pending = (seq[lo:hi], addrs[lo:hi], base_pos + lo)
                return hi
            self._iteration(seq, addrs, base_pos, lo, visit)
            if not self.engaged:
                return visit
            lo = visit
        return hi

    def finish(self, next_s=None) -> None:
        """Run a pending iteration (the trace's last) on the loop, and fold
        the hits' deltas into the stage state."""
        pending = self._pending
        if pending is not None:
            self._pending = None
            head, head_addrs, start = pending
            GenericPipeline._advance(self.p, head, head_addrs, None, start,
                                     0, len(head), next_s)
        if self._table is not None:
            self._fold()
            self._release()

    def _iteration(self, seq, addrs, base_pos, j0, j1) -> None:
        """Entries ``[j0, j1)``, ``seq[j1]`` the next header visit."""
        pipeline = self.p
        path = seq[j0:j1 + 1]
        plan = self._paths.get(path.tobytes())
        if plan is None:
            if len(self._paths) >= MAX_PATHS:
                self.drop()
                GenericPipeline._advance(pipeline, seq, addrs, None, base_pos,
                                         j0, j1, None)
                return
            plan = self._paths[path.tobytes()] = _Path(len(self._paths), path,
                                                       pipeline)
        outcomes = self._outcomes(plan, addrs, j0)
        pos = base_pos + j0
        state, base = self._state, self._base
        if state is None:
            state, base = self._capture(pos)
        fc = pipeline.frontend.fetch_cycle
        att = pipeline.attribution
        bound = base if att is None or att.frontier > base else att.frontier
        behind = fc + self._depth + plan.length + 2 <= bound
        frontend = pipeline.frontend
        key = (plan.index, outcomes, state, None if behind else fc - base,
               frontend.fetch_slots_used, frontend.fetch_groups_used)
        self.iterations += 1
        transition = self._table.get(key)
        if transition is not None:
            self.hits += 1
            self.served += plan.length
            self._hit(transition, plan, addrs, j0, pos, base,
                      base - fc if behind else 0)
            base += transition.shift
            self._state, self._base = transition.state, base
        else:
            base = self._miss(seq, addrs, base_pos, j0, j1, plan, outcomes,
                              key, base, behind)
        self._prune(pos + plan.length - 1, base)
        if (self.iterations == PROBATION_ITERATIONS
                and self.hits < PROBATION_HITS):
            self.drop()

    def drop(self, next_s=None) -> None:
        """Give the pipeline back to the per-entry loop for good: run a
        pending iteration (``next_s`` its lookahead), fold the hits."""
        self.finish(next_s)
        self.engaged = self.kept = False

    # -- order-only pass ------------------------------------------------------

    def _outcomes(self, plan: _Path, addrs, j0: int) -> tuple:
        """Run the iteration's hierarchy, SBox-cache and predictor work, in
        program order per component, and find its forwarding loads.

        Returns ``(hierarchy, sbox, branches, forwards)``: flat
        ``(access ordinal, extra latency)`` pairs for nonzero extras, the
        ordinals of SBox-cache misses and of mispredicted conditional
        branches, and ``(read ordinal, relative store order)`` pairs.
        """
        pipeline = self.p
        memorder = pipeline.memorder
        forwards = self._forwards(plan, addrs, j0) if plan.ordered else ()
        hierarchy = memorder.hierarchy
        misses = ()
        if hierarchy is not None and plan.hier:
            misses = self._hierarchy(hierarchy, plan, addrs, j0, forwards)
        sboxes = memorder.sbox_array
        sbox_misses = ()
        if sboxes is not None and plan.sbox:
            sbox_misses = self._sboxes(sboxes, plan, addrs, j0)
        wrong = ()
        if plan.branches:
            predict = pipeline.frontend.predictor.predict_and_update
            wrong = tuple(index for index, (_, s, taken)
                          in enumerate(plan.branches)
                          if not predict(s, taken))
        return misses, sbox_misses, wrong, forwards

    def _forwards(self, plan: _Path, addrs, j0: int) -> tuple:
        """Each forwarding read's store, the scheduler's probe over the
        store map with this iteration's earlier stores overlaid."""
        memorder = self.p.memorder
        probe = memorder.store_map.get
        count = memorder.store_count
        lsq = self._lsq
        stored = self._stored
        overlay: dict = {}
        found = []
        reads = 0
        for offset, size, store in plan.ordered:
            a = addrs[j0 + offset]
            if store:
                count += 1
                for byte in range(a, a + size):
                    overlay[byte] = count
                stored.add(a >> 6)
                stored.add((a + size - 1) >> 6)
                continue
            if a >> 6 not in stored and (a + size - 1) >> 6 not in stored:
                reads += 1
                continue
            barrier = latest = count - lsq
            for byte in range(a, a + size):
                order = overlay.get(byte)
                if order is None:
                    entry = probe(byte)
                    if entry is None:
                        continue
                    order = entry[0]
                if order > latest:
                    latest = order
            if latest != barrier:
                found += (reads, count - latest)
            reads += 1
        return tuple(found)

    @staticmethod
    def _hierarchy(hierarchy, plan: _Path, addrs, j0: int,
                   forwards: tuple) -> tuple:
        """The accesses in order, through ``MemoryHierarchy.access``."""
        access = hierarchy.access
        forwarded = frozenset(forwards[::2])
        misses = []
        index = 0
        for offset, store, read in plan.hier:
            if read in forwarded:
                continue
            extra = access(addrs[j0 + offset], store)
            if extra:
                misses += (index, extra)
            index += 1
        return tuple(misses)

    @staticmethod
    def _sboxes(sboxes, plan: _Path, addrs, j0: int) -> tuple:
        """SBox-cache accesses and syncs in order, through the array."""
        access, sync = sboxes.access, sboxes.sync
        misses = []
        index = 0
        for offset, table, is_sync in plan.sbox:
            if is_sync:
                sync(table)
                continue
            if not access(table, addrs[j0 + offset]):
                misses.append(index)
            index += 1
        return tuple(misses)

    # -- state ----------------------------------------------------------------

    def _capture(self, pos: int) -> tuple:
        """``(key state, B)`` read from the stage state at position ``pos``
        (see the module docstring for the layout's clamping)."""
        pipeline = self.p
        frontend = pipeline.frontend
        scheduler = pipeline.scheduler
        memorder = pipeline.memorder
        att = pipeline.attribution
        ring = scheduler.retire_ring
        slot = pos % self._window
        base = frontend.fetch_cycle + self._depth
        if ring[slot] > base:
            base = ring[slot]
        retire = scheduler.retire_prev
        values = [0, 0, 0, 0]
        if att is not None:
            frontier = att.frontier
            mispredict = frontend.mispredict_until
            values[0] = frontier - base
            values[1] = (mispredict if mispredict > frontier
                         else frontier) - base
        if retire > base:
            values[2] = retire - base
            values[3] = scheduler.retire_count
        for value in (memorder.last_store_addr_known, memorder.sync_barrier):
            values.append(value - base if value > base else 0)
        values += [t - base if t > base else 0 for t in scheduler.reg_ready]
        values += [t - base if t > base else 0 for t in ring[slot:]]
        values += [t - base if t > base else 0 for t in ring[:slot]]
        ready = self._ready
        size = len(ready)
        count = memorder.store_count
        for order in range(count, count - size, -1):
            t = ready[order % size]
            values.append(t - base if t > base else 0)
        if retire > base:
            cycles = range(base, retire)
            for used in self._maps:
                get = used.get
                values += [get(cycle, 0) for cycle in cycles]
        try:
            return array("i", values).tobytes(), base
        except OverflowError:
            # Tagged: an odd length no "i" encoding has.
            return b"q" + array("q", values).tobytes(), base

    # -- hit ------------------------------------------------------------------

    def _hit(self, transition: _Transition, plan: _Path, addrs, j0: int,
             pos: int, base: int, lag: int) -> None:
        pipeline = self.p
        frontend = pipeline.frontend
        scheduler = pipeline.scheduler
        memorder = pipeline.memorder
        fetch, from_fetch, slots, groups, mispredict = transition.fetch
        frontend.fetch_cycle = (frontend.fetch_cycle if from_fetch
                                else base) + fetch
        frontend.fetch_slots_used = slots
        frontend.fetch_groups_used = groups
        frontend.mispredict_until = base + mispredict
        retire, count, frontier, known, barrier = transition.sched
        scheduler.retire_prev = base + retire
        scheduler.retire_count = count
        memorder.last_store_addr_known = base + known
        memorder.sync_barrier = base + barrier
        ready = scheduler.reg_ready
        for register, t in zip(plan.dests, transition.regs):
            ready[register] = base + t
        self._write_ring(pos + plan.length, transition.ring, base)
        shift = base.__add__
        for used, (cycles, counts) in zip(self._maps, transition.maps):
            used.update(zip(map(shift, cycles), counts))
        att = pipeline.attribution
        if att is not None:
            att.labels += transition.labels
            att.frontier = base + frontier
        if plan.stores:
            store_map = memorder.store_map
            order = memorder.store_count
            ready = self._ready
            size = len(ready)
            for (offset, nbytes), t in zip(plan.stores, transition.stores):
                order += 1
                entry = (order, base + t)
                a = addrs[j0 + offset]
                for byte in range(a, a + nbytes):
                    store_map[byte] = entry
                ready[order % size] = base + t
            memorder.store_count = order
        pipeline._count += plan.length
        transition.hits += 1
        transition.lag_sum += lag
        plan.hits += 1

    def _write_ring(self, end: int, values, base: int) -> None:
        """Window slots of the entries before position ``end``."""
        ring = self.p.scheduler.retire_ring
        window = self._window
        n = len(values)
        start = (end - n) % window
        absolute = list(map(base.__add__, values))
        first = min(n, window - start)
        ring[start:start + first] = absolute[:first]
        ring[:n - first] = absolute[first:]

    # -- miss -----------------------------------------------------------------

    def _miss(self, seq, addrs, base_pos, j0, j1, plan: _Path, outcomes,
              key, base: int, behind: bool) -> int:
        """Run the loop over the iteration with the outcomes replayed, and
        record the transition; returns the next horizon."""
        pipeline = self.p
        frontend = pipeline.frontend
        scheduler = pipeline.scheduler
        memorder = pipeline.memorder
        att = pipeline.attribution
        stats = pipeline.stats
        record = len(self._table) < MAX_TRANSITIONS
        pos = base_pos + j0
        if record:
            fetch0 = frontend.fetch_cycle
            retire0 = scheduler.retire_prev
            before = [[used.get(cycle, 0) for cycle in range(base, retire0)]
                      for used in self._maps]
            counters0 = [getattr(stats, name) for name in _COUNTERS]
            if att is not None:
                labels0 = len(att.labels)
                hot0 = [att.hot[s][:] for s, _ in plan.counts]
        misses, sbox_misses, wrong, _ = outcomes
        real = memorder.hierarchy, memorder.sbox_array, frontend.predictor
        if real[0] is not None:
            memorder.hierarchy = _ReplayHierarchy(misses)
        if real[1] is not None:
            memorder.sbox_array = _ReplaySBoxes(sbox_misses)
        if real[2] is not None:
            frontend.predictor = _ReplayPredictor(wrong)
        # No prune inside: the labels the transition records stay put.
        prune_mark = scheduler.prune_mark
        scheduler.prune_mark = pos + plan.length
        try:
            GenericPipeline._advance(pipeline, seq, addrs, None, base_pos,
                                     j0, j1, None)
        finally:
            memorder.hierarchy, memorder.sbox_array, frontend.predictor = real
            scheduler.prune_mark = prune_mark
        # The stores' ready times, from any byte no later store took.  A
        # store whose every byte a later one took can never forward: its
        # time reads as 0, and the transition, which would write it to the
        # store map, is not recorded.
        store_map = memorder.store_map
        ready = self._ready
        size = len(ready)
        order = memorder.store_count - len(plan.stores)
        stores = array("q")
        for offset, nbytes in plan.stores:
            order += 1
            a = addrs[j0 + offset]
            t = 0
            for byte in range(a, a + nbytes):
                entry = store_map.get(byte)
                if entry is not None and entry[0] == order:
                    t = entry[1]
                    break
            else:
                record = False
            ready[order % size] = t
            stores.append(t - base)
        state, after = self._capture(pos + plan.length)
        self._state, self._base = state, after
        if not record:
            return after
        transition = _Transition()
        transition.state = state
        transition.shift = after - base
        mispredict = frontend.mispredict_until
        frontier = 0
        if att is not None:
            frontier = att.frontier - base
            mispredict = max(mispredict, att.frontier) - base
        else:
            mispredict = 0
        from_fetch = behind and not wrong
        transition.fetch = (
            frontend.fetch_cycle - (fetch0 if from_fetch else base),
            from_fetch, frontend.fetch_slots_used,
            frontend.fetch_groups_used, mispredict)
        transition.sched = (
            scheduler.retire_prev - base, scheduler.retire_count, frontier,
            max(memorder.last_store_addr_known - base, 0),
            max(memorder.sync_barrier - base, 0))
        rr = scheduler.reg_ready
        transition.regs = array("q", [rr[r] - base for r in plan.dests])
        ring = scheduler.retire_ring
        window = self._window
        end = pos + plan.length
        n = min(plan.length, window)
        transition.ring = array("q", [ring[p % window] - base
                                      for p in range(end - n, end)])
        maps = []
        retire = scheduler.retire_prev
        for used, old in zip(self._maps, before):
            cycles, counts = array("q"), array("q")
            for cycle in range(base, retire):
                t = used.get(cycle, 0)
                if t != (old[cycle - base] if cycle < retire0 else 0):
                    cycles.append(cycle - base)
                    counts.append(t)
            maps.append((cycles, counts))
        transition.maps = tuple(maps)
        transition.stores = stores
        transition.counts = tuple(getattr(stats, name) - old for name, old
                                  in zip(_COUNTERS, counters0))
        transition.hot = transition.pre = transition.labels = None
        if att is not None:
            transition.labels = bytes(att.labels[labels0:])
            hot = att.hot
            rows = {s: list(map(sub, hot[s], old))
                    for (s, _), old in zip(plan.counts, hot0)}
            if behind:
                # The window column grew by the lag per entry fetched up to
                # the first misprediction; hits add their own lag.
                last = plan.branches[wrong[0]][0] if wrong else plan.length - 1
                lag = base - fetch0
                early = Counter(plan.seq[:last + 1])
                transition.pre = array("q", [v for item in early.items()
                                             for v in item])
                for s, n_early in early.items():
                    rows[s][0] -= n_early * lag
            # Rows of ``_N_WAIT + 1``: the static index, then its deltas.
            transition.hot = array("q", [v for s, row in rows.items()
                                         if any(row) for v in (s, *row)])
        transition.hits = transition.lag_sum = 0
        self._table[key] = transition
        self.keys += 1
        return after

    # -- bookkeeping ----------------------------------------------------------

    def _prune(self, last: int, base: int) -> None:
        """The loop's prune check, at the iteration's last position, with a
        horizon below every cycle a later entry can touch."""
        pipeline = self.p
        scheduler = pipeline.scheduler
        if last - scheduler.prune_mark < pipeline.config.prune_interval:
            return
        scheduler.prune_mark = last
        horizon = min(base, scheduler.retire_prev)
        att = pipeline.attribution
        if att is not None:
            horizon = min(horizon, att.frontier)
        pipeline._prune_maps(horizon - 8192, pipeline.memorder.store_count)

    def _fold(self) -> None:
        """Add every hit's counters, waits and executions to the stage."""
        pipeline = self.p
        stats = pipeline.stats
        att = pipeline.attribution
        for transition in self._table.values():
            hits = transition.hits
            if not hits:
                continue
            for name, delta in zip(_COUNTERS, transition.counts):
                if delta:
                    setattr(stats, name, getattr(stats, name) + hits * delta)
            if att is not None:
                hot = att.hot
                deltas = transition.hot
                for i in range(0, len(deltas), _N_WAIT + 1):
                    row = hot[deltas[i]]
                    for column in range(_N_WAIT):
                        row[column] += hits * deltas[i + 1 + column]
                pre = transition.pre
                if pre is not None:
                    for i in range(0, len(pre), 2):
                        hot[pre[i]][0] += pre[i + 1] * transition.lag_sum
            transition.hits = transition.lag_sum = 0
        for plan in self._paths.values():
            if plan.hits and att is not None:
                exec_counts = att.exec_counts
                for s, n in plan.counts:
                    exec_counts[s] += n * plan.hits
            plan.hits = 0

    def _release(self) -> None:
        """Keep only the report: the tables go, and so does the reference
        to the pipeline, which would otherwise hold it in a cycle that
        only the garbage collector frees."""
        self._table = self._paths = self._state = None
        self._maps = self._ready = self._stored = self.p = None
