"""Stage components and the shared chunk-streaming pipeline base.

The timing model is organized as four stage components --
:class:`FrontendState`, :class:`SchedulerState`, :class:`MemoryOrderState`,
:class:`AttributionState` -- that carry all inter-instruction state across
:class:`~repro.sim.trace.TraceChunk` boundaries, plus a
:class:`PipelineBase` that owns chunk deferral (the one entry of branch
lookahead) and final statistics assembly.  The per-entry loop and the
specialized engine's blocks, both generated from the stage emitters in
:mod:`repro.sim.timing.scheduler`, run over the same stage state.  Each
piece of state has one representation (a byte-map store queue, a scalar
retire frontier, an append-only stall-label list, one pre-created wait row
per static instruction), which is what makes the two paths
interchangeable mid-stream and bit-identical at the end.

See the package docstring (:mod:`repro.sim.timing`) for the model's
scheduling and stall-attribution contracts.
"""

from __future__ import annotations

import copy
from array import array

from repro.isa.program import Program
from repro.sim.branch import BimodalPredictor
from repro.sim.caches import MemoryHierarchy
from repro.sim.config import MachineConfig
from repro.sim.sboxcache import SBoxCacheArray
from repro.sim.stats import STALL_CATEGORIES, WAIT_CATEGORIES, SimStats
from repro.sim.trace import StaticInfo, TraceChunk

_UNLIMITED = 1 << 30

# Stall-category indices (must mirror STALL_CATEGORIES order).
(_C_FETCH, _C_MISPREDICT, _C_FRONTEND, _C_WINDOW, _C_OPERAND, _C_ALIAS,
 _C_ISSUE, _C_FU_IALU, _C_FU_ROT, _C_FU_MUL, _C_FU_MEM, _C_FU_SBOX,
 _C_DRAIN) = range(len(STALL_CATEGORIES))
_N_WAIT = len(WAIT_CATEGORIES)
# Op-table kinds.  Every class whose issue needs only its operands and a
# unit (IALU, rotator, the multiplies, anything unclassified) is _K_EXEC;
# the others carry memory-order or SBox-cache work.
(_K_EXEC, _K_LOAD, _K_SBOX, _K_SBOX_CACHE, _K_STORE, _K_SYNC) = range(6)
#: Instruction-view (wait) index of a stall category: categories _C_WINDOW
#: through _C_FU_SBOX map onto WAIT_CATEGORIES[cat - _C_WINDOW].
_HOTSPOT_LIMIT = 32


class FrontendState:
    """Fetch stage: program-order fetch bandwidth and redirect state."""

    __slots__ = ("fetch_cycle", "fetch_slots_used", "fetch_groups_used",
                 "mispredict_until", "predictor")

    def __init__(self, config: MachineConfig):
        self.fetch_cycle = 0
        self.fetch_slots_used = 0
        self.fetch_groups_used = 0
        self.mispredict_until = 0
        self.predictor = (
            None if config.perfect_branch_prediction
            else BimodalPredictor(config.predictor_entries)
        )


class SchedulerState:
    """Issue/FU/retire bookkeeping: per-cycle resource maps + scoreboard.

    ``reg_ready`` is sized lazily from the static metadata (interleaved
    multi-thread traces remap each thread into its own 32-register window).

    ``retire_prev``/``retire_count`` are the in-order retirement
    frontier: retirement cycles are non-decreasing, so only the frontier
    cycle can ever receive another retirement, and a count of the
    retirements already placed there replaces a per-cycle map.
    """

    __slots__ = ("issue_used", "ialu_used", "rot_used", "mul_used",
                 "dport_used", "sport_used", "reg_ready", "retire_ring",
                 "retire_prev", "retire_count", "prune_mark", "trim_mark")

    def __init__(self, config: MachineConfig, static: StaticInfo):
        self.issue_used: dict[int, int] = {}
        self.ialu_used: dict[int, int] = {}
        self.rot_used: dict[int, int] = {}
        self.mul_used: dict[int, int] = {}
        self.dport_used: dict[int, int] = {}
        self.sport_used = [dict() for _ in range(config.sbox_caches or 0)]
        max_reg = 31
        for d in static.dest:
            if d > max_reg:
                max_reg = d
        for sources in static.srcs:
            for r in sources:
                if r > max_reg:
                    max_reg = r
        self.reg_ready = [0] * (max_reg + 1)
        window = config.window_size
        self.retire_ring = [0] * window if window else None
        self.retire_prev = 0
        self.retire_count = 0
        self.prune_mark = 0
        self.trim_mark = 0


class MemoryOrderState:
    """Memory-ordering/alias stage: store queue, sync barrier, hierarchies.

    The store queue is a byte map, ``store_map``, of
    ``address -> (store_order, data_ready)`` entries plus a running
    ``store_count``.  An entry is live iff its order is within the last
    ``lsq_size`` stores, and a load forwards from the live entry with the
    greatest order among its bytes: the *latest* overlapping store still
    in the queue.  Each probe costs one lookup per accessed byte, however
    deep the queue.
    """

    __slots__ = ("hierarchy", "sbox_array", "last_store_addr_known",
                 "store_map", "store_count", "sync_barrier")

    def __init__(
        self,
        config: MachineConfig,
        warm_ranges: list[tuple[int, int]] | None,
    ):
        self.hierarchy = None
        if not config.perfect_memory:
            self.hierarchy = MemoryHierarchy(
                l1_size=config.l1_size, l1_assoc=config.l1_assoc,
                l1_block=config.l1_block, l2_size=config.l2_size,
                l2_assoc=config.l2_assoc,
                l2_hit_latency=config.l2_hit_latency,
                memory_latency=config.memory_latency,
                tlb_entries=config.tlb_entries, tlb_assoc=config.tlb_assoc,
                page_size=config.page_size,
                tlb_miss_latency=config.tlb_miss_latency,
            )
            for start, length in warm_ranges or ():
                self.hierarchy.warm(start, length)
        self.sbox_array = (
            SBoxCacheArray(config.sbox_caches) if config.sbox_caches else None
        )
        self.last_store_addr_known = 0
        self.store_map: dict[int, tuple[int, int]] = {}
        self.store_count = 0
        self.sync_barrier = 0


class AttributionState:
    """Stall-attribution stage: cycle labels and the running slot account.

    The machine-view ``frontier`` only ever advances and labels each
    cycle exactly once, so the labels are an append-only list:
    ``labels[i]`` is the category of cycle ``labels_base + i``.
    :meth:`flush` folds the finalized prefix into ``stall_slots`` and
    drops it.  Per-instruction waits accumulate in the ``hot`` rows only,
    one pre-created row per static instruction (``hot[s]``; rows that stay
    all zero never reach the hot-spot table); the category totals are
    their column sums, taken at finish.
    """

    __slots__ = ("labels", "labels_base", "stall_slots", "frontier",
                 "flushed_until", "hot", "exec_counts")

    def __init__(self, static: StaticInfo):
        self.labels: list[int] = []
        self.labels_base = 0
        self.stall_slots = [0] * len(STALL_CATEGORIES)
        self.frontier = 0
        self.flushed_until = 0
        self.hot = [[0] * _N_WAIT for _ in static.klass]
        self.exec_counts = [0] * len(static.klass)

    def flush(self, until: int, issue_used: dict, issue_width: int) -> None:
        """Finalize slot counts for cycles below ``until``.

        Safe once no future instruction can issue there (every cycle below
        the prune horizon, and everything at the end of the run).  Cycles
        past the last label are retirement drain.  Flushed ``issue_used``
        entries are popped as they are read, which doubles as the trim of
        that map below the horizon.
        """
        labels = self.labels
        base = self.labels_base
        pop_used = issue_used.pop
        stall_slots = self.stall_slots
        flushed = self.flushed_until
        split = max(flushed, min(until, base + len(labels)))
        cycle = flushed
        for cat in labels[flushed - base:split - base]:
            stall_slots[cat] += issue_width - pop_used(cycle, 0)
            cycle += 1
        for cycle in range(split, until):
            stall_slots[_C_DRAIN] += issue_width - pop_used(cycle, 0)
        self.flushed_until = until
        if until > base:
            del labels[:until - base]
            self.labels_base = until


class PipelineBase:
    """Incremental timing model over a chunked trace stream.

    Feed :class:`~repro.sim.trace.TraceChunk` objects in trace order with
    :meth:`feed`, then call :meth:`finish` for the final
    :class:`~repro.sim.stats.SimStats`.  Results are bit-identical to a
    single-chunk (batch) pass for any chunk partitioning: all stage state
    carries across chunk boundaries, and the one piece of lookahead the
    model needs -- the *next* trace entry, to infer whether a branch was
    taken -- is handled by deferring each chunk's final entry until the
    next chunk (or end of trace, where the outcome defaults to taken,
    matching ``Trace.taken``).  Chunks with explicit ``taken`` flags
    (synthetic interleavings) need no deferral.

    One pipeline consumes one trace; build a fresh pipeline per run.
    Subclasses implement ``_advance``
    (:class:`~repro.sim.timing.generic.GenericPipeline` binds the
    generated per-entry loop).
    """

    #: Name of the engine that built this pipeline.
    engine_name = "generic"

    def __init__(
        self,
        config: MachineConfig,
        static: StaticInfo,
        program: Program,
        warm_ranges: list[tuple[int, int]] | None = None,
        schedule_range: tuple[int, int] | None = None,
    ):
        self.config = config
        self.static = static
        self.program = program
        self.stats = SimStats(config_name=config.name, instructions=0)

        def limit(value):
            return _UNLIMITED if value is None else value

        self._issue_width = limit(config.issue_width)
        self._retire_width = limit(config.retire_width)
        self._track_issue = self._issue_width != _UNLIMITED
        # Slot accounting is defined only when issue bandwidth is finite;
        # with unlimited width there is no fixed slot budget to attribute.
        self._attribute = self._track_issue

        self.frontend = FrontendState(config)
        self.scheduler = SchedulerState(config, static)
        self.memorder = MemoryOrderState(config, warm_ranges)
        self.attribution = (
            AttributionState(static) if self._attribute else None
        )

        self._schedule: list | None = None
        self._sched_start = self._sched_end = 0
        if schedule_range is not None:
            self._schedule = []
            self.stats.extra["schedule"] = self._schedule
            self._sched_start, self._sched_end = schedule_range
            cap = config.max_schedule_entries
            if cap is not None and self._sched_end - self._sched_start > cap:
                self._sched_end = self._sched_start + cap
                self.stats.extra["schedule_truncated"] = True

        #: Deferred final entry of the previous adjacency-mode chunk:
        #: ``(seq, addrs, start, index)`` referencing that chunk's arrays.
        self._carry: tuple[array, array, int, int] | None = None
        self._count = 0
        self._finished = False

    def feed(self, chunk: TraceChunk) -> None:
        """Advance the pipeline over one chunk of trace entries."""
        if self._finished:
            raise RuntimeError(
                f"{type(self).__name__} already finished; build a fresh "
                "pipeline per run (make_pipeline)"
            )
        seq = chunk.seq
        n = len(seq)
        if n == 0:
            return
        if self._carry is not None:
            cseq, caddrs, cstart, cidx = self._carry
            self._carry = None
            self._advance(cseq, caddrs, None, cstart, cidx, cidx + 1, seq[0])
        if chunk.taken is not None:
            # Explicit branch outcomes: no lookahead needed, no deferral.
            self._advance(seq, chunk.addrs, chunk.taken, chunk.start, 0, n,
                          None)
        else:
            if n > 1:
                self._advance(seq, chunk.addrs, None, chunk.start, 0, n - 1,
                              None)
            self._carry = (seq, chunk.addrs, chunk.start, n - 1)

    def finish(self) -> SimStats:
        """Drain the deferred entry and finalize the statistics."""
        if self._finished:
            return self.stats
        self._finished = True
        if self._carry is not None:
            cseq, caddrs, cstart, cidx = self._carry
            self._carry = None
            # End of trace: the final branch outcome defaults to taken,
            # exactly as ``Trace.taken`` defines it.
            self._advance(cseq, caddrs, None, cstart, cidx, cidx + 1, None)
        self._finalize_engine()

        stats = self.stats
        stats.instructions = self._count
        # Provenance stamps: which program's statics the hot-spot table
        # indexes into, and which engine produced the result.  Diff
        # tooling refuses to align hot spots across different digests;
        # SimStats equality ignores both (stats.PROVENANCE_KEYS).
        if self.program.finalized:
            stats.extra["program_digest"] = self.program.digest()
        stats.extra["timing_engine"] = self.engine_name
        if self._count == 0:
            return stats
        scheduler = self.scheduler
        memorder = self.memorder
        frontend = self.frontend
        # Every retirement is at least one cycle past its completion, so
        # the retire frontier is the last cycle of the run.
        stats.cycles = scheduler.retire_prev
        if memorder.hierarchy is not None:
            stats.l1_misses = memorder.hierarchy.l1.misses
            stats.l2_misses = memorder.hierarchy.l2.misses
            stats.tlb_misses = memorder.hierarchy.tlb.misses
        if memorder.sbox_array is not None:
            stats.extra["sbox_cache_hits"] = memorder.sbox_array.total_hits
        if frontend.predictor is not None:
            stats.extra["predictor_lookups"] = frontend.predictor.lookups

        if self._attribute:
            attribution = self.attribution
            attribution.flush(stats.cycles, scheduler.issue_used,
                              self._issue_width)
            stats.issue_slots = stats.cycles * self._issue_width
            stats.stall_slots = {
                name: attribution.stall_slots[index]
                for index, name in enumerate(STALL_CATEGORIES)
            }
            wait_totals = [sum(column) for column
                           in zip(*attribution.hot)] or [0] * _N_WAIT
            stats.wait_cycles = dict(zip(WAIT_CATEGORIES, wait_totals))
            stats.hotspots = _hotspot_table(
                self.program, attribution.hot, attribution.exec_counts
            )
            ranked = sum(1 for waits in attribution.hot if sum(waits))
            if ranked > len(stats.hotspots):
                # Per-static deltas over a clipped table can't sum to the
                # category totals; diff reports read this to say so.
                stats.extra["hotspots_truncated"] = True
        return stats

    def _finalize_engine(self) -> None:
        """Hook: fold engine-private accumulators into the stage state.

        Called by :meth:`finish` after the deferred final entry is drained
        and before the statistics are assembled.
        """

    def _advance(
        self,
        seq,
        addrs,
        taken_arr,
        base_pos: int,
        lo: int,
        hi: int,
        next_s,
    ) -> None:  # pragma: no cover - abstract
        """Process trace entries ``seq[lo:hi]``."""
        raise NotImplementedError


def shared_stats(stats: SimStats, config: MachineConfig) -> SimStats:
    """What ``config``'s own pipeline would have reported, given ``stats``
    from a pipeline whose timing view equals ``config``'s
    (:func:`~repro.sim.timing.generic.timing_view`).

    Equal views time every entry alike, so only two things can differ:
    the config name, and ``extra["sbox_cache_hits"]``, which
    :meth:`PipelineBase.finish` reports exactly when the machine has SBox
    caches.  Views whose ``sbox_caches`` differ have no SBox-cache access,
    so the count is then 0.
    """
    shared = copy.deepcopy(stats)
    shared.config_name = config.name
    if config.sbox_caches and stats.instructions:
        shared.extra.setdefault("sbox_cache_hits", 0)
    else:
        shared.extra.pop("sbox_cache_hits", None)
    return shared


def _hotspot_table(program: Program, hot: list, exec_counts: list) -> list[dict]:
    """Rank static instructions by accumulated wait cycles (top N).

    Window-entry waits rank last: they measure the machine's dispatch
    backlog, which every instruction in a saturated loop shares equally,
    so operand/alias/contention waits -- the paper's actual per-operation
    bottlenecks -- are the primary sort key.
    """
    # ``hot`` holds one row per static instruction in index order, so the
    # stable sort breaks ties by static index; all-zero rows sort last
    # and are skipped below.
    ranked = sorted(
        enumerate(hot),
        key=lambda item: (-sum(item[1][1:]), -sum(item[1])),
    )[:_HOTSPOT_LIMIT]
    # Synthetic traces (e.g. the multisession interleaver) carry static
    # entries beyond their nominal program's instruction list.
    instructions = program.instructions
    table = []
    for static_index, waits in ranked:
        total = sum(waits)
        if not total:
            continue
        table.append({
            "static_index": static_index,
            "text": (instructions[static_index].render()
                     if static_index < len(instructions)
                     else f"static[{static_index}]"),
            "executions": exec_counts[static_index],
            "total_wait_cycles": total,
            "wait_cycles": {
                name: waits[index]
                for index, name in enumerate(WAIT_CATEGORIES)
                if waits[index]
            },
        })
    return table

