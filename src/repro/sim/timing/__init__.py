"""Trace-driven out-of-order timing model, with pluggable engines.

One pass over a dynamic trace assigns every instruction a fetch, issue,
completion and retirement cycle subject to the configured machine's
constraints:

* **Fetch** proceeds in program order at ``fetch_width`` instructions per
  cycle; with ``fetch_break_on_taken``, at most ``fetch_groups_per_cycle``
  taken branches are crossed per cycle (the paper's "1 block/cycle").  A
  mispredicted branch redirects fetch to ``complete + mispredict_penalty``.
* **Dispatch** into the window requires a free slot: instruction *i* may not
  enter until instruction *i - window_size* has retired.
* **Issue** waits for source operands, an issue slot (``issue_width`` per
  cycle) and a functional unit *in the same cycle*: IALUs, rotator/XBOX
  units, multiplier slots (a 64-bit multiply costs ``mul64_cost`` slots),
  data-cache ports, or a per-table SBox-cache port.  Older instructions
  claim slots first because the pass runs in program order -- the same
  priority an age-ordered scheduler gives.
* **Stores** resolve their address one cycle after their base register is
  ready; **loads** obey memory ordering: unless ``perfect_alias``, a load's
  cache access may not start before every prior store's address is known
  (the paper's conservative baseline).  A load overlapping a recent store
  forwards from it.  Non-aliased SBOX instructions skip ordering entirely
  (paper section 5); the aliased form (RC4's) is treated as a load.
* **Completion** adds the operation latency (plus cache-hierarchy extra
  latency when the memory system is realistic).
* **Retirement** is in-order, ``retire_width`` per cycle.

This is the standard cycle-assignment formulation of an out-of-order
machine; DESIGN.md substitution #1 discusses fidelity versus the paper's
execution-driven simulator.  With every constraint disabled (the DF config)
the pass computes the pure dataflow critical path.

**Streaming.**  The pass is organized as a pipeline whose stage components
-- :class:`FrontendState`, :class:`SchedulerState`,
:class:`MemoryOrderState`, :class:`AttributionState` -- carry their state
across :class:`~repro.sim.trace.TraceChunk` boundaries.  The pipeline
consumes any :class:`~repro.sim.trace.TraceSource` (a materialized
:class:`~repro.sim.trace.Trace` or a live
:class:`~repro.sim.machine.StreamingTrace`) chunk by chunk and produces
**bit-identical** :class:`~repro.sim.stats.SimStats` regardless of chunk
size, because every per-instruction decision depends only on carried state
plus at most one entry of lookahead (branch outcomes are inferred from the
next trace entry; the pipeline defers the final entry of each chunk until
the next chunk's first entry arrives).  :func:`simulate` is the one-call
wrapper.  See ``docs/architecture.md`` and ``docs/timing.md``.

**Stall attribution.**  On machines with a finite ``issue_width`` the pass
additionally produces an exact cycle account -- the paper's SimpleView
bottleneck analysis as data.  Every one of the run's
``cycles * issue_width`` issue slots is either used by an instruction or
attributed to exactly one stall category
(:data:`repro.sim.stats.STALL_CATEGORIES`), by blaming each cycle's empty
slots on whatever blocked the *oldest unissued* instruction at that cycle
(the standard attribution discipline of sim-outorder-style accounting):
fetch starvation, misprediction recovery, frontend depth, a full window,
operand waits, memory-ordering/alias stalls, issue-port contention, or a
busy functional-unit pool.  Cycles after the last issue are the
retirement drain.  The invariant

    ``stats.instructions + sum(stats.stall_slots.values())
    == stats.cycles * issue_width == stats.issue_slots``

holds exactly and is enforced by property tests across the cipher suite.
A complementary *instruction view* (``stats.wait_cycles`` plus the
``stats.hotspots`` table) accumulates the cycles each static instruction
spent blocked per category, independent of machine width.

**Engines.**  The scheduler is written once, as stage emitters
(:mod:`repro.sim.timing.scheduler`), and generated twice: with nothing
known, the per-entry loop, one per process; with a program and a config
known, that pair's block scheduler.  Two interchangeable *timing engines*
behind the :class:`TimingEngine` protocol run them:

* ``"specialized"``, the default -- starts every pipeline on the
  per-entry loop and tiers up to the per-(program, config) block
  scheduler over the static timing IR (:mod:`repro.sim.timing.ir`,
  :mod:`repro.sim.timing.specialized`) once the program is hot, falling
  back to the loop wherever a window matches no block; about 1.5x as
  fast on long sessions, and no dearer than the loop on short ones.
* ``"generic"`` -- the per-entry loop alone (:mod:`repro.sim.timing.generic`),
  which never tiers up: the reference the engine tests hold the blocks
  to, and what ``schedule_range`` runs on.

Engines differ only in how fast they advance the stage state; every
result above -- including the stall account -- is engine-invariant.
:func:`generated_source` returns either generated source.

**Views.**  A pipeline observes its config only through
:func:`timing_view`: the program's op table plus every field the loop
reads outside it.  Configs with equal views over a program time every
trace of it alike, up to the name and whether the SBox-cache hit count is
reported (:func:`shared_stats`), so the runner builds one pipeline per
distinct view (:func:`group_by_view`).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.isa.program import Program
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.sim.timing.generic import (
    GenericEngine,
    GenericPipeline,
    group_by_view,
    op_table,
    timing_view,
)
from repro.sim.timing.specialized import (
    SpecializedEngine,
    SpecializedPipeline,
    generated_source,
)
from repro.sim.timing.stages import (
    AttributionState,
    FrontendState,
    MemoryOrderState,
    PipelineBase,
    SchedulerState,
    _hotspot_table,
    shared_stats,
)
from repro.sim.trace import StaticInfo, TraceSource

#: Engine used when callers pass ``engine=None``: the tiering one.
DEFAULT_ENGINE = "specialized"


@runtime_checkable
class TimingEngine(Protocol):
    """One implementation of the timing model.

    ``make_pipeline`` returns a fresh :class:`PipelineBase` subclass
    instance for one run.  Engines must produce bit-identical
    :class:`~repro.sim.stats.SimStats` to the ``"generic"`` reference for
    every machine config, trace and chunk partitioning (the equivalence
    suite in ``tests/sim/test_timing_engines.py`` is the oracle).
    """

    name: str

    def make_pipeline(
        self,
        config: MachineConfig,
        static: StaticInfo,
        program: Program,
        *,
        warm_ranges: "list[tuple[int, int]] | None" = None,
        schedule_range: "tuple[int, int] | None" = None,
        ops: "list[tuple] | None" = None,
    ) -> PipelineBase:  # pragma: no cover - protocol signature
        ...


_ENGINES: dict[str, TimingEngine] = {
    "generic": GenericEngine(),
    "specialized": SpecializedEngine(),
}


def engine_names() -> tuple[str, ...]:
    """Engine names, sorted (for CLI choices and error text)."""
    return tuple(sorted(_ENGINES))


def get_engine(engine: "str | TimingEngine | None") -> TimingEngine:
    """Resolve an engine argument: None, an engine name, or an instance."""
    if engine is None:
        engine = DEFAULT_ENGINE
    if not isinstance(engine, str):
        return engine
    try:
        return _ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown timing engine {engine!r}; registered: "
                         f"{', '.join(engine_names())}") from None


def make_pipeline(
    config: MachineConfig,
    static: StaticInfo,
    program: Program,
    *,
    warm_ranges: "list[tuple[int, int]] | None" = None,
    schedule_range: "tuple[int, int] | None" = None,
    engine: "str | TimingEngine | None" = None,
    ops: "list[tuple] | None" = None,
) -> PipelineBase:
    """A fresh pipeline for one run, from the selected engine.

    ``ops`` is the config's :func:`op_table` over ``static`` when the
    caller has already computed it (:func:`group_by_view` does).
    """
    return get_engine(engine).make_pipeline(
        config, static, program,
        warm_ranges=warm_ranges, schedule_range=schedule_range, ops=ops,
    )


def simulate(
    trace: TraceSource,
    config: MachineConfig,
    warm_ranges: "list[tuple[int, int]] | None" = None,
    schedule_range: "tuple[int, int] | None" = None,
    chunk_size: "int | None" = None,
    engine: "str | TimingEngine | None" = None,
) -> SimStats:
    """Run the timing model over a trace source; returns cycle statistics.

    ``trace`` -- any :class:`~repro.sim.trace.TraceSource`: a materialized
    :class:`~repro.sim.trace.Trace` (the default ``chunk_size=None``
    consumes it as one zero-copy chunk) or a live
    :class:`~repro.sim.machine.StreamingTrace`, which interleaves
    functional execution with timing at bounded memory.

    ``warm_ranges`` -- list of ``(start, length)`` address ranges installed
    into the cache hierarchy before timing begins (the tables and key
    schedules the setup code just wrote; see ``MemoryHierarchy.warm``).

    ``schedule_range`` -- optional ``(start, end)`` trace-position window;
    per-instruction ``(position, static_index, fetch, issue, complete,
    retire)`` tuples for that window are returned in
    ``stats.extra["schedule"]`` (the pipeline-viewer hook).  Capture is
    bounded by ``config.max_schedule_entries``; a clipped window sets
    ``stats.extra["schedule_truncated"]``.

    ``chunk_size`` -- entries per pipeline step; ``None`` lets the source
    pick (a ``Trace`` yields itself whole, a ``StreamingTrace`` uses its
    configured chunk size).  Results are bit-identical for every value.

    ``engine`` -- timing engine: ``None`` (the ``"specialized"``
    default, :data:`DEFAULT_ENGINE`), an engine name, or a
    :class:`TimingEngine` instance.  Results are bit-identical for every
    engine.
    """
    pipeline = make_pipeline(
        config, trace.static, trace.program,
        warm_ranges=warm_ranges, schedule_range=schedule_range,
        engine=engine,
    )
    for chunk in trace.chunks(chunk_size):
        pipeline.feed(chunk)
    return pipeline.finish()


__all__ = [
    "DEFAULT_ENGINE",
    "AttributionState",
    "FrontendState",
    "GenericEngine",
    "GenericPipeline",
    "MemoryOrderState",
    "PipelineBase",
    "SchedulerState",
    "SpecializedEngine",
    "SpecializedPipeline",
    "TimingEngine",
    "engine_names",
    "generated_source",
    "get_engine",
    "group_by_view",
    "make_pipeline",
    "op_table",
    "shared_stats",
    "simulate",
    "timing_view",
    "_hotspot_table",
]
