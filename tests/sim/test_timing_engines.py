"""The two timing engines are interchangeable, bit for bit.

Both scheduling paths come from one set of stage emitters
(``repro.sim.timing.scheduler``): the per-entry loop the ``"generic"``
engine runs, and the per-(program, config) block schedulers of the
``"specialized"`` engine.  Equality between them is therefore no longer
independent evidence of a correct timing model -- the golden cells in
``tests/analysis/test_harnesses.py`` (the long cells on both paths) and
the stage reference models are.  What this grid still checks is what
differs between the two outputs: the block driver and tier-up, chunk
seams, and each inline form the blocks keep (the hierarchy's all-hit
path, the predictor's counter update, the SBox cache's tag check)
against its component's method -- for every cipher, machine model,
chunking and tier-up point, on cycles, the 13-category slot account,
wait-cycle totals and the hot-spot table.  The iteration memo, the
specialized engine's third path, is checked the same way: every cipher,
bounded-window machine and chunking, and random loop programs, with the
memo forced on against the generic engine, plus its bypasses, probation
and report.  It also pins the engines' name lookup and error shape, the
``schedule_range`` fallback, the tiering, specialization report and
cache surfaces, and the generated sources.
"""

import linecache
import traceback
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Features, Imm, KernelBuilder
from repro.kernels import KERNEL_NAMES
from repro.kernels.registry import make_kernel
from repro.obs import EventBus, MetricsRegistry, MetricsView, set_active_bus
from repro.obs.diffing import explain_stats_delta
from repro.obs.events import KNOWN_SOURCES
from repro.sim import (
    DATAFLOW,
    EIGHTW_PLUS,
    FOURW,
    FOURW_PLUS,
    Machine,
    Memory,
)
from repro.sim.config import bottleneck_config
from repro.sim.backends import get_backend
from repro.sim.timing import (
    DEFAULT_ENGINE,
    engine_names,
    generated_source,
    get_engine,
    make_pipeline,
    simulate,
)
from repro.sim.timing import memo as memo_mod
from repro.sim.timing import specialized as specialized_mod
from repro.sim.timing.generic import OP_TABLE_FIELDS, GenericPipeline
from repro.sim.timing.ir import timing_ir
from repro.sim.timing.specialized import SpecializedPipeline
from repro.sim.trace import StaticInfo, Trace, TraceChunk

from .test_timing_properties import random_programs

CONFIGS = (FOURW, EIGHTW_PLUS, DATAFLOW)
#: The grid adds two Figure 5 machines for the issue paths {4W, 8W+, DF}
#: never reach: finite unit pools with untracked issue (``res``), and
#: tracked issue with unlimited pools (``issue``).
GRID_CONFIGS = CONFIGS + (bottleneck_config("res"),
                          bottleneck_config("issue"))
CHUNK_SIZES = (1, 7, 4096, None)
TIER_POINTS = ("entry-0", "mid-block", "chunk-seam", "never")


def _feed(pipeline, trace, chunk_size):
    for chunk in trace.chunks(chunk_size):
        pipeline.feed(chunk)
    return pipeline.finish()


def _stats(kernel_run, config, engine, chunk_size=None):
    trace = kernel_run.trace
    pipeline = make_pipeline(config, trace.static, trace.program,
                             warm_ranges=kernel_run.warm_ranges,
                             engine=engine)
    return _feed(pipeline, trace, chunk_size)


def _tier_entry(point, trace, chunk_size):
    """The trace entry at which ``point`` tiers a pipeline up (or None)."""
    total = len(trace)
    if point == "entry-0":
        return 0
    if point == "never":
        return None
    if point == "chunk-seam":
        # A chunk's final entry is deferred and fed with the next chunk
        # (the trace's last one by finish()): tier up on a carried entry.
        size = chunk_size or total
        seams = [*range(size - 1, total - 1, size), total - 1]
        return seams[len(seams) // 2]
    ir = timing_ir(trace.static, trace.program)
    inside = {s for block in ir.blocks
              for s in range(block.leader + 1, block.leader + block.length)}
    inner = [j for j in range(total) if trace.seq[j] in inside]
    return inner[len(inner) // 2]


class _ColdEntries(dict):
    """Code-cache entries the construction-time probe never finds.

    Schedulers are still shared between cases (``specialized_scheduler``
    reads them with ``get``), but every pipeline tiers up at its pinned
    entry instead of entry 0.
    """

    def __contains__(self, key):
        return False


_COLD_ENTRIES = _ColdEntries()


def _tiered_stats(trace, config, chunk_size, point, warm_ranges=None):
    """Specialized stats with the tier-up pinned at ``point``.

    The module constants become ``entry / n_instructions`` (an exact
    Fraction), and a spy checks the pipeline tiered up exactly there.
    """
    entry = _tier_entry(point, trace, chunk_size)
    n = timing_ir(trace.static, trace.program).n_instructions
    per_static = 10 ** 9 if entry is None else Fraction(entry, n)
    tiered = []
    tier_up = SpecializedPipeline._tier_up

    def spy(pipeline):
        tiered.append(pipeline._count)
        tier_up(pipeline)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specialized_mod, "TIER_UP_ATTRIBUTED", per_static)
        patch.setattr(specialized_mod, "TIER_UP_PLAIN", per_static)
        patch.setattr(specialized_mod.CODE, "_entries", _COLD_ENTRIES)
        patch.setattr(SpecializedPipeline, "_tier_up", spy)
        pipeline = make_pipeline(config, trace.static, trace.program,
                                 warm_ranges=warm_ranges,
                                 engine="specialized")
        stats = _feed(pipeline, trace, chunk_size)
    assert tiered == ([] if entry is None else [entry]), point
    return stats


@pytest.fixture(scope="module")
def kernel_runs():
    """One materialized functional run per cipher, shared by the grid."""
    data = bytes(i & 0xFF for i in range(64))
    return {name: make_kernel(name).encrypt(data) for name in KERNEL_NAMES}


# -- engine equivalence -----------------------------------------------------

@pytest.mark.parametrize("cipher", KERNEL_NAMES)
@pytest.mark.parametrize("config", GRID_CONFIGS, ids=lambda c: c.name)
def test_engines_bit_identical_every_cipher(kernel_runs, cipher, config):
    run = kernel_runs[cipher]
    baseline = _stats(run, config, "generic")
    for chunk_size in CHUNK_SIZES:
        for point in TIER_POINTS:
            specialized = _tiered_stats(run.trace, config, chunk_size, point,
                                        run.warm_ranges)
            assert specialized == baseline, (
                f"{cipher}/{config.name} diverged at chunk_size="
                f"{chunk_size}, tier-up {point}: "
                + explain_stats_delta(baseline, specialized,
                                      "generic", "specialized")
            )


def _issue_slot_invariant(stats):
    if not stats.issue_slots:  # unconstrained (dataflow) machines
        return
    assert stats.instructions + sum(stats.stall_slots.values()) == \
        stats.issue_slots


@given(random_programs(), st.sampled_from(CHUNK_SIZES),
       st.sampled_from(TIER_POINTS))
@settings(max_examples=25, deadline=None)
def test_random_programs_engines_agree(program, chunk_size, point):
    """Both engines, any chunking and tier-up point: identical stats,
    exact slot account."""
    trace = Machine(program, Memory(1 << 13)).execute().trace
    static = StaticInfo.from_program(program)
    generic = make_pipeline(FOURW, static, program, engine="generic")
    results = {
        "generic": _feed(generic, trace, chunk_size),
        "specialized": _tiered_stats(trace, FOURW, chunk_size, point),
    }
    for stats in results.values():
        _issue_slot_invariant(stats)
    assert results["specialized"] == results["generic"], explain_stats_delta(
        results["generic"], results["specialized"], "generic", "specialized")


def test_specialized_handles_taken_branch_slow_path():
    """A loopy trace exercises the generated code's branch lookahead and
    the per-entry loop's repairs around mispredictions."""
    run = make_kernel("RC4").encrypt(bytes(256))
    for config in CONFIGS:
        baseline = _stats(run, config, "generic")
        for point in TIER_POINTS:
            assert _tiered_stats(run.trace, config, 1, point,
                                 run.warm_ranges) == baseline, point


def test_unmatched_windows_take_one_loop_call_per_chunk_seam(monkeypatch):
    """Once tiered up, a chunk seam costs at most three per-entry loop
    calls -- the carried entry, the head of the block the seam split and
    the tail the next chunk's end cuts off -- not one call per entry."""
    run = make_kernel("RC4").encrypt(bytes(2048))
    chunk_size = 4096
    chunks = -(-len(run.trace) // chunk_size)
    calls = []
    step = GenericPipeline._advance

    def spy(pipeline, *args):
        calls.append(args)
        step(pipeline, *args)

    for config in CONFIGS:
        baseline = _stats(run, config, "generic", chunk_size)
        monkeypatch.setattr(GenericPipeline, "_advance", spy)
        stats = _tiered_stats(run.trace, config, chunk_size, "entry-0",
                              run.warm_ranges)
        monkeypatch.undo()
        assert stats == baseline
        assert 0 < len(calls) <= 3 * chunks, (config.name, len(calls))
        calls.clear()


def test_engines_agree_on_full_length_dataflow_session():
    """DF over a whole RC4 16 KiB session (~330k entries) in both engines.

    DF's load/store queue is unbounded, so a long session checks store
    forwarding at a depth the short grid above never reaches; the
    byte-map queue keeps the generic leg well under a second.
    """
    run = make_kernel("RC4").encrypt(bytes(16384))
    baseline = _stats(run, DATAFLOW, "generic", 4096)
    specialized = _stats(run, DATAFLOW, "specialized", 4096)
    assert specialized == baseline, explain_stats_delta(
        baseline, specialized, "generic", "specialized")


# -- the iteration memo -----------------------------------------------------

#: The machines with a bounded window, the only ones that memoize:
#: Figure 10's and Figure 5's ``window``.
MEMO_CONFIGS = (FOURW, FOURW_PLUS, EIGHTW_PLUS, bottleneck_config("window"))
#: A machine small enough that random loops fill its window, load/store
#: queue, caches, TLB and SBox caches, and prune every few entries.
TINY = FOURW_PLUS.with_(
    name="tiny", window_size=16, lsq_size=4, l1_size=512, l1_assoc=1,
    tlb_entries=2, tlb_assoc=1, page_size=256, prune_interval=16,
    retire_width=1, fetch_width=2, fetch_groups_per_cycle=2, mul_slots=1,
    sbox_caches=2)


def _force_memo(patch):
    """Through ``patch``: every bounded-window pipeline memoizes from its
    first loop-header visit and never drops the memo in probation (so
    never tiers up)."""
    patch.setattr(specialized_mod, "MEMO_ENGAGE_VISITS", 0)
    patch.setattr(specialized_mod, "MEMO_ENGAGE_ENTRIES", 0)
    patch.setattr(memo_mod, "PROBATION_HITS", 0)


def _memo_stats(trace, config, chunk_size, warm_ranges=None):
    """``(stats, memo)`` of a specialized pipeline with the memo forced on
    (:func:`_force_memo`) and no scheduler to start from."""
    with pytest.MonkeyPatch.context() as patch:
        _force_memo(patch)
        patch.setattr(specialized_mod.CODE, "_entries", _COLD_ENTRIES)
        pipeline = make_pipeline(config, trace.static, trace.program,
                                 warm_ranges=warm_ranges,
                                 engine="specialized")
        stats = _feed(pipeline, trace, chunk_size)
    assert pipeline.report is None
    return stats, pipeline.memo


@pytest.fixture(scope="module")
def memo_runs():
    """One run per cipher long enough for its loop iterations to repeat:
    256 B is 16 or 32 block-cipher iterations, 256 of RC4's."""
    data = bytes(i & 0xFF for i in range(256))
    return {name: make_kernel(name).encrypt(data) for name in KERNEL_NAMES}


@pytest.mark.parametrize("cipher", KERNEL_NAMES)
@pytest.mark.parametrize("config", MEMO_CONFIGS, ids=lambda c: c.name)
def test_memo_bit_identical_every_cipher(memo_runs, cipher, config):
    """The memo replays hits and runs misses exactly, at any chunking, and
    a chunk seam inside an iteration costs it no hit."""
    run = memo_runs[cipher]
    baseline = _stats(run, config, "generic")
    hits = set()
    for chunk_size in CHUNK_SIZES:
        stats, memo = _memo_stats(run.trace, config, chunk_size,
                                  run.warm_ranges)
        assert memo is not None and memo.kept
        hits.add((memo.iterations, memo.hits, memo.served))
        assert stats.hotspots == baseline.hotspots
        assert stats == baseline, (
            f"{cipher}/{config.name} diverged on the memo at chunk_size="
            f"{chunk_size}: " + explain_stats_delta(baseline, stats,
                                                    "generic", "memo"))
    assert len(hits) == 1, hits


_LOOP_OPS = ("addq", "subq", "xor", "and_", "bis", "sll", "srl", "mull",
             "roll")
_LOADS = (*(("ldq", o) for o in (0, 8, -8, 16)),
          *(("ldl", o) for o in (0, 4, 8, -8, 16)),
          *(("ldbu", o) for o in (0, 4, 8, -8, 16, 5)))
_STORES = tuple(("st" + op[2], offset) for op, offset in _LOADS)


@st.composite
def random_loop_programs(draw):
    """A loop of 20-200 iterations over a pointer that wraps within 256
    bytes: ALU work, loads, stores, SBOX lookups and syncs, data-dependent
    skips and sometimes an inner loop, so iterations both repeat and
    differ."""
    kb = KernelBuilder(Features.OPT)
    regs = kb.regs("a", "b", "c", "d")
    ptr, count, table, inner, base = kb.regs("ptr", "count", "table",
                                             "inner", "base")
    for reg in regs:
        kb.ldiq(reg, draw(st.integers(0, 0xFFFFFFFF)))
    kb.ldiq(ptr, 0x400)
    kb.ldiq(base, 0x400)
    kb.ldiq(table, 0x1000)
    kb.ldiq(count, draw(st.integers(20, 200)))
    kb.label("loop")
    for _ in range(draw(st.integers(1, 12))):
        dst, src, other = (draw(st.sampled_from(regs)) for _ in range(3))
        kind = draw(st.sampled_from(("alu", "alu", "load", "store", "sbox",
                                     "sync", "skip")))
        if kind == "alu":
            op = draw(st.sampled_from(_LOOP_OPS))
            if op in ("sll", "srl", "roll"):
                getattr(kb, op)(dst, src, Imm(draw(st.integers(0, 31))))
            else:
                getattr(kb, op)(dst, src, other)
        elif kind == "load":
            op, offset = draw(st.sampled_from(_LOADS))
            getattr(kb, op)(dst, ptr, offset)
        elif kind == "store":
            op, offset = draw(st.sampled_from(_STORES))
            getattr(kb, op)(src, ptr, offset)
        elif kind == "sbox":
            kb.sbox(dst, table, src, draw(st.integers(0, 3)),
                    draw(st.integers(0, 5)), aliased=draw(st.booleans()))
        elif kind == "sync":
            kb.sboxsync(draw(st.integers(0, 5)))
        else:
            skip = kb.unique_label("skip")
            getattr(kb, draw(st.sampled_from(("beq", "blt", "bge"))))(
                src, skip)
            kb.xor(dst, dst, other)
            if draw(st.booleans()):
                kb.stl(dst, ptr, 4)
            kb.label(skip)
    if draw(st.booleans()):
        kb.and_(inner, regs[0], Imm(3))
        kb.addq(inner, inner, Imm(1))
        kb.label("inner")
        kb.addq(regs[1], regs[1], regs[2])
        kb.stl(regs[1], ptr, 12)
        kb.subq(inner, inner, Imm(1))
        kb.bne(inner, "inner")
    kb.addq(ptr, ptr, Imm(draw(st.sampled_from((0, 8, 24)))))
    kb.and_(ptr, ptr, Imm(0xFF))
    kb.bis(ptr, ptr, base)
    kb.subq(count, count, Imm(1))
    kb.bne(count, "loop")
    kb.halt()
    return kb.build()


@given(random_loop_programs(), st.sampled_from(MEMO_CONFIGS + (TINY,)),
       st.sampled_from(CHUNK_SIZES))
@settings(max_examples=100, deadline=None)
def test_random_loop_programs_memo_agrees(program, config, chunk_size):
    """Loops whose iterations repeat, take different paths, forward
    stores and fill a small machine: the memo matches the generic
    engine at any chunking."""
    trace = Machine(program, Memory(1 << 13)).execute().trace
    static = StaticInfo.from_program(program)
    baseline = _feed(make_pipeline(config, static, program, engine="generic"),
                     trace, None)
    stats, memo = _memo_stats(trace, config, chunk_size)
    assert memo is not None
    assert stats.hotspots == baseline.hotspots
    assert stats == baseline, explain_stats_delta(baseline, stats,
                                                  "generic", "memo")


def test_rc4_drops_its_memo_in_probation_then_tiers_up(private_code_cache):
    """With the shipped constants RC4, whose iterations rarely repeat,
    engages the memo, drops it after probation and tiers up at its count."""
    run = make_kernel("RC4").encrypt(bytes(HOT_SESSION))
    tier_ups = []
    tier_up = SpecializedPipeline._tier_up

    def spy(pipeline):
        tier_ups.append(pipeline._count)
        tier_up(pipeline)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SpecializedPipeline, "_tier_up", spy)
        pipeline = _pipeline(run, FOURW)
        stats = _feed(pipeline, run.trace, None)
    memo = pipeline.memo
    assert memo is not None and not memo.kept
    assert memo.iterations == memo_mod.PROBATION_ITERATIONS
    assert memo.hits < memo_mod.PROBATION_HITS
    n = len(run.trace.program.instructions)
    assert tier_ups == [specialized_mod.TIER_UP_ATTRIBUTED * n]
    assert stats == _stats(run, FOURW, "generic")


def test_memo_engages_at_one_visit_for_any_chunking():
    """The shipped engagement point counts header visits from entry
    ``MEMO_ENGAGE_ENTRIES`` on, with or without stall attribution, so it
    does not move with the chunking."""
    run = make_kernel("Blowfish").encrypt(bytes(512))
    for config in (FOURW, bottleneck_config("window")):
        baseline = _stats(run, config, "generic")
        seen = set()
        for chunk_size in (None, 4096, 7, 1):
            pipeline = _pipeline(run, config)
            assert _feed(pipeline, run.trace, chunk_size) == baseline
            memo = pipeline.memo
            assert memo is not None and memo.kept
            seen.add((memo.iterations, memo.hits))
        assert len(seen) == 1, (config.name, seen)


def test_memo_bypasses(private_code_cache, monkeypatch):
    """Never memoized, even with engagement forced: an unbounded window
    (DF), schedule capture, chunks with explicit branch outcomes, and a
    pipeline whose scheduler was generated before it started.  A memo
    engaged when the first explicit chunk arrives is dropped there."""
    _force_memo(monkeypatch)
    run = make_kernel("Blowfish").encrypt(bytes(256))
    trace = run.trace
    baseline = _stats(run, FOURW, "generic")
    _, memo = _memo_stats(trace, DATAFLOW, None, run.warm_ranges)
    assert memo is None
    capture = make_pipeline(FOURW, trace.static, trace.program,
                            schedule_range=(0, 30), engine="specialized")
    assert type(capture) is GenericPipeline
    # Explicit outcomes equal to the adjacency rule's: the same stats.
    flags = [trace.taken(position) for position in range(len(trace))]
    explicit = Trace(program=trace.program, static=trace.static,
                     seq=trace.seq, addrs=trace.addrs, taken_flags=flags)
    stats, memo = _memo_stats(explicit, FOURW, 4096, run.warm_ranges)
    assert memo is None and stats == baseline
    half = len(trace) // 2
    pipeline = _pipeline(run, FOURW)
    for chunk in trace.chunks(1000):
        if chunk.start >= half:
            end = chunk.start + len(chunk.seq)
            chunk = TraceChunk(seq=chunk.seq, addrs=chunk.addrs,
                               start=chunk.start,
                               taken=explicit.taken_flags[chunk.start:end])
        pipeline.feed(chunk)
    assert pipeline.finish() == baseline
    memo = pipeline.memo
    assert memo.iterations and memo.hits and not memo.engaged
    # Tiered up at construction, from the code cache: no memo.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specialized_mod, "TIER_UP_ATTRIBUTED", 0)
        _feed(_pipeline(run, FOURW), trace, None)
    pipeline = _pipeline(run, FOURW)
    assert pipeline.report is not None
    assert _feed(pipeline, trace, None) == baseline
    assert pipeline.memo is None


def test_memo_reports_in_explain_events_and_metrics(private_code_cache):
    """A kept memo publishes one ``timing``/``memo`` event, prints the
    ``iteration memo:`` line and folds into ``timing.memo_*``; its
    pipeline is not counted below the tier-up threshold."""
    cache = specialized_mod.CODE
    cache.clear()
    run = make_kernel("Blowfish").encrypt(bytes(1024))
    registry, bus = MetricsRegistry(), EventBus()
    events = []
    bus.subscribe(MetricsView(registry))
    bus.subscribe(events.append)
    previous = set_active_bus(bus)
    try:
        pipeline = _pipeline(run, FOURW)
        _feed(pipeline, run.trace, None)
    finally:
        set_active_bus(previous)
    memo = pipeline.memo
    assert memo is not None and memo.kept and memo.hits > 0
    (event,) = [e for e in events if e["source"] == "timing"]
    assert event["type"] == "memo"
    assert "memo" in KNOWN_SOURCES["timing"]
    report = {"iterations": memo.iterations, "hits": memo.hits,
              "entries": len(run.trace), "served": memo.served,
              "keys": memo.keys}
    assert event["data"] == {"digest": run.trace.program.digest()[:12],
                             "config": FOURW.name, **report, "kept": True}
    for name, value in {**report, "pipelines": 1, "kept": 1}.items():
        assert registry.counter(f"timing.memo_{name}").value == value, name
    assert cache.untiered == 0
    share = memo.served / len(run.trace)
    assert (f"iteration memo: 1 pipeline(s), 1 kept; {memo.hits} of "
            f"{memo.iterations} iterations hit, {memo.served} of "
            f"{len(run.trace)} entries served ({share:.1%}), "
            f"{memo.keys} distinct keys") in cache.explain()
    cache.clear()
    assert "iteration memo" not in cache.explain()


# -- generated sources ------------------------------------------------------

def test_generated_loop_is_the_bound_advance_and_reads_units_from_the_op_table():
    source = generated_source()
    namespace = {}
    exec(compile(source, "<repro-timing:loop>", "exec"), namespace)
    bound = GenericPipeline._advance.__code__
    assert bound.co_filename == "<repro-timing:loop>"
    assert namespace["_advance"].__code__.co_code == bound.co_code
    # Units, costs and latencies come only from the op table.
    for name in OP_TABLE_FIELDS:
        assert f".{name}" not in source, name


def test_generated_block_source_compiles_per_program_and_config():
    run = make_kernel("RC4").encrypt(bytes(256))
    program = run.trace.program
    for config in CONFIGS:
        source = generated_source(program, config)
        compile(source, "<blocks>", "exec")
        for name in OP_TABLE_FIELDS:
            assert f".{name}" not in source, name
    # Only a machine with tracked issue attributes stalls.
    assert "raa(" in generated_source(program, FOURW)
    assert "raa(" not in generated_source(program, DATAFLOW)


# -- engine names -----------------------------------------------------------

def test_engine_registry_names_and_default():
    # The default stack tiers up; "generic" is the reference loop.
    assert DEFAULT_ENGINE == "specialized"
    assert set(engine_names()) >= {"generic", "specialized"}
    assert get_engine(None).name == DEFAULT_ENGINE
    assert get_engine("specialized").name == "specialized"
    engine = get_engine("generic")
    assert get_engine(engine) is engine  # instances pass through


def test_registries_share_one_error_shape():
    with pytest.raises(ValueError, match=r"unknown timing engine 'nope'; "
                                         r"registered: generic"):
        get_engine("nope")
    with pytest.raises(ValueError, match=r"unknown backend 'nope'; "
                                         r"registered: compiled"):
        get_backend("nope")


def _small_run():
    return make_kernel("RC4").encrypt(bytes(64))


def test_timing_pipeline_shim_is_gone():
    """The pre-engine ``TimingPipeline`` shim was removed on schedule;
    ``make_pipeline``/``simulate`` are the only constructors."""
    import repro.sim
    import repro.sim.timing
    assert not hasattr(repro.sim.timing, "TimingPipeline")
    assert not hasattr(repro.sim, "TimingPipeline")
    assert "TimingPipeline" not in repro.sim.timing.__all__


# -- schedule_range fallback ------------------------------------------------

def test_specialized_schedule_range_falls_back_to_generic():
    """Window scheduling is a debugging path; the specialized engine
    delegates it so ``--view`` output is engine-independent."""
    run = _small_run()
    trace = run.trace
    pipeline = make_pipeline(FOURW, trace.static, trace.program,
                             schedule_range=(0, 30), engine="specialized")
    assert isinstance(pipeline, GenericPipeline)
    baseline = simulate(trace, FOURW, run.warm_ranges,
                        schedule_range=(0, 30), engine="generic")
    got = simulate(trace, FOURW, run.warm_ranges,
                   schedule_range=(0, 30), engine="specialized")
    assert got.extra["schedule"] == baseline.extra["schedule"]


# -- tiering, specialization reports and cache ------------------------------

def _pipeline(run, config):
    trace = run.trace
    return make_pipeline(config, trace.static, trace.program,
                         warm_ranges=run.warm_ranges, engine="specialized")


def test_specialization_report_and_code_cache(monkeypatch):
    cache = specialized_mod.CODE
    cache.clear()
    run = _small_run()
    n = timing_ir(run.trace.static, run.trace.program).n_instructions
    assert len(run.trace) < specialized_mod.TIER_UP_ATTRIBUTED * n
    # Below its threshold a pipeline stays on the per-entry path.
    pipeline = _pipeline(run, FOURW)
    before = _feed(pipeline, run.trace, None)
    assert len(cache) == 0
    assert pipeline.report is None
    assert cache.untiered == 1
    # Crossing the threshold generates the scheduler exactly once.
    monkeypatch.setattr(specialized_mod, "TIER_UP_ATTRIBUTED", 10)
    pipeline = _pipeline(run, FOURW)
    assert pipeline.report is None
    assert _feed(pipeline, run.trace, 7) == before
    assert len(cache) == 1
    reports = cache.reports()
    assert reports == [pipeline.report]
    report = reports[0]
    assert report.mode == f"{FOURW.name} attr"
    assert report.hits == 0
    # A later pipeline for the same key uses the cached scheduler from
    # entry 0, whatever the threshold.
    monkeypatch.undo()
    pipeline = _pipeline(run, FOURW)
    assert pipeline.report is report
    assert report.hits == 1
    assert _feed(pipeline, run.trace, None) == before
    assert len(cache) == 1
    assert cache.untiered == 1
    assert f"{FOURW.name} attr" in cache.explain()


def test_untiered_pipelines_surface_in_explain_and_metrics():
    cache = specialized_mod.CODE
    cache.clear()
    run = _small_run()
    registry, bus = MetricsRegistry(), EventBus()
    bus.subscribe(MetricsView(registry))
    previous = set_active_bus(bus)
    try:
        for config in CONFIGS:
            _feed(_pipeline(run, config), run.trace, None)
    finally:
        set_active_bus(previous)
    assert cache.reports() == []
    table = cache.explain()
    assert "timing block schedulers: nothing generated" in table
    assert "3 pipeline(s) finished on the per-entry path" in table
    assert f"{specialized_mod.TIER_UP_ATTRIBUTED} (attr)" in table
    assert registry.counter("timing.pipelines_untiered").value == 3
    assert registry.counter("timing.programs").value == 0
    cache.clear()
    assert cache.untiered == 0


# -- the default stack tiers up ---------------------------------------------

#: An RC4 session past every tier-up count: ~40k trace entries, against
#: 800 x 27 for the attributed configs.
HOT_SESSION = 2048


@pytest.fixture
def private_code_cache(monkeypatch):
    """A code cache of the test's own: every scheduler is generated here
    at its pipeline's tier-up count, and none outlives the test."""
    monkeypatch.setattr(specialized_mod.CODE, "_entries", {})


def test_default_simulate_tiers_up_and_matches_generic(private_code_cache):
    run = make_kernel("RC4").encrypt(bytes(HOT_SESSION))
    n = len(run.trace.program.instructions)
    assert len(run.trace) > specialized_mod.TIER_UP_ATTRIBUTED * n
    for count, config in enumerate(CONFIGS, 1):
        stats = simulate(run.trace, config, run.warm_ranges)
        assert stats.extra["timing_engine"] == "specialized"
        assert len(specialized_mod.CODE.reports()) == count
        generic = simulate(run.trace, config, run.warm_ranges,
                           engine="generic")
        assert stats.hotspots == generic.hotspots
        assert stats == generic, explain_stats_delta(
            generic, stats, "generic", "default")


def test_default_runner_tiers_up_and_matches_generic(private_code_cache):
    from repro.isa import Features
    from repro.runner import Experiment, ExperimentOptions, ResultCache, Runner

    options = ExperimentOptions(cipher="RC4", features=Features.OPT,
                                session_bytes=HOT_SESSION)
    experiments = [Experiment(options, config) for config in CONFIGS]
    default = Runner(cache=ResultCache.disabled()).run(experiments)
    assert len(specialized_mod.CODE.reports()) == len(CONFIGS)
    generic = Runner(cache=ResultCache.disabled(),
                     timing_engine="generic").run(experiments)
    for mine, reference in zip(default, generic):
        assert mine.stats.extra["timing_engine"] == "specialized"
        assert mine.stats.hotspots == reference.stats.hotspots
        assert mine.stats == reference.stats, explain_stats_delta(
            reference.stats, mine.stats, "generic", "default")


def test_block_code_tracebacks_show_generated_source_lines(
        private_code_cache, monkeypatch):
    """A block scheduler's ``linecache`` entry keeps no list of lines, yet
    reads as ``generated_source(program, config)`` (up to the function's
    name), so a traceback through block code names its
    ``<repro-timing:...>`` file and shows the line."""
    monkeypatch.setattr(specialized_mod, "TIER_UP_ATTRIBUTED", 0)
    run = make_kernel("RC4").encrypt(bytes(1024))
    trace = run.trace
    pipeline = _pipeline(run, FOURW)

    def boom(horizon, store_count):
        raise RuntimeError("prune")

    # Every prune_interval entries the blocks call this.
    pipeline._prune_maps = boom
    with pytest.raises(RuntimeError, match="prune") as info:
        _feed(pipeline, trace, None)
    (code, lineno), = [
        (frame.f_code, lineno) for frame, lineno
        in traceback.walk_tb(info.value.__traceback__)
        if frame.f_code.co_filename.startswith("<repro-timing:")
        and frame.f_code.co_filename != "<repro-timing:loop>"]
    filename = code.co_filename
    assert not isinstance(linecache.cache[filename][2], list)
    source = generated_source(trace.program, FOURW).replace(
        "def _blocks(", f"def {code.co_name}(", 1)
    assert "".join(linecache.getlines(filename)) == source
    line = source.splitlines()[lineno - 1].strip()
    assert line == "self._prune_maps(t - 8192, sc)"
    formatted = "".join(traceback.format_exception(info.value))
    assert f'File "{filename}", line {lineno}' in formatted
    assert f"\n    {line}\n" in formatted
