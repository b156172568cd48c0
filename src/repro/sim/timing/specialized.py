"""The ``"specialized"`` timing engine: per-(program, config) blocks.

A pipeline of this engine runs each trace window on one of three paths,
all sharing the stage state: the per-entry loop, the generated block
scheduler (once tiered up), or the iteration memo (on a bounded window,
once engaged; :mod:`repro.sim.timing.memo`), which replays the recorded
effect of a loop iteration it has seen before and runs the per-entry
loop on the others.

For each (program, machine config) pair this engine generates one Python
function that schedules whole straight-line blocks of the trace at a
time: the stage emitters of :mod:`repro.sim.timing.scheduler` with the
config, the op table and every static instruction known.  The static
timing IR (:mod:`repro.sim.timing.ir`) supplies the blocks, those inside
a natural loop (code outside every loop runs once); a block body
is entered after one array comparison proves the trace window matches
it, and everything the per-entry loop looks up per entry -- op kind,
unit, cost, latency, source registers, memory sizes, branch metadata,
config fields -- is a literal in it, with dead arms dropped.

Trace windows that do not match a block -- chunk-boundary tails,
synthetic traces with explicit ``taken`` flags, code outside every loop,
static indices outside the program -- go through the per-entry loop,
:meth:`GenericPipeline._advance
<repro.sim.timing.generic.GenericPipeline._advance>`, which
:class:`SpecializedPipeline` inherits, so generated and per-entry
segments interleave freely.

Generation is tiered: a pipeline runs on the per-entry loop until it has
fed ``TIER_UP_ATTRIBUTED`` (or ``TIER_UP_PLAIN``) entries per static
instruction, and only then generates its scheduler -- short sessions
never pay for ``compile()``.  A scheduler already in the code cache is
used from entry 0.

The iteration memo engages at the ``MEMO_ENGAGE_*`` point and drops out
for good in probation when its loop does not repeat; a pipeline tiers up
only while no memo is engaged, so one that keeps its memo never does.

The output contract is bit-identical :class:`~repro.sim.stats.SimStats`
against the ``"generic"`` engine for every config, trace and chunking.
The loop and the blocks come from the same emitters, so the independent
checks are the golden cells (``tests/analysis/test_harnesses.py``, the
long cells on the generic engine, tiered up at entry 0 and on the memo
from the first header visit) and the stage reference models; the
equivalence grid (``tests/sim/test_timing_engines.py``) checks each
inline form against its component's method, and the memo's replay
against the loop.
"""

from __future__ import annotations

import itertools
import re

from repro.sim.codegen import CodeCache, CodegenReport
from repro.sim.config import MachineConfig
from repro.sim.timing.generic import GenericPipeline, op_table
from repro.sim.timing.ir import TimingIR, timing_ir
from repro.sim.timing.scheduler import (
    COUNTER_KEYS,
    LOOP_SOURCE,
    block_scheduler,
)
from repro.sim.trace import StaticInfo

#: Tier-up thresholds, in entries fed per static instruction: a pipeline
#: generates its scheduler once it has fed ``K * n_instructions`` trace
#: entries, i.e. once each static instruction has run about K times.
#: Each is the measured break-even of one-time codegen against the
#: per-entry path (docs/timing.md, "Tiered specialization"): codegen
#: costs ~0.5 ms per static instruction attributed (finite issue width)
#: and ~0.12 ms plain, and saves ~0.65 and ~0.47 us per entry.  Since
#: the per-entry loop got cheaper the single-cell break-even is higher,
#: but the end-to-end optimum still spans 400/100 to 1500/400.
#: Count-based, never time-based, so the tier point is deterministic.
TIER_UP_ATTRIBUTED = 800
TIER_UP_PLAIN = 250
#: Iteration-memo engagement (:mod:`repro.sim.timing.memo`): a pipeline
#: with a bounded window starts memoizing at the first loop-header visit
#: after ``MEMO_ENGAGE_VISITS`` visits made at or after entry
#: ``MEMO_ENGAGE_ENTRIES``.  Both keep the figure suite's 128 B cells off
#: the memo (at most 16 block-cipher iterations; RC4's 128 make ~2,800
#: entries), whose first 18-34 iterations are all distinct anyway.
MEMO_ENGAGE_VISITS = 16
MEMO_ENGAGE_ENTRIES = 4096

#: Fields of the memo totals (``_Schedulers.memo``), the ``timing``/``memo``
#: event and the ``timing.memo_*`` metrics.
MEMO_FIELDS = ("pipelines", "kept", "iterations", "hits", "entries",
               "served", "keys")


class _Schedulers(CodeCache):
    """The block schedulers; the pipelines that finished on the per-entry
    loop below their tier-up count (``untiered``); and the iteration
    memos' totals (``memo``)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.clear()

    def clear(self) -> None:
        super().clear()
        self.untiered = 0
        self.memo = dict.fromkeys(MEMO_FIELDS, 0)

    def explain(self) -> str:
        lines = [super().explain()]
        if self.untiered:
            lines.append(
                f"  {self.untiered} pipeline(s) finished on the per-entry "
                "path, below the tier-up threshold of "
                f"{TIER_UP_ATTRIBUTED} (attr) / {TIER_UP_PLAIN} (plain) "
                "entries per static instruction")
        memo = self.memo
        if memo["pipelines"]:
            share = memo["served"] / memo["entries"] if memo["entries"] else 0
            lines.append(
                f"  iteration memo: {memo['pipelines']} pipeline(s), "
                f"{memo['kept']} kept; {memo['hits']} of "
                f"{memo['iterations']} iterations hit, {memo['served']} of "
                f"{memo['entries']} entries served ({share:.1%}), "
                f"{memo['keys']} distinct keys")
        return "\n".join(lines)


#: Generated schedulers by (program digest, static fingerprint, config),
#: published as ``timing`` ledger events.
CODE = _Schedulers("timing", "timing block schedulers", COUNTER_KEYS)
_SERIAL = itertools.count(1)


def _scheduler_key(static, program, config: MachineConfig) -> tuple:
    """The code-cache key: (program digest, static fingerprint, config).

    Synthetic traces may pair a program digest with *different* static
    arrays (e.g. register-remapped interleavings), so the digest alone is
    not a safe key.  The fingerprint hashes the static metadata the
    generator bakes into code, once per :class:`StaticInfo` (which, like
    the timing IR cached on it, is not changed once built).
    """
    n = len(program.instructions)
    memo = getattr(static, "_timing_fingerprint", None)
    if memo is None or memo[0] != n:
        memo = static._timing_fingerprint = (n, hash((
            tuple(static.klass[:n]),
            tuple(static.dest[:n]),
            tuple(map(tuple, static.srcs[:n])),
            tuple(map(tuple, static.addr_srcs[:n])),
            tuple(static.is_branch[:n]),
            tuple(static.is_cond_branch[:n]),
            tuple(static.mem_size[:n]),
            tuple(static.sbox_table[:n]),
            tuple(static.sbox_aliased[:n]),
        )))
    return program.digest(), memo[1], config


def specialized_scheduler(ir: TimingIR, static, config: MachineConfig):
    """The generated fast-path function for this (program, config) pair.

    Returns ``(function, report)``, or ``(None, None)`` when the program
    has no loop to specialize.
    """
    if not ir.loop_blocks:
        return None, None
    key = _scheduler_key(static, ir.program, config)
    hit = CODE.get(key)
    if hit is not None:
        return hit
    serial = next(_SERIAL)
    slug = re.sub(r"\W", "_", config.name)
    func_name = f"_timing_{key[0][:8]}_{slug}_{serial}"
    mode = "attr" if config.issue_width is not None else "plain"
    return CODE.compile(
        key, CodegenReport(key[0], f"{config.name} {mode}",
                           ir.n_instructions, len(ir.loop_blocks)),
        f"<repro-timing:{key[0][:8]}:{config.name}:{serial}>", func_name,
        lambda: _blocks(ir, static, config, func_name))


def _blocks(ir: TimingIR, static, config: MachineConfig, func_name: str):
    """The block scheduler's ``(source, counters, namespace)``.  The op
    table of the same config with untracked issue tells which unit checks
    the table elides because issue bounds them."""
    return block_scheduler(
        ir, static, config, op_table(config, static),
        op_table(config.with_(issue_width=None), static), func_name,
    )


def generated_source(program=None,
                     config: "MachineConfig | None" = None) -> str:
    """The generated scheduler source, for docs, tests and review.

    With no arguments: the per-entry loop every pipeline runs
    (``GenericPipeline._advance``).  With a finalized program and a
    config: that pair's block scheduler, as the specialized engine
    generates it.
    """
    if program is None:
        return LOOP_SOURCE
    static = StaticInfo.from_program(program)
    source, _, _ = _blocks(timing_ir(static, program), static, config,
                           "_blocks")
    return source


class SpecializedPipeline(GenericPipeline):
    """Block-specialized pipeline: generated fast path over the generic loop.

    ``_advance`` hands each trace window to the generated scheduler, which
    consumes whole matched blocks; whenever the window stops matching (a
    chunk boundary mid-block, a synthetic trace, a static index outside
    the program) the inherited per-entry loop steps up to the next block
    leader in one call and the fast path resumes.  Chunks with explicit
    ``taken`` flags go entirely through that loop.

    Tiered: until the pipeline has fed its tier-up count of entries
    (``TIER_UP_*`` per static instruction) every window goes through the
    per-entry loop, and the window that crosses the count is split there,
    so the scheduler is generated exactly at that entry.  A scheduler
    already in the code cache is used from entry 0.  Both paths share
    all stage state, so the stats do not depend on the tier point.

    Memoized: on a bounded window, the pipeline hands its windows to an
    iteration memo (:mod:`repro.sim.timing.memo`) from the header visit
    at which it engages (``MEMO_ENGAGE_*``) until probation drops it; it
    tiers up only once that happens, at its tier-up count.
    """

    engine_name = "specialized"

    def __init__(
        self,
        config: MachineConfig,
        static,
        program,
        warm_ranges=None,
        schedule_range=None,
        ops=None,
    ):
        if schedule_range is not None:
            raise ValueError(
                "SpecializedPipeline does not capture schedules; "
                "SpecializedEngine.make_pipeline falls back to the generic "
                "engine when schedule_range is given"
            )
        super().__init__(config, static, program, warm_ranges=warm_ranges,
                         ops=ops)
        self._fast = self.report = None
        #: Entry count at which to generate the scheduler; None once
        #: tiered up (or for an empty program, which has nothing to
        #: specialize).
        self._tier_at: "int | None" = None
        #: The iteration memo, once engaged (kept after probation drops
        #: it, for its report).
        self.memo = None
        #: Entry count from which to watch for the memo's engagement; None
        #: when the pipeline never memoizes.
        self._memo_at: "int | None" = None
        self._headers = None
        self._visits = 0
        n = len(program.instructions)
        if n:
            # An empty code cache (every short run) needs no key.
            if CODE and _scheduler_key(static, program, config) in CODE:
                self._tier_up()
            else:
                per_static = (TIER_UP_ATTRIBUTED if self._attribute
                              else TIER_UP_PLAIN)
                # int(): a fractional K (e.g. a Fraction) is allowed and
                # still yields an exact entry count.
                self._tier_at = int(per_static * n)
                # The memo reads every live store a load meets as a
                # forward; the loop does when its data is ready after
                # cycle 0, which a store_latency of 0 does not promise.
                if config.window_size and config.store_latency:
                    self._memo_at = MEMO_ENGAGE_ENTRIES

    def _tier_up(self) -> None:
        """Switch to the generated scheduler (from the code cache if there).

        The timing IR and the block tallies are built here, so a pipeline
        that never tiers up costs what a generic one does.
        """
        ir = timing_ir(self.static, self.program)
        self._fast, self.report = specialized_scheduler(
            ir, self.static, self.config
        )
        self._tier_at = None
        self._blocks = ir.blocks
        self._block_execs = [0] * len(ir.blocks)
        self._leaders = frozenset(block.leader for block in ir.loop_blocks)

    def _advance(self, seq, addrs, taken_arr, base_pos, lo, hi, next_s):
        # The per-entry loop counts the entries it steps through; the
        # generated code does not, so its runs are counted here.
        step = super()._advance
        if self._tier_at is not None:
            if taken_arr is None:
                lo = self._untiered(seq, addrs, base_pos, lo, hi, next_s)
                if lo == hi:
                    return
                self._tier_up()
            elif self.memo is not None and self.memo.engaged:
                # Explicit outcomes are never memoized.
                self.memo.drop(seq[lo])
        fast = self._fast
        if taken_arr is not None or fast is None:
            step(seq, addrs, taken_arr, base_pos, lo, hi, next_s)
            return
        leaders = self._leaders
        j = lo
        while j < hi:
            stop = fast(self, seq, addrs, base_pos, j, hi, next_s)
            self._count += stop - j
            if stop >= hi:
                break
            # The window at ``stop`` matches no block: step the per-entry
            # loop up to the next block leader in one call.
            j = stop + 1
            while j < hi and seq[j] not in leaders:
                j += 1
            step(seq, addrs, None, base_pos, stop, j, next_s)

    def _untiered(self, seq, addrs, base_pos, lo, hi, next_s) -> int:
        """Run the window up to the tier point: on the memo while it is
        engaged, else on the per-entry loop, engaging the memo at its
        header visit.  Returns the tier point, or ``hi``.

        The loop reads the lookahead entry ``seq[split]`` inside the
        window, so splitting it anywhere changes nothing.
        """
        step = GenericPipeline._advance
        memo = self.memo
        while lo < hi:
            if memo is not None and memo.engaged:
                lo = memo.advance(seq, addrs, base_pos, lo, hi, next_s)
                continue
            split = min(hi, lo + self._tier_at - self._count)
            visit = -1
            if self._memo_at is not None and memo is None:
                visit = self._watch(seq, lo, split)
                if visit >= 0:
                    split = visit
            if split > lo:
                step(self, seq, addrs, None, base_pos, lo, split, next_s)
                lo = split
            if visit < 0:
                return lo
            from repro.sim.timing.memo import IterationMemo

            memo = self.memo = IterationMemo(self, self._headers)
        return lo

    def _watch(self, seq, lo: int, hi: int) -> int:
        """The header visit in ``[lo, hi)`` at which the memo engages, or
        -1; counts the visits it passes from entry ``MEMO_ENGAGE_ENTRIES``
        on, so the point does not depend on the chunking."""
        start = lo + max(0, self._memo_at - self._count)
        if start >= hi:
            return -1
        from repro.sim.timing import memo as memo_mod

        headers = self._headers
        if headers is None:
            headers = self._headers = memo_mod.loop_headers(self.program)
            if not headers:
                self._memo_at = None
                return -1
        while True:
            visit = memo_mod.next_visit(seq, headers, start, hi)
            if visit < 0 or self._visits >= MEMO_ENGAGE_VISITS:
                return visit
            self._visits += 1
            start = visit + 1

    def _finalize_engine(self):
        memo = self.memo
        if memo is not None:
            memo.finish()
            self._publish_memo(memo)
            if memo.kept:
                # A kept memo is why the pipeline never tiered up.
                return
        if self._tier_at is not None:
            CODE.untiered += 1
            CODE.publish("untiered", {
                "digest": self.program.digest()[:12],
                "config": self.config.name,
                "entries": self._count,
                "tier_at": self._tier_at,
            })
            return
        if self._fast is None or not self._attribute:
            return
        # Fold the fast path's per-block execution tallies into the
        # per-instruction counts the hotspot table reads.
        exec_counts = self.attribution.exec_counts
        for block, count in zip(self._blocks, self._block_execs):
            if count:
                for s in range(block.leader, block.leader + block.length):
                    exec_counts[s] += count
        self._block_execs = [0] * len(self._blocks)


    def _publish_memo(self, memo) -> None:
        """Add the memo's report to the totals and the run ledger."""
        report = {"pipelines": 1, "kept": int(memo.kept),
                  "iterations": memo.iterations, "hits": memo.hits,
                  "entries": self._count, "served": memo.served,
                  "keys": memo.keys}
        for key, value in report.items():
            CODE.memo[key] += value
        CODE.publish("memo", {
            "digest": self.program.digest()[:12],
            "config": self.config.name,
            **{key: value for key, value in report.items()
               if key not in ("pipelines", "kept")},
            "kept": memo.kept,
        })


class SpecializedEngine:
    """Engine wrapper: specialized pipelines, generic for schedule views.

    Schedule capture (``--view``) wants per-entry `(pos, s, dispatch,
    issue, complete, retire)` tuples, which the block fast path deliberately
    does not materialize, so those runs go to the generic engine.
    """

    name = "specialized"

    def make_pipeline(
        self,
        config,
        static,
        program,
        *,
        warm_ranges=None,
        schedule_range=None,
        ops=None,
    ):
        if schedule_range is not None:
            return GenericPipeline(
                config, static, program, warm_ranges=warm_ranges,
                schedule_range=schedule_range, ops=ops,
            )
        return SpecializedPipeline(
            config, static, program, warm_ranges=warm_ranges, ops=ops,
        )
