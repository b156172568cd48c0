"""The ``"specialized"`` timing engine: per-(program, config) codegen.

For each (program, machine config) pair this engine generates one Python
function that schedules whole straight-line blocks of the trace at a
time.  The static timing IR (:mod:`repro.sim.timing.ir`) supplies the
block structure; the generator then constant-folds everything the
generic interpreter re-derives per dynamic instruction:

* per-opcode dispatch disappears -- each block body is the unrolled
  sequence of its instructions' scheduling code, entered after a single
  array comparison proves the trace window matches the block;
* instruction classes, latencies, source registers, memory sizes, SBox
  table ids and branch metadata become literals;
* issue/FU checks for unlimited resources are elided entirely, as is the
  whole attribution pass on machines without slot accounting;
* register-ready times live in locals, the byte-map store queue's probes
  are unrolled per access width, and the cache hierarchy's all-hit path
  (TLB hit + next-line resident + L1 hit) is inlined with a pure
  probe-then-commit sequence that leaves the hierarchy state exactly as
  ``MemoryHierarchy.access`` would;
* the stall-label list's ``append`` and the per-instruction wait rows are
  pinned as locals.

The generated code reads and writes the stage components' state exactly
as the generic loop does (:mod:`repro.sim.timing.stages`).  Trace
windows that do not match a block -- chunk-boundary tails, synthetic
traces with explicit ``taken`` flags, static indices outside the program
-- go through that loop, :meth:`GenericPipeline._advance
<repro.sim.timing.generic.GenericPipeline._advance>`, which
:class:`SpecializedPipeline` inherits, so generated and per-entry
segments interleave freely.

Generation is tiered: a pipeline runs on the per-entry loop until it has
fed ``TIER_UP_ATTRIBUTED`` (or ``TIER_UP_PLAIN``) entries per static
instruction, and only then generates its scheduler -- short sessions
never pay for ``compile()``.  A scheduler already in the code cache is
used from entry 0.

The output contract is bit-identical :class:`~repro.sim.stats.SimStats`
against the ``"generic"`` engine for every config, trace and chunking
(``tests/sim/test_timing_engines.py`` is the oracle).  Generated sources
are registered in :mod:`linecache` under ``<repro-timing:...>`` filenames
so tracebacks and the sampling profiler see real lines.
"""

from __future__ import annotations

import linecache
import re
import sys
import time
from array import array
from dataclasses import dataclass, field

from repro.sim.config import MachineConfig
from repro.sim.timing.ir import TimingIR, timing_ir
from repro.sim.timing.generic import GenericPipeline
from repro.sim.timing.stages import _UNLIMITED
from repro.sim.trace import SEQ_TYPECODE

#: Optimization counters incremented by the code generator (the
#: ``--explain`` table and the ``timing`` ledger events surface them).
COUNTER_KEYS = (
    "blocks_unrolled",
    "latencies_folded",
    "fu_checks_elided",
    "issue_checks_elided",
    "attribution_elided",
    "branch_lookaheads_inlined",
    "memory_fast_paths",
    "forward_probes_unrolled",
)


@dataclass
class SpecializationReport:
    """What one (program, config) specialization did: counters, wall time.

    One report per generated scheduler (same key as the code cache);
    ``source_cache_hits`` counts later pipelines served from the cache.
    Surfaced as ``timing`` ledger events (folded into ``timing.*``
    metrics by :class:`repro.obs.views.MetricsView`) and ``riscasim
    --timing-engine specialized --explain``.
    """

    digest: str
    config_name: str
    attributed: bool
    instructions: int
    blocks: int
    source_lines: int
    compile_seconds: float
    counters: dict[str, int] = field(default_factory=dict)
    source_cache_hits: int = 0

    @property
    def mode(self) -> str:
        return "attr" if self.attributed else "plain"


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

_CODE_CACHE: dict = {}
_REPORTS: dict = {}
_SERIAL = [0]
#: Pipelines that finished below their tier-up threshold.
_UNTIERED = [0]


def cache_info() -> dict[str, int]:
    """Size of the (digest, config)-keyed generated-scheduler cache."""
    return {"size": len(_CODE_CACHE)}


def cache_clear() -> None:
    """Drop all cached generated schedulers (for tests/benchmarks)."""
    _CODE_CACHE.clear()
    _REPORTS.clear()
    _UNTIERED[0] = 0


def specialization_reports() -> list[SpecializationReport]:
    """Every specialization this process performed, in compile order."""
    return list(_REPORTS.values())


def untiered_pipelines() -> int:
    """Pipelines this process finished without generating a scheduler."""
    return _UNTIERED[0]


def explain_table(reports: "list[SpecializationReport] | None" = None) -> str:
    """The ``riscasim --timing-engine specialized --explain`` table."""
    reports = specialization_reports() if reports is None else reports
    untiered = untiered_pipelines()
    untiered_line = (
        f"  {untiered} pipeline(s) finished on the per-entry path, below "
        f"the tier-up threshold of {TIER_UP_ATTRIBUTED} (attr) / "
        f"{TIER_UP_PLAIN} (plain) entries per static instruction"
    )
    if not reports:
        head = ("specialized timing engine: no programs specialized "
                "in this process")
        return f"{head}\n{untiered_line}" if untiered else head
    lines = [
        f"specialized timing engine: {len(reports)} specialization(s), "
        f"{sum(r.compile_seconds for r in reports) * 1e3:.1f} ms codegen, "
        f"{sum(r.source_cache_hits for r in reports)} cache hit(s)",
        f"  {'program':<10} {'config':<10} {'mode':<5} {'instr':>6} "
        f"{'lines':>6} {'ms':>6} {'hits':>5}  optimizations",
    ]
    for report in reports:
        opts = ", ".join(
            f"{key.replace('_', ' ')} {report.counters[key]}"
            for key in COUNTER_KEYS if report.counters.get(key)
        ) or "none"
        lines.append(
            f"  {report.digest[:8]:<10} {report.config_name:<10} "
            f"{report.mode:<5} {report.instructions:>6} "
            f"{report.source_lines:>6} "
            f"{report.compile_seconds * 1e3:>6.1f} "
            f"{report.source_cache_hits:>5}  {opts}"
        )
    if untiered:
        lines.append(untiered_line)
    return "\n".join(lines)


def _publish(type: str, data: dict) -> None:
    """Ledger event on the process's active bus, if one is installed.

    No bus can be active before the ledger module is loaded, so a
    process without telemetry never imports it from here.
    """
    ledger = sys.modules.get("repro.obs.events")
    if ledger is not None:
        ledger.publish_event("timing", type, data)


def _static_fingerprint(static, n: int) -> int:
    """Hash of the static metadata the generator bakes into code.

    Synthetic traces may pair a program digest with *different* static
    arrays (e.g. register-remapped interleavings), so the digest alone is
    not a safe cache key for generated schedulers.
    """
    return hash((
        tuple(static.klass[:n]),
        tuple(static.dest[:n]),
        tuple(map(tuple, static.srcs[:n])),
        tuple(map(tuple, static.addr_srcs[:n])),
        tuple(static.is_branch[:n]),
        tuple(static.is_cond_branch[:n]),
        tuple(static.mem_size[:n]),
        tuple(static.sbox_table[:n]),
        tuple(static.sbox_aliased[:n]),
    ))


def _scheduler_key(ir: TimingIR, static, config: MachineConfig) -> tuple:
    """The code-cache key: (program digest, static fingerprint, config)."""
    return (ir.program.digest(),
            _static_fingerprint(static, ir.n_instructions), config)


def specialized_scheduler(ir: TimingIR, static, config: MachineConfig):
    """The generated fast-path function for this (program, config) pair.

    Returns ``(function or None, report or None)``; ``None`` when the
    program has no blocks to specialize (empty program).
    """
    n = ir.n_instructions
    if not ir.blocks:
        return None, None
    key = _scheduler_key(ir, static, config)
    cached = _CODE_CACHE.get(key)
    if cached is not None:
        report = _REPORTS.get(key)
        if report is not None:
            report.source_cache_hits += 1
        _publish("specialize-cache-hit", {
            "digest": key[0][:12], "config": config.name,
        })
        return cached, report
    began = time.perf_counter()
    _SERIAL[0] += 1
    slug = re.sub(r"\W", "_", config.name)
    func_name = f"_timing_{key[0][:8]}_{slug}_{_SERIAL[0]}"
    source, counters, namespace = _generate(ir, static, config, func_name)
    filename = f"<repro-timing:{key[0][:8]}:{config.name}:{_SERIAL[0]}>"
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename,
    )
    exec(compile(source, filename, "exec"), namespace)
    fn = namespace[func_name]
    _CODE_CACHE[key] = fn
    report = _REPORTS[key] = SpecializationReport(
        digest=key[0],
        config_name=config.name,
        attributed=config.issue_width is not None,
        instructions=n,
        blocks=len(ir.blocks),
        source_lines=source.count("\n"),
        compile_seconds=time.perf_counter() - began,
        counters=counters,
    )
    _publish("specialize", {
        "digest": key[0][:12],
        "config": config.name,
        "mode": report.mode,
        "instructions": n,
        "blocks": report.blocks,
        "source_lines": report.source_lines,
        "seconds": round(report.compile_seconds, 6),
        **{k: counters.get(k, 0) for k in COUNTER_KEYS},
    })
    return fn, report


def _pow2(value: int) -> "int | None":
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _div(expr: str, by: int) -> str:
    shift = _pow2(by)
    return f"({expr} >> {shift})" if shift is not None else f"({expr} // {by})"


def _mod(expr: str, by: int) -> str:
    if by == 1:
        return "0"
    shift = _pow2(by)
    return f"({expr} & {by - 1})" if shift is not None else f"({expr} % {by})"


def _generate(ir: TimingIR, static, config: MachineConfig, func_name: str):
    """Emit the fast-path source for one (program, config) pair."""
    counters = {key: 0 for key in COUNTER_KEYS}

    def count(key: str, by: int = 1) -> None:
        counters[key] += by

    lines: list[str] = []

    def limit(value):
        return _UNLIMITED if value is None else value

    issue_width = limit(config.issue_width)
    num_ialu = limit(config.num_ialu)
    num_rot = limit(config.num_rotator)
    mul_slots = limit(config.mul_slots)
    dports = limit(config.dcache_ports)
    retire_width = limit(config.retire_width)
    sbox_ports = limit(config.sbox_cache_ports)
    track_issue = issue_width != _UNLIMITED
    attribute = track_issue
    window = config.window_size
    fetch_width = config.fetch_width
    track_fgu = config.fetch_groups_per_cycle > 1
    perfect_memory = config.perfect_memory
    perfect_alias = config.perfect_alias
    has_predictor = not config.perfect_branch_prediction
    sbox_caches = config.sbox_caches
    lsq = config.lsq_size

    # ---- scan the blocks for which machinery the code needs ---------------
    used_regs: set[int] = set()
    used_sports: set[int] = set()
    uses_hier = uses_sync = uses_pred = False
    uses_dport = uses_ialu = uses_rot = uses_mul = False
    uses_store = uses_fwd = uses_sbmiss = False
    for block in ir.blocks:
        for s in range(block.leader, block.leader + block.length):
            k = static.klass[s]
            used_regs.update(static.srcs[s])
            used_regs.update(static.addr_srcs[s])
            if static.dest[s] >= 0:
                used_regs.add(static.dest[s])
            if k == "load":
                uses_fwd = True
                if not perfect_memory:
                    uses_hier = True
                uses_dport = True
            elif k == "store":
                uses_store = True
                if not perfect_memory:
                    uses_hier = True
                uses_dport = True
            elif k == "sbox":
                if static.sbox_aliased[s]:
                    uses_fwd = True
                    if not perfect_memory:
                        uses_hier = True
                    uses_dport = True
                elif sbox_caches and static.sbox_table[s] < sbox_caches:
                    used_sports.add(static.sbox_table[s] % sbox_caches)
                    uses_sbmiss = True
                else:
                    if not perfect_memory:
                        uses_hier = True
                    uses_dport = True
            elif k == "sync":
                uses_sync = True
            elif k == "ialu":
                uses_ialu = True
            elif k == "rotator":
                uses_rot = True
            elif k in ("mul32", "mul64", "mulmod"):
                uses_mul = True
            if (static.is_branch[s] and static.is_cond_branch[s]
                    and has_predictor):
                uses_pred = True
    uses_dport = uses_dport and dports != _UNLIMITED
    uses_ialu = uses_ialu and num_ialu != _UNLIMITED
    uses_rot = uses_rot and num_rot != _UNLIMITED
    uses_mul = uses_mul and mul_slots != _UNLIMITED
    use_sports = bool(used_sports) and sbox_ports != _UNLIMITED

    def w(indent: int, text: str = "") -> None:
        lines.append("    " * indent + text if text else "")

    # ---- prelude: pin carried state into locals ---------------------------
    w(0, f"def {func_name}(self, seq, addrs, base_pos, lo, hi, next_s):")
    w(1, "fe = self.frontend")
    w(1, "fc = fe.fetch_cycle")
    w(1, "fsu = fe.fetch_slots_used")
    if track_fgu:
        w(1, "fgu = fe.fetch_groups_used")
    w(1, "mpu = fe.mispredict_until")
    w(1, "sch = self.scheduler")
    if track_issue:
        w(1, "iu = sch.issue_used")
        w(1, "iug = iu.get")
    if uses_ialu:
        w(1, "au = sch.ialu_used")
        w(1, "aug = au.get")
    if uses_rot:
        w(1, "ru = sch.rot_used")
        w(1, "rug = ru.get")
    if uses_mul:
        w(1, "mu = sch.mul_used")
        w(1, "mug = mu.get")
    if uses_dport:
        w(1, "du = sch.dport_used")
        w(1, "dug = du.get")
    if use_sports:
        for port in sorted(used_sports):
            w(1, f"sp{port} = sch.sport_used[{port}]")
            w(1, f"spg{port} = sp{port}.get")
    if window:
        w(1, "ring = sch.retire_ring")
    w(1, "rr = sch.reg_ready")
    for reg in sorted(used_regs):
        w(1, f"g{reg} = rr[{reg}]")
    w(1, "rp = sch.retire_prev")
    if retire_width != _UNLIMITED:
        w(1, "rcount = sch.retire_count")
    w(1, "maxc = sch.max_complete")
    w(1, "pm = sch.prune_mark")
    w(1, "mo = self.memorder")
    if not perfect_alias and (uses_store or uses_fwd):
        w(1, "lsk = mo.last_store_addr_known")
    if uses_sync or any(
        static.klass[s] == "sbox" and not static.sbox_aliased[s]
        for b in ir.blocks for s in range(b.leader, b.leader + b.length)
    ):
        w(1, "syncb = mo.sync_barrier")
    if uses_store or uses_fwd:
        w(1, "sm = mo.store_map")
        w(1, "smg = sm.get")
        w(1, "sc = mo.store_count")
    if uses_hier:
        w(1, "H = mo.hierarchy")
        w(1, "HACC = H.access")
        w(1, "LSETS = H.l1.sets")
        w(1, "TSETS = H.tlb.cache.sets")
        w(1, "l1h = 0")
        w(1, "tlbh = 0")
    if use_sports or uses_sync:
        w(1, "sba = mo.sbox_array")
    if use_sports:
        for port in sorted(used_sports):
            w(1, f"sb{port} = sba.caches[{port}]")
    if uses_sync:
        w(1, "sbsync = sba.sync if sba is not None else None")
    if uses_pred:
        w(1, "pred = fe.predictor")
        w(1, "pt = pred.table")
        w(1, "plk = 0")
        w(1, "pmi = 0")
    if attribute:
        w(1, "att = self.attribution")
        w(1, "raa = att.labels.append")
        w(1, "fr = att.frontier")
        w(1, "hot = att.hot")
        w(1, "bexec = self._block_execs")
        w(1, "bumps = []")
        w(1, "ba = bumps.append")
        # Pin the wait row of every static instruction in a block.
        for s in sorted({
            s for b in ir.blocks
            for s in range(b.leader, b.leader + b.length)
        }):
            w(1, f"row{s} = hot[{s}]")
    else:
        count("attribution_elided", ir.n_instructions)
    w(1, "st = self.stats")
    w(1, "d_br = 0")
    w(1, "d_ld = 0")
    w(1, "d_st = 0")
    w(1, "d_sb = 0")
    w(1, "d_sf = 0")
    w(1, "d_mp = 0")
    if uses_sbmiss:
        w(1, "d_sbm = 0")
    w(1, "seq_len = len(seq)")
    w(1, "j = lo")
    w(1, "while j < hi:")
    w(2, "s = seq[j]")

    # ---- shared emission helpers ------------------------------------------
    def emit_issue(ind: int, rq_expr: str, fu) -> None:
        """Inline issue_at: ``fu`` is None or (getter, dict, limit, cost,
        category).

        Emitted as a straight-line common case (free slot and free unit at
        the request cycle) with the bump loop in a rarely-taken branch.
        A unit pool with ``cost == 1`` and ``limit >= issue_width`` can
        never be the binding constraint -- the pool's per-cycle use is
        bounded by the issue count, which the (earlier) issue check keeps
        below the pool limit -- so its checks *and* bookkeeping are elided
        outright.
        """
        w(ind, f"c = {rq_expr}")
        if fu is not None and fu[2] == _UNLIMITED:
            fu = None
        if (fu is not None and track_issue and fu[3] == 1
                and fu[2] >= issue_width):
            count("fu_checks_elided")
            fu = None
        if track_issue and fu is not None:
            getter, dname, fu_limit, cost, cat = fu
            w(ind, "u = iug(c, 0)")
            w(ind, f"fv = {getter}(c, 0)")
            if cost == 1:
                w(ind, f"if u >= {issue_width} or fv >= {fu_limit}:")
            else:
                w(ind, f"if u >= {issue_width} or fv + {cost} > {fu_limit}:")
            if attribute:
                w(ind + 1, "del bumps[:]")
            w(ind + 1, "while 1:")
            w(ind + 2, f"if u >= {issue_width}:")
            if attribute:
                w(ind + 3, "ba(6)")
            w(ind + 2, f"elif fv + {cost} > {fu_limit}:")
            if attribute:
                w(ind + 3, f"ba({cat})")
            w(ind + 2, "else:")
            w(ind + 3, "break")
            w(ind + 2, "c += 1")
            w(ind + 2, "u = iug(c, 0)")
            w(ind + 2, f"fv = {getter}(c, 0)")
            w(ind, "iu[c] = u + 1")
            w(ind, f"{dname}[c] = fv + {cost}")
        elif track_issue:
            w(ind, "u = iug(c, 0)")
            w(ind, f"if u >= {issue_width}:")
            if attribute:
                w(ind + 1, "del bumps[:]")
            w(ind + 1, "while 1:")
            if attribute:
                w(ind + 2, "ba(6)")
            w(ind + 2, "c += 1")
            w(ind + 2, "u = iug(c, 0)")
            w(ind + 2, f"if u < {issue_width}:")
            w(ind + 3, "break")
            w(ind, "iu[c] = u + 1")
        elif fu is not None:
            getter, dname, fu_limit, cost, cat = fu
            w(ind, f"fv = {getter}(c, 0)")
            if cost == 1:
                w(ind, f"while fv >= {fu_limit}:")
            else:
                w(ind, f"while fv + {cost} > {fu_limit}:")
            w(ind + 1, "c += 1")
            w(ind + 1, f"fv = {getter}(c, 0)")
            w(ind, f"{dname}[c] = fv + {cost}")
        else:
            count("issue_checks_elided")

    def emit_hier(ind: int, addr_expr: str, is_store: bool) -> None:
        """Inline the hierarchy's all-hit path; delegate otherwise.

        The probe phase (``in`` tests) mutates nothing, so on any miss the
        delegated ``MemoryHierarchy.access`` call replays the full access
        against untouched state; on the all-hit path the commit applies
        exactly the LRU reorders and hit counts ``access`` would.
        """
        count("memory_fast_paths")
        blk = config.l1_block
        l1_ns = config.l1_size // (config.l1_assoc * config.l1_block)
        tlb_ns = config.tlb_entries // config.tlb_assoc
        w(ind, f"ab = {_div(addr_expr, blk)}")
        w(ind, f"ls = LSETS[{_mod('ab', l1_ns)}]")
        w(ind, f"pg = {_div(addr_expr, config.page_size)}")
        w(ind, f"ts = TSETS[{_mod('pg', tlb_ns)}]")
        w(ind, "if pg in ts and ab in ls and "
               f"ab + 1 in LSETS[{_mod('(ab + 1)', l1_ns)}]:")
        w(ind + 1, "if ts[-1] != pg:")
        w(ind + 2, "ts.remove(pg)")
        w(ind + 2, "ts.append(pg)")
        w(ind + 1, "tlbh += 1")
        w(ind + 1, "if ls[-1] != ab:")
        w(ind + 2, "ls.remove(ab)")
        w(ind + 2, "ls.append(ab)")
        w(ind + 1, "l1h += 1")
        if not is_store:
            w(ind + 1, "ex = 0")
        w(ind, "else:")
        if is_store:
            w(ind + 1, f"HACC({addr_expr}, True)")
        else:
            w(ind + 1, f"ex = HACC({addr_expr})")

    def emit_forward(ind: int, addr_expr: str, size: int) -> None:
        """Unrolled store-map probe: latest live overlapping store."""
        count("forward_probes_unrolled", size)
        w(ind, f"bo = sc - {lsq}")
        w(ind, "fwd = 0")
        for byte in range(size):
            expr = addr_expr if byte == 0 else f"{addr_expr} + {byte}"
            w(ind, f"f = smg({expr})")
            w(ind, "if f is not None and f[0] > bo:")
            w(ind + 1, "bo = f[0]")
            w(ind + 1, "fwd = f[1]")

    def emit_attr(ind: int, s: int, oe_expr: str, rq_expr: str,
                  has_alias: bool) -> None:
        if not attribute:
            return
        # Machine view: label cycles [frontier, issued), appending to the
        # frontier-ordered label list.  The chain tests the upper (common)
        # ranges first; ``bumps`` is guaranteed fresh in its arm because
        # reaching it implies c > request, i.e. this instruction took the
        # contended-issue path which cleared and refilled the list.
        w(ind, "if c > fr:")
        w(ind + 1, "while fr < c:")
        w(ind + 2, f"if fr >= {rq_expr}:")
        w(ind + 3, f"raa(bumps[fr - {rq_expr}])")
        if has_alias:
            w(ind + 2, f"elif fr >= {oe_expr}:")
            w(ind + 3, "raa(5)")
        w(ind + 2, "elif fr >= df:")
        w(ind + 3, "raa(4)")
        w(ind + 2, "elif fr >= en:")
        w(ind + 3, "raa(3)")
        w(ind + 2, "elif fr >= fc:")
        w(ind + 3, "raa(2)")
        w(ind + 2, "elif fr >= mpu:")
        w(ind + 3, "raa(0)")
        w(ind + 2, "else:")
        w(ind + 3, "raa(1)")
        w(ind + 2, "fr += 1")
        # Instruction view: this instruction's wait cycles by category
        # (the pinned row only; the category totals are its column sums,
        # taken at finish).  The bump fold is gated on c != request -- when the
        # issue loop never bumped, ``bumps`` holds a previous
        # instruction's (already consumed) entries.
        w(ind, "if c != en:")
        w(ind + 1, "t = df - en")
        w(ind + 1, "if t:")
        w(ind + 2, f"row{s}[0] += t")
        w(ind + 1, f"t = {oe_expr} - df")
        w(ind + 1, "if t:")
        w(ind + 2, f"row{s}[1] += t")
        if has_alias:
            w(ind + 1, f"t = {rq_expr} - {oe_expr}")
            w(ind + 1, "if t:")
            w(ind + 2, f"row{s}[2] += t")
        w(ind + 1, f"if c != {rq_expr}:")
        w(ind + 2, "for t in bumps:")
        w(ind + 3, f"row{s}[t - 3] += 1")

    first = True
    expects: dict[str, object] = {}
    for block in ir.blocks:
        lead = block.leader
        length = block.length
        cond = "if" if first else "elif"
        first = False
        w(2, f"{cond} s == {lead}:")
        if length > 1:
            name = f"_EX{block.index}"
            expects[name] = array(
                SEQ_TYPECODE, range(lead, lead + length))
            w(3, f"if j + {length} > hi or seq[j:j + {length}] != {name}:")
            w(4, "break")
        w(3, "pos = base_pos + j")
        count("blocks_unrolled")

        n_loads = n_stores = n_sbox = 0
        for i in range(length):
            s = lead + i
            k = static.klass[s]
            count("latencies_folded")
            pos_expr = "pos" if i == 0 else f"(pos + {i})"
            addr_expr = "addrs[j]" if i == 0 else f"addrs[j + {i}]"
            w(3, f"# [{s}] {k}")

            # ---- fetch ---------------------------------------------------
            # ``fc`` doubles as this instruction's fetch cycle (the chain
            # below reads it before any branch redirect can change it).
            # ``fgu`` writes are elided when fetch_groups_per_cycle == 1:
            # the only reader is the multi-group taken-branch arm.
            if fetch_width is not None:
                w(3, f"if fsu >= {fetch_width}:")
                w(4, "fc += 1")
                w(4, "fsu = 1")
                if track_fgu:
                    w(4, "fgu = 0")
                w(3, "else:")
                w(4, "fsu += 1")

            # ---- dispatch / operands -------------------------------------
            depth = config.frontend_depth
            w(3, f"en = fc + {depth}" if depth else "en = fc")
            if window:
                w(3, f"wx = {_mod(pos_expr, window)}")
                w(3, "e = ring[wx]")
                w(3, "if e < en:")
                w(4, "e = en")
            else:
                w(3, "e = en")
            w(3, "df = e")
            for reg in static.srcs[s]:
                w(3, f"t = g{reg}")
                w(3, "if t > e:")
                w(4, "e = t")

            # ---- issue + execute per class -------------------------------
            fu_ialu = ("aug", "au", num_ialu, 1, 7) if uses_ialu else None
            fu_rot = ("rug", "ru", num_rot, 1, 8) if uses_rot else None
            fu_dport = ("dug", "du", dports, 1, 10) if uses_dport else None
            if k == "ialu":
                emit_issue(3, "e", fu_ialu)
                w(3, f"cm = c + {config.alu_latency}")
                emit_attr(3, s, "e", "e", False)
            elif k == "rotator":
                emit_issue(3, "e", fu_rot)
                w(3, f"cm = c + {config.rotator_latency}")
                emit_attr(3, s, "e", "e", False)
            elif k == "mul32":
                fu = (("mug", "mu", mul_slots, config.mul32_cost, 9)
                      if uses_mul else None)
                emit_issue(3, "e", fu)
                w(3, f"cm = c + {config.mul32_latency}")
                emit_attr(3, s, "e", "e", False)
            elif k == "mul64":
                fu = (("mug", "mu", mul_slots, config.mul64_cost, 9)
                      if uses_mul else None)
                emit_issue(3, "e", fu)
                w(3, f"cm = c + {config.mul64_latency}")
                emit_attr(3, s, "e", "e", False)
            elif k == "mulmod":
                fu = (("mug", "mu", mul_slots, config.mulmod_cost, 9)
                      if uses_mul else None)
                emit_issue(3, "e", fu)
                w(3, f"cm = c + {config.mulmod_latency}")
                emit_attr(3, s, "e", "e", False)
            elif k == "load":
                n_loads += 1
                w(3, "oe = e + 1")
                if perfect_alias:
                    w(3, "ar = oe")
                else:
                    w(3, "ar = oe if oe > lsk else lsk")
                w(3, f"a = {addr_expr}")
                emit_forward(3, "a", static.mem_size[s])
                w(3, "if fwd:")
                w(4, "rq = ar if ar > fwd else fwd")
                emit_issue(4, "rq", None)
                w(4, "cm = c + 1")
                w(4, "d_sf += 1")
                w(3, "else:")
                w(4, "rq = ar")
                emit_issue(4, "rq", fu_dport)
                if perfect_memory:
                    w(4, f"cm = c + {config.load_latency - 1}")
                else:
                    emit_hier(4, "a", False)
                    w(4, f"cm = c + ex + {config.load_latency - 1}")
                emit_attr(3, s, "oe", "rq", True)
            elif k == "store":
                n_stores += 1
                w(3, "ak = df")
                for reg in static.addr_srcs[s]:
                    w(3, f"t = g{reg}")
                    w(3, "if t > ak:")
                    w(4, "ak = t")
                w(3, "ak += 1")
                w(3, "rq = e if e > ak else ak")
                emit_issue(3, "rq", fu_dport)
                w(3, f"a = {addr_expr}")
                if not perfect_memory:
                    emit_hier(3, "a", True)
                w(3, f"cm = c + {config.store_latency}")
                if not perfect_alias:
                    w(3, "if ak > lsk:")
                    w(4, "lsk = ak")
                w(3, "sc += 1")
                w(3, "f = (sc, cm)")
                for byte in range(static.mem_size[s]):
                    expr = "a" if byte == 0 else f"a + {byte}"
                    w(3, f"sm[{expr}] = f")
                emit_attr(3, s, "rq", "rq", False)
            elif k == "sbox":
                n_sbox += 1
                w(3, f"a = {addr_expr}")
                if static.sbox_aliased[s]:
                    if perfect_alias:
                        w(3, "ar = e")
                    else:
                        w(3, "ar = e if e > lsk else lsk")
                    emit_forward(3, "a", 4)
                    w(3, "if fwd:")
                    w(4, "rq = ar if ar > fwd else fwd")
                    emit_issue(4, "rq", None)
                    w(4, "cm = c + 1")
                    w(4, "d_sf += 1")
                    w(3, "else:")
                    w(4, "rq = ar")
                    emit_issue(4, "rq", fu_dport)
                    if perfect_memory:
                        w(4, f"cm = c + {config.sbox_dcache_latency}")
                    else:
                        emit_hier(4, "a", False)
                        w(4, f"cm = c + ex + {config.sbox_dcache_latency}")
                    emit_attr(3, s, "e", "rq", True)
                elif (sbox_caches
                      and static.sbox_table[s] < sbox_caches):
                    port = static.sbox_table[s] % sbox_caches
                    w(3, "rq = e if e > syncb else syncb")
                    fu = ((f"spg{port}", f"sp{port}", sbox_ports, 1, 11)
                          if use_sports else None)
                    emit_issue(3, "rq", fu)
                    hit_lat = config.sbox_cache_latency
                    miss_lat = hit_lat + config.sbox_dcache_latency
                    w(3, "t = a & -1024")
                    w(3, f"if sb{port}.tag == t:")
                    w(4, f"v = sb{port}.valid")
                    w(4, "u = (a >> 5) & 31")
                    w(4, "if v[u]:")
                    w(5, f"sb{port}.hits += 1")
                    w(5, f"cm = c + {hit_lat}")
                    w(4, "else:")
                    w(5, "v[u] = True")
                    w(5, f"sb{port}.misses += 1")
                    w(5, "d_sbm += 1")
                    w(5, f"cm = c + {miss_lat}")
                    w(3, "else:")
                    w(4, f"if sb{port}.access(a):")
                    w(5, f"cm = c + {hit_lat}")
                    w(4, "else:")
                    w(5, "d_sbm += 1")
                    w(5, f"cm = c + {miss_lat}")
                    emit_attr(3, s, "e", "rq", True)
                else:
                    w(3, "rq = e if e > syncb else syncb")
                    emit_issue(3, "rq", fu_dport)
                    if perfect_memory:
                        w(3, f"cm = c + {config.sbox_dcache_latency}")
                    else:
                        emit_hier(3, "a", False)
                        w(3, f"cm = c + ex + {config.sbox_dcache_latency}")
                    emit_attr(3, s, "e", "rq", True)
            elif k == "sync":
                emit_issue(3, "e", None)
                w(3, "cm = c + 1")
                w(3, "if sbsync is not None:")
                w(4, f"sbsync({static.sbox_table[s]})")
                w(3, "syncb = cm")
                emit_attr(3, s, "e", "e", False)
            else:
                emit_issue(3, "e", None)
                w(3, f"cm = c + {config.alu_latency}")
                emit_attr(3, s, "e", "e", False)

            # ---- branch resolution / fetch redirect ----------------------
            if static.is_branch[s]:
                nextc = s + 1
                is_cond = static.is_cond_branch[s]
                mispredictable = has_predictor and is_cond
                breaks = (config.fetch_break_on_taken
                          and fetch_width is not None)
                need_taken = mispredictable or breaks
                if need_taken:
                    count("branch_lookaheads_inlined")
                    w(3, f"jn = j + {length}")
                    w(3, "if jn < seq_len:")
                    w(4, f"tk = seq[jn] != {nextc}")
                    w(3, "elif next_s is None:")
                    w(4, "tk = True")
                    w(3, "else:")
                    w(4, f"tk = next_s != {nextc}")
                if mispredictable:
                    slot = s % config.predictor_entries
                    w(3, f"ct = pt[{slot}]")
                    w(3, "if tk:")
                    w(4, "if ct < 3:")
                    w(5, f"pt[{slot}] = ct + 1")
                    w(3, "elif ct > 0:")
                    w(4, f"pt[{slot}] = ct - 1")
                    w(3, "plk += 1")
                    w(3, "if (ct >= 2) != tk:")
                    w(4, "pmi += 1")
                    w(4, "d_mp += 1")
                    w(4, f"t = cm + {config.mispredict_penalty}")
                    w(4, "if t > fc:")
                    w(5, "fc = t")
                    w(5, "fsu = 0")
                    if track_fgu:
                        w(5, "fgu = 0")
                    w(5, "if t > mpu:")
                    w(6, "mpu = t")
                    if breaks:
                        w(3, "elif tk:")
                elif breaks:
                    w(3, "if tk:")
                if breaks:
                    gpc = config.fetch_groups_per_cycle
                    if gpc == 1:
                        w(4, "fc += 1")
                        w(4, "fsu = 0")
                    else:
                        w(4, "fgu += 1")
                        w(4, f"if fgu >= {gpc}:")
                        w(5, "fc += 1")
                        w(5, "fsu = 0")
                        w(5, "fgu = 0")

            # ---- writeback / retire --------------------------------------
            dst = static.dest[s]
            if dst >= 0:
                w(3, f"g{dst} = cm")
            w(3, "if cm > maxc:")
            w(4, "maxc = cm")
            w(3, "r = cm + 1")
            w(3, "if r < rp:")
            w(4, "r = rp")
            if retire_width != _UNLIMITED:
                w(3, "if r == rp:")
                w(4, f"if rcount >= {retire_width}:")
                w(5, "r += 1")
                w(5, "rp = r")
                w(5, "rcount = 1")
                w(4, "else:")
                w(5, "rcount += 1")
                w(3, "else:")
                w(4, "rp = r")
                w(4, "rcount = 1")
            else:
                w(3, "rp = r")
            if window:
                w(3, "ring[wx] = r")

        # ---- per-block bookkeeping ---------------------------------------
        if attribute:
            w(3, f"bexec[{block.index}] += 1")
        if block.branch_end:
            w(3, "d_br += 1")
        if n_loads:
            w(3, f"d_ld += {n_loads}")
        if n_stores:
            w(3, f"d_st += {n_stores}")
        if n_sbox:
            w(3, f"d_sb += {n_sbox}")
        w(3, f"j += {length}")
        last_expr = "pos" if length == 1 else f"pos + {length - 1}"
        w(3, f"if {last_expr} - pm >= {config.prune_interval}:")
        w(4, f"pm = {last_expr}")
        w(4, "t = df if df < rp else rp")
        if attribute:
            w(4, "att.frontier = fr")
        w(4, f"self._prune_maps(t - 8192, "
             f"{'sc' if (uses_store or uses_fwd) else '0'})")
    w(2, "else:")
    w(3, "break")

    # ---- epilogue: write carried state back -------------------------------
    w(1, "fe.fetch_cycle = fc")
    w(1, "fe.fetch_slots_used = fsu")
    if track_fgu:
        w(1, "fe.fetch_groups_used = fgu")
    w(1, "fe.mispredict_until = mpu")
    for reg in sorted(used_regs):
        w(1, f"rr[{reg}] = g{reg}")
    w(1, "sch.retire_prev = rp")
    if retire_width != _UNLIMITED:
        w(1, "sch.retire_count = rcount")
    w(1, "sch.max_complete = maxc")
    w(1, "sch.prune_mark = pm")
    if not perfect_alias and (uses_store or uses_fwd):
        w(1, "mo.last_store_addr_known = lsk")
    if uses_sync or any(
        static.klass[s] == "sbox" and not static.sbox_aliased[s]
        for b in ir.blocks for s in range(b.leader, b.leader + b.length)
    ):
        w(1, "mo.sync_barrier = syncb")
    if uses_store or uses_fwd:
        w(1, "mo.store_count = sc")
    if uses_hier:
        w(1, "if l1h:")
        w(2, "H.l1.hits += l1h")
        w(1, "if tlbh:")
        w(2, "H.tlb.cache.hits += tlbh")
    if uses_pred:
        w(1, "if plk:")
        w(2, "pred.lookups += plk")
        w(1, "if pmi:")
        w(2, "pred.mispredictions += pmi")
    if attribute:
        w(1, "att.frontier = fr")
    w(1, "if d_br:")
    w(2, "st.branches += d_br")
    w(1, "if d_ld:")
    w(2, "st.loads += d_ld")
    w(1, "if d_st:")
    w(2, "st.stores += d_st")
    w(1, "if d_sb:")
    w(2, "st.sbox_accesses += d_sb")
    w(1, "if d_sf:")
    w(2, "st.store_forwards += d_sf")
    w(1, "if d_mp:")
    w(2, "st.mispredictions += d_mp")
    if uses_sbmiss:
        w(1, "if d_sbm:")
        w(2, "st.sbox_cache_misses += d_sbm")
    w(1, "return j")
    w(0, "")

    source = "\n".join(lines)
    return source, counters, dict(expects)


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
        ir = self._ir = timing_ir(static, program)
        self._fast = self.report = None
        #: Entry count at which to generate the scheduler; None once
        #: tiered up (or for an empty program, which has nothing to
        #: specialize).
        self._tier_at: "int | None" = None
        if ir.blocks:
            if _scheduler_key(ir, static, config) in _CODE_CACHE:
                self._tier_up()
            else:
                per_static = (TIER_UP_ATTRIBUTED if self._attribute
                              else TIER_UP_PLAIN)
                # int(): a fractional K (e.g. a Fraction) is allowed and
                # still yields an exact entry count.
                self._tier_at = int(per_static * ir.n_instructions)
        self._block_execs = [0] * len(ir.blocks)
        self._leaders = frozenset(block.leader for block in ir.blocks)

    def _tier_up(self) -> None:
        """Switch to the generated scheduler (from the code cache if there)."""
        self._fast, self.report = specialized_scheduler(
            self._ir, self.static, self.config
        )
        self._tier_at = None

    def _advance(self, seq, addrs, taken_arr, base_pos, lo, hi, next_s):
        # The per-entry loop counts the entries it steps through; the
        # generated code does not, so its runs are counted here.
        step = super()._advance
        if self._tier_at is not None and taken_arr is None:
            split = min(hi, lo + self._tier_at - self._count)
            if split > lo:
                # The entries before the tier point.  The loop reads the
                # lookahead entry seq[split] inside the window, so the
                # split changes nothing.
                step(seq, addrs, None, base_pos, lo, split, next_s)
                lo = split
            if lo == hi:
                return
            self._tier_up()
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

    def _finalize_engine(self):
        if self._tier_at is not None:
            _UNTIERED[0] += 1
            _publish("untiered", {
                "digest": self._ir.program.digest()[:12],
                "config": self.config.name,
                "entries": self._count,
                "tier_at": self._tier_at,
            })
        if not self._attribute:
            return
        # Fold the fast path's per-block execution tallies into the
        # per-instruction counts the hotspot table reads.
        exec_counts = self.attribution.exec_counts
        for block, count in zip(self._ir.blocks, self._block_execs):
            if count:
                for s in range(block.leader, block.leader + block.length):
                    exec_counts[s] += count
        self._block_execs = [0] * len(self._ir.blocks)


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
