"""The scheduler, written once: stage emitters for both scheduling paths.

Each stage of the timing model -- fetch, dispatch and operands, memory
order, issue, stall attribution, branch resolution, writeback and
retire, the prune check -- is one emitter here.  An emitter writes Python
source against *facts*: a config field, an op-table column or a static
instruction field.  A fact is either a literal, known when the code is
generated, or a :class:`Run`, the expression that reads it at run time.
A literal folds into the code and drops dead arms; a Run is emitted as a
test whose two arms are both generated, each with the fact then known
(``_Emitter.split``).  A loop over a literal tuple (an instruction's
source registers, a store's bytes) is unrolled; over a Run it is a
``for``.

Generated with nothing known, the emitters give the per-entry loop, one
per process (:func:`per_entry_loop`), which
:class:`~repro.sim.timing.generic.GenericPipeline` binds as ``_advance``.
Generated with a program and a config known, they give that pair's block
scheduler (:func:`block_scheduler`), one unrolled body per straight-line
block of the static timing IR, which the ``"specialized"`` engine drives.
Both read each instruction's functional unit, cost and latency from the
op table (:func:`~repro.sim.timing.generic.op_table`), and both read and
write the stage components' state (:mod:`repro.sim.timing.stages`), so
the two paths interleave freely and agree bit for bit.

Three stage-component operations keep an inline form in the blocks: the
cache hierarchy's all-hit path, the predictor's 2-bit counter update and
the SBox cache's tag check.  The loop calls ``MemoryHierarchy.access``,
``BimodalPredictor.predict_and_update`` and ``SBoxCacheArray.access``.

The prelude pins into locals the carried state the body names, and the
epilogue writes back what it changed (``_PINS``): in the blocks only the
state they use, in the loop all of it.  Both forms are compiled under
``<repro-timing:...>`` filenames (:func:`repro.sim.codegen.compile_source`).
"""

from __future__ import annotations

import re
from types import SimpleNamespace

from repro.sim.codegen import compile_source
from repro.sim.timing.stages import (
    _C_ALIAS,
    _C_FETCH,
    _C_FRONTEND,
    _C_ISSUE,
    _C_MISPREDICT,
    _C_OPERAND,
    _C_WINDOW,
    _K_EXEC,
    _K_LOAD,
    _K_SBOX,
    _K_SBOX_CACHE,
    _K_STORE,
    _K_SYNC,
    _UNLIMITED,
)

#: Optimization counters the block generator increments (the
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


class Run(str):
    """A fact read at run time: the source expression that reads it."""


def _is(fact, value) -> bool:
    """Whether ``fact`` is known to equal ``value``."""
    return not isinstance(fact, Run) and fact == value


def _not(fact):
    if isinstance(fact, Run):
        return Run(f"not ({fact})" if " " in fact else f"not {fact}")
    return not fact


def _and(a, b):
    if isinstance(a, Run) and isinstance(b, Run):
        return Run(f"{a} and {b}")
    if isinstance(a, Run):
        return a if b else False
    return b if a else False


def _add(a, b):
    if isinstance(a, Run) or isinstance(b, Run):
        return f"{a} + {b}"
    return a + b


def _pow2(value: int) -> "int | None":
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _div(expr: str, by: int) -> str:
    shift = _pow2(by)
    return f"({expr} >> {shift})" if shift is not None else f"({expr} // {by})"


def _mod(expr: str, by) -> str:
    if isinstance(by, Run):
        return f"{expr} % {by}"
    if by == 1:
        return "0"
    shift = _pow2(by)
    return f"({expr} & {by - 1})" if shift is not None else f"({expr} % {by})"


def _limit(value):
    return _UNLIMITED if value is None else value


#: What the stages read of an entry: its op-table row and static fields.
_OP = ("kind", "pool", "limit", "cost", "cat", "latency")
_STATIC = ("srcs", "addr_srcs", "dest", "is_branch", "is_cond_branch",
           "mem_size", "sbox_table", "sbox_aliased")

#: ``(fact, value for a known config, the loop's run-time read)``.
_CONFIG_FACTS = (
    ("window", lambda c: c.window_size, "cfg.window_size"),
    ("depth", lambda c: c.frontend_depth, "cfg.frontend_depth"),
    ("fetch_width", lambda c: c.fetch_width, "cfg.fetch_width"),
    ("fetch_limited", lambda c: c.fetch_width is not None,
     "fetch_width is not None"),
    ("gpc", lambda c: c.fetch_groups_per_cycle, "cfg.fetch_groups_per_cycle"),
    ("breaks", lambda c: c.fetch_break_on_taken and c.fetch_width is not None,
     "cfg.fetch_break_on_taken and fetch_limited"),
    ("perfect_alias", lambda c: c.perfect_alias, "cfg.perfect_alias"),
    ("lsq", lambda c: c.lsq_size, "cfg.lsq_size"),
    ("prune_interval", lambda c: c.prune_interval, "cfg.prune_interval"),
    ("sbox_miss", lambda c: c.sbox_dcache_latency, "cfg.sbox_dcache_latency"),
    ("penalty", lambda c: c.mispredict_penalty, "cfg.mispredict_penalty"),
    # Slot attribution is on exactly when issue is tracked.
    ("tracked", lambda c: c.issue_width is not None, "self._track_issue"),
    ("width", lambda c: _limit(c.issue_width), "self._issue_width"),
    ("retire_width", lambda c: _limit(c.retire_width), "self._retire_width"),
    ("retire_limited", lambda c: c.retire_width is not None,
     f"retire_width != {_UNLIMITED}"),
    ("has_pred", lambda c: not c.perfect_branch_prediction,
     "pred is not None"),
    ("has_hier", lambda c: not c.perfect_memory, "H is not None"),
)

#: ``(local, read on entry, write-back on exit)``, in dependency order.  A
#: local with a group in its name pins every such local the body uses.
_PINS = (
    ("cfg", "self.config", None),
    ("static", "self.static", None),
    ("ops", "self._ops", None),
    *((name, f"static.{name}", None) for name in _STATIC),
    ("seq_len", "len(seq)", None),
    ("fe", "self.frontend", None),
    ("fc", "fe.fetch_cycle", "fe.fetch_cycle = fc"),
    ("fsu", "fe.fetch_slots_used", "fe.fetch_slots_used = fsu"),
    ("fgu", "fe.fetch_groups_used", "fe.fetch_groups_used = fgu"),
    ("mpu", "fe.mispredict_until", "fe.mispredict_until = mpu"),
    ("pred", "fe.predictor", None),
    ("pt", "pred.table", None),
    ("plk", "0", "if plk:\n    pred.lookups += plk"),
    ("pmi", "0", "if pmi:\n    pred.mispredictions += pmi"),
    ("sch", "self.scheduler", None),
    ("iu", "sch.issue_used", None),
    ("iug", "iu.get", None),
    (r"pu_(ialu|rot|mul|dport)", "sch.{}_used", None),
    (r"pu_sbox(\d+)", "sch.sport_used[{}]", None),
    (r"pg_(\w+)", "pu_{}.get", None),
    ("ring", "sch.retire_ring", None),
    ("rr", "sch.reg_ready", None),
    (r"g(\d+)", "rr[{}]", "rr[{0}] = g{0}"),
    ("rp", "sch.retire_prev", "sch.retire_prev = rp"),
    ("rcount", "sch.retire_count", "sch.retire_count = rcount"),
    ("pm", "sch.prune_mark", "sch.prune_mark = pm"),
    ("mo", "self.memorder", None),
    ("lsk", "mo.last_store_addr_known", "mo.last_store_addr_known = lsk"),
    ("syncb", "mo.sync_barrier", "mo.sync_barrier = syncb"),
    ("sm", "mo.store_map", None),
    ("smg", "sm.get", None),
    ("sc", "mo.store_count", "mo.store_count = sc"),
    ("H", "mo.hierarchy", None),
    ("HACC", "H.access if H is not None else None", None),
    ("LSETS", "H.l1.sets", None),
    ("TSETS", "H.tlb.cache.sets", None),
    ("l1h", "0", "if l1h:\n    H.l1.hits += l1h"),
    ("tlbh", "0", "if tlbh:\n    H.tlb.cache.hits += tlbh"),
    ("sba", "mo.sbox_array", None),
    (r"sb(\d+)", "sba.caches[{}]", None),
    ("sbsync", "sba.sync if sba is not None else None", None),
    ("att", "self.attribution", None),
    ("raa", "att.labels.append if att is not None else None", None),
    ("fr", "att.frontier if att is not None else 0",
     "if att is not None:\n    att.frontier = fr"),
    ("hot", "att.hot if att is not None else None", None),
    (r"row(\d+)", "hot[{}]", None),
    (r"h(\d+)_(\d+)", "row{0}[{1}]", "row{0}[{1}] = h{0}_{1}"),
    ("xc", "att.exec_counts if att is not None else None", None),
    ("bexec", "self._block_execs", None),
    ("bumps", "[]", None),
    ("ba", "bumps.append", None),
    ("schedule", "self._schedule", None),
    ("sched_start", "self._sched_start", None),
    ("sched_end", "self._sched_end", None),
    ("st", "self.stats", None),
    *((f"d_{key}", "0", f"if d_{key}:\n    st.{stat} += d_{key}")
      for key, stat in (("br", "branches"), ("ld", "loads"), ("st", "stores"),
                        ("sb", "sbox_accesses"), ("sf", "store_forwards"),
                        ("mp", "mispredictions"),
                        ("sbm", "sbox_cache_misses"))),
    *((name, read, None) for name, _, read in _CONFIG_FACTS),
)

_NAME = re.compile(r"[A-Za-z_]\w*")


class _Emitter:
    """Source for one scheduler: the loop (``config is None``) or blocks."""

    def __init__(self, config=None):
        self.looping = config is None
        self.config = config
        self.f = {name: Run(name) if config is None else value(config)
                  for name, value, _ in _CONFIG_FACTS}
        self.lines: list[str] = []
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self.tally: dict[str, int] = {}

    def w(self, ind: int, text: str = "") -> None:
        self.lines.append("    " * ind + text if text else "")

    def count(self, key: str, by: int = 1) -> None:
        self.counters[key] += by

    def bump(self, ind: int, name: str) -> None:
        """Count one event every execution has: at once in the loop, once
        per block in the blocks."""
        if self.looping:
            self.w(ind, f"{name} += 1")
        else:
            self.tally[name] = self.tally.get(name, 0) + 1

    def split(self, ind: int, fact, test: "str | None" = None):
        """Yield ``(indent, value)`` per value ``fact`` can take: a literal
        once, at ``ind``; a Run as the arms of ``if test:``/``else:``."""
        if not isinstance(fact, Run):
            yield ind, bool(fact)
            return
        lines = self.lines
        self.w(ind, f"if {test or fact}:")
        mark = len(lines)
        yield ind + 1, True
        if len(lines) == mark:
            self.w(ind + 1, "pass")
        self.w(ind, "else:")
        mark = len(lines)
        yield ind + 1, False
        if len(lines) == mark:
            lines.pop()

    def when(self, ind: int, fact):
        """Yield the indent of the arm where ``fact`` holds, if any."""
        for ind, value in self.split(ind, fact):
            if value:
                yield ind

    def each(self, ind: int, var: str, items, body) -> None:
        """``body(ind, item)`` per item: unrolled over a literal sequence,
        a ``for`` loop over a Run."""
        if isinstance(items, Run):
            self.w(ind, f"for {var} in {items}:")
            body(ind + 1, Run(var))
        else:
            for item in items:
                body(ind, item)

    def stage(self, ind: int, name: str) -> None:
        if self.looping:
            self.w(ind, f"# {name}")

    # -- the stages ---------------------------------------------------------

    def instruction(self, ind: int, e) -> None:
        """One trace entry, ``e`` naming what is known of it."""
        if not self.looping:
            self.count("latencies_folded")
        self.fetch(ind)
        self.dispatch(ind, e)
        oe, rq, alias = self.memory(ind, e)
        self.attribute(ind, e, oe, rq, alias)
        self.branch(ind, e)
        self.retire(ind, e)

    def fetch(self, ind: int) -> None:
        """Program-order fetch bandwidth; ``fc`` is this entry's fetch
        cycle until the branch stage redirects it."""
        f = self.f
        self.stage(ind, "fetch")
        for ind in self.when(ind, f["fetch_limited"]):
            self.w(ind, f"if fsu >= {f['fetch_width']}:")
            self.w(ind + 1, "fc += 1")
            self.w(ind + 1, "fsu = 1")
            if not _is(f["gpc"], 1):
                # Only the multi-group taken-branch arm reads ``fgu``.
                self.w(ind + 1, "fgu = 0")
            self.w(ind, "else:")
            self.w(ind + 1, "fsu += 1")

    def dispatch(self, ind: int, e) -> None:
        """Window entry (``df``), then operand readiness (``e``)."""
        f = self.f
        self.stage(ind, "dispatch and operands")
        depth = f["depth"]
        self.w(ind, "en = fc" if _is(depth, 0) else f"en = fc + {depth}")
        for ind2, windowed in self.split(ind, f["window"]):
            if windowed:
                self.w(ind2, f"wx = {_mod(e.pos, f['window'])}")
                self.w(ind2, "e = ring[wx]")
                self.w(ind2, "if e < en:")
                self.w(ind2 + 1, "e = en")
            else:
                self.w(ind2, "e = en")
        self.w(ind, "df = e")
        self.each(ind, "r", e.srcs, lambda ind, r: self.latest(ind, "e", r))

    def latest(self, ind: int, target: str, reg) -> None:
        """``target = max(target, ready cycle of reg)``."""
        if isinstance(reg, Run):
            self.w(ind, f"t = {self.reg(reg)}")
            self.w(ind, f"if t > {target}:")
            self.w(ind + 1, f"{target} = t")
            return
        self.w(ind, f"if {self.reg(reg)} > {target}:")
        self.w(ind + 1, f"{target} = {self.reg(reg)}")

    def reg(self, reg) -> str:
        return f"rr[{reg}]" if isinstance(reg, Run) else f"g{reg}"

    def memory(self, ind: int, e):
        """Memory order, issue and completion (``cm``), per op kind.

        Returns the attribution bounds ``(operand end, request, alias)``:
        [df, operand end) is operand wait, [operand end, request) the
        memory-ordering stall, [request, c) issue or unit contention.
        Cache and SBox-cache state depends on program order only, never
        on the issue cycle, so accesses may follow issue.
        """
        arms = {_K_EXEC: self.execute, _K_LOAD: self.load,
                _K_SBOX: self.sbox, _K_SBOX_CACHE: self.sbox_cache,
                _K_STORE: self.store, _K_SYNC: self.sync}
        if not self.looping:
            return arms[e.kind](ind, e)
        self.stage(ind, "memory order, issue and completion")
        for kind, arm in arms.items():
            name = arm.__name__.replace("_", " ")
            if kind == _K_EXEC:
                self.w(ind, f"if not kind:  # {name}")
            elif kind == _K_SYNC:
                self.w(ind, f"else:  # {name}")
            else:
                self.w(ind, f"elif kind == {kind}:  # {name}")
            oe, rq, _ = arm(ind + 1, e)
            if oe != "oe":
                self.w(ind + 1, f"oe = {oe}")
            if rq != "rq":
                self.w(ind + 1, f"rq = {rq}")
        return "oe", "rq", True

    def execute(self, ind: int, e):
        self.issue(ind, "e", e.pool, e, e.elided)
        self.w(ind, f"cm = c + {e.latency}")
        return "e", "e", False

    def load(self, ind: int, e):
        self.bump(ind, "d_ld")
        # Address generation, then the ordered cache access.
        self.w(ind, "oe = e + 1")
        self.w(ind, f"a = {e.addr}")
        self.ordered(ind, e, "oe", e.mem_size)
        return "oe", "rq", True

    def sbox(self, ind: int, e):
        """An SBOX read on the d-cache path: only the aliased form is
        ordered against stores."""
        self.bump(ind, "d_sb")
        self.w(ind, f"a = {e.addr}")
        for ind, aliased in self.split(ind, e.sbox_aliased):
            if aliased:
                self.ordered(ind, e, "e", 4)
            else:
                self.w(ind, "rq = e if e > syncb else syncb")
                self.issue(ind, "rq", e.pool, e, e.elided)
                self.access(ind, e.latency)
        return "e", "rq", True

    def ordered(self, ind: int, e, start: str, size) -> None:
        """A read ordered against stores: behind every older store address
        unless alias is perfect, forwarded from the latest live
        overlapping store if there is one, else a d-cache access."""
        for ind2, perfect in self.split(ind, self.f["perfect_alias"]):
            self.w(ind2, f"ar = {start}" if perfect
                   else f"ar = {start} if {start} > lsk else lsk")
        self.forward(ind, size)
        self.w(ind, "if fwd:")
        self.w(ind + 1, "rq = ar if ar > fwd else fwd")
        self.issue(ind + 1, "rq", None, e)
        self.w(ind + 1, "cm = c + 1")
        self.w(ind + 1, "d_sf += 1")
        self.w(ind, "else:")
        self.w(ind + 1, "rq = ar")
        self.issue(ind + 1, "rq", e.pool, e, e.elided)
        self.access(ind + 1, e.latency)

    def forward(self, ind: int, size) -> None:
        """Store-map probe of ``size`` bytes at ``a``: the live overlapping
        store with the greatest order above the queue's age barrier."""
        self.w(ind, f"bo = sc - {self.f['lsq']}")
        self.w(ind, "fwd = 0")

        def probe(ind, byte):
            self.w(ind, f"f = smg({byte})")
            self.w(ind, "if f is not None and f[0] > bo:")
            self.w(ind + 1, "bo = f[0]")
            self.w(ind + 1, "fwd = f[1]")

        self.each(ind, "b", self.byte_addrs(size), probe)
        if not isinstance(size, Run):
            self.count("forward_probes_unrolled", size)

    def byte_addrs(self, size):
        if isinstance(size, Run):
            return Run(f"range(a, a + {size})")
        return ["a"] + [f"a + {byte}" for byte in range(1, size)]

    def access(self, ind: int, latency, store: bool = False) -> None:
        """The hierarchy access of ``a``, then completion."""
        for ind, real in self.split(ind, self.f["has_hier"]):
            if real and self.looping:
                self.w(ind, "HACC(a, True)" if store else "ex = HACC(a)")
            elif real:
                self.inline_hierarchy(ind, store)
            extra = "ex + " if real and not store else ""
            self.w(ind, f"cm = c + {extra}{latency}")

    def inline_hierarchy(self, ind: int, store: bool) -> None:
        """The hierarchy's all-hit path inline; delegate otherwise.

        The probe phase (``in`` tests) mutates nothing, so on any miss the
        delegated ``MemoryHierarchy.access`` call replays the full access
        against untouched state; on the all-hit path the commit applies
        exactly the LRU reorders and hit counts ``access`` would.
        """
        config = self.config
        self.count("memory_fast_paths")
        l1_sets = config.l1_size // (config.l1_assoc * config.l1_block)
        tlb_sets = config.tlb_entries // config.tlb_assoc
        self.w(ind, f"ab = {_div('a', config.l1_block)}")
        self.w(ind, f"ls = LSETS[{_mod('ab', l1_sets)}]")
        self.w(ind, f"pg = {_div('a', config.page_size)}")
        self.w(ind, f"ts = TSETS[{_mod('pg', tlb_sets)}]")
        self.w(ind, "if pg in ts and ab in ls and "
                    f"ab + 1 in LSETS[{_mod('(ab + 1)', l1_sets)}]:")
        self.w(ind + 1, "if ts[-1] != pg:")
        self.w(ind + 2, "ts.remove(pg)")
        self.w(ind + 2, "ts.append(pg)")
        self.w(ind + 1, "tlbh += 1")
        self.w(ind + 1, "if ls[-1] != ab:")
        self.w(ind + 2, "ls.remove(ab)")
        self.w(ind + 2, "ls.append(ab)")
        self.w(ind + 1, "l1h += 1")
        if not store:
            self.w(ind + 1, "ex = 0")
        self.w(ind, "else:")
        self.w(ind + 1, "HACC(a, True)" if store else "ex = HACC(a)")

    def sbox_cache(self, ind: int, e):
        """An SBOX read from its table's dedicated SBox cache: behind the
        last SBOXSYNC, a demand fetch from the d-cache on a sector miss."""
        self.bump(ind, "d_sb")
        self.w(ind, f"a = {e.addr}")
        self.w(ind, "rq = e if e > syncb else syncb")
        self.issue(ind, "rq", e.pool, e, e.elided)
        hit = f"cm = c + {e.latency}"
        miss = f"cm = c + {_add(e.latency, self.f['sbox_miss'])}"
        if self.looping:
            self.w(ind, f"if sba.access({e.sbox_table}, a):")
            self.w(ind + 1, hit)
            self.w(ind, "else:")
            self.w(ind + 1, "d_sbm += 1")
            self.w(ind + 1, miss)
            return "e", "rq", True
        # The sector cache's tag check inline; SBoxCache.access otherwise.
        cache = f"sb{e.sbox_table % self.config.sbox_caches}"
        self.w(ind, "t = a & -1024")
        self.w(ind, f"if {cache}.tag == t:")
        self.w(ind + 1, f"v = {cache}.valid")
        self.w(ind + 1, "u = (a >> 5) & 31")
        self.w(ind + 1, "if v[u]:")
        self.w(ind + 2, f"{cache}.hits += 1")
        self.w(ind + 2, hit)
        self.w(ind + 1, "else:")
        self.w(ind + 2, "v[u] = True")
        self.w(ind + 2, f"{cache}.misses += 1")
        self.w(ind + 2, "d_sbm += 1")
        self.w(ind + 2, miss)
        self.w(ind, "else:")
        self.w(ind + 1, f"if {cache}.access(a):")
        self.w(ind + 2, hit)
        self.w(ind + 1, "else:")
        self.w(ind + 2, "d_sbm += 1")
        self.w(ind + 2, miss)
        return "e", "rq", True

    def store(self, ind: int, e):
        """The address resolves when the base register is ready; the data
        enters the store map, live for the next ``lsq`` stores."""
        self.bump(ind, "d_st")
        self.w(ind, "ak = df")
        self.each(ind, "r", e.addr_srcs,
                  lambda ind, r: self.latest(ind, "ak", r))
        self.w(ind, "ak += 1")
        self.w(ind, "rq = e if e > ak else ak")
        self.issue(ind, "rq", e.pool, e, e.elided)
        self.w(ind, f"a = {e.addr}")
        self.access(ind, e.latency, store=True)
        for ind2 in self.when(ind, _not(self.f["perfect_alias"])):
            self.w(ind2, "if ak > lsk:")
            self.w(ind2 + 1, "lsk = ak")
        self.w(ind, "sc += 1")
        self.w(ind, "f = (sc, cm)")
        self.each(ind, "b", self.byte_addrs(e.mem_size),
                  lambda ind, byte: self.w(ind, f"sm[{byte}] = f"))
        return "rq", "rq", False

    def sync(self, ind: int, e):
        self.issue(ind, "e", e.pool, e, e.elided)
        self.w(ind, f"cm = c + {e.latency}")
        self.w(ind, "if sbsync is not None:")
        self.w(ind + 1, f"sbsync({e.sbox_table})")
        self.w(ind, "syncb = cm")
        return "e", "e", False

    def issue(self, ind: int, rq: str, pool, e, elided=False) -> None:
        """``c``: the first cycle >= ``rq`` with an issue slot and room in
        ``pool``, claimed.  The uncontended case is one probe of each; the
        contended walk records in ``bumps`` what blocked each cycle it
        passed (with tracked issue, so with attribution).  ``elided``: the
        op table dropped this op's pool, which can never bind."""
        f = self.f
        width, limit, cost = f["width"], e.limit, e.cost
        if elided:
            self.count("fu_checks_elided")
        self.w(ind, f"c = {rq}")
        for ind, tracked in self.split(ind, f["tracked"]):
            for ind, unit in self.split(ind, pool, f"{pool} is not None"):
                used, get = ((pool, f"{pool}.get") if isinstance(pool, Run)
                             else (f"pu_{pool}", f"pg_{pool}"))
                probes, tests = [], []
                if tracked:
                    probes.append("u = iug(c, 0)")
                    tests.append(f"u >= {width}")
                if unit:
                    probes.append(f"fv = {get}(c, 0)")
                    tests.append(f"fv >= {limit}" if _is(cost, 1)
                                 else f"fv + {cost} > {limit}")
                if not tests:
                    if not self.looping:
                        self.count("issue_checks_elided")
                    continue
                for probe in probes:
                    self.w(ind, probe)
                blocked = " or ".join(tests)
                walk = ind
                if tracked:
                    self.w(ind, f"if {blocked}:")
                    self.w(ind + 1, "del bumps[:]")
                    walk = ind + 1
                self.w(walk, f"while {blocked}:")
                if tracked:
                    why = (f"{_C_ISSUE} if u >= {width} else {e.cat}"
                           if unit else _C_ISSUE)
                    self.w(walk + 1, f"ba({why})")
                self.w(walk + 1, "c += 1")
                for probe in probes:
                    self.w(walk + 1, probe)
                if tracked:
                    # The instruction view of the cycles passed.
                    self.w(walk, "for t in bumps:")
                    self.w(walk + 1, f"{self.row(e)}[t - {_C_WINDOW}] += 1")
                    self.w(ind, "iu[c] = u + 1")
                if unit:
                    self.w(ind, f"{used}[c] = fv + {cost}")

    def attribute(self, ind: int, e, oe: str, rq: str, alias) -> None:
        """Stall attribution, on machines with tracked issue.

        Machine view: label every cycle in [fr, c) with what blocked the
        oldest unissued instruction (cycles below ``fr`` were labeled by
        older instructions), testing the upper, common ranges first;
        ``bumps`` is fresh where it is read, since that means c > rq.
        Instruction view: this instruction's wait cycles by category (the
        issue walk folds in the cycles it passed).
        """
        self.stage(ind, "stall attribution")
        for ind in self.when(ind, self.f["tracked"]):
            if self.looping:
                self.w(ind, "xc[s] += 1")
            else:
                self.tally["executed"] = 1
            # One conditional expression: the same tests as an if/elif
            # chain in about half its tokens, which is what compile()
            # pays for per instruction in the blocks.
            bounds = [(rq, f"bumps[fr - {rq}]")]
            if alias:
                bounds.append((oe, _C_ALIAS))
            bounds += [("df", _C_OPERAND), ("en", _C_WINDOW),
                       ("fc", _C_FRONTEND), ("mpu", _C_FETCH)]
            label = "".join(f"{cat} if fr >= {bound} else "
                            for bound, cat in bounds)
            self.w(ind, "while fr < c:")
            self.w(ind + 1, f"raa({label}{_C_MISPREDICT})")
            self.w(ind + 1, "fr += 1")
            waits = [("df", "en"), (oe, "df")]
            if alias:
                waits.append((rq, oe))
            if not self.looping:
                # A known row keeps its wait columns in locals; every
                # wait is 0 when c == en, so they need no gate.
                for index, (upper, lower) in enumerate(waits):
                    self.w(ind, f"h{e.s}_{index} += {upper} - {lower}")
                continue
            self.w(ind, "if c != en:")
            self.w(ind + 1, "row = hot[s]")
            for index, (upper, lower) in enumerate(waits):
                self.w(ind + 1, f"t = {upper} - {lower}")
                self.w(ind + 1, "if t:")
                self.w(ind + 2, f"row[{index}] += t")

    def row(self, e) -> str:
        """The instruction-view row of ``e``'s static instruction."""
        return "hot[s]" if self.looping else f"row{e.s}"

    def branch(self, ind: int, e) -> None:
        """Branch resolution: a mispredicted branch redirects fetch past
        its completion; a taken one may end the cycle's fetch group."""
        f = self.f
        self.stage(ind, "branch resolution and fetch redirect")
        for ind in self.when(ind, e.is_branch):
            self.bump(ind, "d_br")
            mispredictable = _and(f["has_pred"], e.is_cond_branch)
            breaks = f["breaks"]
            if _is(mispredictable, False) and _is(breaks, False):
                return
            self.taken(ind, e)
            taken = f"tk and {breaks}" if isinstance(breaks, Run) else "tk"
            if _is(mispredictable, False):
                self.w(ind, f"if {taken}:")
                self.fetch_break(ind + 1)
                return
            if self.looping:
                wrong = f"{mispredictable} and not pred.predict_and_update(s, tk)"
            else:
                # The predictor's 2-bit counter update inline.
                slot = e.s % self.config.predictor_entries
                self.w(ind, f"ct = pt[{slot}]")
                self.w(ind, "if tk:")
                self.w(ind + 1, "if ct < 3:")
                self.w(ind + 2, f"pt[{slot}] = ct + 1")
                self.w(ind, "elif ct > 0:")
                self.w(ind + 1, f"pt[{slot}] = ct - 1")
                self.w(ind, "plk += 1")
                wrong = "(ct >= 2) != tk"
            self.w(ind, f"if {wrong}:")
            if not self.looping:
                self.w(ind + 1, "pmi += 1")
            self.w(ind + 1, "d_mp += 1")
            self.w(ind + 1, f"t = cm + {f['penalty']}")
            self.w(ind + 1, "if t > fc:")
            self.w(ind + 2, "fc = t")
            self.w(ind + 2, "fsu = 0")
            if not _is(f["gpc"], 1):
                self.w(ind + 2, "fgu = 0")
            self.w(ind + 2, "if t > mpu:")
            self.w(ind + 3, "mpu = t")
            if not _is(breaks, False):
                self.w(ind, f"elif {taken}:")
                self.fetch_break(ind + 1)

    def taken(self, ind: int, e) -> None:
        """``tk``: explicit when the trace carries outcomes, else inferred
        from the next entry (end of trace: taken)."""
        if not self.looping:
            self.count("branch_lookaheads_inlined")
        after = _add(e.s, 1)
        for ind, explicit in self.split(ind, e.explicit):
            if explicit:
                self.w(ind, "tk = bool(taken_arr[j])")
                continue
            self.w(ind, f"jn = {e.next}")
            self.w(ind, "if jn < seq_len:")
            self.w(ind + 1, f"tk = seq[jn] != {after}")
            self.w(ind, "elif next_s is None:")
            self.w(ind + 1, "tk = True")
            self.w(ind, "else:")
            self.w(ind + 1, f"tk = next_s != {after}")

    def fetch_break(self, ind: int) -> None:
        gpc = self.f["gpc"]
        if _is(gpc, 1):
            self.w(ind, "fc += 1")
            self.w(ind, "fsu = 0")
            return
        self.w(ind, "fgu += 1")
        self.w(ind, f"if fgu >= {gpc}:")
        self.w(ind + 1, "fc += 1")
        self.w(ind + 1, "fsu = 0")
        self.w(ind + 1, "fgu = 0")

    def retire(self, ind: int, e) -> None:
        """Writeback, then in-order retirement at ``retire_width`` per
        cycle: only the frontier cycle ``rp`` can fill (SchedulerState),
        and an entry completing before it retires there if there is room,
        else on the next cycle, which becomes the frontier."""
        f = self.f
        self.stage(ind, "writeback and retire")
        if isinstance(e.dest, Run):
            self.w(ind, f"d = {e.dest}")
            self.w(ind, "if d >= 0:")
            self.w(ind + 1, "rr[d] = cm")
        elif e.dest >= 0:
            self.w(ind, f"g{e.dest} = cm")
        for ind2, limited in self.split(ind, f["retire_limited"]):
            if not limited:
                self.w(ind2, "if cm >= rp:")
                self.w(ind2 + 1, "rp = cm + 1")
                continue
            self.w(ind2, "if cm < rp:")
            self.w(ind2 + 1, f"if rcount >= {f['retire_width']}:")
            self.w(ind2 + 2, "rp += 1")
            self.w(ind2 + 2, "rcount = 1")
            self.w(ind2 + 1, "else:")
            self.w(ind2 + 2, "rcount += 1")
            self.w(ind2, "else:")
            self.w(ind2 + 1, "rp = cm + 1")
            self.w(ind2 + 1, "rcount = 1")
        for ind2 in self.when(ind, f["window"]):
            self.w(ind2, "ring[wx] = rp")
        for ind2 in self.when(ind, e.captured):
            # df is the window entry (fetch throttled by ROB space), the
            # honest "F" column for visualization.
            self.w(ind2, "schedule.append((pos, s, df, c, cm, rp))")

    def prune(self, ind: int, pos: str) -> None:
        """Every ``prune_interval`` entries, fold and drop resource-map
        cycles below the horizon.  ``df`` is monotone in ``pos`` and every
        later probe starts at or above it, so cycles below it are final."""
        self.stage(ind, "prune")
        self.w(ind, f"if {pos} - pm >= {self.f['prune_interval']}:")
        self.w(ind + 1, f"pm = {pos}")
        self.w(ind + 1, "t = df if df < rp else rp")
        for ind2 in self.when(ind + 1, self.f["tracked"]):
            self.w(ind2, "att.frontier = fr")
        self.w(ind + 1, "self._prune_maps(t - 8192, sc)")

    # -- prelude and epilogue -------------------------------------------------

    def function(self, head: list[str], body: list[str],
                 tail: list[str]) -> str:
        """``head``, the pins, ``body``, the write-backs, ``tail``."""
        # Streamed: a findall list would hold every name a body uses.
        used = {m.group() for m in _NAME.finditer("\n".join(body))}
        pins = []
        for name, read, back in reversed(_PINS):
            if "(" in name:
                matches = sorted(
                    (m for m in map(re.compile(name).fullmatch, used) if m),
                    key=lambda m: [(len(g), g) for g in m.groups()])
                found = [(m.group(0), read.format(*m.groups()),
                          back and back.format(*m.groups()))
                         for m in matches]
            else:
                found = [(name, read, back)] if name in used else []
            for pin in found:
                used.update(_NAME.findall(pin[1] + (pin[2] or "")))
            pins[:0] = found
        lines = list(head)
        lines += [f"    {name} = {read}" for name, read, _ in pins]
        lines += body
        lines += ["    " + line for _, _, back in pins if back
                  for line in back.split("\n")]
        lines += tail
        return "\n".join(lines) + "\n"


def _loop_source() -> str:
    em = _Emitter()
    em.w(1, "for j in range(lo, hi):")
    em.w(2, "pos = base_pos + j")
    em.w(2, "s = seq[j]")
    em.w(2, f"{', '.join(_OP)} = ops[s]")
    em.instruction(2, SimpleNamespace(
        s=Run("s"), elided=False, pos="pos", addr="addrs[j]", next="j + 1",
        explicit=Run("taken_arr is not None"),
        captured=Run("schedule is not None and sched_start <= pos < sched_end"),
        **{name: Run(name) for name in _OP},
        **{name: Run(f"{name}[s]") for name in _STATIC}))
    em.prune(2, "pos")
    return em.function(
        ["def _advance(self, seq, addrs, taken_arr, base_pos, lo, hi, "
         "next_s):",
         '    """Process trace entries ``seq[lo:hi]`` (see '
         ':meth:`PipelineBase.feed`)."""'],
        em.lines, ["    self._count += hi - lo"])


#: The per-entry loop's source: the emitters with nothing known.
LOOP_SOURCE = _loop_source()


def per_entry_loop():
    """The per-entry loop, compiled once per process as
    ``<repro-timing:loop>``: ``_advance(self, seq, addrs, taken_arr,
    base_pos, lo, hi, next_s)`` processes trace entries ``seq[lo:hi]``.

    It reads the config and each entry's op and static fields at run time,
    so one loop serves every pipeline.  ``taken_arr`` carries explicit
    branch outcomes when present; otherwise an outcome is inferred from
    the following entry -- ``seq[j + 1]`` in bounds, else ``next_s`` (the
    next chunk's first entry), else taken (``next_s is None``: end of
    trace).
    """
    return compile_source(LOOP_SOURCE, "<repro-timing:loop>", "_advance", {},
                          lambda: LOOP_SOURCE)


def block_scheduler(ir, static, config, ops, untracked, func_name: str):
    """``(source, counters, namespace)`` of one (program, config) block
    scheduler: the emitters with the config, the op table ``ops`` and each
    static instruction known, over the IR's blocks inside a loop.
    ``untracked`` is the op table of the config with untracked issue,
    which tells which unit checks ``ops`` elided.

    The function ``func_name(self, seq, addrs, base_pos, lo, hi, next_s)``
    schedules whole blocks from ``lo`` while the trace window matches one,
    and returns where it stopped.
    """
    em = _Emitter(config)
    expects = {}
    em.w(1, "j = lo")
    em.w(1, "while j < hi:")
    em.w(2, "s = seq[j]")
    if not em.f["tracked"]:
        em.count("attribution_elided",
                 sum(block.length for block in ir.loop_blocks))
    for which, block in enumerate(ir.loop_blocks):
        lead, length = block.leader, block.length
        em.w(2, f"{'elif' if which else 'if'} s == {lead}:")
        if length > 1:
            name = f"_EX{block.index}"
            expects[name] = block.expect
            em.w(3, f"if j + {length} > hi or seq[j:j + {length}] != {name}:")
            em.w(4, "break")
        em.w(3, "pos = base_pos + j")
        em.count("blocks_unrolled")
        for i, s in enumerate(range(lead, lead + length)):
            em.w(3, f"# [{s}] {static.klass[s]}")
            em.instruction(3, SimpleNamespace(
                s=s, elided=ops[s][1] is None and untracked[s][1] is not None,
                pos="pos" if i == 0 else f"(pos + {i})",
                addr="addrs[j]" if i == 0 else f"addrs[j + {i}]",
                next=f"j + {i + 1}", explicit=False, captured=False,
                **dict(zip(_OP, ops[s])),
                **{name: getattr(static, name)[s] for name in _STATIC}))
        # Per-block bookkeeping: the counts every execution adds.
        if em.tally.pop("executed", 0):
            em.w(3, f"bexec[{block.index}] += 1")
        for name in ("d_br", "d_ld", "d_st", "d_sb"):
            if em.tally.get(name):
                em.w(3, f"{name} += {em.tally[name]}")
        em.tally.clear()
        em.w(3, f"j += {length}")
        em.prune(3, "pos" if length == 1 else f"pos + {length - 1}")
    em.w(2, "else:")
    em.w(3, "break")
    source = em.function(
        [f"def {func_name}(self, seq, addrs, base_pos, lo, hi, next_s):"],
        em.lines, ["    return j"])
    return source, em.counters, expects

