"""Result record for one timing simulation."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: Issue-slot stall categories, in display order.  Every issue slot of every
#: cycle on a finite-issue-width machine is either used by an instruction or
#: attributed to exactly one of these (see ``docs/observability.md`` for the
#: definitions and their mapping to the paper's bottleneck terminology).
STALL_CATEGORIES = (
    "fetch",        # no fetched-but-unissued instruction exists (fetch-limited)
    "mispredict",   # ... because fetch is recovering from a misprediction
    "frontend",     # oldest unissued instruction still in the fetch pipeline
    "window",       # oldest unissued instruction waiting for a window slot
    "operand",      # waiting for source operands (incl. address generation)
    "alias",        # memory-ordering/alias/sync stall (paper section 5)
    "issue_width",  # ready, but all issue slots in the cycle were taken
    "fu_ialu",      # ready, but every integer ALU was busy
    "fu_rot",       # ready, but every rotator/XBOX unit was busy
    "fu_mul",       # ready, but the multiplier slots were busy
    "fu_mem",       # ready, but every d-cache port was busy
    "fu_sbox",      # ready, but the SBox-cache port was busy
    "drain",        # past the last issue: pipeline drain to retirement
)

#: The subset of categories meaningful per instruction (instruction view);
#: fetch/mispredict/frontend/drain describe machine state with *no* oldest
#: unissued instruction or the run tail, so they have no per-static rows.
WAIT_CATEGORIES = STALL_CATEGORIES[3:-1]

#: ``extra`` keys that record *where a result came from* (which program
#: produced the hot-spot table, which timing engine ran) rather than what
#: was measured.  Diff tooling reads them to refuse cross-program hot-spot
#: comparisons; equality ignores them so interchangeable engines still
#: produce equal results.
PROVENANCE_KEYS = ("program_digest", "timing_engine")


@dataclass
class SimStats:
    """Cycle counts and event counters from one timing run."""

    config_name: str
    instructions: int = 0
    cycles: int = 0
    branches: int = 0
    mispredictions: int = 0
    loads: int = 0
    stores: int = 0
    store_forwards: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    tlb_misses: int = 0
    sbox_accesses: int = 0
    sbox_cache_misses: int = 0
    #: Machine view: total issue slots (``cycles * issue_width``); 0 when the
    #: machine has unlimited issue width and slot accounting is undefined.
    issue_slots: int = 0
    #: Machine view: unused issue slots attributed per stall category.  The
    #: exact invariant ``instructions + sum(stall_slots.values()) ==
    #: issue_slots`` holds for every finite-issue-width run.
    stall_slots: dict = field(default_factory=dict)
    #: Instruction view: total cycles dynamic instructions spent blocked,
    #: per :data:`WAIT_CATEGORIES` (cycles, not slots; one instruction
    #: waiting 10 cycles contributes 10 regardless of machine width).
    wait_cycles: dict = field(default_factory=dict)
    #: Hot-spot table: the static instructions that accumulated the most
    #: wait cycles, each ``{"static_index", "text", "executions",
    #: "total_wait_cycles", "wait_cycles": {category: cycles}}``.
    hotspots: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        """Measurement equality: provenance stamps don't make runs differ.

        The engine- and backend-equivalence contracts compare SimStats
        across stacks whose :data:`PROVENANCE_KEYS` stamps legitimately
        differ (``timing_engine`` names the engine that ran), so those
        keys are excluded; every measured field must match exactly.
        """
        if not isinstance(other, SimStats):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "extra":
                mine, theirs = (
                    {k: v for k, v in d.items() if k not in PROVENANCE_KEYS}
                    for d in (mine, theirs))
            if mine != theirs:
                return False
        return True

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def bytes_per_kilocycle(self, payload_bytes: int) -> float:
        """The paper's Figure 4 metric: bytes encrypted per 1000 cycles.

        On a 1 GHz machine this number equals MB/s of encryption throughput.
        """
        return 1000.0 * payload_bytes / self.cycles if self.cycles else 0.0

    def stall_fractions(self) -> dict[str, float]:
        """Issue-slot shares: ``issued`` plus each stall category, sums to 1.

        Empty when the run had no slot accounting (unlimited issue width).
        """
        if not self.issue_slots:
            return {}
        fractions = {"issued": self.instructions / self.issue_slots}
        for category in STALL_CATEGORIES:
            slots = self.stall_slots.get(category, 0)
            if slots:
                fractions[category] = slots / self.issue_slots
        return fractions

    def summary(self) -> str:
        return (
            f"{self.config_name}: {self.instructions} insts, "
            f"{self.cycles} cycles, IPC {self.ipc:.2f}"
        )
