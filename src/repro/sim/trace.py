"""Dynamic instruction traces, trace chunks, and per-program static metadata.

The functional simulator executes a program once and records a *compact*
trace: the sequence of static instruction indices, plus the effective address
of every memory-touching instruction.  Everything else the timing model needs
(opcode class, register sources/destination, branch-ness, SBOX modifiers,
Figure 7 category) is a property of the *static* instruction, precomputed
here into parallel arrays for fast indexed access.

Branch outcomes need no explicit recording: a branch at static index ``s``
was taken iff the next trace entry is not ``s + 1``.

**Storage.**  Dynamic columns are ``array``-backed (8 bytes per entry)
rather than Python lists (pointer + boxed int, ~10x larger): ``seq`` is
``array('q')`` (static indices), ``addrs`` and ``values`` are ``array('Q')``
(full unsigned 64-bit range -- register values and addresses routinely have
the top bit set), ``taken_flags`` is ``array('b')``.  Arrays compare
elementwise and pickle compactly, so traces keep value equality and can be
persisted (the runner's functional-trace cache) or shipped across process
boundaries cheaply.

**Streaming.**  The timing model does not require a materialized trace: it
consumes any *trace source* -- an object with ``program`` and ``static``
attributes and a ``chunks(chunk_size)`` method yielding
:class:`TraceChunk` objects in trace order.  Both :class:`Trace` (below)
and the live :class:`~repro.sim.machine.StreamingTrace` generator satisfy
the protocol, so ``simulate``/``make_pipeline`` run identically over a
full in-memory trace or a bounded-memory stream straight out of the
functional machine.  See ``docs/architecture.md``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Protocol, runtime_checkable

from repro.isa import opcodes as op
from repro.isa.program import Program

#: Default number of trace entries per streamed chunk.  4096 entries keep
#: the working set around 64 KiB while amortizing per-chunk overhead to
#: noise; ``--chunk-size`` overrides it end to end.
DEFAULT_CHUNK_SIZE = 4096

#: array typecodes for the dynamic columns (8 bytes per entry each).
SEQ_TYPECODE = "q"       # static indices (never negative, fits signed)
ADDR_TYPECODE = "Q"      # effective addresses: full unsigned 64-bit range
VALUE_TYPECODE = "Q"     # destination values: full unsigned 64-bit range
TAKEN_TYPECODE = "b"     # branch outcomes for synthetic traces


@dataclass
class StaticInfo:
    """Parallel per-static-instruction arrays derived from a program."""

    klass: list[str]
    dest: list[int]            # -1 when no register result
    srcs: list[tuple[int, ...]]
    is_load: list[bool]
    is_store: list[bool]
    is_branch: list[bool]
    is_cond_branch: list[bool]
    mem_size: list[int]        # 0 for non-memory ops
    sbox_table: list[int]
    sbox_aliased: list[bool]
    is_sync: list[bool]
    category: list[str]
    #: True for CMP*-family results (single-bit flags, not data values).
    is_flag: list[bool]
    # Store address source registers (for the alias/memory-ordering model):
    # the registers the *address* depends on, excluding the stored value.
    addr_srcs: list[tuple[int, ...]]

    @classmethod
    def from_program(cls, program: Program) -> "StaticInfo":
        if not program.finalized:
            raise ValueError("program must be finalized")
        info = cls([], [], [], [], [], [], [], [], [], [], [], [], [], [])
        compare_codes = {op.CMPEQ, op.CMPULT, op.CMPULE, op.CMPLT, op.CMPLE}
        for instruction in program.instructions:
            spec = instruction.spec
            info.klass.append(spec.klass)
            dest = instruction.dest if spec.writes_dest else None
            info.dest.append(-1 if dest in (None, 31) else dest)
            sources = tuple(r for r in instruction.source_regs() if r != 31)
            info.srcs.append(sources)
            is_load = instruction.code in op.LOAD_CODES
            is_store = instruction.code in op.STORE_CODES
            info.is_load.append(is_load)
            info.is_store.append(is_store)
            info.is_branch.append(instruction.code in op.BRANCH_CODES)
            info.is_cond_branch.append(
                instruction.code in op.COND_BRANCH_CODES
            )
            if instruction.code == op.SBOX:
                info.mem_size.append(4)
            else:
                info.mem_size.append(op.MEM_SIZES.get(instruction.code, 0))
            info.sbox_table.append(instruction.table)
            info.sbox_aliased.append(instruction.aliased)
            info.is_sync.append(instruction.code == op.SBOXSYNC)
            info.category.append(instruction.category)
            info.is_flag.append(instruction.code in compare_codes)
            if is_store:
                base = instruction.src2
                info.addr_srcs.append(() if base in (None, 31) else (base,))
            else:
                info.addr_srcs.append(sources)
        return info


@dataclass
class TraceChunk:
    """A bounded, contiguous slice of a dynamic trace.

    ``seq``/``addrs`` (and optionally ``values``) are parallel arrays of
    the chunk's entries; ``start`` is the trace position of entry 0.
    ``taken`` is ``None`` when branch outcomes follow the adjacency rule
    (the consumer infers them with one entry of lookahead) and an explicit
    per-entry array for synthetic traces where adjacency is meaningless.
    """

    seq: array
    addrs: array
    start: int = 0
    taken: array | None = None
    values: array | None = None

    def __len__(self) -> int:
        return len(self.seq)

    @property
    def nbytes(self) -> int:
        """Bytes of dynamic trace payload held by this chunk."""
        total = (len(self.seq) * self.seq.itemsize
                 + len(self.addrs) * self.addrs.itemsize)
        if self.taken is not None:
            total += len(self.taken) * self.taken.itemsize
        if self.values is not None:
            total += len(self.values) * self.values.itemsize
        return total


@runtime_checkable
class TraceSource(Protocol):
    """What the timing model consumes: static metadata plus trace chunks.

    Implementations: :class:`Trace` (materialized, re-iterable) and
    :class:`repro.sim.machine.StreamingTrace` (live single-pass generator
    over a running functional machine).
    """

    program: Program
    static: StaticInfo

    def chunks(
        self, chunk_size: int | None = None
    ) -> Iterator[TraceChunk]:  # pragma: no cover - protocol signature
        ...


def _as_array(typecode: str, data) -> array:
    if data is None:
        return None
    if isinstance(data, array) and data.typecode == typecode:
        return data
    if typecode == TAKEN_TYPECODE:
        return array(typecode, (1 if item else 0 for item in data))
    return array(typecode, data)


@dataclass(eq=False)
class Trace:
    """One dynamic execution: static indices + memory addresses (+ values).

    ``addrs[i]`` is meaningful only when the static instruction at ``seq[i]``
    touches memory.  ``values`` is populated only when the functional run was
    asked to record destination values (the value-prediction study).
    ``taken_flags`` is populated for synthetic traces (thread interleavings)
    where branch outcomes cannot be inferred from trace adjacency.

    Lists passed to the constructor are coerced to the canonical array
    storage, so synthetic-trace builders can keep using plain lists.  Two
    traces are equal iff their programs, static metadata and dynamic
    columns are equal, and traces pickle compactly (arrays serialize as
    raw machine words).
    """

    program: Program
    static: StaticInfo
    seq: array
    addrs: array
    values: array | None = None
    instructions_executed: int = 0
    taken_flags: array | None = None

    def __post_init__(self) -> None:
        self.seq = _as_array(SEQ_TYPECODE, self.seq)
        self.addrs = _as_array(ADDR_TYPECODE, self.addrs)
        self.values = _as_array(VALUE_TYPECODE, self.values)
        self.taken_flags = _as_array(TAKEN_TYPECODE, self.taken_flags)

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other) -> bool:
        """Value equality: same program bytes and same dynamic columns.

        Programs compare by content digest (identity would defeat pickle
        round-trips); static metadata is derived from the program and so
        needs no separate comparison.
        """
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.program.digest() == other.program.digest()
            and self.seq == other.seq
            and self.addrs == other.addrs
            and self.values == other.values
            and self.taken_flags == other.taken_flags
            and self.instructions_executed == other.instructions_executed
        )

    @property
    def nbytes(self) -> int:
        """Bytes of dynamic trace payload (the streaming pipeline's bound)."""
        total = (len(self.seq) * self.seq.itemsize
                 + len(self.addrs) * self.addrs.itemsize)
        if self.taken_flags is not None:
            total += len(self.taken_flags) * self.taken_flags.itemsize
        if self.values is not None:
            total += len(self.values) * self.values.itemsize
        return total

    def taken(self, position: int) -> bool:
        """Was the branch at trace position ``position`` taken?"""
        if self.taken_flags is not None:
            return bool(self.taken_flags[position])
        if position + 1 >= len(self.seq):
            return True
        return self.seq[position + 1] != self.seq[position] + 1

    def chunks(self, chunk_size: int | None = None) -> Iterator[TraceChunk]:
        """Yield the trace as :class:`TraceChunk` slices of ``chunk_size``.

        ``chunk_size=None`` yields one zero-copy chunk over the whole trace
        (how the runner feeds a materialized trace).  Chunks carry explicit ``taken`` flags only when
        the trace itself does; otherwise consumers infer outcomes from
        adjacency exactly as :meth:`taken` would.
        """
        n = len(self.seq)
        if chunk_size is None or chunk_size >= n:
            if n:
                yield TraceChunk(
                    seq=self.seq, addrs=self.addrs, start=0,
                    taken=self.taken_flags, values=self.values,
                )
            return
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        for lo in range(0, n, chunk_size):
            hi = min(lo + chunk_size, n)
            yield TraceChunk(
                seq=self.seq[lo:hi],
                addrs=self.addrs[lo:hi],
                start=lo,
                taken=(None if self.taken_flags is None
                       else self.taken_flags[lo:hi]),
                values=None if self.values is None else self.values[lo:hi],
            )

    def category_counts(self) -> dict[str, int]:
        """Dynamic operation-category histogram (paper Figure 7)."""
        counts: dict[str, int] = {}
        category = self.static.category
        for static_index in self.seq:
            name = category[static_index]
            counts[name] = counts.get(name, 0) + 1
        return counts
