"""The shared worklist solver and lattice fixpoints (`repro.isa.analysis`).

Covers the generic :func:`iterate` worklist, the CFG blocks the
fixpoints walk, and the generic :func:`infer_dataflow` driver with each
shipped lattice, including widening and the narrowing phase after it.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Features, Imm, KernelBuilder, assemble
from repro.isa.analysis import (
    CFG,
    UNKNOWN_WIDTH,
    infer_constants,
    infer_dataflow,
    infer_ranges,
    infer_trailing_zeros,
    infer_widths,
    iterate,
    make_const_step,
    make_range_step,
    make_tz_step,
    make_width_step,
    range_join,
    solver,
)
from repro.isa.analysis.passes import ProgramArrays, analyses_for
from repro.isa.opcodes import LDIQ, SPECS


def problem(source: str) -> "tuple[CFG, ProgramArrays]":
    """The CFG the fixpoints walk and the arrays their steps read."""
    program = assemble(source)
    return CFG(program), ProgramArrays(program)


# -- iterate ----------------------------------------------------------------

def test_iterate_runs_fifo_until_quiescent():
    visits = []

    def process(item):
        visits.append(item)
        # The last seed item re-enqueues 0, which has already drained.
        return [0] if item == 2 and visits.count(2) == 1 else []

    iterate([0, 1, 2], process)
    assert visits == [0, 1, 2, 0]


def test_iterate_deduplicates_pending_items():
    visits = []

    def process(item):
        visits.append(item)
        # Both 0 and 1 ask for 3; only the first enqueue sticks.
        return [3] if item in (0, 1) else []

    iterate([0, 1, 2], process)
    assert visits == [0, 1, 2, 3]


# -- block decomposition ----------------------------------------------------

LOOP = """
    ldiq r1, 4
    ldiq r2, 0
loop:
    addq r2, r2, #1
    subq r1, r1, #1
    bne  r1, loop
    stl  r2, 0x100(r31)
    halt
"""


def test_cfg_leaders_at_targets_and_fallthroughs():
    cfg = CFG(assemble(LOOP))
    # Leaders: entry, the loop target (2), and the post-branch index (5).
    assert [(b.start, b.end) for b in cfg.blocks] == [(0, 2), (2, 5), (5, 7)]
    assert cfg.block_of == [0, 0, 1, 1, 1, 2, 2]


def test_cfg_successors_include_branch_target_and_fallthrough():
    cfg = CFG(assemble(LOOP))
    successors = [b.successors for b in cfg.blocks]
    assert successors[0] == [1]        # fallthrough into the loop body
    assert successors[1] == [1, 2]     # back edge + exit
    assert successors[2] == []         # HALT ends the program


# -- the lattices through the generic driver --------------------------------

def test_constants_propagate_and_join_to_top():
    cfg, arrays = problem("""
        ldiq r1, 10
        ldiq r3, 0
        beq  r3, join
        ldiq r1, 20
    join:
        addq r2, r1, #1
        halt
    """)
    entry = infer_constants(cfg, make_const_step(arrays))
    join_block = cfg.block_of[4]
    assert entry[join_block][3] == 0          # r3 constant on every path
    assert entry[join_block][1] is None       # r1 is 10 or 20: TOP


def test_widths_widen_at_joins():
    cfg, arrays = problem("""
        ldiq r1, 1
        ldiq r4, 0
        beq  r4, wide
        sll  r1, r1, #40
    wide:
        addq r2, r1, #0
        halt
    """)
    entry = infer_widths(cfg, make_width_step(arrays))
    assert entry[cfg.block_of[4]][1] == 41    # max(1, 1 + 40)
    assert entry[0][1] == 64                  # lattice top at program entry


def test_trailing_zeros_track_shifts():
    cfg, arrays = problem("""
        ldiq r1, 8
        sll  r2, r1, #2
        addq r3, r2, r2
        halt
    """)
    # The driver accepts the tz lattice (single block: entry facts only).
    entry = infer_trailing_zeros(cfg, make_tz_step(arrays))
    assert entry[0][1] == 0                   # tz top is "no known zeros"
    # The transfer function itself, straight-line:
    step = make_tz_step(arrays)
    state = [0] * 33
    for i in range(arrays.n):
        step(state, i)
    assert state[1] == 3                      # ldiq 8
    assert state[2] == 5                      # << 2
    assert state[3] == 5                      # addq keeps min of operands


def test_ranges_widen_loop_carried_counters_to_top():
    cfg, arrays = problem(LOOP)
    entry = infer_ranges(cfg, make_range_step(arrays))
    loop_block = cfg.block_of[2]
    # r2 increments every iteration: the interval must widen to TOP
    # (None) instead of chasing the bound forever.
    assert entry[loop_block][2] is None
    assert entry[loop_block][1] is None       # r1 decrements via SUBQ


#: r2 enters the loop as 100; the first trip through ``body`` sets it
#: from the unknown r7 - r8, so ``head`` joins it to top.
WIDENED_ENTRY = """
    ldiq r2, 100
    ldiq r3, 3
head:
    subq r3, r3, #1
    bne r3, body
    halt
body:
    sll r4, r5, r2
    subq r2, r7, r8
    br head
"""


def test_ranges_requeue_a_block_whose_entry_widens_to_top():
    cfg, arrays = problem(WIDENED_ENTRY)
    entry = infer_ranges(cfg, make_range_step(arrays))
    assert entry[cfg.block_of[2]][2] is None  # head
    # body is reached from head, so it must not keep the stale (100, 100)
    # that held only on the first trip.
    assert entry[cfg.block_of[5]][2] is None


def test_value_range_lint_silent_after_entry_widens():
    from repro.isa.verify import verify_program

    result = verify_program(assemble(WIDENED_ENTRY))
    assert [d for d in result.diagnostics
            if d.checker == "value-range"] == []


def test_ranges_join_is_the_interval_hull():
    cfg, arrays = problem("""
        ldiq r3, 0
        beq  r3, other
        ldiq r1, 10
        br   join
    other:
        ldiq r1, 90
    join:
        addq r2, r1, #0
        halt
    """)
    entry = infer_ranges(cfg, make_range_step(arrays))
    assert entry[cfg.block_of[5]][1] == (10, 90)


# -- widening and narrowing -------------------------------------------------

MASKED_COUNTER = """
    ldiq r1, 100
    ldiq r2, 0
loop:
    addq r2, r2, #1
    and  r2, r2, #0xff
    subq r1, r1, #1
    bne  r1, loop
    halt
"""


def test_narrowing_keeps_a_masked_counter_at_its_mask_width(monkeypatch):
    cfg, arrays = problem(MASKED_COUNTER)
    step = make_width_step(arrays)
    head = cfg.block_of[2]
    # r2 climbs 0, 1, 2, ... at the loop head until the mask stops it.
    assert infer_widths(cfg, step)[head][2] == 8
    # Widening alone jumps to 64; only the narrowing phase gets 8 back.
    monkeypatch.setattr(solver, "NARROW_PASSES", 0)
    assert infer_widths(cfg, step)[head][2] == 64


#: r2 climbs at ``head`` (0, then 1), then the outer loop brings the
#: unknown-width value of a raw negative literal round to it.
CLIMB_THEN_UNKNOWN = """
    ldiq r2, 0
    ldiq r4, 2
outer:
    ldiq r1, 3
head:
    addq r2, r2, #1
    subq r1, r1, #1
    bne  r1, head
    ldiq r2, 7
    subq r4, r4, #1
    bne  r4, outer
    halt
"""


def test_widening_keeps_an_unknown_width_above_top(monkeypatch):
    cfg, arrays = problem(CLIMB_THEN_UNKNOWN)
    # The assembler rejects a negative LDIQ literal, but a hand-built
    # program can carry one (an unknown width): make it the second
    # path's ``ldiq r2``.
    arrays.lit[6] = -1
    step = make_width_step(arrays)
    head = cfg.block_of[3]
    assert infer_widths(cfg, step)[head][2] \
        == UNKNOWN_WIDTH
    # The widened result is returned when narrowing does not settle, so
    # it must not drop the unknown fact to top (64) either.
    monkeypatch.setattr(solver, "NARROW_PASSES", 0)
    assert infer_widths(cfg, step)[head][2] \
        == UNKNOWN_WIDTH


def test_narrowing_keeps_top_at_a_looping_entry_block():
    # The caller seeds r1 and r2, so at pc 0 r2 may be any 64-bit value
    # even though the loop masks it to 8 bits on the back edge.
    cfg, arrays = problem("""
    loop:
        addq r2, r2, #1
        and  r2, r2, #0xff
        subq r1, r1, #1
        bne  r1, loop
        halt
    """)
    entry = infer_widths(cfg, make_width_step(arrays))
    assert entry[cfg.block_of[0]][2] == 64


def test_narrowing_falls_back_when_it_does_not_settle(monkeypatch):
    cfg, arrays = problem(MASKED_COUNTER)
    step = make_width_step(arrays)
    # One pass lowers the loop head to 8 but has not yet seen it stay
    # there, so the widened result comes back.
    monkeypatch.setattr(solver, "NARROW_PASSES", 1)
    assert infer_widths(cfg, step)[cfg.block_of[2]][2] == 64


#: Operate-format opcodes by builder method name (``and`` is ``and_``).
_OPS = tuple(
    "and_" if spec.name == "and" else spec.name
    for spec in SPECS.values() if spec.fmt == "op"
)


@st.composite
def loop_programs(draw):
    """A random counted loop whose body may skip a stretch and reload a
    register, so facts at the loop head both climb and meet; a reloaded
    literal may be a raw negative one (an unknown width)."""
    kb = KernelBuilder(Features.OPT)
    regs = kb.regs("a", "b", "c", "d")
    counter = kb.reg("count")
    if draw(st.booleans()):  # else the caller seeds them: pc 0 loops
        for reg in regs:
            kb.ldiq(reg, draw(st.integers(0, 0xFFFF)))
        kb.ldiq(counter, draw(st.integers(1, 12)))
    kb.label("loop")
    length = draw(st.integers(1, 10))
    skip_from = draw(st.integers(0, length))
    skip_to = draw(st.integers(skip_from, length))
    for position in range(length + 1):
        if position == skip_from:
            kb.beq(draw(st.sampled_from(regs)), "skip")
        if position == skip_to:
            kb.label("skip")
        if position == length:
            break
        dst = draw(st.sampled_from(regs))
        src = draw(st.sampled_from(regs))
        op = draw(st.sampled_from(_OPS + ("ldiq",)))
        if op == "ldiq":
            kb.ldiq(dst, draw(st.integers(0, 0xFFFF)))
        elif op in ("rolxl", "rorxl"):  # literal amount only
            getattr(kb, op)(dst, src, draw(st.integers(0, 31)))
        elif draw(st.booleans()):
            getattr(kb, op)(dst, src, Imm(draw(st.integers(0, 255))))
        else:
            getattr(kb, op)(dst, src, draw(st.sampled_from(regs)))
    kb.subq(counter, counter, Imm(1))
    kb.bne(counter, "loop")
    kb.halt()
    program = kb.build()
    arrays = ProgramArrays(program)
    for i, code in enumerate(arrays.code):
        if code == LDIQ and draw(st.integers(0, 7)) == 0:
            arrays.lit[i] = -draw(st.integers(1, 255))
    return CFG(program), arrays


def _assert_post_fixpoint(entry, cfg, step, top, join):
    """The entry is at or above ``top``, and no reachable block's exit
    state adds anything to a successor's entry."""
    root = cfg.block_of[0]
    assert [join(v, top) for v in entry[root]] == entry[root]
    reachable, stack = {root}, [root]
    while stack:
        k = stack.pop()
        state = list(entry[k])
        for i in cfg.blocks[k].indices():
            step(state, i)
        for j in cfg.blocks[k].successors:
            assert [join(a, b) for a, b in zip(state, entry[j])] == entry[j]
            if j not in reachable:
                reachable.add(j)
                stack.append(j)


@given(loop_programs())
@settings(max_examples=100, deadline=None)
def test_widened_fixpoints_are_post_fixpoints(loop):
    cfg, arrays = loop
    width_step = make_width_step(arrays)
    widths = infer_widths(cfg, width_step)
    _assert_post_fixpoint(widths, cfg, width_step, 64, max)
    plain = infer_dataflow(cfg, width_step, top=64, join=max)
    for widened_state, plain_state in zip(widths, plain):
        assert all(w >= p for w, p in zip(widened_state, plain_state))
    range_step = make_range_step(arrays)
    ranges = infer_ranges(cfg, range_step)
    _assert_post_fixpoint(ranges, cfg, range_step, None, range_join)


def test_compiled_backend_shares_the_analysis_lattices(monkeypatch):
    """Codegen reads the program's cached entry facts, so compiling in
    every recording mode and then verifying runs each fixpoint once."""
    from repro.isa.analysis import lattices, passes
    from repro.isa.verify import verify_program
    from repro.sim import Machine, Memory
    from repro.sim.backends import compiled

    monkeypatch.setattr(passes, "_cache", OrderedDict())
    solved = []
    real = lattices.infer_dataflow

    def counted(cfg, step, **kwargs):
        solved.append(step.__qualname__.split(".")[0])
        return real(cfg, step, **kwargs)

    monkeypatch.setattr(lattices, "infer_dataflow", counted)
    program = assemble(LOOP)
    for trace, values in ((True, False), (True, True), (False, False)):
        compiled.generated_source(
            Machine(program, Memory(1 << 12)), trace, values)
    verify_program(program)
    assert sorted(solved) == [
        "make_const_step", "make_range_step", "make_tz_step",
        "make_width_step",
    ]


def test_pass_manager_reuses_one_instance_per_program():
    program = assemble(LOOP)
    first = analyses_for(program)
    assert analyses_for(program) is first
    # Equal content hashes to the same cache slot even for a distinct
    # Program object.
    twin = assemble(LOOP)
    assert analyses_for(twin) is first


def test_program_arrays_match_machine_compile():
    from repro.sim import Machine, Memory

    kb = KernelBuilder(Features.OPT)
    a, b = kb.regs("a", "b")
    kb.ldiq(a, 5)
    kb.sbox(b, a, a, 1, 2)
    kb.stq(b, kb.zero, 0x800)
    kb.ldq(a, kb.zero, 0x800)
    kb.subq(a, a, Imm(1))
    kb.bne(a, "end")
    kb.label("end")
    kb.halt()
    program = kb.build()
    arrays = ProgramArrays(program)
    machine = Machine(program, Memory(1 << 13))
    for field in ("code", "dest", "src1", "src2", "lit", "disp",
                  "target", "bsel"):
        assert getattr(arrays, field) == getattr(machine, field), field
