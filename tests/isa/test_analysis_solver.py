"""The shared worklist solver and lattice fixpoints (`repro.isa.analysis`).

Covers the generic :func:`iterate` worklist, the array-level block
decomposition, and the generic :func:`infer_dataflow` driver with each
shipped lattice.
"""

from repro.isa import Features, Imm, KernelBuilder, assemble
from repro.isa.analysis import (
    block_successors,
    infer_constants,
    infer_ranges,
    infer_trailing_zeros,
    infer_widths,
    iterate,
    make_const_step,
    make_range_step,
    make_tz_step,
    make_width_step,
    split_blocks,
)
from repro.isa.analysis.passes import ProgramArrays, analyses_for


def arrays_for(source: str) -> ProgramArrays:
    return ProgramArrays(assemble(source))


def decompose(arrays: ProgramArrays):
    blocks, block_of = split_blocks(arrays.code, arrays.target, arrays.n)
    succs = block_successors(blocks, arrays.code, arrays.target, arrays.n)
    return blocks, block_of, succs


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


def test_split_blocks_leaders_at_targets_and_fallthroughs():
    arrays = arrays_for(LOOP)
    blocks, block_of = split_blocks(arrays.code, arrays.target, arrays.n)
    # Leaders: entry, the loop target (2), and the post-branch index (5).
    assert blocks == [(0, 2), (2, 5), (5, 7)]
    assert block_of == {0: 0, 2: 1, 5: 2}


def test_block_successors_include_branch_target_and_fallthrough():
    arrays = arrays_for(LOOP)
    _blocks, _block_of, succs = decompose(arrays)
    assert succs[0] == (2,)            # fallthrough into the loop body
    assert succs[1] == (2, 5)          # back edge + exit
    assert succs[2] == ()              # HALT ends the program


# -- the lattices through the generic driver --------------------------------

def test_constants_propagate_and_join_to_top():
    arrays = arrays_for("""
        ldiq r1, 10
        ldiq r3, 0
        beq  r3, join
        ldiq r1, 20
    join:
        addq r2, r1, #1
        halt
    """)
    blocks, block_of, succs = decompose(arrays)
    entry = infer_constants(blocks, block_of, succs,
                            make_const_step(arrays))
    join_block = block_of[4]
    assert entry[join_block][3] == 0          # r3 constant on every path
    assert entry[join_block][1] is None       # r1 is 10 or 20: TOP


def test_widths_widen_at_joins():
    arrays = arrays_for("""
        ldiq r1, 1
        ldiq r4, 0
        beq  r4, wide
        sll  r1, r1, #40
    wide:
        addq r2, r1, #0
        halt
    """)
    blocks, block_of, succs = decompose(arrays)
    entry = infer_widths(blocks, block_of, succs, make_width_step(arrays))
    assert entry[block_of[4]][1] == 41        # max(1, 1 + 40)
    assert entry[0][1] == 64                  # lattice top at program entry


def test_trailing_zeros_track_shifts():
    arrays = arrays_for("""
        ldiq r1, 8
        sll  r2, r1, #2
        addq r3, r2, r2
        halt
    """)
    blocks, block_of, succs = decompose(arrays)
    # The driver accepts the tz lattice (single block: entry facts only).
    entry = infer_trailing_zeros(blocks, block_of, succs,
                                 make_tz_step(arrays))
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
    arrays = arrays_for(LOOP)
    blocks, block_of, succs = decompose(arrays)
    entry = infer_ranges(blocks, block_of, succs, make_range_step(arrays))
    loop_block = block_of[2]
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
    arrays = arrays_for(WIDENED_ENTRY)
    blocks, block_of, succs = decompose(arrays)
    entry = infer_ranges(blocks, block_of, succs, make_range_step(arrays))
    assert entry[block_of[2]][2] is None      # head
    # body is reached from head, so it must not keep the stale (100, 100)
    # that held only on the first trip.
    assert entry[block_of[5]][2] is None


def test_value_range_lint_silent_after_entry_widens():
    from repro.isa.verify import verify_program

    result = verify_program(assemble(WIDENED_ENTRY))
    assert [d for d in result.diagnostics
            if d.checker == "value-range"] == []


def test_ranges_join_is_the_interval_hull():
    arrays = arrays_for("""
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
    blocks, block_of, succs = decompose(arrays)
    entry = infer_ranges(blocks, block_of, succs, make_range_step(arrays))
    assert entry[block_of[5]][1] == (10, 90)


def test_compiled_backend_shares_the_analysis_lattices():
    from repro.isa.analysis import lattices, solver
    from repro.sim.backends import compiled

    assert compiled.split_blocks is solver.split_blocks
    assert compiled.infer_widths is lattices.infer_widths
    assert compiled.make_const_step is lattices.make_const_step


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
