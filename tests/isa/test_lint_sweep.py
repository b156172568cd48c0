"""The shipped-program lint sweep, pinned diagnostic by diagnostic.

``python -m repro.tools.lint --all`` covers every registered cipher
kernel (all three feature levels, both directions) plus every key-setup
program -- 56 programs.  This test runs the identical sweep in-process
and pins the *entire* expected diagnostic set: which programs report
anything at all, and the exact (checker, severity, index) of every
finding.  A new checker that fires anywhere else, or a regression that
silences a known finding, changes this list and fails loudly.

The known findings:

* ``setup/IDEA`` and ``setup/Twofish`` each carry one pre-existing
  ``dead-write`` warning (final loop-carried updates never read back);
* ``setup/Mars`` trips the ``store-forward`` checker 26 times: its key
  schedule fills the S-box region with hundreds of stores, then the
  mixing pass re-loads words stored 97-260 stores earlier -- far past
  the smallest shipped (32-entry) store queue.

The same 56 programs hold the width fixpoint to two census figures:
widening then narrowing reaches exactly the plain ascending fixpoint's
entry states (which is what keeps the compiled backend's generated
source unchanged), and it does so with a bounded number of transfer
calls.
"""

import pytest

from repro.isa.analysis import (
    CFG,
    ProgramArrays,
    infer_dataflow,
    infer_widths,
    make_width_step,
)
from repro.kernels import KERNEL_NAMES
from repro.kernels.setup_registry import SETUP_KERNELS
from repro.tools.cli import FEATURE_LEVELS
from repro.tools.lint import (
    iter_kernel_programs,
    iter_setup_programs,
    lint_programs,
)

#: Every (checker, severity, index) expected from the full sweep, keyed
#: by program name.  Programs absent from this table must verify clean.
EXPECTED = {
    "setup/IDEA": [("dead-write", "warning", 127)],
    "setup/Mars": [
        ("store-forward", "warning", index) for index in (
            2507, 2549, 2554, 2596, 2601, 2643, 2648, 2690, 2695, 2737,
            2742, 2784, 2789, 2831, 2836, 2878, 2883, 2925, 2930, 2972,
            2977, 3019, 3024, 3066, 3071, 3113,
        )
    ],
    "setup/Twofish": [("dead-write", "warning", 2584)],
}


#: Width transfer calls per static instruction over the sweep.  Widening
#: then narrowing needs 3.45; the plain fixpoint, which climbs one bit
#: per pass around every loop, needs 32.5.
WIDTH_CALLS_PER_INSTRUCTION = 4.0


@pytest.fixture(scope="module")
def programs():
    levels = [FEATURE_LEVELS[key] for key in ("norot", "rot", "opt")]
    programs = list(iter_kernel_programs(KERNEL_NAMES, levels))
    programs.extend(iter_setup_programs(sorted(SETUP_KERNELS)))
    return programs


@pytest.fixture(scope="module")
def sweep(programs):
    return lint_programs(programs)


def _width_problem(program):
    arrays = ProgramArrays(program)
    return arrays, CFG(program)


def test_sweep_covers_all_56_shipped_programs(sweep):
    assert len(sweep) == 56


def test_sweep_diagnostics_are_exactly_the_pinned_set(sweep):
    actual = {
        result.name: [
            (d.checker, d.severity, d.index) for d in result.diagnostics
        ]
        for result in sweep if result.diagnostics
    }
    assert actual == EXPECTED


def test_sweep_has_no_errors(sweep):
    # The CI gate: warnings are tracked, errors are fatal.
    assert all(not result.errors for result in sweep)


def test_widened_widths_equal_the_plain_fixpoint(programs):
    for name, program, _features in programs:
        arrays, cfg = _width_problem(program)
        step = make_width_step(arrays)
        plain = infer_dataflow(cfg, step, top=64, join=max)
        assert infer_widths(cfg, step) == plain, name


def test_width_fixpoint_transfer_calls_stay_bounded(programs):
    calls = instructions = 0
    for _name, program, _features in programs:
        arrays, cfg = _width_problem(program)
        step = make_width_step(arrays)

        def counted(state, i):
            nonlocal calls
            calls += 1
            step(state, i)

        infer_widths(cfg, counted)
        instructions += arrays.n
    assert calls / instructions < WIDTH_CALLS_PER_INSTRUCTION
