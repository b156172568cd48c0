"""Soundness of the static cycle-cost estimator (`repro.isa.analysis.cost`).

The ISSUE-mandated matrix: for every cipher at every feature level, under
the paper's enhanced 4-wide and 8-wide machines and the dataflow limit,
the static bracket must contain the simulated cycle count::

    report.lower_bound <= simulate(trace, config).cycles <= report.upper_bound

plus the same property over hypothesis-generated random loop programs,
and unit sanity for :func:`chain_weights` / :class:`CostReport`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Features, KernelBuilder
from repro.isa.analysis import CostReport, chain_weights, estimate_cost
from repro.kernels import KERNEL_NAMES
from repro.kernels.registry import make_kernel
from repro.sim import (
    DATAFLOW,
    EIGHTW_PLUS,
    FOURW,
    Machine,
    Memory,
    simulate,
)
from repro.tools.cli import FEATURE_LEVELS
from tests.sim.test_timing_properties import random_programs

#: The three machine models the paper's headline numbers use.
MATRIX_CONFIGS = (FOURW, EIGHTW_PLUS, DATAFLOW)

#: One session per (cipher, level): a multiple of every block size, long
#: enough to run the steady-state loop several times (matches the
#: ``repro.tools.analyze`` default).
SESSION_BYTES = 128

_runs: dict = {}


def run_for(cipher, level_key):
    key = (cipher, level_key)
    if key not in _runs:
        kernel = make_kernel(cipher, features=FEATURE_LEVELS[level_key])
        _runs[key] = kernel.encrypt(bytes(SESSION_BYTES))
    return _runs[key]


# -- the soundness matrix ---------------------------------------------------

@pytest.mark.parametrize("config", MATRIX_CONFIGS,
                         ids=lambda config: config.name)
@pytest.mark.parametrize("level", ("norot", "rot", "opt"))
@pytest.mark.parametrize("cipher", KERNEL_NAMES)
def test_bounds_bracket_simulated_cycles(cipher, level, config):
    run = run_for(cipher, level)
    report = estimate_cost(
        run.trace.program, config, run.trace, run.warm_ranges,
        name=f"{cipher}[{level}]",
    )
    stats = simulate(run.trace, config, run.warm_ranges)
    assert report.lower_bound <= stats.cycles <= report.upper_bound, (
        f"{cipher}[{level}] on {config.name}: "
        f"{report.lower_bound} <= {stats.cycles} <= {report.upper_bound}"
    )
    assert report.instructions == len(run.trace.seq)


# -- the property over generated programs -----------------------------------

@st.composite
def dead_tails(draw):
    """A live LDIQ, an early HALT, then a multiply chain that never runs."""
    kb = KernelBuilder(Features.OPT)
    reg = kb.reg("x")
    kb.ldiq(reg, draw(st.integers(0, 0xFFFF)))
    kb.halt()
    for _ in range(draw(st.integers(1, 12))):
        kb.mulq(reg, reg, reg)
    kb.halt()
    return kb.build()


@given(random_programs(), dead_tails())
@settings(max_examples=25, deadline=None)
def test_bounds_hold_on_random_programs(loop, dead_tail):
    for program in (loop, dead_tail):
        trace = Machine(program, Memory(1 << 13)).execute().trace
        for config in (FOURW, DATAFLOW):
            report = estimate_cost(program, config, trace)
            cycles = simulate(trace, config).cycles
            assert report.lower_bound <= cycles <= report.upper_bound, (
                f"{config.name}: {report.lower_bound} <= {cycles} "
                f"<= {report.upper_bound}"
            )


# -- unit sanity ------------------------------------------------------------

def test_chain_weights_cover_every_timing_class():
    weights = chain_weights(FOURW)
    assert set(weights) >= {
        "ialu", "rotator", "load", "store", "sbox", "sync",
        "mul32", "mul64", "mulmod",
    }
    assert all(weight >= 1 for weight in weights.values())


def test_cost_report_gap_and_component_ledger():
    run = run_for("RC4", "opt")
    report = estimate_cost(
        run.trace.program, FOURW, run.trace, run.warm_ranges,
        name="RC4[opt]",
    )
    assert report.name == "RC4[opt]"
    assert report.config == FOURW.name
    assert report.gap >= 1.0
    # The upper bound is exactly the sum of its published components.
    upper = report.components["upper"]
    assert report.upper_bound == (
        upper["startup"] + upper["blocks"] + upper["mispredict"]
        + upper["memory_extra"]
    )
    # The lower bound is the max of its published terms.
    assert report.lower_bound == max(report.components["lower"].values())
    assert report.as_dict()["gap"] == round(report.gap, 4)


def test_cost_report_gap_is_infinite_when_lower_is_zero():
    report = CostReport(name="empty", config="DF", lower_bound=0,
                        upper_bound=5, instructions=0)
    assert report.gap == float("inf")
