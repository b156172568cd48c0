"""Timing views: configs a program cannot tell apart time it alike.

A pipeline over a program observes its config only through
``timing_view``; the runner builds one pipeline per distinct view and
serves every other config from it with ``shared_stats``.  These tests
check that rule against unshared simulation, exhaustively over the
cipher suite and by property over perturbed configs.
"""

import itertools
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis.bottlenecks import BOTTLENECK_CONFIGS
from repro.isa import Features
from repro.kernels import KERNEL_NAMES
from repro.runner import ExperimentOptions, ResultCache, Runner
from repro.sim import (
    ALPHA21264,
    BASE4W,
    DATAFLOW,
    DATAFLOW_BASEISA,
    EIGHTW_PLUS,
    FOURW,
    FOURW_PLUS,
)
from repro.sim.timing import (
    group_by_view,
    op_table,
    shared_stats,
    simulate,
    timing_view,
)

PRESETS = (BASE4W, ALPHA21264, FOURW, FOURW_PLUS, EIGHTW_PLUS, DATAFLOW,
           DATAFLOW_BASEISA)
#: The preset and Figure 5 configs, each once.
CONFIGS = tuple(dict.fromkeys(PRESETS + BOTTLENECK_CONFIGS))


@pytest.fixture(scope="module")
def suite_runs():
    """``(label, kernel run)`` for every distinct suite program at 64 B."""
    runner = Runner(cache=ResultCache.disabled())
    runs = {}
    for cipher, features, kind in itertools.product(
            KERNEL_NAMES, Features, ("encrypt", "decrypt")):
        options = ExperimentOptions(cipher=cipher, features=features,
                                    kind=kind, session_bytes=64)
        if kind == "decrypt" and not runner._kernel(options).supports_decrypt:
            continue
        run = runner.functional(options)
        runs.setdefault(run.trace.program.digest(),
                        (f"{cipher}/{features.label}/{kind}", run))
    return list(runs.values())


def assert_same_fields(shared, own):
    """Field for field, extras (provenance stamps included) too."""
    for field in fields(own):
        assert getattr(shared, field.name) == getattr(own, field.name), \
            field.name


def test_equal_views_time_alike_across_the_suite(suite_runs):
    """Every equal-view config pair over every suite program: the leader's
    stats, as ``shared_stats`` hands them to the follower, equal the
    follower's own unshared ``simulate()`` result."""
    shared = set()
    for label, run in suite_runs:
        static = run.trace.static
        views = [timing_view(config, static) for config in CONFIGS]
        plan = group_by_view(CONFIGS, static)
        stats = {}
        for index, (leader, ops) in enumerate(plan):
            assert leader == views.index(views[index]), (label, index)
            if leader == index:
                # A leader gets the table grouping computed, if any.
                assert ops in (None, op_table(CONFIGS[index], static))
                continue
            assert ops is None
            for position in (leader, index):
                if position not in stats:
                    stats[position] = simulate(run.trace, CONFIGS[position],
                                               run.warm_ranges)
            assert_same_fields(
                shared_stats(stats[leader], CONFIGS[index]), stats[index])
            shared.add((label, CONFIGS[leader].name, CONFIGS[index].name))
    # The pairs the paper's figures meet: 4W+ adds nothing RC4's and
    # IDEA's OPT kernels use, and DF-base differs from DF only in the
    # 32-bit multiply.
    assert {("RC4/opt/encrypt", "4W", "4W+"), ("IDEA/opt/encrypt", "4W", "4W+"),
            ("RC4/opt/encrypt", "DF", "DF-base")} <= shared
    assert not any("8W+" in pair for pair in shared)


def other_value(value):
    """A different value of a config field: doubled, flipped, or finite."""
    if value is None:
        return 2
    if isinstance(value, bool):
        return not value
    return value * 2 if value else 1


#: One program per cipher, encrypt at the OPT level: every unit class,
#: SBox-cache and d-cache SBOX tables, aliased SBOX, stores and syncs.
@pytest.fixture(scope="module")
def opt_runs(suite_runs):
    return [(label, run) for label, run in suite_runs
            if label.endswith("/opt/encrypt")]


@pytest.mark.parametrize("preset", [FOURW_PLUS, DATAFLOW],
                         ids=lambda config: config.name)
def test_every_field_a_view_leaves_out_is_unobservable(opt_runs, preset):
    """Change one field of a preset at a time: whenever the view over a
    program stays equal, so does the simulated result.  Every field is
    tried, not only the ones the view names, so a field wrongly left out
    of the view shows."""
    checked = 0
    for label, run in opt_runs:
        static = run.trace.static
        view = timing_view(preset, static)
        own = None
        for field in fields(preset):
            if field.name == "name":
                continue
            variant = preset.with_(name="variant", **{
                field.name: other_value(getattr(preset, field.name))})
            if timing_view(variant, static) != view:
                continue
            if own is None:
                own = simulate(run.trace, preset, run.warm_ranges)
            assert_same_fields(
                shared_stats(own, variant),
                simulate(run.trace, variant, run.warm_ranges))
            checked += 1
    assert checked


#: Alternative values per field for the property below: the op-table and
#: SBox-cache fields, which a program may not observe, and a few fields
#: every program observes.  Multiplier slots stay at least the largest
#: multiply cost: an op that needs more slots than exist never issues.
ALTERNATIVES = {
    "num_ialu": (None, 1, 2, 4, 8),
    "num_rotator": (None, 1, 2, 4),
    "alu_latency": (1, 2),
    "rotator_latency": (1, 2),
    "mul_slots": (None, 2, 4),
    "mul64_cost": (1, 2),
    "mul32_cost": (1, 2),
    "mulmod_cost": (1, 2),
    "mul64_latency": (4, 7),
    "mul32_latency": (4, 7),
    "mulmod_latency": (3, 4),
    "dcache_ports": (None, 1, 2, 4),
    "load_latency": (2, 3, 4),
    "store_latency": (1, 2),
    "sbox_cache_ports": (1, 2),
    "sbox_cache_latency": (1, 2),
    "sbox_caches": (0, 2, 4),
    "sbox_dcache_latency": (2, 3),
    "window_size": (None, 64, 128),
    "issue_width": (None, 2, 4, 8),
    "perfect_alias": (False, True),
    "lsq_size": (8, 64),
}


def perturbed(data, config):
    changes = data.draw(st.dictionaries(
        st.sampled_from(sorted(ALTERNATIVES)),
        st.integers(0, 4), min_size=1, max_size=3))
    return config.with_(**{
        name: ALTERNATIVES[name][pick % len(ALTERNATIVES[name])]
        for name, pick in changes.items()
    })


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_equal_views_mean_equal_stats(suite_runs, data):
    """Draw a preset and perturb its fields twice: whenever the two
    configs' views over a suite program are equal, their unshared results
    are too."""
    label, run = data.draw(st.sampled_from(suite_runs))
    first = perturbed(data, data.draw(st.sampled_from(PRESETS)))
    second = perturbed(data, first).with_(name="second")
    static = run.trace.static
    equal = timing_view(first, static) == timing_view(second, static)
    event(f"views equal: {equal}")
    if equal:
        assert_same_fields(
            shared_stats(simulate(run.trace, first, run.warm_ranges), second),
            simulate(run.trace, second, run.warm_ranges))
