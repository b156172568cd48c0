"""The uniform analysis surface: run()/measure()/Row everywhere, with
deprecated positional shims that still produce the same numbers."""

import dataclasses

import pytest

from repro.analysis import (
    bottlenecks,
    multisession,
    opmix,
    setup_cost,
    speedups,
    ssl_model,
    tables,
    throughput,
    value_prediction,
)
from repro.runner import ExperimentOptions, ResultCache, Runner

SIMULATION_MODULES = (
    throughput, speedups, bottlenecks, opmix, setup_cost, value_prediction,
    multisession,
)


@pytest.fixture
def runner(tmp_path):
    return Runner(cache=ResultCache(tmp_path / "cache"))


def test_every_module_exposes_the_uniform_surface():
    for module in SIMULATION_MODULES:
        assert callable(module.run), module.__name__
        assert callable(module.measure), module.__name__
    assert callable(ssl_model.run)
    assert callable(tables.run)


def test_run_accepts_none_single_and_list(runner):
    single = ExperimentOptions(cipher="RC6", session_bytes=128)
    as_single = throughput.run(single, runner=runner)
    as_list = throughput.run([single], runner=runner)
    assert len(as_single) == len(as_list) == 1
    assert as_single[0].as_tuple() == as_list[0].as_tuple()


def test_rows_expose_as_dict_and_as_tuple(runner):
    row = opmix.measure(cipher="Mars", session_bytes=128, runner=runner)
    mapping = row.as_dict()
    assert mapping["cipher"] == "Mars"
    assert set(mapping) == {
        field.name for field in dataclasses.fields(row)
    }
    assert row.as_tuple() == tuple(mapping.values())


def test_static_modules_have_rows_too():
    table1 = tables.run()
    assert {row.cipher for row in table1} >= {"RC6", "Rijndael"}
    assert table1[0].as_dict()["key_bits"] > 0
    ssl = ssl_model.run(lengths=(64, 32768))
    assert len(ssl) == 2
    assert ssl[0].as_dict()["session_bytes"] == 64



def test_multisession_requires_a_cipher():
    with pytest.raises(TypeError):
        multisession.measure(thread_counts=(1,))


def test_shared_runner_dedups_across_modules(runner):
    """Figure 4 and Figure 7 at the same options share one trace."""
    options = ExperimentOptions(cipher="RC6", session_bytes=128)
    throughput.run(options, runner=runner)
    functional_runs = runner.stats.functional_runs
    opmix.run(options, runner=runner)
    assert runner.stats.functional_runs == functional_runs


def test_figure_aliases_match_run(runner):
    rows = throughput.figure4(128, ("RC6",), runner=runner)
    direct = throughput.run(
        ExperimentOptions(cipher="RC6", session_bytes=128), runner=runner
    )
    assert rows[0].as_tuple() == direct[0].as_tuple()
