"""Unit tests for the analysis harnesses (small sessions for speed).

The benchmark suite asserts the full paper shape over all eight ciphers;
these tests cover the harness *mechanics* -- metric definitions, rendering,
row structure -- on one or two cheap ciphers each.
"""

import pytest

from repro.analysis import (
    bottlenecks,
    opmix,
    setup_cost,
    speedups,
    ssl_model,
    tables,
    throughput,
    value_prediction,
)
from repro.isa import opcodes as op


def test_throughput_row_metrics():
    row = throughput.measure(cipher="Blowfish", session_bytes=256)
    assert row.cipher == "Blowfish"
    # 1-CPI is bytes per 1000 instructions; a real machine with IPC > 1
    # beats it, and dataflow bounds the 4W model.
    assert row.cpi1 > 0
    assert row.four_wide <= row.dataflow * 1.001
    assert len(row.as_tuple()) == 4


def test_throughput_render_contains_all_rows():
    rows = [throughput.measure(cipher="IDEA", session_bytes=256)]
    text = throughput.render_figure4(rows)
    assert "IDEA" in text and "1-CPI" in text


def test_bottleneck_relative_values_bounded():
    row = bottlenecks.measure(cipher="RC6", session_bytes=256)
    for name, value in row.relative.items():
        assert 0 < value <= 1.001, name
    assert set(row.relative) == set(
        ("alias", "branch", "issue", "mem", "res", "window", "all")
    )


def test_bottleneck_all_is_worst_or_equal():
    row = bottlenecks.measure(cipher="Twofish", session_bytes=256)
    # 'all' enables every constraint, so it cannot beat the single-constraint
    # machines by more than scheduling noise.
    assert row.relative["all"] <= min(
        row.relative[b] for b in ("issue", "res")
    ) * 1.05


def test_opmix_fractions_partition():
    row = opmix.measure(cipher="Mars", session_bytes=256)
    assert abs(sum(row.fraction(c) for c in row.counts) - 1.0) < 1e-9
    assert row.total > 0


def test_opmix_respects_feature_level():
    from repro.isa import Features

    rot = opmix.measure(cipher="RC6", session_bytes=256, features=Features.ROT)
    norot = opmix.measure(cipher="RC6", session_bytes=256,
                          features=Features.NOROT)
    # Synthesized rotates are still *classified* as rotates (paper's by-hand
    # accounting), so the rotate fraction grows without rotate instructions.
    assert norot.fraction(op.ROTATE) > rot.fraction(op.ROTATE)


def test_setup_cost_fraction_definition():
    row = setup_cost.measure(cipher="RC6", lengths=(16, 1024))
    expected = row.setup_cycles / (
        row.setup_cycles + 1024 * row.kernel_cycles_per_byte
    )
    assert row.fraction[1024] == pytest.approx(expected)


def test_speedups_normalization():
    row = speedups.measure(cipher="Blowfish", session_bytes=256)
    # The rotate baseline is the normalization: Blowfish barely uses
    # rotates, so orig/4W sits at ~1.0 and opt/4W above it.
    assert 0.95 <= row.orig_4w <= 1.05
    assert row.opt_4w > 1.0
    assert row.opt_dataflow >= row.opt_8w_plus >= row.opt_4w_plus * 0.999


def test_speedups_summary_geomean():
    rows = [speedups.measure(cipher=n, session_bytes=256)
            for n in ("Blowfish", "RC6")]
    agg = speedups.summary(rows)
    product = rows[0].opt_4w * rows[1].opt_4w
    assert agg.mean_opt_vs_rot == pytest.approx(product ** 0.5)


def test_ssl_breakdown_partition_and_anchor():
    row = ssl_model.breakdown(32768)
    total = row.public_fraction + row.private_fraction + row.other_fraction
    assert total == pytest.approx(1.0)
    assert 0.4 < row.private_fraction < 0.56


def test_ssl_from_measured_rate():
    params = ssl_model.from_measured_rate(50.0)
    assert params.private_per_byte == pytest.approx(20.0)


def test_value_prediction_row_bounds():
    row = value_prediction.measure(cipher="RC6", session_bytes=256)
    assert 0 <= row.mean_diffusion_hit_rate <= row.best_diffusion_hit_rate <= 1
    assert row.best_overall_hit_rate >= row.best_diffusion_hit_rate


def test_table_renderers():
    t1 = tables.render_table1()
    t2 = tables.render_table2()
    assert t1.count("\n") >= 9
    for name in ("3DES", "Blowfish", "IDEA", "Mars", "RC4", "RC6",
                 "Rijndael", "Twofish"):
        assert name in t1
    assert "SBox caches" in t2 and "inf" in t2


def _cell_key(result) -> str:
    """The cell naming of ``benchmarks/perf/workloads.py:cell_key``."""
    options = result.experiment.options
    return (f"{options.cipher}/{options.kind}/{options.features.label}/"
            f"{options.session_bytes}B/{result.config_name}")


def _moved_cells(golden: dict, cells: dict) -> list[str]:
    """One line per cell that differs from its golden value."""
    lines = []
    for key in sorted(golden.keys() | cells.keys()):
        want, got = golden.get(key), cells.get(key)
        if want == got:
            continue
        if want is None or got is None:
            lines.append(f"{key}: " + ("not in the golden file"
                                       if want is None else "never simulated"))
            continue
        slots = {name: got["slots"].get(name, 0) - want["slots"].get(name, 0)
                 for name in want["slots"].keys() | got["slots"].keys()}
        lines.append(
            f"{key}: cycles {want['cycles']} -> {got['cycles']}, "
            f"instructions {want['instructions']} -> {got['instructions']}, "
            "slots " + (", ".join(f"{name} {delta:+d}"
                                  for name, delta in sorted(slots.items())
                                  if delta) or "unchanged")
        )
    return lines


def test_report_runs_end_to_end(tmp_path):
    """The paper report at 128 B, simulated from scratch, reproduces every
    figure cell of ``benchmarks/perf/golden.json`` exactly -- cycles,
    instructions and the issue-slot account -- and its report digest.

    It runs on the default stack, whose timing engine tiers up, and no
    pipeline of it is hot enough to: it generates no scheduler."""
    import hashlib
    import io
    import json
    from pathlib import Path

    from repro.analysis.report import full_report
    from repro.runner import ResultCache, Runner
    from repro.sim.timing import specialized as specialized_mod

    golden = json.loads((Path(__file__).resolve().parents[2] / "benchmarks"
                         / "perf" / "golden.json").read_text())
    cells: dict[str, dict] = {}
    conflicts = []

    def record(result) -> None:
        stats = result.stats
        cell = {"cycles": stats.cycles, "instructions": stats.instructions,
                "slots": {k: v for k, v in stats.stall_slots.items() if v}}
        if cells.setdefault(_cell_key(result), cell) != cell:
            conflicts.append(_cell_key(result))

    runner = Runner(cache=ResultCache(tmp_path / "cache"), stats_hook=record)
    buffer = io.StringIO()
    # An empty code cache: no scheduler an earlier test generated serves
    # a pipeline here from entry 0.
    specialized_mod.CODE.clear()
    full_report(session_bytes=128, stream=buffer, runner=runner)
    assert specialized_mod.CODE.reports() == []
    assert specialized_mod.CODE.untiered > 0
    text = buffer.getvalue()
    for marker in ("Table 1", "Figure 2", "Figure 4", "Figure 5",
                   "Figure 6", "Figure 7", "Table 2", "Figure 10"):
        assert marker in text
    assert runner.stats.timing_runs > 0 and runner.stats.functional_runs > 0
    moved = _moved_cells(golden["cells"]["figures"], cells)
    assert not moved, "figure cells moved:\n" + "\n".join(moved)
    assert not conflicts
    body = text.rsplit("[report generated", 1)[0]
    assert hashlib.sha256(body.encode()).hexdigest() == \
        golden["reports"]["figures-default"]


def _long_options(workload: str):
    """A long workload's seed-7 Figure 10 options, read from the
    benchmark's own ``workloads.py`` (loaded by path, so ``sys.path`` is
    left alone)."""
    import importlib.util
    import sys
    from pathlib import Path

    path = (Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
            / "workloads.py")
    spec = importlib.util.spec_from_file_location("_perf_workloads", path)
    workloads = sys.modules.get(spec.name)
    if workloads is None:
        workloads = importlib.util.module_from_spec(spec)
        # Registered first: its dataclasses look their module up by name.
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    return workloads.long_options(workloads.WORKLOADS[workload], 7)


def _golden_cells(workload: str) -> dict:
    import json
    from pathlib import Path

    golden = json.loads((Path(__file__).resolve().parents[2] / "benchmarks"
                         / "perf" / "golden.json").read_text())
    return golden["cells"][workload]


def _run_cells(options, runner_options) -> dict:
    """Figure 10 over ``options`` with the cache off: cell key -> cell."""
    from repro.runner import ResultCache, Runner

    cells: dict[str, dict] = {}

    def record(result) -> None:
        stats = result.stats
        cells[_cell_key(result)] = {
            "cycles": stats.cycles, "instructions": stats.instructions,
            "slots": {k: v for k, v in stats.stall_slots.items() if v}}

    runner = Runner(cache=ResultCache.disabled(), stats_hook=record,
                    **runner_options)
    speedups.run(options, runner=runner)
    return cells


@pytest.mark.parametrize("engine", ["generic", "specialized", "memo"])
def test_long_generic_cells_on_both_scheduler_paths(engine, monkeypatch):
    """Figure 10 at ``long-generic``'s sessions (RC4 5 KiB, Blowfish and
    RC6 512 B) reproduces its 18 cells of ``benchmarks/perf/golden.json``
    exactly on every scheduler path: the per-entry loop (generic engine),
    the per-block schedulers (specialized engine tiered up at entry 0, so
    every matched block runs generated code), and the iteration memo
    (specialized engine memoizing every bounded-window pipeline from its
    first loop-header visit, with no probation drop).

    The figure cells above are too short to tier up or memoize, so these
    are the exact pins of the block and memo paths."""
    from repro.sim.timing import memo as memo_mod
    from repro.sim.timing import specialized as specialized_mod

    if engine != "generic":
        # A private code cache: every scheduler is generated here, and
        # none outlives the test.
        monkeypatch.setattr(specialized_mod.CODE, "_entries", {})
    if engine == "specialized":
        monkeypatch.setattr(specialized_mod, "TIER_UP_ATTRIBUTED", 0)
        monkeypatch.setattr(specialized_mod, "TIER_UP_PLAIN", 0)
    if engine == "memo":
        monkeypatch.setattr(specialized_mod, "MEMO_ENGAGE_VISITS", 0)
        monkeypatch.setattr(specialized_mod, "MEMO_ENGAGE_ENTRIES", 0)
        monkeypatch.setattr(memo_mod, "PROBATION_HITS", 0)
        monkeypatch.setattr(specialized_mod.CODE, "memo",
                            dict.fromkeys(specialized_mod.MEMO_FIELDS, 0))
    cells = _run_cells(_long_options("long-generic"), {
        "timing_engine": "generic" if engine == "generic" else "specialized"})
    if engine == "specialized":
        assert specialized_mod.CODE.reports()
    if engine == "memo":
        memo = specialized_mod.CODE.memo
        assert memo["kept"] == memo["pipelines"] > 0 and memo["hits"] > 0
    moved = _moved_cells(_golden_cells("long-generic"), cells)
    assert not moved, f"long-generic cells moved on {engine}:\n" + \
        "\n".join(moved)


def test_long_fast_block_cipher_cells_on_the_memo(monkeypatch):
    """Figure 10 for Blowfish and RC6 at ``long-fast``'s 3 KiB sessions,
    on the default stack with the shipped constants, reproduces their 12
    cells of ``benchmarks/perf/golden.json`` exactly, and the iteration
    memo serves at least 80% of its windowed pipelines' entries."""
    from repro.sim.timing import specialized as specialized_mod

    monkeypatch.setattr(specialized_mod.CODE, "_entries", {})
    monkeypatch.setattr(specialized_mod.CODE, "memo",
                        dict.fromkeys(specialized_mod.MEMO_FIELDS, 0))
    options = [o for o in _long_options("long-fast")
               if o.cipher in ("Blowfish", "RC6")]
    cells = _run_cells(options, {})
    golden = {key: cell for key, cell in _golden_cells("long-fast").items()
              if not key.startswith("RC4/")}
    assert len(golden) == len(cells) == 12
    moved = _moved_cells(golden, cells)
    assert not moved, "long-fast cells moved on the memo:\n" + \
        "\n".join(moved)
    memo = specialized_mod.CODE.memo
    assert memo["kept"] == memo["pipelines"] >= 9
    assert memo["served"] >= 0.8 * memo["entries"], memo
