"""The run-diff engine: cycle-provenance deltas, ledger alignment,
metrics deltas, report assembly, and the dashboard diff panel.

The acceptance bar for the stats section is *exactness*: the ranked
per-static-instruction wait-cycle deltas must sum, category by category,
to the whole-run SimStats deltas -- the per-instruction view is a
decomposition of the aggregate, not an approximation of it.
"""

import concurrent.futures
import warnings

import pytest

from repro.kernels import make_kernel
from repro.obs import (
    EventBus,
    JsonlSink,
    RingBufferSink,
    load_ledger,
    set_active_bus,
    split_runs,
    validate_diff,
)
from repro.obs.dashboard import DashState, render
from repro.obs.diffing import (
    ProvenanceMismatch,
    build_report,
    diff_ledger_runs,
    diff_metrics_docs,
    diff_stats,
    explain_stats_delta,
    ledger_identical,
    ledger_verdict,
    metrics_identical,
    metrics_verdict,
    render_report,
    stats_identical,
    stats_verdict,
)
from repro.runner import ResultCache, Runner, experiment_grid
from repro.sim import EIGHTW_PLUS, FOURW, simulate
from repro.sim.stats import WAIT_CATEGORIES

SESSION = bytes(range(256)) * 4   # 1024 bytes, block-aligned everywhere


@pytest.fixture(scope="module")
def rc4_run():
    return make_kernel("RC4").encrypt(SESSION)


@pytest.fixture(scope="module")
def stats_pair(rc4_run):
    """The same RC4 trace timed on 4W and 8W+ -- the paper's own diff."""
    trace = rc4_run.trace
    return (simulate(trace, FOURW, rc4_run.warm_ranges),
            simulate(trace, EIGHTW_PLUS, rc4_run.warm_ranges))


# -- stats section ----------------------------------------------------------

def test_self_diff_is_identical(stats_pair):
    a, _ = stats_pair
    section = diff_stats(a, a)
    assert stats_identical(section)
    assert stats_verdict(section, "x", "y").startswith("identical")
    assert all(entry["ok"] for entry in section["invariant"])


def test_per_instruction_deltas_sum_to_category_deltas(stats_pair):
    """Acceptance: sum of per-instruction deltas == SimStats delta, for
    every wait category.  Holds exactly because RC4's 27 statics fit the
    hot-spot table untruncated (``hotspots_complete``)."""
    a, b = stats_pair
    section = diff_stats(a, b)
    assert section["hotspots_complete"]
    for category in WAIT_CATEGORIES:
        aggregate = (b.wait_cycles.get(category, 0)
                     - a.wait_cycles.get(category, 0))
        decomposed = sum(row["categories"].get(category, 0)
                         for row in section["hotspots"])
        assert decomposed == aggregate, category
    # And the headline totals decompose too.
    assert sum(row["delta"] for row in section["hotspots"]) == \
        sum(row["delta"] for row in section["wait_cycles"])


def test_deltas_ranked_by_cycle_impact(stats_pair):
    section = diff_stats(*stats_pair)
    for key in ("stall_slots", "wait_cycles", "hotspots"):
        magnitudes = [abs(row["delta"]) for row in section[key]]
        assert magnitudes == sorted(magnitudes, reverse=True), key


def test_verdict_names_top_category_and_hottest_spot(stats_pair):
    a, b = stats_pair
    section = diff_stats(a, b)
    verdict = stats_verdict(section, "4W", "8W+")
    top = section["stall_slots"][0]
    spot = section["hotspots"][0]
    assert top["category"] in verdict
    assert f"#{spot['static_index']}" in verdict
    assert spot["text"] in verdict


def test_invariant_recheck_flags_corrupt_side(stats_pair):
    a, b = stats_pair
    import copy
    broken = copy.deepcopy(b)
    broken.stall_slots["operand"] += 7    # slots no longer account
    section = diff_stats(a, broken)
    assert [entry["ok"] for entry in section["invariant"]] == [True, False]
    assert "invariant violation" in stats_verdict(section, "a", "b")


def test_unknown_stall_category_breaks_invariant(stats_pair):
    a, b = stats_pair
    import copy
    broken = copy.deepcopy(b)
    broken.stall_slots["cosmic_rays"] = 0
    section = diff_stats(a, broken)
    entry = section["invariant"][1]
    assert not entry["ok"]
    assert entry["unknown_categories"] == "cosmic_rays"


def test_provenance_mismatch_refuses_cross_program_diff(stats_pair):
    a, _ = stats_pair
    other_run = make_kernel("RC6").encrypt(SESSION)
    other = simulate(other_run.trace, FOURW, other_run.warm_ranges)
    with pytest.raises(ProvenanceMismatch, match="different programs"):
        diff_stats(a, other)
    # The assertion-message helper degrades instead of raising.
    message = explain_stats_delta(a, other)
    assert "different programs" in message


def test_unstamped_results_still_diff(stats_pair):
    a, b = stats_pair
    import copy
    bare_a, bare_b = copy.deepcopy(a), copy.deepcopy(b)
    for stats in (bare_a, bare_b):
        stats.extra.pop("program_digest", None)
        stats.extra.pop("timing_engine", None)
    section = diff_stats(bare_a, bare_b)
    assert section["program_digest"] == "unknown"
    assert section["a_engine"] == "unknown"


def test_explain_stats_delta_identical_pair(stats_pair):
    a, _ = stats_pair
    assert explain_stats_delta(a, a, "generic", "specialized").startswith(
        "identical")


# -- ledger alignment -------------------------------------------------------

def ledger_events(run_id, phases):
    """A synthetic single-run ledger: (source, type, seconds?) tuples."""
    bus = EventBus(run_id=run_id)
    sink = RingBufferSink()
    bus.subscribe(sink)
    for source, type_, seconds in phases:
        data = {"seconds": seconds} if seconds is not None else {}
        bus.publish(source, type_, data)
    return sink.events


PHASES = (
    ("runner", "start", None),
    ("cache", "miss", None),
    ("backend", "compile", 0.004),
    ("runner", "result", None),
    ("runner", "finish", None),
)


def test_empty_ledgers_diff_identical():
    section = diff_ledger_runs([], [])
    assert section["rows"] == []
    assert ledger_identical(section)
    assert "both ledgers are empty" in ledger_verdict(section, "a", "b")


def test_ledger_self_diff_is_all_zero():
    events = ledger_events("r1", PHASES)
    section = diff_ledger_runs(events, events)
    assert ledger_identical(section)
    for row in section["rows"]:
        assert row["delta_count"] == 0
        assert row["delta_seconds"] == 0


def test_wall_time_deltas_never_break_identity():
    slow = [(source, type_, seconds * 10 if seconds else seconds)
            for source, type_, seconds in PHASES]
    section = diff_ledger_runs(ledger_events("r1", PHASES),
                               ledger_events("r2", slow))
    assert ledger_identical(section)
    verdict = ledger_verdict(section, "fast", "slow")
    assert verdict.startswith("identical")
    assert "backend/compile" in verdict   # the slowdown is still named


def test_count_mismatch_names_the_phase():
    extra = PHASES + (("cache", "miss", None),)
    section = diff_ledger_runs(ledger_events("r1", PHASES),
                               ledger_events("r2", extra))
    assert not ledger_identical(section)
    assert "1 more cache/miss" in ledger_verdict(section, "a", "b")


def test_single_run_vs_interleaved_run_files(tmp_path):
    """A one-run file diffs clean against the matching run extracted from
    a file two invocations appended to."""
    single = tmp_path / "single.jsonl"
    bus = EventBus(run_id="solo")
    bus.subscribe(JsonlSink(single))
    for source, type_, seconds in PHASES:
        bus.publish(source, type_, {"seconds": seconds} if seconds else {})
    bus.close()

    appended = tmp_path / "appended.jsonl"
    for run_id, phases in (("earlier", PHASES[:2]), ("later", PHASES)):
        bus = EventBus(run_id=run_id)
        bus.subscribe(JsonlSink(appended))
        for source, type_, seconds in phases:
            bus.publish(source, type_,
                        {"seconds": seconds} if seconds else {})
        bus.close()

    runs = dict(split_runs(load_ledger(appended)))
    assert set(runs) == {"earlier", "later"}
    (solo_id, solo_events), = split_runs(load_ledger(single))
    assert solo_id == "solo"
    assert ledger_identical(diff_ledger_runs(solo_events, runs["later"]))
    assert not ledger_identical(diff_ledger_runs(solo_events,
                                                 runs["earlier"]))


def run_grid_ledger(jobs):
    bus = EventBus()
    sink = RingBufferSink()
    bus.subscribe(sink)
    runner = Runner(cache=ResultCache.disabled(), jobs=jobs, bus=bus,
                    heartbeat_interval=0)
    runner.run(experiment_grid(["RC4"], [FOURW], session_bytes=128))
    return sink.events


def test_serial_pool_fallback_ledger_diffs_identical(monkeypatch):
    """A jobs=2 run whose pool never starts falls back to serial; its
    ledger must align phase for phase with a real jobs=1 run."""
    serial = run_grid_ledger(jobs=1)

    def no_pool(*args, **kwargs):
        raise OSError("pools forbidden in this test")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fallback = run_grid_ledger(jobs=2)
    section = diff_ledger_runs(serial, fallback)
    assert ledger_identical(section), ledger_verdict(section,
                                                     "serial", "fallback")


# -- metrics ----------------------------------------------------------------

def metrics_doc(values):
    return {"metrics": [{"name": name, "type": "counter", "value": value}
                        for name, value in values.items()]}


def test_metrics_self_diff_identical():
    doc = metrics_doc({"runner.cache_hits": 4, "runner.wall_seconds": 1.5})
    rows = diff_metrics_docs(doc, doc)
    assert metrics_identical(rows)
    assert metrics_verdict(rows, "a", "b").startswith("identical")


def test_wall_clock_metrics_are_noisy_not_failures():
    a = metrics_doc({"runner.cache_hits": 4, "runner.wall_seconds": 1.5})
    b = metrics_doc({"runner.cache_hits": 4, "runner.wall_seconds": 2.5})
    rows = diff_metrics_docs(a, b)
    assert metrics_identical(rows)   # only the noisy row moved
    assert "within noise" in metrics_verdict(rows, "a", "b")


def test_deterministic_metric_delta_breaks_identity():
    a = metrics_doc({"runner.cache_hits": 4})
    b = metrics_doc({"runner.cache_hits": 6})
    rows = diff_metrics_docs(a, b)
    assert not metrics_identical(rows)
    assert "runner.cache_hits +2" in metrics_verdict(rows, "a", "b")


def test_histograms_expand_to_count_and_sum():
    a = {"metrics": [{"name": "h", "type": "histogram",
                      "count": 3, "sum": 0.6}]}
    b = {"metrics": [{"name": "h", "type": "histogram",
                      "count": 4, "sum": 0.9}]}
    rows = diff_metrics_docs(a, b)
    assert {row["name"] for row in rows} == {"h.count", "h.sum"}


# -- report assembly and rendering ------------------------------------------

def test_build_report_validates_and_announces(stats_pair):
    bus = EventBus()
    sink = RingBufferSink()
    bus.subscribe(sink)
    previous = set_active_bus(bus)
    try:
        section = diff_stats(*stats_pair)
        report = build_report(
            "stats", {"label": "4W"}, {"label": "8W+"},
            identical=stats_identical(section),
            verdict=stats_verdict(section, "4W", "8W+"),
            stats=section,
        )
    finally:
        set_active_bus(previous)
    assert validate_diff(report) == []
    assert report["identical"] is False
    (event,) = sink.events
    assert (event["source"], event["type"]) == ("diff", "report")
    assert event["data"]["a"] == "4W" and event["data"]["b"] == "8W+"


def test_build_report_rejects_malformed_sections():
    with pytest.raises(ValueError, match="malformed diff report"):
        build_report("stats", {"label": "a"}, {"label": "b"},
                     identical=True, verdict="ok",
                     stats={"counters": [{"bogus": 1}]})


def test_build_report_ledger_kind_carries_durations():
    section = diff_ledger_runs(ledger_events("r1", PHASES),
                               ledger_events("r2", PHASES))
    report = build_report(
        "ledger", {"label": "r1"}, {"label": "r2"},
        identical=ledger_identical(section),
        verdict=ledger_verdict(section, "r1", "r2"),
        phases=section,
    )
    assert validate_diff(report) == []
    assert "ledger_duration" in report["a"]
    assert report["phases"] == section["rows"]


def test_render_report_shows_ranked_deltas(stats_pair):
    section = diff_stats(*stats_pair)
    report = build_report(
        "stats", {"label": "4W"}, {"label": "8W+"},
        identical=False, verdict=stats_verdict(section, "4W", "8W+"),
        stats=section,
    )
    text = render_report(report)
    assert "diff [stats]" in text
    assert "verdict:" in text
    assert "hot-spot deltas" in text
    top = section["hotspots"][0]
    assert f"#{top['static_index']}" in text


def test_render_identical_report_is_compact(stats_pair):
    a, _ = stats_pair
    section = diff_stats(a, a)
    report = build_report(
        "stats", {"label": "a"}, {"label": "b"},
        identical=True, verdict=stats_verdict(section, "a", "b"),
        stats=section,
    )
    text = render_report(report)
    assert "stall slots" not in text      # no empty delta tables
    assert len(text.splitlines()) == 2    # header + verdict only


# -- dashboard diff panel ---------------------------------------------------

def test_dashboard_renders_recent_diff_reports():
    state = DashState()
    for index, identical in enumerate((True, False, True, False)):
        state.consume({
            "schema": "repro.obs.events/1", "run_id": "r", "seq": index,
            "ts": 0.1 * index, "source": "diff", "type": "report",
            "data": {"kind": "stats", "identical": identical,
                     "verdict": f"verdict number {index}",
                     "a": f"a{index}", "b": f"b{index}"},
        })
    frame = render(state)
    assert "diff:" in frame
    assert "verdict number 0" not in frame   # only the newest 3 kept
    assert "verdict number 3" in frame
    assert "a3 vs b3" in frame
    assert "!=" in frame and "==" in frame
