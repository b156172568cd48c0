"""End-to-end tests for the ``repro.tools.analyze`` CLI."""

import json

from repro.obs import (
    ANALYSIS_SCHEMA,
    EventBus,
    MetricsRegistry,
    MetricsView,
    validate_analysis,
)
from repro.obs.dashboard import DashState, render
from repro.obs.events import load_ledger
from repro.tools.analyze import analysis_document, main
from repro.tools.obs import check_file


def test_single_cell_is_sound_and_exits_zero(capsys):
    assert main(["--cipher", "RC4", "--features", "opt",
                 "--config", "4W"]) == 0
    out = capsys.readouterr().out
    assert "RC4[opt]" in out
    assert "OK: 1 cell(s), 1 checked against simulation, all sound" in out


def test_json_out_validates_and_roundtrips_through_obs_check(
        tmp_path, capsys):
    report = tmp_path / "analysis.json"
    assert main(["--cipher", "IDEA", "--features", "rot",
                 "--config", "DF", "--format", "json",
                 "--out", str(report)]) == 0
    out = capsys.readouterr().out
    document = json.loads(out[:out.rindex("}") + 1])
    assert document["schema"] == ANALYSIS_SCHEMA
    assert validate_analysis(document) == []
    assert document == json.loads(report.read_text())
    (cell,) = document["programs"]
    assert cell["program"] == "IDEA[orig-rot]"
    assert cell["sound"] is True
    assert cell["lower_bound"] <= cell["simulated_cycles"] \
        <= cell["upper_bound"]
    assert document["summary"]["median_gap_DF"] == cell["gap"]

    assert check_file(str(report)) == 0
    assert "valid analysis document" in capsys.readouterr().out


def test_static_only_skips_simulation(capsys):
    assert main(["--cipher", "Rijndael", "--features", "norot",
                 "--config", "8W+", "--static-only",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    document = json.loads(out[:out.rindex("}") + 1])
    (cell,) = document["programs"]
    assert "simulated_cycles" not in cell
    assert "sound" not in cell
    assert validate_analysis(document) == []


def test_metrics_out_records_estimates_and_gaps(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    assert main(["--cipher", "RC6", "--features", "opt",
                 "--config", "4W", "--metrics-out",
                 str(metrics_path)]) == 0
    capsys.readouterr()
    assert check_file(str(metrics_path)) == 0
    payload = json.loads(metrics_path.read_text())
    names = {sample["name"] for sample in payload["metrics"]}
    assert "analysis.estimates" in names
    assert "analysis.gap" in names


def test_events_land_on_the_ledger_and_render_in_the_dashboard(
        tmp_path, capsys):
    ledger = tmp_path / "events.jsonl"
    assert main(["--cipher", "Blowfish", "--features", "opt",
                 "--config", "DF", "--events-out", str(ledger)]) == 0
    capsys.readouterr()
    state = DashState()
    estimates = [
        event for event in load_ledger(ledger)
        if event["source"] == "analysis" and event["type"] == "estimate"
    ]
    assert len(estimates) == 1
    assert estimates[0]["data"]["program"] == "Blowfish[opt]"
    for event in load_ledger(ledger):
        state.consume(event)
    frame = render(state)
    assert "analysis: 1 estimate(s)" in frame
    assert "all sound" in frame


def test_record_analysis_metrics_counts_unsound_cells():
    registry, bus = MetricsRegistry(), EventBus()
    bus.subscribe(MetricsView(registry))
    for estimate in (
        {"program": "X[opt]", "config": "4W", "gap": 2.0, "sound": True},
        {"program": "Y[opt]", "config": "4W", "gap": 3.0, "sound": False},
    ):
        bus.publish("analysis", "estimate", estimate)
    snapshot = registry.snapshot()
    samples = {
        (sample["name"], sample.get("labels", {}).get("config")):
            sample["value"]
        for sample in snapshot["metrics"]
    }
    assert samples[("analysis.estimates", "4W")] == 2
    assert samples[("analysis.unsound", None)] == 1


def test_validate_analysis_rejects_sound_flag_mismatch():
    document = analysis_document([{
        "program": "X[opt]", "config": "4W", "instructions": 10,
        "lower_bound": 5, "upper_bound": 20, "gap": 4.0,
        "components": {}, "simulated_cycles": 50, "sound": True,
    }], 128)
    errors = validate_analysis(document)
    assert errors
    assert any("sound" in error for error in errors)


def test_validate_analysis_rejects_inverted_bounds():
    document = analysis_document([{
        "program": "X[opt]", "config": "4W", "instructions": 10,
        "lower_bound": 30, "upper_bound": 20, "gap": 0.67,
        "components": {},
    }], 128)
    assert validate_analysis(document)
