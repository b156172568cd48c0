"""Validators for the exported observability documents.

Pure-Python structural checks (no jsonschema dependency): each validator
returns a list of human-readable error strings, empty when the document
conforms.  CI and ``repro.tools.obs --check`` run these against freshly
exported files; tests run them against in-memory snapshots.

The schemas themselves are documented in ``docs/observability.md``.
"""

from __future__ import annotations

METRICS_SCHEMA = "repro.obs.metrics/1"
LINT_SCHEMA = "repro.isa.verify/1"
EVENTS_SCHEMA = "repro.obs.events/1"
DIFF_SCHEMA = "repro.obs.diff/1"
ANALYSIS_SCHEMA = "repro.isa.analysis/1"

_DIFF_KINDS = ("stats", "metrics", "ledger")

_LINT_SEVERITIES = ("info", "warning", "error")

_METRIC_TYPES = ("counter", "gauge", "histogram")
_EVENT_PHASES = ("X", "B", "E", "i", "I", "C", "M")
_SCALARS = (bool, int, float, str, type(None))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_metrics(document) -> list[str]:
    """Check a ``repro.obs.metrics/1`` document; return error strings."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return [f"metrics document must be an object, got {type(document).__name__}"]
    if document.get("schema") != METRICS_SCHEMA:
        errors.append(
            f"schema must be {METRICS_SCHEMA!r}, got {document.get('schema')!r}"
        )
    if "extra" in document and not isinstance(document["extra"], dict):
        errors.append("extra must be an object when present")
    metrics = document.get("metrics")
    if not isinstance(metrics, list):
        errors.append("metrics must be a list")
        return errors
    for index, metric in enumerate(metrics):
        where = f"metrics[{index}]"
        if not isinstance(metric, dict):
            errors.append(f"{where}: must be an object")
            continue
        if not isinstance(metric.get("name"), str) or not metric.get("name"):
            errors.append(f"{where}: missing non-empty 'name'")
        kind = metric.get("type")
        if kind not in _METRIC_TYPES:
            errors.append(f"{where}: type must be one of {_METRIC_TYPES}")
            continue
        labels = metric.get("labels")
        if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
        ):
            errors.append(f"{where}: labels must be a str->str object")
        if kind in ("counter", "gauge"):
            if not _is_number(metric.get("value")):
                errors.append(f"{where}: missing numeric 'value'")
            if kind == "counter" and _is_number(metric.get("value")) \
                    and metric["value"] < 0:
                errors.append(f"{where}: counter value must be >= 0")
        else:
            errors.extend(_validate_histogram(metric, where))
    return errors


def _validate_histogram(metric: dict, where: str) -> list[str]:
    errors: list[str] = []
    if not _is_number(metric.get("count")) or metric.get("count", -1) < 0:
        errors.append(f"{where}: histogram needs a non-negative 'count'")
    if not _is_number(metric.get("sum")):
        errors.append(f"{where}: histogram needs a numeric 'sum'")
    buckets = metric.get("buckets")
    if not isinstance(buckets, list) or not buckets:
        return errors + [f"{where}: histogram needs a non-empty 'buckets' list"]
    previous = -1
    for bindex, bucket in enumerate(buckets):
        bwhere = f"{where}.buckets[{bindex}]"
        if not isinstance(bucket, dict):
            errors.append(f"{bwhere}: must be an object")
            continue
        bound = bucket.get("le")
        last = bindex == len(buckets) - 1
        if last and bound != "+inf":
            errors.append(f"{bwhere}: final bucket bound must be '+inf'")
        if not last and not _is_number(bound):
            errors.append(f"{bwhere}: bound 'le' must be numeric")
        count = bucket.get("count")
        if not _is_number(count) or count < previous:
            errors.append(f"{bwhere}: counts must be cumulative and numeric")
        else:
            previous = count
    if not errors and _is_number(metric.get("count")) \
            and buckets[-1].get("count") != metric["count"]:
        errors.append(f"{where}: +inf bucket count must equal 'count'")
    return errors


def validate_lint(document) -> list[str]:
    """Check a ``repro.isa.verify/1`` lint report; return error strings."""
    if not isinstance(document, dict):
        return [f"lint document must be an object, got {type(document).__name__}"]
    errors: list[str] = []
    if document.get("schema") != LINT_SCHEMA:
        errors.append(
            f"schema must be {LINT_SCHEMA!r}, got {document.get('schema')!r}"
        )
    if not isinstance(document.get("generated_by"), str) \
            or not document.get("generated_by"):
        errors.append("missing non-empty 'generated_by'")
    programs = document.get("programs")
    if not isinstance(programs, list):
        errors.append("'programs' must be a list")
        return errors
    for index, program in enumerate(programs):
        where = f"programs[{index}]"
        if not isinstance(program, dict):
            errors.append(f"{where}: must be an object")
            continue
        if not isinstance(program.get("program"), str) \
                or not program.get("program"):
            errors.append(f"{where}: missing non-empty 'program'")
        count = program.get("instructions")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            errors.append(f"{where}: 'instructions' must be a non-negative "
                          "integer")
        summary = program.get("summary")
        if not isinstance(summary, dict) or not all(
            key in _LINT_SEVERITIES and isinstance(value, int)
            and not isinstance(value, bool) and value >= 0
            for key, value in summary.items()
        ):
            errors.append(f"{where}: 'summary' must map severities to "
                          "non-negative counts")
        if "critical_path_cycles" in program:
            bound = program["critical_path_cycles"]
            if not isinstance(bound, int) or isinstance(bound, bool) \
                    or bound < 0:
                errors.append(f"{where}: 'critical_path_cycles' must be a "
                              "non-negative integer")
        diagnostics = program.get("diagnostics")
        if not isinstance(diagnostics, list):
            errors.append(f"{where}: 'diagnostics' must be a list")
            continue
        for dindex, diagnostic in enumerate(diagnostics):
            dwhere = f"{where}.diagnostics[{dindex}]"
            if not isinstance(diagnostic, dict):
                errors.append(f"{dwhere}: must be an object")
                continue
            if not isinstance(diagnostic.get("checker"), str) \
                    or not diagnostic.get("checker"):
                errors.append(f"{dwhere}: missing non-empty 'checker'")
            if diagnostic.get("severity") not in _LINT_SEVERITIES:
                errors.append(f"{dwhere}: severity must be one of "
                              f"{_LINT_SEVERITIES}")
            if not isinstance(diagnostic.get("message"), str) \
                    or not diagnostic.get("message"):
                errors.append(f"{dwhere}: missing non-empty 'message'")
            anchor = diagnostic.get("index")
            if anchor is not None and (not isinstance(anchor, int)
                                       or isinstance(anchor, bool)
                                       or anchor < 0):
                errors.append(f"{dwhere}: 'index' must be a non-negative "
                              "integer or null")
            if "detail" in diagnostic \
                    and not isinstance(diagnostic["detail"], dict):
                errors.append(f"{dwhere}: 'detail' must be an object")
        summary_ok = isinstance(summary, dict) and all(
            isinstance(value, int) for value in summary.values()
        )
        if summary_ok and all(
            isinstance(d, dict) for d in diagnostics
        ):
            counted: dict[str, int] = {}
            for diagnostic in diagnostics:
                severity = diagnostic.get("severity")
                if isinstance(severity, str):
                    counted[severity] = counted.get(severity, 0) + 1
            for severity, count in counted.items():
                if summary.get(severity, 0) != count:
                    errors.append(
                        f"{where}: summary[{severity!r}] disagrees with the "
                        f"diagnostics list ({summary.get(severity, 0)} != "
                        f"{count})"
                    )
    return errors


def _nested_numbers(value) -> bool:
    """True when ``value`` is numbers nested in str-keyed objects."""
    if _is_number(value):
        return True
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _nested_numbers(entry)
            for key, entry in value.items()
        )
    return False


def validate_analysis(document) -> list[str]:
    """Check a ``repro.isa.analysis/1`` cost report; return error strings.

    Beyond shape, this enforces the report's own invariants: every
    program's ``lower_bound <= upper_bound``, and wherever a simulated
    cycle count is attached, the recorded ``sound`` flag must agree with
    ``lower_bound <= simulated_cycles <= upper_bound``.
    """
    if not isinstance(document, dict):
        return [
            f"analysis document must be an object, got {type(document).__name__}"
        ]
    errors: list[str] = []
    if document.get("schema") != ANALYSIS_SCHEMA:
        errors.append(
            f"schema must be {ANALYSIS_SCHEMA!r}, got {document.get('schema')!r}"
        )
    if not isinstance(document.get("generated_by"), str) \
            or not document.get("generated_by"):
        errors.append("missing non-empty 'generated_by'")
    if "summary" in document and not _scalar_object(document["summary"]):
        errors.append("'summary' must be a str->scalar object")
    programs = document.get("programs")
    if not isinstance(programs, list):
        errors.append("'programs' must be a list")
        return errors
    for index, program in enumerate(programs):
        where = f"programs[{index}]"
        if not isinstance(program, dict):
            errors.append(f"{where}: must be an object")
            continue
        for key in ("program", "config"):
            if not isinstance(program.get(key), str) or not program.get(key):
                errors.append(f"{where}: missing non-empty {key!r}")
        for key in ("instructions", "lower_bound", "upper_bound"):
            value = program.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                errors.append(f"{where}: {key!r} must be a non-negative "
                              "integer")
        lower = program.get("lower_bound")
        upper = program.get("upper_bound")
        bounds_ok = (
            isinstance(lower, int) and isinstance(upper, int)
            and not isinstance(lower, bool) and not isinstance(upper, bool)
        )
        if bounds_ok and lower > upper:
            errors.append(f"{where}: lower_bound must not exceed "
                          "upper_bound")
        if "gap" in program and program["gap"] is not None \
                and not _is_number(program["gap"]):
            errors.append(f"{where}: 'gap' must be a number or null")
        if "components" in program \
                and not _nested_numbers(program["components"]):
            errors.append(f"{where}: 'components' must be numbers nested "
                          "in str-keyed objects")
        simulated = program.get("simulated_cycles")
        if "simulated_cycles" in program and simulated is not None and (
            not isinstance(simulated, int) or isinstance(simulated, bool)
            or simulated < 0
        ):
            errors.append(f"{where}: 'simulated_cycles' must be a "
                          "non-negative integer or null")
            simulated = None
        if "sound" in program and not isinstance(program["sound"], bool):
            errors.append(f"{where}: 'sound' must be a boolean")
        elif bounds_ok and isinstance(simulated, int) \
                and not isinstance(simulated, bool) \
                and isinstance(program.get("sound"), bool):
            actual = lower <= simulated <= upper
            if program["sound"] != actual:
                errors.append(
                    f"{where}: 'sound' is {program['sound']} but "
                    f"{lower} <= {simulated} <= {upper} is {actual}"
                )
    return errors


def validate_event(document) -> list[str]:
    """Check one ``repro.obs.events/1`` ledger event; return errors."""
    if not isinstance(document, dict):
        return [f"event must be an object, got {type(document).__name__}"]
    errors: list[str] = []
    if document.get("schema") != EVENTS_SCHEMA:
        errors.append(
            f"schema must be {EVENTS_SCHEMA!r}, got {document.get('schema')!r}"
        )
    if not isinstance(document.get("run_id"), str) \
            or not document.get("run_id"):
        errors.append("missing non-empty 'run_id'")
    seq = document.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        errors.append("'seq' must be a non-negative integer")
    ts = document.get("ts")
    if not _is_number(ts) or ts < 0:
        errors.append("'ts' must be a non-negative number "
                      "(seconds since run start)")
    for key in ("source", "type"):
        if not isinstance(document.get(key), str) or not document.get(key):
            errors.append(f"missing non-empty '{key}'")
    data = document.get("data")
    if not isinstance(data, dict) or not all(
        isinstance(k, str) and isinstance(v, _SCALARS)
        for k, v in data.items()
    ):
        errors.append("'data' must be a str->scalar object")
    return errors


def validate_event_ledger(documents) -> list[str]:
    """Check a loaded event-ledger line list; errors carry line numbers.

    Beyond per-event shape this checks the ledger invariants: within each
    ``run_id``, sequence numbers are contiguous from 0 and timestamps
    never go backwards (the bus assigns both under one lock).
    """
    if not isinstance(documents, list):
        return ["event ledger must be a list of events"]
    errors: list[str] = []
    last_seq: dict[str, int] = {}
    last_ts: dict[str, float] = {}
    for index, document in enumerate(documents):
        line = f"line {index + 1}"
        event_errors = validate_event(document)
        errors.extend(f"{line}: {error}" for error in event_errors)
        if event_errors:
            continue
        run_id = document["run_id"]
        expected = last_seq.get(run_id, -1) + 1
        if document["seq"] != expected:
            errors.append(
                f"{line}: run {run_id} seq must be {expected} "
                f"(contiguous), got {document['seq']}"
            )
        last_seq[run_id] = max(last_seq.get(run_id, -1), document["seq"])
        if document["ts"] < last_ts.get(run_id, 0.0):
            errors.append(
                f"{line}: run {run_id} ts went backwards "
                f"({document['ts']} < {last_ts[run_id]})"
            )
        last_ts[run_id] = max(last_ts.get(run_id, 0.0), document["ts"])
    return errors


def validate_trace_events(document) -> list[str]:
    """Check a Chrome/Perfetto trace document (object or bare event list)."""
    errors: list[str] = []
    if isinstance(document, dict):
        events = document.get("traceEvents")
        if not isinstance(events, list):
            return ["trace document must contain a 'traceEvents' list"]
    elif isinstance(document, list):
        events = document
    else:
        return [f"trace document must be an object or list, "
                f"got {type(document).__name__}"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: must be an object")
            continue
        phase = event.get("ph")
        if phase not in _EVENT_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing 'name'")
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where}: missing integer 'pid'")
        if phase != "M" and not _is_number(event.get("ts")):
            errors.append(f"{where}: missing numeric 'ts'")
        if phase == "X" and (not _is_number(event.get("dur"))
                             or event.get("dur", -1) < 0):
            errors.append(f"{where}: complete event needs non-negative 'dur'")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: args must be an object")
    return errors


def _scalar_object(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and isinstance(v, _SCALARS)
        for k, v in value.items()
    )


def _delta_rows(rows, where: str, key_field: str) -> list[str]:
    """Shared shape check for ranked delta tables (a, b, delta per row)."""
    errors: list[str] = []
    if not isinstance(rows, list):
        return [f"{where}: must be a list"]
    for index, row in enumerate(rows):
        rwhere = f"{where}[{index}]"
        if not isinstance(row, dict):
            errors.append(f"{rwhere}: must be an object")
            continue
        if not isinstance(row.get(key_field), str) or not row.get(key_field):
            errors.append(f"{rwhere}: missing non-empty {key_field!r}")
        for side in ("a", "b", "delta"):
            if not _is_number(row.get(side)):
                errors.append(f"{rwhere}: missing numeric {side!r}")
        if (_is_number(row.get("a")) and _is_number(row.get("b"))
                and _is_number(row.get("delta"))
                and row["b"] - row["a"] != row["delta"]):
            errors.append(f"{rwhere}: delta must equal b - a")
    return errors


def _validate_diff_stats(section, where: str) -> list[str]:
    if not isinstance(section, dict):
        return [f"{where}: must be an object"]
    errors: list[str] = []
    errors.extend(_delta_rows(section.get("counters", []),
                              f"{where}.counters", "name"))
    errors.extend(_delta_rows(section.get("stall_slots", []),
                              f"{where}.stall_slots", "category"))
    errors.extend(_delta_rows(section.get("wait_cycles", []),
                              f"{where}.wait_cycles", "category"))
    invariant = section.get("invariant", [])
    if not isinstance(invariant, list):
        errors.append(f"{where}.invariant: must be a list")
    else:
        for index, entry in enumerate(invariant):
            iwhere = f"{where}.invariant[{index}]"
            if not isinstance(entry, dict):
                errors.append(f"{iwhere}: must be an object")
                continue
            if entry.get("side") not in ("a", "b"):
                errors.append(f"{iwhere}: side must be 'a' or 'b'")
            if not isinstance(entry.get("ok"), bool):
                errors.append(f"{iwhere}: missing boolean 'ok'")
    hotspots = section.get("hotspots", [])
    if not isinstance(hotspots, list):
        errors.append(f"{where}.hotspots: must be a list")
    else:
        for index, row in enumerate(hotspots):
            hwhere = f"{where}.hotspots[{index}]"
            if not isinstance(row, dict):
                errors.append(f"{hwhere}: must be an object")
                continue
            static = row.get("static_index")
            if not isinstance(static, int) or isinstance(static, bool) \
                    or static < 0:
                errors.append(f"{hwhere}: 'static_index' must be a "
                              "non-negative integer")
            if not isinstance(row.get("text"), str) or not row.get("text"):
                errors.append(f"{hwhere}: missing non-empty 'text'")
            for side in ("a", "b", "delta"):
                if not _is_number(row.get(side)):
                    errors.append(f"{hwhere}: missing numeric {side!r}")
            categories = row.get("categories")
            if not isinstance(categories, dict) or not all(
                isinstance(k, str) and _is_number(v)
                for k, v in categories.items()
            ):
                errors.append(f"{hwhere}: 'categories' must be a "
                              "str->number object")
    if "hotspots_complete" in section \
            and not isinstance(section["hotspots_complete"], bool):
        errors.append(f"{where}: 'hotspots_complete' must be a boolean")
    return errors


def _validate_diff_phases(rows, where: str) -> list[str]:
    if not isinstance(rows, list):
        return [f"{where}: must be a list"]
    errors: list[str] = []
    for index, row in enumerate(rows):
        rwhere = f"{where}[{index}]"
        if not isinstance(row, dict):
            errors.append(f"{rwhere}: must be an object")
            continue
        for key in ("source", "type"):
            if not isinstance(row.get(key), str) or not row.get(key):
                errors.append(f"{rwhere}: missing non-empty {key!r}")
        for key in ("a_count", "b_count", "delta_count"):
            if not isinstance(row.get(key), int) \
                    or isinstance(row.get(key), bool):
                errors.append(f"{rwhere}: {key!r} must be an integer")
        for key in ("a_seconds", "b_seconds", "delta_seconds"):
            if not _is_number(row.get(key)):
                errors.append(f"{rwhere}: missing numeric {key!r}")
    return errors


def _validate_diff_metrics(rows, where: str) -> list[str]:
    if not isinstance(rows, list):
        return [f"{where}: must be a list"]
    errors: list[str] = []
    for index, row in enumerate(rows):
        rwhere = f"{where}[{index}]"
        if not isinstance(row, dict):
            errors.append(f"{rwhere}: must be an object")
            continue
        if not isinstance(row.get("name"), str) or not row.get("name"):
            errors.append(f"{rwhere}: missing non-empty 'name'")
        for side in ("a", "b"):
            value = row.get(side)
            if value is not None and not _is_number(value):
                errors.append(f"{rwhere}: {side!r} must be a number or null")
        if not _is_number(row.get("delta")):
            errors.append(f"{rwhere}: missing numeric 'delta'")
        if "noisy" in row and not isinstance(row["noisy"], bool):
            errors.append(f"{rwhere}: 'noisy' must be a boolean")
    return errors


def validate_diff(document) -> list[str]:
    """Check a ``repro.obs.diff/1`` run-comparison report; return errors."""
    if not isinstance(document, dict):
        return [f"diff report must be an object, got {type(document).__name__}"]
    errors: list[str] = []
    if document.get("schema") != DIFF_SCHEMA:
        errors.append(
            f"schema must be {DIFF_SCHEMA!r}, got {document.get('schema')!r}"
        )
    if not isinstance(document.get("generated_by"), str) \
            or not document.get("generated_by"):
        errors.append("missing non-empty 'generated_by'")
    if document.get("kind") not in _DIFF_KINDS:
        errors.append(f"'kind' must be one of {_DIFF_KINDS}")
    if not isinstance(document.get("identical"), bool):
        errors.append("missing boolean 'identical'")
    if not isinstance(document.get("verdict"), str) \
            or not document.get("verdict"):
        errors.append("missing non-empty 'verdict'")
    for side in ("a", "b"):
        if not _scalar_object(document.get(side)):
            errors.append(f"{side!r} must be a str->scalar object "
                          "describing that run")
    if "stats" in document:
        errors.extend(_validate_diff_stats(document["stats"], "stats"))
    if "phases" in document:
        errors.extend(_validate_diff_phases(document["phases"], "phases"))
    if "metrics" in document:
        errors.extend(_validate_diff_metrics(document["metrics"], "metrics"))
    if not any(key in document for key in ("stats", "phases", "metrics")):
        errors.append("report must carry at least one comparison section "
                      "(stats/phases/metrics)")
    return errors
