"""The run-diff engine: explain *where* two runs differ, not just that.

The paper's entire argument is differential -- every figure explains
where the cycles went when a feature, width or cache is toggled.  This
module is that explanation machinery for any pair of recorded runs:

* :func:`diff_stats` -- two :class:`~repro.sim.stats.SimStats` compared
  counter by counter, with the 13-category stall-slot invariant
  re-checked on both sides, per-static-instruction wait-cycle deltas
  ranked by cycle impact, and provenance guards (results stamped with
  different program digests refuse to compare silently).
* :func:`diff_ledger_runs` -- two run ledgers (``repro.obs.events/1``)
  aligned phase by phase: event counts and wall-time deltas matched by
  (source, type), so "the compile phase got 2x slower" falls out of the
  ledger without instrumenting anything new.
* :func:`diff_metrics_docs` -- two metrics snapshots
  (``repro.obs.metrics/1``) joined on (name, labels); wall-clock-like
  metrics are marked *noisy* and never fail an identity verdict.
* :func:`build_report` -- assembles the sections into a schema-validated
  ``repro.obs.diff/1`` document and publishes a one-line summary to the
  active event bus (the dashboard's diff panel).

``python -m repro.tools.diff`` is the CLI over all of this.  The
first-divergence *bisector* for non-identical traces lives in
:mod:`repro.sim.diverge`.  See ``docs/observability.md`` ("Regression
forensics").
"""

from __future__ import annotations

from repro.obs.events import publish_event
from repro.obs.schema import DIFF_SCHEMA, validate_diff
from repro.sim.stats import STALL_CATEGORIES, WAIT_CATEGORIES, SimStats

#: SimStats event counters compared by :func:`diff_stats`, in display
#: order (``config_name`` is provenance, not a measurement).
STATS_COUNTERS = (
    "instructions", "cycles", "branches", "mispredictions", "loads",
    "stores", "store_forwards", "l1_misses", "l2_misses", "tlb_misses",
    "sbox_accesses", "sbox_cache_misses", "issue_slots",
)

#: Metric-name fragments that mark a metric as wall-clock-derived.
#: Host timing is never deterministic, so these deltas are reported but
#: excluded from the identity verdict.
_NOISY_FRAGMENTS = ("seconds", "wall", "eta", ".bytes_per_sec")


class ProvenanceMismatch(ValueError):
    """Two results whose provenance stamps say they cannot be compared."""


# -- SimStats --------------------------------------------------------------

def _invariant_entry(side: str, stats: SimStats) -> dict:
    """Re-check the exact slot account of one run (machine view).

    ``instructions + sum(stall_slots) == issue_slots`` with every
    category drawn from the 13 documented ones; unlimited-width runs
    (``issue_slots == 0``) have no slot budget and pass vacuously.
    """
    unknown = sorted(set(stats.stall_slots) - set(STALL_CATEGORIES))
    accounted = stats.instructions + sum(stats.stall_slots.values())
    entry = {
        "side": side,
        "issue_slots": stats.issue_slots,
        "accounted_slots": accounted,
        "ok": not unknown and (
            not stats.issue_slots or accounted == stats.issue_slots
        ),
    }
    if unknown:
        entry["unknown_categories"] = ",".join(unknown)
    return entry


def _ranked_deltas(categories, a_map: dict, b_map: dict) -> list[dict]:
    """Per-category delta rows, ranked by absolute impact (ties: order)."""
    rows = [
        {"category": category,
         "a": a_map.get(category, 0),
         "b": b_map.get(category, 0),
         "delta": b_map.get(category, 0) - a_map.get(category, 0)}
        for category in categories
    ]
    order = {category: index for index, category in enumerate(categories)}
    rows.sort(key=lambda row: (-abs(row["delta"]), order[row["category"]]))
    return rows


def _hotspot_deltas(a: SimStats, b: SimStats) -> list[dict]:
    """Per-static wait-cycle deltas over the union of both hot tables."""
    sides: dict[int, dict] = {}
    for key, table in (("a", a.hotspots), ("b", b.hotspots)):
        for row in table:
            spot = sides.setdefault(row["static_index"], {
                "static_index": row["static_index"],
                "text": row["text"],
                "a": 0, "b": 0,
                "a_waits": {}, "b_waits": {},
            })
            spot[key] = row["total_wait_cycles"]
            spot[f"{key}_waits"] = row["wait_cycles"]
    rows = []
    for spot in sides.values():
        categories = {
            category: (spot["b_waits"].get(category, 0)
                       - spot["a_waits"].get(category, 0))
            for category in WAIT_CATEGORIES
            if spot["b_waits"].get(category, 0)
            != spot["a_waits"].get(category, 0)
        }
        rows.append({
            "static_index": spot["static_index"],
            "text": spot["text"],
            "a": spot["a"],
            "b": spot["b"],
            "delta": spot["b"] - spot["a"],
            "categories": categories,
        })
    rows.sort(key=lambda row: (-abs(row["delta"]), row["static_index"]))
    return rows


def check_provenance(a: SimStats, b: SimStats) -> str | None:
    """Refuse to compare hot tables from different programs.

    Returns the shared program digest (or ``None`` when neither side is
    stamped -- results predating the provenance stamps still diff, with
    the digest reported as unknown).
    """
    digest_a = a.extra.get("program_digest")
    digest_b = b.extra.get("program_digest")
    if digest_a and digest_b and digest_a != digest_b:
        raise ProvenanceMismatch(
            f"refusing to diff results from different programs: "
            f"{digest_a[:12]} vs {digest_b[:12]} (pass results of the "
            f"same cipher kernel, or diff counters only)"
        )
    return digest_a or digest_b


def diff_stats(a: SimStats, b: SimStats) -> dict:
    """The ``stats`` section of a diff report: cycle-provenance deltas.

    Raises :class:`ProvenanceMismatch` when both sides carry a program
    digest and they disagree -- a hot-spot table only means something
    against its own program's static instructions.
    """
    digest = check_provenance(a, b)
    section = {
        "a_config": a.config_name,
        "b_config": b.config_name,
        "program_digest": digest or "unknown",
        "a_engine": a.extra.get("timing_engine", "unknown"),
        "b_engine": b.extra.get("timing_engine", "unknown"),
        "counters": [
            {"name": name,
             "a": getattr(a, name),
             "b": getattr(b, name),
             "delta": getattr(b, name) - getattr(a, name)}
            for name in STATS_COUNTERS
        ],
        "invariant": [_invariant_entry("a", a), _invariant_entry("b", b)],
        "stall_slots": _ranked_deltas(STALL_CATEGORIES,
                                      a.stall_slots, b.stall_slots),
        "wait_cycles": _ranked_deltas(WAIT_CATEGORIES,
                                      a.wait_cycles, b.wait_cycles),
        "hotspots": _hotspot_deltas(a, b),
        "hotspots_complete": not (a.extra.get("hotspots_truncated")
                                  or b.extra.get("hotspots_truncated")),
    }
    return section


def stats_identical(section: dict) -> bool:
    """True when every counter, slot and hot-spot delta is exactly zero."""
    return not any(
        row["delta"]
        for key in ("counters", "stall_slots", "wait_cycles", "hotspots")
        for row in section[key]
    )


def stats_verdict(section: dict, a_label: str, b_label: str) -> str:
    """One explanatory line: who gained what, and where it landed."""
    if not all(entry["ok"] for entry in section["invariant"]):
        broken = [entry["side"] for entry in section["invariant"]
                  if not entry["ok"]]
        return (f"invariant violation on side {'/'.join(broken)}: "
                f"issue slots do not account -- results are corrupt")
    if stats_identical(section):
        return (f"identical: {b_label} matches {a_label} on every counter, "
                f"stall category and hot spot")
    top = next((row for row in section["stall_slots"] if row["delta"]), None)
    if top is None:
        top = next((row for row in section["counters"] if row["delta"]),
                   None)
        return (f"{b_label} differs from {a_label}: "
                f"{top['name']} {top['delta']:+,}")
    direction = "gained" if top["delta"] > 0 else "saved"
    line = (f"{b_label} {direction} {abs(top['delta']):,} "
            f"{top['category']} stall slots vs {a_label}")
    spot = next((row for row in section["hotspots"] if row["delta"]), None)
    if spot is not None:
        line += (f"; hottest at #{spot['static_index']} {spot['text']} "
                 f"({spot['delta']:+,} wait cycles)")
    return line


def explain_stats_delta(a: SimStats, b: SimStats,
                        a_label: str = "a", b_label: str = "b") -> str:
    """Assertion-message helper: the verdict line for two SimStats.

    Used by the engine/backend equivalence suites so a bit-identity
    failure names the category and static instruction that moved instead
    of dumping two SimStats reprs.  Never raises: cross-program pairs
    degrade to a provenance message.
    """
    try:
        section = diff_stats(a, b)
    except ProvenanceMismatch as error:
        return str(error)
    return stats_verdict(section, a_label, b_label)


# -- run ledgers -----------------------------------------------------------

_SECONDS_KEYS = ("seconds", "wall_time", "wall_seconds")


def _phase_seconds(data: dict) -> float:
    for key in _SECONDS_KEYS:
        value = data.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return 0.0


def _phase_totals(events) -> tuple[dict, float]:
    totals: dict[tuple[str, str], list] = {}
    duration = 0.0
    for event in events:
        key = (event.get("source", "?"), event.get("type", "?"))
        entry = totals.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += _phase_seconds(event.get("data") or {})
        ts = event.get("ts")
        if isinstance(ts, (int, float)) and ts > duration:
            duration = float(ts)
    return totals, duration


def diff_ledger_runs(events_a, events_b) -> dict:
    """Phase alignment of two run ledgers, matched by (source, type).

    Counts are the structural signal (two runs of the same work publish
    the same events in the same multiplicities); wall-time deltas carry
    the forensics (which phase slowed down).  Diffing a run against
    itself is always all-zero.
    """
    totals_a, duration_a = _phase_totals(events_a)
    totals_b, duration_b = _phase_totals(events_b)
    rows = []
    for source, type_ in sorted(set(totals_a) | set(totals_b)):
        count_a, seconds_a = totals_a.get((source, type_), (0, 0.0))
        count_b, seconds_b = totals_b.get((source, type_), (0, 0.0))
        rows.append({
            "source": source,
            "type": type_,
            "a_count": count_a,
            "b_count": count_b,
            "delta_count": count_b - count_a,
            "a_seconds": round(seconds_a, 6),
            "b_seconds": round(seconds_b, 6),
            "delta_seconds": round(seconds_b - seconds_a, 6),
        })
    return {
        "rows": rows,
        "a_duration": round(duration_a, 6),
        "b_duration": round(duration_b, 6),
    }


def ledger_identical(section: dict) -> bool:
    """Structural identity: every (source, type) count matches.

    Wall times are host noise, so they never break identity -- two runs
    of identical work on a loaded machine still align.
    """
    return all(row["delta_count"] == 0 for row in section["rows"])


def ledger_verdict(section: dict, a_label: str, b_label: str) -> str:
    rows = section["rows"]
    if not rows:
        return "identical: both ledgers are empty"
    if ledger_identical(section):
        slowest = max(rows, key=lambda row: abs(row["delta_seconds"]))
        note = ""
        if slowest["delta_seconds"]:
            note = (f"; largest wall-time delta "
                    f"{slowest['delta_seconds']:+.3f}s in "
                    f"{slowest['source']}/{slowest['type']}")
        return (f"identical: {len(rows)} event kind(s) align between "
                f"{a_label} and {b_label}{note}")
    top = max(rows, key=lambda row: abs(row["delta_count"]))
    direction = "more" if top["delta_count"] > 0 else "fewer"
    return (f"{b_label} published {abs(top['delta_count'])} {direction} "
            f"{top['source']}/{top['type']} event(s) than {a_label}")


# -- metrics snapshots -----------------------------------------------------

def _is_noisy(name: str) -> bool:
    return any(fragment in name for fragment in _NOISY_FRAGMENTS)


def _metric_values(document) -> dict[str, float]:
    values: dict[str, float] = {}
    for metric in (document or {}).get("metrics", []):
        labels = metric.get("labels") or {}
        name = metric.get("name", "?")
        if labels:
            inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            name = f"{name}{{{inner}}}"
        if metric.get("type") == "histogram":
            values[f"{name}.count"] = float(metric.get("count", 0))
            values[f"{name}.sum"] = float(metric.get("sum", 0.0))
        else:
            value = metric.get("value")
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                values[name] = float(value)
    return values


def diff_metrics_docs(a_doc, b_doc) -> list:
    """Joined counter/gauge/histogram deltas of two metrics snapshots.

    Wall-clock metrics are flagged ``noisy``: their deltas are reported
    but never break the identity verdict.
    """
    values_a = _metric_values(a_doc)
    values_b = _metric_values(b_doc)
    rows = []
    for name in sorted(set(values_a) | set(values_b)):
        a_value = values_a.get(name)
        b_value = values_b.get(name)
        delta = (b_value or 0.0) - (a_value or 0.0)
        rows.append({
            "name": name,
            "a": a_value,
            "b": b_value,
            "delta": delta,
            "noisy": _is_noisy(name),
        })
    rows.sort(key=lambda row: (-abs(row["delta"]), row["name"]))
    return rows


def metrics_identical(rows) -> bool:
    """Identity over the deterministic rows only (noisy ones excluded)."""
    return all(row["delta"] == 0 for row in rows if not row["noisy"])


def metrics_verdict(rows, a_label: str, b_label: str) -> str:
    if metrics_identical(rows):
        noisy = sum(1 for row in rows if row["noisy"] and row["delta"])
        note = f" ({noisy} wall-clock metric(s) within noise)" if noisy else ""
        return (f"identical: every deterministic metric matches between "
                f"{a_label} and {b_label}{note}")
    top = next(row for row in rows if not row["noisy"] and row["delta"])
    return (f"{b_label} differs from {a_label}: "
            f"{top['name']} {top['delta']:+g}")


# -- report assembly -------------------------------------------------------

def build_report(
    kind: str,
    a: dict,
    b: dict,
    *,
    identical: bool,
    verdict: str,
    generated_by: str = "repro.obs.diffing",
    stats: dict | None = None,
    phases: dict | None = None,
    metrics: list | None = None,
) -> dict:
    """Assemble, validate and announce one ``repro.obs.diff/1`` report.

    ``a``/``b`` are str->scalar provenance blocks (labels, run ids, env
    fingerprints, cache state -- whatever identifies each side).  The
    report is validated before it is returned, so a malformed section is
    a bug here, not a surprise for ``obs --check``; a one-line summary is
    published to the active event bus for the dashboard's diff panel.
    """
    report: dict = {
        "schema": DIFF_SCHEMA,
        "generated_by": generated_by,
        "kind": kind,
        "identical": identical,
        "verdict": verdict,
        "a": a,
        "b": b,
    }
    if stats is not None:
        report["stats"] = {key: value for key, value in stats.items()
                          if key != "rows"}
    if phases is not None:
        report["phases"] = phases["rows"]
        report["a"] = {**report["a"],
                       "ledger_duration": phases["a_duration"]}
        report["b"] = {**report["b"],
                       "ledger_duration": phases["b_duration"]}
    if metrics is not None:
        report["metrics"] = metrics
    errors = validate_diff(report)
    if errors:
        raise ValueError(f"malformed diff report: {errors}")
    publish_event("diff", "report", {
        "kind": kind,
        "identical": identical,
        "verdict": verdict,
        "a": a.get("label"),
        "b": b.get("label"),
    })
    return report


# -- terminal rendering ----------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.3f}"
    return f"{int(value):,}"


def render_report(report: dict, limit: int = 10) -> str:
    """Human-readable table rendering of a diff report."""
    lines = [
        f"diff [{report['kind']}]  "
        f"a={report['a'].get('label', '?')}  b={report['b'].get('label', '?')}",
        f"verdict: {report['verdict']}",
    ]
    stats = report.get("stats")
    if stats:
        shown = False
        for row in stats["counters"]:
            if not row["delta"]:
                continue
            if not shown:
                lines.append("")
                lines.append(f"  {'counter':<20} {'a':>14} {'b':>14} "
                             f"{'delta':>12}")
                shown = True
            lines.append(f"  {row['name']:<20} {_fmt(row['a']):>14} "
                         f"{_fmt(row['b']):>14} {row['delta']:>+12,}")
        shown = False
        for row in stats["stall_slots"][:limit]:
            if not row["delta"]:
                continue
            if not shown:
                lines.append(f"  {'stall slots':<20} {'a':>14} {'b':>14} "
                             f"{'delta':>12}")
                shown = True
            lines.append(f"  {row['category']:<20} {_fmt(row['a']):>14} "
                         f"{_fmt(row['b']):>14} {row['delta']:>+12,}")
        spots = [row for row in stats["hotspots"] if row["delta"]][:limit]
        if spots:
            lines.append("  hot-spot deltas (wait cycles):")
            for row in spots:
                reasons = ", ".join(
                    f"{category} {delta:+,}" for category, delta
                    in sorted(row["categories"].items(),
                              key=lambda item: -abs(item[1]))
                )
                lines.append(f"    #{row['static_index']:<4} "
                             f"{row['text']:<36} {row['delta']:>+12,}  "
                             f"{reasons}")
        if not stats.get("hotspots_complete", True):
            lines.append("  (hot-spot table truncated: per-instruction "
                         "deltas cover the top entries only)")
    phases = report.get("phases")
    if phases:
        lines.append("")
        lines.append(f"  {'phase':<28} {'a#':>6} {'b#':>6} "
                     f"{'a sec':>10} {'b sec':>10} {'delta':>10}")
        for row in phases:
            if not row["delta_count"] and not row["delta_seconds"]:
                continue
            name = f"{row['source']}/{row['type']}"
            lines.append(f"  {name:<28} {row['a_count']:>6} "
                         f"{row['b_count']:>6} {row['a_seconds']:>10.3f} "
                         f"{row['b_seconds']:>10.3f} "
                         f"{row['delta_seconds']:>+10.3f}")
    metrics = report.get("metrics")
    if metrics:
        lines.append("")
        lines.append(f"  {'metric':<44} {'delta':>14}")
        for row in metrics[:limit]:
            if not row["delta"]:
                continue
            flag = " (noisy)" if row.get("noisy") else ""
            lines.append(f"  {row['name']:<44} {row['delta']:>+14g}{flag}")
    return "\n".join(lines)
