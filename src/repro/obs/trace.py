"""Versioned JSONL trace export, loading, and schema validation.

A trace file is newline-delimited JSON with three record types, every
record carrying ``"schema": TRACE_SCHEMA_VERSION``:

* one ``header`` record (first line) — schema version and tool name;
* one ``span`` record per span, parents before children (depth-first),
  with ``span_id``/``parent_id`` assigned at export time;
* one ``metrics`` record (last line) — the final counter/gauge/histogram
  snapshot.

Schema policy: additive changes (new optional fields) keep the version;
any change that would break an existing reader bumps
:data:`TRACE_SCHEMA_VERSION`, and :func:`validate_trace` rejects files
whose major version it does not know.  See ``docs/observability.md``.
"""

from __future__ import annotations

import json

from repro.obs.core import Span, Telemetry, span_record

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "export_jsonl",
    "load_trace",
    "span_records",
    "spans_from_records",
    "validate_trace",
    "write_trace",
]

#: Current trace-file schema version (see module docstring for policy).
TRACE_SCHEMA_VERSION = 1

_SPAN_REQUIRED = (
    "span_id", "parent_id", "name", "start_s", "end_s", "duration_s",
    "attributes", "counters", "status", "error",
)


def span_line(body: dict, span_id: int, parent_id: "int | None") -> dict:
    """One ``span`` record: a :func:`~repro.obs.core.span_record` body
    stamped with the schema version and its ids."""
    return {
        "type": "span",
        "schema": TRACE_SCHEMA_VERSION,
        "span_id": span_id,
        "parent_id": parent_id,
        **body,
    }


def span_records(roots: "list[Span]") -> "list[dict]":
    """Flatten span trees into schema records, parents before children.

    Ids are assigned depth-first at export time (``1..n``), so the same
    tree always serializes identically — this is what makes trace files
    diffable and the parallel-sweep merge deterministic.
    """
    records: list[dict] = []

    def visit(sp: Span, parent_id: "int | None") -> None:
        sid = len(records) + 1
        records.append(span_line(span_record(sp), sid, parent_id))
        for child in sp.children:
            visit(child, sid)

    for root in roots:
        visit(root, None)
    return records


def spans_from_records(records: "list[dict]") -> "list[Span]":
    """Rebuild span trees from ``span`` records (inverse of export).

    Ignores non-span records, so the full record list of a loaded trace
    can be passed directly.  Returns the roots in record order.
    """
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    for rec in records:
        if rec.get("type", "span") != "span":
            continue
        sp = Span.__new__(Span)
        sp.name = rec["name"]
        sp.attributes = dict(rec.get("attributes", {}))
        sp.counters = dict(rec.get("counters", {}))
        sp.children = []
        sp.start_s = rec["start_s"]
        sp.end_s = rec["end_s"]
        sp.status = rec.get("status", "ok")
        sp.error = rec.get("error")
        sp._telemetry = None
        by_id[rec["span_id"]] = sp
        parent = by_id.get(rec.get("parent_id"))
        if parent is not None:
            parent.children.append(sp)
        else:
            roots.append(sp)
    return roots


def write_trace(
    path, tool: str, spans: "list[dict]", counters: dict, gauges: dict,
    histograms: dict, **header,
) -> int:
    """Write one JSONL trace file; returns the record count.

    The one trace writer (export and flight dumps): a header record
    naming ``tool`` (plus any extra ``header`` fields), the ``span``
    records as given, then the metrics record.
    """
    records = [
        {"type": "header", "schema": TRACE_SCHEMA_VERSION, "tool": tool, **header},
        *spans,
        {
            "type": "metrics",
            "schema": TRACE_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        },
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return len(records)


def export_jsonl(telemetry: Telemetry, path) -> int:
    """Write the telemetry's trace to ``path``; returns the record count.

    Layout: header record, every span record (depth-first), then the
    final metrics snapshot.
    """
    snap = telemetry.snapshot()
    return write_trace(
        path, "repro.obs", span_records(telemetry.roots),
        snap.counters, snap.gauges, snap.histograms,
    )


def load_trace(path) -> "list[dict]":
    """Parse a JSONL trace file into its record list (no validation)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_trace(records: "list[dict]") -> "list[str]":
    """Check records against the trace schema; returns problem strings.

    An empty list means the trace is valid.  Checks: header first with a
    known schema version, exactly one metrics record (last), span records
    complete with parents appearing before children, and every record
    stamped with the same schema version.
    """
    problems: list[str] = []
    if not records:
        return ["trace is empty"]
    head = records[0]
    if head.get("type") != "header":
        problems.append("first record is not a header")
    elif head.get("schema") != TRACE_SCHEMA_VERSION:
        problems.append(
            f"unknown schema version {head.get('schema')!r} "
            f"(reader supports {TRACE_SCHEMA_VERSION})"
        )
    metrics = [r for r in records if r.get("type") == "metrics"]
    if len(metrics) != 1:
        problems.append(f"expected exactly 1 metrics record, found {len(metrics)}")
    elif records[-1].get("type") != "metrics":
        problems.append("metrics record is not the last record")
    seen_ids: set[int] = set()
    for i, rec in enumerate(records):
        if rec.get("schema") != TRACE_SCHEMA_VERSION:
            problems.append(f"record {i}: missing/mismatched schema version")
        if rec.get("type") == "span":
            missing = [k for k in _SPAN_REQUIRED if k not in rec]
            if missing:
                problems.append(f"record {i}: span missing fields {missing}")
                continue
            pid = rec["parent_id"]
            if pid is not None and pid not in seen_ids:
                problems.append(
                    f"record {i}: parent_id {pid} not seen before child"
                )
            seen_ids.add(rec["span_id"])
        elif rec.get("type") not in ("header", "span", "metrics"):
            problems.append(f"record {i}: unknown type {rec.get('type')!r}")
    return problems
