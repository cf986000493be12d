"""Command-line entry point for the observability layer.

``python -m repro.obs <command>``:

* ``report`` / ``validate`` — render / schema-check a JSONL trace file.
* ``sentinel baseline [ARTIFACT ...]`` — the per-benchmark invariant
  gates over ``BENCH_*.json`` artifacts (default: every one in the
  working directory; see :mod:`repro.obs.sentinel`).  Exits 1 when a
  gate fails or no artifact is found.
* ``serve`` — stdlib HTTP endpoint exposing the process-wide telemetry
  as Prometheus text / JSON (see :mod:`repro.obs.export`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.core import TelemetrySnapshot, enable, get_telemetry
from repro.obs.export import MetricsServer, render_prometheus
from repro.obs.report import render_summary
from repro.obs.sentinel import check_baseline_gates
from repro.obs.trace import load_trace, spans_from_records, validate_trace


def _snapshot_from_records(records: "list[dict]") -> TelemetrySnapshot:
    """Rebuild the metrics snapshot embedded in a trace's final record."""
    for rec in records:
        if rec.get("type") == "metrics":
            return TelemetrySnapshot(
                counters=rec.get("counters", {}),
                gauges=rec.get("gauges", {}),
                histograms=rec.get("histograms", {}),
            )
    return TelemetrySnapshot()


def _cmd_report(args: argparse.Namespace) -> int:
    """Print the ASCII summary of a trace file."""
    records = load_trace(args.trace)
    problems = validate_trace(records)
    if problems:
        for p in problems:
            print(f"warning: {p}", file=sys.stderr)
    print(render_summary(spans_from_records(records), _snapshot_from_records(records)))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Validate a trace file against the schema; exit 1 on problems."""
    records = load_trace(args.trace)
    problems = validate_trace(records)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1
    n_spans = sum(1 for r in records if r.get("type") == "span")
    print(f"valid trace: {len(records)} records, {n_spans} spans")
    return 0


# -- sentinel --------------------------------------------------------------


def _cmd_sentinel_baseline(args: argparse.Namespace) -> int:
    """Invariant gates over artifacts; exit 1 on a failure or no artifact."""
    paths = [Path(p) for p in args.artifacts] or sorted(Path().glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        report = check_baseline_gates(path)
        print(report.render())
        failed = failed or not report.ok
    return 1 if failed else 0


# -- serve -----------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    """Expose the process telemetry over HTTP (Prometheus text + JSON)."""
    tele = get_telemetry()
    if not tele.enabled:
        tele = enable()
    server = MetricsServer(host=args.host, port=args.port).start()
    print(f"serving metrics on {server.url}/metrics (and /metrics.json)")
    try:
        if args.demo_sweep:
            from repro.experiments.fig8 import fig5_network
            from repro.runtime.sweep import SweepRunner

            populations = [2, 3, 4, 5]
            print(f"demo sweep: fig5 network, N in {populations} ...")
            runner = SweepRunner(cache_dir=None)
            runner.population_sweep(
                fig5_network(populations[0]), populations, method="lp",
                workers=2,
            )
            print(f"demo sweep done in {runner.last_wall_time_s:.2f}s")
        if args.once:
            sys.stdout.write(render_prometheus(tele.snapshot()))
            return 0
        server._thread.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Parse arguments and dispatch to the selected subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Traces, benchmark artifact gates, and metrics "
        "exposition for repro.obs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="render the ASCII profiling summary")
    p_report.add_argument("trace", help="path to a .jsonl trace file")
    p_report.set_defaults(func=_cmd_report)
    p_validate = sub.add_parser("validate", help="check a trace against the schema")
    p_validate.add_argument("trace", help="path to a .jsonl trace file")
    p_validate.set_defaults(func=_cmd_validate)

    p_sentinel = sub.add_parser("sentinel", help="benchmark artifact gates")
    ssub = p_sentinel.add_subparsers(dest="subcommand", required=True)
    s_baseline = ssub.add_parser(
        "baseline", help="declarative per-benchmark invariant gates"
    )
    s_baseline.add_argument(
        "artifacts", nargs="*",
        help="artifact paths (default: BENCH_*.json in the working directory)",
    )
    s_baseline.set_defaults(func=_cmd_sentinel_baseline)

    p_serve = sub.add_parser(
        "serve", help="HTTP endpoint exposing live Prometheus metrics"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9109)
    p_serve.add_argument(
        "--once", action="store_true",
        help="print the current exposition to stdout and exit",
    )
    p_serve.add_argument(
        "--demo-sweep", action="store_true",
        help="run a small parallel sweep while serving (smoke/demo)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
