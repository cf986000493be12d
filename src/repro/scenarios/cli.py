"""Command-line interface: ``python -m repro.scenarios``.

Subcommands
-----------
``list``
    Table of registered scenarios (name, kind, stations, tags, summary).
``show NAME``
    Full description, defaults, and suggested populations.
``render NAME``
    Declarative YAML spec of the compiled model (pipe to a file, edit,
    and solve it back with ``solve --spec``).
``validate SPEC``
    Lint a YAML spec (path or inline) and report per-station offered
    utilizations / stability without solving.
``solve NAME``
    Solve one population through the cached solver registry.  With
    ``--method transient`` (or ``--method fluid``) the extra
    ``--times``/``--pi0`` options select the grid and the initial state,
    and the trajectory is printed; ``--method fluid`` without ``--times``
    solves the fluid steady state directly (populations in the millions).
``sweep NAME``
    Population sweep through :class:`~repro.runtime.sweep.SweepRunner`.

``solve`` and ``sweep`` accept ``--profile`` (print the
:mod:`repro.obs` span-tree/latency summary after the result tables) and
``--trace-out FILE`` (write the JSONL trace; implies collection even
without ``--profile``).  Telemetry warnings go to stderr, never stdout,
so ``solve`` tables and ``validate --json`` output stay
machine-parseable.

Scenario parameters are overridden with repeated ``-p key=value`` flags
(values parsed as YAML scalars, so ``-p scv=25`` is a float and
``-p burstiness=high`` a string).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.scenarios import (
    get_scenario,
    get_scenario_registry,
    load_spec,
    network_from_spec,
)
from repro.utils.errors import UnsupportedNetworkError
from repro.utils.tables import format_table

__all__ = ["main"]


def _warn(message: str) -> None:
    """Telemetry/diagnostic warning on stderr — stdout stays parseable."""
    print(f"warning: {message}", file=sys.stderr)


def _telemetry_for(args: argparse.Namespace):
    """A fresh Telemetry when ``--profile``/``--trace-out`` asks for one."""
    if getattr(args, "profile", False) or getattr(args, "trace_out", None):
        import repro.obs as obs

        return obs.Telemetry()
    return None


def _emit_profile(args: argparse.Namespace, tele) -> None:
    """Write the trace file and/or print the ASCII summary (post-solve)."""
    if tele is None:
        return
    import repro.obs as obs

    if getattr(args, "trace_out", None):
        try:
            obs.export_jsonl(tele, args.trace_out)
        except OSError as exc:
            _warn(f"could not write trace to {args.trace_out}: {exc}")
    if getattr(args, "profile", False):
        print()
        print(tele.summary())


def _parse_params(pairs: "list[str] | None") -> dict[str, Any]:
    """Parse repeated ``-p key=value`` flags into a parameter dict."""
    params: dict[str, Any] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"-p expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            import yaml

            value = yaml.safe_load(raw)
        except ImportError:  # pragma: no cover - environment-dependent
            try:
                value = float(raw) if "." in raw or "e" in raw.lower() else int(raw)
            except ValueError:
                value = raw
        params[key.strip()] = value
    return params


def _network_for(args: argparse.Namespace):
    """Resolve the model: a named scenario or an external YAML spec file."""
    params = _parse_params(getattr(args, "param", None))
    if getattr(args, "spec", None):
        if params:
            raise SystemExit(
                "-p overrides apply to named scenarios only; edit the spec "
                "file instead (--population still works with --spec)"
            )
        spec = load_spec(args.spec)
        if args.population is not None:
            spec = dict(spec, population=args.population)
        return network_from_spec(spec), spec.get("name", args.spec)
    sc = get_scenario(args.name)
    return sc.network(population=args.population, **params), sc.name


def _describe_population(net) -> str:
    """Human-readable population/arrival summary for titles."""
    if net.kind == "closed":
        return f"N={net.population}"
    if net.kind == "open":
        return f"open, lambda={net.arrivals.rate:.4g}"
    return f"N={net.population}, lambda={net.arrivals.rate:.4g}"


def _result_rows(res) -> list[list[Any]]:
    """Flatten a SolveResult into per-station metric rows."""
    rows = []
    for k, name in enumerate(res.station_names):
        cells: list[Any] = [name]
        for metric in ("utilization", "throughput", "queue_length"):
            iv = getattr(res, metric)[k]
            cells += [float("nan"), float("nan")] if iv is None else [iv.lower, iv.upper]
        rows.append(cells)
    return rows


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #
def _cmd_list(args: argparse.Namespace) -> int:
    """``list``: one row per registered scenario."""
    registry = get_scenario_registry()
    scenarios = registry.by_tag(args.tag) if args.tag else tuple(registry)
    rows = []
    for sc in scenarios:
        net = sc.network()
        rows.append(
            [sc.name, net.kind, net.n_stations,
             "-" if net.kind == "open" else sc.default_population,
             ",".join(sc.tags), sc.summary]
        )
    print(format_table(
        ["name", "kind", "M", "N", "tags", "summary"], rows,
        title=f"{len(rows)} registered scenarios",
    ))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    """``show``: full card for one scenario."""
    sc = get_scenario(args.name)
    net = sc.network()
    print(f"{sc.name} — {sc.summary}")
    if sc.paper_ref:
        print(f"paper: {sc.paper_ref}")
    print(f"tags: {', '.join(sc.tags) or '(none)'}")
    print(f"\n{sc.description}\n")
    print(f"model: {net!r}")
    print(f"kind: {net.kind}")
    print(f"demands: {[round(float(d), 6) for d in net.service_demands]}")
    if net.kind != "closed":
        print(
            "open-chain offered utilizations: "
            f"{[round(float(r), 6) for r in net.open_utilizations]}"
        )
    if net.kind != "open":
        print(f"default population: {sc.default_population}")
        print(f"suggested sweep: {list(sc.populations)}")
    if sc.defaults:
        rows = [[k, repr(v)] for k, v in sc.defaults.items()]
        print(format_table(["parameter", "default"], rows))
    print(f"fingerprint: {sc.fingerprint()}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    """``render``: dump the declarative YAML spec to stdout."""
    from repro.scenarios import dump_spec

    sc = get_scenario(args.name)
    params = _parse_params(args.param)
    sys.stdout.write(dump_spec(sc.spec(population=args.population, **params)))
    return 0


def _validate_report(net, name: str) -> dict:
    """Machine-readable lint report, which ``validate`` prints as JSON or
    renders as its text tables.

    Stations carry their kind/phase/mean/demand facts plus, for open
    chains, the per-station ``lambda_k``/``rho_k`` traffic solution and a
    stability verdict — everything CI smoke scripts used to scrape out of
    the formatted tables.
    """
    kind = net.kind
    report: dict[str, Any] = {"valid": True, "name": name, "kind": kind}
    stations: list[dict[str, Any]] = []
    demands = net.service_demands
    if kind != "open":
        report["population"] = net.population
    if kind != "closed":
        report["arrival_rate"] = float(net.arrivals.rate)
        rho = net.open_utilizations
        lam = net.arrival_rates
    # The queueing bottleneck: think-time (delay) demand never saturates a
    # server, so it cannot be the bottleneck.
    queue_demands = [
        float(demands[k]) for k, st in enumerate(net.stations)
        if st.kind != "delay"
    ]
    d_max = max(queue_demands) if queue_demands else float("nan")
    for k, st in enumerate(net.stations):
        row: dict[str, Any] = {
            "name": st.name,
            "kind": st.kind,
            "phases": st.phases,
            "mean_service_time": float(st.mean_service_time),
            "demand": float(demands[k]),
        }
        if kind == "closed":
            row["bottleneck"] = (
                st.kind != "delay" and float(demands[k]) == d_max
            )
        else:
            r = float(rho[k])
            row["lambda_k"] = float(lam[k])
            row["rho_k"] = r
            row["stability"] = (
                "-" if st.kind == "delay"
                else "near-saturation" if r > 0.95
                else "stable"
            )
        stations.append(row)
    report["stations"] = stations
    return report


def _cmd_validate(args: argparse.Namespace) -> int:
    """``validate``: lint a spec and report stability without solving.

    Exit status 0 means the spec compiles to a valid (and, for open
    chains, stable) network; 1 means it does not, with the validation
    error printed on stderr (or, under ``--json``, a machine-readable
    ``{"valid": false, ...}`` document on stdout).
    """
    import json

    from repro.utils.errors import ReproError

    try:
        spec = load_spec(args.spec)
        net = network_from_spec(spec)
    except Exception as exc:  # noqa: BLE001 - lint contract: report, exit 1
        # YAML syntax errors, unreadable files, and anything else that
        # stops the spec from compiling is a lint failure, not a crash.
        if args.json:
            print(json.dumps(
                {"valid": False, "error": str(exc),
                 "error_type": type(exc).__name__},
                indent=2,
            ))
        elif isinstance(exc, ReproError):
            print(f"INVALID: {exc}", file=sys.stderr)
        else:
            print(f"INVALID: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    name = spec.get("name", args.spec if "\n" not in args.spec else "(inline)")
    report = _validate_report(net, name)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    kind = report["kind"]
    if kind == "closed":
        rows = [
            [s["name"], s["kind"], s["phases"], round(s["mean_service_time"], 6),
             round(s["demand"], 6), "bottleneck" if s["bottleneck"] else ""]
            for s in report["stations"]
        ]
        print(format_table(
            ["station", "kind", "K", "E[S]", "demand", ""],
            rows,
            title=f"VALID closed spec: {name} (N={report['population']})",
        ))
        print(
            "closed networks are unconditionally stable; utilizations "
            "approach demand/max-demand as N grows"
        )
        return 0
    rows = [
        [s["name"], s["kind"], s["phases"], round(s["mean_service_time"], 6),
         round(s["lambda_k"], 6), round(s["rho_k"], 6),
         "NEAR SATURATION" if s["stability"] == "near-saturation" else s["stability"]]
        for s in report["stations"]
    ]
    title = f"VALID {kind} spec: {name} (lambda={report['arrival_rate']:.6g}"
    title += f", N={report['population']})" if kind == "mixed" else ")"
    print(format_table(
        ["station", "kind", "K", "E[S]", "lambda_k", "rho_k", "stability"],
        rows,
        title=title,
    ))
    if kind == "mixed":
        print(
            "note: rho_k is the open chain's offered load only — a "
            "necessary stability condition; closed jobs share the servers"
        )
    return 0


def _parse_times(text: str) -> tuple[float, ...]:
    """Parse ``--times``: ``a,b,c`` floats or ``start:stop:num`` linspace."""
    import numpy as np

    text = text.strip()
    try:
        if ":" in text:
            start, stop, num = text.split(":")
            return tuple(
                float(t)
                for t in np.linspace(float(start), float(stop), int(num))
            )
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise SystemExit(
            f"--times expects 't1,t2,...' or 'start:stop:num', got {text!r}"
        ) from None


def _print_trajectory(res) -> None:
    """Render a TransientResult's trajectory as a table plus summaries."""
    rows = []
    for i, t in enumerate(res.times):
        rows.append(
            [round(t, 6)]
            + [round(row[i], 4) for row in res.queue_length_t]
            + [round(res.distance_tv[i], 4)]
        )
    print(format_table(
        ["t"] + [f"E[N:{name}]" for name in res.station_names] + ["TV"],
        rows,
        title=f"transient trajectory, pi0={res.extra.get('pi0')!r}",
    ))
    inf = res.extra.get("queue_length_inf")
    if inf:
        print(
            "stationary E[N]: "
            + ", ".join(
                f"{name}={v:.4f}" for name, v in zip(res.station_names, inf)
            )
        )
    warm = res.warmup_time()
    drains = [
        f"{name}={res.time_to_drain(k):.4g}"
        for k, name in enumerate(res.station_names)
    ]
    print(f"time-to-drain (5% relaxation): {', '.join(drains)}")
    print(f"warm-up (TV <= 0.01): {warm:.4g}")


def _cmd_solve(args: argparse.Namespace) -> int:
    """``solve``: one cached solve, metrics printed as a table."""
    from contextlib import nullcontext

    from repro.runtime import get_registry

    net, label = _network_for(args)
    opts = {}
    if args.times is not None or args.pi0 is not None:
        if args.method not in ("transient", "fluid"):
            raise SystemExit(
                "--times/--pi0 apply to --method transient/fluid only"
            )
        if args.times is not None:
            opts["times"] = (
                "auto" if args.times.strip() == "auto"
                else _parse_times(args.times)
            )
        if args.pi0 is not None:
            opts["pi0"] = args.pi0
    if args.backend is not None:
        if args.method not in ("exact", "transient"):
            raise SystemExit(
                "--backend applies to --method exact/transient only"
            )
        opts["backend"] = args.backend
    tele = _telemetry_for(args)
    if tele is not None:
        import repro.obs as obs

        scope = obs.use(tele)
    else:
        scope = nullcontext()
    try:
        with scope:
            res = get_registry().solve(
                net, args.method, cache=not args.no_cache, **opts
            )
    except UnsupportedNetworkError as exc:
        raise SystemExit(f"solve: {exc}") from exc
    title = (
        f"{label}: {_describe_population(net)}, method={res.method}, "
        f"{res.wall_time_s:.3f}s"
        + (
            f" (cached: {res.extra.get('cache_tier', 'memory')})"
            if res.from_cache
            else ""
        )
    )
    print(format_table(
        ["station", "U.lo", "U.hi", "X.lo", "X.hi", "Q.lo", "Q.hi"],
        _result_rows(res),
        title=title,
    ))
    tail = []
    if res.system_throughput is not None:
        x = res.system_throughput
        tail.append(f"system throughput in [{x.lower:.6g}, {x.upper:.6g}]")
    if res.response_time is not None:
        r = res.response_time
        tail.append(f"response time in [{r.lower:.6g}, {r.upper:.6g}]")
    if tail:
        print("; ".join(tail))
    if res.method == "transient" or (res.method == "fluid" and res.times):
        _print_trajectory(res)
    elif res.method == "fluid":
        print(
            "fluid fixed point ("
            + ("saturated" if res.extra.get("saturated") else "unsaturated")
            + f", dim={res.extra.get('fluid_dim')}, residual="
            + f"{res.extra.get('fixed_point_residual', 0.0):.2e})"
        )
    _emit_profile(args, tele)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``sweep``: population sweep via SweepRunner.run_spec."""
    from repro.runtime.sweep import SweepRunner, SweepSpec

    sc = get_scenario(args.name)
    if sc.network().kind == "open":
        raise SystemExit(
            f"sweep: {sc.name!r} is an open scenario with no population to "
            "sweep; use 'solve' (optionally with -p overrides like the "
            "arrival mean) instead"
        )
    if args.populations:
        try:
            populations = tuple(
                int(tok) for tok in args.populations.split(",") if tok
            )
        except ValueError:
            raise SystemExit(
                f"--populations must be comma-separated integers, "
                f"got {args.populations!r}"
            )
    else:
        populations = sc.populations or (sc.default_population,)
    spec = SweepSpec(
        scenario=sc.name,
        populations=populations,
        method=args.method,
        params=_parse_params(args.param),
        base_seed=args.seed,
    )
    runner = SweepRunner()
    tele = _telemetry_for(args)
    if tele is not None:
        import repro.obs as obs

        scope = obs.use(tele)
    else:
        from contextlib import nullcontext

        scope = nullcontext()
    try:
        with scope:
            results = runner.run_spec(
                spec, workers=args.workers, cache=not args.no_cache
            )
    except UnsupportedNetworkError as exc:
        # Kind/method compatibility lives in the registry adapters; the
        # first sweep point surfaces the typed error and we exit cleanly
        # instead of dumping a traceback (e.g. `sweep mixed-tpcw` without
        # --method sim).
        raise SystemExit(f"sweep: {exc}") from exc
    rows = []
    for N, res in zip(populations, results):
        x = res.system_throughput
        r = res.response_time
        rows.append([
            N,
            x.lower if x else float("nan"),
            x.upper if x else float("nan"),
            r.lower if r else float("nan"),
            r.upper if r else float("nan"),
            res.wall_time_s,
            "hit" if res.from_cache else "miss",
        ])
    print(format_table(
        ["N", "X.lo", "X.hi", "R.lo", "R.hi", "solve_s", "cache"],
        rows,
        title=(
            f"{sc.name} sweep ({spec.method}), "
            f"{runner.last_wall_time_s:.2f}s wall"
        ),
    ))
    print(f"sweep fingerprint: {spec.fingerprint()}")
    _emit_profile(args, tele)
    return 0


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #
def _add_param_flag(p: argparse.ArgumentParser) -> None:
    """Attach the repeated ``-p key=value`` override flag."""
    p.add_argument(
        "-p", "--param", action="append", metavar="KEY=VALUE",
        help="scenario parameter override (repeatable)",
    )


def _add_profile_flags(p: argparse.ArgumentParser) -> None:
    """Attach the ``--profile``/``--trace-out`` telemetry flags."""
    p.add_argument(
        "--profile", action="store_true",
        help="collect repro.obs telemetry and print the span/latency summary",
    )
    p.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the JSONL trace to FILE (implies telemetry collection)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro.scenarios`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="List, render, and solve registered MAP-network scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list registered scenarios")
    p.add_argument("--tag", help="only scenarios carrying this tag")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("show", help="describe one scenario")
    p.add_argument("name")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("render", help="print the declarative YAML spec")
    p.add_argument("name")
    p.add_argument("--population", type=int, default=None)
    _add_param_flag(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser(
        "validate",
        help="lint a YAML spec and report stability without solving",
    )
    p.add_argument("spec", help="YAML spec file path (or inline YAML text)")
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable lint + per-station rho report on stdout",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="solve one population via the registry")
    p.add_argument("name", nargs="?", default=None,
                   help="scenario name (omit when using --spec)")
    p.add_argument("--spec", help="solve an external YAML spec file instead")
    p.add_argument("--method", default="lp",
                   help="solver method (lp/exact/sim/transient/mva/...)")
    p.add_argument("--population", type=int, default=None)
    p.add_argument("--times", default=None,
                   help="transient/fluid time grid: 't1,t2,...', "
                        "'start:stop:num', or 'auto' (without --times, "
                        "--method fluid solves the steady fixed point)")
    p.add_argument("--pi0", default=None,
                   help="transient/fluid initial state: "
                        "loaded:<st>|burst:<st>|steady")
    p.add_argument("--backend", default=None,
                   choices=("auto", "dense", "operator"),
                   help="generator representation for exact/transient: "
                        "assembled sparse matrix or matrix-free Kronecker "
                        "operator (auto picks by state-space size)")
    p.add_argument("--no-cache", action="store_true")
    _add_param_flag(p)
    _add_profile_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="population sweep via SweepRunner")
    p.add_argument("name")
    p.add_argument("--method", default="lp")
    p.add_argument("--populations",
                   help="comma-separated list (default: the scenario's)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="base seed for stochastic methods")
    p.add_argument("--no-cache", action="store_true")
    _add_param_flag(p)
    _add_profile_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "solve" and not args.name and not args.spec:
        raise SystemExit("solve: give a scenario name or --spec FILE")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
