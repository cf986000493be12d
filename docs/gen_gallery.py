#!/usr/bin/env python
"""Generate the scenario gallery page from the live ScenarioRegistry.

Writes ``docs/scenarios.md`` (or the path given as the first argument)
by iterating the registered scenarios — the gallery is never hand
written, so it cannot drift from the catalog.  For every closed scenario
it also renders a bound-vs-population chart (``docs/plots/*.svg``,
hand-written SVG — no plotting dependency): ABA and LP throughput bounds
with the fluid limit overlaid and exact points where the CTMC is small
enough to enumerate.  The curves are solved through the SweepRunner over
the default result cache, so regeneration after the first run is a cache
replay.  Run it before building the site:

    python docs/gen_gallery.py && mkdocs build --strict

Pass ``--no-plots`` to regenerate only the markdown (fast, no solves).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

#: Feasibility ceilings for the expensive tiers, chosen so every gallery
#: point solves in well under a second: the exact CTMC is enumerated only
#: below ``_EXACT_STATE_CEILING`` joint states, the LP bounds only below
#: ``_LP_VAR_CEILING`` program variables.  ABA and fluid are closed-form
#: and run at every point.
_EXACT_STATE_CEILING = 10_000
_LP_VAR_CEILING = 4_000
#: At most this many populations per chart (downsampled from the
#: scenario's suggested sweep).
_MAX_PLOT_POINTS = 6

_PLOT_STYLE = {
    "aba": ("#8a8a8a", "6 4"),  # grey, dashed
    "lp": ("#1f6fb4", ""),  # blue, solid
    "fluid": ("#c23b22", "2 3"),  # red, dotted
    "exact": ("#2c8a4b", ""),  # green, solid + markers
}

HEADER = """\
# Scenario gallery

<!-- GENERATED FILE — do not edit.  Regenerate with:
     python docs/gen_gallery.py -->

Every scenario below is registered in `repro.scenarios.catalog` and this
page is generated from the registry itself (`docs/gen_gallery.py`).
Solve any of them with:

```bash
python -m repro.scenarios solve <name> --method lp
```

A scenario family is a Python function of the population: some wrap the
workload models of `repro.workloads`, others (`fig5-case-study`,
`stress-large-population`) declare the network with the fluent
`NetworkBuilder`, whose `build()` writes a spec and compiles it with
`network_from_spec` — the same compiler a YAML document goes through
(open-chain pseudo-nodes take the reserved `source`/`sink` names; see
the [spec format](spec-format.md)).

"""


def render_scenario(sc) -> str:
    """Markdown section for one scenario."""
    net = sc.network()
    lines = [f"## `{sc.name}`", ""]
    lines.append(f"**{sc.summary}**")
    lines.append("")
    meta = [f"paper: {sc.paper_ref}"] if sc.paper_ref else []
    if sc.tags:
        meta.append("tags: " + ", ".join(sc.tags))
    if meta:
        lines.append(" — ".join(meta))
        lines.append("")
    lines.append(sc.description)
    lines.append("")
    if net.kind == "open":
        lines.append(
            f"Model: open, {net.n_stations} stations, external arrival "
            f"rate {net.arrivals.rate:.4g} (offered utilizations "
            f"{[round(float(r), 3) for r in net.open_utilizations]})."
        )
    elif net.kind == "mixed":
        lines.append(
            f"Model: mixed, {net.n_stations} stations, default closed "
            f"population {sc.default_population} plus an open chain at "
            f"rate {net.arrivals.rate:.4g}; suggested sweep "
            f"{list(sc.populations)}."
        )
    else:
        lines.append(
            f"Model: {net.n_stations} stations, default population "
            f"{sc.default_population}, suggested sweep "
            f"{list(sc.populations)}."
        )
    lines.append("")
    if sc.defaults:
        lines.append("| parameter | default |")
        lines.append("| --- | --- |")
        for key, value in sc.defaults.items():
            lines.append(f"| `{key}` | `{value!r}` |")
        lines.append("")
    solve_method = {"open": "qbd", "mixed": "sim"}.get(net.kind, "mva")
    lines.append("```bash")
    lines.append(f"python -m repro.scenarios show {sc.name}")
    lines.append(f"python -m repro.scenarios solve {sc.name} --method {solve_method}")
    lines.append("```")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# bound-vs-population charts (hand-written SVG, no plotting dependency)
# ---------------------------------------------------------------------- #
def _downsample(seq, k):
    """At most ``k`` evenly spaced entries, always keeping first and last."""
    seq = list(seq)
    if len(seq) <= k:
        return seq
    idx = [round(i * (len(seq) - 1) / (k - 1)) for i in range(k)]
    return [seq[i] for i in sorted(set(idx))]


def _lp_variables(net) -> int:
    from repro.core.assembly import VariableIndex

    return max(
        off + math.prod(shape) for _, off, shape in VariableIndex(net).blocks()
    )


def bound_curves(sc) -> "dict | None":
    """Solve the bound ladder over the scenario's population sweep.

    Returns ``{"populations", "aba", "lp", "fluid", "exact"}`` where the
    bound tiers map to ``(population, lower, upper)`` triples and the
    point tiers to ``(population, value)`` pairs — or ``None`` for
    non-closed scenarios (the fluid/exact ladder is a closed-network
    construction).
    """
    from repro.network.statespace import expected_state_count
    from repro.runtime.sweep import SweepRunner

    if sc.network().kind != "closed":
        return None
    populations = _downsample(sc.populations, _MAX_PLOT_POINTS)
    if not populations:
        return None
    networks = [sc.network(population=n) for n in populations]
    runner = SweepRunner(workers=1)

    aba = runner.run(networks, "aba")
    fluid = runner.run(networks, "fluid")
    curves = {
        "populations": populations,
        "aba": [
            (n, r.system_throughput.lower, r.system_throughput.upper)
            for n, r in zip(populations, aba)
        ],
        "fluid": [
            (n, r.system_throughput_point())
            for n, r in zip(populations, fluid)
        ],
        "lp": [],
        "exact": [],
    }
    lp_nets = [
        (n, net)
        for n, net in zip(populations, networks)
        if _lp_variables(net) <= _LP_VAR_CEILING
    ]
    if lp_nets:
        results = runner.run(
            [net for _, net in lp_nets], "lp", metrics=("system_throughput",)
        )
        curves["lp"] = [
            (n, r.system_throughput.lower, r.system_throughput.upper)
            for (n, _), r in zip(lp_nets, results)
        ]
    exact_nets = [
        (n, net)
        for n, net in zip(populations, networks)
        if expected_state_count(net) <= _EXACT_STATE_CEILING
    ]
    if exact_nets:
        results = runner.run([net for _, net in exact_nets], "exact")
        curves["exact"] = [
            (n, r.system_throughput_point())
            for (n, _), r in zip(exact_nets, results)
        ]
    return curves


def render_bounds_svg(sc, curves) -> str:
    """One bound-vs-population chart as a standalone SVG document."""
    width, height = 640, 360
    left, right, top, bottom = 62, 16, 34, 52
    plot_w, plot_h = width - left - right, height - top - bottom

    populations = curves["populations"]
    xs = [math.log10(n) for n in populations]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    ys = [v for _, v in curves["fluid"]] + [v for _, v in curves["exact"]]
    for _, lo, hi in curves["aba"] + curves["lp"]:
        ys.extend((lo, hi))
    y_hi = max(ys) * 1.08
    y_lo = 0.0

    def px(n):
        return left + (math.log10(n) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return top + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    def poly(points, color, dash, width_=1.6):
        attrs = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{px(n):.1f},{py(v):.1f}" for n, v in points)
        return (
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width_}"{attrs}/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width} {height}" '
        f'font-family="Helvetica,Arial,sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
        f'font-size="13">{sc.name}: throughput bounds vs population</text>',
        # axes
        f'<line x1="{left}" y1="{top}" x2="{left}" '
        f'y2="{top + plot_h}" stroke="#333"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#333"/>',
    ]
    # x ticks at the sampled populations (log scale)
    for n in populations:
        x = px(n)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 16}" '
            f'text-anchor="middle">{n}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 10}" '
        f'text-anchor="middle">population N (log scale)</text>'
    )
    # y ticks
    for i in range(5):
        v = y_lo + (y_hi - y_lo) * i / 4
        y = py(v)
        parts.append(
            f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" '
            f'y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" '
            f'y2="{y:.1f}" stroke="#eee"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end">{v:.3g}</text>'
        )
    parts.append(
        f'<text x="14" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {top + plot_h / 2:.0f})">'
        f"system throughput X</text>"
    )
    # series: bound pairs as two polylines, points as polyline + markers
    color, dash = _PLOT_STYLE["aba"]
    parts.append(poly([(n, lo) for n, lo, _ in curves["aba"]], color, dash))
    parts.append(poly([(n, hi) for n, _, hi in curves["aba"]], color, dash))
    if curves["lp"]:
        color, dash = _PLOT_STYLE["lp"]
        parts.append(poly([(n, lo) for n, lo, _ in curves["lp"]], color, dash))
        parts.append(poly([(n, hi) for n, _, hi in curves["lp"]], color, dash))
    color, dash = _PLOT_STYLE["fluid"]
    parts.append(poly(curves["fluid"], color, dash, width_=2.0))
    if curves["exact"]:
        color, dash = _PLOT_STYLE["exact"]
        if len(curves["exact"]) > 1:
            parts.append(poly(curves["exact"], color, dash))
        for n, v in curves["exact"]:
            parts.append(
                f'<circle cx="{px(n):.1f}" cy="{py(v):.1f}" r="3" '
                f'fill="{color}"/>'
            )
    # legend (top-left inside the plot area)
    entries = [("aba bounds", "aba"), ("fluid limit", "fluid")]
    if curves["lp"]:
        entries.insert(1, ("lp bounds", "lp"))
    if curves["exact"]:
        entries.append(("exact", "exact"))
    ly = top + 8
    for label, key in entries:
        color, dash = _PLOT_STYLE[key]
        attrs = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{left + 10}" y1="{ly:.0f}" x2="{left + 34}" '
            f'y2="{ly:.0f}" stroke="{color}" stroke-width="2"{attrs}/>'
        )
        parts.append(
            f'<text x="{left + 40}" y="{ly + 4:.0f}">{label}</text>'
        )
        ly += 15
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plots(out_dir: Path) -> "dict[str, str]":
    """Render every closed scenario's chart; returns name -> filename."""
    from repro.scenarios import get_scenario_registry

    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}
    for sc in get_scenario_registry():
        curves = bound_curves(sc)
        if curves is None:
            continue
        filename = f"{sc.name}_bounds.svg"
        (out_dir / filename).write_text(
            render_bounds_svg(sc, curves), encoding="utf-8"
        )
        written[sc.name] = filename
        print(f"  plot {out_dir / filename}")
    return written


def generate(plots: "dict[str, str] | None" = None) -> str:
    """Full gallery page text."""
    from repro.scenarios import get_scenario_registry

    registry = get_scenario_registry()
    parts = [HEADER]
    parts.append(
        f"**{len(registry)} scenarios registered.**\n"
    )
    for sc in registry:
        section = render_scenario(sc)
        if plots and sc.name in plots:
            section += (
                f"\n![{sc.name} throughput bounds vs population]"
                f"(plots/{plots[sc.name]})\n"
            )
        parts.append(section)
    return "\n".join(parts)


def main(argv: "list[str] | None" = None) -> int:
    """Write the gallery page (and charts) and report where they went."""
    argv = sys.argv[1:] if argv is None else argv
    with_plots = "--no-plots" not in argv
    argv = [a for a in argv if a != "--no-plots"]
    out = Path(argv[0]) if argv else Path(__file__).parent / "scenarios.md"
    # allow running from a source checkout without installation
    src = Path(__file__).resolve().parent.parent / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))
    plot_dir = out.parent / "plots"
    if with_plots:
        plots = write_plots(plot_dir)
    else:
        # Markdown-only refresh: keep embedding whatever charts already
        # exist on disk instead of silently dropping them from the page.
        plots = {
            p.stem.removesuffix("_bounds"): p.name
            for p in sorted(plot_dir.glob("*_bounds.svg"))
        }
    text = generate(plots)
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
