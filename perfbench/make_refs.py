"""Regenerate the benchmark's frozen inputs and reference answers.

    python3 perfbench/make_refs.py            # refs.json only
    python3 perfbench/make_refs.py --catalog  # also re-freeze catalog_cells.json

``catalog_cells.json`` lists every applicable (catalog scenario x suggested
population x cheap method) cell: aba, bjb, mva, decomposition, fluid, qbd,
and exact where the model has at most 5,000 states.  Open scenarios, which
suggest no populations, use their default one.  Cells whose method rejects
the model are left out, so the list holds no expected failures.

``refs.json`` holds the exact system throughput of every model an LP or
simulation cell bounds or estimates, and every number of each
deterministic (non-LP, non-sim, non-transient) cell's answer.  Run it from
the repository root; it takes a few minutes, mostly the exact solves.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cells as C  # noqa: E402

CHEAP_METHODS = ("aba", "bjb", "mva", "decomposition", "fluid", "qbd", "exact")
EXACT_STATE_LIMIT = 5_000


def freeze_catalog(registry) -> list[list]:
    from repro.network.statespace import expected_state_count
    from repro.scenarios import get_scenario_registry
    from repro.utils.errors import NotSupportedError

    rows = []
    for scenario in get_scenario_registry():
        for n in scenario.populations or (scenario.default_population,):
            net = scenario.network(n)
            for method in CHEAP_METHODS:
                if method == "exact" and (
                    net.kind != "closed" or expected_state_count(net) > EXACT_STATE_LIMIT
                ):
                    continue
                try:
                    registry.solve(net, method)
                except NotSupportedError:
                    continue
                rows.append([scenario.name, n, method])
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--catalog", action="store_true", help="re-freeze catalog_cells.json")
    args = ap.parse_args()

    from repro.runtime.registry import SolverRegistry
    from repro.scenarios import get_scenario

    registry = SolverRegistry(cache=None)
    if args.catalog:
        rows = freeze_catalog(registry)
        body = ",\n".join(json.dumps(r) for r in rows)
        (C.DATA / "catalog_cells.json").write_text(f"[\n{body}\n]\n")
        print(f"froze {len(rows)} catalog cells")

    cells = []
    for workload in C.WORKLOADS:
        for tiny in (False, True):
            cells += C.cells_for(workload, seed=0, tiny=tiny)
    exact_x, values = {}, {}
    for cell in cells:
        if cell.method == "sim" and cell.scenario == "mixed-tpcw":
            continue  # checked against its open arrival rate, not exact
        if cell.method in ("lp", "sim") and cell.model not in exact_x:
            net = get_scenario(cell.scenario).network(cell.population)
            res = registry.solve(net, "exact")
            exact_x[cell.model] = res.system_throughput.lower
        elif cell.method not in ("lp", "sim", "transient") and cell.id not in values:
            net = get_scenario(cell.scenario).network(cell.population)
            res = registry.solve(net, cell.method, **cell.opts)
            values[cell.id] = [
                None if v is None else float(f"{v:.15g}")
                for v in C.result_values(res.to_dict())
            ]
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(values.items()))
    (C.DATA / "refs.json").write_text(
        "{\n"
        f'"exact_x": {json.dumps(exact_x, sort_keys=True)},\n'
        f'"values": {{\n{body}\n}}\n'
        "}\n"
    )
    print(f"wrote {len(exact_x)} exact throughputs and {len(values)} cell answers")


if __name__ == "__main__":
    main()
