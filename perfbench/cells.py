"""Workloads of the repository benchmark and the checks on their answers.

A workload is a fixed list of *cells*; a cell is one call a user makes:
``get_scenario(scenario).network(population)`` followed by
``SolverRegistry().solve(network, method, **opts)``.  Only the simulator
seeds and the replay order depend on the benchmark's ``--seed``; every other
input is fixed.

Reference answers live in ``data/refs.json`` and were generated by the
``exact`` method (``python3 perfbench/make_refs.py`` regenerates them).
This module imports nothing from the program, so ``run.py`` stays light
and the checks can run in any process.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

#: Why each workload exists (mirrored in BENCHMARK.json).
WORKLOADS = {
    "solve-kernels": "the paper's solve paths, each cell under 3 s: LP bounds (simplex "
    "with lineage warm starts, interior point), dense CTMC, transient (uniformization, "
    "expm), bursty sim",
    "catalog-replay": "every cheap catalog cell cold, then replayed from the "
    "disk cache: scenarios, fingerprints, cache and (de)serialization",
}

#: Rate of the open stream of ``mixed-tpcw`` (checked against the network).
MIXED_ARRIVAL_RATE = 5.0

#: Tolerances of the output checks.
REF_RTOL = 1e-9  # deterministic answers against data/refs.json
INF_RTOL = 1e-8  # transient t -> inf against exact
SIM_RATE_RTOL = 0.05  # simulated open sink rate against the arrival rate
#: Simulated tpcw N=128 throughput against exact.  The default 200k-event
#: run has a seed-to-seed spread of 2.5% (12 seeds; still 1.9% at 600k
#: events, the MAP's correlations decay slowly), so a 5% gate would fail
#: about one correct run in twenty; 12.5% is five of those spreads.
SIM_X_RTOL = 0.125
LP_SLACK = 1e-7  # LP feasibility slack on the bracket check


@dataclass(frozen=True)
class Cell:
    scenario: str
    population: int
    method: str
    opts: dict = field(default_factory=dict)

    @property
    def model(self) -> str:
        return f"{self.scenario}@{self.population}"

    @property
    def id(self) -> str:
        tag = "".join(f",{k}={v}" for k, v in sorted(self.opts.items()) if k != "rng")
        return f"{self.model}/{self.method}{tag}"


# The solve-kernels cells each take at most about 3 s, so one run holds
# four or more cold passes and each cell's fastest latency has samples
# spread across the run; the host's speed swings by 30% for tens of
# seconds at a time, which single multi-second cells cannot average out.
def _lp_cells(tiny: bool) -> list[Cell]:
    # fig5 warm-starts N=6 and N=8 from the lineage of the population
    # before (dual simplex); the interior-point path runs on tpcw.
    pops = (3, 4) if tiny else (5, 6, 8)
    cells = [Cell("fig5-case-study", n, "lp") for n in pops]
    return cells + [Cell("tpcw", 3 if tiny else 5, "lp", {"lp_method": "highs-ipm"})]


def _ctmc_cells(tiny: bool) -> list[Cell]:
    # Dense LU, then transient solves that redo it: uniformization on
    # kron-ring and burst-response-tpcw, the expm engine on a smaller burst.
    burst, expm_burst, tpcw = (8, 8, 16) if tiny else (60, 40, 128)
    return [
        Cell("kron-ring", 1, "exact"),
        Cell("kron-ring", 1, "transient"),
        Cell("burst-response-tpcw", burst, "exact"),
        Cell("burst-response-tpcw", burst, "transient", {"pi0": "burst:front"}),
        *([] if expm_burst == burst else [Cell("burst-response-tpcw", expm_burst, "exact")]),
        Cell("burst-response-tpcw", expm_burst, "transient",
             {"pi0": "burst:front", "engine": "expm"}),
        Cell("tpcw", tpcw, "exact"),
    ]


def _sim_cells(seed: int, tiny: bool) -> list[Cell]:
    rng = random.Random(seed)
    # The default 200k-event horizon, not less: the checks below need it.
    extra = {"horizon_events": 40_000, "warmup_events": 4_000} if tiny else {}
    return [
        Cell(name, 128, "sim", {"rng": rng.randrange(2**31), **extra})
        for name in ("tpcw", "mixed-tpcw")
    ]


def catalog_cells() -> list[Cell]:
    """The frozen catalog-replay cell list (``data/catalog_cells.json``)."""
    rows = json.loads((DATA / "catalog_cells.json").read_text())
    return [Cell(s, n, m) for s, n, m in rows]


def cells_for(workload: str, seed: int, tiny: bool = False) -> list[Cell]:
    """The cells of one workload, in the order a client issues them."""
    if workload == "solve-kernels":
        return _lp_cells(tiny) + _ctmc_cells(tiny) + _sim_cells(seed, tiny)
    if workload == "catalog-replay":
        cells = catalog_cells()
        return cells[::20] if tiny else cells
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def replay_order(cells: list[Cell], seed: int) -> list[Cell]:
    """Replay order: a seeded permutation, so reads do not follow writes."""
    order = list(cells)
    random.Random(seed).shuffle(order)
    return order


def probe_models(workload: str, tiny: bool = False) -> list[tuple[str, int]]:
    """Models of the operator-vs-CSR rmatvec probe (traced runs only)."""
    if workload != "solve-kernels":
        return []
    return [(c.scenario, c.population) for c in _ctmc_cells(tiny) if c.method == "transient"]


# ---------------------------------------------------------------------- #
# checks
# ---------------------------------------------------------------------- #
def result_values(payload: dict) -> list:
    """Every number of a result payload, flattened in a fixed order."""
    out: list = []
    for key in ("system_throughput", "response_time"):
        out.extend(payload[key] or [None, None])
    for key in ("utilization", "throughput", "queue_length"):
        for iv in payload[key]:
            out.extend(iv or [None, None])
    return out


def close(a, b, rtol: float) -> bool:
    """``a`` equals ``b`` to ``rtol`` (absolute below 1); None and NaN match only themselves."""
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(1.0, abs(b))


def load_refs() -> dict:
    return json.loads((DATA / "refs.json").read_text())


def check_cell(cell: Cell, payload: dict, refs: dict, exact_in_pass: dict) -> list[str]:
    """Problems with one cell's answer (empty when it passes).

    ``exact_in_pass`` maps a model to the payload of the ``exact`` cell
    solved on it earlier in the same pass.
    """
    problems: list[str] = []
    if cell.method == "lp":
        x = refs["exact_x"][cell.model]
        lo, hi = payload["system_throughput"]
        if not lo - LP_SLACK * x <= x <= hi + LP_SLACK * x:
            problems.append(f"LP interval [{lo}, {hi}] misses exact X={x}")
    elif cell.method == "transient":
        exact = exact_in_pass.get(cell.model)
        if exact is None:
            problems.append("no exact solve of this model earlier in the pass")
        else:
            extra = payload["extra"]
            for key, ref_key in (
                ("throughput_inf", "throughput"),
                ("utilization_inf", "utilization"),
                ("queue_length_inf", "queue_length"),
            ):
                want = [iv[0] if iv else None for iv in exact[ref_key]]
                for got, ref in zip(extra[key], want):
                    if ref is not None and not close(got, ref, INF_RTOL):
                        problems.append(f"{key} {got} != exact {ref}")
    elif cell.method == "sim":
        if cell.scenario == "mixed-tpcw":
            rate = payload["extra"]["sink_departure_rate"]
            if not close(rate, MIXED_ARRIVAL_RATE, SIM_RATE_RTOL):
                problems.append(f"open sink rate {rate} vs arrival rate {MIXED_ARRIVAL_RATE}")
        else:
            x = refs["exact_x"][cell.model]
            got = payload["system_throughput"][0]
            if abs(got - x) > SIM_X_RTOL * x:
                problems.append(f"sim X {got} not within {SIM_X_RTOL:.1%} of exact {x}")
    if cell.method not in ("lp", "sim", "transient"):
        want = refs["values"].get(cell.id)
        if want is None:
            problems.append("no reference answer")
        else:
            got = result_values(payload)
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if not close(g, w, REF_RTOL)]
            if len(got) != len(want) or bad:
                problems.append(f"differs from the reference at positions {bad[:5]}")
    return problems
