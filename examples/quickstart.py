#!/usr/bin/env python
"""Quickstart: analyze a closed MAP queueing network three ways.

Builds the paper's Figure 5 example — two exponential queues feeding a
bursty MAP(2) queue (CV = 4, ACF decay gamma2 = 0.5) — and computes
utilization/throughput/response time by:

1. exact CTMC solution (global balance),
2. the paper's marginal-balance LP bounds,
3. discrete-event simulation.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import solve_bounds
from repro.maps import exponential, fit_map2
from repro.network import Network, queue, solve_exact
from repro.sim import simulate
from repro.utils.tables import format_table


def main() -> None:
    # --- model definition -------------------------------------------------
    # Routing of Figure 5: queue 1 feeds itself (p=0.2), queue 2 (0.7) and
    # the MAP queue 3 (0.1); queues 2 and 3 return to queue 1.
    routing = np.array(
        [
            [0.2, 0.7, 0.1],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]
    )
    bursty = fit_map2(mean=6.0, scv=16.0, gamma2=0.5)  # CV = 4
    network = Network(
        stations=[
            queue("link", exponential(2.0)),
            queue("app-a", exponential(1.4)),
            queue("app-b", bursty),
        ],
        routing=routing,
        population=30,
    )
    print(network)
    print(f"service demands: {np.round(network.service_demands, 3)}")
    print(f"bottleneck: {network.stations[network.bottleneck].name}\n")

    # --- 1. exact CTMC -----------------------------------------------------
    exact = solve_exact(network)

    # --- 2. LP bounds (the paper's method) ---------------------------------
    bounds = solve_bounds(network)

    # --- 3. simulation ------------------------------------------------------
    sim = simulate(network, horizon_events=200_000, warmup_events=20_000, rng=1)

    rows = []
    for k, st in enumerate(network.stations):
        rows.append(
            [
                st.name,
                exact.utilization(k),
                f"[{bounds.utilization[k].lower:.4f}, {bounds.utilization[k].upper:.4f}]",
                sim.utilization[k],
                exact.throughput(k),
                sim.throughput[k],
            ]
        )
    print(
        format_table(
            ["station", "U exact", "U bounds (LP)", "U sim", "X exact", "X sim"],
            rows,
        )
    )

    r_exact = exact.response_time(0)
    r_iv = bounds.response_time
    print(
        f"\nresponse time: exact {r_exact:.3f}, "
        f"LP bounds [{r_iv.lower:.3f}, {r_iv.upper:.3f}] "
        f"(width {100 * r_iv.relative_width():.2f}%), "
        f"sim {sim.response_time(0):.3f}"
    )
    assert r_iv.contains(r_exact)


if __name__ == "__main__":
    main()
