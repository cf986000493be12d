#!/usr/bin/env python
"""Bounds-driven resource allocation (paper §4 future work).

Given a bursty three-tier system and a budget of hardware speedup, where
should it go?  The policy evaluates each candidate upgrade through the
marginal-balance LP and spends the budget on whichever step lowers the
*certified* (upper-bound) response time the most — so every decision comes
with a performance guarantee under temporal-dependent load.

Run:  python examples/resource_allocation.py
"""

import numpy as np

from repro.maps import exponential, fit_map2
from repro.network import Network, queue, solve_exact
from repro.planning import greedy_speed_allocation, rank_configurations
from repro.utils.tables import format_table


def build_system() -> Network:
    routing = np.array(
        [
            [0.1, 0.6, 0.3],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]
    )
    return Network(
        [
            queue("web", exponential(2.2)),
            queue("app", fit_map2(0.8, 12.0, 0.7)),   # bursty tier
            queue("db", exponential(1.1)),
        ],
        routing,
        20,
    )


def main() -> None:
    net = build_system()
    print(net)
    print(f"demands: {np.round(net.service_demands, 3)} "
          f"(bottleneck: {net.stations[net.bottleneck].name})\n")

    # One-shot comparison of explicit candidates.
    candidates = {
        "status quo": net,
        "faster web": net.with_station(
            0, queue("web", exponential(2.2 * 1.5))
        ),
        "faster app": net.with_station(
            1, queue("app", fit_map2(0.8 / 1.5, 12.0, 0.7))
        ),
        "faster db": net.with_station(
            2, queue("db", exponential(1.1 * 1.5))
        ),
    }
    ranked = rank_configurations(candidates)
    print(
        format_table(
            ["configuration", "R certified (upper)", "R lower"],
            [[s.label, s.certificate, s.response_time.lower] for s in ranked],
            title="one 1.5x upgrade, ranked by certified response time",
        )
    )

    # Greedy multi-step allocation of a 2x total budget in 1.25x steps.
    final, trail = greedy_speed_allocation(net, total_budget=2.0, step=1.25)
    print("\ngreedy allocation trail (certified response time):")
    for score in trail:
        print(f"  {score.label:28s} -> R <= {score.certificate:.4f}")

    r0 = solve_exact(net).response_time(0)
    r1 = solve_exact(final).response_time(0)
    print(
        f"\nexact response time: {r0:.4f} -> {r1:.4f} "
        f"({100 * (1 - r1 / r0):.1f}% better, guaranteed by construction)"
    )


if __name__ == "__main__":
    main()
