#!/usr/bin/env python
"""How burstiness degrades a bottleneck (the paper's Figure 8 scenario).

Sweeps (a) the population at fixed burstiness — reproducing the case-study
convergence of the LP bounds to the exact asymptote — and (b) the ACF decay
rate gamma2 at fixed population, quantifying how longer service bursts
inflate response times even though the mean service rates (and hence the
classic capacity numbers) never change.

Run:  python examples/bursty_bottleneck.py
"""

import numpy as np

from repro.core import response_time_bounds
from repro.experiments.fig8 import Fig8Config, fig5_network
from repro.maps import exponential, fit_map2
from repro.network import Network, queue, solve_exact
from repro.utils.tables import format_table


def population_sweep() -> None:
    print("== population sweep (Figure 8): bounds converge to the asymptote ==")
    cfg = Fig8Config()
    rows = []
    for N in (5, 10, 20, 40, 80):
        net = fig5_network(N, cfg)
        sol = solve_exact(net)
        iv = response_time_bounds(net)
        err = max(
            abs(iv.lower - sol.response_time(0)),
            abs(iv.upper - sol.response_time(0)),
        ) / sol.response_time(0)
        rows.append(
            [N, sol.utilization(2), sol.response_time(0), iv.lower, iv.upper, err]
        )
    print(
        format_table(
            ["N", "U3 exact", "R exact", "R lo", "R hi", "max rel err"], rows
        )
    )


def burstiness_sweep() -> None:
    print("\n== gamma2 sweep at N = 40: same means, very different delays ==")
    routing = np.array([[0.2, 0.7, 0.1], [1.0, 0, 0], [1.0, 0, 0]])
    rows = []
    for gamma2 in (0.0, 0.3, 0.5, 0.7, 0.9):
        net = Network(
            [
                queue("q1", exponential(2.0)),
                queue("q2", exponential(1.4)),
                queue("q3", fit_map2(6.0, 16.0, gamma2)),
            ],
            routing,
            40,
        )
        sol = solve_exact(net)
        rows.append(
            [
                gamma2,
                sol.utilization(2),
                sol.mean_queue_length(2),
                sol.response_time(0),
            ]
        )
    print(format_table(["gamma2", "U3", "E[n3]", "R"], rows))
    base, worst = rows[0][3], rows[-1][3]
    print(
        f"\nresponse time grows {worst / base:.2f}x from gamma2=0 to 0.9 while "
        "every service demand (the only input of classic bounds) is unchanged."
    )


def main() -> None:
    population_sweep()
    burstiness_sweep()


if __name__ == "__main__":
    main()
