"""Statistical acceptance: simulation confidence intervals cover exact.

Every closed catalog scenario at N=4 (except the two whose exact solve is
slow) is replicated ten times.  Each :func:`~repro.sim.replicate` call runs
eight independent 10,000-event runs and forms a 95% t-interval for the
reference throughput.  A correct sampler covers the exact answer in each of
the 120 intervals with probability about 0.95, so the count of covers is
about Binomial(120, 0.95).  The test fails below the count that such a
sampler misses with probability under 1e-3, 106 covers; seeds and bound
were fixed before the first run.
"""

from scipy.stats import binom

from repro.runtime import SolverRegistry
from repro.scenarios import get_scenario, get_scenario_registry
from repro.sim import replicate

POPULATION = 4
SLOW_EXACT = {"kron-ring", "stress-large-population"}
CALLS_PER_SCENARIO = 10
NOMINAL = 0.95
FALSE_ALARM = 1e-3


def _closed_networks():
    names = sorted(set(get_scenario_registry().names()) - SLOW_EXACT)
    nets = [get_scenario(name).network(POPULATION) for name in names]
    return [(name, net) for name, net in zip(names, nets) if net.kind == "closed"]


def test_replicate_intervals_cover_exact_at_the_nominal_rate():
    registry = SolverRegistry()
    networks = _closed_networks()
    covered, misses = 0, []
    for i, (name, net) in enumerate(networks):
        exact = registry.solve(net, "exact").system_throughput_point()
        for r in range(CALLS_PER_SCENARIO):
            res = replicate(
                net,
                n_replications=8,
                horizon_events=10_000,
                warmup_events=1_000,
                rng=10 * i + r,
                confidence=NOMINAL,
            )
            lo, hi = res.throughput_ci[0]
            if lo <= exact <= hi:
                covered += 1
            else:
                misses.append(name)
    total = len(networks) * CALLS_PER_SCENARIO
    # The smallest count a nominal sampler reaches with probability 1 - 1e-3.
    bound = int(binom.ppf(FALSE_ALARM, total, NOMINAL))
    assert len(networks) == 12
    assert covered >= bound, f"{covered}/{total} covered (bound {bound}); missed {misses}"
