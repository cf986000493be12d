"""Future-work bench: second- vs third-order trace parameterization.

Paper §4 (citing Casale-Zhang-Smirni 2007): MAPs parameterized up to
third-order statistics can be far more accurate in *queueing prediction*
than standard second-order parameterizations.  The bench fits both orders
to the same simulated trace of a skewed bursty process and compares the
exact response time of a closed network using the fitted service versus
the ground-truth service.
"""

import numpy as np

from repro.maps import (
    exponential,
    fit_hyperexp_unbalanced,
    fit_map_from_trace,
    h2_correlated,
    sample_intervals,
)
from repro.network import Network, queue, solve_exact


def _response(service) -> float:
    routing = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = Network(
        [queue("svc", service), queue("station", exponential(1.1))], routing, 12
    )
    return solve_exact(net).response_time(0)


def test_third_order_fit_beats_second_order(once):
    # Ground truth: a bursty MAP(2) with *unbalanced* phases, whose skewness
    # (5.3) is far from what the balanced-means two-moment fit implies (9.9)
    # at the same SCV — the regime where second-order parameterization
    # mis-shapes the service tail.
    p1, nu1, nu2 = fit_hyperexp_unbalanced(1.0, 11.0, p_slow=0.15)
    truth = h2_correlated(p1, nu1, nu2, 0.5)
    trace = sample_intervals(truth, 250_000, rng=17)

    def kernel():
        fit2 = fit_map_from_trace(trace, order=2).map
        fit3 = fit_map_from_trace(trace, order=3).map
        return fit2, fit3

    fit2, fit3 = once(kernel)

    r_true = _response(truth)
    err2 = abs(_response(fit2) - r_true) / r_true
    err3 = abs(_response(fit3) - r_true) / r_true

    # Third-order parameterization is decisively more accurate (the paper
    # reports orders of magnitude on its cases; we assert a robust margin).
    assert err3 < err2 / 2.0, (err2, err3)
    assert err3 < 0.05
