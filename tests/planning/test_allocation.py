"""Tests for bounds-driven configuration planning."""

import numpy as np
import pytest

from repro.maps import exponential, fit_map2
from repro.network import Network, queue, solve_exact
from repro.planning import greedy_speed_allocation, rank_configurations
from repro.utils.errors import ValidationError


def bursty_tandem(mu2: float = 1.5, N: int = 8) -> Network:
    routing = np.array([[0.0, 1.0], [1.0, 0.0]])
    return Network(
        [
            queue("bursty", fit_map2(1.0, 9.0, 0.5)),
            queue("plain", exponential(mu2)),
        ],
        routing,
        N,
    )


class TestRankConfigurations:
    def test_orders_by_certificate(self):
        slow = bursty_tandem(mu2=1.2)
        fast = bursty_tandem(mu2=2.4)
        ranked = rank_configurations({"slow": slow, "fast": fast})
        assert ranked[0].label == "fast"
        assert ranked[0].certificate <= ranked[1].certificate

    def test_certificate_is_valid_upper_bound(self):
        net = bursty_tandem()
        score = rank_configurations({"only": net})[0]
        exact = solve_exact(net).response_time(0)
        assert score.certificate >= exact - 1e-9

    def test_accepts_list_input(self):
        net = bursty_tandem()
        ranked = rank_configurations([("a", net)])
        assert ranked[0].label == "a"

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            rank_configurations({})


class TestGreedySpeedAllocation:
    def test_spends_budget_on_bottleneck(self):
        """With one clear bottleneck, the greedy policy must speed it up."""
        net = bursty_tandem(mu2=5.0)  # "bursty" dominates: demand 1.0 vs 0.2
        final, trail = greedy_speed_allocation(net, total_budget=1.25, step=1.25)
        assert len(trail) == 2  # baseline + one accepted step
        assert "bursty" in trail[1].label

    def test_certificates_monotone_decreasing(self):
        net = bursty_tandem(mu2=1.5)
        _, trail = greedy_speed_allocation(net, total_budget=1.6, step=1.25)
        certs = [s.certificate for s in trail]
        assert all(b < a + 1e-12 for a, b in zip(certs, certs[1:]))

    def test_final_network_improves_exact_response(self):
        net = bursty_tandem(mu2=1.5)
        final, trail = greedy_speed_allocation(net, total_budget=1.6, step=1.25)
        if len(trail) > 1:
            r_before = solve_exact(net).response_time(0)
            r_after = solve_exact(final).response_time(0)
            assert r_after < r_before

    def test_rejects_bad_budget(self):
        with pytest.raises(ValidationError):
            greedy_speed_allocation(bursty_tandem(), total_budget=0.5)

    def test_rejects_bad_step(self):
        with pytest.raises(ValidationError):
            greedy_speed_allocation(bursty_tandem(), total_budget=2.0, step=1.0)
