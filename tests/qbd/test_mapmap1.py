"""Tests for the MAP/MAP/1 queue (bursty service, frozen idle phase)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.maps import exponential, fit_map2, mmpp2
from repro.markov import steady_state_ctmc
from repro.qbd import MapMap1Queue
from repro.utils.errors import ValidationError


def truncated_reference(arrivals, service, L=400, probe=30):
    """Deep truncated CTMC of the MAP/MAP/1 (independent oracle)."""
    Ka, Ks = arrivals.order, service.order
    K = Ka * Ks
    rows, cols, vals = [], [], []

    def put(n, p, n2, p2, rate):
        if rate > 0:
            rows.append(n * K + p)
            cols.append(n2 * K + p2)
            vals.append(rate)

    for n in range(L + 1):
        for a in range(Ka):
            for s in range(Ks):
                p = a * Ks + s
                for a2 in range(Ka):
                    if n < L:
                        put(n, p, n + 1, a2 * Ks + s, arrivals.D1[a, a2])
                    if a2 != a:
                        put(n, p, n, a2 * Ks + s, arrivals.D0[a, a2])
                if n >= 1:
                    for s2 in range(Ks):
                        put(n, p, n - 1, a * Ks + s2, service.D1[s, s2])
                        if s2 != s:
                            put(n, p, n, a * Ks + s2, service.D0[s, s2])
    S = (L + 1) * K
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(S, S)).tocsr()
    Q.setdiag(Q.diagonal() - np.asarray(Q.sum(axis=1)).ravel())
    pi = steady_state_ctmc(Q)
    return pi.reshape(L + 1, K).sum(axis=1)[: probe + 1]


class TestAgainstTruncatedCTMC:
    @pytest.mark.parametrize(
        "arrivals,service",
        [
            (exponential(0.7), exponential(1.0)),
            (mmpp2(0.3, 0.2, 1.0, 0.2), fit_map2(0.7, 4.0, 0.3)),
            (exponential(0.8), fit_map2(0.9, 9.0, 0.6)),
        ],
    )
    def test_distribution_matches(self, arrivals, service):
        q = MapMap1Queue(arrivals, service)
        analytic = q.queue_length_distribution(30)
        reference = truncated_reference(arrivals, service)
        assert np.allclose(analytic, reference, atol=1e-7)


class TestReductions:
    def test_mm1_reduction(self):
        q = MapMap1Queue(exponential(0.6), exponential(1.0))
        rho = 0.6
        dist = q.queue_length_distribution(12)
        expected = (1 - rho) * rho ** np.arange(13)
        assert np.allclose(dist, expected, atol=1e-10)


class TestBurstinessEffects:
    def test_utilization_equals_rho(self):
        q = MapMap1Queue(exponential(0.8), fit_map2(1.0, 16.0, 0.5))
        assert q.utilization == pytest.approx(q.offered_load, abs=1e-9)

    def test_service_burstiness_inflates_queue(self):
        """Same arrival stream and mean service rate: correlated service
        queues (much) more — the single-queue core of the paper's message."""
        arrivals = exponential(0.8)
        plain = MapMap1Queue(arrivals, exponential(1.0))
        bursty = MapMap1Queue(arrivals, fit_map2(1.0, 16.0, 0.5))
        assert bursty.mean_queue_length > 2.0 * plain.mean_queue_length

    def test_service_gamma2_alone_matters(self):
        arrivals = exponential(0.8)
        weak = MapMap1Queue(arrivals, fit_map2(1.0, 9.0, 0.05))
        strong = MapMap1Queue(arrivals, fit_map2(1.0, 9.0, 0.8))
        assert strong.mean_queue_length > weak.mean_queue_length

    def test_littles_law(self):
        q = MapMap1Queue(mmpp2(0.2, 0.3, 0.9, 0.3), fit_map2(0.8, 4.0, 0.4))
        assert q.mean_response_time * q.arrivals.rate == pytest.approx(
            q.mean_queue_length, rel=1e-10
        )

    def test_unstable_raises(self):
        q = MapMap1Queue(exponential(2.0), exponential(1.0))
        with pytest.raises(ValidationError):
            _ = q.solution
