"""Fingerprint stability across the unified Network redesign.

The deprecated ``ClosedNetwork`` alias is gone; what it guaranteed stays
pinned here.  A closed ``Network`` built with an ``int`` population (or
``Closed(n)``) fingerprints *identically to the pre-redesign digest*, so
cache keys stay stable and existing ``.repro-cache`` entries remain valid.
"""

import numpy as np
import pytest

from repro.maps.builders import exponential
from repro.maps.fitting import fit_map2
from repro.network.model import Network
from repro.network.population import Closed
from repro.network.stations import Station
from repro.runtime.fingerprint import fingerprint_network, fingerprint_solve
from repro.scenarios import get_scenario

#: Digests recorded from the pre-redesign code (PR 3 tree) for fixed
#: reference models.  If any of these change, every cache entry keyed by
#: them silently goes stale — treat a failure here as a cache-format break.
PRE_REDESIGN_DIGESTS = {
    "tandem2": "2e08c6f3b3fc6dfd42eb96aad166976b2a4f85fb040966a2bbb5c546df0746eb",
    "tpcw": "21c4d5223a7aa435a392706c9a30d9ae49e673570af1cb78b8d9ef277546ee24",
    "fig5-case-study": "8c94b8f302cd9c2a5be4c3d6627cc528e9055be1cfac65f0edc51b8c5ab6e523",
    "bursty-tandem": "4dd59215a79ed976272d44650bc0e18d89c3fe7392dd97280b298bf13987c388",
}


def _reference_closed(population=7):
    stations = [
        Station("a", exponential(2.0)),
        Station("b", fit_map2(1.0, 16.0, 0.5)),
    ]
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    return Network(stations, P, population)


class TestClosedNetworkShim:
    """What the retired ``ClosedNetwork`` alias built, ``Network`` builds."""

    def test_constructing_yields_a_network(self):
        net = _reference_closed()
        assert isinstance(net, Network)
        assert net.kind == "closed"
        assert net.population == 7
        assert isinstance(net.chain, Closed)

    def test_fingerprint_matches_pre_redesign_digest(self):
        """An ``int`` population and ``Closed(n)`` give the same keys, and
        both the pinned pre-redesign digest."""
        net, described = _reference_closed(), _reference_closed(Closed(7))
        assert fingerprint_network(net) == PRE_REDESIGN_DIGESTS["tandem2"]
        assert fingerprint_network(described) == PRE_REDESIGN_DIGESTS["tandem2"]
        opts = {"reference": 0}
        assert fingerprint_solve(net, "exact", opts) == fingerprint_solve(
            described, "exact", opts
        )

    @pytest.mark.parametrize(
        "name", ["tpcw", "fig5-case-study", "bursty-tandem"]
    )
    def test_catalog_digests_survive_the_redesign(self, name):
        """Cache keys of catalog scenarios are byte-stable across the PR."""
        assert get_scenario(name).fingerprint() == PRE_REDESIGN_DIGESTS[name]

    def test_with_population_returns_modern_network(self):
        grown = _reference_closed().with_population(20)
        assert isinstance(grown, Network)
        assert grown.population == 20
