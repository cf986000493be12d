"""Shared fixtures: small networks with exact solutions for LP validation."""

import numpy as np
import pytest

from repro.maps import exponential, fit_map2, mmpp2, random_map2
from repro.network import Network, delay, queue


@pytest.fixture(scope="session")
def fig5_small():
    """The paper's Figure 5 topology at a small population (exactly solvable
    in milliseconds): two exponential queues + a bursty MAP(2) queue."""
    routing = np.array(
        [[0.2, 0.7, 0.1], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    )
    return Network(
        [
            queue("q1", exponential(2.0)),
            queue("q2", exponential(3.0)),
            queue("q3", fit_map2(1.0, 16.0, 0.5)),
        ],
        routing=routing,
        population=6,
    )


@pytest.fixture(scope="session")
def tandem_map():
    """Two-queue closed tandem with one MMPP(2) server (Figure 4 shape)."""
    routing = np.array([[0.0, 1.0], [1.0, 0.0]])
    return Network(
        [
            queue("q1", mmpp2(0.05, 0.02, 2.5, 0.4)),
            queue("q2", exponential(1.5)),
        ],
        routing=routing,
        population=10,
    )


@pytest.fixture(scope="session")
def delay_network():
    """Think-time (delay) station feeding a bursty MAP queue and a DB."""
    routing = np.array(
        [[0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.0, 1.0, 0.0]]
    )
    return Network(
        [
            delay("clients", exponential(0.5)),
            queue("front", fit_map2(0.4, 9.0, 0.7)),
            queue("db", exponential(4.0)),
        ],
        routing=routing,
        population=8,
    )


def random_network(seed: int, population: int = 5) -> Network:
    """Random 3-queue network in the style of the paper's Table 1 setup."""
    rng = np.random.default_rng(seed)
    stations = []
    for i in range(3):
        if rng.random() < 0.5:
            stations.append(queue(f"s{i}", random_map2(rng=rng)))
        else:
            stations.append(queue(f"s{i}", exponential(float(rng.uniform(0.3, 3.0)))))
    # Random irreducible routing: Dirichlet rows biased away from self-loops.
    while True:
        P = rng.dirichlet(np.ones(3) * 0.8, size=3)
        try:
            return Network(stations, P, population)
        except Exception:
            continue
