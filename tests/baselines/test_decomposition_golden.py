"""Decomposition and MVA answers reproduce recorded values bit for bit.

``decomposition`` solves every joint phase configuration in one batched MVA
recursion and ``mva`` runs the same recursion with a single configuration;
both must give exactly the floats of the one-network-at-a-time
implementation these values were recorded with.  Floats are stored as
``float.hex`` strings and compared with ``==``, so a change in the
arithmetic or in the order of the aggregation sums shows up here.

Models: ``kron-ring`` (eight MAP(2) queues, 256 phase configurations) at a
small and a larger population, ``tpcw`` (a delay station) and
``stress-large-population`` at N=1000.  ``mva`` goes through the registry,
which substitutes each MAP station by an exponential of the same mean.
Random networks (delay stations, MAP(2) and three-phase services, up to
nine stations) are compared with ``==`` against the one-network-at-a-time
loop, kept here as the reference.
"""

import itertools

import numpy as np
import pytest

from repro.baselines import decomposition, mva
from repro.maps import exponential, hyperexponential
from repro.maps.random import random_exponential, random_map2
from repro.network import Network, delay, queue
from repro.network.stations import Station
from repro.runtime.registry import SolverRegistry
from repro.scenarios import get_scenario

GOLDEN = {
    ("decomposition", "kron-ring", 2): {
        "X": "0x1.3cbdc3dbb6c06p-5",
        "throughput": [
            "0x1.3cbdc3dbb6c06p-5", "0x1.3cbdc3dbb6c06p-5", "0x1.3cbdc3dbb6c06p-5",
            "0x1.3cbdc3dbb6c06p-5", "0x1.3cbdc3dbb6c06p-5", "0x1.3cbdc3dbb6c06p-5",
            "0x1.3cbdc3dbb6c06p-5", "0x1.3cbdc3dbb6c06p-5",
        ],
        "utilization": [
            "0x1.7cd2162447833p-4", "0x1.ecb28faaf737bp-4", "0x1.32374bba1d661p-3",
            "0x1.70f2662c0dbabp-3", "0x1.b16fbc177bc74p-3", "0x1.f29899325e893p-3",
            "0x1.19b439d81c0e1p-2", "0x1.397c36113de17p-2",
        ],
        "queue_length": [
            "0x1.a8d04294fa0c2p-4", "0x1.1b3df604a66b0p-3", "0x1.6ad2d2477c379p-3",
            "0x1.c2406d9930abfp-3", "0x1.102c71ed14395p-2", "0x1.41dcc3fb9c334p-2",
            "0x1.75717279fc68fp-2", "0x1.aa28ac056b010p-2",
        ],
    },
    ("decomposition", "kron-ring", 9): {
        "X": "0x1.fb56b2560ac93p-5",
        "throughput": [
            "0x1.fb56b2560ac93p-5", "0x1.fb56b2560ac93p-5", "0x1.fb56b2560ac93p-5",
            "0x1.fb56b2560ac93p-5", "0x1.fb56b2560ac93p-5", "0x1.fb56b2560ac93p-5",
            "0x1.fb56b2560ac93p-5", "0x1.fb56b2560ac93p-5",
        ],
        "utilization": [
            "0x1.341b30b585f08p-3", "0x1.92e2b6a37f282p-3", "0x1.faae9dfdc553cp-3",
            "0x1.349cfe9e83e79p-2", "0x1.6d75133c6f01cp-2", "0x1.a52cd8da0d97ep-2",
            "0x1.d83baa5870b0ap-2", "0x1.01896e8790fa6p-1",
        ],
        "queue_length": [
            "0x1.db16ec35b3519p-3", "0x1.652241e03d429p-2", "0x1.0825a2e842dfep-1",
            "0x1.80b3a852d1bdep-1", "0x1.12e2749a88f73p+0", "0x1.7ea54e84cf8e8p+0",
            "0x1.00e5efe08c411p+1", "0x1.49ca24c19f773p+1",
        ],
    },
    ("decomposition", "stress-large-population", 1000): {
        "X": "0x1.0caf76698f179p+0",
        "throughput": [
            "0x1.0caf76698f179p+0", "0x1.7828d8fa2eba8p-1", "0x1.ade58a427e8c2p-4",
        ],
        "utilization": [
            "0x1.0caf76698f179p-1", "0x1.0caf76698f179p-1", "0x1.9e3f0684d94f0p-1",
        ],
        "queue_length": [
            "0x1.f33e6c0c32e1fp+7", "0x1.f33e6c0c32e1fp+7", "0x1.f4c193f3cd1e1p+8",
        ],
    },
    ("decomposition", "tpcw", 16): {
        "X": "0x1.adbaabbc2ed3cp+0",
        "throughput": [
            "0x1.adbaabbc2ed3cp+0", "0x1.adbaabbc2ed3cp+1", "0x1.adbaabbc2ed3cp+0",
        ],
        "utilization": [
            "0x0.0p+0", "0x1.09dd61b0e813ap-1", "0x1.57c8896358a96p-5",
        ],
        "queue_length": [
            "0x1.78035644a8f94p+3", "0x1.0d2987211ae11p+2", "0x1.67e62ac996387p-5",
        ],
    },
    ("mva", "kron-ring", 2): {
        "X": "0x1.500b3392c928dp-3",
        "throughput": [
            "0x1.500b3392c928dp-3", "0x1.500b3392c928dp-3", "0x1.500b3392c928dp-3",
            "0x1.500b3392c928dp-3", "0x1.500b3392c928dp-3", "0x1.500b3392c928dp-3",
            "0x1.500b3392c928dp-3", "0x1.500b3392c928dp-3",
        ],
        "utilization": [
            "0x1.500b3392c928ep-3", "0x1.71a5ebee43acep-3", "0x1.9340a449be30ep-3",
            "0x1.b4db5ca538b51p-3", "0x1.d6761500b3392p-3", "0x1.f810cd5c2dbd6p-3",
            "0x1.0cd5c2dbd420fp-2", "0x1.1da31f0991629p-2",
        ],
        "queue_length": [
            "0x1.6f28aede01b62p-3", "0x1.974c278429620p-3", "0x1.c00eef6e618bap-3",
            "0x1.e971069caa334p-3", "0x1.09b9368781ac1p-2", "0x1.1f099162b67dap-2",
            "0x1.34a993dff38e2p-2", "0x1.4a993dff38dccp-2",
        ],
    },
    ("mva", "kron-ring", 9): {
        "X": "0x1.a0466368d6444p-2",
        "throughput": [
            "0x1.a0466368d6444p-2", "0x1.a0466368d6444p-2", "0x1.a0466368d6444p-2",
            "0x1.a0466368d6444p-2", "0x1.a0466368d6444p-2", "0x1.a0466368d6444p-2",
            "0x1.a0466368d6444p-2", "0x1.a0466368d6444p-2",
        ],
        "utilization": [
            "0x1.a0466368d6446p-2", "0x1.c9e706f35217dp-2", "0x1.f387aa7dcdeb6p-2",
            "0x1.0e94270424df9p-1", "0x1.236478c962c96p-1", "0x1.3834ca8ea0b35p-1",
            "0x1.4d051c53de9d5p-1", "0x1.61d56e191c86ap-1",
        ],
        "queue_length": [
            "0x1.4bb3d1d7d3addp-1", "0x1.825139e460bf5p-1", "0x1.bf36d35e02882p-1",
            "0x1.01a842f78cc8fp+0", "0x1.27d7df984a2f3p+0", "0x1.52c89ed25c634p+0",
            "0x1.8331d2f5b382ap+0", "0x1.b9e77c1afda75p+0",
        ],
    },
    ("mva", "stress-large-population", 1000): {
        "X": "0x1.aaaaaaaaaaa9fp+0",
        "throughput": [
            "0x1.aaaaaaaaaaa9fp+0", "0x1.2aaaaaaaaaaa2p+0", "0x1.555555555554cp-3",
        ],
        "utilization": [
            "0x1.aaaaaaaaaaa9fp-1", "0x1.aaaaaaaaaaa9fp-1", "0x1.fffffffffffffp-1",
        ],
        "queue_length": [
            "0x1.3ffffffffffcep+2", "0x1.3ffffffffffcep+2", "0x1.ef00000000000p+9",
        ],
    },
    ("mva", "tpcw", 16): {
        "X": "0x1.21dd71d31ebcbp+1",
        "throughput": [
            "0x1.21dd71d31ebcbp+1", "0x1.21dd71d31ebcbp+2", "0x1.21dd71d31ebcbp+1",
        ],
        "utilization": [
            None, "0x1.4decac1606b44p-4", "0x1.cfc8b61e97945p-5",
        ],
        "queue_length": [
            "0x1.fb43873175ca3p+3", "0x1.69657de57b647p-4", "0x1.e9add2bf3eea5p-5",
        ],
    },
}


def _hex(values) -> list:
    return [None if v is None else float(v).hex() for v in values]


@pytest.mark.parametrize(
    "name, population",
    [(name, n) for method, name, n in GOLDEN if method == "decomposition"],
)
def test_decomposition_golden(name, population):
    res = decomposition(get_scenario(name).network(population))
    want = GOLDEN[("decomposition", name, population)]
    assert float(res.system_throughput).hex() == want["X"]
    assert _hex(res.throughput) == want["throughput"]
    assert _hex(res.utilization) == want["utilization"]
    assert _hex(res.queue_length) == want["queue_length"]


@pytest.mark.parametrize(
    "name, population",
    [(name, n) for method, name, n in GOLDEN if method == "mva"],
)
def test_registry_mva_golden(name, population):
    res = SolverRegistry().solve(get_scenario(name).network(population), "mva")
    want = GOLDEN[("mva", name, population)]
    assert res.system_throughput.lower == res.system_throughput.upper
    assert float(res.system_throughput.lower).hex() == want["X"]
    assert _hex(iv.lower for iv in res.throughput) == want["throughput"]
    assert _hex(
        None if iv is None else iv.lower for iv in res.utilization
    ) == want["utilization"]
    assert _hex(iv.lower for iv in res.queue_length) == want["queue_length"]


def _decomposition_one_by_one(network: Network) -> list:
    """Reference: one exponential network and one ``mva`` per configuration."""
    M = network.n_stations
    X_sys = total = 0.0
    X, U, Q = np.zeros(M), np.zeros(M), np.zeros(M)
    for combo in itertools.product(*(range(st.phases) for st in network.stations)):
        weight = float(np.prod([
            st.service.phase_stationary[h] for st, h in zip(network.stations, combo)
        ]))
        if weight <= 0.0:
            continue
        stations = [
            Station(name=st.name, service=exponential(float(st.service.D1[h].sum())),
                    kind=st.kind, servers=st.servers)
            for st, h in zip(network.stations, combo)
        ]
        res = mva(Network(stations, network.routing, network.population))
        X_sys += weight * res.system_throughput
        X += weight * res.throughput
        U += weight * np.nan_to_num(res.utilization, nan=0.0)
        Q += weight * res.queue_length
        total += weight
    return _hex([X_sys / total, *(X / total), *(U / total), *(Q / total)])


def _random_network(seed: int) -> Network:
    rng = np.random.default_rng(seed)
    M = int(rng.integers(3, 10))
    n_map = int(rng.integers(1, 6))
    stations = [delay("think", random_exponential(rng))] if seed % 2 else []
    stations.append(queue("h3", hyperexponential([0.2, 0.5, 0.3], [0.5, 2.0, 4.0])))
    while len(stations) < M:
        k = len(stations)
        service = random_map2(rng) if k <= n_map else random_exponential(rng)
        stations.append(queue(f"q{k}", service))
    P = rng.random((M, M)) * (rng.random((M, M)) < 0.5)
    P[np.arange(M), (np.arange(M) + 1) % M] += 0.1
    return Network(stations, P / P.sum(axis=1, keepdims=True), int(rng.integers(1, 30)))


@pytest.mark.parametrize("seed", range(4))
def test_decomposition_matches_one_by_one_loop(seed):
    net = _random_network(seed)
    res = decomposition(net)
    got = _hex([res.system_throughput, *res.throughput, *res.utilization,
                *res.queue_length])
    assert got == _decomposition_one_by_one(net)
