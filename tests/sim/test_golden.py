"""Seeded simulation runs reproduce recorded outputs bit for bit.

The ``simulate`` goldens pin **stream version 2**: every station draws its
service intervals and routing destinations in blocks from its own child
stream, and open networks draw interarrival intervals and entry stations
from one more.  Floats are stored as ``float.hex`` strings and compared
with ``==``, so any change to the draw order or to the accumulation
arithmetic shows up here, and must come with a new ``sim`` entry in
:data:`repro.runtime.fingerprint.ALGORITHM_VERSION`.  The
``sample_intervals`` golden pins :meth:`MapSampler.sample_one`'s
one-jump-at-a-time stream.
"""

import hashlib

import numpy as np
import pytest

from repro.maps import exponential, fit_map2, sample_intervals
from repro.network import Network, delay, multiserver, queue
from repro.scenarios import NetworkBuilder, get_scenario
from repro.sim import FlowTap, QueueTap, simulate


def _hex(values) -> list:
    return [float(v).hex() for v in np.atleast_1d(values)]


def _digest(res) -> dict:
    return {
        "completions": [int(c) for c in res.completions],
        "duration": float(res.duration).hex(),
        "utilization": _hex(res.utilization),
        "throughput": _hex(res.throughput),
        "mean_queue_length": _hex(res.mean_queue_length),
        "response_mean": _hex(res.response_mean),
        "n_events": int(res.n_events),
    }


def _tap_digest(tap) -> dict:
    times = tap.times()
    return {"count": tap.count, "first": _hex(times[0]), "last": _hex(times[-1])}


def run_closed_tpcw() -> dict:
    net = get_scenario("tpcw").network(16)
    return _digest(simulate(net, horizon_events=20_000, warmup_events=2_000, rng=11))


def run_mixed_tpcw() -> dict:
    net = get_scenario("mixed-tpcw").network(16)
    res = simulate(net, horizon_events=20_000, warmup_events=2_000, rng=12)
    out = _digest(res)
    out["sink_departures"] = res.sink_departures
    out["external_arrivals"] = res.external_arrivals
    out["completions_open"] = [int(c) for c in res.completions_open]
    out["mean_queue_length_open"] = _hex(res.mean_queue_length_open)
    return out


def run_open_mm1() -> dict:
    net = (
        NetworkBuilder()
        .source(rate=0.8)
        .queue("q", mean=1.0)
        .sink()
        .link("source", "q")
        .link("q", "sink")
        .build()
    )
    res = simulate(net, horizon_events=10_000, warmup_events=1_000, rng=13)
    out = _digest(res)
    out["sink_departures"] = res.sink_departures
    out["external_arrivals"] = res.external_arrivals
    return out


def _multiserver_net() -> Network:
    routing = np.array([[0.0, 0.6, 0.4], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return Network(
        [
            queue("a", fit_map2(0.5, 4.0, 0.3)),
            multiserver("b", exponential(1.0), 3),
            delay("z", exponential(0.5)),
        ],
        routing,
        8,
    )


def run_multiserver() -> dict:
    return _digest(
        simulate(_multiserver_net(), horizon_events=10_000, warmup_events=1_000, rng=14)
    )


def run_taps() -> dict:
    taps = [FlowTap(1, "departure"), FlowTap(2, "arrival"), QueueTap(1)]
    res = simulate(
        _multiserver_net(), horizon_events=8_000, warmup_events=800, rng=15, taps=taps
    )
    out = _digest(res)
    out["taps"] = [_tap_digest(tap) for tap in taps]
    levels = taps[2].levels()
    out["queue_levels"] = [int(levels[0]), int(levels[-1])]
    return out


def run_horizon_time() -> dict:
    net = get_scenario("tpcw").network(16)
    res = simulate(
        net,
        horizon_events=10**9,
        warmup_events=0,
        rng=16,
        horizon_time=40.0,
        initial_populations=[10, 4, 2],
        initial_phases=[0, 1, 0],
    )
    return _digest(res)


def run_sample_intervals() -> dict:
    x = sample_intervals(fit_map2(1.0, 16.0, 0.5), 1000, rng=42)
    return {
        "sha256": hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest(),
        "first": _hex(x[0]),
        "last": _hex(x[-1]),
        "sum": _hex(x.sum()),
    }


RUNS = {
    "closed_tpcw": run_closed_tpcw,
    "mixed_tpcw": run_mixed_tpcw,
    "open_mm1": run_open_mm1,
    "multiserver": run_multiserver,
    "taps": run_taps,
    "horizon_time": run_horizon_time,
    "sample_intervals": run_sample_intervals,
}

#: The six ``simulate`` runs pin stream version 2 (per-station child
#: streams, block-drawn variates).  ``sample_intervals`` keeps the
#: one-jump-at-a-time stream it was first recorded with.
GOLDEN = {
    "closed_tpcw": {
        "completions": [4612, 8999, 4389],
        "duration": "0x1.008e90b77a83bp+11",
        "mean_queue_length": [
            "0x1.f8dcf3e805032p+3",
            "0x1.5713d5549cfaep-3",
            "0x1.c6bcc2a889142p-5",
        ],
        "n_events": 20000,
        "response_mean": [
            "0x1.bfd9dd88f419ap+2",
            "0x1.38f9f013cbcc4p-5",
            "0x1.a91bec374a7f3p-6",
        ],
        "throughput": [
            "0x1.1f9fd2c10d783p+1",
            "0x1.189bbafd908dfp+2",
            "0x1.11b79171e3cc5p+1",
        ],
        "utilization": [
            "0x1.0000000000000p+0",
            "0x1.ecd0d28456eddp-5",
            "0x1.afd3fca43115bp-5",
        ],
    },
    "horizon_time": {
        "completions": [78, 170, 88],
        "duration": "0x1.4000000000000p+5",
        "mean_queue_length": [
            "0x1.f23797686bc7ep+3",
            "0x1.6e27bbae0004ap-2",
            "0x1.2b955d121bf40p-4",
        ],
        "n_events": 336,
        "response_mean": [
            "0x1.93eccc637c71cp+2",
            "0x1.589dddd0f0f55p-4",
            "0x1.10593d5647f52p-5",
        ],
        "throughput": [
            "0x1.f333333333333p+0",
            "0x1.1000000000000p+2",
            "0x1.199999999999ap+1",
        ],
        "utilization": [
            "0x1.0000000000000p+0",
            "0x1.85cfb616b2d73p-4",
            "0x1.0257538078a8dp-4",
        ],
    },
    "mixed_tpcw": {
        "completions": [2612, 11092, 4296],
        "completions_open": [0, 5984, 1800],
        "duration": "0x1.2be10e918374cp+10",
        "external_arrivals": 5984,
        "mean_queue_length": [
            "0x1.e3ee7ad33db1fp+3",
            "0x1.ec88912553befp+1",
            "0x1.d8db0c9a270d3p-4",
        ],
        "mean_queue_length_open": [
            "0x0.0p+0",
            "0x1.849d1b49ab0cdp+1",
            "0x1.9b0e635c2d3f7p-5",
        ],
        "n_events": 26611,
        "response_mean": [
            "0x1.ba4fb41208d36p+2",
            "0x1.aa260bf391213p-2",
            "0x1.080f099b5a618p-5",
        ],
        "sink_departures": 5984,
        "throughput": [
            "0x1.16b9c319a15bbp+1",
            "0x1.27e7e8506dda3p+3",
            "0x1.ca6cb93d5d48dp+1",
        ],
        "utilization": [
            "0x1.fdf77a067210fp-1",
            "0x1.5b06355bc30f5p-3",
            "0x1.71f6137229b43p-4",
        ],
    },
    "multiserver": {
        "completions": [4499, 2741, 1760],
        "duration": "0x1.35e74bdb2aa5cp+11",
        "mean_queue_length": [
            "0x1.50ddd158d9342p+2",
            "0x1.4bc9fc623b2c9p+0",
            "0x1.70bebe3a6002bp+0",
        ],
        "n_events": 10000,
        "response_mean": [
            "0x1.735a5eb890e38p+1",
            "0x1.2c23e8eb8c47bp+0",
            "0x1.032ef17372c3ep+1",
        ],
        "throughput": [
            "0x1.d08eb936f699ep+0",
            "0x1.1b07b0a0c6613p+0",
            "0x1.6b77cda00cad0p-1",
        ],
        "utilization": [
            "0x1.ee81cc5dd8b56p-1",
            "0x1.37df5f3ea5bd5p-1",
            "0x1.5f420b601579bp-1",
        ],
    },
    "open_mm1": {
        "completions": [9000],
        "duration": "0x1.55f0bc5ac24aep+13",
        "external_arrivals": 9002,
        "mean_queue_length": ["0x1.32aa915027646p+2"],
        "n_events": 20007,
        "response_mean": ["0x1.74b4f5a8413c8p+2"],
        "sink_departures": 9000,
        "throughput": ["0x1.a52044fdfd310p-1"],
        "utilization": ["0x1.a8f683d2ff50bp-1"],
    },
    "sample_intervals": {
        "first": ["0x1.3462dc92b0b86p+0"],
        "last": ["0x1.61c02ea566cf1p-4"],
        "sha256": "5268de7262ccdcd7a02586e22912ecc605ead789700abd804612380b851388fb",
        "sum": ["0x1.095cea8b3e54fp+10"],
    },
    "taps": {
        "completions": [3600, 2137, 1463],
        "duration": "0x1.d33176111c32ap+10",
        "mean_queue_length": [
            "0x1.4b5d89d4f9a28p+2",
            "0x1.4271d693bb356p+0",
            "0x1.901802185e3f5p+0",
        ],
        "n_events": 8000,
        "queue_levels": [3, 2],
        "response_mean": [
            "0x1.57f498bd337a9p+1",
            "0x1.19f8d66c9fb2ap+0",
            "0x1.ff35de87ec613p+0",
        ],
        "taps": [
            {
                "count": 2137,
                "first": ["0x1.7087e752243bcp+7"],
                "last": ["0x1.00613fdf5076dp+11"],
            },
            {
                "count": 1464,
                "first": ["0x1.70af87ecd0842p+7"],
                "last": ["0x1.009541410d6ebp+11"],
            },
            {
                "count": 4274,
                "first": ["0x1.6fc94f422f491p+7"],
                "last": ["0x1.00954ffcb10dep+11"],
            },
        ],
        "throughput": [
            "0x1.ed28692713c2cp+0",
            "0x1.24be759a1cb9dp+0",
            "0x1.90d3e719ee11fp-1",
        ],
        "utilization": [
            "0x1.efc387b2cdd8fp-1",
            "0x1.37a5e0a4e132fp-1",
            "0x1.675d8bd4e456bp-1",
        ],
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_run_is_bit_identical(name):
    assert RUNS[name]() == GOLDEN[name]


# Stream version 2 properties -------------------------------------------------


def test_int_seed_reproduces_run_bit_for_bit():
    net = get_scenario("mixed-tpcw").network(16)
    a, b = (
        simulate(net, horizon_events=5_000, warmup_events=500, rng=7)
        for _ in range(2)
    )
    assert _digest(a) == _digest(b)
    assert all(
        np.array_equal(x, y) for x, y in zip(a.response_samples, b.response_samples)
    )


def test_one_generator_twice_gives_two_runs():
    """Each call spawns fresh child streams from the generator's seed
    sequence; transient ensembles pass one generator to every replica."""
    net = get_scenario("tpcw").network(16)
    gen = np.random.default_rng(7)
    a, b = (
        simulate(net, horizon_events=5_000, warmup_events=500, rng=gen)
        for _ in range(2)
    )
    assert a.duration != b.duration
    assert _digest(a) != _digest(b)


def _service_intervals(arrivals: FlowTap, departures: FlowTap) -> np.ndarray:
    """Service intervals of a single-server FCFS station from its flow taps:
    the i-th service starts at ``max(a_i, d_{i-1})`` and ends at ``d_i``."""
    d = departures.times()
    a = arrivals.times()[: len(d)]
    return d - np.maximum(a, np.concatenate([[-np.inf], d[:-1]]))


def test_station_intervals_do_not_depend_on_the_rest_of_the_network():
    """Station ``a`` (MAP(2), single server) sees different arrivals when
    station ``b`` routes elsewhere, yet serves the same interval sequence."""
    runs = []
    for b_to in (0, 1):
        routing = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]])
        routing[2, b_to] = 1.0
        net = Network(
            [
                delay("z", exponential(1.0)),
                queue("a", fit_map2(0.5, 4.0, 0.3)),
                queue("b", exponential(2.0)),
            ],
            routing,
            6,
        )
        taps = [FlowTap(1, "arrival"), FlowTap(1, "departure")]
        simulate(net, horizon_events=4_000, warmup_events=0, rng=5, taps=taps)
        runs.append(taps)
    (arr1, dep1), (arr2, dep2) = runs
    n = min(dep1.count, dep2.count)
    assert n > 1_000
    assert not np.allclose(arr1.times()[:n], arr2.times()[:n])
    np.testing.assert_allclose(
        _service_intervals(arr1, dep1)[:n],
        _service_intervals(arr2, dep2)[:n],
        rtol=1e-9,
        atol=1e-9,
    )
