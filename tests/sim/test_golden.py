"""Seeded simulation runs reproduce recorded outputs bit for bit.

The event loop keeps station state in Python scalars and searches its
routing rows and MAP jump tables with ``bisect``; it must still consume
exactly the same ``gen.exponential``/``gen.random`` stream in the same
order as the numpy-scalar implementation these values were recorded
with.  Floats are stored as ``float.hex`` strings and compared with
``==``, so any change to the draw order or to the accumulation
arithmetic shows up here.
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

#: Recorded with the numpy-scalar event loop (``np.searchsorted`` routing,
#: ndarray accumulators) that predates the Python-native engine.
GOLDEN = {
    "closed_tpcw": {
        "completions": [4457, 9000, 4543],
        "duration": "0x1.f1c232e95e7b6p+10",
        "mean_queue_length": [
            "0x1.f8b174693022ep+3",
            "0x1.596833354f5e5p-3",
            "0x1.e8eac9faa0157p-5",
        ],
        "n_events": 20000,
        "response_mean": [
            "0x1.c1aac6da5cf88p+2",
            "0x1.31a6f13de83edp-5",
            "0x1.ac9e152f3265dp-6",
        ],
        "throughput": [
            "0x1.1e885035417fap+1",
            "0x1.214bff6b96bc8p+2",
            "0x1.240faea1ebf96p+1",
        ],
        "utilization": [
            "0x1.0000000000000p+0",
            "0x1.12384ca2469bcp-4",
            "0x1.cd9019862b0d5p-5",
        ],
    },
    "horizon_time": {
        "completions": [84, 187, 99],
        "duration": "0x1.4000000000000p+5",
        "mean_queue_length": [
            "0x1.e03f8ea4b4028p+3",
            "0x1.d57f3e5feb5bbp-1",
            "0x1.343ebaa6a3d8ap-4",
        ],
        "n_events": 370,
        "response_mean": [
            "0x1.51855e74d7ef7p+2",
            "0x1.91b56d7f3f1b7p-3",
            "0x1.f22c7dd1d7abbp-6",
        ],
        "throughput": [
            "0x1.0cccccccccccdp+1",
            "0x1.2b33333333333p+2",
            "0x1.3cccccccccccdp+1",
        ],
        "utilization": [
            "0x1.0000000000000p+0",
            "0x1.1aa2d984d0e29p-3",
            "0x1.00a6ea88da213p-4",
        ],
    },
    "mixed_tpcw": {
        "completions": [2548, 11066, 4386],
        "completions_open": [0, 6006, 1874],
        "duration": "0x1.28b04f72c4872p+10",
        "external_arrivals": 6006,
        "mean_queue_length": [
            "0x1.dd9f04f92ad08p+3",
            "0x1.530d69f945e7dp+2",
            "0x1.db9520b855a98p-4",
        ],
        "mean_queue_length_open": [
            "0x0.0p+0",
            "0x1.1256d7cc27992p+2",
            "0x1.b178512aa3f33p-5",
        ],
        "n_events": 26611,
        "response_mean": [
            "0x1.bab4ceef19cbbp+2",
            "0x1.22e38f4659ca7p-1",
            "0x1.016417ca1e1cfp-5",
        ],
        "sink_departures": 6006,
        "throughput": [
            "0x1.12d1ed4e95ddap+1",
            "0x1.2a6306542b41ep+3",
            "0x1.d90fbcdbde9b1p+1",
        ],
        "utilization": [
            "0x1.0000000000000p+0",
            "0x1.8250b0f137e78p-3",
            "0x1.744899bedbcd4p-4",
        ],
    },
    "multiserver": {
        "completions": [4499, 2689, 1812],
        "duration": "0x1.23429977d3ae2p+11",
        "mean_queue_length": [
            "0x1.4cf45b56860f0p+2",
            "0x1.4864bb6c6afb7p+0",
            "0x1.83c9d7397cd31p+0",
        ],
        "n_events": 10000,
        "response_mean": [
            "0x1.59004ec364ed1p+1",
            "0x1.1cb6939754cb3p+0",
            "0x1.f2e48c80ac97bp+0",
        ],
        "throughput": [
            "0x1.ee4b2294828d1p+0",
            "0x1.276ef854c7921p+0",
            "0x1.8e28d594d12d3p-1",
        ],
        "utilization": [
            "0x1.eed0ed3c82611p-1",
            "0x1.35e6f4a1c5615p-1",
            "0x1.5b66edafba3c8p-1",
        ],
    },
    "open_mm1": {
        "completions": [9000],
        "duration": "0x1.5a4f7681f940bp+13",
        "external_arrivals": 9005,
        "mean_queue_length": ["0x1.2b723da0e33e4p+2"],
        "n_events": 20005,
        "response_mean": ["0x1.70ae18c3908f9p+2"],
        "sink_departures": 9000,
        "throughput": ["0x1.9fcfdb475552ep-1"],
        "utilization": ["0x1.9e523cd37528ap-1"],
    },
    "sample_intervals": {
        "first": ["0x1.3462dc92b0b86p+0"],
        "last": ["0x1.61c02ea566cf1p-4"],
        "sha256": "5268de7262ccdcd7a02586e22912ecc605ead789700abd804612380b851388fb",
        "sum": ["0x1.095cea8b3e54fp+10"],
    },
    "taps": {
        "completions": [3603, 2125, 1472],
        "duration": "0x1.de1456d756aeep+10",
        "mean_queue_length": [
            "0x1.4a7d5f6fc7df7p+2",
            "0x1.4cba7627f1a4ap+0",
            "0x1.89500c18eede3p+0",
        ],
        "n_events": 8000,
        "queue_levels": [1, 3],
        "response_mean": [
            "0x1.5e6c130b5f0b3p+1",
            "0x1.2a666a3dd092fp+0",
            "0x1.fe22f6bb42ff3p+0",
        ],
        "taps": [
            {
                "count": 2125,
                "first": ["0x1.a586ef2d5109cp+7"],
                "last": ["0x1.093ed5f326f10p+11"],
            },
            {
                "count": 1476,
                "first": ["0x1.ab57d555059e9p+7"],
                "last": ["0x1.094b07a45f44cp+11"],
            },
            {
                "count": 4253,
                "first": ["0x1.a442d7c1c36e2p+7"],
                "last": ["0x1.094e58e7c78e5p+11"],
            },
        ],
        "throughput": [
            "0x1.e254727ee92c8p+0",
            "0x1.1c78b7335503fp+0",
            "0x1.8a1c37c1271d3p-1",
        ],
        "utilization": [
            "0x1.ee72bcbc52c14p-1",
            "0x1.3d1bc6660cc2ap-1",
            "0x1.6770f4e6cf588p-1",
        ],
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_run_is_bit_identical(name):
    assert RUNS[name]() == GOLDEN[name]
