"""Transient engine benchmark: multi-time-point reuse and cache replay.

The reuse claim this gates: evaluating a 50-point time grid through one
shared Poisson sweep must cost >= 5x fewer sparse matvecs than running
single-``t`` uniformization per grid point (the pre-subsystem idiom).
The gate is on the *matvec count* — deterministic, so CI can enforce it
without timing noise — while wall-clock speedup is recorded alongside in
``BENCH_transient.json`` for the reviewable perf trajectory.
"""

import time

import numpy as np
import pytest

from bench_reporting import PRESETS, bench_preset
from repro.obs.sentinel import TRANSIENT_REUSE_GATE
from repro.runtime import SolverRegistry
from repro.runtime.cache import ResultCache
from repro.transient import transient_grid, transient_trajectories
from repro.network.exact import build_generator
from repro.transient.initial import initial_distribution
from repro.network.statespace import NetworkStateSpace
from repro.workloads.tandem import tandem_model

#: Populations of the bursty-tandem stress shape per preset (the LP bench
#: keys PRESETS by (M, N); the transient CTMC reuses the N column).
_POPULATION = {"quick": PRESETS["quick"][1], "large": PRESETS["large"][1]}

GRID_POINTS = 50


@pytest.fixture(scope="module")
def network():
    return tandem_model(_POPULATION[bench_preset()])


def test_multi_time_point_reuse(network, transient_perf_report):
    """One shared sweep over 50 points vs 50 single-point sweeps."""
    space = NetworkStateSpace(network)
    Q = build_generator(network, space)
    pi0 = initial_distribution(network, space, "loaded:0")
    times = np.linspace(0.0, 4.0 * network.population, GRID_POINTS)

    t0 = time.perf_counter()
    shared = transient_grid(Q, pi0, times)
    t_shared = time.perf_counter() - t0

    t0 = time.perf_counter()
    naive_matvecs = 0
    for t in times:
        naive_matvecs += transient_grid(Q, pi0, [t]).n_matvecs
    t_naive = time.perf_counter() - t0

    matvec_speedup = naive_matvecs / max(shared.n_matvecs, 1)
    transient_perf_report.record(
        "transient_grid_reuse",
        preset=bench_preset(),
        n_states=int(space.size),
        grid_points=GRID_POINTS,
        shared_matvecs=int(shared.n_matvecs),
        naive_matvecs=int(naive_matvecs),
        matvec_speedup=float(matvec_speedup),
        t_shared_s=float(t_shared),
        t_naive_s=float(t_naive),
        wall_speedup=float(t_naive / max(t_shared, 1e-9)),
        n_segments=int(shared.n_segments),
    )
    # Deterministic gate: timing noise cannot flake this in CI.
    assert matvec_speedup >= TRANSIENT_REUSE_GATE, (
        f"multi-time-point reuse {matvec_speedup:.2f}x < {TRANSIENT_REUSE_GATE}x "
        f"({shared.n_matvecs} shared vs {naive_matvecs} naive matvecs)"
    )


def test_trajectory_solve_and_cache_replay(network, transient_perf_report,
                                           tmp_path):
    """End-to-end transient solve through the registry, then a disk replay."""
    registry = SolverRegistry(cache=ResultCache(directory=tmp_path / "cache"))
    times = tuple(
        float(t) for t in np.linspace(0.0, 4.0 * network.population, 25)
    )
    t0 = time.perf_counter()
    first = registry.solve(network, "transient", times=times, pi0="loaded:0")
    t_solve = time.perf_counter() - t0

    replay_registry = SolverRegistry(
        cache=ResultCache(directory=tmp_path / "cache")
    )
    t0 = time.perf_counter()
    replay = replay_registry.solve(
        network, "transient", times=times, pi0="loaded:0"
    )
    t_replay = time.perf_counter() - t0

    assert replay.from_cache and replay.to_dict() == first.to_dict()
    transient_perf_report.record(
        "transient_registry_cache",
        preset=bench_preset(),
        grid_points=len(times),
        t_solve_s=float(t_solve),
        t_replay_s=float(t_replay),
        engine=first.extra["engine"],
        n_matvecs=int(first.extra["n_matvecs"]),
    )


def test_accumulated_occupancy_overhead(network, transient_perf_report):
    """Accumulation shares the sweep: overhead is arithmetic, not matvecs."""
    times = np.linspace(0.0, 2.0 * network.population, 20)
    plain = transient_trajectories(network, times, pi0="loaded:0")
    acc = transient_trajectories(
        network, times, pi0="loaded:0", accumulate=True
    )
    assert acc.stats["n_matvecs"] == plain.stats["n_matvecs"]
    transient_perf_report.record(
        "transient_accumulate",
        preset=bench_preset(),
        n_matvecs=int(acc.stats["n_matvecs"]),
        grid_points=len(times),
    )
