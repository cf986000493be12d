"""State-space component cache: exact and transient solves share one."""

import numpy as np
import pytest

from repro.maps import exponential, mmpp2
from repro.network import (
    Network,
    NetworkStateSpace,
    PhaseLayout,
    StateSpaceCache,
    queue,
    solve_exact,
)
from repro.network.statespace import get_statespace_cache
from repro.transient import transient_trajectories


@pytest.fixture()
def tandem():
    routing = np.array([[0.0, 1.0], [1.0, 0.0]])
    return Network(
        [queue("q1", mmpp2(0.05, 0.02, 2.5, 0.4)), queue("q2", exponential(1.5))],
        routing,
        4,
    )


def test_phase_layout_matches_inline_construction(tandem):
    space = NetworkStateSpace(tandem)
    layout = PhaseLayout(tandem.phase_orders)
    np.testing.assert_array_equal(space.phase_digits, layout.phase_digits)
    np.testing.assert_array_equal(space.phase_strides, layout.phase_strides)
    assert space.n_phase == layout.n_phase
    for j in range(tandem.n_stations):
        for a in range(tandem.phase_orders[j]):
            np.testing.assert_array_equal(
                space.phases_with(j, a), layout.phases_with(j, a)
            )


def test_population_sweep_reuses_phase_layout(tandem):
    cache = StateSpaceCache()
    spaces = [cache.space_for(tandem.with_population(n)) for n in (2, 3, 4, 5)]
    # One layout shared across every point; one composition space per N.
    assert len({id(s.layout) for s in spaces}) == 1
    stats = cache.stats()
    assert stats["layouts"] == 1
    assert stats["compositions"] == 4
    assert stats["hits"] == 3  # layout hits on points 2..4
    # A second identical sweep is served entirely from cache.
    before = cache.stats()["misses"]
    again = [cache.space_for(tandem.with_population(n)) for n in (2, 3, 4, 5)]
    assert cache.stats()["misses"] == before
    assert all(a.comp is s.comp for a, s in zip(again, spaces))


def test_cached_space_gives_identical_exact_solution(tandem):
    cache = get_statespace_cache()
    first = solve_exact(tandem)
    misses = cache.stats()["misses"]
    second = solve_exact(tandem)
    assert cache.stats()["misses"] == misses
    np.testing.assert_array_equal(first.pi, second.pi)


def test_space_mismatch_rejected(tandem):
    # A prebuilt space is not an input: nothing could check that it is the
    # model's, and a population-6 space answered for a population-4 model.
    wrong = StateSpaceCache().space_for(tandem.with_population(6))
    with pytest.raises(TypeError):
        solve_exact(tandem, space=wrong)
    with pytest.raises(TypeError):
        transient_trajectories(tandem, (0.0, 1.0), space=wrong)


def test_exact_then_transient_enumerate_once(tandem):
    from repro.runtime import SolverRegistry

    cache = get_statespace_cache()
    cache.clear()
    registry = SolverRegistry(cache=None)
    exact = registry.solve(tandem, "exact")
    misses = cache.stats()["misses"]
    assert misses > 0
    transient = registry.solve(tandem, "transient", times=(0.0, 1.0))
    assert cache.stats()["misses"] == misses
    assert transient.extra["throughput_inf"] == [
        iv.lower for iv in exact.throughput
    ]


def test_statespace_rejects_mismatched_components(tandem):
    cache = StateSpaceCache()
    with pytest.raises(ValueError):
        NetworkStateSpace(tandem, comp=cache.composition_space(9, 2))
    with pytest.raises(ValueError):
        NetworkStateSpace(tandem, phase_layout=cache.phase_layout((3, 3)))


def test_registry_exact_sweep_matches_direct_solves(tandem):
    from repro.runtime import SolverRegistry

    registry = SolverRegistry(cache=None)
    for n in (2, 3, 4):
        net = tandem.with_population(n)
        res = registry.solve(net, "exact")
        direct = solve_exact(net)
        assert res.system_throughput.midpoint == pytest.approx(
            direct.system_throughput(), abs=1e-12
        )


def test_composition_over_the_budget_is_handed_out_not_kept():
    cache = StateSpaceCache(max_cached_cells=20)
    comp = cache.composition_space(5, 3)  # 21 compositions x 3 parts = 63 cells
    assert comp.states.shape == (21, 3)
    assert cache.stats()["compositions"] == 0
    assert cache.composition_space(5, 3) is not comp  # built again: a miss
    assert cache.stats()["misses"] == 2


def test_layout_over_the_budget_is_handed_out_not_kept():
    cache = StateSpaceCache(max_cached_cells=20)
    big = cache.phase_layout((2, 2, 2))  # 2 * 8 phases * 3 stations = 48 cells
    assert big.n_phase == 8
    assert cache.stats()["layouts"] == 0
    assert cache.phase_layout((2, 2, 2)) is not big
    small = cache.phase_layout((2,))  # 2 * 2 * 1 = 4 cells: kept
    assert cache.phase_layout((2,)) is small
    assert cache.stats() == {"hits": 1, "misses": 3, "compositions": 0, "layouts": 1}


def test_one_budget_evicts_the_least_recent_entry_of_either_kind():
    cache = StateSpaceCache(max_cached_cells=20)
    layout = cache.phase_layout((2, 2))  # 16 cells
    comp = cache.composition_space(1, 2)  # 2 x 2 = 4 cells: 20 in all, both kept
    assert cache.stats()["layouts"] == cache.stats()["compositions"] == 1
    cache.composition_space(2, 2)  # 3 x 2 = 6 more: the layout goes
    assert cache.stats()["layouts"] == 0
    assert cache.composition_space(1, 2) is comp
    assert cache.phase_layout((2, 2)) is not layout
