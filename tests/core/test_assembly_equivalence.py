"""Vectorized assembler == seed row-wise assembler, bit for bit.

The contract of the PR-3 kernel rewrite: the block assembler in
``repro.core.assembly`` must produce the *identical polytope* as the seed
per-row emitter (kept as ``build_constraints_reference``) — same rows up to
row order, same labels, same right-hand sides, same variable bounds.  The
comparison is exact (no tolerance): rows are permuted into sorted-label
order via ``canonical_form`` and the CSR pieces are compared bit-equal.

Coverage: every catalog scenario, both constraint tiers, the redundant
families, delay stations, and hypothesis-random MAP networks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    canonical_form,
    build_constraints,
    build_constraints_reference,
    queue_length_metric,
    system_throughput_metric,
    throughput_metric,
    utilization_metric,
)
from repro.core.lpbackend import make_lp_engine
from repro.maps import exponential, fit_map2, random_map2
from repro.network import Network, delay, queue
from repro.runtime.batch import BatchLPSolver
from repro.scenarios import get_scenario_registry

# LP constraint assembly is defined for closed networks only; open/mixed
# catalog entries dispatch to qbd/sim and never reach the assembler.
SCENARIOS = tuple(
    sc.name for sc in get_scenario_registry()
    if sc.network().kind == "closed"
)


def assert_same_polytope(reference, vectorized):
    """Canonicalized bit-equality of two assembled constraint systems."""
    cr = canonical_form(reference)
    cv = canonical_form(vectorized)
    for side in ("eq", "ub"):
        assert cr[f"{side}_labels"] == cv[f"{side}_labels"], f"{side} labels differ"
        Ar, Av = cr[f"A_{side}"], cv[f"A_{side}"]
        assert Ar.shape == Av.shape
        np.testing.assert_array_equal(Ar.indptr, Av.indptr)
        np.testing.assert_array_equal(Ar.indices, Av.indices)
        np.testing.assert_array_equal(Ar.data, Av.data)  # exact, no tolerance
        np.testing.assert_array_equal(cr[f"b_{side}"], cv[f"b_{side}"])
    np.testing.assert_array_equal(cr["lb"], cv["lb"])
    np.testing.assert_array_equal(cr["ub"], cv["ub"])


def both_paths(net, **kwargs):
    ref = build_constraints_reference(net, **kwargs)
    vec = build_constraints(net, **kwargs)
    return ref, vec


# ---------------------------------------------------------------------- #
# every catalog scenario
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_scenario_polytopes_identical(name):
    net = get_scenario_registry().get(name).network(population=3)
    assert_same_polytope(*both_paths(net))


@pytest.mark.parametrize("name", ["fig5-case-study", "tpcw", "random-3q"])
def test_catalog_scenario_pair_tier_identical(name):
    net = get_scenario_registry().get(name).network(population=4)
    assert_same_polytope(*both_paths(net, triples=False))


@pytest.mark.parametrize("name", ["fig5-case-study", "bursty-tandem", "tpcw"])
def test_catalog_scenario_redundant_families_identical(name):
    net = get_scenario_registry().get(name).network(population=3)
    assert_same_polytope(*both_paths(net, include_redundant=True))


# ---------------------------------------------------------------------- #
# structured edge cases
# ---------------------------------------------------------------------- #
def test_single_station_self_loop():
    net = Network(
        [queue("q", fit_map2(1.0, 4.0, 0.2))], np.array([[1.0]]), 3
    )
    assert_same_polytope(*both_paths(net))


def test_delay_station_sources():
    routing = np.array([[0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.0, 1.0, 0.0]])
    net = Network(
        [
            delay("clients", exponential(0.5)),
            queue("web", fit_map2(1.0, 9.0, 0.3)),
            queue("db", exponential(1.2)),
        ],
        routing,
        4,
    )
    assert_same_polytope(*both_paths(net))
    assert_same_polytope(*both_paths(net, include_redundant=True, triples=False))


def test_self_routing_probability_mass():
    # Self loops exercise the q_kk terms of families A/H and F's k == j case.
    routing = np.array([[0.5, 0.5], [0.4, 0.6]])
    net = Network(
        [queue("a", fit_map2(1.0, 5.0, 0.4)), queue("b", exponential(2.0))],
        routing,
        5,
    )
    assert_same_polytope(*both_paths(net))
    assert_same_polytope(*both_paths(net, include_redundant=True))


# ---------------------------------------------------------------------- #
# hypothesis: random MAP networks
# ---------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    M=st.integers(2, 3),
    N=st.integers(1, 5),
    tier=st.sampled_from([None, False]),
)
def test_random_network_polytopes_identical(seed, M, N, tier):
    rng = np.random.default_rng(seed)
    stations = [
        queue(f"q{j}", random_map2(rng=np.random.default_rng(seed + 17 * j)))
        for j in range(M)
    ]
    routing = rng.uniform(0.05, 1.0, size=(M, M))
    routing /= routing.sum(axis=1, keepdims=True)
    net = Network(stations, routing, N)
    assert_same_polytope(*both_paths(net, triples=tier))


# ---------------------------------------------------------------------- #
# bounds equivalence through the solver stack
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["fig5-case-study", "bursty-tandem"])
def test_standard_bounds_match_reference_within_1e_9(name):
    net = get_scenario_registry().get(name).network(population=3)
    solver = BatchLPSolver(net)
    got = solver.standard_bounds()
    # The reference polytope, solved one metric at a time on the stateless
    # engine at the same method: the main solver runs the persistent one
    # wherever a HiGHS binding imports, so this doubles as a cross-engine
    # 1e-9 agreement check.
    ref_system = build_constraints_reference(net)
    vi = ref_system.vi
    ref = make_lp_engine(ref_system, solver.method, "scipy")

    def want(metric):
        c = metric.dense(ref_system.n_variables)
        lo, hi = (
            ref.solve(c, sense).value + metric.constant for sense in ("min", "max")
        )
        return min(lo, hi), max(lo, hi)

    for k in range(net.n_stations):
        for attr, metric in (
            ("utilization", utilization_metric(net, vi, k)),
            ("throughput", throughput_metric(net, vi, k)),
            ("queue_length", queue_length_metric(net, vi, k)),
        ):
            g = getattr(got, attr)[k]
            lo, hi = want(metric)
            assert g.lower == pytest.approx(lo, abs=1e-9)
            assert g.upper == pytest.approx(hi, abs=1e-9)
    lo, hi = want(system_throughput_metric(net, vi, 0))
    assert got.system_throughput.lower == pytest.approx(lo, abs=1e-9)
    assert got.system_throughput.upper == pytest.approx(hi, abs=1e-9)


# ---------------------------------------------------------------------- #
# the one assembly path
# ---------------------------------------------------------------------- #
def test_no_assembly_cache_argument():
    # Every call assembles from the network alone: there is no plan cache
    # to inject, and nothing is kept between calls.
    net = get_scenario_registry().get("fig5-case-study").network(population=3)
    with pytest.raises(TypeError):
        build_constraints(net, cache=None)
    with pytest.raises(TypeError):
        BatchLPSolver(net, assembly_cache=None)


def test_prebuilt_variable_index_fixes_the_tier():
    # Seed semantics: the families consult vi.triples — a pair-tier index
    # with triples unspecified must yield the pair-only relaxation.
    from repro.core import VariableIndex

    net = get_scenario_registry().get("fig5-case-study").network(population=3)
    vi = VariableIndex(net, triples=False)
    vec = build_constraints(net, vi)
    ref = build_constraints_reference(net, VariableIndex(net, triples=False))
    assert_same_polytope(ref, vec)
    # An index of another tier than the requested one is an error, not a
    # silently wrong polytope.
    with pytest.raises(ValueError):
        build_constraints(net, vi, triples=True)


def test_lazy_labels_behave_like_lists():
    net = get_scenario_registry().get("bursty-tandem").network(population=2)
    ref, vec = both_paths(net)
    assert len(vec.eq_labels) == len(ref.eq_labels)
    # Same label multiset; order may differ (block-wise vs interleaved).
    assert sorted(vec.eq_labels) == sorted(ref.eq_labels)
    assert sorted(vec.ub_labels) == sorted(ref.ub_labels)
    assert vec.eq_labels[0] == "A[k=0,n=0,h=0]" == ref.eq_labels[0]
    assert vec.eq_labels == list(vec.eq_labels)  # LazyLabels == list
