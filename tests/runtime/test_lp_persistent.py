"""Population sweeps on the persistent LP engine agree with stateless scipy.

Each sweep point builds its own persistent HiGHS model; every min starts
from the point's anchor basis and every max from its min's optimum (see
:mod:`repro.runtime.batch`).  Start bases change iteration counts, not
optima beyond LP tolerance, so a persistent sweep must agree with a
stateless one to that tolerance, and serial and parallel sweeps must give
the same bounds.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.lpbackend import highs_available
from repro.maps import exponential, fit_map2
from repro.network import Network, queue
from repro.runtime import SolverRegistry, batch
from repro.runtime.sweep import SweepRunner

pytestmark = pytest.mark.skipif(
    not highs_available(), reason="no HiGHS binding importable"
)

POPULATIONS = (3, 4, 5, 6)
METRICS = ("throughput[0]", "queue_length[1]", "system_throughput")
#: min/max pairs solved per point: throughput[0] and system throughput
#: both follow from the utilization[0] pair
PAIRS = len(METRICS) - 1


@pytest.fixture()
def base_net():
    return Network(
        [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        POPULATIONS[0],
    )


def _sweep(base_net, workers: int, **opts) -> list:
    runner = SweepRunner(
        registry=SolverRegistry(cache=None), workers=workers, cache_dir=None
    )
    return runner.population_sweep(
        base_net, POPULATIONS, "lp", metrics=METRICS, **opts
    )


def _assert_close(got_results, want_results, tol=1e-9):
    for got, want in zip(got_results, want_results):
        for k, field in ((0, "throughput"), (1, "queue_length")):
            g, w = getattr(got, field)[k], getattr(want, field)[k]
            assert abs(g.lower - w.lower) <= tol, (field, k, g, w)
            assert abs(g.upper - w.upper) <= tol, (field, k, g, w)
        assert abs(got.system_throughput.lower - want.system_throughput.lower) <= tol
        assert abs(got.system_throughput.upper - want.system_throughput.upper) <= tol


def test_serial_sweep_warm_starts_and_agrees(base_net):
    persistent = _sweep(base_net, workers=1, backend="highs")
    # every min started from the anchor, every max from its min's optimum
    assert all(r.extra["lp_warm_starts"] == PAIRS for r in persistent)
    assert all(r.extra["lp_basis_reuse"] == PAIRS for r in persistent)
    assert all(r.extra["n_lp_solves"] == 2 * PAIRS for r in persistent)
    assert all(r.extra["backend"] == "highs" for r in persistent)

    stateless = _sweep(base_net, workers=1, backend="scipy")
    assert all(r.extra["lp_warm_starts"] == r.extra["lp_basis_reuse"] == 0
               for r in stateless)
    _assert_close(persistent, stateless)


def test_parallel_sweep_agrees_with_serial(base_net):
    serial = _sweep(base_net, workers=1, backend="highs")
    parallel = _sweep(base_net, workers=2, backend="highs")
    # every point solves alone, so the executor cannot move an answer
    _assert_close(parallel, serial, tol=0.0)


def test_parallel_sweep_workers_split_the_cores(base_net):
    # each of the two worker processes gets half the usable cores for pair
    # threads, and every pair thread builds one HiGHS model per point
    threads = min(PAIRS, max(1, batch._usable_cores() // 2))
    tele = obs.Telemetry()
    with obs.use(tele):
        _sweep(base_net, workers=2, backend="highs")
    assert tele.snapshot().counters["lp.model_rebuild"] == len(POPULATIONS) * threads


# ---------------------------------------------------------------------- #
# catalog-wide agreement: every closed scenario, both backends, 1e-9
# ---------------------------------------------------------------------- #
from repro.scenarios import get_scenario, get_scenario_registry  # noqa: E402

CLOSED_SCENARIOS = tuple(
    name
    for name in get_scenario_registry().names()
    if get_scenario(name).network(population=4).kind == "closed"
)

#: Small enough to keep the whole parametrized sweep inside seconds, large
#: enough that the polytope has interior (non-degenerate bound pairs).
CATALOG_N = 4


@pytest.mark.parametrize("name", CLOSED_SCENARIOS)
def test_catalog_backends_agree(name):
    """Persistent HiGHS and stateless scipy answer every catalog scenario
    identically to 1e-9 — the acceptance bar of the backend swap."""
    net = get_scenario(name).network(population=CATALOG_N)
    registry = SolverRegistry(cache=None)
    specs = ("throughput[0]", "queue_length[0]", "system_throughput")
    # Pair tier: the triple tier multiplies variables ~M-fold (minutes on
    # the 6-station ring) without exercising any backend-specific code.
    res_h = registry.solve(
        net, "lp", metrics=specs, backend="highs", triples=False
    )
    res_s = registry.solve(
        net, "lp", metrics=specs, backend="scipy", triples=False
    )
    assert res_h.extra["backend"] == "highs"
    assert res_s.extra["backend"] == "scipy"
    for a, b in (
        (res_h.throughput_interval(0), res_s.throughput_interval(0)),
        (res_h.queue_length_interval(0), res_s.queue_length_interval(0)),
        (res_h.system_throughput, res_s.system_throughput),
    ):
        assert abs(a.lower - b.lower) <= 1e-9, (name, a, b)
        assert abs(a.upper - b.upper) <= 1e-9, (name, a, b)
