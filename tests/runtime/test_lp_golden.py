"""LP bounds pinned bit for bit: ``float.hex`` goldens of the solve path.

The goldens were recorded on scipy 1.17.1 (its vendored HiGHS): the
persistent engine on ``backend="auto"`` (simplex from the solver's anchor
basis and each max from its min's optimum; interior point cold), the
stateless engine on ``backend="scipy"``, and one fresh engine per
``optimize_metric`` call.  A change to the engines, the start bases, the
retry ladder or the pair queue that moves one bit of one bound fails here.
Other HiGHS builds differ in the last bits, so the goldens are compared
only on the build they were recorded with.

``bound_specs`` solves the min/max pairs on one thread per usable core;
the standard bounds are checked with the core count patched to 1 (every
pair inline on one engine) and to 4 (four engines on four threads, more
than this suite's hosts have cores), and must equal the same goldens.
"""

import sys

import numpy as np
import pytest
import scipy

from repro.core import build_constraints, throughput_metric
from repro.core.lp import optimize_metric
from repro.core.lpbackend import highs_available
from repro.core.variables import VariableIndex
from repro.maps import exponential, fit_map2
from repro.network import Network, queue
from repro.runtime import batch
from repro.runtime.batch import BatchLPSolver
from repro.scenarios import get_scenario

pytestmark = pytest.mark.skipif(
    scipy.__version__ != "1.17.1" or not highs_available(),
    reason="goldens recorded on scipy 1.17.1's vendored HiGHS",
)

#: (scenario, population, method, backend) -> spec -> (lower, upper)
BOUNDS = {
    ("fig5-case-study", 6, "auto", "auto"): {
        "queue_length[0]": ("0x1.988891f40f65bp+0", "0x1.cc20d08b0bbe7p+0"),
        "queue_length[1]": ("0x1.9f896f1215e56p+0", "0x1.cdcd7194980ccp+0"),
        "queue_length[2]": ("0x1.3a202852f6102p+1", "0x1.5927b9f822cacp+1"),
        "response_time": ("0x1.4949523d351e5p+2", "0x1.51a4cdd6786c9p+2"),
        "system_throughput": ("0x1.2325a7b6afa70p+0", "0x1.2a89558ab0ee1p+0"),
        "throughput[0]": ("0x1.2325a7b6afa70p+0", "0x1.2a89558ab0ee1p+0"),
        "throughput[1]": ("0x1.979b1dffc2b6bp-1", "0x1.a1f377c22ae6ap-1"),
        "throughput[2]": ("0x1.d1d5d9244c3a7p-4", "0x1.dda888dde7e82p-4"),
        "utilization[0]": ("0x1.2325a7b6afa72p-1", "0x1.2a89558ab0ee1p-1"),
        "utilization[1]": ("0x1.2325a7b6afa72p-1", "0x1.2a89558ab0ee1p-1"),
        "utilization[2]": ("0x1.5d6062db392a2p-1", "0x1.663e66a66deddp-1"),
    },
    ("tpcw", 5, "highs-ipm", "auto"): {
        "queue_length[0]": ("0x1.3c5710d39835fp+2", "0x1.3cca93b689a4fp+2"),
        "queue_length[1]": ("0x1.079caa255d046p-5", "0x1.42663530d90c3p-5"),
        "queue_length[2]": ("0x1.238772cceeef5p-6", "0x1.26c0f29233675p-6"),
        "response_time": ("0x1.c489a3dec59e3p+2", "0x1.c52ee2407d728p+2"),
        "system_throughput": ("0x1.6988133af7193p-1", "0x1.6a0c168778bf3p-1"),
        "throughput[0]": ("0x1.6988133af7193p-1", "0x1.6a0c168778bf3p-1"),
        "throughput[1]": ("0x1.6988133af71c1p+0", "0x1.6a0c168778b80p+0"),
        "throughput[2]": ("0x1.6988133af717ap-1", "0x1.6a0c168778c15p-1"),
        "utilization[0]": ("0x1.fff472248d171p-1", "0x1.fffceab911056p-1"),
        "utilization[1]": ("0x1.a07bfd93ccca0p-6", "0x1.a11411c2f9ae0p-6"),
        "utilization[2]": ("0x1.2139a8fbf8e00p-6", "0x1.21a345392d620p-6"),
    },
    ("bursty-tandem", 3, "auto", "auto"): {
        "queue_length[0]": ("0x1.841d380dbeae3p+0", "0x1.841d380dbeae8p+0"),
        "queue_length[1]": ("0x1.7be2c7f24151cp+0", "0x1.7be2c7f241526p+0"),
        "response_time": ("0x1.1eaf7899561d1p+2", "0x1.1eaf7899561d7p+2"),
        "system_throughput": ("0x1.56e602e417311p-1", "0x1.56e602e417318p-1"),
        "throughput[0]": ("0x1.56e602e417311p-1", "0x1.56e602e417318p-1"),
        "throughput[1]": ("0x1.56e602e417310p-1", "0x1.56e602e417318p-1"),
        "utilization[0]": ("0x1.56e602e41731ap-1", "0x1.56e602e41731dp-1"),
        "utilization[1]": ("0x1.45c0e9257c6eap-1", "0x1.45c0e9257c6efp-1"),
    },
    ("bursty-tandem", 3, "auto", "scipy"): {
        "queue_length[0]": ("0x1.841d380dbead0p+0", "0x1.841d380dbeadep+0"),
        "queue_length[1]": ("0x1.7be2c7f2414f8p+0", "0x1.7be2c7f241525p+0"),
        "response_time": ("0x1.1eaf7899561d2p+2", "0x1.1eaf7899561d3p+2"),
        "system_throughput": ("0x1.56e602e417316p-1", "0x1.56e602e417317p-1"),
        "throughput[0]": ("0x1.56e602e417316p-1", "0x1.56e602e417317p-1"),
        "throughput[1]": ("0x1.56e602e4172f8p-1", "0x1.56e602e417318p-1"),
        "utilization[0]": ("0x1.56e602e417316p-1", "0x1.56e602e417318p-1"),
        "utilization[1]": ("0x1.45c0e9257c6e8p-1", "0x1.45c0e9257c6fcp-1"),
    },
}

#: (scenario, population, method, backend) -> the solver's counters after
#: the standard bounds: (n_solves, n_iterations, n_warm_starts,
#: n_basis_reuse, n_fallbacks); the anchor's iterations are counted
COUNTS = {
    ("fig5-case-study", 6, "auto", "auto"): (18, 2007, 9, 9, 0),
    ("tpcw", 5, "highs-ipm", "auto"): (18, 511, 0, 0, 0),
    ("bursty-tandem", 3, "auto", "auto"): (12, 82, 6, 6, 0),
    ("bursty-tandem", 3, "auto", "scipy"): (12, 0, 0, 0, 0),
}

#: backend -> (min, max) of throughput[0] on the two-station network
PAIR = {
    "auto": ("0x1.bbcd5422116b1p-1", "0x1.bbcd5422116b0p-1"),
    "scipy": ("0x1.bbcd5422116b5p-1", "0x1.bbcd5422116b1p-1"),
}


def _standard(case) -> "tuple[dict, tuple]":
    """(spec -> hex bounds, counters) of one case's standard bounds."""
    name, population, method, backend = case
    net = get_scenario(name).network(population=population)
    solver = BatchLPSolver(net, method=method, backend=backend)
    got = {
        spec: (iv.lower.hex(), iv.upper.hex())
        for spec, iv in solver.bound_specs("standard").items()
    }
    counts = (
        solver.n_solves, solver.n_iterations, solver.n_warm_starts,
        solver.n_basis_reuse, solver.n_fallbacks,
    )
    return got, counts


@pytest.mark.parametrize(
    "case, cores",
    [
        pytest.param(
            case, cores, id="-".join(map(str, case)) + ("" if cores == 1 else "-4-cores")
        )
        for case in sorted(BOUNDS)
        for cores in (1, 4)
    ],
)
def test_standard_bounds_bit_identical(case, cores, monkeypatch):
    monkeypatch.setattr(batch, "_usable_cores", lambda: cores)
    assert _standard(case) == (BOUNDS[case], COUNTS[case])


def test_pair_pool_repeats_bit_identical(monkeypatch):
    """Four threads, many schedules: every repeat lands on the goldens."""
    monkeypatch.setattr(batch, "_usable_cores", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, more schedules
    try:
        for case, repeats in (
            (("bursty-tandem", 3, "auto", "auto"), 10),
            (("fig5-case-study", 6, "auto", "auto"), 2),
        ):
            for _ in range(repeats):
                assert _standard(case) == (BOUNDS[case], COUNTS[case])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("backend", sorted(PAIR))
def test_optimize_metric_pair_bit_identical(backend):
    net = Network(
        [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        5,
    )
    vi = VariableIndex(net)
    system = build_constraints(net, vi)
    metric = throughput_metric(net, vi, 0)
    got = tuple(
        optimize_metric(system, metric, sense, backend=backend).value.hex()
        for sense in ("min", "max")
    )
    assert got == PAIR[backend]
