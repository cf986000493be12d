#!/usr/bin/env python
"""End-to-end smoke of the matrix-free Kronecker backend (``smoke-kron``).

Drives the ISSUE-7 pipeline at a catalog-scale model *past* the dense
CTMC storage wall — ``kron-ring`` at ``(M=6, N=18)``, 2,153,536 joint
states, above the 2,000,000-state ``DENSE_MAX_STATES`` guard — and proves that

1. the dense backend still *refuses* the model (the wall is real);
2. ``backend="auto"`` reroutes the registry ``exact`` solve through the
   Kronecker operator and a Krylov steady state — with
   ``build_generator`` replaced by a tripwire for the whole run, so a
   materialized ``Q`` anywhere in the stack fails the smoke;
3. a fresh registry requesting the *other* backend replays the solve
   byte-identically from the disk cache (backend-invariant fingerprint);
4. the transient pipeline (uniformization sweep + operator stationary
   reference) runs at the same scale, replays from disk, and its
   ``t -> inf`` limits match the exact solve;
5. the analytic transient trajectories agree with seeded ensemble
   simulation within 5% of scale.

Exit status 0 means answers beyond the storage wall work end to end.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if SRC.is_dir() and str(SRC) not in sys.path:  # run from a source checkout
    sys.path.insert(0, str(SRC))

SCENARIO = "kron-ring"
N_STATIONS = 6
POPULATION = 18
TIMES = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)
GAP_LIMIT = 0.05
#: The gate is a max over all (time, station) cells, so the ensemble has
#: to be large enough that no near-empty downstream cell (normalized by
#: the 0.5-job floor) trips it on sampling noise alone.  The simulator
#: runs this shape at ~0.4 ms/replication, so 10k paths cost ~4 s.
REPLICATIONS = 10_000


def _arm_no_q_tripwire() -> None:
    """Make any generator assembly for the rest of the process fatal.

    ``repro.network.exact.generator_for`` is the one place that assembles
    ``Q``, through its module's ``build_generator``.  The tripwire raises
    if that name is gone, so a later move cannot silently disarm it.
    """
    import repro.network.exact as exact_mod

    if not callable(getattr(exact_mod, "build_generator", None)):
        raise AssertionError(
            "repro.network.exact.build_generator is missing: the tripwire "
            "would guard nothing"
        )

    def tripped(*args, **kwargs):
        raise AssertionError(
            "build_generator was called: the smoke materialized Q"
        )

    exact_mod.build_generator = tripped


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="repro-smoke-kron-")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")

    from repro.network.exact import (
        DENSE_MAX_STATES,
        expected_state_count,
        solve_exact,
    )
    from repro.runtime import SolverRegistry
    from repro.runtime.cache import ResultCache
    from repro.scenarios import get_scenario
    from repro.transient import cross_check_gap, simulated_trajectories

    net = get_scenario(SCENARIO).network(
        population=POPULATION, n_stations=N_STATIONS
    )
    expected = expected_state_count(net)
    print(f"  {SCENARIO} (M={N_STATIONS}, N={POPULATION}): "
          f"{expected:,} joint states (wall: {DENSE_MAX_STATES:,})")
    if expected <= DENSE_MAX_STATES:
        print("FAIL: smoke model does not cross the storage wall",
              file=sys.stderr)
        return 1

    # 1. The wall is real: the dense backend must refuse this model.
    try:
        solve_exact(net, backend="dense")
    except MemoryError:
        pass
    else:
        print("FAIL: dense backend accepted a past-the-wall model",
              file=sys.stderr)
        return 1

    # 2. From here on, assembling Q anywhere fails the smoke.
    _arm_no_q_tripwire()

    registry = SolverRegistry(cache=ResultCache())
    t0 = time.perf_counter()
    exact = registry.solve(net, "exact")  # backend defaults to "auto"
    t_exact = time.perf_counter() - t0
    if exact.extra["backend"] != "operator":
        print(f"FAIL: exact backend resolved to {exact.extra['backend']!r}",
              file=sys.stderr)
        return 1
    util = [exact.utilization_point(k) for k in range(net.n_stations)]
    print(f"  exact (Krylov, matrix-free): {t_exact:.1f}s, "
          f"utilizations {np.round(util, 4).tolist()}")

    # 3. Disk replay under the *dense* label: the fingerprint must be
    # backend-invariant, and a replay never computes (the tripwire would
    # catch a dense recompute anyway).
    replay = SolverRegistry(cache=ResultCache()).solve(
        net, "exact", backend="dense"
    )
    if not replay.from_cache or replay.extra["cache_tier"] != "disk":
        print("FAIL: exact solve did not replay from the disk cache",
              file=sys.stderr)
        return 1
    if replay.to_dict() != exact.to_dict():
        print("FAIL: replayed payload differs from the original",
              file=sys.stderr)
        return 1
    print("  disk replay (backend='dense' label): byte-identical payload")

    # 4. Transient at the same scale: operator uniformization sweep with
    # a Krylov stationary reference, then its own disk replay.
    t0 = time.perf_counter()
    transient = registry.solve(
        net, "transient", times=TIMES, pi0="loaded:q0"
    )
    t_trans = time.perf_counter() - t0
    if transient.extra["backend"] != "operator":
        print("FAIL: transient backend did not resolve to operator",
              file=sys.stderr)
        return 1
    print(f"  transient (operator sweep): {t_trans:.1f}s, "
          f"{transient.extra['n_matvecs']} matvecs, "
          f"TV {transient.distance_array[0]:.3f} -> "
          f"{transient.distance_array[-1]:.3f}")
    replay_t = SolverRegistry(cache=ResultCache()).solve(
        net, "transient", times=TIMES, pi0="loaded:q0", backend="operator"
    )
    if not replay_t.from_cache or replay_t.to_dict() != transient.to_dict():
        print("FAIL: transient solve did not replay from the disk cache",
              file=sys.stderr)
        return 1

    # t -> inf limits must match the exact steady state.
    for k in range(net.n_stations):
        a = transient.queue_length_stationary(k)
        b = exact.queue_length_point(k)
        if abs(a - b) > 1e-6:
            print(f"FAIL: station {k} stationary limit {a} != exact {b}",
                  file=sys.stderr)
            return 1

    # 5. Analytic trajectories vs seeded ensemble simulation (<= 5%).
    sim = simulated_trajectories(
        net, np.asarray(TIMES), pi0="loaded:q0",
        replications=REPLICATIONS, rng=2026,
    )
    analytic = np.column_stack(
        [transient.queue_length_trajectory(k) for k in range(net.n_stations)]
    )
    gap = cross_check_gap(analytic, sim.queue_length)
    print(f"  sim cross-check: gap {100 * gap:.2f}% over {len(TIMES)} points "
          f"x {net.n_stations} stations ({REPLICATIONS} replications)")
    if gap > GAP_LIMIT:
        print(f"FAIL: analytic/sim gap {gap:.3f} > {GAP_LIMIT}",
              file=sys.stderr)
        return 1

    print(f"smoke OK: exact + transient answers at {expected:,} states, "
          f"Q never materialized")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
