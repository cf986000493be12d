#!/usr/bin/env python
"""End-to-end smoke of the fluid tier (CI's ``smoke-fluid``).

Exercises the whole ISSUE-9 pipeline in one shot:

1. ``stress-large-population`` at N = 1,000,000 solves via
   ``--method fluid`` semantics (registry, steady fixed point) twice —
   the second solve through a fresh registry must replay from the *disk*
   cache tier and reconstruct a FluidResult byte-identically;
2. at N = 1 the fluid point must match the exact CTMC solver within
   1e-3 relative on throughput, queue lengths, and utilizations;
3. the exact/fluid throughput gap must shrink monotonically over a
   doubling population sequence past the saturation knee;
4. deep in saturation (``fig5-case-study`` at N = 200) the fluid steady
   point must sit within 5% of the exact CTMC answer (40,602 states).

Exit status 0 means the fluid path works end to end.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if SRC.is_dir() and str(SRC) not in sys.path:  # run from a source checkout
    sys.path.insert(0, str(SRC))

STRESS_SCENARIO = "stress-large-population"
MILLION = 1_000_000
SMALL_N_RTOL = 1e-3
CONVERGENCE_POPULATIONS = (2, 4, 8, 16)  # bursty-tandem knee: N* = 1.95
MID_GAP_LIMIT = 0.05


def main() -> int:
    """Run the smoke pipeline; returns a process exit code."""
    tmp = tempfile.mkdtemp(prefix="repro-smoke-fluid-")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")

    from repro.fluid import FluidResult
    from repro.runtime import SolverRegistry
    from repro.runtime.cache import ResultCache
    from repro.scenarios import get_scenario

    # 1. Million-user steady solve, then a fresh-registry replay that must
    # come from the on-disk tier (JSON round-trip of the fixed point).
    net = get_scenario(STRESS_SCENARIO).network(population=MILLION)
    registry = SolverRegistry(cache=ResultCache())
    first = registry.solve(net, "fluid")
    replay = SolverRegistry(cache=ResultCache()).solve(net, "fluid")
    if not (replay.from_cache and isinstance(replay, FluidResult)):
        print("FAIL: fluid solve did not replay from the disk cache as a "
              "FluidResult", file=sys.stderr)
        return 1
    if replay.to_dict() != first.to_dict():
        print("FAIL: disk replay does not round-trip the fixed point",
              file=sys.stderr)
        return 1
    if not first.extra["saturated"] or first.extra["fluid_dim"] >= 10:
        print(f"FAIL: million-user solve looks wrong "
              f"(saturated={first.extra['saturated']}, "
              f"dim={first.extra['fluid_dim']})", file=sys.stderr)
        return 1
    print(f"  {STRESS_SCENARIO}: N={MILLION:,} steady fluid point "
          f"X={first.system_throughput_point():.4f} "
          f"(dim {first.extra['fluid_dim']}, "
          f"residual {first.extra['fixed_point_residual']:.2e}), "
          f"disk replay OK")

    # 2. N = 1 exactness across a closed catalog scenario.
    small = get_scenario("fig5-case-study").network(population=1)
    fluid1 = registry.solve(small, "fluid")
    exact1 = registry.solve(small, "exact")
    worst = abs(
        fluid1.system_throughput_point() - exact1.system_throughput_point()
    ) / exact1.system_throughput_point()
    for k, st in enumerate(small.stations):
        qe = exact1.queue_length_point(k)
        worst = max(
            worst, abs(fluid1.queue_length_point(k) - qe) / max(qe, 1e-6)
        )
        if st.kind != "delay":
            ue = exact1.utilization_point(k)
            worst = max(
                worst, abs(fluid1.utilization_point(k) - ue) / max(ue, 1e-6)
            )
    if worst > SMALL_N_RTOL:
        print(f"FAIL: N=1 fluid/exact gap {worst:.2e} > {SMALL_N_RTOL}",
              file=sys.stderr)
        return 1
    print(f"  fig5-case-study: N=1 fluid/exact max rel error {worst:.2e}")

    # 3. Monotone convergence over doubling populations past the knee.
    gaps = []
    for N in CONVERGENCE_POPULATIONS:
        nn = get_scenario("bursty-tandem").network(population=N)
        xf = registry.solve(nn, "fluid").system_throughput_point()
        xe = registry.solve(nn, "exact").system_throughput_point()
        gaps.append((xf - xe) / xf)
    if not all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])):
        print(f"FAIL: fluid gap not monotone over doubling N: {gaps}",
              file=sys.stderr)
        return 1
    print(f"  bursty-tandem: gap {gaps[0]:.3f} -> {gaps[-1]:.3f} "
          f"monotone over N={CONVERGENCE_POPULATIONS}")

    # 4. Mid-scale exact cross-check deep in saturation.
    mid = get_scenario("fig5-case-study").network(population=200)
    xf = registry.solve(mid, "fluid").system_throughput_point()
    xe = registry.solve(mid, "exact").system_throughput_point()
    gap = abs(xf - xe) / xe
    if gap > MID_GAP_LIMIT:
        print(f"FAIL: fluid/exact throughput gap {gap:.3f} > {MID_GAP_LIMIT}",
              file=sys.stderr)
        return 1
    print(f"  fig5-case-study: N=200 fluid X={xf:.4f} vs exact X={xe:.4f} "
          f"(gap {100 * gap:.2f}%)")

    stats = registry.cache_stats()
    print(f"smoke OK: fluid million-user + validation ladder end to end; "
          f"cache stats {stats}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
