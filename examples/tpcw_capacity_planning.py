#!/usr/bin/env python
"""Capacity planning for a bursty multi-tier system (the paper's Figure 3).

Question: how many emulated browsers can the TPC-W-style deployment sustain
under a 3-second response-time SLA?

The classic (no-ACF, product-form/MVA) model and the autocorrelation-aware
MAP model give very different answers; the discrete-event "measurement"
shows the MAP model is the one to trust — ignoring temporal dependence
"may falsely indicate that the system can sustain higher capacities".

Run:  python examples/tpcw_capacity_planning.py
"""

from repro.baselines import mva
from repro.core import response_time_bounds
from repro.sim import simulate
from repro.utils.tables import format_table
from repro.workloads import CLIENT, TpcwParameters, tpcw_model

SLA_SECONDS = 3.0


def acf_model_response(network, think_time: float) -> tuple[float, float]:
    """Response-time bounds of the ACF-aware model: R = N / X - Z."""
    r = response_time_bounds(network, CLIENT)
    return r.lower - think_time, r.upper - think_time


def main() -> None:
    params = TpcwParameters()  # bursty front server ("extreme" preset)
    print(f"TPC-W parameters: {params}\n")

    rows = []
    capacity = {"noacf": None, "acf": None, "measured": None}
    for browsers in (64, 96, 128, 160, 192, 224):
        net_bursty = tpcw_model(browsers, params)
        net_exp = tpcw_model(browsers, params.with_burstiness("none"))

        # Classic capacity model: exact MVA on the exponential system.
        r_noacf = browsers / mva(net_exp).system_throughput - params.think_time

        # ACF-aware model: LP bounds on the MAP network (upper bound is the
        # conservative planning number).
        r_lo, r_hi = acf_model_response(net_bursty, params.think_time)

        # "Measurement": simulate the bursty system.
        sim = simulate(
            net_bursty, horizon_events=150_000, warmup_events=15_000, rng=browsers
        )
        r_meas = browsers / sim.throughput[CLIENT] - params.think_time

        rows.append([browsers, r_meas, r_lo, r_hi, r_noacf])
        for key, value in (
            ("noacf", r_noacf),
            ("acf", r_hi),
            ("measured", r_meas),
        ):
            if value <= SLA_SECONDS:
                capacity[key] = browsers

    print(
        format_table(
            ["browsers", "R measured", "R acf.lo", "R acf.hi", "R no-ACF"],
            rows,
            floatfmt=".3f",
            title="Response time (seconds, think time excluded)",
        )
    )
    print(f"\nlargest browser count meeting the {SLA_SECONDS:.0f}s SLA:")
    print(f"  classic no-ACF model : {capacity['noacf']} browsers")
    print(f"  ACF-aware model      : {capacity['acf']} browsers")
    print(f"  measured (DES)       : {capacity['measured']} browsers")
    print(
        "\nThe no-ACF model overstates capacity — the paper's core warning "
        "about ignoring temporal dependence in capacity planning."
    )


if __name__ == "__main__":
    main()
