"""Time-windowed measurement: QueueTap, binned rates, horizons, initial state."""

import numpy as np
import pytest

from repro.sim import FlowTap, QueueTap, simulate
from repro.workloads.tandem import poisson_tandem_model, tandem_model


class TestQueueTapStandalone:
    def test_step_evaluation(self):
        tap = QueueTap(0)
        tap.record(1.0, 1)
        tap.record(2.0, 3)
        tap.record(4.0, 2)
        got = tap.value_at([0.0, 1.0, 1.5, 2.0, 3.9, 4.0, 10.0])
        assert got.tolist() == [0.0, 1.0, 1.0, 3.0, 3.0, 2.0, 2.0]

    def test_empty_tap_evaluates_to_initial(self):
        tap = QueueTap(0, initial=5)
        assert tap.value_at([0.0, 2.0]).tolist() == [5.0, 5.0]

    def test_simultaneous_records_keep_last(self):
        tap = QueueTap(0)
        tap.record(1.0, 1)
        tap.record(1.0, 2)
        tap.record(1.0, 3)
        assert tap.value_at([1.0]).tolist() == [3.0]

    def test_time_average_exact_integral(self):
        tap = QueueTap(0)
        tap.record(0.0, 2)   # 2 on [0, 1)
        tap.record(1.0, 4)   # 4 on [1, 3)
        tap.record(3.0, 0)   # 0 afterwards
        avg = tap.time_average([0.0, 2.0, 4.0])
        assert avg[0] == pytest.approx((2.0 + 4.0) / 2.0)
        assert avg[1] == pytest.approx(4.0 / 2.0)

    def test_reset(self):
        tap = QueueTap(1)
        tap.record(1.0, 2)
        tap.reset()
        assert tap.count == 0

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            QueueTap(0).time_average([1.0])
        with pytest.raises(ValueError):
            QueueTap(0).time_average([2.0, 1.0])


class TestFlowTapBinned:
    def test_binned_rates_count_over_width(self):
        tap = FlowTap(0, "departure")
        for t in (0.5, 0.6, 1.5, 2.5, 2.6, 2.7):
            tap.record(t)
        rates = tap.binned_rates([0.0, 1.0, 2.0, 3.0])
        assert rates.tolist() == [2.0, 1.0, 3.0]

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            FlowTap(0, "departure").binned_rates([0.0])


class TestEngineIntegration:
    def test_queue_taps_track_engine_integrals(self):
        net = poisson_tandem_model(5)
        taps = [QueueTap(k) for k in range(2)]
        res = simulate(net, horizon_events=20_000, warmup_events=0,
                       rng=42, taps=taps)
        edges = np.array([0.0, res.duration])
        for k in range(2):
            avg = taps[k].time_average(edges)[0]
            assert avg == pytest.approx(res.mean_queue_length[k], rel=1e-6)

    def test_initial_jobs_recorded_at_time_zero(self):
        net = tandem_model(4)
        taps = [QueueTap(0), QueueTap(1)]
        simulate(net, horizon_events=10, warmup_events=0, rng=1, taps=taps,
                 initial_station=0)
        assert taps[0].value_at([0.0])[0] == 4.0
        assert taps[1].value_at([0.0])[0] == 0.0

    def test_horizon_time_stops_the_clock(self):
        net = tandem_model(4)
        res = simulate(net, horizon_events=10**9, warmup_events=0, rng=3,
                       horizon_time=25.0)
        assert res.duration == pytest.approx(25.0)

    def test_initial_populations_placement(self):
        net = tandem_model(6)
        taps = [QueueTap(0), QueueTap(1)]
        simulate(net, horizon_events=10, warmup_events=0, rng=5, taps=taps,
                 initial_populations=[2, 4])
        assert taps[0].value_at([0.0])[0] == 2.0
        assert taps[1].value_at([0.0])[0] == 4.0

    def test_initial_populations_validated(self):
        net = tandem_model(6)
        with pytest.raises(ValueError):
            simulate(net, horizon_events=10, initial_populations=[1, 2], warmup_events=0)
        with pytest.raises(ValueError):
            simulate(net, horizon_events=10, initial_populations=[7, -1], warmup_events=0)

    def test_initial_phases_control_and_validation(self):
        net = tandem_model(3)  # q1 is a MAP(2)
        res = simulate(net, horizon_events=2_000, warmup_events=0, rng=9,
                       initial_phases=[1, 0])
        assert res.completions.sum() == 2_000
        with pytest.raises(ValueError):
            simulate(net, horizon_events=10, initial_phases=[2, 0], warmup_events=0)
        with pytest.raises(ValueError):
            simulate(net, horizon_events=10, initial_phases=[0], warmup_events=0)

    def test_warmup_resets_queue_taps(self):
        net = tandem_model(4)
        taps = [QueueTap(0)]
        simulate(net, horizon_events=2_000, warmup_events=1_000, rng=11,
                 taps=taps)
        # nothing recorded before the warmup boundary survives
        assert taps[0].count > 0
        assert (taps[0].times() > 0.0).all()

    def test_warmup_boundary_reseeds_live_occupancy(self):
        """After the warmup reset the tap path must restart at the true
        queue length, not at `initial` — its time average over the
        measured window then matches the engine's own integral."""
        net = tandem_model(4)
        taps = [QueueTap(0), QueueTap(1)]
        res = simulate(net, horizon_events=5_000, warmup_events=1_000,
                       rng=11, taps=taps)
        t0 = min(tap.times()[0] for tap in taps)  # the warmup boundary
        for k in range(2):
            avg = taps[k].time_average([t0, t0 + res.duration])[0]
            assert avg == pytest.approx(res.mean_queue_length[k], rel=1e-6)
