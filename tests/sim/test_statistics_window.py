"""The statistics window: a run that never passes its warmup is an error."""

import pytest

from repro.runtime import SolverRegistry
from repro.scenarios import get_scenario
from repro.sim import simulate


@pytest.fixture(scope="module")
def tpcw():
    return get_scenario("tpcw").network(16)


class TestWarmupNeverReached:
    @pytest.mark.parametrize("warmup", [1_000, 2_000])
    def test_warmup_at_or_past_event_horizon_rejected(self, tpcw, warmup):
        with pytest.raises(ValueError, match="warmup_events"):
            simulate(tpcw, horizon_events=1_000, warmup_events=warmup, rng=1)

    def test_rejected_through_the_registry(self, tpcw):
        with pytest.raises(ValueError, match="warmup_events"):
            SolverRegistry(cache=None).solve(
                tpcw, "sim", rng=1, horizon_events=1_000, warmup_events=2_000
            )

    def test_time_horizon_before_warmup_boundary(self, tpcw):
        with pytest.raises(RuntimeError, match="warmup boundary never reached"):
            simulate(
                tpcw, horizon_events=10**6, warmup_events=5_000, rng=1,
                horizon_time=1.0,
            )

    def test_time_horizon_after_warmup_boundary_measures_the_rest(self, tpcw):
        res = simulate(
            tpcw, horizon_events=10**6, warmup_events=500, rng=1, horizon_time=400.0
        )
        assert 0.0 < res.duration < 400.0
        assert res.completions.sum() > 0
