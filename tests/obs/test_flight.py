"""Flight recorder: bounded ring, dump-on-error, exception plumbing."""

import json

import numpy as np
import pytest
from scipy.sparse.linalg import MatrixRankWarning

import repro.obs as obs
from repro.markov.ctmc import steady_state_ctmc
from repro.obs.core import FlightRecorder
from repro.qbd.solver import solve_r_matrix
from repro.utils.errors import SolverError


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    obs.disable_flight_recorder()
    obs.disable()


def unstable_blocks():
    """Drift-unstable QBD blocks (arrival rate above service rate)."""
    lam, mu = 2.0, 1.0
    A0 = np.array([[lam]])
    A2 = np.array([[mu]])
    A1 = np.array([[-(lam + mu)]])
    return A0, A1, A2


class TestRingBuffer:
    def test_capacity_bounds_retained_spans(self, tmp_path):
        rec = FlightRecorder(capacity=4, directory=tmp_path)
        tele = obs.Telemetry(recorder=rec, retain_spans=False)
        with obs.use(tele):
            for i in range(10):
                with tele.span("work", i=i):
                    pass
        tail = rec.tail()
        assert len(tail) == 4
        assert [t["attributes"]["i"] for t in tail] == [6, 7, 8, 9]
        # span-dropping mode keeps no root spans at all
        assert tele.roots == []

    def test_counters_mirror_into_recorder(self, tmp_path):
        rec = FlightRecorder(capacity=4, directory=tmp_path)
        tele = obs.Telemetry(recorder=rec)
        with obs.use(tele):
            tele.counter("lp.iterations", 5)
            tele.counter("lp.iterations", 2)
        assert rec.counters()["lp.iterations"] == 7

    def test_dump_is_schema_valid(self, tmp_path):
        rec = FlightRecorder(capacity=8, directory=tmp_path)
        tele = obs.Telemetry(recorder=rec)
        with obs.use(tele):
            with tele.span("outer"):
                with tele.span("inner"):
                    tele.counter("n", 1)
        path = rec.dump()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert obs.validate_trace(records) == []
        names = [r["name"] for r in records if r["type"] == "span"]
        assert names == ["inner", "outer"]  # finish order

    def test_enable_disable_lifecycle(self, tmp_path):
        rec = obs.enable_flight_recorder(capacity=4, directory=tmp_path)
        assert obs.get_flight_recorder() is rec
        assert obs.enable_flight_recorder() is rec  # idempotent
        tele = obs.get_telemetry()
        assert tele.enabled and tele.recorder is rec
        obs.disable_flight_recorder()
        assert obs.get_flight_recorder() is None
        # the telemetry existed only to feed the recorder: torn down too
        assert not obs.get_telemetry().enabled

    def test_enable_attaches_to_running_telemetry(self, tmp_path):
        tele = obs.enable()
        rec = obs.enable_flight_recorder(directory=tmp_path)
        assert obs.get_telemetry() is tele and tele.recorder is rec
        obs.disable_flight_recorder()
        # a full profiling session merely loses its recorder
        assert obs.get_telemetry() is tele and tele.recorder is None


class TestDumpOnError:
    def test_failing_qbd_solve_yields_readable_trace_dump(self, tmp_path):
        """The PR's regression test: SolverError carries error.trace_path."""
        obs.enable_flight_recorder(directory=tmp_path)
        with pytest.raises(SolverError) as excinfo:
            solve_r_matrix(*unstable_blocks(), label="station 'db'")
        trace_path = getattr(excinfo.value, "trace_path", None)
        assert trace_path is not None
        records = [
            json.loads(line)
            for line in open(trace_path, encoding="utf-8")
        ]
        assert obs.validate_trace(records) == []
        header = records[0]
        assert "station 'db'" in header["error"]
        spans = [r for r in records if r["type"] == "span"]
        assert any(s["name"] == "qbd.r_matrix" for s in spans)
        (qbd,) = [s for s in spans if s["name"] == "qbd.r_matrix"]
        assert qbd["status"] == "error"

    def test_failing_stationary_solve_yields_trace_dump(self, tmp_path):
        """A post-solve check failure in the CTMC solve is traced too."""
        obs.enable_flight_recorder(directory=tmp_path)
        # Two closed classes: every pinned system is singular, so the
        # solve cannot be normalized.
        block = np.array([[-1.0, 1.0], [1.0, -1.0]])
        Q = np.kron(np.eye(2), block)
        with pytest.warns(MatrixRankWarning), pytest.raises(SolverError) as excinfo:
            steady_state_ctmc(Q, method="direct")
        trace_path = getattr(excinfo.value, "trace_path", None)
        assert trace_path is not None
        records = [json.loads(line) for line in open(trace_path, encoding="utf-8")]
        assert obs.validate_trace(records) == []
        (span,) = [r for r in records if r["type"] == "span"]
        assert span["name"] == "ctmc.steady_state"
        assert span["status"] == "error"
        assert span["attributes"]["pins"] == 2
        assert span["attributes"]["n_states"] == 4

    def test_trace_path_attached_once_at_innermost_span(self, tmp_path):
        rec = obs.enable_flight_recorder(directory=tmp_path)
        tele = obs.get_telemetry()
        with pytest.raises(SolverError) as excinfo:
            with tele.span("outer"):
                with tele.span("inner"):
                    raise SolverError("boom")
        paths = list(tmp_path.glob("repro-flight-*.jsonl"))
        assert len(paths) == 1  # one dump, not one per crossed span
        assert excinfo.value.trace_path == str(paths[0])
        assert rec is obs.get_flight_recorder()

    def test_unregistered_exceptions_get_no_dump(self, tmp_path):
        obs.enable_flight_recorder(directory=tmp_path)
        tele = obs.get_telemetry()
        with pytest.raises(ValueError):
            with tele.span("outer"):
                raise ValueError("not a solver failure")
        assert list(tmp_path.glob("repro-flight-*.jsonl")) == []

    def test_without_recorder_error_propagates_clean(self):
        tele = obs.enable()
        with pytest.raises(SolverError) as excinfo:
            with tele.span("outer"):
                raise SolverError("boom")
        assert getattr(excinfo.value, "trace_path", None) is None

    def test_unwritable_dump_dir_never_masks_the_error(self, tmp_path):
        target = tmp_path / "missing" / "deeper"
        obs.enable_flight_recorder(directory=target)
        tele = obs.get_telemetry()
        target.parent.mkdir()
        target.parent.chmod(0o500)
        try:
            with pytest.raises(SolverError, match="boom"):
                with tele.span("outer"):
                    raise SolverError("boom")
        finally:
            target.parent.chmod(0o700)
