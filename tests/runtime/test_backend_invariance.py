"""Backend is provenance, not identity: dense and operator runs share
one cache entry.

The ``backend`` option changes *how* the exact/transient answer is
computed (assembled generator vs matrix-free Kronecker operator), never
*what* it is.  The registry therefore excludes it from the solve
fingerprint and ``to_dict()`` strips it from the cached payload — so a
dense solve warms the cache for an operator request and vice versa, and
replayed payloads are byte-identical regardless of which backend filled
the entry.
"""

import json

import numpy as np
import pytest

from repro.runtime import ResultCache, SolverRegistry
from repro.workloads.ring import ring_model
from repro.workloads.tandem import tandem_model

TIMES = (0.0, 1.0, 5.0, 20.0)


@pytest.fixture()
def registry(tmp_path):
    return SolverRegistry(cache=ResultCache(directory=tmp_path))


@pytest.fixture(scope="module")
def tandem():
    return tandem_model(4)


def payload_bytes(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode()


class TestFingerprintInvariance:
    @pytest.mark.parametrize("method,opts", [
        ("exact", {}),
        ("transient", {"times": TIMES, "pi0": "loaded:q1"}),
    ])
    def test_same_fingerprint_across_backends(
        self, tmp_path, tandem, method, opts
    ):
        # fresh registries (cold caches) so both solves actually compute
        fps = {}
        for backend in ("dense", "operator", "auto"):
            reg = SolverRegistry(
                cache=ResultCache(directory=tmp_path / backend)
            )
            res = reg.solve(tandem, method, backend=backend, **opts)
            assert res.extra["cache_hit"] is False
            fps[backend] = res.fingerprint
        assert fps["dense"] == fps["operator"] == fps["auto"]

    def test_omitted_backend_hits_same_entry(self, registry, tandem):
        first = registry.solve(tandem, "exact", backend="dense")
        replay = registry.solve(tandem, "exact")  # default backend="auto"
        assert replay.extra["cache_hit"] is True
        assert replay.fingerprint == first.fingerprint


class TestCacheSharing:
    def test_operator_replays_dense_exact_entry(self, registry, tandem):
        dense = registry.solve(tandem, "exact", backend="dense")
        assert dense.extra["cache_hit"] is False
        op = registry.solve(tandem, "exact", backend="operator")
        assert op.extra["cache_hit"] is True
        assert payload_bytes(op) == payload_bytes(dense)

    def test_dense_replays_operator_transient_entry(self, registry, tandem):
        op = registry.solve(
            tandem, "transient", times=TIMES, pi0="loaded:q1",
            backend="operator",
        )
        assert op.extra["cache_hit"] is False
        dense = registry.solve(
            tandem, "transient", times=TIMES, pi0="loaded:q1",
            backend="dense",
        )
        assert dense.extra["cache_hit"] is True
        assert payload_bytes(dense) == payload_bytes(op)

    def test_disk_tier_replay_across_registries(self, tmp_path, tandem):
        """A fresh registry replays from disk under the other backend label."""
        lp_opts = {"metrics": ("throughput[0]", "system_throughput")}
        for method, fill, other, opts in (
            ("exact", "operator", "dense", {}),
            ("lp", "auto", "scipy", lp_opts),
        ):
            first = SolverRegistry(cache=ResultCache(directory=tmp_path)).solve(
                tandem, method, backend=fill, **opts
            )
            fresh = SolverRegistry(cache=ResultCache(directory=tmp_path))
            replay = fresh.solve(tandem, method, backend=other, **opts)
            assert replay.extra["cache_hit"] is True, method
            assert replay.extra["cache_tier"] == "disk", method
            assert payload_bytes(replay) == payload_bytes(first), method


class TestProvenance:
    def test_backend_stamped_on_fresh_solves(self, registry, tandem):
        res = registry.solve(tandem, "exact", backend="operator")
        assert res.extra["backend"] == "operator"
        res_t = registry.solve(
            tandem, "transient", times=TIMES, pi0="loaded:q1",
            backend="dense",
        )
        assert res_t.extra["backend"] == "dense"

    def test_auto_records_resolved_backend(self, registry):
        net = ring_model(2, n_stations=2)
        res = registry.solve(net, "exact", backend="auto", max_states=10)
        assert res.extra["backend"] == "operator"

    def test_backend_stripped_from_payload(self, registry, tandem):
        res = registry.solve(tandem, "exact", backend="operator")
        payload = res.to_dict()
        assert "backend" not in payload.get("extra", {})
        assert "cache_hit" not in payload.get("extra", {})


class TestLPBackendInvariance:
    """The LP ``backend`` option (persistent HiGHS vs stateless scipy)
    follows the same contract as the exact/transient one."""

    METRICS = ("throughput[0]", "system_throughput")

    def test_same_fingerprint_across_backends(self, tmp_path, tandem):
        fps = {}
        for backend in ("scipy", "auto"):
            reg = SolverRegistry(
                cache=ResultCache(directory=tmp_path / backend)
            )
            res = reg.solve(
                tandem, "lp", metrics=self.METRICS, backend=backend
            )
            assert res.extra["cache_hit"] is False
            fps[backend] = res.fingerprint
        assert fps["scipy"] == fps["auto"]

    def test_scipy_replays_persistent_entry(self, registry, tandem):
        first = registry.solve(tandem, "lp", metrics=self.METRICS)
        assert first.extra["cache_hit"] is False
        replay = registry.solve(
            tandem, "lp", metrics=self.METRICS, backend="scipy"
        )
        assert replay.extra["cache_hit"] is True
        assert payload_bytes(replay) == payload_bytes(first)

    def test_backend_stamped_and_stripped(self, registry, tandem):
        res = registry.solve(tandem, "lp", metrics=self.METRICS, backend="scipy")
        assert res.extra["backend"] == "scipy"
        assert "backend" not in res.to_dict().get("extra", {})

    def test_auto_without_binding_is_the_scipy_engine(self, monkeypatch, tandem):
        """With no HiGHS binding, ``auto`` is the stateless engine, bit for bit."""
        import repro.core.lpbackend as lpbackend

        want = SolverRegistry(cache=None).solve(
            tandem, "lp", metrics=self.METRICS, backend="scipy"
        )
        monkeypatch.setattr(lpbackend, "_highs", lambda: (None, None))
        got = SolverRegistry(cache=None).solve(
            tandem, "lp", metrics=self.METRICS, backend="auto"
        )
        assert got.extra["backend"] == "scipy"
        # Interval equality compares the floats exactly: bit for bit
        assert got.throughput == want.throughput
        assert got.system_throughput == want.system_throughput
        assert got.extra["lp_iterations"] == want.extra["lp_iterations"]

    def test_fresh_lp_answers_agree(self, tmp_path, tandem):
        results = {}
        for backend in ("scipy", "auto"):
            reg = SolverRegistry(
                cache=ResultCache(directory=tmp_path / backend)
            )
            results[backend] = reg.solve(
                tandem, "lp", metrics=self.METRICS, backend=backend
            )
        a = results["scipy"].throughput_interval(0)
        b = results["auto"].throughput_interval(0)
        assert abs(a.lower - b.lower) <= 1e-9
        assert abs(a.upper - b.upper) <= 1e-9


class TestNumericInvariance:
    def test_fresh_exact_answers_agree(self, tmp_path, tandem):
        results = {}
        for backend in ("dense", "operator"):
            reg = SolverRegistry(
                cache=ResultCache(directory=tmp_path / backend)
            )
            results[backend] = reg.solve(tandem, "exact", backend=backend)
        d, o = results["dense"], results["operator"]
        for metric in ("utilization", "queue_length"):
            dense_vals = [iv.midpoint for iv in getattr(d, metric)]
            op_vals = [iv.midpoint for iv in getattr(o, metric)]
            assert np.abs(
                np.asarray(op_vals) - np.asarray(dense_vals)
            ).max() < 1e-8

    def test_fresh_transient_answers_agree(self, tmp_path, tandem):
        results = {}
        for backend in ("dense", "operator"):
            reg = SolverRegistry(
                cache=ResultCache(directory=tmp_path / backend)
            )
            results[backend] = reg.solve(
                tandem, "transient", times=TIMES, pi0="loaded:q1",
                backend=backend,
            )
        d, o = results["dense"], results["operator"]
        assert np.abs(
            np.asarray(o.queue_length_t) - np.asarray(d.queue_length_t)
        ).max() < 1e-10
