"""Fingerprint canonicality: equality, sensitivity, cross-process stability."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.maps import exponential, fit_map2
from repro.network import ClosedNetwork, queue
from repro.runtime import (
    FingerprintError,
    ResultCache,
    SolverRegistry,
    fingerprint_network,
    fingerprint_solve,
)
from repro.runtime import fingerprint as fingerprint_mod

ROUTING = np.array([[0.0, 1.0], [1.0, 0.0]])


def tandem(N=4, scv=4.0):
    return ClosedNetwork(
        [queue("a", fit_map2(1.0, scv, 0.4)), queue("b", exponential(1.4))],
        ROUTING,
        N,
    )


class TestEquality:
    def test_same_model_same_digest(self):
        assert fingerprint_network(tandem()) == fingerprint_network(tandem())

    def test_population_changes_digest(self):
        assert fingerprint_network(tandem(4)) != fingerprint_network(tandem(5))

    def test_service_process_changes_digest(self):
        assert fingerprint_network(tandem(scv=4.0)) != fingerprint_network(
            tandem(scv=4.01)
        )

    def test_method_and_opts_enter_solve_digest(self):
        net = tandem()
        a = fingerprint_solve(net, "lp", {"triples": True})
        b = fingerprint_solve(net, "lp", {"triples": False})
        c = fingerprint_solve(net, "exact", {"triples": True})
        assert len({a, b, c}) == 3

    def test_opts_order_irrelevant(self):
        net = tandem()
        a = fingerprint_solve(net, "sim", {"rng": 1, "horizon_events": 10})
        b = fingerprint_solve(net, "sim", {"horizon_events": 10, "rng": 1})
        assert a == b

    def test_nested_opts_supported(self):
        net = tandem()
        fp = fingerprint_solve(net, "lp", {"metrics": ("utilization[0]", "response_time")})
        assert len(fp) == 64


class TestUncacheable:
    def test_non_serializable_opts_raise(self):
        with pytest.raises(FingerprintError):
            fingerprint_solve(tandem(), "sim", {"rng": np.random.default_rng(3)})


class TestCrossProcessStability:
    def test_digest_survives_process_restart(self):
        """The same model hashed in a fresh interpreter gives the same key —
        the property the on-disk cache tier rests on."""
        net = tandem()
        here = fingerprint_solve(net, "lp", {"triples": False})
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.maps import exponential, fit_map2
            from repro.network import ClosedNetwork, queue
            from repro.runtime import fingerprint_solve
            net = ClosedNetwork(
                [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
                np.array([[0.0, 1.0], [1.0, 0.0]]),
                4,
            )
            print(fingerprint_solve(net, "lp", {"triples": False}))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == here


class TestAlgorithmVersion:
    """A per-method algorithm version retires that method's entries only."""

    SOLVES = {
        "sim": {"rng": 1, "horizon_events": 2_000, "warmup_events": 200},
        "exact": {},
        "lp": {"metrics": ("throughput[0]",)},
        "mva": {},
    }

    def _from_cache(self, directory) -> dict:
        registry = SolverRegistry(cache=ResultCache(directory=directory))
        return {
            method: registry.solve(tandem(), method, **opts).from_cache
            for method, opts in self.SOLVES.items()
        }

    @pytest.mark.parametrize("bumped", ["sim", "exact", "lp"])
    def test_bump_misses_that_method_and_hits_the_rest(
        self, bumped, tmp_path, monkeypatch
    ):
        assert not any(self._from_cache(tmp_path).values())
        assert all(self._from_cache(tmp_path).values())
        table = fingerprint_mod.ALGORITHM_VERSION
        monkeypatch.setitem(table, bumped, table.get(bumped, 1) + 1)
        assert self._from_cache(tmp_path) == {m: m != bumped for m in self.SOLVES}

    def test_unlisted_methods_keep_their_keys(self):
        """Solve keys recorded before the version table existed."""
        net = tandem()
        assert "mva" not in fingerprint_mod.ALGORITHM_VERSION
        assert fingerprint_solve(net, "mva", {}) == (
            "a5f16ff28972df8b42175722a3ef6c4aca9f50800012b467a10ba7644c4783df"
        )
        assert fingerprint_solve(net, "exact", {}) == (
            "61a8845f8ab33a6d5b12f0660044bb7ea4917b73b926bd6fdcd35787eb08957f"
        )

    def test_lp_keys_of_cold_simplex_retired(self):
        """``lp`` 2 moves the key the version-1 (cold simplex) answers had."""
        assert fingerprint_solve(tandem(), "lp", {"triples": False}) != (
            "f110c0482bb8c39854f5d2382f335f803d868fb6e61fb9c0289a6ab3880c090d"
        )
