"""Tests for the declarative spec format (dict/YAML <-> network)."""

import numpy as np
import pytest

from repro.maps.builders import erlang, exponential, mmpp2
from repro.runtime.fingerprint import fingerprint_network
from repro.scenarios import (
    dump_spec,
    load_spec,
    network_from_spec,
    network_to_spec,
    service_from_spec,
    service_to_spec,
)
from repro.utils.errors import ValidationError

TANDEM_SPEC = {
    "population": 5,
    "stations": [
        {"name": "a", "kind": "queue",
         "service": {"dist": "exponential", "mean": 1.0}},
        {"name": "b", "kind": "queue",
         "service": {"dist": "exponential", "rate": 2.0}},
    ],
    "routing": {"a": {"b": 1.0}, "b": {"a": 1.0}},
}


class TestServiceSpecs:
    def test_exponential_mean_and_rate(self):
        assert service_from_spec({"dist": "exponential", "mean": 0.25}).rate == (
            pytest.approx(4.0)
        )
        assert service_from_spec({"dist": "exponential", "rate": 4.0}).mean == (
            pytest.approx(0.25)
        )

    def test_erlang(self):
        m = service_from_spec({"dist": "erlang", "k": 4, "mean": 2.0})
        assert m.order == 4
        assert m.mean == pytest.approx(2.0)
        assert m.scv == pytest.approx(0.25, rel=1e-6)

    def test_hyperexp_from_moments_and_explicit(self):
        m = service_from_spec({"dist": "hyperexp", "mean": 1.0, "scv": 4.0})
        assert m.mean == pytest.approx(1.0, rel=1e-6)
        assert m.scv == pytest.approx(4.0, rel=1e-6)
        m2 = service_from_spec(
            {"dist": "hyperexp", "p": [0.3, 0.7], "rates": [1.0, 5.0]}
        )
        assert m2.order == 2

    def test_map2_hits_targets(self):
        m = service_from_spec(
            {"dist": "map2", "mean": 2.0, "scv": 16.0, "gamma2": 0.5}
        )
        assert m.mean == pytest.approx(2.0, rel=1e-6)
        assert m.scv == pytest.approx(16.0, rel=1e-5)
        assert m.gamma2 == pytest.approx(0.5, abs=1e-6)

    def test_mmpp2_and_explicit_map(self):
        ref = mmpp2(0.1, 0.2, 2.0, 0.5)
        via = service_from_spec(
            {"dist": "mmpp2", "r1": 0.1, "r2": 0.2, "lam1": 2.0, "lam2": 0.5}
        )
        assert via == ref
        explicit = service_from_spec(service_to_spec(ref))
        assert explicit == ref

    def test_map_instance_passthrough(self):
        m = exponential(3.0)
        assert service_from_spec(m) is m

    def test_renewal_spec(self):
        m = service_from_spec({"dist": "renewal", "mean": 1.0, "scv": 0.5})
        assert m.mean == pytest.approx(1.0, rel=1e-6)
        assert m.scv == pytest.approx(0.5, rel=1e-4)

    @pytest.mark.parametrize("mean", [0, -1])
    @pytest.mark.parametrize(
        "spec",
        [
            {"dist": "exponential"},
            {"dist": "erlang", "k": 3},
            {"dist": "hyperexp", "scv": 4.0},
            {"dist": "renewal", "scv": 0.5},
            {"dist": "map2", "scv": 16.0, "gamma2": 0.5},
        ],
        ids=lambda spec: spec["dist"],
    )
    def test_non_positive_mean_rejected(self, spec, mean):
        """A zero mean is a ValidationError, never a ZeroDivisionError."""
        with pytest.raises(ValidationError, match="mean must be positive"):
            service_from_spec({**spec, "mean": mean})

    def test_unknown_dist_rejected(self):
        with pytest.raises(ValidationError, match="unknown service dist"):
            service_from_spec({"dist": "zipf", "mean": 1.0})

    def test_missing_key_names_context(self):
        with pytest.raises(ValidationError, match="mean"):
            service_from_spec({"dist": "exponential"})

    def test_service_to_spec_renders_exponential_compactly(self):
        spec = service_to_spec(exponential(2.0))
        assert spec == {"dist": "exponential", "rate": 2.0}
        spec2 = service_to_spec(erlang(3, 1.0))
        assert spec2["dist"] == "map"


class TestNetworkSpecs:
    def test_compile_tandem(self):
        net = network_from_spec(TANDEM_SPEC)
        assert net.population == 5
        assert net.n_stations == 2
        assert np.allclose(net.routing, [[0.0, 1.0], [1.0, 0.0]])

    def test_routing_matrix_form_accepted(self):
        spec = dict(TANDEM_SPEC, routing=[[0.0, 1.0], [1.0, 0.0]])
        net = network_from_spec(spec)
        assert np.allclose(net.routing, [[0.0, 1.0], [1.0, 0.0]])

    def test_extra_document_keys_ignored(self):
        spec = dict(TANDEM_SPEC, name="doc", description="prose")
        assert network_from_spec(spec).n_stations == 2

    def test_unknown_routing_names_rejected(self):
        spec = dict(TANDEM_SPEC, routing={"a": {"nope": 1.0}, "b": {"a": 1.0}})
        with pytest.raises(ValidationError, match="nope"):
            network_from_spec(spec)
        spec = dict(TANDEM_SPEC, routing={"ghost": {"a": 1.0}})
        with pytest.raises(ValidationError, match="ghost"):
            network_from_spec(spec)

    def test_round_trip_preserves_fingerprint(self):
        net = network_from_spec(TANDEM_SPEC)
        net2 = network_from_spec(network_to_spec(net))
        assert fingerprint_network(net) == fingerprint_network(net2)

    def test_multiserver_round_trip(self):
        spec = {
            "population": 3,
            "stations": [
                {"name": "cpu", "kind": "queue",
                 "service": {"dist": "exponential", "mean": 1.0}},
                {"name": "bank", "kind": "multiserver", "servers": 4,
                 "service": {"dist": "exponential", "mean": 2.0}},
            ],
            "routing": {"cpu": {"bank": 1.0}, "bank": {"cpu": 1.0}},
        }
        net = network_from_spec(spec)
        assert net.stations[1].servers == 4
        rendered = network_to_spec(net)
        assert rendered["stations"][1]["servers"] == 4
        assert fingerprint_network(network_from_spec(rendered)) == (
            fingerprint_network(net)
        )


class TestYaml:
    def test_yaml_round_trip_preserves_fingerprint(self):
        net = network_from_spec(TANDEM_SPEC)
        text = dump_spec(network_to_spec(net, name="tandem"))
        doc = load_spec(text)
        assert doc["name"] == "tandem"
        assert fingerprint_network(network_from_spec(doc)) == (
            fingerprint_network(net)
        )

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "net.yaml"
        path.write_text(dump_spec(TANDEM_SPEC), encoding="utf-8")
        net = network_from_spec(load_spec(str(path)))
        assert net.population == 5

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ValidationError, match="mapping"):
            load_spec("- just\n- a list\n")

    def test_missing_spec_file_named_in_error(self):
        with pytest.raises(ValidationError, match="not found.*mymodle.yaml"):
            load_spec("/tmp/definitely/mymodle.yaml")
        with pytest.raises(ValidationError, match="not found"):
            load_spec("no-such-dir/net.yml")
