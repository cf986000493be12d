"""The ``python -m repro.scenarios validate`` subcommand."""

import json

import pytest

from repro.scenarios.cli import main

OPEN_YAML = """\
kind: open
arrivals: {dist: map2, mean: 1.0, scv: 16.0, gamma2: 0.5}
stations:
  - {name: q1, service: {dist: exponential, mean: 0.7}}
  - {name: q2, service: {dist: exponential, mean: 0.6}}
routing:
  source: {q1: 1.0}
  q1: {q2: 1.0}
  q2: {sink: 1.0}
"""

CLOSED_YAML = """\
population: 10
stations:
  - {name: a, service: {dist: exponential, mean: 1.0}}
  - {name: b, service: {dist: exponential, mean: 0.5}}
routing:
  a: {b: 1.0}
  b: {a: 1.0}
"""

UNSTABLE_YAML = """\
kind: open
arrivals: {dist: exponential, rate: 3.0}
stations:
  - {name: q1, service: {dist: exponential, mean: 0.7}}
routing:
  source: {q1: 1.0}
  q1: {sink: 1.0}
"""


def _write(tmp_path, text, name="spec.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestValidate:
    def test_valid_open_spec_reports_utilizations(self, tmp_path, capsys):
        assert main(["validate", _write(tmp_path, OPEN_YAML)]) == 0
        out = capsys.readouterr().out
        assert "VALID open spec" in out
        assert "rho_k" in out
        assert "0.7" in out and "0.6" in out
        assert "stable" in out

    def test_valid_closed_spec_reports_demands(self, tmp_path, capsys):
        assert main(["validate", _write(tmp_path, CLOSED_YAML)]) == 0
        out = capsys.readouterr().out
        assert "VALID closed spec" in out
        assert "bottleneck" in out

    def test_bottleneck_flag_ignores_delay_demand(self, tmp_path, capsys):
        """Think-time demand can dominate numerically but never saturates
        a server; the queueing bottleneck must still be flagged."""
        spec = """\
population: 10
stations:
  - {name: clients, kind: delay, service: {dist: exponential, mean: 7.0}}
  - {name: front, service: {dist: exponential, mean: 0.02}}
routing:
  clients: {front: 1.0}
  front: {clients: 1.0}
"""
        assert main(["validate", _write(tmp_path, spec)]) == 0
        out = capsys.readouterr().out
        front_row = next(ln for ln in out.splitlines() if "front" in ln)
        assert "bottleneck" in front_row

    def test_unstable_spec_fails_with_station_named(self, tmp_path, capsys):
        assert main(["validate", _write(tmp_path, UNSTABLE_YAML)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err
        assert "q1" in err
        assert "rho" in err

    def test_malformed_spec_fails_cleanly(self, tmp_path, capsys):
        bad = OPEN_YAML.replace("q1: {q2: 1.0}", "q1: {q2: 0.5}")
        assert main(["validate", _write(tmp_path, bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_zero_mean_fails_as_a_validation_error(self, tmp_path, capsys):
        path = _write(tmp_path, CLOSED_YAML.replace("mean: 0.5", "mean: 0"))
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err and "mean must be positive" in err
        assert main(["validate", "--json", path]) == 1
        assert json.loads(capsys.readouterr().out)["error_type"] == "ValidationError"

    def test_inline_yaml_accepted(self, capsys):
        assert main(["validate", CLOSED_YAML]) == 0
        assert "VALID closed spec" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["validate", "does/not/exist.yaml"]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_yaml_syntax_error_fails_cleanly(self, tmp_path, capsys):
        """A broken YAML document is a lint failure, never a traceback."""
        assert main(["validate", _write(tmp_path, "stations: [unclosed")]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_solve_open_scenario_with_closed_method_exits_cleanly(self):
        import pytest

        with pytest.raises(SystemExit, match="supports closed"):
            main(["solve", "open-bursty-tandem"])  # default method is lp

    def test_near_saturation_is_flagged(self, tmp_path, capsys):
        hot = OPEN_YAML.replace("rate: 3.0", "rate: 1.0").replace(
            "mean: 0.7", "mean: 0.97"
        )
        assert main(["validate", _write(tmp_path, hot)]) == 0
        assert "NEAR SATURATION" in capsys.readouterr().out


class TestValidateJson:
    """--json: the machine-readable lint + rho report for CI scripts."""

    def _report(self, capsys):
        import json

        return json.loads(capsys.readouterr().out)

    def test_open_spec_reports_rho_per_station(self, tmp_path, capsys):
        assert main(["validate", "--json", _write(tmp_path, OPEN_YAML)]) == 0
        doc = self._report(capsys)
        assert doc["valid"] is True
        assert doc["kind"] == "open"
        by_name = {row["name"]: row for row in doc["stations"]}
        assert by_name["q1"]["rho_k"] == pytest.approx(0.7)
        assert by_name["q2"]["rho_k"] == pytest.approx(0.6)
        assert by_name["q1"]["lambda_k"] == pytest.approx(1.0)
        assert by_name["q1"]["stability"] == "stable"
        assert doc["arrival_rate"] == pytest.approx(1.0)

    def test_closed_spec_reports_bottleneck(self, tmp_path, capsys):
        assert main(["validate", "--json", _write(tmp_path, CLOSED_YAML)]) == 0
        doc = self._report(capsys)
        assert doc["valid"] is True and doc["kind"] == "closed"
        assert doc["population"] == 10
        flags = {row["name"]: row["bottleneck"] for row in doc["stations"]}
        assert flags == {"a": True, "b": False}

    def test_invalid_spec_is_json_on_stdout(self, tmp_path, capsys):
        assert main(["validate", "--json", _write(tmp_path, UNSTABLE_YAML)]) == 1
        doc = self._report(capsys)
        assert doc["valid"] is False
        assert "rho" in doc["error"]
        assert doc["error_type"]

    def test_yaml_syntax_error_is_json_too(self, tmp_path, capsys):
        assert main(
            ["validate", "--json", _write(tmp_path, "stations: [broken")]
        ) == 1
        doc = self._report(capsys)
        assert doc["valid"] is False

    def test_near_saturation_verdict(self, tmp_path, capsys):
        hot = OPEN_YAML.replace("rate: 3.0", "rate: 1.0").replace(
            "mean: 0.7", "mean: 0.97"
        )
        assert main(["validate", "--json", _write(tmp_path, hot)]) == 0
        doc = self._report(capsys)
        q1 = next(r for r in doc["stations"] if r["name"] == "q1")
        assert q1["stability"] == "near-saturation"
