"""Benchmark harness configuration.

Every benchmark regenerates one paper artifact (table/figure) at a
seconds-scale preset and asserts the *shape* claims of the paper — who
wins, by roughly what factor, where the crossovers fall.  Full-fidelity
presets are available through each experiment's ``paper()`` config and the
``python -m repro.experiments.<name>`` CLIs.

Benchmarks that keep an acceptance record additionally record structured
entries through the session-scoped ``perf_report`` fixture, which writes
``BENCH_lp_scaling.json`` at session end (see ``bench_reporting.py``).
A reporter failure raises at teardown — the CI bench job fails on reporter
errors, never on timing noise.
"""

import os

import pytest

from bench_reporting import PerfReporter


@pytest.fixture()
def once(benchmark):
    """Run the benched callable exactly once (kernels take seconds)."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


def _reporter_session(benchmark: str, env_var: str):
    """One opt-in reporter lifecycle, shared by every perf-report fixture.

    The artifact is only written at teardown on explicit opt-in —
    ``REPRO_BENCH_PRESET`` or the benchmark's own path env var set, as
    ``make bench``/``bench-large``/``bench-transient`` and the CI bench
    job do.  A plain ``pytest`` run (which collects benchmarks via the
    tier-1 testpaths) must not overwrite a committed large-preset
    baseline with local quick-preset timings.
    """
    from bench_reporting import default_report_path

    reporter = PerfReporter(
        path=default_report_path(benchmark, env_var), benchmark=benchmark
    )
    yield reporter
    opted_in = "REPRO_BENCH_PRESET" in os.environ or env_var in os.environ
    if reporter.entries and opted_in:
        reporter.write()


@pytest.fixture(scope="session")
def perf_report():
    """Session-wide JSON perf reporter for the LP benchmark.

    Writes ``BENCH_lp_scaling.json`` (override with ``REPRO_BENCH_JSON``)
    under the opt-in rule of :func:`_reporter_session`.
    """
    yield from _reporter_session("lp_scaling", "REPRO_BENCH_JSON")


@pytest.fixture(scope="session")
def transient_perf_report():
    """The transient subsystem's twin of ``perf_report``.

    Writes ``BENCH_transient.json`` (override with
    ``REPRO_BENCH_TRANSIENT_JSON``), so the multi-time-point reuse
    record is a reviewable artifact alongside the LP one.
    """
    yield from _reporter_session("transient", "REPRO_BENCH_TRANSIENT_JSON")


@pytest.fixture(scope="session")
def fluid_perf_report():
    """Reporter for the phase-aware fluid tier.

    Writes ``BENCH_fluid.json`` (override with ``REPRO_BENCH_FLUID_JSON``):
    the million-user seconds-scale solve record, the small-N exactness
    margin, and the doubling-population convergence trajectory live here.
    """
    yield from _reporter_session("fluid", "REPRO_BENCH_FLUID_JSON")


@pytest.fixture(scope="session")
def kron_perf_report():
    """Reporter for the matrix-free Kronecker backend family.

    Writes ``BENCH_kron.json`` (override with ``REPRO_BENCH_KRON_JSON``):
    the operator-vs-materialized memory win and the past-the-wall
    exact/transient solve record live here.
    """
    yield from _reporter_session("kron", "REPRO_BENCH_KRON_JSON")
