"""CLI smoke tests: `python -m repro.experiments.<name>` entry points.

Only the fastest driver is executed end-to-end as a subprocess; the others
are checked for a wired-up ``main`` (their heavy lifting is covered by the
driver tests and the benchmark suite).
"""

import subprocess
import sys

import pytest

from repro.experiments import ablation, fig1, fig3, fig4, fig8, scaling, table1


@pytest.mark.parametrize(
    "module", [fig1, fig3, fig4, fig8, table1, scaling, ablation]
)
def test_driver_exposes_main(module):
    assert callable(module.main)
    assert callable(module.run)


def test_fig4_cli_runs():
    """fig4 is pure fast linear algebra — run the real CLI end to end."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.fig4"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Figure 4" in proc.stdout
    assert "U1.decomp" in proc.stdout


def test_bounds_station_summary_renders():
    import numpy as np

    from repro.core import solve_bounds
    from repro.maps import exponential, fit_map2
    from repro.network import Network, queue

    net = Network(
        [queue("a", fit_map2(1.0, 4.0, 0.3)), queue("b", exponential(1.5))],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        4,
    )
    res = solve_bounds(net)
    table = res.station_summary()
    assert "station" in table and "U.lo" in table
    assert "a" in table and "b" in table
