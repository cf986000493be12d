"""Matrix-geometric methods for quasi-birth-death (QBD) processes.

The paper situates its contribution against the matrix-analytic state of
the art: "only small autocorrelated models based on one or two queues have
been considered in the literature, mostly in matrix analytic methods
research".  This subpackage provides that classical layer — the
matrix-geometric solution of level-independent QBDs (Neuts' R-matrix,
computed by logarithmic reduction with a mean-drift stability precheck)
and the MAP/M/1 and MAP/MAP/1 queues built on it — both as a substrate in
its own right and, via :mod:`repro.qbd.opennet`, lifted to whole open MAP
networks by station-wise decomposition.
"""

from repro.qbd.solver import (
    NEAR_INSTABILITY_EPS,
    QbdSolution,
    solve_qbd,
    solve_r_matrix,
)
from repro.qbd.mapmap1 import MapMap1Queue
from repro.qbd.opennet import (
    OpenNetworkResult,
    OpenStationResult,
    solve_open_network,
)

__all__ = [
    "NEAR_INSTABILITY_EPS",
    "solve_r_matrix",
    "QbdSolution",
    "solve_qbd",
    "MapMap1Queue",
    "OpenNetworkResult",
    "OpenStationResult",
    "solve_open_network",
]
