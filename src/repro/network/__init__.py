"""MAP queueing networks: unified model definition and exact analysis.

:class:`Network` subsumes closed, open, and mixed networks via population
descriptors (:class:`Closed`, :class:`OpenArrivals`, :class:`Mixed`).
"""

from repro.network.stations import Station, queue, delay, multiserver
from repro.network.population import Closed, OpenArrivals, Mixed
from repro.network.routing import (
    validate_routing,
    validate_open_routing,
    visit_ratios,
    open_visit_ratios,
    routing_graph,
)
from repro.network.model import Network, require_closed
from repro.network.statespace import NetworkStateSpace, PhaseLayout, StateSpaceCache
from repro.network.exact import ExactSolution, build_generator, solve_exact
from repro.network.kron import kronecker_generator

__all__ = [
    "Station",
    "queue",
    "delay",
    "multiserver",
    "Closed",
    "OpenArrivals",
    "Mixed",
    "validate_routing",
    "validate_open_routing",
    "visit_ratios",
    "open_visit_ratios",
    "routing_graph",
    "Network",
    "require_closed",
    "NetworkStateSpace",
    "PhaseLayout",
    "StateSpaceCache",
    "ExactSolution",
    "build_generator",
    "kronecker_generator",
    "solve_exact",
]
