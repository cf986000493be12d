"""Open MAP network analysis by station-wise QBD decomposition.

This lifts the repository's single-queue matrix-analytic solver
(:class:`~repro.qbd.mapmap1.MapMap1Queue`) to whole open networks.
Per-station arrival rates come exactly from the traffic equations; the
arrival *process* each station sees is approximated from the external MAP:

* ``v_k = 1`` — the station receives the external stream whole (e.g. the
  first queue of a tandem): the arrival MAP is exact.
* ``v_k < 1`` — the station receives a Bernoulli-split share of the
  stream: the external MAP is *thinned* to rate ``lambda v_k``
  (:func:`repro.maps.operations.thin`), which is exact for a split of the
  external flow and a standard decomposition approximation after internal
  hops (departures are not MAP-representable in general).
* ``v_k > 1`` — feedback superposes differently-correlated flows; the
  decomposition falls back to Poisson arrivals at rate ``lambda v_k``
  (the renewal approximation classical decomposition methods make).

Each station then solves its own QBD: MAP/MAP/1 with the station's
service MAP (phase frozen while idle, the network convention; MAP/M/1 when
that MAP is exponential), M/G/infinity for delay stations.  Throughputs
are exact (traffic equations); utilizations are exact (``rho_k``); queue
lengths and response times inherit the decomposition approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.maps.builders import exponential
from repro.maps.operations import thin
from repro.network.model import Network
from repro.qbd.mapmap1 import MapMap1Queue
from repro.utils.errors import UnsupportedNetworkError

__all__ = ["OpenStationResult", "OpenNetworkResult", "solve_open_network"]

#: Tolerance for treating a visit ratio as exactly 1 (unsplit stream).
_V_ONE_TOL = 1e-9


@dataclass(frozen=True)
class OpenStationResult:
    """Decomposed metrics of one station of an open network."""

    name: str
    arrival_rate: float
    utilization: float
    mean_queue_length: float
    mean_response_time: float
    #: How the station's arrival process was modeled: "exact" (direct
    #: entry station fed the whole external stream), "map" (downstream
    #: v = 1 station — external MAP reused as an approximation of the
    #: upstream departures), "thinned" (Bernoulli-split share, v < 1),
    #: "poisson" (feedback fallback, v > 1), "delay" (M/G/inf station),
    #: or "unvisited" (no open traffic).
    arrival_model: str


@dataclass(frozen=True)
class OpenNetworkResult:
    """Station-wise decomposition solution of an open MAP network."""

    network: Network
    stations: tuple[OpenStationResult, ...]

    @property
    def system_throughput(self) -> float:
        """Steady-state flow through the system (= external arrival rate)."""
        return float(self.network.arrivals.rate)

    @property
    def mean_jobs_in_system(self) -> float:
        """Total mean job count across stations."""
        return float(sum(s.mean_queue_length for s in self.stations))

    @property
    def mean_response_time(self) -> float:
        """System response time by Little's law, ``E[N] / lambda``."""
        return self.mean_jobs_in_system / self.system_throughput


def _station_arrivals(network: Network, k: int):
    """Arrival MAP approximation for station ``k`` (see module docstring).

    ``"exact"`` is claimed only for a station that receives the whole
    external stream *directly* (entry probability 1 and no internal
    inflow) — a downstream station with visit ratio 1 sees the upstream
    *departure* process, which the decomposition models with the external
    MAP as an approximation (``"map"``).
    """
    v = float(network.open_visits[k])
    lam_k = float(network.arrival_rates[k])
    ext = network.arrivals
    P_open = network.open_routing_matrix
    if abs(v - 1.0) <= _V_ONE_TOL:
        direct = abs(float(network.entry[k]) - 1.0) <= _V_ONE_TOL
        no_internal_inflow = float(P_open[:, k].sum()) <= _V_ONE_TOL
        return ext, ("exact" if direct and no_internal_inflow else "map")
    if v < 1.0:
        return thin(ext, v), "thinned"
    return exponential(lam_k), "poisson"


def solve_open_network(network: Network) -> OpenNetworkResult:
    """Solve an open MAP network by station-wise QBD decomposition.

    Stations operating within :data:`~repro.qbd.solver.NEAR_INSTABILITY_EPS`
    of saturation emit a
    :class:`~repro.utils.errors.NearInstabilityWarning` naming them (the
    per-station ``label`` threads through the QBD layer).

    Parameters
    ----------
    network:
        An **open** :class:`~repro.network.model.Network` (mixed networks
        interleave closed jobs at the same servers, which this
        decomposition cannot see — use the simulator).

    Returns
    -------
    OpenNetworkResult
        Per-station and system metrics.

    Raises
    ------
    UnsupportedNetworkError
        For non-open networks or multiserver stations (no MAP/M/c solver
        is available).
    """
    if network.kind != "open":
        raise UnsupportedNetworkError(
            "qbd open decomposition", network.kind, supported="open"
        )
    results = []
    for k, st in enumerate(network.stations):
        lam_k = float(network.arrival_rates[k])
        if lam_k <= 0.0:
            results.append(OpenStationResult(
                name=st.name, arrival_rate=0.0, utilization=0.0,
                mean_queue_length=0.0, mean_response_time=0.0,
                arrival_model="unvisited",
            ))
            continue
        if st.kind == "delay":
            # M/G/infinity: E[N] = lambda E[S], no queueing delay.
            results.append(OpenStationResult(
                name=st.name,
                arrival_rate=lam_k,
                utilization=0.0,
                mean_queue_length=lam_k * st.mean_service_time,
                mean_response_time=st.mean_service_time,
                arrival_model="delay",
            ))
            continue
        if st.kind == "multiserver":
            raise UnsupportedNetworkError(
                "qbd open decomposition (multiserver station "
                f"{st.name!r})", "open", supported="single-server open",
            )
        arr, model = _station_arrivals(network, k)
        q = MapMap1Queue(arr, st.service, label=f"station {st.name!r}")
        results.append(OpenStationResult(
            name=st.name,
            arrival_rate=lam_k,
            utilization=float(q.utilization),
            mean_queue_length=float(q.mean_queue_length),
            mean_response_time=float(q.mean_response_time),
            arrival_model=model,
        ))
    return OpenNetworkResult(network=network, stations=tuple(results))
