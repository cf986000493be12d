"""Discrete-event simulation engine for MAP queueing networks.

The simulator plays the role of the paper's *measurement testbed*: it
implements exactly the semantics of the analytic model (FCFS stations, MAP
service with phase frozen while idle, probabilistic routing) so that the
exact solver, the LP bounds, and "measurements" can be compared on equal
footing, plus it scales to populations where the CTMC is prohibitive.

All three network kinds simulate through the same event loop:

* **closed** — ``N`` jobs circulate forever (the pre-redesign behavior);
* **open** — an external MAP arrival stream injects jobs at the entry
  distribution; routing rows are substochastic and the deficit routes a
  job out of the system (the sink);
* **mixed** — both at once; closed jobs route by ``network.routing`` and
  open jobs by ``network.open_routing`` (job identity decides the class).

Design: a binary-heap event calendar holds one service-completion event per
busy server plus, for open chains, the single pending external-arrival
event.  Statistics (busy-time/queue-length integrals, completion counts,
per-visit response times) are accumulated per station as running sums of
event epochs and restarted once at the warmup boundary.

The loop runs on Python-native state, because numpy scalars cost more per
event than the work they carry: station counters and integrals are plain
``int``/``float`` attributes, FCFS queues are ``deque`` objects, and the
arrival, service-start and integral updates are written inline.  Arrays
appear only in the returned :class:`SimResult`.

Random variates follow **stream version 2**.  The run's generator spawns
one child stream per station (:func:`repro.utils.rng.spawn`) and, for open
chains, one more for the external arrivals.  A station's phase is frozen
while it is idle, so the intervals of its successive services form one MAP
interval sequence whatever the rest of the network does.  Each station
therefore draws them ahead of the loop, in blocks that grow from
``_FIRST_BLOCK`` to ``_MAX_BLOCK`` values
(:meth:`~repro.maps.trace.MapSampler.sample_block`), together with one
routing destination per service; the arrival stream draws interarrival
intervals and entry stations the same way.  The loop only reads the next
pre-drawn tuple.  A seeded run is reproducible bit for bit
(``tests/sim/test_golden.py``); a change to the draws must bump the ``sim``
entry of :data:`repro.runtime.fingerprint.ALGORITHM_VERSION`, so that
cached answers of the previous stream are not served.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.maps.trace import MapSampler
from repro.network.model import Network
from repro.sim.taps import FlowTap, QueueTap
from repro.utils.rng import as_rng, spawn

__all__ = ["SimResult", "simulate"]

#: Calendar sources that are not a station: an external arrival, and a
#: closed job's initial placement.
_ARRIVAL = -1
_PLACE = -2


@dataclass
class SimResult:
    """Steady-state estimates from one simulation run.

    All quantities are measured after the warmup boundary.  Open-chain
    extras (``sink_departures``, ``external_arrivals``) stay zero for
    closed networks.
    """

    network: Network
    duration: float
    completions: np.ndarray
    utilization: np.ndarray
    throughput: np.ndarray
    mean_queue_length: np.ndarray
    response_mean: np.ndarray
    response_samples: "list[np.ndarray]"
    taps: "list[FlowTap]" = field(default_factory=list)
    sink_departures: int = 0
    external_arrivals: int = 0
    #: Per-station mean count of *open-chain* jobs (None for closed runs;
    #: equals mean_queue_length for pure open runs).
    mean_queue_length_open: "np.ndarray | None" = None
    #: Per-station completion counts of *open-chain* jobs (None for closed
    #: runs); closed-chain completions are ``completions - completions_open``.
    completions_open: "np.ndarray | None" = None
    #: Total calendar events processed (arrivals + completions, including
    #: warmup) — the denominator of the event-loop rate.
    n_events: int = 0

    def system_throughput(self, reference: int = 0) -> float:
        """System-level flow rate of the *primary* chain.

        Closed networks report completions per unit time at the reference
        station (the paper's convention); mixed networks count only the
        closed chain's completions there, so open-chain traffic through
        the reference station never inflates the closed cycle rate.  A
        pure open network reports the sink departure rate, which equals
        the external arrival rate in steady state.
        """
        if self.network.kind == "open":
            return float(self.sink_departures) / self.duration
        if self.network.kind == "mixed":
            closed_completions = (
                self.completions[reference] - self.completions_open[reference]
            )
            return float(closed_completions) / self.duration
        return float(self.throughput[reference])

    def response_time(self, reference: int = 0) -> float:
        """Mean time in system per job of the *primary* chain.

        Closed and mixed: Little's-law response time of the closed chain,
        ``N / X_ref`` with ``X_ref`` the closed chain's own completion
        rate (for mixed networks the open class has its own metric,
        :meth:`open_response_time`, since the two chains have different
        flows).  Open: Little's law on the measured totals,
        ``E[jobs in system] / X``.  ``nan`` when the relevant flow saw no
        completions (horizon too short).
        """
        if self.network.kind != "open":
            x = self.system_throughput(reference)
            if x <= 0.0:
                return float("nan")
            return self.network.population / x
        x = self.system_throughput(reference)
        if x <= 0.0:
            return float("nan")
        return float(self.mean_queue_length.sum()) / x

    def open_response_time(self) -> float:
        """Open-chain time in system, ``E[open jobs] / sink rate`` (Little).

        Defined for open and mixed runs; for pure open runs this equals
        :meth:`response_time`.  Returns ``nan`` when the run observed no
        sink departures (a too-short horizon relative to the arrival
        rate), never a division error.
        """
        if self.mean_queue_length_open is None:
            raise ValueError("closed simulation has no open chain")
        if self.sink_departures <= 0:
            return float("nan")
        sink_rate = self.sink_departures / self.duration
        return float(self.mean_queue_length_open.sum()) / sink_rate


#: Geometric block growth: a short run draws little ahead, a long one
#: amortizes each generator call over thousands of values.
_FIRST_BLOCK = 16
_MAX_BLOCK = 4096


def _blocks(sampler: MapSampler, phase, gen: np.random.Generator, rows):
    """Endless ``(interval, destination, ...)`` tuples drawn in blocks.

    Each block draws ``n`` consecutive intervals from ``sampler`` (from
    ``phase``, or an embedded-stationary phase drawn from ``gen`` when
    ``None``), then ``n`` uniforms that pick one destination per
    cumulative row in ``rows``.  Everything comes from ``gen`` in a fixed
    order, so the tuples depend on that stream alone.
    """
    if phase is None:
        phase = 0 if sampler.order == 1 else sampler.initial_phase(gen)
    n = _FIRST_BLOCK
    while True:
        intervals, phase = sampler.sample_block(n, phase, gen)
        u = gen.random(n)
        yield from zip(
            intervals, *(np.searchsorted(row, u, side="right").tolist() for row in rows)
        )
        n = min(2 * n, _MAX_BLOCK)


class _StationSim:
    """Runtime state and post-warmup statistics of one station.

    The integrals are running sums of event epochs: an arrival subtracts
    ``now`` from ``qlen_int`` and a departure adds it, so between events
    ``qlen_int + n * now`` is the area under the queue length.  The same
    holds for ``qlen_open_int`` (open-chain jobs) and for ``busy_int``
    (the station turning busy or idle).
    """

    __slots__ = (
        "servers",
        "service",
        "waiting",
        "n",
        "n_open",
        "busy_int",
        "qlen_int",
        "qlen_open_int",
        "completions",
        "completions_open",
        "resp",
        "arr_taps",
        "dep_taps",
        "q_taps",
        "tapped",
    )

    def __init__(self, station, service) -> None:
        self.servers = station.servers if station.kind == "multiserver" else (
            math.inf if station.kind == "delay" else 1
        )
        self.service = service
        self.n = 0
        self.n_open = 0
        self.waiting: deque[int] = deque()  # FCFS order of jobs not yet in service
        self.arr_taps: list[FlowTap] = []
        self.dep_taps: list[FlowTap] = []
        self.q_taps: list[QueueTap] = []
        self.tapped = False
        self.reset_statistics(0.0)

    def reset_statistics(self, now: float) -> None:
        """Restart the integrals and counts at ``now`` (the warmup boundary)."""
        self.qlen_int = -self.n * now
        self.qlen_open_int = -self.n_open * now
        self.busy_int = -now if self.n else 0.0
        self.completions = 0
        self.completions_open = 0
        self.resp: list[float] = []

    def close_statistics(self, now: float) -> None:
        """Integrate the jobs still present up to the stop time ``now``."""
        self.qlen_int += self.n * now
        self.qlen_open_int += self.n_open * now
        if self.n:
            self.busy_int += now


def _routing_cum(P: np.ndarray, open_chain: bool) -> np.ndarray:
    """Cumulative routing rows; open rows gain a terminal sink column.

    Closed rows are forced to end at 1 over the last *station* (guarding
    against float drift); open rows end at 1 over the appended sink column,
    so a uniform draw beyond the internal mass routes the job out.
    """
    if open_chain:
        P = np.hstack([P, np.zeros((P.shape[0], 1))])
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    return cum


def simulate(
    network: Network,
    horizon_events: int = 200_000,
    warmup_events: int = 20_000,
    rng=None,
    taps: "list[FlowTap | QueueTap] | None" = None,
    initial_station: int = 0,
    horizon_time: "float | None" = None,
    initial_populations=None,
    initial_phases=None,
) -> SimResult:
    """Simulate the network for a fixed number of service completions.

    When telemetry is enabled (:mod:`repro.obs`) the run executes under a
    ``sim.run`` span recording processed-event / external-arrival /
    sink-departure counters and the achieved event-loop rate.

    Parameters
    ----------
    network:
        The model to simulate (closed, open, or mixed).
    horizon_events:
        Total service completions to simulate (including warmup).
    warmup_events:
        Completions discarded before statistics (and taps) start.
    rng:
        Seed / generator for reproducibility.
    taps:
        Optional :class:`FlowTap`/:class:`QueueTap` list recording flow
        event epochs / queue-length changes.
    initial_station:
        Station where closed jobs start (queued); the default places them
        at station 0, matching the closed-network convention.  Open chains
        start empty and are driven by the arrival process.
    horizon_time:
        Optional wall-clock stop: the run ends before processing any event
        at or beyond this time (statistics integrate exactly up to it).
        Transient measurements pair this with ``warmup_events=0`` so paths
        cover one fixed window ``[0, horizon_time]``.
    initial_populations:
        Optional per-station initial job counts for the closed chain
        (overrides ``initial_station``); must sum to the population.
        Transient cross-checks use this to replay analytically specified
        start states.
    initial_phases:
        Optional per-station initial service phases (default: each MAP's
        embedded-stationary draw).

    Raises
    ------
    ValueError
        When ``warmup_events >= horizon_events`` without a
        ``horizon_time``: statistics would never start.
    RuntimeError
        When the run ends before the warmup boundary (a ``horizon_time``
        that arrives first) or with zero measured duration.
    """
    if horizon_time is None and warmup_events >= horizon_events:
        raise ValueError(
            f"warmup_events ({warmup_events}) must be below horizon_events "
            f"({horizon_events}): statistics start after the warmup"
        )
    with obs.get_telemetry().span(
        "sim.run", kind=network.kind, horizon_events=int(horizon_events)
    ) as span:
        t0 = obs.clock()
        result = _simulate(
            network,
            horizon_events=horizon_events,
            warmup_events=warmup_events,
            rng=rng,
            taps=taps,
            initial_station=initial_station,
            horizon_time=horizon_time,
            initial_populations=initial_populations,
            initial_phases=initial_phases,
        )
        elapsed = obs.clock() - t0
        span.count("sim.events", result.n_events)
        span.count("sim.external_arrivals", result.external_arrivals)
        span.count("sim.sink_departures", result.sink_departures)
        if elapsed > 0.0:
            span.set("event_rate_per_s", result.n_events / elapsed)
        return result


def _simulate(
    network: Network,
    horizon_events: int,
    warmup_events: int,
    rng,
    taps,
    initial_station: int,
    horizon_time: "float | None",
    initial_populations,
    initial_phases,
) -> SimResult:
    """Uninstrumented event-loop body of :func:`simulate`."""
    horizon_events = int(horizon_events)
    M = network.n_stations
    kind = network.kind
    N = network.population if kind != "open" else 0
    if initial_phases is not None:
        if len(initial_phases) != M:
            raise ValueError(
                f"initial_phases needs {M} entries, got {len(initial_phases)}"
            )
        for k, phase in enumerate(initial_phases):
            if not 0 <= int(phase) < network.stations[k].phases:
                raise ValueError(
                    f"initial phase {phase} out of range for station {k}"
                )
    if initial_populations is not None:
        pops = [int(n) for n in initial_populations]
        if len(pops) != M or any(n < 0 for n in pops) or sum(pops) != N:
            raise ValueError(
                f"initial_populations must be {M} nonnegative counts "
                f"summing to {N}, got {initial_populations!r}"
            )
        placement = [k for k in range(M) for _ in range(pops[k])]
    else:
        placement = [initial_station] * N

    # Stream version 2 (see the module docstring): one child stream per
    # station, one more for the external arrivals.
    streams = spawn(as_rng(rng), M + 1 if kind != "closed" else M)
    closed_cum = _routing_cum(network.routing, False) if kind != "open" else None
    open_cum = (
        _routing_cum(np.asarray(network.open_routing_matrix), True)
        if kind != "closed"
        else None
    )
    stations = []
    for k, station in enumerate(network.stations):
        # Tuples carry a closed-job and an open-job destination; a
        # single-class network routes both by its one routing matrix.
        rows = [cum[k] for cum in (closed_cum, open_cum) if cum is not None]
        service = _blocks(
            MapSampler(station.service),
            None if initial_phases is None else int(initial_phases[k]),
            streams[k],
            rows * 2 if len(rows) == 1 else rows,
        ).__next__
        stations.append(_StationSim(station, service))
    taps = taps or []
    for tap in taps:
        st = stations[tap.station]
        st.tapped = True
        if tap.direction == "queue":
            st.q_taps.append(tap)
        else:
            (st.arr_taps if tap.direction == "arrival" else st.dep_taps).append(tap)

    # Calendar entries are (time, source, job, destination).  The source is
    # the station whose service completes, _ARRIVAL or _PLACE; the
    # destination (a station, or M for the sink) is drawn when the event is
    # scheduled.  Closed jobs enter as placements at time 0, open jobs as
    # external arrivals with fresh ids above the closed range.
    calendar: list[tuple[float, int, int, int]] = [
        (0.0, _PLACE, job, k0) for job, k0 in enumerate(placement)
    ]
    n_events = -len(calendar)  # placements are not calendar events
    if kind != "closed":
        entry_cum = np.cumsum(np.asarray(network.entry))
        entry_cum[-1] = 1.0
        arrival = _blocks(
            MapSampler(network.arrivals), None, streams[M], [entry_cum]
        ).__next__
        interval, k0 = arrival()
        calendar.append((interval, _ARRIVAL, N, k0))
    next_open_job = N + 1
    heapq.heapify(calendar)

    stat_t0 = 0.0
    sink_departures = 0
    external_arrivals = 0
    collecting = warmup_events == 0
    arrival_time: dict[int, float] = {}  # job -> arrival epoch at its station
    t_stop = math.inf if horizon_time is None else horizon_time
    total_completions = 0
    now = 0.0
    stopped_on_time = False
    heappop, heappush = heapq.heappop, heapq.heappush
    while total_completions < horizon_events:
        if not calendar:
            raise RuntimeError("event calendar ran dry (no busy stations)")
        now, j, job, k = heappop(calendar)
        if now >= t_stop:
            now = t_stop
            stopped_on_time = True
            break
        n_events += 1

        if j >= 0:
            # Service completion at station j.
            st = stations[j]
            n = st.n - 1
            st.n = n
            st.qlen_int += now
            if n == 0:
                st.busy_int += now
            st.completions += 1
            if job >= N:
                st.n_open -= 1
                st.qlen_open_int += now
                st.completions_open += 1
            t_arr = arrival_time.pop(job, None)
            if t_arr is not None:
                st.resp.append(now - t_arr)
            if st.tapped and collecting:
                for tap in st.dep_taps:
                    tap.record(now)
                for tap in st.q_taps:
                    tap.record(now, n)
            if n >= st.servers:
                nxt = st.waiting.popleft()
                interval, dc, do = st.service()
                heappush(calendar, (now + interval, j, nxt, dc if nxt < N else do))
            total_completions += 1
        elif j == _ARRIVAL:
            if collecting:
                external_arrivals += 1
            interval, k0 = arrival()
            heappush(calendar, (now + interval, _ARRIVAL, next_open_job, k0))
            next_open_job += 1

        if k < M:
            # Arrival of the job at station k.
            st = stations[k]
            n = st.n
            if n == 0:
                st.busy_int -= now
            st.n = n + 1
            st.qlen_int -= now
            if job >= N:
                st.n_open += 1
                st.qlen_open_int -= now
            if collecting:
                arrival_time[job] = now
                if st.tapped:
                    for tap in st.arr_taps:
                        tap.record(now)
                    for tap in st.q_taps:
                        tap.record(now, n + 1)
            if n < st.servers:
                interval, dc, do = st.service()
                heappush(calendar, (now + interval, k, job, dc if job < N else do))
            else:
                st.waiting.append(job)
        elif collecting:
            # Open-chain exit to the sink: the job leaves the system.
            sink_departures += 1

        if not collecting and total_completions >= warmup_events:
            # Warmup boundary: reset all statistics, keep the system state.
            collecting = True
            stat_t0 = now
            sink_departures = 0
            external_arrivals = 0
            for st in stations:
                st.reset_statistics(now)
            for tap in taps:
                tap.reset()
            # Re-seed queue taps with the live occupancy: a reset path
            # that restarts at level `initial` would misreport every
            # station as empty until its next queue-length change.
            for st in stations:
                for tap in st.q_taps:
                    tap.record(now, st.n)

    if not collecting:
        raise RuntimeError(
            "simulation horizon too short: warmup boundary never reached"
        )
    # Integrate statistics up to the exact stop time (the time horizon
    # when it fired first, else the last processed event).
    for st in stations:
        st.close_statistics(now)
    duration = now - stat_t0
    if duration <= 0.0:
        raise RuntimeError("simulation horizon too short: zero measured duration")

    def per_station(attr: str, dtype=float) -> np.ndarray:
        return np.array([getattr(st, attr) for st in stations], dtype=dtype)

    completions = per_station("completions", np.int64)
    response_samples = [np.asarray(st.resp) for st in stations]
    response_mean = np.array(
        [float(r.mean()) if r.size else np.nan for r in response_samples]
    )
    return SimResult(
        network=network,
        duration=duration,
        completions=completions,
        utilization=per_station("busy_int") / duration,
        throughput=completions / duration,
        mean_queue_length=per_station("qlen_int") / duration,
        response_mean=response_mean,
        response_samples=response_samples,
        taps=taps,
        sink_departures=sink_departures,
        external_arrivals=external_arrivals,
        mean_queue_length_open=(
            per_station("qlen_open_int") / duration if kind != "closed" else None
        ),
        completions_open=(
            per_station("completions_open", np.int64) if kind != "closed" else None
        ),
        n_events=n_events,
    )
