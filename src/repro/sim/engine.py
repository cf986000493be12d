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
per-visit response times) are accumulated lazily per station and reset once
at the warmup boundary.

The loop runs on Python-native state, because numpy scalars cost more per
event than the work they carry: station counters and integrals are plain
``int``/``float`` attributes, FCFS queues are ``deque`` objects, and the
routing rows and MAP jump tables (about three entries each) are lists of
cumulative probabilities searched with :func:`bisect.bisect_right`.  Arrays
appear only in the returned :class:`SimResult`.  The loop is
stream-identical to the array-based one it replaced: every event makes the
same ``gen.exponential``/``gen.random`` calls in the same order, and IEEE
double arithmetic gives the same bits on either representation, so a seeded
run reproduces its earlier results exactly (``tests/sim/test_golden.py``).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.maps.trace import MapSampler
from repro.network.model import Network
from repro.sim.taps import FlowTap, QueueTap
from repro.utils.rng import as_rng

__all__ = ["SimResult", "simulate"]

#: Calendar marker for external-arrival events (not a station index).
_ARRIVAL = -1


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


class _StationSim:
    """Runtime state and post-warmup statistics of one station."""

    __slots__ = (
        "servers",
        "sampler",
        "phase",
        "scale",
        "waiting",
        "in_service",
        "n",
        "n_open",
        "arrival_time",
        "last_change",
        "busy_int",
        "qlen_int",
        "qlen_open_int",
        "completions",
        "completions_open",
        "resp",
    )

    def __init__(self, station, rng) -> None:
        self.servers = station.servers if station.kind == "multiserver" else (
            math.inf if station.kind == "delay" else 1
        )
        self.n = 0
        self.n_open = 0
        self.in_service = 0
        self.waiting: deque[int] = deque()  # FCFS order of jobs not yet in service
        self.arrival_time: dict[int, float] = {}
        if station.kind == "queue":
            self.sampler = MapSampler(station.service)
            self.phase = self.sampler.initial_phase(rng)
            self.scale = 0.0
        else:
            self.sampler = None
            self.phase = 0
            self.scale = 1.0 / float(station.service.D1[0, 0])
        self.reset_statistics(0.0)

    def reset_statistics(self, now: float) -> None:
        """Zero the integrals and counts; the warmup boundary calls this."""
        self.last_change = now  # last time n changed
        self.busy_int = 0.0
        self.qlen_int = 0.0
        self.qlen_open_int = 0.0
        self.completions = 0
        self.completions_open = 0
        self.resp: list[float] = []
        self.arrival_time.clear()


def _routing_cum(P: np.ndarray, open_chain: bool) -> list[list[float]]:
    """Cumulative routing rows; open rows gain a terminal sink column.

    Closed rows are forced to end at 1 over the last *station* (guarding
    against float drift); open rows end at 1 over the appended sink column,
    so a uniform draw beyond the internal mass routes the job out.
    """
    if open_chain:
        P = np.hstack([P, np.zeros((P.shape[0], 1))])
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    return cum.tolist()


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
    gen = as_rng(rng)
    random = gen.random
    exponential = gen.exponential
    horizon_events = int(horizon_events)
    M = network.n_stations
    kind = network.kind
    N = network.population if kind != "open" else 0
    taps = taps or []
    arr_taps: list[list[FlowTap]] = [[] for _ in range(M)]
    dep_taps: list[list[FlowTap]] = [[] for _ in range(M)]
    q_taps: list[list[QueueTap]] = [[] for _ in range(M)]
    for tap in taps:
        if tap.direction == "queue":
            q_taps[tap.station].append(tap)
        else:
            (arr_taps if tap.direction == "arrival" else dep_taps)[
                tap.station
            ].append(tap)

    stations = [_StationSim(st, gen) for st in network.stations]
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
            stations[k].phase = int(phase)
    closed_cum = (
        _routing_cum(network.routing, open_chain=False)
        if kind in ("closed", "mixed")
        else None
    )
    open_cum = (
        _routing_cum(np.asarray(network.open_routing_matrix), open_chain=True)
        if kind != "closed"
        else None
    )
    if kind != "closed":
        entry_cum = np.cumsum(np.asarray(network.entry))
        entry_cum[-1] = 1.0
        entry_cum = entry_cum.tolist()
        arrival_sampler = MapSampler(network.arrivals)
        arrival_phase = arrival_sampler.initial_phase(gen)
    next_open_job = N  # open jobs get fresh ids above the closed range

    calendar: list[tuple[float, int, int, int]] = []  # (time, seq, station, job)
    seq = 0
    now = 0.0

    # Statistics live on the stations and are reset at the warmup boundary.
    stat_t0 = 0.0
    sink_departures = 0
    external_arrivals = 0
    collecting = warmup_events == 0

    def _flush(st: _StationSim) -> None:
        """Bring a station's integrals up to `now`."""
        dt = now - st.last_change
        if dt > 0.0:
            st.qlen_int += st.n * dt
            st.qlen_open_int += st.n_open * dt
            if st.n >= 1:
                st.busy_int += dt
        st.last_change = now

    def _start_service(k: int, st: _StationSim) -> None:
        """Start jobs at station k while servers are free (FCFS)."""
        nonlocal seq
        while st.waiting and st.in_service < st.servers:
            job = st.waiting.popleft()
            st.in_service += 1
            if st.sampler is not None:
                interval, st.phase = st.sampler.sample_one(st.phase, gen)
            else:
                interval = exponential(st.scale)
            seq += 1
            heapq.heappush(calendar, (now + interval, seq, k, job))

    def _arrive(k: int, job: int) -> None:
        st = stations[k]
        _flush(st)
        st.n += 1
        if job >= N:
            st.n_open += 1
        st.waiting.append(job)
        if collecting:
            st.arrival_time[job] = now
            for tap in arr_taps[k]:
                tap.record(now)
            for tap in q_taps[k]:
                tap.record(now, st.n)
        _start_service(k, st)

    def _schedule_arrival() -> None:
        """Queue the next external-arrival event (open/mixed only)."""
        nonlocal seq, arrival_phase
        interval, arrival_phase = arrival_sampler.sample_one(arrival_phase, gen)
        seq += 1
        heapq.heappush(calendar, (now + interval, seq, _ARRIVAL, -1))

    # Initial state: closed jobs at `initial_station` (or spread per
    # `initial_populations`), open chains empty with the first arrival
    # pending.
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
    for job, k0 in enumerate(placement):
        _arrive(k0, job)
    if kind != "closed":
        _schedule_arrival()

    total_completions = 0
    n_events = 0
    stopped_on_time = False
    heappop = heapq.heappop
    while total_completions < horizon_events:
        if not calendar:
            raise RuntimeError("event calendar ran dry (no busy stations)")
        if horizon_time is not None and calendar[0][0] >= horizon_time:
            stopped_on_time = True
            break
        now, _, j, job = heappop(calendar)
        n_events += 1

        if j == _ARRIVAL:
            if collecting:
                external_arrivals += 1
            _arrive(bisect_right(entry_cum, random()), next_open_job)
            next_open_job += 1
            _schedule_arrival()
            continue

        st = stations[j]
        _flush(st)
        st.n -= 1
        if job >= N:
            st.n_open -= 1
        st.in_service -= 1
        total_completions += 1
        if collecting:
            st.completions += 1
            if job >= N:
                st.completions_open += 1
            t_arr = st.arrival_time.pop(job, None)
            if t_arr is not None:
                st.resp.append(now - t_arr)
            for tap in dep_taps[j]:
                tap.record(now)
            for tap in q_taps[j]:
                tap.record(now, st.n)
        else:
            st.arrival_time.pop(job, None)
        if st.waiting:
            _start_service(j, st)

        # Route the job by its class (closed ids are 0..N-1).
        k = bisect_right((closed_cum if job < N else open_cum)[j], random())
        if k >= M:
            # Open-chain exit to the sink: the job leaves the system.
            if collecting:
                sink_departures += 1
        else:
            _arrive(k, job)

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
            for k2, st in enumerate(stations):
                for tap in q_taps[k2]:
                    tap.record(now, st.n)

    if not collecting:
        raise RuntimeError(
            "simulation horizon too short: warmup boundary never reached"
        )
    # Final flush: integrate statistics up to the exact stop time (the
    # time horizon when it fired first, else the last processed event).
    if stopped_on_time:
        now = horizon_time
    for st in stations:
        _flush(st)
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
