"""Zero-dependency tracing and metrics core.

Two cooperating primitives:

* :class:`Span` — a timed, named region of work.  Spans form a tree
  through a per-thread context stack: a span opened while another is
  active becomes its child, so ``registry.solve`` naturally contains the
  ``lp.assembly``/``lp.solve``/``transient.grid`` spans its adapter ran.
  Spans carry free-form attributes, additive counters, and (on an
  exception) the error that crossed them.
* :class:`Telemetry` — the process-wide metrics registry: monotonic
  counters, last-value gauges, and value histograms (latency percentiles
  come from these), plus the list of finished span trees.  Every counter
  bumped through :meth:`Span.count` also lands in the global registry, so
  aggregate totals never require walking the span tree.

Instrumentation is **off by default**: the installed telemetry is a
:class:`NullTelemetry` whose ``span()`` returns a shared no-op span and
whose metric methods do nothing — the instrumented hot paths pay one
attribute lookup and one call per probe, nothing else (the tracked
``instrumentation_overhead`` entry of ``BENCH_lp_scaling.json`` gates
this at <= 5% even with telemetry *enabled*).  Enable collection with
:func:`enable` / :func:`use` / :func:`set_telemetry`.

This module imports nothing from the rest of :mod:`repro` (only the
standard library and numpy), so every layer of the solver stack can
instrument itself without creating import cycles.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "FlightRecorder",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "TelemetrySnapshot",
    "clock",
    "disable",
    "disable_flight_recorder",
    "enable",
    "enable_flight_recorder",
    "get_flight_recorder",
    "get_telemetry",
    "register_flight_dump_exceptions",
    "set_telemetry",
    "use",
]

#: Percentiles reported for every histogram in a snapshot / summary.
SNAPSHOT_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


def clock() -> float:
    """Monotonic timestamp in seconds (the repo's one timing source).

    Thin alias for :func:`time.perf_counter`; instrumented code calls
    this instead of importing ``time`` directly so the perf-counter lint
    (``tests/obs/test_perf_counter_lint.py``) can forbid ad-hoc
    stopwatches outside :mod:`repro.obs`.
    """
    return time.perf_counter()


class Span:
    """One timed region of work; a node of the trace tree.

    Use as a context manager obtained from :meth:`Telemetry.span`::

        with tele.span("lp.solve", metric="throughput[0]") as sp:
            ...
            sp.count("lp.iterations", res.nit)

    Attributes are free-form key/value pairs (JSON-scalar values keep the
    trace exportable); counters are additive and also bubble into the
    owning telemetry's global counter registry.  Exceptions crossing the
    span are recorded (``status == "error"``) and re-raised.
    """

    __slots__ = (
        "name",
        "attributes",
        "counters",
        "children",
        "start_s",
        "end_s",
        "status",
        "error",
        "_telemetry",
    )

    def __init__(self, name: str, telemetry: "Telemetry | None" = None, **attributes) -> None:
        self.name = str(name)
        self.attributes: dict = dict(attributes)
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self.start_s: float = clock()
        self.end_s: "float | None" = None
        self.status: str = "ok"
        self.error: "str | None" = None
        self._telemetry = telemetry

    # ------------------------------------------------------------------ #
    @property
    def duration_s(self) -> "float | None":
        """Span duration in seconds, or ``None`` while still open."""
        return None if self.end_s is None else self.end_s - self.start_s

    def elapsed(self) -> float:
        """Seconds since the span started (live, even while open)."""
        return (self.end_s if self.end_s is not None else clock()) - self.start_s

    def set(self, key: str, value) -> None:
        """Set one attribute on the span."""
        self.attributes[str(key)] = value

    def count(self, name: str, n: "int | float" = 1) -> None:
        """Add ``n`` to the span counter ``name`` (and the global counter)."""
        self.counters[name] = self.counters.get(name, 0) + n
        if self._telemetry is not None:
            self._telemetry.counter(name, n)

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = clock()
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        if self._telemetry is not None:
            self._telemetry._finish_span(self)
            if exc is not None:
                _maybe_attach_flight_dump(self._telemetry, exc)
        return False  # never swallow

    def __repr__(self) -> str:
        dur = self.duration_s
        timing = f"{dur:.6f}s" if dur is not None else "open"
        return f"Span({self.name!r}, {timing}, {len(self.children)} children)"


class _NullSpan:
    """Shared no-op span: the disabled fast path of every probe."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> None:
        """No-op."""

    def count(self, name: str, n: "int | float" = 1) -> None:
        """No-op."""

    def elapsed(self) -> float:
        """Always 0.0 (no timing is collected while disabled)."""
        return 0.0


_NULL_SPAN = _NullSpan()


def _jsonable(value):
    """Coerce a span attribute to a JSON-serializable scalar/container."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    try:  # numpy scalars
        return value.item()
    except AttributeError:
        return str(value)


def span_record(sp: "Span") -> dict:
    """A finished span's fields in the trace schema (ids not included).

    The one span layout: trace export (:func:`repro.obs.trace.span_records`)
    and the :class:`FlightRecorder` ring both build their records here.
    """
    return {
        "name": sp.name,
        "start_s": sp.start_s,
        "end_s": sp.end_s,
        "duration_s": sp.duration_s,
        "attributes": {k: _jsonable(v) for k, v in sp.attributes.items()},
        "counters": dict(sp.counters),
        "status": sp.status,
        "error": sp.error,
    }


class FlightRecorder:
    """Bounded ring buffer of recently finished spans and counter totals.

    The always-on "black box" of the observability layer: a
    :class:`Telemetry` with a recorder attached feeds every finished span
    into a fixed-capacity :class:`collections.deque` (oldest evicted
    first) and mirrors counter bumps into one flat dict — bounded memory,
    no span-tree retention, no export cost until something goes wrong.
    On error, :meth:`dump` writes the tail as a schema-valid JSONL trace
    that ``python -m repro.obs report`` can render; structured solver
    exceptions crossing a span get the dump attached automatically as
    ``error.trace_path`` (see :func:`register_flight_dump_exceptions`).

    Thread-safe; the ring and counters are guarded by one lock.
    """

    #: Default number of finished spans retained in the ring.
    DEFAULT_CAPACITY = 256

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        directory: "str | os.PathLike | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.directory = Path(
            directory
            if directory is not None
            else os.environ.get("REPRO_FLIGHT_DIR", tempfile.gettempdir())
        )
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=self.capacity)
        self._counters: dict[str, float] = {}
        self._dump_seq = itertools.count(1)

    # ------------------------------------------------------------------ #
    def record_span(self, sp: "Span") -> None:
        """Append one finished span's record to the ring."""
        record = span_record(sp)
        with self._lock:
            self._ring.append(record)

    def count(self, name: str, n: "int | float" = 1) -> None:
        """Mirror one counter bump into the recorder's flat totals."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def tail(self) -> "list[dict]":
        """The retained span records, oldest first (a copy)."""
        with self._lock:
            return [dict(r) for r in self._ring]

    def counters(self) -> dict:
        """Copy of the mirrored counter totals."""
        with self._lock:
            return dict(self._counters)

    def clear(self) -> None:
        """Drop everything retained so far."""
        with self._lock:
            self._ring.clear()
            self._counters.clear()

    # ------------------------------------------------------------------ #
    def dump(self, error: "BaseException | None" = None, path=None) -> Path:
        """Write the tail as a JSONL trace file; returns its path.

        The file follows the versioned trace schema (header record, flat
        span records in ring order, one final metrics record carrying the
        mirrored counters), so ``python -m repro.obs report <path>`` and
        ``validate`` read it like any ``--trace-out`` file.  ``error``
        annotates the header with the exception that triggered the dump.
        """
        from repro.obs.trace import span_line, write_trace  # lazy: no cycle

        if path is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / (
                f"repro-flight-{os.getpid()}-{next(self._dump_seq)}.jsonl"
            )
        path = Path(path)
        with self._lock:
            spans = [span_line(r, i, None) for i, r in enumerate(self._ring, start=1)]
            counters = dict(self._counters)
        write_trace(
            path, "repro.obs.flight", spans, counters, {}, {},
            error=None if error is None else f"{type(error).__name__}: {error}",
        )
        return path


#: Exception types that get a flight dump attached as ``.trace_path``
#: when they cross a span while a recorder is active.  Populated by
#: :func:`register_flight_dump_exceptions` (``repro.obs`` registers
#: ``SolverError`` at import, covering the iterative/series subclasses).
_DUMP_EXCEPTION_TYPES: tuple[type, ...] = ()


def register_flight_dump_exceptions(*types: type) -> None:
    """Add exception types eligible for automatic flight-dump attachment."""
    global _DUMP_EXCEPTION_TYPES
    merged = dict.fromkeys(_DUMP_EXCEPTION_TYPES)
    merged.update(dict.fromkeys(types))
    _DUMP_EXCEPTION_TYPES = tuple(merged)


def _maybe_attach_flight_dump(telemetry, exc: BaseException) -> None:
    """Attach a flight dump to ``exc`` once, if a recorder is watching.

    Called from :meth:`Span.__exit__` on the innermost span the exception
    crosses — the dump tail is therefore captured closest to the failure;
    outer spans see ``trace_path`` already set and do nothing.
    """
    recorder = getattr(telemetry, "recorder", None)
    if recorder is None or not _DUMP_EXCEPTION_TYPES:
        return
    if not isinstance(exc, _DUMP_EXCEPTION_TYPES):
        return
    if getattr(exc, "trace_path", None) is not None:
        return
    try:
        exc.trace_path = str(recorder.dump(error=exc))
    except (OSError, AttributeError, TypeError):
        pass  # unwritable dir / slotted or frozen exception: never mask exc


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Point-in-time copy of a telemetry's metric registries.

    ``histograms`` maps each histogram name to a stats dict with
    ``count``/``sum``/``min``/``max``/``mean`` plus one ``p<q>`` entry per
    :data:`SNAPSHOT_PERCENTILES` quantile — span latency percentiles come
    from the automatic ``span.<name>.duration_s`` histograms.
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict form (JSON-serializable)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def to_json(self) -> str:
        """The snapshot as an indented JSON document."""
        import json

        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _histogram_stats(values: "list[float]") -> dict:
    """Summary statistics of one histogram's raw values."""
    arr = np.asarray(values, dtype=float)
    stats = {
        "count": int(arr.size),
        "sum": float(arr.sum()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }
    for q in SNAPSHOT_PERCENTILES:
        key = f"p{q:g}".replace(".", "_")
        stats[key] = float(np.percentile(arr, q))
    return stats


class Telemetry:
    """Process-wide registry of counters, gauges, histograms, and spans.

    Thread-safe: metric registries are guarded by a lock and the span
    context stack is per-thread, so concurrent sweep threads each grow
    their own span trees while sharing one set of aggregate counters.

    Parameters
    ----------
    recorder:
        Optional :class:`FlightRecorder`; every finished span and counter
        bump is mirrored into its bounded ring, and structured solver
        exceptions crossing a span get a dump attached as ``trace_path``.
    retain_spans:
        ``False`` drops finished span trees instead of keeping them in
        ``roots`` — the always-on flight-recorder mode, where the ring is
        the only span retention and memory stays bounded indefinitely.
    histogram_limit:
        Cap on retained values per histogram (oldest evicted).  ``None``
        (the default) keeps everything, as profiling sessions expect;
        flight-recorder mode sets a bound so gauges/percentiles stay
        available without unbounded growth.
    """

    def __init__(
        self,
        recorder: "FlightRecorder | None" = None,
        retain_spans: bool = True,
        histogram_limit: "int | None" = None,
    ) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histogram_values: dict = {}
        self.recorder = recorder
        self.retain_spans = bool(retain_spans)
        self.histogram_limit = histogram_limit
        #: Finished (and still-open) root spans, in start order (left
        #: empty when ``retain_spans`` is off).
        self.roots: list[Span] = []

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """True — this telemetry records everything it is handed."""
        return True

    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes) -> Span:
        """Open a span as a child of the thread's current span (or a root)."""
        sp = Span(name, telemetry=self, **attributes)
        stack = self._stack()
        if stack:
            stack[-1].children.append(sp)
        elif self.retain_spans:
            with self._lock:
                self.roots.append(sp)
        stack.append(sp)
        return sp

    def current_span(self) -> "Span | None":
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _finish_span(self, sp: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:  # exited out of order (shouldn't happen) — heal
            stack.remove(sp)
        self.observe(f"span.{sp.name}.duration_s", float(sp.duration_s or 0.0))
        if self.recorder is not None:
            self.recorder.record_span(sp)

    # ------------------------------------------------------------------ #
    def counter(self, name: str, n: "int | float" = 1) -> None:
        """Add ``n`` to the monotonic counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
        if self.recorder is not None:
            self.recorder.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        """Set the last-value gauge ``name``."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        with self._lock:
            values = self._histogram_values.get(name)
            if values is None:
                values = self._histogram_values[name] = (
                    []
                    if self.histogram_limit is None
                    else deque(maxlen=int(self.histogram_limit))
                )
            values.append(float(value))

    # ------------------------------------------------------------------ #
    def snapshot(self) -> TelemetrySnapshot:
        """Consistent copy of every metric registry, histograms summarized."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            values = {k: list(v) for k, v in self._histogram_values.items()}
        return TelemetrySnapshot(
            counters=counters,
            gauges=gauges,
            histograms={k: _histogram_stats(v) for k, v in values.items() if v},
        )

    def reset(self) -> None:
        """Drop every metric and span collected so far."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histogram_values.clear()
            self.roots.clear()

    # ------------------------------------------------------------------ #
    # cross-process merge (the parallel-sweep path)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Picklable snapshot of everything this telemetry collected.

        Sweep workers ship this back to the parent, which merges it with
        :meth:`absorb_state`; counters/histograms merge additively, so
        serial and parallel sweeps aggregate to identical totals for
        deterministic work counters.
        """
        from repro.obs.trace import span_records

        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histogram_values": {
                    k: list(v) for k, v in self._histogram_values.items()
                },
                "spans": span_records(self.roots),
            }

    def absorb_state(self, state: dict, parent: "Span | None" = None) -> None:
        """Merge a worker's :meth:`export_state` payload into this registry.

        Counters add, histogram values extend, gauges overwrite in absorb
        order (callers absorb in input order so the merge is
        deterministic).  Span trees are rebuilt and attached under
        ``parent`` (or appended as new roots).  Worker span timestamps
        keep their own process clock origin: durations are meaningful
        across processes, absolute starts are not.
        """
        from repro.obs.trace import spans_from_records

        with self._lock:
            for name, n in state.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + n
            for name, v in state.get("gauges", {}).items():
                self._gauges[name] = v
            for name, vals in state.get("histogram_values", {}).items():
                self._histogram_values.setdefault(name, []).extend(vals)
        rebuilt = spans_from_records(state.get("spans", []))
        for sp in rebuilt:
            sp._telemetry = self
        if parent is not None:
            parent.children.extend(rebuilt)
        else:
            with self._lock:
                self.roots.extend(rebuilt)

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """ASCII span-tree / latency-percentile report (see ``report``)."""
        from repro.obs.report import render_summary

        return render_summary(self.roots, self.snapshot())


class NullTelemetry:
    """Disabled telemetry: every probe is a no-op, every span the null span.

    This is the installed default; the instrumented hot paths cost one
    method call per probe and allocate nothing.  Safe under arbitrary
    concurrency (there is no state to race on).
    """

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        """False — nothing is recorded."""
        return False

    def span(self, name: str, **attributes) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    def current_span(self) -> None:
        """Always ``None``."""
        return None

    def counter(self, name: str, n: "int | float" = 1) -> None:
        """No-op."""

    def gauge(self, name: str, value: float) -> None:
        """No-op."""

    def observe(self, name: str, value: float) -> None:
        """No-op."""

    def snapshot(self) -> TelemetrySnapshot:
        """An empty snapshot."""
        return TelemetrySnapshot()

    def reset(self) -> None:
        """No-op."""

    def summary(self) -> str:
        """A one-line reminder that collection is disabled."""
        return "telemetry disabled (enable with repro.obs.enable())"


_NULL = NullTelemetry()
_state = threading.local()
_process_default: "Telemetry | NullTelemetry" = _NULL


def get_telemetry() -> "Telemetry | NullTelemetry":
    """The telemetry active for the calling thread (process default else).

    Defaults to the shared :class:`NullTelemetry`, so importing any
    instrumented module never starts collecting.
    """
    active = getattr(_state, "active", None)
    return active if active is not None else _process_default


def set_telemetry(
    telemetry: "Telemetry | NullTelemetry | None",
) -> "Telemetry | NullTelemetry":
    """Install ``telemetry`` process-wide; returns the previous one.

    ``None`` restores the disabled default.  Thread-local overrides made
    with :func:`use` are unaffected.
    """
    global _process_default
    previous = _process_default
    _process_default = telemetry if telemetry is not None else _NULL
    return previous


def enable(telemetry: "Telemetry | None" = None) -> Telemetry:
    """Install (and return) an enabled :class:`Telemetry` process-wide."""
    tele = telemetry if telemetry is not None else Telemetry()
    set_telemetry(tele)
    return tele


def disable() -> None:
    """Restore the disabled default (a shared :class:`NullTelemetry`)."""
    set_telemetry(None)


_flight_recorder: "FlightRecorder | None" = None


def get_flight_recorder() -> "FlightRecorder | None":
    """The process-wide flight recorder, or ``None`` when not enabled."""
    return _flight_recorder


def enable_flight_recorder(
    capacity: int = FlightRecorder.DEFAULT_CAPACITY,
    directory: "str | os.PathLike | None" = None,
) -> FlightRecorder:
    """Turn on the always-on flight recorder; returns it (idempotent).

    If full telemetry is already enabled, the recorder attaches to it
    (profiling sessions get dump-on-error for free).  Otherwise a
    span-dropping, histogram-bounded :class:`Telemetry` is installed
    process-wide whose only retention is the recorder's ring — the
    "always-on" mode cheap enough to leave running in production (gated
    with the instrumentation overhead in ``BENCH_lp_scaling.json``).
    """
    global _flight_recorder
    if _flight_recorder is None:
        _flight_recorder = FlightRecorder(capacity=capacity, directory=directory)
    tele = get_telemetry()
    if tele.enabled:
        tele.recorder = _flight_recorder
    else:
        set_telemetry(Telemetry(
            recorder=_flight_recorder,
            retain_spans=False,
            histogram_limit=4 * _flight_recorder.capacity,
        ))
    return _flight_recorder


def disable_flight_recorder() -> None:
    """Detach and drop the process-wide flight recorder.

    If the installed telemetry existed only to feed the recorder (the
    span-dropping mode :func:`enable_flight_recorder` installs), the
    disabled default is restored too; a full profiling telemetry merely
    loses its recorder and keeps collecting.
    """
    global _flight_recorder
    tele = get_telemetry()
    if _flight_recorder is not None and (
        getattr(tele, "recorder", None) is _flight_recorder
    ):
        tele.recorder = None
        if isinstance(tele, Telemetry) and not tele.retain_spans:
            disable()
    _flight_recorder = None


class use:
    """Context manager installing a telemetry for the calling thread only.

    ``with obs.use(tele): ...`` scopes collection to the block — sweep
    workers use this so a profiled solve never leaks an enabled telemetry
    into later, unprofiled work on the same process.

    ``parent`` hands a span across a thread boundary: a worker thread that
    enters ``obs.use(tele, parent=caller_span)`` opens its spans as
    children of ``caller_span`` (the caller's
    :meth:`Telemetry.current_span`) instead of as new roots.  ``None``
    (all the disabled telemetry's ``current_span`` returns) leaves the
    span stack alone.
    """

    def __init__(
        self,
        telemetry: "Telemetry | NullTelemetry",
        parent: "Span | None" = None,
    ) -> None:
        self._telemetry = telemetry
        self._parent = parent
        self._previous: "Telemetry | NullTelemetry | None" = None

    def __enter__(self) -> "Telemetry | NullTelemetry":
        self._previous = getattr(_state, "active", None)
        _state.active = self._telemetry
        if self._parent is not None:
            self._telemetry._stack().append(self._parent)
        return self._telemetry

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._parent is not None:
            stack = self._telemetry._stack()
            if stack and stack[-1] is self._parent:
                stack.pop()
        _state.active = self._previous
        return False
