"""Parallel parameter sweeps over the solver registry.

Every figure of the paper is a sweep — populations for Fig. 4/8/Table 1,
browser counts for Fig. 3, (M, N) grids for the scalability claim.  The
:class:`SweepRunner` fans the per-point solves across a
``concurrent.futures.ProcessPoolExecutor``; points are independent CTMC/LP/
simulation solves, so the speedup is near-linear until memory bandwidth
saturates.

Determinism: per-point RNG seeds are derived from ``(base_seed, index)``
through :class:`numpy.random.SeedSequence`, and the derivation is identical
on the serial and parallel paths — a sweep with the same ``base_seed``
returns bit-identical results whichever executor runs it, in input order.

Workers build their own :class:`~repro.runtime.registry.SolverRegistry`
pointing at the *same* disk cache directory, so a re-run of a sweep is
served from disk without recomputation regardless of worker count.

LP points solve independently: each builds its own persistent HiGHS models,
so serial and parallel LP sweeps give the same bounds point for point
(asserted in ``tests/runtime/test_lp_persistent.py``).  Inside a point,
:meth:`~repro.runtime.batch.BatchLPSolver.bound_specs` also runs the
min/max pairs on one thread per usable core.  A parallel sweep's worker
processes split the cores between them (each gets ``cores // workers``
pair threads, at least one), so a sweep runs about one solver thread per
core (at most ``max(cores, workers)``), never ``workers x cores``.

From the command line, ``python -m repro.scenarios sweep <scenario>`` runs a
:class:`SweepSpec` through this runner (e.g. ``fig5-case-study``, the
paper's Figure 5 network, with ``--method``, ``--populations``,
``--workers``, ``--seed`` and ``--no-cache``).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.network.model import Network
from repro.runtime.batch import _share_cores, _usable_cores
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.fingerprint import fingerprint_sweep
from repro.runtime.registry import SolveResult, SolverRegistry

__all__ = ["SweepRunner", "SweepSpec", "derive_seed"]


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-mixed per-point seed from ``(base_seed, index)``."""
    seq = np.random.SeedSequence([int(base_seed), int(index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative, scenario-aware sweep: *what* to solve, not *how*.

    Names a registered scenario (see :mod:`repro.scenarios`) plus the
    population sweep, solver method, and options — everything needed to
    reproduce a figure's computation from a YAML-able document.  The spec
    is content-addressed: :meth:`fingerprint` hashes the *compiled* models,
    so two specs that build identical networks are identified regardless
    of scenario naming.

    Attributes
    ----------
    scenario:
        Name of a scenario in the default scenario registry.
    populations:
        Job populations to sweep, in order.
    method:
        Registered solver method (``lp``, ``exact``, ``mva``, ...).
    params:
        Scenario parameter overrides (validated by the scenario).
    opts:
        Solver options forwarded to every point solve.  Runner-level
        controls (``cache``, ``workers``, ``base_seed``) are rejected
        here — pass them to :meth:`SweepRunner.run_spec` / this class's
        ``base_seed`` field instead.
    base_seed:
        Per-point seed derivation base for stochastic methods.
    """

    #: Option names owned by the runner, not the solver adapters.
    _RESERVED_OPTS = ("cache", "workers", "base_seed")

    scenario: str
    populations: tuple[int, ...]
    method: str = "lp"
    params: Mapping[str, Any] = field(default_factory=dict)
    opts: Mapping[str, Any] = field(default_factory=dict)
    base_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "populations", tuple(int(n) for n in self.populations))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "opts", dict(self.opts))
        if not self.populations:
            raise ValueError("SweepSpec needs at least one population")
        clashes = [k for k in self._RESERVED_OPTS if k in self.opts]
        if clashes:
            raise ValueError(
                f"SweepSpec.opts may not contain runner controls {clashes}; "
                "pass cache=/workers= to run_spec() and seeds via base_seed"
            )

    def networks(self) -> list[Network]:
        """Compile the per-point models through the scenario registry.

        Raises
        ------
        UnsupportedNetworkError
            When the scenario compiles to an *open* network: open models
            ignore the population argument, so a population sweep would
            silently produce identical points.
        """
        from repro.scenarios import get_scenario  # lazy: avoids an import cycle

        sc = get_scenario(self.scenario)
        nets = [sc.network(population=n, **self.params) for n in self.populations]
        if nets and nets[0].kind == "open":
            from repro.utils.errors import UnsupportedNetworkError

            raise UnsupportedNetworkError(
                "population sweep", "open", supported="closed/mixed"
            )
        return nets

    def _seeds_points(self) -> bool:
        """Whether the runner would derive per-point rng seeds for this spec.

        Mirrors :meth:`SweepRunner.run`: seeds are derived only for
        stochastic methods, only when ``base_seed`` is set, and only when
        the caller did not pin ``rng`` in ``opts``.  Unknown (custom)
        methods are conservatively treated as stochastic so their seeds
        are never silently dropped from the digest.
        """
        if self.base_seed is None or "rng" in self.opts:
            return False
        try:
            return SolverRegistry(cache=None).is_stochastic(self.method)
        except KeyError:
            return True

    def fingerprint(self) -> str:
        """Content digest of the whole sweep (see :func:`fingerprint_sweep`).

        For stochastic methods the derived per-point ``rng`` seeds enter
        the digest — exactly the options the runner's cache keys use — so
        two specs share a fingerprint iff every point would hit the same
        cache entries.
        """
        nets = self.networks()
        per_point = None
        if self._seeds_points():
            per_point = [
                {**self.opts, "rng": derive_seed(self.base_seed, i)}
                for i in range(len(nets))
            ]
        return fingerprint_sweep(
            nets, self.method, dict(self.opts), per_point_opts=per_point
        )

    def to_dict(self) -> dict:
        """JSON/YAML-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "scenario": self.scenario,
            "populations": list(self.populations),
            "method": self.method,
            "params": dict(self.params),
            "opts": dict(self.opts),
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a parsed JSON/YAML document."""
        return cls(
            scenario=payload["scenario"],
            populations=tuple(payload["populations"]),
            method=payload.get("method", "lp"),
            params=dict(payload.get("params", {})),
            opts=dict(payload.get("opts", {})),
            base_seed=payload.get("base_seed"),
        )


# Per-process registry (workers are forked/spawned without parent state).
_worker_registry: SolverRegistry | None = None
_worker_cache_dir: "str | None" = None


def _get_worker_registry(cache_dir: "str | None") -> SolverRegistry:
    global _worker_registry, _worker_cache_dir
    if _worker_registry is None or _worker_cache_dir != cache_dir:
        cache = ResultCache(directory=cache_dir) if cache_dir else None
        _worker_registry = SolverRegistry(cache=cache)
        _worker_cache_dir = cache_dir
    return _worker_registry


def _solve_point(payload) -> "tuple[SolveResult, dict | None]":
    """Top-level worker entry (must be picklable for ProcessPoolExecutor).

    When the parent sweep is profiling (``collect``), the solve runs under
    a fresh worker-local :class:`~repro.obs.Telemetry` whose exported
    state rides back with the result; the parent absorbs the states in
    input order, so serial and parallel sweeps aggregate identically.
    """
    network, method, opts, cache_dir, collect = payload
    registry = _get_worker_registry(cache_dir)
    if not collect:
        return registry.solve(network, method, **opts), None
    tele = obs.Telemetry()
    with obs.use(tele):
        result = registry.solve(network, method, **opts)
    return result, tele.export_state()


class SweepRunner:
    """Fan independent model solves across processes, results in order.

    Parameters
    ----------
    registry:
        Registry used on the serial path (``workers <= 1``); defaults to a
        fresh registry over ``cache_dir``.
    workers:
        Default worker count; ``None`` picks ``min(n_points, usable
        cores)`` (the CPU affinity count the LP pair threads use),
        ``0``/``1`` solve serially in-process.
    cache_dir:
        Disk cache directory shared by all workers; ``None`` disables the
        disk tier (each worker still has its in-memory tier).  When omitted
        it follows the given registry's cache (so serial and parallel paths
        see the same store), falling back to
        :func:`~repro.runtime.cache.default_cache_dir` (resolved at call
        time, honoring ``REPRO_CACHE_DIR``).
    """

    _UNSET = object()

    def __init__(
        self,
        registry: SolverRegistry | None = None,
        workers: int | None = None,
        cache_dir: "str | os.PathLike | None" = _UNSET,
    ) -> None:
        if cache_dir is self._UNSET:
            if registry is not None:
                cache = registry.cache
                cache_dir = (
                    str(cache.directory)
                    if cache is not None and cache.directory is not None
                    else None
                )
            else:
                cache_dir = str(default_cache_dir())
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        if registry is None:
            cache = ResultCache(directory=self.cache_dir) if self.cache_dir else None
            registry = SolverRegistry(cache=cache)
        self.registry = registry
        self.workers = workers
        self.last_wall_time_s: float = 0.0

    # ------------------------------------------------------------------ #
    def run(
        self,
        networks: Sequence[Network],
        method: str = "lp",
        base_seed: int | None = None,
        workers: int | None = None,
        cache: bool = True,
        **opts,
    ) -> list[SolveResult]:
        """Solve every network; returns results in input order.

        ``base_seed`` derives a deterministic per-point ``rng`` seed for
        stochastic methods (ignored for deterministic methods, and when the
        caller passes ``rng`` explicitly); identical on serial and parallel
        paths.
        """
        networks = list(networks)
        seed_points = base_seed is not None and self.registry.is_stochastic(method)
        per_point_opts: list[dict] = []
        for i in range(len(networks)):
            o = dict(opts)
            if seed_points and "rng" not in o:
                o["rng"] = derive_seed(base_seed, i)
            o["cache"] = cache
            per_point_opts.append(o)

        if workers is None:
            workers = self.workers
        if workers is None:
            workers = min(len(networks), _usable_cores())

        tele = obs.get_telemetry()
        with tele.span(
            "sweep.run", method=method, n_points=len(networks)
        ) as span:
            t0 = obs.clock()
            if workers <= 1 or len(networks) <= 1:
                span.set("workers", 1)
                results = []
                for net, o in zip(networks, per_point_opts):
                    results.append(self.registry.solve(net, method, **o))
                    tele.gauge("sweep.completed_points", len(results))
            else:
                span.set("workers", int(workers))
                payloads = [
                    (net, method, o, self.cache_dir, tele.enabled)
                    for net, o in zip(networks, per_point_opts)
                ]
                with ProcessPoolExecutor(
                    max_workers=workers, initializer=_share_cores, initargs=(workers,)
                ) as pool:
                    futures = [pool.submit(_solve_point, p) for p in payloads]
                    results = []
                    # Consume futures in input order, absorbing each
                    # worker's telemetry as its point lands: counters merge
                    # additively and per-point spans attach under this sweep
                    # span, so serial and parallel runs aggregate
                    # identically — and a live /metrics scrape
                    # (repro.obs.export) watches the aggregate grow point
                    # by point instead of jumping at the end.
                    for future in futures:
                        result, state = future.result()
                        results.append(result)
                        if state is not None:
                            tele.absorb_state(state, parent=span)
                        tele.gauge("sweep.completed_points", len(results))
            span.count("sweep.points", len(networks))
            self.last_wall_time_s = obs.clock() - t0
        return results

    def population_sweep(
        self,
        base_network: Network,
        populations: Sequence[int],
        method: str = "lp",
        **kwargs,
    ) -> list[SolveResult]:
        """Sweep the job population N, everything else fixed."""
        nets = [base_network.with_population(int(n)) for n in populations]
        return self.run(nets, method, **kwargs)

    def run_spec(
        self,
        spec: SweepSpec,
        workers: int | None = None,
        cache: bool = True,
    ) -> list[SolveResult]:
        """Execute a declarative :class:`SweepSpec`, results in spec order.

        The scenario is resolved through the default scenario registry,
        the per-point models are compiled once, and the solves fan across
        workers exactly like :meth:`run`.
        """
        return self.run(
            spec.networks(),
            spec.method,
            base_seed=spec.base_seed,
            workers=workers,
            cache=cache,
            **dict(spec.opts),
        )
