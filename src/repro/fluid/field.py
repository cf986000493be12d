"""The phase-aware fluid drift field of a closed MAP queueing network.

Derivation
----------
Scale the closed CTMC by its population: let ``n_k(t)`` be the expected
number of jobs at station ``k`` and ``y_k(t)`` the distribution of
station ``k``'s service MAP phase.  In the mean-field limit (propagation
of chaos over the job population) the pair evolves autonomously:

* **Completion rates.**  Station ``k`` completes work at rate

      mu_k = c_k(n_k) * (y_k . d1_k),        d1_k = D1_k @ 1,

  where ``c_k`` is the *fluid* server-occupancy factor — ``min(n, 1)``
  for a single-server queue, ``n`` for a delay station, ``min(n, s)``
  for a multiserver — the continuous relaxation of the stochastic
  :meth:`~repro.network.stations.Station.rate_scale`.  ``y_k . d1_k``
  is the conditional event rate of the service MAP in phase mix ``y_k``
  (for exponential stations this is just ``1/E[S_k]``).

* **Routing drift.**  Completions route by the stochastic matrix ``P``:

      dn/dt = P^T mu - mu.

  Row-stochasticity of ``P`` makes the drift conserve ``sum_k n_k = N``
  exactly — the closed chain's invariant survives the limit.

* **Phase drift.**  While station ``k`` is busy its service phase
  follows the MAP's phase process ``Q_k = D0_k + D1_k``; when it idles
  the phase *freezes* at the value left by the last served job — the
  paper's Fig. 6 semantics.  The fluid version gates the generator by
  the busy fraction ``b_k = min(n_k, 1)``:

      dy_k/dt = b_k(n_k) * (y_k Q_k).

  Zero row sums of ``Q_k`` conserve ``sum_h y_kh = 1``.

Only multi-phase stations carry a tracked phase block (``K_k = 1``
blocks are the constant scalar 1); the state dimension is therefore
``M + sum_{K_k > 1} K_k`` — **independent of N**, which is the entire
point of the tier.

The field is piecewise smooth with kinks where ``n_k`` crosses a server
count (the ``c_k`` relaxations); :meth:`FluidField.switch_events` turns
those thresholds into scipy event functions so the integrator lands
steps on bottleneck switches instead of stumbling over them.

Diffusion correction
--------------------
The first-order field above is asymptotically exact as ``N -> inf`` but
ignores second-moment (diffusion) effects at finite ``N``.  A diffusion
correction (linear-noise / Gaussian expansion around the fluid path, cf.
Perez & Casale's mean-field work in PAPERS.md) is not implemented; the
field keeps the drift and its Jacobian (the expansion's ingredients)
separately evaluable so one can be layered on without rederiving
anything.
"""

from __future__ import annotations

import numpy as np

from repro.network.model import Network, require_closed

__all__ = ["FluidField"]


class FluidField:
    """Drift field ``f(t, x)`` and Jacobian of the fluid ODE system.

    The packed state vector ``x`` is ``[n_0 .. n_{M-1}]`` followed by
    the concatenated phase blocks ``y_k`` of multi-phase stations, in
    station order.  Instances are callable with the ``(t, x)`` signature
    scipy's ``solve_ivp`` expects; ``field_evals`` counts right-hand
    side evaluations (flushed into the ``fluid.field_eval`` telemetry
    counter by the integrator).
    """

    def __init__(self, network: Network) -> None:
        require_closed(network, "fluid")
        self.network = network
        M = network.n_stations
        self.n_stations = M
        self.P = np.asarray(network.routing, dtype=float)
        # A = P^T - I applies the routing drift: dn/dt = A @ mu.
        self._A = self.P.T - np.eye(M)

        self._caps = np.empty(M)          # server counts (inf for delay)
        self._is_delay = np.zeros(M, dtype=bool)
        self._rate1 = np.empty(M)         # per-server event rate at y = theta
        self._d1 = []                     # D1_k @ 1 per station
        self._Q = []                      # phase generators D0_k + D1_k
        self._slices: list[slice | None] = []
        offset = M
        for k, st in enumerate(network.stations):
            service = st.service
            d1 = np.asarray(service.phase_event_rates, dtype=float)
            self._d1.append(d1)
            self._Q.append(np.asarray(service.generator, dtype=float))
            self._rate1[k] = 1.0 / service.mean
            if st.kind == "delay":
                self._is_delay[k] = True
                self._caps[k] = np.inf
            else:
                self._caps[k] = st.servers if st.kind == "multiserver" else 1
            if service.order > 1:
                self._slices.append(slice(offset, offset + service.order))
                offset += service.order
            else:
                self._slices.append(None)
        self.dim = offset
        self.field_evals = 0

    # ------------------------------------------------------------------ #
    # state packing
    # ------------------------------------------------------------------ #
    def pack(self, n, phases) -> np.ndarray:
        """Pack per-station occupancies and phase mixes into a state vector.

        ``phases`` is a length-M sequence of phase distributions (entries
        for single-phase stations may be anything summing to 1; they are
        not stored).
        """
        x = np.zeros(self.dim)
        x[: self.n_stations] = np.asarray(n, dtype=float)
        for k, sl in enumerate(self._slices):
            if sl is not None:
                x[sl] = np.asarray(phases[k], dtype=float)
        return x

    def unpack(self, x) -> tuple[np.ndarray, list[np.ndarray]]:
        """Split a state vector into ``(n, [y_0, ..., y_{M-1}])``.

        Single-phase stations get the constant ``array([1.0])``.
        """
        x = np.asarray(x, dtype=float)
        n = x[: self.n_stations]
        ys = [
            x[sl] if sl is not None else np.ones(1)
            for sl in self._slices
        ]
        return n, ys

    # ------------------------------------------------------------------ #
    # rates and drift
    # ------------------------------------------------------------------ #
    def occupancy_factors(self, n: np.ndarray) -> np.ndarray:
        """Fluid server-occupancy ``c_k(n_k)`` (continuous ``rate_scale``)."""
        return np.minimum(np.maximum(np.asarray(n, dtype=float), 0.0),
                          self._caps)

    def event_rates(self, x) -> np.ndarray:
        """Per-server completion rates ``y_k . d1_k`` at state ``x``."""
        x = np.asarray(x, dtype=float)
        r = self._rate1.copy()
        for k, sl in enumerate(self._slices):
            if sl is not None:
                r[k] = float(x[sl] @ self._d1[k])
        return r

    def completion_rates(self, x) -> np.ndarray:
        """Station completion rates ``mu_k = c_k(n_k) (y_k . d1_k)``."""
        x = np.asarray(x, dtype=float)
        return self.occupancy_factors(x[: self.n_stations]) * self.event_rates(x)

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        """The drift ``dx/dt`` (scipy ``solve_ivp`` right-hand side)."""
        self.field_evals += 1
        x = np.asarray(x, dtype=float)
        n = x[: self.n_stations]
        mu = self.completion_rates(x)
        dx = np.empty(self.dim)
        dx[: self.n_stations] = self._A @ mu
        busy = np.minimum(np.maximum(n, 0.0), 1.0)
        for k, sl in enumerate(self._slices):
            if sl is not None:
                dx[sl] = busy[k] * (x[sl] @ self._Q[k])
        return dx

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        """Analytic Jacobian ``df/dx`` of the drift at state ``x``.

        At the ``c_k`` kinks (``n_k`` exactly at a server count) the
        one-sided derivative from below is used; BDF/Radau only need a
        Jacobian accurate enough to converge their Newton iterations, and
        the event functions land steps on the kinks anyway.
        """
        x = np.asarray(x, dtype=float)
        n = x[: self.n_stations]
        M = self.n_stations
        r = self.event_rates(x)
        c = self.occupancy_factors(n)
        # dc/dn: 1 strictly below the cap (and at it, from the left), 0 above.
        dc = ((n >= 0.0) & (n < self._caps)).astype(float)
        dc[self._is_delay & (n >= 0.0)] = 1.0
        J = np.zeros((self.dim, self.dim))
        # d(dn_i)/dn_j = A[i, j] * c'_j * r_j
        J[:M, :M] = self._A * (dc * r)[None, :]
        busy = np.minimum(np.maximum(n, 0.0), 1.0)
        dbusy = ((n >= 0.0) & (n < 1.0)).astype(float)
        for k, sl in enumerate(self._slices):
            if sl is None:
                continue
            # d(dn_i)/dy_kh = A[i, k] * c_k * d1_k[h]
            J[:M, sl] = self._A[:, k : k + 1] * (c[k] * self._d1[k])[None, :]
            # d(dy_kh)/dn_k = busy'_k * (y_k Q_k)_h
            J[sl, k] = dbusy[k] * (x[sl] @ self._Q[k])
            # d(dy_kh)/dy_kg = busy_k * Q_k[g, h]
            J[sl, sl] = busy[k] * self._Q[k].T
        return J

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def switch_events(self) -> list:
        """Event functions ``n_k(t) - s_k`` for each finite-capacity station.

        A zero crossing is a bottleneck switch: the station's occupancy
        factor ``c_k`` enters or leaves its saturated plateau, the point
        where the field has a kink.  The events are observational (not
        terminal); the integrator records their times so the solver can
        report when the bottleneck regime changed.
        """
        events = []
        for k in range(self.n_stations):
            if np.isinf(self._caps[k]):
                continue

            def crossing(t, x, _k=k, _cap=float(self._caps[k])):
                return x[_k] - _cap

            crossing.terminal = False
            crossing.station = k
            events.append(crossing)
        return events
