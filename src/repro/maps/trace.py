"""Sampling event traces from MAPs.

Two entry points:

* :class:`MapSampler` — a reusable per-MAP sampler with precomputed jump
  tables; the simulator holds one per station and asks for one service time
  at a time, carrying the frozen phase across idle periods.
* :func:`sample_intervals` — a convenience wrapper producing a stationary
  interarrival sequence (used by the statistical tests that cross-validate
  the analytic moment/ACF formulas against Monte-Carlo estimates).

Both go through :meth:`MapSampler.sample_one`, one jump at a time: an
exponential holding time, then one uniform draw to pick the jump.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.maps.map import MAP
from repro.utils.rng import as_rng

__all__ = ["MapSampler", "sample_intervals"]


class MapSampler:
    """Stateless sampling engine for a MAP (state is passed explicitly).

    Precomputes, per phase ``h``:

    * the total outflow rate ``r_h = -D0[h, h]``,
    * the cumulative distribution over jump targets, laid out as
      ``[D0 jumps to 0..K-1, D1 jumps to 0..K-1]`` so a single uniform
      draw picks both the target phase and whether the jump is an event.
    """

    def __init__(self, m: MAP) -> None:
        K = m.order
        self.order = K
        self.hold_rates = -np.diag(m.D0).copy()
        probs = np.zeros((K, 2 * K))
        for h in range(K):
            r = self.hold_rates[h]
            if r <= 0:
                raise ValueError(f"phase {h} has zero outflow rate")
            probs[h, :K] = m.D0[h] / r
            probs[h, h] = 0.0  # diagonal of D0 is the negative total rate
            probs[h, K:] = m.D1[h] / r
        cum = np.cumsum(probs, axis=1)
        # Guard against round-off: the last column must be exactly 1.
        cum[:, -1] = 1.0
        # Python lists for the per-jump path: bisect on a short list beats
        # np.searchsorted on a numpy row, and the values are the same.
        self._cum = cum.tolist()
        self._scales = (1.0 / self.hold_rates).tolist()
        self.embedded_stationary = m.embedded_stationary
        self.phase_stationary = m.phase_stationary

    def initial_phase(self, rng, stationary: str = "embedded") -> int:
        """Draw an initial phase from the embedded or time-stationary law."""
        gen = as_rng(rng)
        dist = (
            self.embedded_stationary
            if stationary == "embedded"
            else self.phase_stationary
        )
        return int(gen.choice(self.order, p=dist))

    def sample_one(self, phase: int, rng) -> tuple[float, int]:
        """Time until the next event starting from ``phase``.

        Returns ``(interval, phase_after_event)``.  Hidden D0 jumps are
        followed internally until a D1 jump fires.
        """
        gen = rng if isinstance(rng, np.random.Generator) else as_rng(rng)
        K = self.order
        scales, cum = self._scales, self._cum
        total = 0.0
        h = phase
        while True:
            total += gen.exponential(scales[h])
            j = bisect_right(cum[h], gen.random())
            if j >= K:  # D1 jump: event fires, next phase is j - K
                return total, j - K
            h = j

    def sample_many(self, n: int, phase: int, rng) -> tuple[np.ndarray, int]:
        """Sample ``n`` consecutive interevent times; returns (array, phase)."""
        gen = as_rng(rng)
        out = np.empty(n)
        h = phase
        for i in range(n):
            out[i], h = self.sample_one(h, gen)
        return out, h


def sample_intervals(
    m: MAP, n: int, rng=None, phase0: int | None = None
) -> np.ndarray:
    """Stationary interarrival sequence of length ``n`` from MAP ``m``.

    The initial phase is drawn from the embedded stationary distribution
    unless ``phase0`` is given, so the sequence is (strictly) stationary and
    its sample moments/ACF estimate the analytic ones.
    """
    gen = as_rng(rng)
    sampler = MapSampler(m)
    h = sampler.initial_phase(gen) if phase0 is None else int(phase0)
    intervals, _ = sampler.sample_many(n, h, gen)
    return intervals
