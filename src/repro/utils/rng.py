"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts ``rng`` as either
``None`` (fresh default generator), an integer seed, or a ready
:class:`numpy.random.Generator`.  :func:`as_rng` normalizes all three.
"""

from __future__ import annotations

import numpy as np


def as_rng(rng: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed/generator/None.

    Parameters
    ----------
    rng:
        ``None`` for a nondeterministic generator, an ``int`` seed for a
        reproducible one, or an existing generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, int, or numpy Generator, got {type(rng)!r}")


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators.

    Each call spawns fresh children, so two calls on the same ``rng`` give
    different streams.  The simulator gives every station its own stream.
    ``Generator(PCG64(seed))`` is what ``default_rng(seed)`` builds, at
    half the construction cost.
    """
    children = rng.bit_generator.seed_seq.spawn(n)
    return [np.random.Generator(np.random.PCG64(s)) for s in children]
