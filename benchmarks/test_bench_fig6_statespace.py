"""Figure 6 bench: the underlying CTMC of the example MAP network.

The paper's Figure 6 draws the Markov process of the Figure 5 network for
an MMPP(2) service and N = 2: exactly 12 states (6 population compositions
x 2 phases) with the transition inventory described in its caption.  This
bench asserts that structure and times generator assembly at a population
where the state space is genuinely large (the "explosion" the bounds
avoid).
"""

import numpy as np
import pytest

from repro.maps import exponential, mmpp2
from repro.network import Network, NetworkStateSpace, build_generator, queue
from repro.experiments.fig8 import FIG5_ROUTING


def fig6_network(N: int) -> Network:
    return Network(
        [
            queue("q1", exponential(1.0)),
            queue("q2", exponential(2.0)),
            queue("q3", mmpp2(0.5, 0.7, 3.0, 0.3)),
        ],
        FIG5_ROUTING,
        N,
    )


def test_fig6_state_space_structure(once):
    net = fig6_network(2)
    space = NetworkStateSpace(net)
    assert space.size == 12  # the twelve states drawn in Figure 6
    assert space.comp.size == 6
    assert space.n_phase == 2

    Q = build_generator(net, space)
    # Generator sanity: rows sum to zero, off-diagonal nonnegative.
    assert np.abs(np.asarray(Q.sum(axis=1))).max() < 1e-10
    dense = Q.toarray()
    off = dense - np.diag(np.diag(dense))
    assert off.min() >= 0.0

    # Phase-frozen idle semantics: a state with queue 3 empty has no
    # transition that changes only queue 3's phase.
    for idx in range(space.size):
        comp, ph = space.decode(idx)
        if comp[2] == 0:
            for jdx in range(space.size):
                comp2, ph2 = space.decode(jdx)
                if (
                    np.array_equal(comp, comp2)
                    and ph2[2] != ph[2]
                    and dense[idx, jdx] > 0
                ):
                    pytest.fail("idle MAP queue changed phase")

    # Benchmark: generator assembly at the explosion scale (N = 150).
    big = fig6_network(150)
    Qbig = once(build_generator, big)
    assert Qbig.shape[0] == NetworkStateSpace(big).size
