"""Exact constraint families of the marginal-balance LP.

Every equality/inequality emitted here is *exact*: it is satisfied by the
projection of the true stationary distribution of the network CTMC onto the
marginal variable space (machine-checked by ``tests/core/test_projection``).
The bound property of the method rests entirely on this exactness — the LP
optimizes over a polytope guaranteed to contain the truth, as in the paper's
Section 2.

Families (letters match DESIGN.md §2):

A. level-phase balance of the set ``{n_k = n, h_k = h}`` — the aggregated
   global-balance equations across the paper's *marginal cuts*, with
   arrival flows expressed through ``V`` (constant-rate sources) or ``G``
   (delay sources);
B. phase-aggregated cut balance (paper eq. (1)); implied by A, optional;
C. V/W <-> pi consistency;
D. pair symmetry between ``V_jk`` / ``V_kj`` / ``W_kj``;
E. normalization (structural zeros are handled as variable bounds);
F. throughput flow balance (implied by A+C, optional);
G. population couplings through the conditional first moments ``G_jk``,
   plus the G/V sandwich inequalities;
H. conditional first-moment *drift balances*: ``d/dt E[n_j 1{h_j=a, n_k=n,
   h_k=h}] = 0`` expanded over the network generator.  Third-party flows
   (stations i outside the pair) enter through the triple-joint variables
   ``S``/``T``; the family is emitted for each pair whose third-party
   sources are constant-rate (queue-kind) stations;
SC/TC. consistency of the triple variables with the pair marginals
   (phase marginalization, Frechet-type sandwiches, population and
   moment-marginalization identities).

Load-dependent *multiserver* stations are rejected: their departure rate
conditioned on another station's state needs ``E[min(n_j, s); ...]``, which
is not a variable of this LP (delay stations are fine — their rate is
linear in ``n_j``, which is exactly ``G``).

Assembly is performed by the vectorized block kernel in
:mod:`repro.core.assembly` (family-level COO emission over ``(a, n, h)``
index grids, with per-topology pattern caching); the original row-by-row
emitter survives as :func:`build_constraints_reference` and the two are
asserted polytope-identical by ``tests/core/test_assembly_equivalence``.
"""

from __future__ import annotations

from repro.core.assembly import AssemblyCache, ConstraintSystem, assemble
from repro.core.assembly_reference import build_constraints_reference
from repro.core.variables import VariableIndex
from repro.network.model import Network, require_closed

__all__ = [
    "ConstraintSystem",
    "build_constraints",
    "build_constraints_reference",
]


def build_constraints(
    network: Network,
    vi: VariableIndex | None = None,
    include_redundant: bool = False,
    triples: bool | None = None,
    cache: AssemblyCache | None = None,
) -> ConstraintSystem:
    """Assemble all exact constraint families for ``network``.

    Parameters
    ----------
    network:
        The closed MAP network (queue/delay stations only).
    vi:
        Optional pre-built variable index.
    include_redundant:
        Also emit families B and F, which are linear combinations of A + C.
        They do not change the polytope; exposed for ablation experiments.
    triples:
        Enable the triple-variable tier (families H/SC/TC).  ``None`` means
        automatic (on for M >= 3); ``False`` gives the cheaper pair-only
        relaxation used by the constraint-ablation benchmark.
    cache:
        The :class:`~repro.core.assembly.AssemblyCache` to look the plan up
        in; ``None`` uses the process-wide default cache.
    """
    require_closed(network, "lp")
    if vi is not None and triples is None:
        # A pre-built index fixes the constraint tier (seed semantics:
        # the families consult vi.triples, not the keyword).
        triples = vi.triples
    return assemble(
        network,
        vi=vi,
        include_redundant=include_redundant,
        triples=triples,
        cache=cache,
    )
