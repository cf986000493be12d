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

:func:`build_constraints` is the vectorized block kernel of
:mod:`repro.core.assembly` (family-level COO emission over ``(a, n, h)``
index grids), the one way the LP's polytope is built; the original
row-by-row emitter survives as :func:`build_constraints_reference` and the
two are asserted polytope-identical by
``tests/core/test_assembly_equivalence``.
"""

from repro.core.assembly import ConstraintSystem, build_constraints
from repro.core.assembly_reference import build_constraints_reference

__all__ = [
    "ConstraintSystem",
    "build_constraints",
    "build_constraints_reference",
]
