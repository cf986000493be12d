"""Content-addressed fingerprints of models and solver invocations.

A fingerprint is a SHA-256 digest of a *canonical* byte serialization of a
:class:`~repro.network.model.Network` plus the solver method and its
options.  Two invocations with the same fingerprint are guaranteed to
describe the same computation, so the digest is a safe cache key — stable
across process restarts, interpreter versions, and machines (float bytes are
serialized in fixed little-endian IEEE-754, independent of platform order).

Two versions keep stale on-disk cache entries from older code from being
served.  :data:`SCHEMA_VERSION` is baked into every digest, network digests
included: bump it only when the canonical encoding itself changes.  When
one solver starts giving different answers for the same call (a new
algorithm, a new random stream), bump that method in
:data:`ALGORITHM_VERSION` instead: only that method's solve keys move.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.network.model import Network

__all__ = [
    "FingerprintError",
    "fingerprint_network",
    "fingerprint_solve",
    "fingerprint_sweep",
]

#: Bump to invalidate every existing cache entry (canonical encoding).
SCHEMA_VERSION = 1

#: Per-method algorithm version, mixed into that method's solve keys only.
#: A method absent here keys exactly as before it was ever listed.
#: ``sim`` 2: per-station child streams, block-drawn variates.
#: ``lp`` 2: simplex bounds start from the solver's anchor basis.
ALGORITHM_VERSION: dict[str, int] = {"sim": 2, "lp": 2}


class FingerprintError(TypeError):
    """An object cannot be canonically serialized (i.e. is not cacheable)."""


def _canon(obj: Any) -> bytes:
    """Canonical byte encoding of a JSON-ish value tree.

    Supports None, bool, int, float, str, numpy scalars/arrays, and
    (possibly nested) list/tuple/dict.  Dict keys are sorted so option
    dictionaries hash identically regardless of construction order.
    """
    if obj is None:
        return b"n"
    if isinstance(obj, (bool, np.bool_)):
        return b"b1" if obj else b"b0"
    if isinstance(obj, (int, np.integer)):
        return b"i" + str(int(obj)).encode()
    if isinstance(obj, (float, np.floating)):
        return b"f" + np.float64(obj).astype("<f8").tobytes()
    if isinstance(obj, str):
        data = obj.encode()
        return b"s" + str(len(data)).encode() + b":" + data
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj, dtype=np.float64)
        shape = ",".join(str(d) for d in arr.shape).encode()
        return b"a" + shape + b":" + arr.astype("<f8").tobytes()
    if isinstance(obj, (list, tuple)):
        return b"l" + b"".join(_canon(v) for v in obj) + b"e"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise FingerprintError(f"dict keys must be str, got {key!r}")
            parts.append(_canon(key) + _canon(obj[key]))
        return b"d" + b"".join(parts) + b"e"
    raise FingerprintError(
        f"cannot fingerprint object of type {type(obj).__name__}: {obj!r}"
    )


def _network_tree(network: Network) -> dict:
    """The canonical value tree of a network (everything that defines it).

    Closed networks serialize exactly as they did before the unified
    ``Network`` redesign — same keys, same order-insensitive dict encoding —
    so pre-redesign digests (and every ``.repro-cache`` entry keyed by them)
    remain valid.  Open and mixed networks add their defining extras under
    new keys, which can never collide with a closed tree.
    """
    tree: dict = {
        "stations": [
            {
                "name": st.name,
                "kind": st.kind,
                "servers": st.servers,
                "D0": st.service.D0,
                "D1": st.service.D1,
            }
            for st in network.stations
        ],
        "routing": network.routing,
    }
    kind = getattr(network, "kind", "closed")
    if kind in ("closed", "mixed"):
        tree["population"] = network.population
    if kind != "closed":
        arrivals = network.arrivals
        tree["net_kind"] = kind
        tree["arrivals"] = {"D0": arrivals.D0, "D1": arrivals.D1}
        tree["entry"] = network.entry
        if network.open_routing is not None:
            tree["open_routing"] = network.open_routing
    return tree


def fingerprint_network(network: Network) -> str:
    """Hex digest identifying the model alone (no solver options)."""
    return hashlib.sha256(
        _canon({"schema": SCHEMA_VERSION, "network": _network_tree(network)})
    ).hexdigest()


def fingerprint_solve(
    network: Network, method: str, opts: dict[str, Any]
) -> str:
    """Hex digest identifying one ``solve(network, method, **opts)`` call.

    Methods listed in :data:`ALGORITHM_VERSION` also key on their version.

    Raises
    ------
    FingerprintError
        If any option value is not canonically serializable (e.g. a live
        ``FlowTap`` or an open generator): such calls must bypass the cache.
    """
    tree = {
        "schema": SCHEMA_VERSION,
        "network": _network_tree(network),
        "method": method,
        "opts": dict(opts),
    }
    if method in ALGORITHM_VERSION:
        tree["algorithm"] = ALGORITHM_VERSION[method]
    return hashlib.sha256(_canon(tree)).hexdigest()


def fingerprint_sweep(
    networks: "list[Network] | tuple[Network, ...]",
    method: str,
    opts: dict[str, Any] | None = None,
    per_point_opts: "list[dict[str, Any]] | None" = None,
) -> str:
    """Hex digest identifying a whole sweep (order-sensitive).

    The digest covers the per-point solve fingerprints, so two sweeps
    match exactly when every point would hit the same cache entries —
    scenario-declared sweeps (:class:`~repro.runtime.sweep.SweepSpec`) and
    hand-built network lists that compile to the same models are
    identified.

    Parameters
    ----------
    networks:
        The per-point models, in sweep order.
    method:
        Registered solver method name.
    opts:
        Solver options shared by every point (ignored when
        ``per_point_opts`` is given).
    per_point_opts:
        Per-point option dicts, one per network — used by
        :meth:`~repro.runtime.sweep.SweepSpec.fingerprint` to mix the
        derived per-point ``rng`` seeds of stochastic methods into the
        digest, mirroring the cache keys the runner would actually use.

    Returns
    -------
    str
        SHA-256 hex digest.
    """
    if per_point_opts is None:
        per_point_opts = [dict(opts or {})] * len(networks)
    elif len(per_point_opts) != len(networks):
        raise ValueError(
            f"per_point_opts has {len(per_point_opts)} entries for "
            f"{len(networks)} networks"
        )
    keys = [
        fingerprint_solve(net, method, dict(o))
        for net, o in zip(networks, per_point_opts)
    ]
    return hashlib.sha256(
        _canon({"schema": SCHEMA_VERSION, "sweep": keys})
    ).hexdigest()
