"""Pluggable interconnect topologies behind one engine.

The simulator historically hard-wired the Boolean n-cube.  This
subpackage abstracts the interconnect into a
:class:`~repro.topology.base.Topology` protocol — node set, directed
links, deterministic neighbour order, shortest-path routing hook,
structural invariants — with three instances:

* :class:`~repro.topology.hypercube.Hypercube` — the paper's n-cube,
  preserving the historical engine/router/fault behaviour bit-for-bit;
* :class:`~repro.topology.torus.TorusMesh` — k-ary n-dimensional torus
  (wrap optional: an open mesh);
* :class:`~repro.topology.dragonfly.SwappedDragonfly` — Draper's
  ``D3(K, M)`` swapped dragonfly.

:func:`parse_topology` turns CLI/request specs (``cube``,
``torus:4x4x4``, ``mesh:8x8``, ``dragonfly:2,4``) into instances
(:func:`topology_for` also holds them to an ``n``-cube's node count), and
:func:`repro.topology.capabilities.supported_algorithms` tells the
planner which ladder tiers survive on each (routed-universal is the
floor everywhere).

Layering: this subpackage sits *below* :mod:`repro.machine` — it may
import :mod:`repro.cube` and :mod:`repro.codes` but never the engine.
"""

from __future__ import annotations

from repro.topology.base import Topology, TopologyError
from repro.topology.capabilities import capability_table, supported_algorithms
from repro.topology.dragonfly import SwappedDragonfly
from repro.topology.hypercube import Hypercube
from repro.topology.torus import TorusMesh

__all__ = [
    "Hypercube",
    "SwappedDragonfly",
    "Topology",
    "TopologyError",
    "TorusMesh",
    "capability_table",
    "parse_topology",
    "supported_algorithms",
    "topology_for",
]


def parse_topology(spec: str | Topology | None, n: int) -> Topology:
    """Build a :class:`Topology` from a CLI/request spec string.

    Accepted forms (case-insensitive family names):

    * ``cube`` or ``cube:K`` — Boolean K-cube (default dimension ``n``);
    * ``torus:4x4x4`` / ``mesh:8x8`` — per-axis radices joined by ``x``;
    * ``dragonfly:K,M`` — swapped dragonfly, K global ports, M groups
      of M routers.

    ``None`` and ``""`` mean the default ``n``-cube; an existing
    :class:`Topology` instance passes through unchanged.  Malformed or
    unknown specs raise :class:`TopologyError` naming the spec.
    """
    if isinstance(spec, Topology):
        return spec
    if spec is None or spec == "":
        return Hypercube(n)
    family, _, rest = spec.partition(":")
    family = family.strip().lower()
    rest = rest.strip()
    if family == "cube":
        dim = n if not rest else _int_field(spec, "dimension", rest)
        return Hypercube(dim)
    if family in ("torus", "mesh"):
        if not rest:
            raise TopologyError(
                f"topology spec {spec!r}: {family} needs axis radices, "
                f"e.g. '{family}:4x4x4'"
            )
        dims = [
            _int_field(spec, "axis radix", part) for part in rest.split("x")
        ]
        return TorusMesh(dims, wrap=family == "torus")
    if family == "dragonfly":
        parts = rest.split(",")
        if len(parts) != 2 or not rest:
            raise TopologyError(
                f"topology spec {spec!r}: dragonfly takes 'dragonfly:K,M' "
                "(K global ports, M groups of M routers)"
            )
        k = _int_field(spec, "K", parts[0])
        m = _int_field(spec, "M", parts[1])
        return SwappedDragonfly(k, m)
    raise TopologyError(
        f"unknown topology family {family!r} in spec {spec!r} "
        "(known: cube, torus, mesh, dragonfly)"
    )


def _int_field(spec: str, what: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise TopologyError(
            f"topology spec {spec!r}: {what} {text.strip()!r} is not an "
            "integer"
        ) from None


def topology_for(spec: str | Topology | None, n: int) -> Topology:
    """:func:`parse_topology`, held to the ``2**n`` nodes an ``n``-cube
    problem addresses (:class:`TopologyError` otherwise)."""
    topo = parse_topology(spec, n)
    if topo.num_nodes != 1 << n:
        raise TopologyError(
            f"topology {topo.spec!r} has {topo.num_nodes} nodes but a "
            f"{n}-cube problem needs 2^{n} = {1 << n}"
        )
    return topo
