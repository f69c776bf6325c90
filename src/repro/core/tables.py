"""Table-based routing and the Section 5.4 area analysis.

Real high-radix routers (Cray Aries, Gen-Z) implement routing as table
lookups.  Section 5.4 argues this is exactly why DimWAR and OmniWAR are
practical: their entire per-packet state is the VC identifier, so a route
is a lookup on (destination, input resource class) — no packet fields, no
special architecture.  Adaptive *source* algorithms, by contrast, carry an
intermediate address in the packet and make stateful decisions that a pure
table cannot express.

This module makes that argument executable:

* :func:`compile_tables` walks every reachable (router, input class,
  destination) state of a table-compatible algorithm and records its
  candidate set — the content of the router's routing table;
* :class:`TableRouting` is a drop-in :class:`RoutingAlgorithm` that routes
  from the compiled table; tests verify it is cycle-identical to the
  algorithmic original;
* :func:`full_table_geometry` / :func:`optimized_table_geometry` reproduce
  the area discussion: table depth x width, where "advanced routing
  architectures have size-optimized tables" — per-dimension indexing drops
  the depth from O(routers) to O(sum of widths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..topology.hyperx import HyperX
from .base import RouteCandidate, RouteContext, RoutingAlgorithm


class TableCompilationError(Exception):
    """The algorithm cannot be expressed as a (dest, class) lookup table."""


@dataclass(frozen=True)
class TableEntry:
    out_port: int
    vc_class: int
    hops: int
    deroute: bool

    @staticmethod
    def from_candidate(c: RouteCandidate) -> "TableEntry":
        return TableEntry(c.out_port, c.vc_class, c.hops, c.deroute)

    def to_candidate(self) -> RouteCandidate:
        return RouteCandidate(
            out_port=self.out_port,
            vc_class=self.vc_class,
            hops=self.hops,
            deroute=self.deroute,
        )


@dataclass
class _Probe:
    """Mock router view (the whole :class:`RouterView`: a router id)."""

    router_id: int


@dataclass
class _ProbePacket:
    """Minimal packet stand-in; mutation of routing state is detected."""

    dst_terminal: int
    src_terminal: int = 0
    routing_state: dict | None = None

    def __post_init__(self):
        self.routing_state = {}


class CompiledTables:
    """Per-router routing tables: (dest router, input class) -> entries."""

    def __init__(self, topology: HyperX, algorithm_name: str, num_classes: int):
        self.topology = topology
        self.algorithm_name = algorithm_name
        self.num_classes = num_classes
        self.tables: list[dict[tuple[int, int], tuple[TableEntry, ...]]] = [
            {} for _ in range(topology.num_routers)
        ]

    def lookup(self, router: int, dest_router: int, input_class: int):
        return self.tables[router].get((dest_router, input_class))

    @property
    def total_entries(self) -> int:
        return sum(len(t) for t in self.tables)

    @property
    def max_options(self) -> int:
        """Widest candidate set in any row (the 'options per entry')."""
        return max(
            (len(v) for t in self.tables for v in t.values()), default=0
        )


def compile_tables(topology: HyperX, algorithm: RoutingAlgorithm) -> CompiledTables:
    """Enumerate every reachable routing state into lookup tables.

    Raises :class:`TableCompilationError` for algorithms whose decisions
    depend on per-packet state beyond the VC class (VAL/UGAL/Clos-AD carry
    an intermediate address — Table 1's "packet contents" cost) or on the
    input port (the OmniWAR back-to-back variant).
    """
    if algorithm.packet_contents != "none":
        raise TableCompilationError(
            f"{algorithm.name} stores '{algorithm.packet_contents}' in the "
            "packet; its routing is not a pure (dest, class) table lookup"
        )
    if getattr(algorithm, "restrict_back_to_back", False):
        raise TableCompilationError(
            "the back-to-back restriction keys on the input port; compile "
            "the unrestricted OmniWAR instead (or widen tables per port)"
        )
    tpr = topology.terminals_per_router
    compiled = CompiledTables(topology, algorithm.name, algorithm.num_classes)
    seen: set[tuple[int, int, int]] = set()
    frontier: list[tuple[int, int | None, int]] = []
    for src in range(topology.num_routers):
        for dst in range(topology.num_routers):
            if src != dst:
                frontier.append((src, None, dst))
    while frontier:
        router, in_class, dst = frontier.pop()
        key = (router, -1 if in_class is None else in_class, dst)
        if key in seen:
            continue
        seen.add(key)
        packet = _ProbePacket(dst_terminal=dst * tpr)
        ctx = RouteContext(
            router=_Probe(router),
            packet=packet,
            input_port=topology.terminal_port(0),
            input_vc_class=0 if in_class is None else in_class,
            from_terminal=in_class is None,
        )
        cands = algorithm.candidates(ctx)
        if packet.routing_state:
            raise TableCompilationError(
                f"{algorithm.name} wrote routing state during enumeration"
            )
        entries = tuple(TableEntry.from_candidate(c) for c in cands)
        # Injection (arrival from the terminal port) gets its own row class:
        # distance-class algorithms route differently at hop 0 than on an
        # arrival at class 0, so the two must not share a table row.
        table_class = -1 if in_class is None else in_class
        existing = compiled.tables[router].get((dst, table_class))
        if existing is None:
            compiled.tables[router][(dst, table_class)] = entries
        elif set(existing) != set(entries):
            raise TableCompilationError(
                f"{algorithm.name} gives different candidates for the same "
                f"(dest, class) row — not table-expressible"
            )
        for c in cands:
            nbr = topology.peer(router, c.out_port).router_port
            if nbr.router != dst:
                frontier.append((nbr.router, c.vc_class, dst))
    return compiled


class TableRouting(RoutingAlgorithm):
    """Routes from a compiled table — the Section 5.4 deployment model."""

    incremental = True
    packet_contents = "none"
    architecture_requirements = "none (table lookup)"

    def __init__(self, compiled: CompiledTables):
        super().__init__(compiled.topology)
        self.compiled = compiled
        self.name = f"{compiled.algorithm_name}@table"
        self.num_classes = compiled.num_classes
        self._tpr = compiled.topology.terminals_per_router

    def candidates(self, ctx: RouteContext) -> list[RouteCandidate]:
        dest_router = ctx.packet.dst_terminal // self._tpr
        klass = -1 if ctx.from_terminal else ctx.input_vc_class
        entries = self.compiled.lookup(ctx.router.router_id, dest_router, klass)
        if entries is None:
            raise RuntimeError(
                f"no table row for router {ctx.router.router_id} -> "
                f"{dest_router} class {klass}: unreachable state"
            )
        return [e.to_candidate() for e in entries]


# ---------------------------------------------------------------------------
# Area model (Section 5.4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableGeometry:
    """Routing-table silicon geometry: depth (rows) x width (bits/row)."""

    algorithm: str
    style: str  # "full" | "size-optimized"
    depth: int
    options_per_entry: int
    entry_bits: int

    @property
    def width_bits(self) -> int:
        return self.options_per_entry * self.entry_bits

    @property
    def total_bits(self) -> int:
        return self.depth * self.width_bits


def _entry_bits(topology: HyperX, num_classes: int) -> int:
    port_bits = math.ceil(math.log2(max(2, topology.router_radix)))
    class_bits = math.ceil(math.log2(max(2, num_classes)))
    return port_bits + class_bits


def full_table_geometry(
    topology: HyperX, algorithm: RoutingAlgorithm, compiled: CompiledTables | None = None
) -> TableGeometry:
    """Flat destination-indexed table: depth = dests x classes."""
    compiled = compiled or compile_tables(topology, algorithm)
    depth = (topology.num_routers - 1) * algorithm.num_classes
    return TableGeometry(
        algorithm=algorithm.name,
        style="full",
        depth=depth,
        options_per_entry=max(1, compiled.max_options),
        entry_bits=_entry_bits(topology, algorithm.num_classes),
    )


def optimized_table_geometry(
    topology: HyperX, algorithm: RoutingAlgorithm, compiled: CompiledTables | None = None
) -> TableGeometry:
    """Size-optimized (Aries/Gen-Z style) per-dimension tables.

    HyperX routing decomposes per dimension: the row index is (dimension,
    destination coordinate, class), so the depth is ``sum(w_d) x classes``
    instead of ``prod(w_d) x classes`` — "the depth of the tables is
    greatly reduced" (Section 5.4).  The options per row shrink to the
    per-dimension maximum (the aligning port plus the dimension's deroutes).
    """
    compiled = compiled or compile_tables(topology, algorithm)
    depth = sum(topology.widths) * algorithm.num_classes
    max_width = max(topology.widths)
    per_dim_options = min(compiled.max_options, max_width - 1)
    return TableGeometry(
        algorithm=algorithm.name,
        style="size-optimized",
        depth=depth,
        options_per_entry=max(1, per_dim_options),
        entry_bits=_entry_bits(topology, algorithm.num_classes),
    )
