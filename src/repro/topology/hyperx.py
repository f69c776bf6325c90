"""HyperX topology (Ahn et al., SC '09).

A HyperX is an L-dimensional integer lattice in which every dimension is
*fully connected*: a router at coordinate ``c`` has a direct channel to every
router that differs from it in exactly one coordinate.  The HyperX family
generalizes the HyperCube (all widths 2) and the Flattened Butterfly.

The paper evaluates a regular 3-D HyperX with widths ``(8, 8, 8)`` and 8
terminals per router (4,096 nodes).  This class supports arbitrary per-
dimension widths and terminal counts.

Port layout per router (used consistently by the simulator and the routing
algorithms)::

    ports [0 .. sum(w_d - 1))           router-to-router, dimension-major
    ports [sum(w_d - 1) .. radix)       terminal ports

Within dimension ``d`` the ports are ordered by target coordinate, skipping
the router's own coordinate.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Iterator

from .base import PortPeer, RouterPort, Topology


class HyperX(Topology):
    """A general HyperX network.

    Parameters
    ----------
    widths:
        Per-dimension widths ``(S_1, ..., S_L)``; each must be >= 2.
    terminals_per_router:
        Number of endpoints attached to every router (``T`` in the paper).
    """

    name = "hyperx"

    def __init__(self, widths: tuple[int, ...] | list[int], terminals_per_router: int):
        widths = tuple(int(w) for w in widths)
        if not widths:
            raise ValueError("HyperX needs at least one dimension")
        if any(w < 2 for w in widths):
            raise ValueError(f"every dimension width must be >= 2, got {widths}")
        if terminals_per_router < 1:
            raise ValueError("terminals_per_router must be >= 1")
        self.widths = widths
        self.terminals_per_router = int(terminals_per_router)
        self.num_dims = len(widths)
        self._num_routers = reduce(lambda a, b: a * b, widths, 1)
        # Port offset of each dimension's port block.
        self._dim_offset: list[int] = []
        off = 0
        for w in widths:
            self._dim_offset.append(off)
            off += w - 1
        self._router_ports = off  # total router-facing ports per router
        self._radix = off + self.terminals_per_router
        # Mixed-radix strides for id <-> coordinate conversion (dim 0 fastest).
        self._strides: list[int] = []
        s = 1
        for w in widths:
            self._strides.append(s)
            s *= w
        # Port-walk template: HyperX is vertex-transitive within a dimension,
        # so the (port, router-id delta, back port) triples of dimension
        # ``d`` depend only on the router's own coordinate in ``d``.
        # _port_walk[d][own] lists them in port order; router_ports() adds
        # the router id instead of re-deriving coordinates per port.
        self._port_walk: list[list[list[tuple[int, int, int]]]] = [
            [
                [
                    (
                        off + (c if c < own else c - 1),
                        (c - own) * stride,
                        off + (own if own < c else own - 1),
                    )
                    for c in range(w) if c != own
                ]
                for own in range(w)
            ]
            for w, off, stride in zip(widths, self._dim_offset, self._strides)
        ]
        # Coordinate cache: routing algorithms call coords() on every hop.
        self._coords_cache: list[tuple[int, ...]] | None = None
        if self._num_routers <= 1 << 20:
            self._coords_cache = [self._coords_slow(r) for r in range(self._num_routers)]

    # ------------------------------------------------------------------
    # Identity / coordinates
    # ------------------------------------------------------------------

    @property
    def num_routers(self) -> int:
        return self._num_routers

    @property
    def num_terminals(self) -> int:
        return self._num_routers * self.terminals_per_router

    @property
    def router_radix(self) -> int:
        """Radix of every router (HyperX is router-regular)."""
        return self._radix

    @property
    def num_router_ports(self) -> int:
        """Number of router-facing ports on each router."""
        return self._router_ports

    def radix(self, router: int) -> int:
        return self._radix

    def coords(self, router: int) -> tuple[int, ...]:
        """Coordinates of ``router`` (dimension 0 varies fastest)."""
        if self._coords_cache is not None:
            return self._coords_cache[router]
        return self._coords_slow(router)

    def _coords_slow(self, router: int) -> tuple[int, ...]:
        out = []
        for w in self.widths:
            out.append(router % w)
            router //= w
        return tuple(out)

    def router_id(self, coords: tuple[int, ...] | list[int]) -> int:
        if len(coords) != self.num_dims:
            raise ValueError(f"expected {self.num_dims} coordinates, got {coords}")
        rid = 0
        for c, w, s in zip(coords, self.widths, self._strides):
            if not 0 <= c < w:
                raise ValueError(f"coordinate {c} out of range [0,{w})")
            rid += c * s
        return rid

    def all_coords(self):
        """Iterate the coordinates of every router (in router-id order)."""
        return (
            tuple(reversed(c))
            for c in itertools.product(*[range(w) for w in reversed(self.widths)])
        )

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------

    def dim_port(self, router: int, dim: int, target_coord: int) -> int:
        """Port on ``router`` leading to ``target_coord`` in dimension ``dim``."""
        own = self.coords(router)[dim]
        if target_coord == own:
            raise ValueError("no self port: target coordinate equals own")
        if not 0 <= target_coord < self.widths[dim]:
            raise ValueError(f"target coordinate {target_coord} out of range")
        idx = target_coord if target_coord < own else target_coord - 1
        return self._dim_offset[dim] + idx

    def port_target(self, router: int, port: int) -> tuple[int, int]:
        """Inverse of :meth:`dim_port`: map a router-facing port to (dim, coord)."""
        if not 0 <= port < self._router_ports:
            raise ValueError(f"port {port} is not a router-facing port")
        for dim in range(self.num_dims - 1, -1, -1):
            if port >= self._dim_offset[dim]:
                idx = port - self._dim_offset[dim]
                own = self.coords(router)[dim]
                coord = idx if idx < own else idx + 1
                return dim, coord
        raise AssertionError("unreachable")

    def port_dim(self, router: int, port: int) -> int:
        """Dimension a router-facing port travels in."""
        return self.port_target(router, port)[0]

    def terminal_port(self, local_terminal: int) -> int:
        """Port index of the ``local_terminal``-th terminal on any router."""
        if not 0 <= local_terminal < self.terminals_per_router:
            raise ValueError("local terminal index out of range")
        return self._router_ports + local_terminal

    def is_terminal_port(self, port: int) -> bool:
        return port >= self._router_ports

    def peer(self, router: int, port: int) -> PortPeer:
        if port >= self._radix or port < 0:
            raise ValueError(f"port {port} out of range for radix {self._radix}")
        if self.is_terminal_port(port):
            local = port - self._router_ports
            return PortPeer(terminal=router * self.terminals_per_router + local)
        dim, coord = self.port_target(router, port)
        c = list(self.coords(router))
        src_coord = c[dim]
        c[dim] = coord
        nbr = self.router_id(c)
        back = self.dim_port(nbr, dim, src_coord)
        return PortPeer(router_port=RouterPort(nbr, back))

    def router_ports(self, router: int) -> Iterator[tuple[int, PortPeer]]:
        """The same ``(port, peer)`` pairs as the generic per-port
        :meth:`peer` walk (which stays the single-port reference), read off
        the per-dimension template built in ``__init__``."""
        for walk, own in zip(self._port_walk, self.coords(router)):
            for port, delta, back in walk[own]:
                yield port, PortPeer(router_port=RouterPort(router + delta, back))
        first = router * self.terminals_per_router
        for local in range(self.terminals_per_router):
            yield self._router_ports + local, PortPeer(terminal=first + local)

    def terminal_attachment(self, terminal: int) -> RouterPort:
        if not 0 <= terminal < self.num_terminals:
            raise ValueError("terminal id out of range")
        router, local = divmod(terminal, self.terminals_per_router)
        return RouterPort(router, self.terminal_port(local))

    def neighbor(self, router: int, dim: int, coord: int) -> int:
        """Id of the router at ``coord`` in dimension ``dim`` from ``router``."""
        own = self.coords(router)[dim]
        if coord == own:
            raise ValueError("neighbor coordinate equals own coordinate")
        if not 0 <= coord < self.widths[dim]:
            raise ValueError(f"coordinate {coord} out of range")
        return router + (coord - own) * self._strides[dim]

    # ------------------------------------------------------------------
    # Distance / routing helpers
    # ------------------------------------------------------------------

    def min_hops(self, src_router: int, dst_router: int) -> int:
        a = self.coords(src_router)
        b = self.coords(dst_router)
        return sum(1 for x, y in zip(a, b) if x != y)

    def unaligned_dims(
        self, coords: tuple[int, ...], dest: tuple[int, ...]
    ) -> list[int]:
        """Dimensions in which ``coords`` differs from ``dest``."""
        return [d for d in range(self.num_dims) if coords[d] != dest[d]]

    def bisection_channels(self, dim: int) -> int:
        """Directed channels crossing the even/odd bisection of ``dim``.

        For a fully connected dimension of width ``w`` split into two halves of
        ``w/2`` routers each, ``(w/2)^2`` channels cross in each direction per
        instance of the dimension.
        """
        w = self.widths[dim]
        half = w // 2
        other = self._num_routers // w
        return half * (w - half) * other

    def relative_bisection_bandwidth(self, dim: int) -> float:
        """Bisection channel bandwidth over injection bandwidth of one half.

        The paper's 8-wide dimension with 8 terminals per router yields 0.5
        (hence "assuming the bisection capacity of the network is 50%").
        """
        w = self.widths[dim]
        half = w // 2
        crossing = half * (w - half)  # per dimension instance, one direction
        injecting = half * self.terminals_per_router
        return crossing / injecting

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HyperX(widths={self.widths}, "
            f"terminals_per_router={self.terminals_per_router})"
        )


def regular_hyperx(dims: int, width: int, terminals_per_router: int) -> HyperX:
    """Convenience constructor for a regular HyperX (all widths equal)."""
    return HyperX((width,) * dims, terminals_per_router)


def paper_hyperx() -> HyperX:
    """The paper's evaluation network: 8x8x8 routers, 8 terminals each (4,096
    nodes, radix-29 routers)."""
    return regular_hyperx(3, 8, 8)
