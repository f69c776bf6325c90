"""27-point stencil discretization model (Section 6.2, Figure 7).

A 3-D physical domain is decomposed into ``px x py x pz`` sub-cubes, one per
process.  Each process exchanges halos with its 26 neighbours — 6 faces, 12
edges, 8 corners (Figure 7b) — then participates in a global collective.

The per-neighbour message sizes follow the geometry of a sub-cube halo: for a
sub-cube of side ``n`` cells, a face halo carries O(n^2) cells, an edge halo
O(n), and a corner O(1).  The paper specifies only the *aggregate* bytes per
node per exchange (100 kB in Figure 8); we distribute the aggregate over the
26 neighbours proportionally to configurable face/edge/corner weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Neighbor:
    rank: int
    kind: str  # "face" | "edge" | "corner"
    size_flits: int


#: The 26 halo directions with their kinds, in enumeration order (Figure 7b).
NEIGHBOR_OFFSETS: tuple[tuple[tuple[int, int, int], str], ...] = tuple(
    (off, {1: "face", 2: "edge", 3: "corner"}[sum(1 for o in off if o != 0)])
    for off in itertools.product((-1, 0, 1), repeat=3)
    if off != (0, 0, 0)
)


class StencilDecomposition:
    """The process grid and halo-exchange traffic of a 27-point stencil."""

    def __init__(
        self,
        grid: tuple[int, int, int],
        aggregate_flits: int,
        periodic: bool = True,
        face_edge_corner_weights: tuple[float, float, float] = (16.0, 4.0, 1.0),
    ):
        if len(grid) != 3 or any(g < 1 for g in grid):
            raise ValueError("grid must be three positive extents")
        if aggregate_flits < 26:
            raise ValueError("aggregate must provide at least one flit per neighbour")
        self.grid = grid
        self.aggregate_flits = aggregate_flits
        self.periodic = periodic
        self.weights = dict(
            zip(("face", "edge", "corner"), face_edge_corner_weights)
        )
        if any(w <= 0 for w in self.weights.values()):
            raise ValueError("face/edge/corner weights must be positive")
        self.num_ranks = grid[0] * grid[1] * grid[2]
        # rank -> its neighbour tuple, filled by the first neighbors(rank):
        # the schedule is static, so a run derives each rank's row once.
        self._neighbors: dict[int, tuple[Neighbor, ...]] = {}

    # -- rank <-> grid coordinates --------------------------------------

    def coords(self, rank: int) -> tuple[int, int, int]:
        gx, gy, gz = self.grid
        x = rank % gx
        y = (rank // gx) % gy
        z = rank // (gx * gy)
        return (x, y, z)

    def rank_id(self, coords: tuple[int, int, int]) -> int:
        gx, gy, _ = self.grid
        x, y, z = coords
        return x + y * gx + z * gx * gy

    # -- neighbours ------------------------------------------------------

    def neighbors(self, rank: int) -> tuple[Neighbor, ...]:
        """The rank's halo partners with their per-message sizes in flits.

        Message sizes are the aggregate split proportionally to the
        face/edge/corner weights of the neighbours that actually exist (at
        domain boundaries of a non-periodic decomposition some are missing),
        with a minimum of one flit each.  The tuple is derived on the first
        call for a rank and returned as is thereafter.
        """
        nbrs = self._neighbors.get(rank)
        if nbrs is None:
            nbrs = self._neighbors[rank] = self._enumerate_neighbors(rank)
        return nbrs

    def _enumerate_neighbors(self, rank: int) -> tuple[Neighbor, ...]:
        x, y, z = self.coords(rank)
        gx, gy, gz = self.grid
        found: list[tuple[int, str]] = []
        for off, kind in NEIGHBOR_OFFSETS:
            nx, ny, nz_ = x + off[0], y + off[1], z + off[2]
            if self.periodic:
                nx, ny, nz_ = nx % gx, ny % gy, nz_ % gz
            elif not (0 <= nx < gx and 0 <= ny < gy and 0 <= nz_ < gz):
                continue
            nbr = self.rank_id((nx, ny, nz_))
            if nbr == rank:
                continue  # periodic wrap onto self in a degenerate dimension
            found.append((nbr, kind))
        total_weight = sum(self.weights[kind] for _, kind in found)
        return tuple(
            Neighbor(
                rank=nbr,
                kind=kind,
                size_flits=max(
                    1, round(self.aggregate_flits * self.weights[kind] / total_weight)
                ),
            )
            for nbr, kind in found
        )

    def neighbor_count(self, rank: int) -> int:
        return len(self.neighbors(rank))

    def traffic_matrix(self) -> dict[tuple[int, int], int]:
        """(src, dst) -> flits per halo exchange, for all ranks."""
        out: dict[tuple[int, int], int] = {}
        for r in range(self.num_ranks):
            for n in self.neighbors(r):
                out[(r, n.rank)] = out.get((r, n.rank), 0) + n.size_flits
        return out
