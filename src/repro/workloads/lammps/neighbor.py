"""Neighbor-list construction: linked cells + half Verlet lists.

The same binning/stenciling scheme LAMMPS uses: atoms are binned into
cells no smaller than ``cutoff + skin``; candidate pairs come from each
cell and its half stencil of neighbouring cells (so each pair appears
once); the half list is then distance-filtered.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_cells", "half_neighbor_list", "NeighborList"]


class NeighborList:
    """Half neighbor list: pairs (i, j) with i < j within cutoff + skin."""

    def __init__(self, pairs_i: np.ndarray, pairs_j: np.ndarray,
                 cutoff: float, skin: float) -> None:
        self.i = pairs_i
        self.j = pairs_j
        self.cutoff = cutoff
        self.skin = skin

    def filter_within(self, pos: np.ndarray, box: float,
                      rc: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairs currently within *rc* plus their minimum-image vectors."""
        d = pos[self.i] - pos[self.j]
        d -= box * np.round(d / box)
        r2 = np.sum(d * d, axis=1)
        m = r2 < rc * rc
        return self.i[m], self.j[m], d[m]


def build_cells(pos: np.ndarray, box: float, cell_size: float):
    """Bin atoms into cells; returns (ncell_per_dim, cell index per atom)."""
    nc = max(1, int(box / cell_size))
    cell_len = box / nc
    ijk = np.floor(pos / cell_len).astype(np.int64) % nc
    idx = (ijk[:, 0] * nc + ijk[:, 1]) * nc + ijk[:, 2]
    return nc, idx


#: half stencil: a cell pairs with itself and 13 of its 26 neighbours
_HALF_STENCIL = [
    (0, 0, 0),
    (1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 1, 0),
    (1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 1, 1),
    (0, 0, 1), (-1, 0, 1), (1, -1, 1), (0, -1, 1), (-1, -1, 1),
]


def half_neighbor_list(pos: np.ndarray, box: float, cutoff: float,
                       skin: float = 0.3) -> NeighborList:
    """Build a half neighbor list with linked cells (periodic box)."""
    n = len(pos)
    reach = cutoff + skin
    nc, cell_of = build_cells(pos, box, reach)
    # bucket atoms by cell
    order = np.argsort(cell_of, kind="stable")
    sorted_cells = cell_of[order]
    starts = np.searchsorted(sorted_cells, np.arange(nc**3 + 1))

    def atoms_in(cx, cy, cz):
        c = ((cx % nc) * nc + (cy % nc)) * nc + (cz % nc)
        return order[starts[c]:starts[c + 1]]

    pi_parts: list[np.ndarray] = []
    pj_parts: list[np.ndarray] = []
    for cx in range(nc):
        for cy in range(nc):
            for cz in range(nc):
                home = atoms_in(cx, cy, cz)
                if home.size == 0:
                    continue
                home_key = ((cx % nc) * nc + (cy % nc)) * nc + (cz % nc)
                seen = {home_key}
                if home.size > 1:
                    a, b = np.triu_indices(home.size, k=1)
                    pi_parts.append(home[a])
                    pj_parts.append(home[b])
                for dx, dy, dz in _HALF_STENCIL[1:]:
                    # small boxes: offsets can wrap onto already-visited
                    # cells (including home); visit each effective cell once
                    key = (((cx + dx) % nc) * nc + ((cy + dy) % nc)) * nc \
                        + ((cz + dz) % nc)
                    if key in seen:
                        continue
                    seen.add(key)
                    other = atoms_in(cx + dx, cy + dy, cz + dz)
                    if other.size == 0:
                        continue
                    a = np.repeat(home, other.size)
                    b = np.tile(other, home.size)
                    pi_parts.append(a)
                    pj_parts.append(b)
    if pi_parts:
        pi = np.concatenate(pi_parts)
        pj = np.concatenate(pj_parts)
        # distance filter at cutoff + skin
        d = pos[pi] - pos[pj]
        d -= box * np.round(d / box)
        r2 = np.sum(d * d, axis=1)
        m = r2 < reach * reach
        pi, pj = pi[m], pj[m]
        # dedupe (tiny boxes can alias cells through periodic wrap)
        key = np.minimum(pi, pj) * np.int64(n) + np.maximum(pi, pj)
        _, uniq = np.unique(key, return_index=True)
        pi, pj = pi[uniq], pj[uniq]
    else:
        pi = pj = np.empty(0, dtype=np.int64)
    return NeighborList(pi, pj, cutoff, skin)
