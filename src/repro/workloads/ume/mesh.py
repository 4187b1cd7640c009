"""UME-style unstructured mesh with explicit connectivity hierarchy.

UME (Unstructured Mesh Explorations, LANL) studies the memory-access
patterns of multiphysics codes: even when the mesh is logically a box of
hexahedral zones, the *representation* stores every connectivity map
explicitly — zones->points, zones->faces, faces->points, corners
(zone x point incidences), edges — so every kernel walks multi-level
indirection with high integer-op counts and low FP intensity (paper §3.2.3:
~8 corners, ~12 edges, ~8 points, ~6 faces per zone).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UnstructuredMesh", "build_box_mesh"]


@dataclass
class UnstructuredMesh:
    """Explicit-connectivity hexahedral mesh.

    All maps are index arrays; ``corner_zone[c]`` / ``corner_point[c]``
    enumerate the zone x point incidence pairs (8 per zone), the unit of
    work for subzonal physics.
    """

    n: int                          #: zones per edge (n^3 zones)
    points: np.ndarray              #: (npoints, 3) coordinates
    zone_points: np.ndarray         #: (nzones, 8) -> point ids
    zone_faces: np.ndarray          #: (nzones, 6) -> face ids
    face_points: np.ndarray         #: (nfaces, 4) -> point ids
    edge_points: np.ndarray         #: (nedges, 2) -> point ids
    corner_zone: np.ndarray         #: (ncorners,) -> zone id
    corner_point: np.ndarray        #: (ncorners,) -> point id
    point_corner_start: np.ndarray  #: CSR offsets: point -> corners
    point_corner_list: np.ndarray   #: CSR data: corner ids sorted by point

    @property
    def nzones(self) -> int:
        return self.zone_points.shape[0]

    @property
    def npoints(self) -> int:
        return self.points.shape[0]

    @property
    def nfaces(self) -> int:
        return self.face_points.shape[0]

    @property
    def nedges(self) -> int:
        return self.edge_points.shape[0]

    @property
    def ncorners(self) -> int:
        return self.corner_zone.shape[0]

    def zone_adjacency(self):
        """Zone-adjacency graph (zones connected through shared faces).

        Returned as a :mod:`networkx` graph: UME partitioning studies ask
        how decomposition cuts this graph, and
        :func:`partition_edge_cut` prices a given rank partition with it.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.nzones))
        # two zones sharing a face are adjacent
        face_owner: dict[int, int] = {}
        for z in range(self.nzones):
            for f in self.zone_faces[z]:
                other = face_owner.setdefault(int(f), z)
                if other != z:
                    g.add_edge(other, z)
        return g

    def partition_edge_cut(self, owner) -> int:
        """Number of adjacent zone pairs split across ranks by *owner*
        (an array mapping zone id -> rank) — the halo-traffic proxy."""
        g = self.zone_adjacency()
        return sum(1 for a, b in g.edges if owner[a] != owner[b])


def build_box_mesh(n: int, jitter: float = 0.0, seed: int = 0) -> UnstructuredMesh:
    """Build an n^3-zone hex box with fully explicit connectivity.

    ``jitter`` perturbs interior point coordinates (making face areas
    non-trivial while keeping connectivity intact), as UME's inputs do.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    np_1 = n + 1

    # points on the (n+1)^3 lattice
    ii, jj, kk = np.meshgrid(np.arange(np_1), np.arange(np_1),
                             np.arange(np_1), indexing="ij")
    pts = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1).astype(float)
    if jitter > 0:
        rng = np.random.default_rng(seed)
        interior = np.all((pts > 0) & (pts < n), axis=1)
        pts[interior] += rng.uniform(-jitter, jitter, size=(int(interior.sum()), 3))

    def pid(i, j, k):
        return (i * np_1 + j) * np_1 + k

    zi, zj, zk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n),
                             indexing="ij")
    zi, zj, zk = zi.ravel(), zj.ravel(), zk.ravel()
    zone_points = np.stack(
        [
            pid(zi, zj, zk), pid(zi + 1, zj, zk),
            pid(zi + 1, zj + 1, zk), pid(zi, zj + 1, zk),
            pid(zi, zj, zk + 1), pid(zi + 1, zj, zk + 1),
            pid(zi + 1, zj + 1, zk + 1), pid(zi, zj + 1, zk + 1),
        ],
        axis=1,
    ).astype(np.int64)

    # unique faces: x-faces, y-faces, z-faces on lattice planes
    def xface(i, j, k):  # face normal to x at plane i, cell (j, k)
        return np.stack([pid(i, j, k), pid(i, j + 1, k),
                         pid(i, j + 1, k + 1), pid(i, j, k + 1)], axis=-1)

    def yface(i, j, k):
        return np.stack([pid(i, j, k), pid(i + 1, j, k),
                         pid(i + 1, j, k + 1), pid(i, j, k + 1)], axis=-1)

    def zface(i, j, k):
        return np.stack([pid(i, j, k), pid(i + 1, j, k),
                         pid(i + 1, j + 1, k), pid(i, j + 1, k)], axis=-1)

    fx_i, fx_j, fx_k = np.meshgrid(np.arange(np_1), np.arange(n),
                                   np.arange(n), indexing="ij")
    fy_i, fy_j, fy_k = np.meshgrid(np.arange(n), np.arange(np_1),
                                   np.arange(n), indexing="ij")
    fz_i, fz_j, fz_k = np.meshgrid(np.arange(n), np.arange(n),
                                   np.arange(np_1), indexing="ij")
    face_points = np.concatenate([
        xface(fx_i.ravel(), fx_j.ravel(), fx_k.ravel()),
        yface(fy_i.ravel(), fy_j.ravel(), fy_k.ravel()),
        zface(fz_i.ravel(), fz_j.ravel(), fz_k.ravel()),
    ]).astype(np.int64)

    nfx = np_1 * n * n

    def xfid(i, j, k):
        return (i * n + j) * n + k

    def yfid(i, j, k):
        return nfx + (i * np_1 + j) * n + k

    def zfid(i, j, k):
        return 2 * nfx + (i * n + j) * np_1 + k

    zone_faces = np.stack(
        [
            xfid(zi, zj, zk), xfid(zi + 1, zj, zk),
            yfid(zi, zj, zk), yfid(zi, zj + 1, zk),
            zfid(zi, zj, zk), zfid(zi, zj, zk + 1),
        ],
        axis=1,
    ).astype(np.int64)

    # unique edges: along x, y, z
    ex_i, ex_j, ex_k = np.meshgrid(np.arange(n), np.arange(np_1),
                                   np.arange(np_1), indexing="ij")
    ey_i, ey_j, ey_k = np.meshgrid(np.arange(np_1), np.arange(n),
                                   np.arange(np_1), indexing="ij")
    ez_i, ez_j, ez_k = np.meshgrid(np.arange(np_1), np.arange(np_1),
                                   np.arange(n), indexing="ij")
    edge_points = np.concatenate([
        np.stack([pid(ex_i.ravel(), ex_j.ravel(), ex_k.ravel()),
                  pid(ex_i.ravel() + 1, ex_j.ravel(), ex_k.ravel())], axis=1),
        np.stack([pid(ey_i.ravel(), ey_j.ravel(), ey_k.ravel()),
                  pid(ey_i.ravel(), ey_j.ravel() + 1, ey_k.ravel())], axis=1),
        np.stack([pid(ez_i.ravel(), ez_j.ravel(), ez_k.ravel()),
                  pid(ez_i.ravel(), ez_j.ravel(), ez_k.ravel() + 1)], axis=1),
    ]).astype(np.int64)

    # corners: every (zone, point) incidence
    nz = zone_points.shape[0]
    corner_zone = np.repeat(np.arange(nz, dtype=np.int64), 8)
    corner_point = zone_points.ravel()

    # inverse map point -> corners as CSR
    order = np.argsort(corner_point, kind="stable")
    sorted_pts = corner_point[order]
    npoints = pts.shape[0]
    start = np.searchsorted(sorted_pts, np.arange(npoints + 1))
    return UnstructuredMesh(
        n=n,
        points=pts,
        zone_points=zone_points,
        zone_faces=zone_faces,
        face_points=face_points,
        edge_points=edge_points,
        corner_zone=corner_zone,
        corner_point=corner_point,
        point_corner_start=start.astype(np.int64),
        point_corner_list=order.astype(np.int64),
    )
