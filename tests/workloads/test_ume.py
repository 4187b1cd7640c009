"""UME tests: mesh connectivity invariants, kernel correctness, MPI runs."""

import numpy as np
import pytest

from repro.soc import BANANA_PI_HW, BANANA_PI_SIM, ROCKET1
from repro.workloads.ume import (
    build_box_mesh,
    face_areas,
    point_from_zone_gather,
    run_ume,
    zone_to_point_scatter,
)


@pytest.fixture(scope="module")
def mesh():
    return build_box_mesh(4)


# ------------------------------------------------------------ mesh

def test_entity_counts_match_formulas(mesh):
    n = 4
    assert mesh.nzones == n**3
    assert mesh.npoints == (n + 1) ** 3
    assert mesh.nfaces == 3 * n * n * (n + 1)
    assert mesh.nedges == 3 * n * (n + 1) ** 2
    assert mesh.ncorners == 8 * n**3


def test_paper_scaling_ratios(mesh):
    """Paper §3.2.3 counts per-zone incidences: about 8 corners, 12 edges,
    8 points, and 6 faces per zone (unique entities are shared between
    neighbouring zones, so the unique-entity ratios are lower)."""
    z = mesh.nzones
    assert mesh.ncorners / z == 8           # corners are not shared
    assert mesh.zone_points.shape[1] == 8   # 8 points incident per zone
    assert mesh.zone_faces.shape[1] == 6    # 6 faces incident per zone
    # each hex has 12 edges; unique edges = 3n(n+1)^2 -> 3 per zone as n grows
    n = mesh.n
    assert mesh.nedges == 3 * n * (n + 1) ** 2


def test_zone_points_are_valid(mesh):
    assert mesh.zone_points.min() >= 0
    assert mesh.zone_points.max() < mesh.npoints
    # all 8 corners of a zone are distinct
    for z in range(0, mesh.nzones, 7):
        assert len(set(mesh.zone_points[z])) == 8


def test_faces_shared_between_zones(mesh):
    counts = np.bincount(mesh.zone_faces.ravel(), minlength=mesh.nfaces)
    assert counts.max() == 2   # interior faces shared by exactly 2 zones
    assert counts.min() == 1   # boundary faces by 1
    assert (counts == 2).sum() == 3 * 4 * 4 * 3  # interior planes


def test_point_corner_csr_is_inverse(mesh):
    start, clist = mesh.point_corner_start, mesh.point_corner_list
    assert start[-1] == mesh.ncorners
    for p in range(0, mesh.npoints, 11):
        cs = clist[start[p]:start[p + 1]]
        assert np.all(mesh.corner_point[cs] == p)


def test_mesh_validation():
    with pytest.raises(ValueError):
        build_box_mesh(0)


# ------------------------------------------------------------ kernels

def test_scatter_equals_gather(mesh):
    rng = np.random.default_rng(5)
    zf = rng.random(mesh.nzones)
    s = zone_to_point_scatter(mesh, zf)
    g = point_from_zone_gather(mesh, zf)
    assert np.allclose(s, g)


def test_scatter_partition_sums_to_whole(mesh):
    rng = np.random.default_rng(6)
    zf = rng.random(mesh.nzones)
    whole = zone_to_point_scatter(mesh, zf)
    parts = sum(
        zone_to_point_scatter(mesh, zf, lo, hi)
        for lo, hi in [(0, 20), (20, 40), (40, mesh.nzones)]
    )
    assert np.allclose(whole, parts)


def test_face_areas_unit_mesh():
    m = build_box_mesh(3, jitter=0.0)
    areas = face_areas(m)
    assert np.allclose(areas, 1.0)  # unit lattice: every face is a unit square


def test_face_areas_jittered_differ():
    m = build_box_mesh(3, jitter=0.3, seed=2)
    areas = face_areas(m)
    assert areas.std() > 0.01


# ------------------------------------------------------------ workload

def test_run_ume_verifies():
    r = run_ume(ROCKET1, nranks=1, mesh_n=4)
    assert r.verified
    assert r.total_cycles > 0
    assert set(r.kernel_cycles) == {"original", "inverted", "face_area"}


@pytest.mark.parametrize("nranks", [2, 4])
def test_run_ume_parallel(nranks):
    r = run_ume(ROCKET1, nranks=nranks, mesh_n=4)
    assert r.verified
    assert len(r.ranks) == nranks


def test_ume_scales_with_ranks():
    r1 = run_ume(ROCKET1, nranks=1, mesh_n=6)
    r4 = run_ume(ROCKET1, nranks=4, mesh_n=6)
    assert r4.total_cycles < r1.total_cycles


def test_ume_hw_faster_than_sim():
    """Fig 5: the Banana Pi beats its Rocket-based sim model on UME."""
    sim = run_ume(BANANA_PI_SIM, nranks=1, mesh_n=6)
    hw = run_ume(BANANA_PI_HW, nranks=1, mesh_n=6)
    assert hw.seconds < sim.seconds


def test_kernel_seconds_sum():
    r = run_ume(ROCKET1, nranks=1, mesh_n=4)
    total = sum(r.kernel_seconds(k) for k in r.kernel_cycles)
    assert total == pytest.approx(r.seconds)


# ------------------------------------------------------ adjacency graph

def test_zone_adjacency_structure(mesh):
    import networkx as nx

    g = mesh.zone_adjacency()
    assert g.number_of_nodes() == mesh.nzones
    assert nx.is_connected(g)
    degrees = [d for _, d in g.degree()]
    assert max(degrees) == 6          # interior zones touch 6 neighbours
    assert min(degrees) == 3          # corner zones touch 3
    # handshake check: total edges = interior faces
    interior_faces = 3 * 4 * 4 * 3    # n=4
    assert g.number_of_edges() == interior_faces


def test_partition_edge_cut_slabs_vs_random(mesh):
    n = mesh.nzones
    # contiguous slab partition (what the workload uses): small cut
    slabs = np.arange(n) * 4 // n
    # random assignment: pathological cut (~3/4 of all edges)
    rng = np.random.default_rng(0)
    random_owner = rng.integers(0, 4, size=n)
    slab_cut = mesh.partition_edge_cut(slabs)
    rand_cut = mesh.partition_edge_cut(random_owner)
    assert slab_cut < rand_cut
    # slabs cut exactly the 3 interior planes of 16 pairs each (n=4)
    assert slab_cut == 3 * 16
    assert mesh.partition_edge_cut(np.zeros(n, dtype=int)) == 0
