"""UME: the LANL Unstructured Mesh Explorations proxy application."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "kernels": [
        "KERNEL_NAMES", "face_areas", "point_from_zone_gather",
        "zone_to_point_scatter"],
    "mesh": ["UnstructuredMesh", "build_box_mesh"],
    "workload": ["DEFAULT_MESH_N", "UMEResult", "run_ume", "ume_program"],
})
