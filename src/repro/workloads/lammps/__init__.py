"""LAMMPS-mini: molecular dynamics with LJ and FENE-chain benchmarks."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "forces": ["fene_forces", "kinetic_energy", "lj_forces", "temperature"],
    "integrate": ["MDSystem", "WCA_CUTOFF"],
    "neighbor": ["NeighborList", "half_neighbor_list"],
    "setup": ["chain_system", "lj_lattice"],
    "workload": ["BENCHMARKS", "LAMMPSResult", "lammps_program", "run_lammps"],
})
