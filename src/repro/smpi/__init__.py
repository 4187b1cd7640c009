"""Simulated MPI: rank programs as generators over simulated tiles, with
real payloads, real collective algorithms, and a Hockney network model."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "comm": ["Comm", "Compute", "Recv", "Send", "SendRecv", "nbytes_of"],
    "network": ["NetworkModel", "ethernet_network", "shared_memory_network"],
    "multinode": ["MultiNodeRuntime", "run_multinode"],
    "runtime": ["DeadlockError", "RankResult", "SMPIRuntime", "run_mpi"],
})
