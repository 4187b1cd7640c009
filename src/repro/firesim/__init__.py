"""FireSim-style simulation management and FPGA host-rate modeling."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "host": ["BXE_U250", "HostModel", "host_model_for"],
    "manager": ["FireSimManager", "SimulationReport"],
})
