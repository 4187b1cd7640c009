"""Run an NPB benchmark by name."""

from __future__ import annotations

from .cg import run_cg
from .common import NPBResult
from .ep import run_ep
from .is_ import run_is
from .mg import run_mg

__all__ = ["NPB_RUNNERS", "run_npb"]

#: benchmark name -> runner, in Table 2 order
NPB_RUNNERS = {"CG": run_cg, "EP": run_ep, "IS": run_is, "MG": run_mg}


def run_npb(benchmark: str, config, nranks: int = 1, cls: str = "A") -> NPBResult:
    """Run one NPB benchmark by name."""
    try:
        runner = NPB_RUNNERS[benchmark.upper()]
    except KeyError:
        raise KeyError(
            f"unknown NPB benchmark {benchmark!r}; available: {sorted(NPB_RUNNERS)}"
        ) from None
    return runner(config, nranks=nranks, cls=cls)
