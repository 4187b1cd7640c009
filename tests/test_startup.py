"""Start-up contract: each entry point imports only what it runs.

Every check runs in a fresh interpreter, so no module an earlier test
imported can hide an import the entry point makes.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("module", ["repro.cli", "repro.farm", "repro.serve",
                                    "repro.workloads.microbench"])
def test_entry_point_does_not_import_scipy(module):
    out = _run(f"import sys, {module}; print('scipy' in sys.modules)")
    assert out.strip() == "False"


_FIRST_JOBS = """
import json, sys
import repro.farm.pool
from repro.farm import Job, execute_job
from repro.soc import BANANA_PI_SIM, MILKV_SIM, ROCKET1
before = set(sys.modules)
execute_job(Job.kernel(ROCKET1, "EI", scale=0.05))
kernel = set(sys.modules) - before
execute_job(Job.sweep([BANANA_PI_SIM, MILKV_SIM], "MM", scale=0.05))
sweep = set(sys.modules) - before - kernel
print(json.dumps([sorted(kernel), sorted(sweep)]))
"""


def test_forking_process_already_holds_the_job_path():
    """A process that can fork workers has imported everything a kernel
    or sweep job runs, so neither it nor a worker it forks imports more."""
    kernel, sweep = json.loads(_run(_FIRST_JOBS))
    assert kernel == []
    assert sweep == []


def test_client_does_not_import_the_simulator():
    """Only a process that forks workers loads the job path.  The core
    modules come in with the config classes they define, so the trace
    compiler their loops import at run time is a sentinel, and so is
    numpy: the cores name ``Trace`` for type checking only."""
    out = _run("import sys, repro.serve.client\n"
               "print(sorted(m for m in ('numpy', 'repro.accel.compile', "
               "'repro.soc.system', 'repro.farm.pool') if m in sys.modules))")
    assert out.strip() == "[]"
