"""The host-cost ledger's ratchet: no case makes more calls per run than
``tests/host_ledger.json`` records (``scripts/host_ledger.py``).

A count that fell is printed, so the change that lowered it re-records
the ledger (``python scripts/host_ledger.py --json
tests/host_ledger.json``).  The two ``MIP`` cases are left to
``scripts/host_ledger.py --check``: profiling their 68,811 uops takes
longer than this test's budget.  Counts differ between interpreters, so
the ledger holds one record per Python ``major.minor`` and an
interpreter with no record skips the ratchet.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "host_ledger", ROOT / "scripts" / "host_ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

RECORDS = json.loads(ledger.LEDGER.read_text())
PINNED = ledger.recorded()
CASES = [c for c in ledger.CASES if not c.endswith("/MIP")]


@pytest.mark.parametrize("python", sorted(RECORDS))
def test_ledger_records_every_case(python):
    assert sorted(RECORDS[python]) == sorted(ledger.CASES)


@pytest.mark.skipif(not PINNED, reason=f"{ledger.LEDGER.name} has no record "
                                       f"for Python {ledger.PYTHON}")
@pytest.mark.parametrize("case", CASES)
def test_no_count_rises(case):
    config, kernel, before = ledger.CASES[case]
    moved = ledger.compare(case, ledger.count_calls(config, kernel, before),
                           PINNED)
    for line in moved:
        print(line)
    assert not [line for line in moved if " rose " in line]
