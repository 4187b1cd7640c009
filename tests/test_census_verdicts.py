"""Every verdict in ``scripts/census.py`` still names a function.

A verdict whose pattern matches nothing under ``src/repro`` is stale:
the function it ruled on moved or was deleted, and the census would
carry the ruling forward silently.  This is a static parse of the
source tree, not a census run.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "census.py"


def _census():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_verdict_pattern_matches_a_function():
    census = _census()
    keys = [f"{rel}:{qual}" for rel, qual
            in census.enumerate_functions(ROOT / "src" / "repro")]
    stale = [pattern for pattern, _ in census.VERDICTS
             if not any(fnmatch.fnmatchcase(k, pattern) for k in keys)]
    assert stale == []
