"""Simulated numbers held to ``tests/check/pinned_results.json``.

The file pins the payload of every ``Job.kernel`` run over ALL_CONFIGS x
the 39 kernels x seeds 0 and 1 (``scripts/pin_results.py`` writes it).
Tier-1 recomputes every seventh entry, which visits every configuration
and every kernel; ``python scripts/pin_results.py --check`` recomputes
them all.
"""

from __future__ import annotations

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "pin_results.py"
STRIDE = 7


def _pin_results():
    spec = importlib.util.spec_from_file_location("pin_results", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_pinned_file_covers_the_matrix():
    pin = _pin_results()
    assert sorted(pin.load()) == sorted(pin.key(*p) for p in pin.matrix())


def test_stride_of_pinned_payloads_matches():
    pin = _pin_results()
    points = pin.matrix()[::STRIDE]
    assert {c for c, _, _ in points} == {c for c, _, _ in pin.matrix()}
    assert {k for _, k, _ in points} == {k for _, k, _ in pin.matrix()}
    bad = pin.mismatches(points, pin.load())
    assert bad == [], "payload moved for (config, kernel, seed): " + ", ".join(
        map(str, bad))
