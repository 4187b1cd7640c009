"""``loop_pins.json`` and the cases that regenerate it stay in step;
each case is read by the test of the behaviour it pins."""

from __future__ import annotations

from . import loop_pins


def test_every_case_is_pinned():
    assert set(loop_pins.load_loop_pins()) == set(loop_pins.CASES)
