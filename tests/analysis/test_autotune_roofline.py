"""Tests for the autotuner."""

from repro.analysis.autotune import ROCKET_KNOBS, autotune
from repro.soc import BANANA_PI_HW, LARGE_BOOM, MILKV_HW, ROCKET1, WithVectorUnit

KERNELS = ["EI", "ED1", "MD", "MM"]


def test_autotune_never_worsens():
    r = autotune(ROCKET1, BANANA_PI_HW, kernels=KERNELS, scale=0.1)
    base = autotune(ROCKET1, BANANA_PI_HW, knobs={}, kernels=KERNELS, scale=0.1)
    assert r.score.score <= base.score.score + 1e-12
    for step in r.steps:
        assert step.improvement > 0


def test_autotune_reaches_the_papers_conclusion():
    """Greedy search over the §4 knobs should pick the 2x clock (the
    dual-issue proxy), the move the paper found most effective."""
    r = autotune(ROCKET1, BANANA_PI_HW, kernels=["EI", "ED1", "Cca"],
                 scale=0.1)
    assert any("WithClock" in s.knob for s in r.steps)


def test_autotune_skips_inapplicable_knobs():
    r = autotune(LARGE_BOOM, MILKV_HW,
                 knobs={"WithVectorUnit()": WithVectorUnit()},
                 kernels=["EI"], scale=0.05)
    assert r.steps == []  # vector fragment raises on OoO -> skipped


def test_autotune_summary_renders():
    r = autotune(ROCKET1, BANANA_PI_HW, kernels=["EI"], scale=0.05)
    assert "autotuned" in r.summary()
    assert r.evaluations >= 1
