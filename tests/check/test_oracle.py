"""Differential oracle tiers: clean on the fixed tree, sharp on planted bugs."""

from __future__ import annotations

import pytest

from repro.check import (
    ALL_TIERS,
    CheckProgram,
    diff_batch,
    diff_checkpoint,
    diff_farm,
    diff_golden,
    generate_program,
    lint_invariants,
    run_check,
    run_program,
)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_golden_tier_clean(seed):
    assert diff_golden(generate_program(seed)) == []


def test_golden_flags_a_planted_divergence():
    # x0 writes are discarded; a program relying on that is fine, but a
    # doctored golden diff must fire when registers genuinely differ.
    prog = CheckProgram(seed=0, source="li x10, 1\necall\n")
    interp = run_program(prog)
    interp.regs[10] = 2  # corrupt the architectural state post-hoc
    diffs = diff_golden(prog, interp=interp)
    assert any(d.startswith("x10:") for d in diffs)


def test_lint_invariants_clean():
    trace = run_program(generate_program(1)).trace_so_far
    assert lint_invariants(trace) == []


def test_checkpoint_tier_clean():
    trace = run_program(generate_program(4)).trace_so_far
    assert diff_checkpoint(trace, seed=4) == []


def test_batch_tier_clean_pinned_pair():
    """Pinned replay of the batch oracle: a fixed kernel over a fixed
    in-order/out-of-order config pair, serial vs batched vs a
    killed-and-resumed batched run."""
    assert diff_batch("EI", config_names=("Rocket1", "MediumBOOM"),
                      seed=0, scale=0.1) == []


def test_farm_tier_clean(tmp_path):
    progs = [generate_program(s) for s in (0, 1)]
    assert diff_farm(progs) == []


def test_batch_tier_walks_every_config(monkeypatch):
    """One default-length run of the batch tier compares every config:
    the seed, not the run's position, picks the pair."""
    import repro.check.runner as runner
    from repro.soc import ALL_CONFIGS

    pairs = []
    monkeypatch.setattr(runner, "diff_batch",
                        lambda kname, config_names, seed: pairs.append(
                            tuple(config_names)) or [])
    assert run_check(seeds=25, tiers=("batch",), shrink=False).ok
    assert len(pairs) == 5
    assert {name for pair in pairs for name in pair} == set(ALL_CONFIGS)


def test_run_check_smoke():
    report = run_check(seeds=2, tiers=("golden", "lint"), shrink=False)
    assert report.ok
    assert report.tier_programs == {"golden": 2, "lint": 2}
    assert "PASS" in report.summary()


def test_run_check_rejects_unknown_tier():
    with pytest.raises(ValueError, match="unknown tier"):
        run_check(seeds=1, tiers=("golden", "nope"))


def test_all_tiers_is_exhaustive():
    assert set(ALL_TIERS) == {"golden", "lint", "batch", "checkpoint",
                              "instrument", "farm", "chaos"}
