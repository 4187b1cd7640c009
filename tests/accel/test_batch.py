"""The config-batched sweep engine's contract: one compiled trace,
every configuration evaluated over it, each per-config result
bit-identical to a solo run of that configuration — across the full
named-config set."""

from __future__ import annotations

import pytest

from repro.accel import memo
from repro.accel.batch import batched_sweep
from repro.accel.stats import reset_global_stats
from repro.farm.job import Job, execute_job
from repro.soc.presets import ALL_CONFIGS, get_config

from ..core import loop_pins

CONFIG_NAMES = sorted(ALL_CONFIGS)


@pytest.fixture(autouse=True)
def _cold_caches():
    """Every comparison starts cold so the batched pass cannot hit a
    memo entry produced by the serial pass (and vice versa)."""
    memo.clear_caches()
    reset_global_stats()
    yield
    memo.clear_caches()


def _configs():
    return [get_config(n) for n in CONFIG_NAMES]


# ------------------------------------------------------- batched_sweep

def test_batched_sweep_matches_serial_jobs_all_configs():
    """One batched pass over every named config == one Job.kernel per
    config, payload for payload (the `batch` oracle's core claim).  The
    serial side clears the caches before each config, so every front end
    there is resolved live while the batched side reuses them."""
    cfgs = _configs()
    serial = {}
    for cfg in cfgs:
        memo.clear_caches()
        serial[cfg.name] = execute_job(Job.kernel(cfg, "MM", scale=0.05))
    memo.clear_caches()
    points = batched_sweep(cfgs, "MM", scale=0.05)
    assert points == serial


def test_batched_sweep_matches_reference_models():
    """Batched points equal the pinned ``Job.kernel`` payloads."""
    names = ["Rocket1", "MediumBOOM"]
    points = batched_sweep([get_config(n) for n in names], "EI", scale=0.05)
    pinned = loop_pins.load_loop_pins()
    for name in names:
        assert (loop_pins.digest(points[name])
                == pinned[f"job_payload/{name}"]["payload"]), name


def test_batched_sweep_rejects_duplicate_names():
    cfg = get_config("Rocket1")
    with pytest.raises(ValueError, match="duplicate"):
        batched_sweep([cfg, cfg.with_(ncores=1)], "MM", scale=0.05)


def test_batched_sweep_skip_excludes_completed_points():
    """`skip` is the resume path: skipped configs are neither simulated
    nor returned, and the rest still match a full run."""
    cfgs = [get_config("Rocket1"), get_config("Rocket2")]
    full = batched_sweep(cfgs, "EI", scale=0.05)
    memo.clear_caches()
    seen = []
    part = batched_sweep(cfgs, "EI", scale=0.05, skip=("Rocket1",),
                         on_point=lambda name, p: seen.append(name))
    assert set(part) == {"Rocket2"} == set(seen)
    assert part["Rocket2"] == full["Rocket2"]


def test_batched_sweep_on_point_fires_in_input_order():
    """Completion order is plain input order for a mixed in-order/OoO
    list, memo-served points included — what the sweep job's
    checkpoint and `kill after=N` fault count against."""
    names = ["MediumBOOM", "Rocket1", "LargeBOOM", "Rocket2"]
    cfgs = [get_config(n) for n in names]
    batched_sweep(cfgs[2:3], "EI", scale=0.05)   # LargeBOOM -> memo hit
    seen = []
    points = batched_sweep(cfgs, "EI", scale=0.05,
                           on_point=lambda name, p: seen.append(name))
    assert seen == names == list(points)
