"""Every named configuration on a microbench kernel, an NPB kernel and
a LAMMPS step, plus synthetic straight-line traces, CPI stacks and a
mid-run checkpoint/restore, held to ``tests/core/loop_pins.json``."""

from __future__ import annotations

import pytest

from repro.soc.presets import ALL_CONFIGS
from repro.telemetry import BUCKETS

from ..core import loop_pins

CONFIG_NAMES = sorted(ALL_CONFIGS)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_microbench_bit_identical(name):
    loop_pins.check(f"microbench/{name}")


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_npb_ep_bit_identical(name):
    assert loop_pins.check(f"npb_ep/{name}")["result"].verified


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_lammps_step_bit_identical(name):
    assert loop_pins.check(f"lammps/{name}")["result"].verified


@pytest.mark.parametrize("name", ["Rocket1", "MediumBOOM"])
def test_straightline_runs_bit_identical(name):
    """Long straight-line exec runs broken by a load, a divide and a
    branch, cold and with a warm front end."""
    loop_pins.check(f"straightline/{name}")


def test_ooo_fetch_lines_across_2_63_bit_identical():
    """The OoO fetch line is ``pc >> 6`` of the unsigned PC, so a
    sequential crossing of 2**63 is next-line fetch-ahead, not a
    redirect."""
    trace = loop_pins.straddling_2_63()
    assert trace.pc.min() < 2 ** 63 <= trace.pc.max()
    loop_pins.check("fetch_2_63/MediumBOOM")


@pytest.mark.parametrize("name", ["Rocket1", "BananaPi-K1", "MILKVSim"])
def test_cpi_stack_exact_sum_and_identical(name):
    """The CPI stack keeps its exact-sum invariant and the pinned
    attribution, bucket for bucket."""
    objs = loop_pins.check(f"cpi_stack/{name}")
    stack = objs["stack"]
    assert sum(stack["buckets"].values()) == objs["result"].cycles
    assert set(stack["buckets"]) == set(BUCKETS)


def test_checkpoint_restore_mid_run_with_accel():
    """Interrupt a lockstep run mid-flight, checkpoint, restore into a
    fresh system, and finish: the result equals the uninterrupted run."""
    objs = loop_pins.check("checkpoint_mid_run/Rocket1")
    assert not objs["done_at_cut"]  # the interruption must land mid-run
    assert objs["resumed"] == objs["whole"]
