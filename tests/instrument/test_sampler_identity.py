"""Counter sampling edge cases and the bit-identity contract."""

from __future__ import annotations

import dataclasses

import pytest

from repro.check.oracle import diff_instrument
from repro.check.progen import generate_program
from repro.check.runner import ALL_TIERS, run_check
from repro.instrument import Instrument, InstrumentSpec, TraceTrigger, read_stream
from repro.soc.presets import get_config
from repro.soc.system import System
from repro.workloads.microbench import get_kernel

QUANTUM, CHUNK = 512, 256


def kernel_trace(seed=0):
    return get_kernel("MM").build(scale=0.05, seed=seed)


# -- sampling edge cases ------------------------------------------------------


def test_interval_larger_than_run_still_yields_final_sample():
    trace = kernel_trace()
    system = System(get_config("Rocket1"))
    inst = Instrument(InstrumentSpec(counter_interval=10**12))
    system.attach_instrument(inst)
    system.run(trace)
    inst.seal()
    samples = [r for r in read_stream(inst.stream) if r["t"] == "counter"]
    assert len(samples) == 1
    assert samples[0]["final"] is True
    assert samples[0]["dinstructions"] == len(trace)


def test_sampling_decimates_not_duplicates():
    """A chunk that skips several scheduled ticks produces one sample."""
    trace = kernel_trace()
    system = System(get_config("Rocket1"))
    inst = Instrument(InstrumentSpec(counter_interval=1))  # tick every cycle
    system.attach_instrument(inst)
    system.run_parallel([trace], quantum=QUANTUM, chunk=CHUNK)
    inst.seal()
    samples = [r for r in read_stream(inst.stream) if r["t"] == "counter"]
    # one sample per chunk boundary at most, not one per cycle
    assert 1 < len(samples) < len(trace)
    cycles = [s["cycle"] for s in samples]
    assert cycles == sorted(cycles)
    assert len(set(cycles[:-1])) == len(cycles[:-1])


def test_sample_deltas_sum_to_run_totals():
    trace = kernel_trace()
    system = System(get_config("Rocket1"))
    inst = Instrument(InstrumentSpec(counter_interval=5000))
    system.attach_instrument(inst)
    result = system.run_parallel([trace], quantum=QUANTUM, chunk=CHUNK)[0]
    inst.seal()
    samples = [r for r in read_stream(inst.stream) if r["t"] == "counter"]
    assert sum(s["dinstructions"] for s in samples) == result.instructions
    # cycle deltas telescope: their sum is exactly the last sampled cycle
    assert sum(s["dcycles"] for s in samples) == samples[-1]["cycle"]


# -- bit-identity -------------------------------------------------------------


def full_spec(total_cycles):
    return InstrumentSpec(
        triggers=(TraceTrigger(start_cycle=total_cycles // 3, length=64,
                               label="mid"),
                  TraceTrigger(length=32, label="head")),
        counter_interval=max(1, total_cycles // 5))


def test_instrumented_serial_run_is_bit_identical():
    trace = kernel_trace()
    ref = System(get_config("Rocket1")).run(trace)

    system = System(get_config("Rocket1"))
    inst = Instrument(full_spec(ref.cycles))
    system.attach_instrument(inst)
    got = system.run(trace)
    inst.seal()
    assert dataclasses.asdict(got) == dataclasses.asdict(ref)
    assert len(read_stream(inst.stream)) > 10


def test_instrumented_lockstep_run_is_bit_identical():
    trace = kernel_trace()
    cfg = get_config("Rocket2")
    traces = [trace] * min(2, cfg.ncores)
    ref = System(cfg).run_parallel(traces, quantum=QUANTUM, chunk=CHUNK)

    system = System(cfg)
    inst = Instrument(full_spec(max(r.cycles for r in ref)))
    system.attach_instrument(inst)
    got = system.run_parallel(traces, quantum=QUANTUM, chunk=CHUNK)
    inst.seal()
    for a, b in zip(got, ref):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_detach_instrument_seals_and_clears():
    system = System(get_config("Rocket1"))
    inst = Instrument(InstrumentSpec())
    system.attach_instrument(inst)
    system.detach_instrument()
    assert system.instrument is None
    assert inst.stream.sealed


# -- the check tier -----------------------------------------------------------


def test_instrument_is_a_default_check_tier():
    assert "instrument" in ALL_TIERS


def test_check_tier_run_with_instrumentation_enabled():
    """The satellite requirement: a repro.check tier run with
    instrumentation enabled proving results stay bit-identical."""
    report = run_check(seeds=3, tiers=("instrument",), shrink=False)
    assert report.ok, report.summary()
    assert report.tier_programs.get("instrument", 0) >= 1


def test_diff_instrument_oracle_on_one_program():
    from repro.check.oracle import run_program

    prog = generate_program(11)
    trace = run_program(prog).trace_so_far
    assert diff_instrument(trace, seed=11) == []


@pytest.mark.parametrize("name", ["BananaPi-K1", "MediumBOOM"])
def test_instrumented_lockstep_matches_pins(name):
    """256-uop lanes under windows, samples and markers: the stream
    records and the results are pinned."""
    from ..core import loop_pins
    stream = loop_pins.check(f"instrumented_lockstep/{name}")["stream"]
    kinds = {r["t"] for r in stream}
    assert {"window", "trace", "counter", "marker"} <= kinds
