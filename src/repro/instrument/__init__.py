"""Streaming instrumentation: FireSim's out-of-band observability, in model.

The paper's FireSim methodology debugs and characterises runs *while
they execute* through three out-of-band streams: TracerV (trigger-armed
committed-instruction trace), AutoCounter (periodic counter sampling),
and synthesized prints (magic-store printf).  This package reproduces
all three against the trace-driven simulator:

- :class:`TraceTrigger` windows that open/close on PC match or cycle
  count and stream decoded instruction records (TracerV analogue);
- :class:`CounterSampler` snapshots of StatsRegistry deltas every N
  target cycles (AutoCounter analogue);
- magic-store markers (:func:`marker_addr`) decoded from the target's
  own instruction stream (synth-print analogue);

all interleaved into one append-only JSONL
:class:`InstrumentStream` that can be tailed live
(:func:`tail_stream`) while a farm job is still running.

Observation happens only at chunk boundaries and is strictly read-only:
an attached :class:`Instrument` never changes simulated results or
chunking, which the ``instrument`` bit-identity check in
:mod:`repro.check` enforces.  Everything here is off unless a system
explicitly attaches an instrument.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "core": ["Instrument", "InstrumentSpec"],
    "markers": [
        "FIRST_USER_MARKER", "MARKER_MAGIC", "MARKER_REGION_BEGIN",
        "MARKER_REGION_END", "decode_marker", "is_marker_addr", "marker_addr"],
    "sampler": ["CounterSampler"],
    "stream": [
        "STREAM_SCHEMA", "InstrumentStream", "read_stream", "tail_stream"],
    "tracer": ["Tracer", "decode_record"],
    "triggers": ["TraceTrigger", "WindowState"],
})
