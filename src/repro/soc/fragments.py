"""Chipyard-style config fragments.

Chipyard composes SoCs from small reusable overrides ("config fragments":
``WithNBigCores``, ``WithNBanks``, ...).  The paper's §4 tuning is exactly
such a composition — Rocket1 ``++ WithL2Banks(4)`` is Rocket2, ``++
WithBusWidth(128)`` is the Banana Pi Sim Model — so the same idiom is
provided here for building ablation variants without hand-editing nested
dataclasses:

>>> from repro.soc import ROCKET1, compose
>>> from repro.soc.fragments import WithL2Banks, WithBusWidth
>>> my_model = compose(ROCKET1, WithL2Banks(4), WithBusWidth(128),
...                    name="MyBananaPiSim")
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..core.vector import VectorConfig
from ..mem.dram import DRAMConfig
from ..mem.prefetch import PrefetcherConfig
from .config import SoCConfig

__all__ = [
    "Fragment",
    "compose",
    "WithL2Banks",
    "WithBusWidth",
    "WithClock",
    "WithDRAM",
    "WithLLC",
    "WithoutLLC",
    "WithL1Size",
    "WithCores",
    "WithPrefetcher",
    "WithoutPrefetcher",
    "WithVectorUnit",
]

#: a fragment maps one SoCConfig to a modified one
Fragment = Callable[[SoCConfig], SoCConfig]


def compose(base: SoCConfig, *fragments: Fragment,
            name: str | None = None) -> SoCConfig:
    """Apply *fragments* left to right, optionally renaming the result."""
    cfg = base
    for frag in fragments:
        cfg = frag(cfg)
    if name is not None:
        cfg = dataclasses.replace(cfg, name=name)
    return cfg


def _hier(cfg: SoCConfig, **changes) -> SoCConfig:
    return dataclasses.replace(
        cfg, hierarchy=dataclasses.replace(cfg.hierarchy, **changes)
    )


def WithL2Banks(banks: int) -> Fragment:
    """Set the shared-L2 bank count (the Rocket1 -> Rocket2 knob)."""

    def frag(cfg: SoCConfig) -> SoCConfig:
        return _hier(cfg, l2=dataclasses.replace(cfg.hierarchy.l2, banks=banks))

    return frag


def WithBusWidth(bits: int) -> Fragment:
    """Set the system-bus width (the Rocket2 -> BananaPiSim knob)."""

    def frag(cfg: SoCConfig) -> SoCConfig:
        return _hier(cfg, bus=dataclasses.replace(cfg.hierarchy.bus,
                                                  width_bits=bits))

    return frag


def WithClock(ghz: float) -> Fragment:
    """Set the core clock (the Fast Banana Pi knob).

    The hierarchy's clock follows, so DRAM device timings are re-derived
    — the whole point of the paper's 2x experiment.
    """

    def frag(cfg: SoCConfig) -> SoCConfig:
        # both clocks must change atomically (SoCConfig validates they match)
        return dataclasses.replace(
            cfg,
            core_ghz=ghz,
            hierarchy=dataclasses.replace(cfg.hierarchy, core_ghz=ghz),
        )

    return frag


def WithDRAM(dram: DRAMConfig) -> Fragment:
    """Swap the external-memory model (the §6 DDR4 ablation)."""

    def frag(cfg: SoCConfig) -> SoCConfig:
        return _hier(cfg, dram=dram)

    return frag


def WithLLC(size_bytes: int, simplified: bool = True, slices: int = 4,
            latency: int = 4) -> Fragment:
    """Attach an LLC (FireSim-style simplified, or realistic)."""

    def frag(cfg: SoCConfig) -> SoCConfig:
        return _hier(cfg, llc_bytes=size_bytes, llc_simplified=simplified,
                     llc_slices=slices, llc_latency=latency)

    return frag


def WithoutLLC() -> Fragment:
    def frag(cfg: SoCConfig) -> SoCConfig:
        return _hier(cfg, llc_bytes=None, llc_slices=1)

    return frag


def WithL1Size(kib: int) -> Fragment:
    """Resize both L1s, holding ways and line size (the §5.2.2 knob)."""

    def frag(cfg: SoCConfig) -> SoCConfig:
        h = cfg.hierarchy

        def resize(c):
            sets = kib * 1024 // (c.ways * c.line_bytes)
            if sets <= 0 or sets & (sets - 1):
                raise ValueError(
                    f"{kib} KiB with {c.ways} ways is not a power-of-two "
                    "set count"
                )
            return dataclasses.replace(c, sets=sets)

        return _hier(cfg, l1d=resize(h.l1d), l1i=resize(h.l1i))

    return frag


def WithCores(n: int) -> Fragment:
    def frag(cfg: SoCConfig) -> SoCConfig:
        return dataclasses.replace(cfg, ncores=n)

    return frag


def WithPrefetcher(pf: PrefetcherConfig | None = None) -> Fragment:
    """Attach a stride prefetcher to every tile (default sizing if None)."""

    def frag(cfg: SoCConfig) -> SoCConfig:
        return dataclasses.replace(cfg, prefetcher=pf or PrefetcherConfig())

    return frag


def WithoutPrefetcher() -> Fragment:
    def frag(cfg: SoCConfig) -> SoCConfig:
        return dataclasses.replace(cfg, prefetcher=None)

    return frag


def WithVectorUnit(v: VectorConfig | None = None) -> Fragment:
    """Attach an RVV unit to an in-order core (the K1 what-if)."""

    def frag(cfg: SoCConfig) -> SoCConfig:
        if cfg.core_type != "inorder":
            raise ValueError("the vector unit model attaches to in-order cores")
        return dataclasses.replace(
            cfg, inorder=dataclasses.replace(cfg.inorder,
                                             vector=v or VectorConfig()))

    return frag
