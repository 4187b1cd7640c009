#!/usr/bin/env python3
"""Automated model calibration (mechanising the paper's §4 by-hand loop).

Starts from the stock huge-Rocket configuration and lets a greedy
coordinate-descent search apply Chipyard-style config fragments — more L2
banks, a wider bus, the 2x clock, a hardware prefetcher — keeping
whichever single change most improves the MicroBench fidelity score
against the Banana Pi reference. The paper's authors walked this exact
loop manually ("deciding which parameters to modify for improved fidelity
is inherently ambiguous", §6); the search makes the ambiguity quantitative.

Run:  python examples/autotune_model.py
"""

from repro.analysis import QUICK_KERNELS, autotune, fidelity
from repro.soc import (
    BANANA_PI_HW,
    BANANA_PI_SIM,
    FAST_BANANA_PI_SIM,
    ROCKET1,
    WithBusWidth,
    WithClock,
    WithL2Banks,
    WithPrefetcher,
)

KNOBS = {
    "WithL2Banks(4)": WithL2Banks(4),
    "WithBusWidth(128)": WithBusWidth(128),
    "WithClock(3.2)": WithClock(3.2),
    "WithPrefetcher()": WithPrefetcher(),
}


def main() -> None:
    result = autotune(ROCKET1, BANANA_PI_HW, knobs=KNOBS,
                      kernels=QUICK_KERNELS, scale=0.3)
    print(result.summary())

    print("\nFor reference, the paper's hand-tuned models score:")
    for cfg in (ROCKET1, BANANA_PI_SIM, FAST_BANANA_PI_SIM):
        s = fidelity(BANANA_PI_HW, cfg, scale=0.3, kernels=QUICK_KERNELS)
        print(f"  {cfg.name:18} {s.score:.3f}")
    s = result.score
    print(f"  {result.best.name:18} {s.score:.3f}  (autotuned)")
    print("\nWorst remaining mismatches (the residual no §4 knob can fix):")
    for kernel, rel in s.worst(4):
        print(f"  {kernel:10} rel={rel:.2f}")


if __name__ == "__main__":
    main()
