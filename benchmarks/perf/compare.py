#!/usr/bin/env python3
"""Compare two records written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json

A is the base (the parent commit), B the change.  One row per (workload,
end-to-end metric): both medians with their quartiles, the ratio B/A,
the metric's bound and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is, or every sample of B is worse than every one of A
                and the medians differ by more than the bound
``unresolved``  the spread between passes (quartile distance over median,
                either side) is wider than the bound, or a record is
                marked noisy, so "no worse" cannot be claimed - unless
                every sample of B reads better than every sample of A

Then exact rows: ``sim_digest``, the simulated totals, the ``mem.*`` and
``core.*`` counts and the error metrics must be identical for one seed.
A simulator-speed change leaves them ``equal``; a model change shows
``unequal`` (or ``worse`` when an error metric grew by more than 0.01)
and must say so.  Exit 1 on any ``worse`` or unequal row, 2 when the two
records cannot be compared.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import metrics as M  # noqa: E402


def verdict(a: dict, b: dict, better: str, bound: float,
            noisy: bool) -> tuple[str, float]:
    """``(verdict, share by which B is worse than A)`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    sa, sb = a.get("samples"), b.get("samples")
    all_better = all_worse = False
    if sa and sb:
        all_better = all(sign * (y - x) < 0 for x in sa for y in sb)
        all_worse = all(sign * (y - x) > 0 for x in sa for y in sb)
    spread = max(((e["q3"] - e["q1"]) / e["value"]
                  for e in (a, b) if "q1" in e), default=0.0)
    if all_worse and worse_by > bound:
        return "worse", worse_by
    if all_better:
        return "ok", worse_by
    if noisy or spread > bound:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def fmt(e: dict) -> str:
    if "q1" in e:
        return f"{e['value']:.5g} [{e['q1']:.5g}, {e['q3']:.5g}]"
    return f"{e['value']:.5g}"


def show(x) -> str:
    return x[:16] if isinstance(x, str) else f"{x:.10g}"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines and whether any row is worse or unequal."""
    lines: list[str] = []
    failed = False
    noisy = bool(a.get("noisy") or b.get("noisy"))
    if noisy:
        lines.append("a record is marked noisy: host-time rows are "
                     "unresolved")
    lines.append(f"{'workload':<18} {'metric':<12} {'A median [q1, q3]':<32} "
                 f"{'B median [q1, q3]':<32} {'B/A':>7} {'bound':>6}  verdict")
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    for w in shared:
        ea, eb = (r["workloads"][w]["end_to_end"] for r in (a, b))
        for m in M.END_TO_END:
            v, _ = verdict(ea[m.name], eb[m.name], m.better, m.bound, noisy)
            failed |= v == "worse"
            ratio = eb[m.name]["value"] / ea[m.name]["value"]
            lines.append(f"{w:<18} {m.name:<12} {fmt(ea[m.name]):<32} "
                         f"{fmt(eb[m.name]):<32} {ratio:>7.3f} "
                         f"{m.bound:>6.2f}  {v}")
    lines.append("")
    lines.append(f"{'workload':<18} {'exact':<28} {'A':>22} {'B':>22}  verdict")
    for w in shared:
        wa, wb = (r["workloads"][w] for r in (a, b))
        xa, xb = ({**r["exact"],
                   **{k: e["value"] for k, e in r.get("per_layer", {}).items()
                      if k in M.EXACT}} for r in (wa, wb))
        for key in xa:
            if key not in xb:
                continue
            va, vb = xa[key], xb[key]
            if va == vb == 0 and not key.startswith("sim."):
                continue            # a layer neither run entered
            if va == vb:
                v = "equal"
            elif (key.startswith("analysis.")
                  and vb - va > M.ERR_TOLERANCE):
                v = "worse"
            else:
                v = "unequal"
            failed |= v != "equal"
            lines.append(f"{w:<18} {key:<28} {show(va):>22} {show(vb):>22}"
                         f"  {v}")
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    if a.get("quick") != b.get("quick"):
        print("compare.py: a --quick record is a smoke run and is not "
              "comparable with a full one", file=sys.stderr)
        return 2
    if a["env"]["seed"] != b["env"]["seed"]:
        print(f"compare.py: seeds differ ({a['env']['seed']} vs "
              f"{b['env']['seed']}): simulated statistics only compare "
              f"for one seed", file=sys.stderr)
        return 2
    lines, failed = compare(a, b)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
