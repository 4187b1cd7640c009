#!/usr/bin/env python3
"""Host-cost ledger: Python and C calls per simulated uop, exactly.

Wall-clock pairs on a shared host spread by 15-30%, so a change that
saves a few percent cannot be told from noise by timing alone.  Call
counts are exact: this script runs each case as
:func:`repro.workloads.microbench.run_kernel` does (trace digest, fresh
``System``, warm pass, measured pass) and counts, with
``sys.setprofile``, the ``call`` and ``c_call`` events of the measured
``System.run`` alone.  Trace build, digest, compile and
warm pass stay outside the count.

Cases: the seven of ROADMAP item 21, plus ``reuse``: MediumBOOM ``MM``
measured right after a LargeBOOM ``MM`` run over the same trace, the
sweep order in which the branch front end's window reuse can fire.

Usage::

    python scripts/host_ledger.py               # print the ledger
    python scripts/host_ledger.py --top 8       # ... with the top callees
    python scripts/host_ledger.py --json F      # also write the counts
    python scripts/host_ledger.py --check       # compare with the ledger
    python scripts/host_ledger.py --opcodes     # bytecodes per uop of each
                                                # core loop's own frame

Counts depend on the interpreter (3.12 inlines comprehensions and
profiles through ``sys.monitoring``), so ``tests/host_ledger.json``
keeps one record per Python ``major.minor``.  ``--check`` recomputes
every case against the running interpreter's record and exits 1 when a
count rose; ``tests/test_host_ledger.py`` does the same in tier-1 for
every case but the two ``MIP`` ones (68,811 uops each, ~2.5 s of
profiled run between them), and skips an interpreter with no record.
A count that fell is printed, to be re-recorded with ``--json
tests/host_ledger.json`` (which rewrites the running interpreter's
record only); a rise is recorded only with its reason.  ``--opcodes`` traces every
opcode of ``InOrderCore.run``/``OoOCore.run`` (their own frames, not
their callees) and is slow; no test runs it.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: case name -> (config, kernel, configs run before it on the same trace)
CASES = {
    "BananaPiSim/EI": ("BananaPiSim", "EI", ()),
    "BananaPiSim/CF1": ("BananaPiSim", "CF1", ()),
    "BananaPiSim/MIP": ("BananaPiSim", "MIP", ()),
    "BananaPiSim/MM": ("BananaPiSim", "MM", ()),
    "LargeBOOM/MM": ("LargeBOOM", "MM", ()),
    "LargeBOOM/CF1": ("LargeBOOM", "CF1", ()),
    "MILKVSim/MIP": ("MILKVSim", "MIP", ()),
    "reuse:MediumBOOM/MM": ("MediumBOOM", "MM", ("LargeBOOM",)),
}

#: every case runs at this scale and seed (MIP clamps to its own floor)
SCALE, SEED = 0.05, 0


#: each kernel's trace, built once per process: the cases clear every
#: cache in ``repro.accel.memo``, so it cannot keep them
_traces: dict = {}


def _prepare(config: str, kernel: str, before=()):
    """Clear the caches, run *before* (warm and measured pass each), and
    return ``(system, trace)`` warmed for the measured pass.

    Every case warms, whether or not the kernel asks for it, so the
    count never includes a first-touch cost (a cache row made, a lookup
    table built) and does not depend on what ran earlier in the process.
    """
    from repro.accel import memo
    from repro.soc import System, get_config
    from repro.workloads.microbench import get_kernel

    memo.clear_caches()
    trace = _traces.get(kernel)
    if trace is None:
        kern = get_kernel(kernel)
        trace = _traces[kernel] = kern.build(
            scale=max(SCALE, kern.min_harness_scale), seed=SEED)
    memo.trace_digest(trace)
    for name in (*before, config):
        system = System(get_config(name))
        system.run(trace)
        if name != config:
            system.run(trace)
    return system, trace


def count_calls(config: str, kernel: str, before=()) -> dict:
    """Calls of one measured ``System.run``: totals and per callee."""
    system, trace = _prepare(config, kernel, before)
    py: Counter = Counter()
    c: Counter = Counter()

    # keyed by code object / builtin while counting: the names are
    # formatted once afterwards, not per event
    def profile(frame, event, arg):
        if event == "call":
            py[frame.f_code] += 1
        elif event == "c_call":
            c[arg] += 1

    # a collection inside the count would add whatever finalizers the
    # process's garbage happens to run
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        system.run(trace)
    finally:
        sys.setprofile(None)
        gc.enable()
    py_named: Counter = Counter()
    for code, k in py.items():
        # co_qualname is 3.11+
        py_named[f"{pathlib.Path(code.co_filename).name}:"
                 f"{getattr(code, 'co_qualname', code.co_name)}"] += k
    c_named: Counter = Counter()
    for fn, k in c.items():
        c_named[getattr(fn, "__qualname__", repr(fn))] += k
    return {"uops": len(trace), "py_calls": py.total(),
            "c_calls": c.total(), "py": py_named, "c": c_named}


def count_opcodes(config: str, kernel: str, before=()) -> tuple[int, int]:
    """``(opcodes, uops)``: bytecodes the core loop's own frame executes
    in one measured run."""
    from repro.core.inorder import InOrderCore
    from repro.core.ooo import OoOCore

    system, trace = _prepare(config, kernel, before)
    loops = {InOrderCore.run.__code__, OoOCore.run.__code__}
    n = 0

    def local(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code in loops:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            return local
        return None

    sys.settrace(tracer)
    try:
        system.run(trace)
    finally:
        sys.settrace(None)
    return n, len(trace)


LEDGER = ROOT / "tests" / "host_ledger.json"

#: the ledger's record for the running interpreter is under this key
PYTHON = "{}.{}".format(*sys.version_info[:2])


def recorded() -> dict:
    """The running interpreter's record: ``{case: {uops, py_calls,
    c_calls}}``, empty when none was recorded on it."""
    return json.loads(LEDGER.read_text()).get(PYTHON, {})


def compare(case: str, got: dict, pinned: dict) -> list[str]:
    """Lines for every count of *case* that moved: ``rose`` or ``fell``."""
    out = []
    for key in ("uops", "py_calls", "c_calls"):
        old, new = pinned[case][key], got[key]
        if new != old:
            out.append(f"{case}: {key} {'rose' if new > old else 'fell'} "
                       f"{old} -> {new}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--top", type=int, default=0,
                    help="also list the N most-called Python and C callees")
    ap.add_argument("--json", type=pathlib.Path,
                    help="write {case: {uops, py_calls, c_calls}} as "
                         "this interpreter's record in this ledger file")
    ap.add_argument("--opcodes", action="store_true",
                    help="report the core loops' own bytecodes per uop")
    ap.add_argument("--check", action="store_true",
                    help=f"exit 1 when a count is above {LEDGER.name}'s")
    args = ap.parse_args(argv)

    if args.opcodes:
        cases = {"BananaPiSim/EI": CASES["BananaPiSim/EI"],
                 "LargeBOOM/EI": ("LargeBOOM", "EI", ()), **CASES}
        print(f"{'case':22} {'uops':>7} {'opcodes/uop':>12}")
        for case, (config, kernel, before) in cases.items():
            ops, uops = count_opcodes(config, kernel, before)
            print(f"{case:22} {uops:>7} {ops / uops:>12.1f}")
        return 0

    pinned = recorded() if args.check else {}
    if args.check and not pinned:
        print(f"{LEDGER.name} has no record for Python {PYTHON}; "
              f"nothing to check")
        return 0
    out, moved = {}, []
    print(f"{'case':22} {'uops':>7} {'py/uop':>8} {'C/uop':>8}")
    for case, (config, kernel, before) in CASES.items():
        got = count_calls(config, kernel, before)
        out[case] = {k: got[k] for k in ("uops", "py_calls", "c_calls")}
        u = got["uops"]
        print(f"{case:22} {u:>7} {got['py_calls'] / u:>8.2f} "
              f"{got['c_calls'] / u:>8.2f}")
        for kind in ("py", "c")[:2 if args.top else 0]:
            for name, k in got[kind].most_common(args.top):
                print(f"    {kind:2} {k / u:>8.3f}  {name}")
        if args.check:
            moved += compare(case, got, pinned)
    if args.json is not None:
        doc = (json.loads(args.json.read_text()) if args.json.exists()
               else {})
        doc[PYTHON] = out
        args.json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for line in moved:
        print(line)
    return 1 if any(" rose " in line for line in moved) else 0


if __name__ == "__main__":
    sys.exit(main())
