#!/usr/bin/env python3
"""Usage census: which functions and config values the real workloads reach.

Runs two surfaces under a call-only tracer and writes ``docs/census.md``:

* **A** (``real``): the seven ``scripts/*_smoke.py``,
  ``scripts/run_doc_examples.py``, ``benchmarks/perf/run.py --quick
  --trace 1`` (the traced pass reaches the per-layer code a plain run
  skips) and ``pytest benchmarks/ --benchmark-only`` -- what a user of
  the repo runs;
* **B** (``tests``): tier-1, ``python -m pytest -q``.

For every function under ``src/repro`` the report says whether A reaches
it, only B does, or neither does, with its line count; for every field
of every config dataclass it lists the values A and B constructed.  Each
row A does not reach carries a verdict from :data:`VERDICTS` below.

How it measures (standard library only -- ``coverage`` is not a
dependency): every command runs in a copy of the working tree under
``.census/tree`` (the figure benches rewrite ``benchmarks/results/``,
which must not touch the checkout), with a generated ``sitecustomize.py``
first on ``PYTHONPATH``.  Python imports that module at start-up in every
interpreter the commands launch -- forked farm workers inherit it,
``benchmarks/perf`` children and spawned interpreters import it again.
It installs a ``sys.settrace``/``threading.settrace`` function that
returns ``None``: only *call* events fire, never line events.  Each
process appends every ``repro`` code object it sees for the first time,
and every leaf value of the config objects handed to ``System``,
``Cache`` and ``DRAM`` constructors, to its own per-pid log (unbuffered
appends, so a worker killed by a chaos plan still leaves its log).
Later ``sys.settrace`` calls are ignored: pytest-benchmark pauses any
installed tracer around the code it measures, which is exactly the code
the figure benches run.

Blind spots: a child started with a hand-built environment that drops
``PYTHONPATH`` is not traced, and a config that is validated but never
built into a ``System``/``Cache``/``DRAM`` does not count as constructed.

Usage::

    python scripts/census.py                  # both surfaces
    python scripts/census.py --surface tests  # re-run B only; A is reused
                                              # from .census/real.json

Each surface's reduced result is kept in ``.census/<surface>.json`` so a
one-surface re-run can still write the whole report.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".census"
REPORT = ROOT / "docs" / "census.md"

#: constructors whose first argument is a config object to record
CONFIG_HOOKS = (("soc/system.py", "System.__init__"),
                ("mem/cache.py", "Cache.__init__"),
                ("mem/dram.py", "DRAM.__init__"))

_FAILURE = "keep: runs only when something fails ({})"
_ITEM17 = ("keep: ROADMAP item 17 relocates what survives of "
           "`repro.accel` beside the one core loop per core type; the core "
           "API is settled there, not twice")
_ITEM7 = ("keep: what is left of ROADMAP item 7 (one cache API, one stats "
          "schema) settles this API")

#: verdicts for rows A does not reach: (pattern on "path:qualname",
#: verdict); the first matching pattern wins
VERDICTS: list[tuple[str, str]] = [
    # -- display and protocol methods
    ("*.__repr__", "keep: `repr()` in a REPL or a traceback; nothing "
     "parses it"),
    ("*.__str__*", "keep: what `print()` shows a user; nothing parses it"),
    ("_lazy.py:lazy_exports.<locals>.__dir__", "keep: what `dir()` and "
     "REPL completion list on a lazy package (PEP 562); nothing parses it"),
    ("core/base.py:CoreModel.*", "keep: the interface `InOrderCore` and "
     "`OoOCore` implement"),
    ("soc/tokens.py:Lane.*", "keep: the lane protocol the scheduler is "
     "typed against (reliability.md builds a custom lane from it)"),
    ("workloads/base.py:MicroKernel.build", "keep: the interface every "
     "MicroBench kernel implements"),
    ("*Stats.reset", "keep: the in-place counter reset of the branch and "
     "accel stats objects (`reset_global_stats` calls `AccelStats.reset`)"),
    ("*Stats.miss_rate", "keep: a derived rate on a stats object "
     "(observability.md: rates are properties, never snapshotted)"),
    ("*Stats.mispredict_rate", "keep: a derived rate on a stats object "
     "(observability.md: rates are properties, never snapshotted)"),
    ("*Stats.row_hit_rate", "keep: a derived rate on a stats object "
     "(observability.md: rates are properties, never snapshotted)"),
    ("*Stats.accesses", "keep: a derived count on a stats object"),
    ("core/base.py:CoreResult.*", "keep: a derived rate on the result "
     "object (observability.md: rates are properties, never snapshotted)"),
    # -- paths that fire only on a failure, a signal or a limit
    ("check/oracle.py:Divergence.*", _FAILURE.format("an oracle divergence")),
    ("check/runner.py:_shrink_*", _FAILURE.format(
        "an oracle divergence, which it shrinks")),
    ("check/shrink.py:*", _FAILURE.format(
        "a divergence: shrink it, file it in the corpus; tier-1 plants one")),
    ("smpi/runtime.py:SMPIRuntime._diagnose", _FAILURE.format(
        "a deadlocked rank program")),
    ("soc/config.py:ConfigValidationError.*", _FAILURE.format(
        "an invalid config")),
    ("reliability/checkpoint.py:CheckpointAuditError.*", _FAILURE.format(
        "a checkpoint that fails its audit")),
    ("farm/runfarm.py:RunFarm._install_sigterm.<locals>._to_interrupt",
     _FAILURE.format("SIGTERM")),
    ("farm/store.py:SharedResultStore.evict", "keep: fires when a store "
     "outgrows its size or entry budget (serving.md)"),
    ("farm/store.py:_spin_lock", "keep: the store lock where `fcntl` is "
     "missing (non-POSIX hosts)"),
    ("mem/coherence.py:SnoopDirectory._prune", "keep: fires once the "
     "directory tracks more than `max_lines` lines; bounds its memory"),
    ("reliability/faults.py:*", "keep: the `token`/`line` fault kinds of "
     "the fault DSL (reliability.md); the chaos smokes plant worker "
     "faults only"),
    ("reliability/checkpoint.py:SimCheckpoint.quanta",
     "keep: `repro checkpoint --info` and `repro replay` print it"),
    # -- user surfaces the census does not drive
    ("cli.py:*", "keep: the `repro` console verbs (README command table, "
     "`tests/test_cli_parity.py`); A drives the same code through the "
     "API; ROADMAP item 15 makes the CLI table-driven"),
    ("analysis/autotune.py:*", "keep: `examples/autotune_model.py` runs it"),
    ("analysis/tuning.py:*", "keep: `examples/tune_banana_pi.py` runs it"),
    ("analysis/perf.py:*", "keep: the `repro perf` verb and api.md's "
     "perf-stat reports"),
    ("analysis/sweep.py:*", "keep: `sweep_configs`/`sweep_knob` of api.md "
     "and farm.md, the farmed form of a §4 knob sweep"),
    ("analysis/error.py:significant", "keep: api.md's error analysis, "
     "beside `seed_variation`/`noise_floor`, which the noise-floor bench "
     "reaches"),
    ("workloads/npb/runners.py:run_npb", "keep: the `repro npb` verb"),
    ("firesim/manager.py:*", "keep: the FireSim-manager API of api.md and "
     "farm.md (`run_mpi`, `reset`)"),
    ("telemetry/cpi.py:cpi_stacks", "keep: api.md's per-tile CPI stacks"),
    ("soc/system.py:System.detach_instrument", "keep: the counterpart of "
     "`attach_instrument` (instrumentation.md)"),
    ("soc/fragments.py:*", "keep: the Chipyard-style fragment vocabulary "
     "(`soc/fragments.py`, api.md) the autotuner and examples compose"),
    ("soc/presets.py:table*_rows", "keep: Table 4/5 as rows (`repro list "
     "configs`)"),
    ("soc/config.py:SoCConfig.seconds", "keep: cycles to seconds at the "
     "config's own clock"),
    ("isa/trace.py:TraceBuilder.*", "keep: the scalar hand-written-trace "
     "API of api.md (recursion, generated programs, markers)"),
    ("isa/trace.py:Trace.stats", "keep: api.md's instruction-mix summary"),
    ("isa/trace.py:TraceStats.*", "keep: api.md's instruction-mix summary"),
    ("isa/trace.py:ColumnBuilder.v*", "keep: RVV emission; ROADMAP parks "
     "RVV timing and `test_bench_extensions.py` owns it"),
    ("isa/trace.py:_vbytes", "keep: RVV emission; ROADMAP parks RVV timing"),
    ("isa/interp.py:Interpreter.*", "keep: register read-back by ABI name "
     "for assembled programs"),
    ("smpi/comm.py:Comm.*", "keep: the point-to-point pair of api.md's "
     "`Comm` API; the collectives yield the same ops"),
    ("smpi/multinode.py:*", "keep: `examples/multinode_scaling.py` runs it"),
    ("smpi/network.py:ethernet_network",
     "keep: `examples/multinode_scaling.py` runs it"),
    ("instrument/*", "keep: the instrumentation API of instrumentation.md "
     "(stream release, trigger specs as dicts for farm workers)"),
    ("farm/cache.py:ResultCache.__len__", "keep: the entry count "
     "`repr()` shows for a cache or store"),
    ("farm/deploy.py:DeployManager.busy_slots", "keep: the busy-slot "
     "count `repr()` shows; `describe()` has it per host"),
    ("serve/queue.py:FairScheduler.withdraw", "keep: `cancel` of a queued "
     "job takes it out of its tenant's backlog (serving.md's protocol); "
     "the serve smokes cancel only running or preempted jobs"),
    ("serve/server.py:FarmServer.instrument_dir", "keep: where a job "
     "submitted with an `instrument` spec streams, and what its `status` "
     "lists (serving.md's protocol); the serve smokes submit none"),
    ("serve/*", _ITEM7),
    ("farm/*", _ITEM7),
    ("accel/stats.py:*", "keep: ROADMAP item 6(d) reshapes the accel "
     "counters"),
    ("core/vector.py:*", "keep: RVV timing; ROADMAP parks it and "
     "`test_bench_extensions.py` owns it"),
    ("workloads/microbench/vectorbench.py:*", "keep: RVV kernels; ROADMAP "
     "parks RVV timing"),
    ("core/branch.py:*_branch_unit", "keep: the front end `InOrderCore`/"
     "`OoOCore` build when no branch unit is passed (bare cores in "
     "tier-1); `System` passes `build_branch_unit(cfg)`; it holds no "
     "table of its own"),
    ("core/*", _ITEM17),
    ("telemetry/*", "keep: the snapshot/CPI-stack API of observability.md"),
    ("workloads/microbench/controlflow.py:CRm.build", "keep: Table 1's "
     "broken kernel, listed so it can be excluded (`spec.broken`)"),
    ("workloads/compiler.py:*", "keep: api.md's `GccModel`; the compiler "
     "ablation reaches its `transform`"),
    ("workloads/lammps/forces.py:*", "keep: LAMMPS-mini's FENE chains and "
     "NVE check (README, workloads.md)"),
    ("workloads/ume/mesh.py:*", "keep: workloads.md's UME partitioning "
     "(`zone_adjacency`, edge cut)"),
    ("workloads/*", "keep: a derived field of a workload's result object"),
    ("silicon/*", "keep: the `Board` harness of api.md"),
]

_DELETED_BEGIN = "<!-- census:deleted:begin -->"
_DELETED_END = "<!-- census:deleted:end -->"


def surfaces(tree: pathlib.Path) -> dict[str, list[list[str]]]:
    py = sys.executable
    smokes = sorted(p.relative_to(tree).as_posix()
                    for p in tree.glob("scripts/*_smoke.py"))
    return {
        "real": [[py, s] for s in smokes] + [
            [py, "scripts/run_doc_examples.py"],
            [py, "benchmarks/perf/run.py", "--seed", "0", "--quick",
             "--trace", "1"],
            [py, "-m", "pytest", "benchmarks/", "--benchmark-only", "-q",
             "-p", "no:cacheprovider"],
        ],
        "tests": [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]],
    }


# -- the in-process tracer ----------------------------------------------------

_HOOK_SOURCE = '''\
"""Census tracer, generated by scripts/census.py; see its docstring."""
import dataclasses as _dc
import os as _os
import sys as _sys
import threading as _threading

_SRC = {src!r}
_LOG = {log!r}
_HOOKS = {hooks!r}
_seen = {{}}
_cfg_ids = {{}}
_values = set()
_fd = [None]


def _write(line):
    if _fd[0] is None:
        _fd[0] = _os.open(_os.path.join(_LOG, "%d.log" % _os.getpid()),
                          _os.O_WRONLY | _os.O_APPEND | _os.O_CREAT, 0o644)
    _os.write(_fd[0], line.encode("utf-8", "backslashreplace"))


def _forked():
    _fd[0] = None


def _walk(obj):
    for f in _dc.fields(obj):
        v = getattr(obj, f.name)
        nested = _dc.is_dataclass(v) and not isinstance(v, type)
        if nested:
            _walk(v)
        key = (type(obj).__name__ + "." + f.name,
               "<%s>" % type(v).__name__ if nested else repr(v))
        if key not in _values:
            _values.add(key)
            _write("C\\t%s\\t%s\\n" % (key[0], key[1].replace("\\n", " ")))


def _config(frame):
    code = frame.f_code
    if code.co_argcount < 2:
        return
    cfg = frame.f_locals.get(code.co_varnames[1])
    if cfg is None or not _dc.is_dataclass(cfg):
        return
    held = _cfg_ids.get(id(cfg))
    if held is cfg:
        return
    _cfg_ids[id(cfg)] = cfg
    _walk(cfg)


def _first(code):
    fn = code.co_filename
    if not fn.startswith(_SRC):
        _seen[code] = 0
        return 0
    rel = fn[len(_SRC):]
    qual = getattr(code, "co_qualname", code.co_name)
    _write("F\\t%s\\t%s\\t%d\\n" % (rel, qual, code.co_firstlineno))
    kind = 2 if (rel, qual) in _HOOKS else 1
    _seen[code] = kind
    return kind


def _tracer(frame, event, arg):
    code = frame.f_code
    kind = _seen.get(code)
    if kind is None:
        kind = _first(code)
    if kind == 2:
        _config(frame)
    return None


_os.register_at_fork(after_in_child=_forked)
_threading.settrace(_tracer)
_real_settrace = _sys.settrace
_real_settrace(_tracer)


def _settrace(func):
    if func is _tracer:  # a new thread installing the threading hook
        _real_settrace(func)


_sys.settrace = _settrace
'''


def install_hook(tree: pathlib.Path, log: pathlib.Path) -> pathlib.Path:
    hook = WORK / "hook"
    hook.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(_HOOK_SOURCE.format(
        src=str(tree / "src" / "repro") + os.sep, log=str(log),
        hooks=frozenset(CONFIG_HOOKS)))
    return hook


# -- running a surface --------------------------------------------------------

def copy_tree() -> pathlib.Path:
    """Copy the working tree's tracked and untracked-unignored files."""
    tree = WORK / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = ROOT / rel
        if not src.is_file():
            continue  # deleted in the working tree
        dst = tree / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dst)
    return tree


def commit_label() -> str:
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src",
                            "scripts", "tests", "benchmarks", "docs",
                            "README.md", "examples", ":!scripts/census.py",
                            ":!docs/census.md"],
                           cwd=ROOT, capture_output=True, text=True).stdout
    return head + (" + uncommitted changes" if dirty.strip() else "")


def run_surface(name: str, tree: pathlib.Path) -> dict:
    log = WORK / "logs" / name
    if log.exists():
        shutil.rmtree(log)
    log.mkdir(parents=True)
    hook = install_hook(tree, log)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook), str(tree / "src")])
    commands = []
    t_surface = time.monotonic()
    for cmd in surfaces(tree)[name]:
        shown = " ".join(["python"] + cmd[1:])
        print(f"[census {name}] {shown}", flush=True)
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=tree, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        wall = time.monotonic() - t0
        print(f"[census {name}]   exit {proc.returncode}, {wall:.0f} s",
              flush=True)
        commands.append({"cmd": shown, "exit": proc.returncode,
                         "wall_s": round(wall, 1)})
    defs = enumerate_functions(tree / "src" / "repro")
    functions: set[tuple[str, str, int]] = set()
    values: dict[str, set[str]] = defaultdict(set)
    for path in log.glob("*.log"):
        for line in path.read_text(errors="replace").splitlines():
            parts = line.split("\t")
            if parts[0] == "F" and len(parts) == 4:
                rel, qual, first = parts[1], parts[2], int(parts[3])
                for k, (line_no, _) in enumerate(defs.get((rel, qual), ())):
                    if line_no == first:
                        functions.add((rel, qual, k))
            elif parts[0] == "C" and len(parts) == 3:
                values[parts[1]].add(parts[2])
            # anything else is a line torn by a SIGKILL
    shutil.rmtree(log)
    result = {
        "surface": name,
        "commit": commit_label(),
        "wall_s": round(time.monotonic() - t_surface, 1),
        "commands": commands,
        "functions": sorted(functions),
        "values": {k: sorted(v) for k, v in sorted(values.items())},
    }
    (WORK / f"{name}.json").write_text(json.dumps(result, indent=1))
    return result


# -- the static side: what exists ---------------------------------------------

def enumerate_functions(src: pathlib.Path,
                        ) -> dict[tuple[str, str], list[tuple[int, int]]]:
    """``(path, qualname) -> [(first line, lines), ...]`` for every def
    under *src*, in source order.

    Lambdas, comprehensions and class bodies are not rows.  Several defs
    can share a qualname (a property's getter and setter, the per-kind
    closures of one factory); a row is one def, told apart from its
    namesakes by its position in that list, which survives edits that
    only move lines.
    """
    rows: dict[tuple[str, str], list[tuple[int, int]]] = defaultdict(list)
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_name.startswith("<") or not code.co_flags & 0x2:
                continue  # not a function (CO_NEWLOCALS)
            first = code.co_firstlineno
            last = max((ln for _, _, ln in code.co_lines() if ln is not None),
                       default=first)
            qual = getattr(code, "co_qualname", code.co_name)
            rows[(rel, qual)].append((first, last - first + 1))
    return {key: sorted(v) for key, v in rows.items()}


def config_fields(src: pathlib.Path) -> dict[str, list[str]]:
    """``class -> fields`` of every ``*Config``/``*Timings`` dataclass."""
    out: dict[str, list[str]] = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith(("Config", "Timings"))):
                continue
            if not any("dataclass" in ast.unparse(d)
                       for d in node.decorator_list):
                continue
            out[node.name] = [s.target.id for s in node.body
                              if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
    return out


def verdict(rel: str, qual: str) -> str:
    key = f"{rel}:{qual}"
    for pattern, text in VERDICTS:
        if fnmatch.fnmatchcase(key, pattern):
            return text
    return ""


# -- the report ---------------------------------------------------------------

def _values_cell(vals: list[str], limit: int = 6) -> str:
    if not vals:
        return "—"
    shown = ", ".join(f"`{v}`" for v in vals[:limit])
    more = len(vals) - limit
    return shown + (f" … (+{more})" if more > 0 else "")


def write_report(results: dict[str, dict | None]) -> int:
    src = ROOT / "src" / "repro"
    rows = enumerate_functions(src)
    real = results.get("real")
    tests = results.get("tests")
    hit_a = {tuple(f) for f in real["functions"]} if real else set()
    hit_b = {tuple(f) for f in tests["functions"]} if tests else set()

    def reach(key) -> str:
        if key in hit_a:
            return "A"
        return "only B" if key in hit_b else "neither"

    #: module -> [(name, qualname, lines, reach)]
    by_module: dict[str, list[tuple[str, str, int, str]]] = defaultdict(list)
    for (rel, qual), found in sorted(rows.items()):
        for k, (first, n) in enumerate(found):
            name = qual if len(found) == 1 else f"{qual} (L{first})"
            by_module[rel].append((name, qual, n, reach((rel, qual, k))))

    lines_out: list[str] = [
        "# Usage census",
        "",
        "Generated by `python scripts/census.py`; do not edit by hand "
        "(verdicts live in `VERDICTS` in that script; the *Deleted* block "
        "is carried forward as written).  **A** is the real surface a user "
        "runs, **B** is tier-1 (without `-x`, so every test runs); a "
        "function is reached when any process a surface starts calls it "
        "at least once.  Each command runs under `PYTHONPATH=<hook>:src` in "
        "a copy of the working tree; how it measures and its blind spots: "
        "the script's docstring.",
        "",
        "| surface | commit | command | exit | wall s |",
        "|---|---|---|---|---|",
    ]
    for label, res in (("A", real), ("B", tests)):
        if res is None:
            lines_out.append(f"| {label} | — | not run | — | — |")
            continue
        for c in res["commands"]:
            lines_out.append(f"| {label} | `{res['commit']}` | `{c['cmd']}` "
                             f"| {c['exit']} | {c['wall_s']} |")
        lines_out.append(f"| {label} | | **total** | | **{res['wall_s']}** |")

    tot = defaultdict(lambda: [0, 0])
    for funcs in by_module.values():
        for _, _, n, r in funcs:
            tot[r][0] += 1
            tot[r][1] += n
    lines_out += [
        "",
        "## Summary",
        "",
        "| reach | functions | lines |",
        "|---|---|---|",
    ] + [f"| {r} | {tot[r][0]} | {tot[r][1]} |"
         for r in ("A", "only B", "neither")]

    fields = config_fields(src)
    va = real["values"] if real else {}
    vb = tests["values"] if tests else {}
    lines_out += [
        "",
        "## Config fields",
        "",
        "Values constructed into a `System`, `Cache` or `DRAM` "
        "(repr, at most six shown).",
        "",
        "| field | A constructed | only B constructed |",
        "|---|---|---|",
    ]
    for cls in sorted(fields):
        for f in fields[cls]:
            key = f"{cls}.{f}"
            a = va.get(key, [])
            b_only = [v for v in vb.get(key, []) if v not in set(a)]
            lines_out.append(f"| `{key}` | {_values_cell(a)} "
                             f"| {_values_cell(b_only)} |")

    missing = 0
    lines_out += [
        "",
        "## Functions A does not reach",
        "",
        "| function | lines | reach | verdict |",
        "|---|---|---|---|",
    ]
    for rel, funcs in by_module.items():
        for name, qual, n, r in funcs:
            if r == "A":
                continue
            v = verdict(rel, qual)
            if not v:
                missing += 1
                v = "**no verdict**"
            lines_out.append(f"| `{rel}:{name}` | {n} | {r} | {v} |")

    old = REPORT.read_text() if REPORT.exists() else ""
    if _DELETED_BEGIN in old and _DELETED_END in old:
        block = old[old.index(_DELETED_BEGIN):
                    old.index(_DELETED_END) + len(_DELETED_END)]
        lines_out += ["", block]

    lines_out += [
        "",
        "## Functions A reaches",
        "",
    ]
    for rel, funcs in by_module.items():
        reached = [f"{name}: {n}" for name, _, n, r in funcs if r == "A"]
        if reached:
            lines_out.append(f"- `{rel}`: " + ", ".join(reached))
    REPORT.write_text("\n".join(lines_out) + "\n")
    print(f"wrote {REPORT.relative_to(ROOT)}: "
          f"{sum(map(len, rows.values()))} functions, "
          f"{missing} unreached without a verdict")
    return missing


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--surface", choices=("all", "real", "tests"),
                    default="all", help="which surface to (re-)run")
    args = ap.parse_args(argv)
    run = ("real", "tests") if args.surface == "all" else (args.surface,)
    WORK.mkdir(exist_ok=True)
    tree = copy_tree()
    results: dict[str, dict | None] = {}
    try:
        for name in ("real", "tests"):
            saved = WORK / f"{name}.json"
            if name in run:
                results[name] = run_surface(name, tree)
            elif saved.exists():
                results[name] = json.loads(saved.read_text())
            else:
                results[name] = None
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    return 1 if write_report(results) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
