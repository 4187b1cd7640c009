"""Contract self-test for the perf benchmark (``pytest benchmarks/perf``).

Outside the tier-1 ``testpaths``: it checks the benchmark's own
declarations and plumbing, not the simulator.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import metrics as M  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_what_the_declarations_imply():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == M.benchmark_json()
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_counts_are_inside_the_contract():
    names = ([m.name for m in M.END_TO_END] + [m.name for m in M.PER_LAYER]
             + list(M.WORKLOADS))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m.unit) for m in M.END_TO_END + M.PER_LAYER)
    assert 2 <= len(M.WORKLOADS) <= 8
    assert 1 <= len(M.END_TO_END) <= 16
    assert 1 <= len(M.PER_LAYER) <= 128
    assert all(len(why) <= 200 and "\n" not in why
               for why in M.WORKLOADS.values())
    assert all(m.better in ("lower", "higher")
               for m in M.END_TO_END + M.PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in M.END_TO_END)
    setup = next(m for m in M.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in M.END_TO_END)
    assert 1 <= M.RUN_SECONDS <= 60


def test_every_layer_metric_says_what_it_should_move():
    e2e = {m.name for m in M.END_TO_END}
    for m in M.PER_LAYER:
        if m.moves is None:
            # simulated statistics move nothing: they only compare equal
            assert m.name in M.EXACT, m.name
            continue
        metric, workload = m.moves
        assert metric in e2e and workload in M.WORKLOADS, m.name


def test_span_self_time_on_a_synthetic_nest():
    now = [0.0]
    rec = spans.Recorder(clock=lambda: now[0])

    def at(t):
        now[0] = t

    with rec.span("outer", op="op1"):           # 0..10
        at(1)
        with rec.span("child"):                 # 1..4
            at(2)
            with rec.span("grandchild"):        # 2..3
                at(3)
            at(4)
        at(6)
        with rec.span("child"):                 # 6..9
            at(9)
        at(10)
    selfs = spans.by_name(rec.spans)
    assert selfs == {"outer": [4.0], "child": [2.0, 3.0],
                     "grandchild": [1.0]}
    assert [s.op for s in rec.spans] == ["op1"] * 4     # children inherit
    roots = [(s.start, s.end) for s in rec.spans if s.parent is None]
    assert spans.covered(roots, 0, 12) == 10.0
    assert spans.covered([(0, 5), (3, 8), (20, 30)], 0, 10) == 8.0


def test_regions_divide_by_the_host_slowdown(monkeypatch):
    monkeypatch.setattr(spans, "loop_s", lambda: 2 * spans.REF_LOOP_S)
    rec = spans.Recorder()
    regions = spans.Regions(rec)
    with regions.time("op"), rec.span("layer", "op"):
        pass
    assert regions.slowdown == {"op": 2.0}
    assert regions.ref["op"] == regions.raw["op"] / 2.0
    (span,) = rec.spans
    assert span.slowdown == 2.0 and span.ref_s == span.duration / 2.0
    assert spans.by_name(rec.spans) == {"layer": [span.duration / 2.0]}


def test_recorder_off_records_nothing():
    with spans.OFF.span("anything") as s:
        assert s.duration == 0.0
    assert spans.OFF.spans == []


def test_child_env_drops_repro_redirection(tmp_path):
    env = run.child_env({"REPRO_CACHE_DIR": "/elsewhere", "REPRO_WORKERS": "9",
                         "REPRO_DEPLOY": "hosts:a=1", "REPRO_SERVE": "x",
                         "REPRO_ACCEL_MEMO": "0", "PATH": "/bin"}, tmp_path)
    assert env == {"PATH": "/bin", "TMPDIR": str(tmp_path)}


def _run(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_meets_the_output_contract(trace, tmp_path):
    """A real child, started with REPRO_CACHE_DIR set, still runs against
    fresh temp dirs and prints the contract's last line."""
    elsewhere = tmp_path / "user-cache"
    env = dict(os.environ, REPRO_CACHE_DIR=str(elsewhere), REPRO_WORKERS="1")
    out = tmp_path / "record.json"
    proc = _run("--workload", "farm_store", "--seed", "5", "--quick",
                "--trace", str(trace), "--out", str(out), env=env)
    assert proc.returncode == 0, proc.stderr
    assert not elsewhere.exists()
    # the run's work dir is removed
    assert not list((ROOT / ".perfbench").glob("*-farm_store"))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = M.PER_LAYER if trace else M.END_TO_END
    assert list(last["metrics"]) == [m.name for m in declared]
    for m in declared:
        assert last["metrics"][m.name]["unit"] == m.unit
        assert m.name in proc.stdout                # printed by name
    record = json.loads(out.read_text())
    assert record["quick"] is True
    assert {"nproc", "python", "numpy", "git_sha", "seed", "reps",
            "loadavg_start", "loadavg_end"} <= set(record["env"])
    entry = record["workloads"]["farm_store"]
    assert entry["params"]["workers"] <= os.cpu_count()
    if trace:
        assert entry["trace"]["attributed_share"] >= 0.9
        assert entry["per_layer"]["soc.run_s"]["value"] == 0
        assert entry["per_layer"]["farm.cache_hits"]["value"] == 12


def test_a_failing_op_raises_the_failed_count(tmp_path, monkeypatch):
    import workloads as W

    monkeypatch.chdir(tmp_path)
    wl = W.TracePipeline(seed=3, quick=True, work=pathlib.Path("."))
    wl.setup()
    wl.kernels = wl.kernels[:4]
    out = wl.run_pass(spans.OFF)
    assert wl.check(out) == (4, [])
    out.outputs[2]["npz_digest"] = "0" * 64     # a corrupted round trip
    attempted, failures = wl.check(out)
    assert attempted == 4 and len(failures) == 1
    assert out.outputs[2]["op"] in failures[0]
    bad = W._check_payload("op", {"cycles": 0, "instructions": 3,
                                  "cpi": [{"cycles": 0,
                                           "buckets": {"base": 1}}]}, uops=4)
    assert len(bad) == 3


def _entry(value, q1, q3, samples):
    return {"value": value, "q1": q1, "q3": q3, "samples": samples}


def test_compare_verdicts():
    base = _entry(10.0, 9.9, 10.1, [9.9, 10.0, 10.1])
    assert compare.verdict(base, _entry(10.5, 10.4, 10.6, [10.4, 10.5, 10.6]),
                           "lower", 0.10, False)[0] == "ok"
    assert compare.verdict(base, _entry(12.0, 11.9, 12.1, [11.9, 12.0, 12.1]),
                           "lower", 0.10, False)[0] == "worse"
    wide = _entry(10.5, 9.0, 12.0, [9.0, 10.5, 12.0])
    assert compare.verdict(base, wide, "lower", 0.10, False)[0] == "unresolved"
    assert compare.verdict(base, base, "lower", 0.10, True)[0] == "unresolved"
    faster = _entry(8.0, 7.0, 9.0, [7.0, 8.0, 9.0])     # wide but all better
    assert compare.verdict(base, faster, "lower", 0.10, False)[0] == "ok"
    assert compare.verdict(base, faster, "higher", 0.10, False)[0] == "worse"


def test_compare_refuses_quick_against_full(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"quick": True, "env": {"seed": 1},
                             "workloads": {}}))
    b.write_text(json.dumps({"quick": False, "env": {"seed": 1},
                             "workloads": {}}))
    assert compare.main([str(a), str(b)]) == 2
    assert compare.main([str(a), str(a)]) == 0


def test_exits_nonzero_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and ``paths`` there is
    nothing to measure: the benchmark must say so, not print a result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "trace_pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
