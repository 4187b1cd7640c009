"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

The single declaration that ``BENCHMARK.json``, ``run.py``, ``compare.py``
and the contract self-test all read.  ``python benchmarks/perf/metrics.py``
prints the ``BENCHMARK.json`` these declarations imply.

Host time is what the simulator takes to run; simulated time is what the
modelled hardware would take.  Every ``*_s``/``*_ms``/``*_us_*`` metric
here is host time, in the reference seconds ``spans.Regions`` explains;
``analysis.*`` and ``sim.*`` are simulated and repeat exactly for one
seed.
"""

from __future__ import annotations

import json
from typing import NamedTuple

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "EXACT", "ERR_TOLERANCE",
           "RUN_SECONDS", "COMMAND", "PATHS", "benchmark_json"]

COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]
#: measuring time of one run; 4 + 22 x 6 driver runs of this plus set-up
#: probes and output checks stay inside the driver's 3420 s
RUN_SECONDS = 12

#: name -> one-line reason the workload exists (names are fixed: later
#: issues cite them)
WORKLOADS: dict[str, str] = {
    "trace_pipeline": (
        "39 kernels built, digested, compiled, payload- and npz-round-"
        "tripped with no simulation: only workloads/isa/accel.compile "
        "work, so trace-build gains show here and nowhere else"),
    "suite_cold": (
        "39 kernels on the Banana Pi board/sim pair via run_kernel, caches "
        "cleared per kernel: the paper's Fig. 1 path, in-order engine plus "
        "L1/TLB/L2/DRAM dominate; yields the Banana Pi model error"),
    "sweep_batched": (
        "six kernels x all 10 configs via execute_job(Job.sweep): trace "
        "build amortised 10x, the five OoO configs dominate, bypasses "
        "what trace_pipeline stresses; yields the MILK-V model error"),
    "apps_mpi": (
        "LAMMPS-LJ at 1 and 4 ranks on the Banana Pi pair plus NPB CG/MG "
        "class W: hundreds of short smpi compute chunks, so engine "
        "attach/detach and PhaseEmitter dominate, not the steady loop"),
    "farm_store": (
        "48 kernel jobs through a 2-worker RunFarm cold, then warm from "
        "ResultCache and SharedResultStore: dispatch plus store put beside "
        "store get plus JSON decode with zero simulation"),
    "serve_closed_loop": (
        "2 closed-loop clients submit 100 distinct small jobs to a "
        "FarmServer, then the same again as store hits: queue, scheduler, "
        "worker spawn, journal and store are the whole latency"),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float        #: share of the parent's median it may worsen by
    what: str


#: every workload reports every one of these (the driver's contract), so
#: workload-specific quantities share one name: see README "Metrics"
END_TO_END: list[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "child start to first op: imports, config build, server "
             "start; median of several fresh interpreters"),
    EndToEnd("wall_s", "s", "lower", 0.15,
             "host seconds of the timed regions of one pass (farm_store: "
             "the two cold 2-worker passes); median pass, region by region"),
    EndToEnd("work_per_s", "1/s", "higher", 0.20,
             "work per host second: uops built+compiled+serialised "
             "(trace_pipeline), simulated uops (suite_cold, sweep_batched, "
             "apps_mpi), jobs served cold and warm (farm_store), jobs "
             "(serve_closed_loop)"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.20,
             "median host ms of one op: kernel pipeline, run_kernel call, "
             "sweep job, app run, cold farm job (JobResult.elapsed_s), "
             "miss-phase submit round trip"),
    EndToEnd("op_p95_ms", "ms", "lower", 0.25,
             "95th percentile of the same op times within a pass; median "
             "pass"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "ru_maxrss of the workload's interpreter plus its largest "
             "reaped worker"),
]


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workload) this number should move, or None
    #: for a simulated statistic that must only ever compare equal
    moves: tuple[str, str] | None
    what: str


def _layers() -> list[Layer]:
    tp, sc, sb = "trace_pipeline", "suite_cold", "sweep_batched"
    am, fs, sv = "apps_mpi", "farm_store", "serve_closed_loop"
    w, t = "work_per_s", "wall_s"
    rows: list[Layer] = [
        Layer("workloads.build_s", "s", "lower", (w, tp),
              "MicroKernel.build self time"),
        Layer("workloads.build_uops_per_s", "1/s", "higher", (w, tp),
              "uops built per second of build"),
        Layer("workloads.app_s.lammps", "s", "lower", (t, am),
              "run_lammps calls"),
        Layer("workloads.app_s.npb", "s", "lower", (t, am),
              "run_cg + run_mg calls"),
        Layer("isa.serialize_s", "s", "lower", (w, tp),
              "save_trace + load_trace"),
        Layer("isa.trace_bytes", "B", "lower", (w, tp),
              "bytes of the saved npz traces"),
        Layer("accel.memo.digest_s", "s", "lower", (w, tp),
              "trace_digest / memo_key"),
        Layer("accel.memo.trace_cache_hits", "count", "higher", (t, sc),
              "shared_trace hits (suite_cold: one per kernel)"),
        Layer("accel.memo.trace_cache_misses", "count", "lower", (t, sc),
              "shared_trace misses"),
        Layer("accel.memo.result_hits", "count", "lower", (t, sc),
              "result-memo hits; nonzero on suite_cold means a pass fed "
              "on an earlier one"),
        Layer("accel.memo.result_misses", "count", "lower", (t, sc),
              "result-memo misses"),
        Layer("accel.compile.compile_s", "s", "lower", (w, tp),
              "compiled_trace"),
        Layer("accel.compile.uops_per_s", "1/s", "higher", (w, tp),
              "uops compiled per second of compile"),
        Layer("accel.compile.payload_s", "s", "lower", (w, tp),
              "trace_payload + trace_from_payload"),
        Layer("accel.compile.store_hits", "count", "higher", (w, sb),
              "compiled-trace store hits"),
        Layer("accel.compile.store_misses", "count", "lower", (w, sb),
              "compiled-trace store misses"),
        Layer("soc.build_s", "s", "lower", (w, sc), "System(cfg)"),
        Layer("soc.warm_s", "s", "lower", (w, sc), "warm-up System.run"),
        Layer("soc.run_s", "s", "lower", (w, sc), "measured System.run"),
        Layer("soc.run_us_per_uop.inorder", "us", "lower", (w, sc),
              "host us per uop on in-order configs"),
        Layer("soc.run_us_per_uop.ooo", "us", "lower", (w, sb),
              "host us per uop on OoO configs"),
    ]
    rows += [Layer(f"soc.run_us_per_uop.{cat}", "us", "lower", (w, sc),
                   f"host us per uop on the {cat} kernels (Table 1)")
             for cat in ("control", "data", "execution", "cache", "memory")]
    rows += [
        Layer("soc.attach_share", "ratio", "lower", (w, am),
              "apps_mpi host us per uop over steady-state host us per uop "
              "on BananaPiSim: the cost of attach/detach and short chunks"),
    ]
    rows += [Layer(f"mem.{n}", "count", "lower", (w, sc), what)
             for n, what in (
                 ("l1d_accesses", "L1D accesses, all tiles"),
                 ("l1d_misses", "L1D misses"),
                 ("l2_accesses", "L2 accesses"),
                 ("l2_misses", "L2 misses"),
                 ("dram_reads", "DRAM reads, all channels"),
                 ("dtlb_misses", "DTLB misses"),
                 ("bus_transfers", "system-bus transfers"))]
    rows += [
        Layer("mem.host_us_per_access", "us", "lower", (w, sc),
              "soc.run_s over L1D+L1I accesses on the cache+memory "
              "kernels: what a flat memory walk must lower"),
        Layer("core.branches", "count", "lower", (w, sc), "branches"),
        Layer("core.mispredicts", "count", "lower", (w, sc), "mispredicts"),
        Layer("core.host_us_per_uop.execution", "us", "lower", (w, sc),
              "host us per uop on EI/EF/ED1/EM1/EM5, memory system idle"),
        Layer("accel.fastpath_coverage", "ratio", "higher", (w, sc),
              "uops retired by the closed-form span path"),
        Layer("accel.spans", "count", "higher", (w, sc),
              "spans attempted"),
        Layer("accel.spans_completed", "count", "higher", (w, sc),
              "spans completed"),
        Layer("accel.batch.inorder_group_s", "s", "lower", (w, sb),
              "batched_sweep with only the in-order configs"),
        Layer("accel.batch.ooo_solo_s", "s", "lower", (w, sb),
              "batched_sweep with only the OoO configs"),
        Layer("accel.batch.vs_serial_ratio", "ratio", "higher", (w, sb),
              "per-config run_kernel wall over batched wall, 3 kernels"),
        Layer("telemetry.snapshot_s", "s", "lower", (t, sb),
              "snapshot + delta + cpi_stack, median per op"),
        Layer("farm.payload_s", "s", "lower", (w, fs),
              "JSON encode + decode of one kernel payload"),
        Layer("farm.payload_bytes", "B", "lower", (w, fs),
              "encoded size of one kernel payload"),
        Layer("farm.cache_put_s", "s", "lower", (t, fs),
              "ResultCache.put, per op"),
        Layer("farm.cache_get_s", "s", "lower", (w, fs),
              "ResultCache.get, per op"),
        Layer("farm.store_put_s", "s", "lower", (t, fs),
              "SharedResultStore.put, per op"),
        Layer("farm.store_get_s", "s", "lower", (w, fs),
              "SharedResultStore.get, per op"),
        Layer("farm.dispatch_overhead_s", "s", "lower", (t, fs),
              "cold RunFarm(workers=1) wall minus serial execute_job wall"),
        Layer("farm.parallel_efficiency", "ratio", "higher", (t, fs),
              "serial wall over workers x parallel cold wall"),
        Layer("farm.cache_hits", "count", "higher", (w, fs),
              "FarmStats.cache_hits of a warm pass"),
        Layer("farm.retries", "count", "lower", (t, fs),
              "FarmStats.retries"),
        Layer("farm.crashes", "count", "lower", (t, fs),
              "FarmStats.crashes"),
        Layer("serve.submit_rtt_ms", "ms", "lower", ("op_p50_ms", sv),
              "the submit call alone, median"),
        Layer("serve.ping_rtt_ms", "ms", "lower", ("op_p50_ms", sv),
              "ping round trip, median"),
        Layer("serve.queue_to_done_ms", "ms", "lower", ("op_p50_ms", sv),
              "submit ack to terminal state, median"),
        Layer("serve.hit_p50_ms", "ms", "lower", (w, sv),
              "store-hit submit round trip, median"),
        Layer("serve.miss_minus_direct_ms", "ms", "lower",
              ("op_p50_ms", sv),
              "miss p50 minus in-process execute_job p50: pure service "
              "overhead"),
        Layer("serve.store_hits", "count", "higher", (w, sv),
              "shared-store hits the server reports"),
        Layer("serve.retries", "count", "lower", ("op_p95_ms", sv),
              "attempts beyond the first"),
        Layer("smpi.run_s.ranks1", "s", "lower", (t, am),
              "LAMMPS runs at 1 rank"),
        Layer("smpi.run_s.ranks4", "s", "lower", (t, am),
              "LAMMPS runs at 4 ranks"),
        Layer("smpi.ranks4_over_ranks1", "ratio", "lower", (t, am),
              "host cost of four lockstep tiles over one"),
        Layer("spans.overhead_ratio", "ratio", "lower", (t, sc),
              "traced pass wall over untraced median"),
        Layer("spans.unattributed_s", "s", "lower", (t, sc),
              "traced wall no named span covers"),
        # simulated statistics: no direction a speed-up may move them in
        Layer("analysis.model_err_log2", "log2", "lower", None,
              "mean abs log2 relative speedup, sim model vs the repo's "
              "own board model, over the workload's kernels"),
        Layer("analysis.err_tuned_log2", "log2", "lower", None,
              "the same over the QUICK_KERNELS the tuning walk used"),
        Layer("analysis.err_heldout_log2", "log2", "lower", None,
              "the same over the kernels held back from tuning"),
        Layer("analysis.app_err_log2", "log2", "lower", None,
              "mean abs log2(measured / paper LAMMPS-LJ relative speedup) "
              "at 1 and 4 ranks"),
        Layer("sim.cycles_total", "count", "lower", None,
              "simulated cycles of one pass"),
        Layer("sim.uops_total", "count", "lower", None,
              "simulated (or built) uops of one pass"),
    ]
    return rows


PER_LAYER: list[Layer] = _layers()

#: per-layer metrics two commits must agree on exactly for one seed
#: (``sim_digest`` joins them in the record); the error metrics may
#: differ by ERR_TOLERANCE before compare.py calls a model change out
EXACT: list[str] = [m.name for m in PER_LAYER
                    if m.moves is None
                    or (m.unit == "count"
                        and m.name.split(".")[0] in ("mem", "core"))]
ERR_TOLERANCE = 0.01


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why}
                      for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
