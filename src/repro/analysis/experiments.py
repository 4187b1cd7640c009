"""Experiment registry: one function per paper table/figure.

Every experiment returns a :class:`repro.analysis.speedup.SeriesResult`
(figures) or a list of row dicts (tables).  ``scale``-style parameters let
tests run shrunk versions; the benchmark harness runs the defaults.
"""

from __future__ import annotations

from typing import Callable

from ..soc.config import SoCConfig
from ..soc.presets import (
    BANANA_PI_HW,
    BANANA_PI_SIM,
    FAST_BANANA_PI_SIM,
    LARGE_BOOM,
    MEDIUM_BOOM,
    MILKV_HW,
    MILKV_SIM,
    ROCKET1,
    ROCKET2,
    SMALL_BOOM,
    table4_rows,
    table5_rows,
)
from ..firesim.host import host_model_for
from ..workloads.lammps import run_lammps
from ..workloads.microbench import categories, runnable_kernels
from ..workloads.npb import NPB_RUNNERS
from ..workloads.ume import run_ume
from .speedup import SeriesResult, relative_speedup

__all__ = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "table2",
    "table4",
    "table5",
    "hostrate",
    "EXPERIMENTS",
]

_NPB_ORDER = ("CG", "EP", "IS", "MG")


def _microbench_comparison(experiment: str, hw_cfg: SoCConfig,
                           sim_cfgs: list[SoCConfig], scale: float,
                           kernels: list[str] | None,
                           workers: int | None = None) -> SeriesResult:
    """Farm the (config x kernel) cross product through :mod:`repro.farm`.

    Every run is an independent job, so the whole figure parallelises
    across ``workers`` processes (default ``$REPRO_WORKERS``, so a plain
    ``fig1()`` stays serial) and profits from ``$REPRO_CACHE_DIR``; the
    merged timings are identical to the old serial ``run_suite`` loop.
    """
    from ..farm import Job, run_jobs

    names = kernels or [k.spec.name for k in runnable_kernels()]
    cfgs = [hw_cfg, *sim_cfgs]
    jobs = [Job.kernel(cfg, n, scale=scale) for cfg in cfgs for n in names]
    results = iter(run_jobs(jobs, workers=workers, strict=True))
    secs = {cfg.name: {n: next(results).payload["seconds"] for n in names}
            for cfg in cfgs}
    series = {
        cfg.name: [
            relative_speedup(secs[hw_cfg.name][n], secs[cfg.name][n])
            for n in names
        ]
        for cfg in sim_cfgs
    }
    return SeriesResult(
        experiment=experiment,
        labels=names,
        series=series,
        meta={
            "hardware": hw_cfg.name,
            "categories": categories(),
            "hw_seconds": dict(secs[hw_cfg.name]),
        },
    )


def fig1(scale: float = 1.0, kernels: list[str] | None = None,
         workers: int | None = None) -> SeriesResult:
    """Fig 1: MicroBench on the tuned Rocket models vs Banana Pi hardware."""
    return _microbench_comparison(
        "fig1", BANANA_PI_HW, [BANANA_PI_SIM, FAST_BANANA_PI_SIM],
        scale, kernels, workers,
    )


def fig2(scale: float = 1.0, kernels: list[str] | None = None,
         workers: int | None = None) -> SeriesResult:
    """Fig 2: MicroBench on Small/Medium/Large BOOM and the tuned MILK-V
    model vs MILK-V hardware."""
    return _microbench_comparison(
        "fig2", MILKV_HW, [SMALL_BOOM, MEDIUM_BOOM, LARGE_BOOM, MILKV_SIM],
        scale, kernels, workers,
    )


def _npb_comparison(experiment: str, hw_cfg: SoCConfig,
                    sim_cfgs: list[SoCConfig], rank_counts: list[int],
                    cls: str, benchmarks=_NPB_ORDER) -> SeriesResult:
    labels: list[str] = []
    hw_secs: dict[str, float] = {}
    for nr in rank_counts:
        for b in benchmarks:
            label = f"{b}x{nr}"
            labels.append(label)
            hw_res = NPB_RUNNERS[b](hw_cfg, nranks=nr, cls=cls)
            if not hw_res.verified:
                raise RuntimeError(f"{b} failed verification on {hw_cfg.name}")
            hw_secs[label] = hw_res.seconds
    series: dict[str, list[float]] = {}
    for cfg in sim_cfgs:
        vals = []
        for nr in rank_counts:
            for b in benchmarks:
                sim_res = NPB_RUNNERS[b](cfg, nranks=nr, cls=cls)
                if not sim_res.verified:
                    raise RuntimeError(f"{b} failed verification on {cfg.name}")
                vals.append(relative_speedup(hw_secs[f"{b}x{nr}"], sim_res.seconds))
        series[cfg.name] = vals
    return SeriesResult(
        experiment=experiment,
        labels=labels,
        series=series,
        meta={"hardware": hw_cfg.name, "class": cls, "hw_seconds": hw_secs},
    )


def fig3(cls: str = "A", rank_counts: list[int] | None = None) -> SeriesResult:
    """Fig 3: NPB relative speedup of the Rocket configurations vs the
    Banana Pi (a: single core, b: four cores)."""
    return _npb_comparison(
        "fig3", BANANA_PI_HW,
        [ROCKET1, ROCKET2, BANANA_PI_SIM, FAST_BANANA_PI_SIM],
        rank_counts or [1, 4], cls,
    )


def fig4(cls: str = "A", rank_counts: list[int] | None = None) -> SeriesResult:
    """Fig 4: (a) stock BOOM configurations single-core, (b) the tuned
    MILK-V model on 1 and 4 cores — both vs MILK-V hardware."""
    part_a = _npb_comparison(
        "fig4a", MILKV_HW, [SMALL_BOOM, MEDIUM_BOOM, LARGE_BOOM], [1], cls,
    )
    part_b = _npb_comparison(
        "fig4b", MILKV_HW, [MILKV_SIM], rank_counts or [1, 4], cls,
    )
    labels = part_a.labels + [l for l in part_b.labels if l not in part_a.labels]
    series: dict[str, list[float]] = {}
    for name, vals in part_a.series.items():
        series[name] = vals + [float("nan")] * (len(labels) - len(vals))
    pb_map = dict(zip(part_b.labels, part_b.series["MILKVSim"]))
    series["MILKVSim"] = [pb_map.get(l, float("nan")) for l in labels]
    return SeriesResult(
        experiment="fig4",
        labels=labels,
        series=series,
        meta={
            "hardware": MILKV_HW.name,
            "class": cls,
            "hw_seconds": {**part_a.meta["hw_seconds"], **part_b.meta["hw_seconds"]},
        },
    )


def _app_scaling(experiment: str, runner: Callable, rank_counts: list[int],
                 **kwargs) -> SeriesResult:
    """Fig 5/6/7 shape: rank-count scaling on both platform pairs."""
    pairs = [
        ("BananaPi", BANANA_PI_HW, BANANA_PI_SIM),
        ("MILKV", MILKV_HW, MILKV_SIM),
    ]
    labels = [str(nr) for nr in rank_counts]
    series: dict[str, list[float]] = {}
    runtimes: dict[str, dict[int, float]] = {}
    for pair_name, hw_cfg, sim_cfg in pairs:
        hw_t, sim_t, rel = {}, {}, []
        for nr in rank_counts:
            hw_res = runner(hw_cfg, nranks=nr, **kwargs)
            sim_res = runner(sim_cfg, nranks=nr, **kwargs)
            for res, cfgname in ((hw_res, hw_cfg.name), (sim_res, sim_cfg.name)):
                if not res.verified:
                    raise RuntimeError(
                        f"{experiment} failed verification on {cfgname}"
                    )
            hw_t[nr] = hw_res.seconds
            sim_t[nr] = sim_res.seconds
            rel.append(relative_speedup(hw_res.seconds, sim_res.seconds))
        series[f"{pair_name}Sim vs {pair_name}"] = rel
        runtimes[pair_name] = hw_t
        runtimes[f"{pair_name}Sim"] = sim_t
    return SeriesResult(
        experiment=experiment,
        labels=labels,
        series=series,
        meta={"runtimes": runtimes, **kwargs},
    )


def fig5(rank_counts: list[int] | None = None, mesh_n: int = 20) -> SeriesResult:
    """Fig 5: UME relative speedup vs MPI ranks, both platform pairs."""
    return _app_scaling("fig5", run_ume, rank_counts or [1, 2, 4],
                        mesh_n=mesh_n)


def fig6(rank_counts: list[int] | None = None, natoms: int = 1024,
         steps: int = 6) -> SeriesResult:
    """Fig 6: LAMMPS Lennard-Jones relative speedup vs MPI ranks."""
    return _app_scaling("fig6", run_lammps, rank_counts or [1, 2, 4],
                        benchmark="lj", natoms=natoms, steps=steps)


def fig7(rank_counts: list[int] | None = None, natoms: int = 1024,
         steps: int = 6) -> SeriesResult:
    """Fig 7: LAMMPS polymer-chain relative speedup vs MPI ranks."""
    return _app_scaling("fig7", run_lammps, rank_counts or [1, 2, 4],
                        benchmark="chain", natoms=natoms, steps=steps)


def table1() -> list[dict[str, str]]:
    """Table 1: the MicroBench kernel inventory."""
    from ..workloads.microbench import all_kernels

    return [
        {
            "Name": k.spec.name,
            "Category": k.spec.category,
            "Description": k.spec.description,
            "Status": "broken (segfaults)" if k.spec.broken else "ok",
        }
        for k in all_kernels()
    ]


def table2() -> list[dict[str, str]]:
    """Table 2: NPB apps, characteristics, and class used."""
    chars = {
        "CG": "Memory Latency",
        "EP": "Compute",
        "IS": "Memory Latency, BW",
        "MG": "Memory Latency, BW",
    }
    return [
        {"Benchmark": b, "Characteristics": chars[b], "Class": "A"}
        for b in _NPB_ORDER
    ]


def table4() -> list[dict[str, str]]:
    """Table 4: the FireSim model inventory."""
    return table4_rows()


def table5() -> list[dict[str, str]]:
    """Table 5: hardware vs simulation-model specifications."""
    return table5_rows()


def hostrate() -> list[dict[str, float | str]]:
    """§3.2.2: host simulation rates and slowdowns per design family."""
    rows = []
    for cfg in (ROCKET1, MILKV_SIM):
        host = host_model_for(cfg)
        rows.append(
            {
                "Design": cfg.name,
                "Host MHz": host.host_mhz,
                "Target GHz": cfg.core_ghz,
                "Slowdown": host.slowdown(cfg.core_ghz),
            }
        )
    return rows


#: experiment id -> callable (the per-experiment index of DESIGN.md)
EXPERIMENTS: dict[str, Callable] = {
    "table1": table1,
    "table2": table2,
    "table4": table4,
    "table5": table5,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "hostrate": hostrate,
}
