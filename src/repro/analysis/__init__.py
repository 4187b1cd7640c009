"""Analysis harness: relative-speedup metric, experiment registry,
paper reference data, reports, and model tuning."""

from .data import (
    PAPER_FIG1_OBSERVATIONS,
    PAPER_FIG2_OBSERVATIONS,
    PAPER_HOST_RATES,
    PAPER_LAMMPS_CHAIN_RUNTIMES,
    PAPER_LAMMPS_LJ_RUNTIMES,
    PAPER_UME_RUNTIMES,
    paper_relative_speedup,
)
from .experiments import (
    EXPERIMENTS,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    hostrate,
    table1,
    table2,
    table4,
    table5,
)
from .report import (
    compare_app_to_paper,
    fig1_checks,
    fig2_checks,
    render_category_summary,
    render_series,
    render_table,
)
from .autotune import ROCKET_KNOBS, TuneResult, TuneStep, autotune
from .instrument import (
    flamegraph_folded,
    interval_cpi,
    marker_timeline,
    render_intervals,
)
from .error import KernelVariation, noise_floor, seed_variation, significant
from .perf import PerfReport, perf_stat
from .speedup import SeriesResult, relative_speedup, summarize_by_category
from .sweep import SweepPoint, SweepResult, sweep_configs, sweep_knob
from .tuning import (
    FidelityScore,
    QUICK_KERNELS,
    fidelity,
    rank_candidates,
    tune_for_banana_pi,
    tune_for_milkv,
)

__all__ = [
    "relative_speedup",
    "SeriesResult",
    "summarize_by_category",
    "EXPERIMENTS",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "table1", "table2", "table4", "table5", "hostrate",
    "render_table", "render_series", "render_category_summary",
    "compare_app_to_paper", "fig1_checks", "fig2_checks",
    "PAPER_UME_RUNTIMES", "PAPER_LAMMPS_LJ_RUNTIMES",
    "PAPER_LAMMPS_CHAIN_RUNTIMES", "PAPER_FIG1_OBSERVATIONS",
    "PAPER_FIG2_OBSERVATIONS", "PAPER_HOST_RATES", "paper_relative_speedup",
    "FidelityScore", "fidelity", "rank_candidates", "QUICK_KERNELS",
    "tune_for_banana_pi", "tune_for_milkv",
    "PerfReport", "perf_stat",
    "KernelVariation", "seed_variation", "noise_floor", "significant",
    "autotune", "TuneResult", "TuneStep", "ROCKET_KNOBS",
    "sweep_configs", "sweep_knob", "SweepResult", "SweepPoint",
    "interval_cpi", "flamegraph_folded", "marker_timeline",
    "render_intervals",
]
