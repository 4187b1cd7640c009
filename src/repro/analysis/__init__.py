"""Analysis harness: relative-speedup metric, experiment registry,
paper reference data, reports, and model tuning."""

from .._lazy import lazy_exports

# the function shares its submodule's name: bound here, after the
# submodule's import has bound the module, so no later import rebinds it
from .autotune import autotune

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "data": [
        "PAPER_FIG1_OBSERVATIONS", "PAPER_FIG2_OBSERVATIONS",
        "PAPER_HOST_RATES", "PAPER_LAMMPS_CHAIN_RUNTIMES",
        "PAPER_LAMMPS_LJ_RUNTIMES", "PAPER_UME_RUNTIMES",
        "paper_relative_speedup"],
    "experiments": [
        "EXPERIMENTS", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "hostrate", "table1", "table2", "table4", "table5"],
    "report": [
        "compare_app_to_paper", "fig1_checks", "fig2_checks",
        "render_category_summary", "render_series", "render_table"],
    "autotune": ["ROCKET_KNOBS", "TuneResult", "TuneStep", "autotune"],
    "instrument": [
        "flamegraph_folded", "interval_cpi", "marker_timeline",
        "render_intervals"],
    "error": [
        "KernelVariation", "noise_floor", "seed_variation", "significant"],
    "perf": ["PerfReport", "perf_stat"],
    "speedup": ["SeriesResult", "relative_speedup", "summarize_by_category"],
    "sweep": ["SweepPoint", "SweepResult", "sweep_configs", "sweep_knob"],
    "tuning": [
        "FidelityScore", "QUICK_KERNELS", "fidelity", "rank_candidates",
        "tune_for_banana_pi", "tune_for_milkv"],
})
