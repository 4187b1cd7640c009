"""Experiment-registry tests: every table/figure function produces sane
output at reduced scale, and key paper shapes hold."""

import math

import pytest

from repro.analysis import (
    EXPERIMENTS,
    compare_app_to_paper,
    fig1,
    fig2,
    fig5,
    hostrate,
    render_category_summary,
    table1,
    table2,
    table4,
    table5,
)
from repro.analysis.tuning import QUICK_KERNELS, fidelity, tune_for_banana_pi
from repro.soc import BANANA_PI_HW, BANANA_PI_SIM, ROCKET1


def test_registry_covers_all_artifacts():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "table4", "table5",
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "hostrate",
    }


def test_table1_inventory():
    rows = table1()
    assert len(rows) == 40
    crm = [r for r in rows if r["Name"] == "CRm"][0]
    assert "broken" in crm["Status"]
    cats = {r["Category"] for r in rows}
    assert cats == {"Control Flow", "Data", "Execution", "Cache", "Memory"}


def test_table2_apps():
    rows = table2()
    assert [r["Benchmark"] for r in rows] == ["CG", "EP", "IS", "MG"]
    assert all(r["Class"] == "A" for r in rows)


def test_table4_and_5_nonempty():
    assert len(table4()) == 5
    assert len(table5()) == 2


def test_hostrate_matches_paper():
    rows = {r["Design"]: r for r in hostrate()}
    assert rows["Rocket1"]["Host MHz"] == 60.0
    assert rows["MILKVSim"]["Host MHz"] == 15.0
    # paper: ~25x and ~135x slowdowns
    assert rows["Rocket1"]["Slowdown"] == pytest.approx(26.7, rel=0.05)
    assert rows["MILKVSim"]["Slowdown"] == pytest.approx(133.3, rel=0.05)


SMALL = ["Cca", "CCh", "EI", "ED1", "MD", "MM"]


def test_fig1_small_subset_shape():
    r = fig1(scale=0.08, kernels=SMALL)
    assert set(r.series) == {"BananaPiSim", "FastBananaPiSim"}
    assert r.labels == SMALL
    # dual-issue hardware wins on independent integer work
    assert r.value("BananaPiSim", "EI") < 1.0
    # DRAM-bound chase: simulation clearly slower
    assert r.value("BananaPiSim", "MM") < 0.8


def test_fig2_small_subset_shape():
    r = fig2(scale=0.08, kernels=SMALL)
    assert set(r.series) == {"SmallBOOM", "MediumBOOM", "LargeBOOM", "MILKVSim"}
    # larger BOOMs get closer to the hardware on compute kernels
    assert r.value("LargeBOOM", "EI") > r.value("SmallBOOM", "EI")


def test_fig5_small():
    r = fig5(rank_counts=[1, 2], mesh_n=5)
    assert r.labels == ["1", "2"]
    for vals in r.series.values():
        assert all(v > 0 for v in vals)
    out = compare_app_to_paper(r)
    assert "paper vs measured" in out


def test_compare_app_rejects_unknown():
    r = fig5(rank_counts=[1], mesh_n=4)
    r.experiment = "fig9"
    with pytest.raises(KeyError):
        compare_app_to_paper(r)


def test_category_summary_renders():
    r = fig1(scale=0.08, kernels=SMALL)
    out = render_category_summary(r)
    assert "geomean" in out


# ------------------------------------------------------------ tuning

def test_fidelity_self_is_perfect():
    s = fidelity(ROCKET1, ROCKET1, scale=0.05, kernels=["Cca", "EI", "MD"])
    assert s.score == pytest.approx(0.0, abs=1e-9)


def test_fidelity_worst_ranking():
    s = fidelity(BANANA_PI_HW, BANANA_PI_SIM, scale=0.05,
                 kernels=["Cca", "EI", "MM"])
    worst = s.worst(1)
    assert len(worst) == 1
    assert abs(math.log2(worst[0][1])) >= max(
        abs(math.log2(v)) for v in s.per_kernel.values()
    ) - 1e-12


def test_tuning_walk_prefers_tuned_models():
    steps = tune_for_banana_pi(scale=0.06, kernels=QUICK_KERNELS)
    names = [s.config for s in steps]
    # the tuned Banana Pi model should beat plain Rocket1
    assert names.index("BananaPiSim") < names.index("Rocket1") or \
        names.index("FastBananaPiSim") < names.index("Rocket1")
    assert all(s.score >= 0 for s in steps)
