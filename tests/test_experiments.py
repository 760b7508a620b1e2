"""Tests for the experiment harness (Table II, Figs 2/7/8/9/10).

The aggregate assertions check the paper's *shape*: which variant wins,
rough magnitudes, and the named per-program extremes — not absolute
hardware numbers (our substrate is a simulator).
"""

import pytest

from repro.core.pipeline import PipelineVariant
from repro.experiments import expected, fig2_example, fig7, fig8, fig9, fig10, table2
from repro.programs import all_programs

# A 4-program subset keeps most Fig-10 style tests fast; one test runs
# the whole corpus for the headline geomeans.
SUBSET_NAMES = ("fft", "water-nsquared", "raytrace", "matrix")


@pytest.fixture(scope="module")
def subset():
    programs = all_programs()
    return {name: programs[name] for name in SUBSET_NAMES}


@pytest.fixture(scope="module")
def fig7_full():
    return fig7.run()


@pytest.fixture(scope="module")
def fig8_full():
    return fig8.run()


@pytest.fixture(scope="module")
def fig9_full():
    return fig9.run()


# --- Table II --------------------------------------------------------------


def test_table2_all_rows_match_paper():
    rows = table2.run()
    assert len(rows) == 9
    for row in rows:
        assert row.matches_paper, row.kernel


def test_table2_no_pure_address_anywhere():
    assert not any(r.has_pure_addr for r in table2.run())


def test_table2_render():
    text = table2.render()
    assert "chase-lev-wsq" in text
    assert "MISMATCH" not in text


# --- Fig. 7 ---------------------------------------------------------------------


def test_figs_7_to_9_cover_the_whole_corpus(fig7_full, fig8_full, fig9_full):
    for result in (fig7_full, fig8_full, fig9_full):
        assert len(result.rows) == 17


def test_fig7_control_below_address_control(fig7_full):
    for row in fig7_full.rows:
        assert row.control_fraction <= row.address_control_fraction, row.program


def test_fig7_geomeans_near_paper(fig7_full):
    assert fig7_full.geomean_control == pytest.approx(
        expected.FIG7_GEOMEAN_CONTROL, abs=0.06
    )
    assert fig7_full.geomean_address_control == pytest.approx(
        expected.FIG7_GEOMEAN_ADDRESS_CONTROL, abs=0.10
    )


def test_fig7_extremes_match_paper(fig7_full):
    by_name = {r.program: r for r in fig7_full.rows}
    best = min(fig7_full.rows, key=lambda r: r.control_fraction)
    worst = max(fig7_full.rows, key=lambda r: r.control_fraction)
    assert best.program == expected.FIG7_BEST_CONTROL[0]
    assert worst.program == expected.FIG7_WORST_CONTROL[0]
    assert by_name["water-spatial"].address_control_fraction == pytest.approx(
        expected.FIG7_BEST_ADDRESS_CONTROL[1], abs=0.05
    )


def test_fig7_render(fig7_full):
    text = fig7.render(fig7_full)
    assert "geomean" in text
    assert "water-nsquared" in text


# --- Fig. 8 -------------------------------------------------------------------------


def test_fig8_pruning_monotone(fig8_full):
    for row in fig8_full.rows:
        pen = row.total(PipelineVariant.PENSIEVE)
        ac = row.total(PipelineVariant.ADDRESS_CONTROL)
        ctl = row.total(PipelineVariant.CONTROL)
        assert ctl <= ac <= pen, row.program


def test_fig8_rw_ww_untouched(fig8_full):
    # r->w and w->w orderings are never pruned (writes stay releases).
    from repro.core.machine_models import OrderKind

    for row in fig8_full.rows:
        for kind in (OrderKind.RW, OrderKind.WW):
            assert (
                row.counts[PipelineVariant.CONTROL][kind]
                == row.counts[PipelineVariant.PENSIEVE][kind]
            ), (row.program, kind)


def test_fig8_geomeans_in_band(fig8_full):
    ctl = fig8_full.geomean_surviving(PipelineVariant.CONTROL)
    ac = fig8_full.geomean_surviving(PipelineVariant.ADDRESS_CONTROL)
    assert ctl == pytest.approx(expected.FIG8_GEOMEAN_CONTROL, abs=0.10)
    assert ac == pytest.approx(expected.FIG8_GEOMEAN_ADDRESS_CONTROL, abs=0.15)


def test_fig8_control_prunes_more_than_address_control(fig8_full):
    ctl = fig8_full.geomean_surviving(PipelineVariant.CONTROL)
    ac = fig8_full.geomean_surviving(PipelineVariant.ADDRESS_CONTROL)
    assert ctl < ac < 1.0


def test_fig8_render(fig8_full):
    assert "surviving orderings geomean" in fig8.render(fig8_full)


# --- Fig. 9 ---------------------------------------------------------------------------


def test_fig9_fence_reduction_everywhere(fig9_full):
    for row in fig9_full.rows:
        assert row.control_fences <= row.pensieve_fences, row.program
        assert row.address_control_fences <= row.pensieve_fences, row.program
        assert row.control_fences <= row.address_control_fences, row.program


def test_fig9_control_beats_address_control_overall(fig9_full):
    assert fig9_full.geomean_control < fig9_full.geomean_address_control < 1.0


def test_fig9_canneal_is_controls_best_case(fig9_full):
    # The paper's best case for Control ("89% reduction"); ours lands
    # in the same regime.
    canneal = next(r for r in fig9_full.rows if r.program == "canneal")
    assert canneal.control_fraction < 0.4


def test_fig9_manual_is_small(fig9_full):
    # Manual placement is minimal in *runtime* terms (Fig. 10), not
    # necessarily in static count: Control can go below it statically
    # because locked RMWs double as fences on x86. Statically, manual
    # must still be far below Pensieve.
    for row in fig9_full.rows:
        assert row.manual_fences <= row.pensieve_fences / 2, row.program


def test_fig9_render(fig9_full):
    assert "Fig. 9" in fig9.render(fig9_full)


# --- Fig. 10 (subset for speed) ----------------------------------------------------


@pytest.fixture(scope="module")
def fig10_subset(subset):
    return fig10.run(subset)


def test_fig10_ordering_of_variants(fig10_subset):
    for row in fig10_subset.rows:
        assert row.normalized("pensieve") >= row.normalized("control") * 0.99, row.program
        assert row.normalized("control") >= 0.95, row.program  # manual is fastest


def test_fig10_pensieve_slowest_on_average(fig10_subset):
    assert fig10_subset.geomean("pensieve") >= fig10_subset.geomean("address+control")
    assert fig10_subset.geomean("address+control") >= fig10_subset.geomean("control")


def test_fig10_dynamic_fences_track_static(fig10_subset):
    for row in fig10_subset.rows:
        assert row.fences_executed["pensieve"] >= row.fences_executed["control"]


def test_fig10_matrix_is_pensieve_extreme(fig10_subset):
    matrix = next(r for r in fig10_subset.rows if r.program == "matrix")
    speedup = matrix.cycles["pensieve"] / matrix.cycles["control"]
    assert speedup > 1.8  # paper: 2.64x; shape, not exact magnitude


def test_fig10_whole_corpus_headline_shape():
    # The paper's headline over all 17 programs: manual <= Control <=
    # A+C <= Pensieve, Pensieve pays heavily, Control stays near manual.
    result = fig10.run()
    assert len(result.rows) == 17
    g_pen = result.geomean("pensieve")
    g_ac = result.geomean("address+control")
    g_ctl = result.geomean("control")
    assert g_ctl <= g_ac <= g_pen
    assert g_pen > 1.5
    assert g_ctl < 1.6


def test_fig10_render(fig10_subset):
    text = fig10.render(fig10_subset)
    assert "normalized to manual" in text


# --- Fig. 2 worked example -----------------------------------------------------------


def test_fig2_matches_paper_exactly():
    result = fig2_example.run()
    assert result.delay_set_fences == expected.FIG2_DELAY_SET_FENCES
    assert result.pruned_fences == expected.FIG2_PRUNED_FENCES
    assert result.matches_paper


def test_fig2_only_consumer_side_has_acquires():
    result = fig2_example.run()
    assert result.acquires_per_function["p1"] == 0
    assert result.acquires_per_function["p2"] >= 1


def test_fig2_render():
    assert "matches paper: True" in fig2_example.render()
