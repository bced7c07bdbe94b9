"""Table 3 — hardware area and power breakdown by component (45 nm)."""

import pytest

from repro.harness import render_experiment

ARTEFACT = "table3"


def test_table3_area_power(result):
    print()
    print(render_experiment("table3", result))

    # Component-level values are the paper's synthesis numbers; the
    # composed cluster/top values must land on the published totals.
    assert result["pe_um2"] == pytest.approx(97014)
    assert result["reglane_um2"] == pytest.approx(15731)
    assert result["fpu_um2"] == pytest.approx(66592)
    assert result["cluster_mm2"] == pytest.approx(
        result["paper_cluster_mm2"], rel=0.01)
    assert result["top_mm2"] == pytest.approx(
        result["paper_top_mm2"], rel=0.01)
    assert result["peak_power_w"] == pytest.approx(
        result["paper_peak_power_w"], rel=0.01)
    # paper Section 6.1.1: FPUs occupy ~68% of a PE
    assert result["fpu_um2"] / result["pe_um2"] == pytest.approx(
        0.68, abs=0.03)
