"""Table 2 — the four DiAG hardware configurations."""

from repro.harness import render_experiment

ARTEFACT = "table2"


def test_table2_configurations(result):
    print()
    print(render_experiment("table2", result))

    rows = result["rows"]
    # paper Table 2 values
    assert rows["I4C2"] == {
        "isa": "RV32I", "pes_per_cluster": 16, "total_clusters": 2,
        "total_pes": 32, "freq_sim_ghz": 0.1, "l1i_kb": 32,
        "l1d_kb": 32, "l2_mb": 0}
    assert rows["F4C2"]["total_pes"] == 32
    assert rows["F4C2"]["l1d_kb"] == 64
    assert rows["F4C16"]["total_pes"] == 256
    assert rows["F4C32"]["total_pes"] == 512
    assert rows["F4C32"]["l1d_kb"] == 128
    assert rows["F4C32"]["l2_mb"] == 4
    for name in ("F4C2", "F4C16", "F4C32"):
        assert rows[name]["isa"] == "RV32IMF"
        assert rows[name]["freq_sim_ghz"] == 2.0
