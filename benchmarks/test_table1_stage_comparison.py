"""Table 1 — per-instruction stage comparison (OoO vs DiAG).

Structural rows plus the measured claim behind "Fetch/Decode: No under
reuse": with datapath reuse on, I-line fetches per instruction collapse
by an order of magnitude.
"""

from repro.harness import render_experiment

ARTEFACT = "table1"


def test_table1_stage_comparison(result):
    print()
    print(render_experiment("table1", result))

    assert result["verified"]
    with_reuse = result["fetch_per_instr_with_reuse"]
    without = result["fetch_per_instr_without_reuse"]
    # reuse eliminates nearly all fetch/decode work in loopy code
    assert with_reuse < without / 5
    assert result["reuse_hits"] > 0
    # the structural table matches the paper row-for-row
    stages = {row[0]: row[1:] for row in result["rows"]}
    assert stages["Rename"] == ("Yes", "No", "No")
    assert stages["Fetch"] == ("Yes", "Yes (Batch)", "No")
    assert stages["Commit"] == ("Reorder Buffer", "Reg Lanes",
                                "Reg Lanes")
