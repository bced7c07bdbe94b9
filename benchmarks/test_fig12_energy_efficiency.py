"""Figure 12 — Rodinia energy-efficiency improvement vs baseline.

Paper shape: efficiency (1 / total energy) improves across most
benchmarks in all modes even where raw performance loses — eliminated
front-end control overhead is the paper's core energy argument — with
the best average in the pipelined configuration (1.51x / 1.35x /
1.63x). Memory-bound benchmarks see the smallest gains.
"""

from repro.harness import render_experiment

ARTEFACT = "fig12"


def test_fig12_energy_efficiency(result):
    print()
    print(render_experiment("fig12", result))

    avg = result["average"]
    # efficiency improves on average in every mode (paper: all > 1.3x)
    assert avg["single"] > 1.0
    assert avg["multi"] > 1.0
    assert avg["simt"] > 1.0
    # parallel modes beat single-thread efficiency (threading amortizes
    # the always-on lanes/memory static power over less runtime)
    assert avg["multi"] > avg["single"]
    assert avg["simt"] > avg["single"]
    # a majority of individual benchmarks improve in the best mode
    rows = result["benchmarks"]
    winners = sum(1 for r in rows.values()
                  if max(r["single"], r["multi"], r["simt"]) > 1.0)
    assert winners >= len(rows) - 1
    # memory-bound members see the smallest single-thread gains
    compute_best = max(rows["hotspot"]["single"], rows["srad"]["single"])
    assert rows["streamcluster"]["single"] < compute_best
