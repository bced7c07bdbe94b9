"""Abstract headline — 512-PE DiAG vs the 12-core OoO baseline.

Paper: "DiAG configured with 512 PEs achieves a 1.18x speedup and
1.63x improvement in energy efficiency" (the averages of the two
suites' best multi-thread + SIMT operating points). Shape asserted:
DiAG lands around performance parity with the aggressive multicore
while clearly winning on energy efficiency.
"""

from repro.harness import render_experiment

ARTEFACT = "headline"


def test_headline_results(result):
    print()
    print(render_experiment("headline", result))

    # near performance parity with 12 aggressive OoO cores
    assert result["speedup"] > 0.8
    # the energy-efficiency win is the paper's headline claim
    assert result["efficiency"] > 1.5
    # efficiency improvement exceeds the speedup (the whole point:
    # similar performance at much lower energy)
    assert result["efficiency"] > result["speedup"]
    # per-benchmark records cover both suites
    assert len(result["per_benchmark"]) == 25
    # compute-heavy benchmarks are the clear winners
    best = max(result["per_benchmark"].items(),
               key=lambda kv: kv[1]["speedup"])
    assert best[1]["speedup"] > 1.5
