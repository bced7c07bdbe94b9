"""Section 7.3.2 — breakdown of stalled instructions (Rodinia average).

Paper: 73.6% memory stalls, 21.1% control-flow changes, 5.3% other
(structural). The dominant-cause ordering — memory first by a wide
margin — is the shape assertion; exact proportions depend on cache
footprints our reduced inputs cannot reproduce.
"""

from repro.harness import render_experiment

ARTEFACT = "stalls"


def test_stall_breakdown(result):
    print()
    print(render_experiment("stalls", result))

    avg = result["average"]
    assert avg, "no stall data collected"
    # memory stalls dominate, as in the paper
    assert avg["memory"] > avg["control"]
    assert avg["memory"] > avg["other"]
    assert avg["memory"] > 0.4
    # control-flow changes are the clear second-order effect
    assert avg["control"] > 0.05
    # fractions are a valid distribution
    assert abs(sum(avg.values()) - 1.0) < 1e-6
    # per-benchmark data exists for most of the suite
    assert len(result["per_benchmark"]) >= 7
