"""Figure 10b — SPEC multi-thread performance vs the 12-core baseline.

Paper shape: spatial DiAG slightly below the multicore (0.97x), SIMT
pipelining lifts the average (1.15x); the multicore keeps its edge on
the memory/control-bound members.
"""

from repro.harness import render_experiment

ARTEFACT = "fig10b"


def test_fig10b_spec_multi(result):
    print()
    print(render_experiment("fig10b", result))

    for name, row in result["benchmarks"].items():
        assert row["baseline_verified"], name
        assert row["mt"]["verified"], name
        assert row["simt"]["verified"], name

    avg = result["average"]
    # spatial slightly below the multicore baseline (paper: 0.97x)
    assert 0.6 < avg["mt"] < 1.2
    # SIMT improves the average (paper: 0.97x -> 1.15x)
    assert avg["simt"] >= avg["mt"]
    # sequential-only benchmarks are unchanged by threading
    row = result["benchmarks"]["mcf"]
    assert row["mt"]["speedup"] < 1.0
    # at least one compute benchmark beats the 12-core baseline
    best = max(r["simt"]["speedup"]
               for r in result["benchmarks"].values())
    assert best > 1.2
