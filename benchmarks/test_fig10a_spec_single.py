"""Figure 10a — SPEC CPU2017 single-thread performance vs baseline.

Paper shape: the same trend as Rodinia but shifted down (0.81x / 0.97x
/ 0.97x): DiAG excels on compute-intensive benchmarks and trails on
memory-bound or control-dependent ones (mcf, xz-style workloads).
"""

from repro.harness import render_experiment

ARTEFACT = "fig10a"


def test_fig10a_spec_single(result):
    print()
    print(render_experiment("fig10a", result))

    for name, row in result["benchmarks"].items():
        assert row["baseline_verified"], name
        for config in ("F4C2", "F4C16", "F4C32"):
            assert row[config]["verified"], (name, config)

    avg = result["average"]
    # 32 PEs lose clearly; larger configs approach parity
    assert avg["F4C2"] < avg["F4C16"]
    assert avg["F4C2"] < 0.95
    assert avg["F4C32"] > 0.85
    # saturation beyond 256 PEs
    assert abs(avg["F4C32"] - avg["F4C16"]) < 0.15 * avg["F4C16"]
    # SPEC average sits at or below the Rodinia-style average — the
    # suite is harder for DiAG (paper: 0.97 vs 1.12)
    # pointer-chasing mcf stays below the baseline at every size
    for config in ("F4C2", "F4C16", "F4C32"):
        assert result["benchmarks"]["mcf"][config]["speedup"] < 1.0
