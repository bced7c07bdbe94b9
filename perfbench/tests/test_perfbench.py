"""The benchmark's own tests: a minimal-size smoke of every workload
(traced and untraced) that checks each declared metric appears with its
unit, and the paths that must fail the run loudly.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import measure  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from measure import BenchError  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: the smallest instance of each workload that still exercises its layers
SMALL = {
    "engine": lambda: workloads.Engine(scale=0.05, kernels=("nn",)),
    "campaign": lambda: workloads.Campaign(scale=0.05, replays=1),
    "service": lambda: workloads.Service(
        scale=0.05, cold=(("nn", "diag"), ("nn", "ooo")),
        dedup=(("hotspot", "ooo"),), hits=4),
    "sampled": lambda: workloads.Sampled(
        scale=0.5, cells=(("bfs", "diag"), ("bfs", "ooo")),
        params=(5_000, 500, 500)),
}


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    """Workloads configure process-wide harness state; undo it."""
    from repro.harness import clear_cache, diskcache
    from repro.obs import telemetry

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    yield
    diskcache.reset()
    telemetry.reset()
    clear_cache()
    os.environ.pop("REPRO_JOBS", None)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_reports_every_metric_with_its_unit(name, trace, tmp_path):
    result, metrics, errors, _ = bench_run.measure(
        SMALL[name](), seed=3, seconds=0, trace=trace, bench=DECLARED,
        workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0, errors
    assert result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {key: row["unit"] for key, row in result["metrics"].items()} \
        == _units(declared)
    for row in result["metrics"].values():
        assert math.isfinite(row["value"])
    if trace:
        trace_file = tmp_path / f"trace-{name}-seed3.json"
        assert json.loads(trace_file.read_text())["traceEvents"]
        assert result["metrics"]["bench.span_coverage"]["value"] > 0.5
    else:
        # an end-to-end metric is never 0
        assert all(row["value"] > 0 for row in result["metrics"].values())
        assert metrics["fail_ratio"] == 0


def test_same_seed_same_cycles_and_digests(tmp_path):
    """Two runs share the digest store; the second must agree."""
    first = bench_run.measure(SMALL["engine"](), 5, 0, 0, DECLARED,
                              tmp_path)[0]
    second = bench_run.measure(SMALL["engine"](), 5, 0, 1, DECLARED,
                               tmp_path)[0]
    assert first["correct"] and second["correct"]
    stored = json.loads((tmp_path / "digests.json").read_text())
    assert len(next(iter(stored.values()))) == 2  # nn on both machines


# ---------------------------------------------------- fail loudly

def _run(attempted=1, failed=0):
    run = measure.Run("unused", 0, None)
    run.attempted, run.failed = attempted, failed
    return run


def test_missing_metric_fails():
    metrics = {m["name"]: 1.0 for m in DECLARED["end_to_end"]}
    del metrics["wall_ref_s"]
    with pytest.raises(BenchError, match="wall_ref_s"):
        measure.build_result(_run(), metrics, DECLARED["end_to_end"])


def test_non_finite_metric_fails():
    metrics = {m["name"]: 1.0 for m in DECLARED["end_to_end"]}
    metrics["sim_ref_kips"] = float("nan")
    with pytest.raises(BenchError, match="sim_ref_kips"):
        measure.build_result(_run(), metrics, DECLARED["end_to_end"])


def test_zero_operations_fail():
    metrics = {m["name"]: 1.0 for m in DECLARED["end_to_end"]}
    with pytest.raises(BenchError, match="zero operations"):
        measure.build_result(_run(attempted=0), metrics,
                             DECLARED["end_to_end"])


def test_empty_trace_fails():
    with pytest.raises(BenchError, match="no spans"):
        measure.check_trace([])


def test_failed_cell_fails_the_run(tmp_path, monkeypatch, capsys):
    """A cell that runs out of cycle budget is a failed operation: the
    result line says so and the exit code is non-zero."""
    monkeypatch.setitem(
        workloads.WORKLOADS, "engine",
        lambda: workloads.Engine(scale=0.05, kernels=("nn",),
                                 max_cycles=50))
    monkeypatch.setattr(bench_run, "WORKDIR", tmp_path)
    code = bench_run.main(["--workload", "engine", "--seed", "1",
                           "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_changed_digest_is_a_failed_operation(tmp_path):
    store = measure.DigestStore(tmp_path / "d.json", ROOT / "src" / "repro")
    run = measure.Run(tmp_path, 0, store)
    doc = {"status": "ok", "verified": True, "cycles": 10, "stats": {}}
    assert run.check_record("cell", doc)
    assert not run.check_record("cell", dict(doc, cycles=11))
    assert (run.attempted, run.failed) == (2, 1)


def test_digests_of_other_versions_survive_a_save(tmp_path):
    """Runs of two program versions alternate in one checkout: each
    save keeps the other version's digests, so a changed result of the
    first version is still caught after the second has saved."""
    trees = []
    for name in ("parent", "change"):
        tree = tmp_path / name
        tree.mkdir()
        (tree / "m.py").write_text(f"VERSION = {name!r}\n")
        trees.append(tree)
    path = tmp_path / "digests.json"
    for tree in trees:
        store = measure.DigestStore(path, tree)
        assert store.check("cell", f"digest-{tree.name}")
        store.save()
    assert len(json.loads(path.read_text())) == 2
    again = measure.DigestStore(path, trees[0])
    assert again.check("cell", "digest-parent")
    assert not again.check("cell", "digest-other")


class _FakeClient:
    def __init__(self, events):
        self.events = events

    def run(self, spec, tenant=None, on_event=None):
        from repro.service import RunOutcome

        for event in self.events:
            on_event(event)
        return RunOutcome(self.events)


@pytest.mark.parametrize("result", [
    {"event": "result", "status": "quarantined", "outcome": "scheduled"},
    {"event": "result", "status": "ok", "outcome": "teleported"},
    {"event": "error", "error": "boom"},
])
def test_unexpected_service_status_fails(result):
    client = _FakeClient([{"event": "queued"}, dict(result, record={})])
    with pytest.raises(BenchError, match="unexpected status"):
        workloads.Service()._post(client, "cold", {}, "t")


def test_no_program_to_measure_fails(tmp_path):
    """Run from a directory holding only BENCHMARK.json and perfbench/:
    non-zero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------- spans

def test_self_time_subtracts_children():
    def span(name, sid, parent, start, end):
        return {"name": name, "id": sid, "parent": parent, "pid": 1,
                "start": start, "end": end}

    trace = [span("runner.run_diag", "a", None, 0.0, 10.0),
             span("core.run", "b", "a", 1.0, 6.0),
             span("obs.collect", "c", "a", 5.0, 8.0)]
    assert spans.self_seconds(trace, {"runner.run_diag"}) == 3.0
    assert spans.coverage(trace, 1, [(0.0, 20.0)]) == 0.5
