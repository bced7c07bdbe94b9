"""Design-space sweeps: sensitivity studies around the paper's design.

The paper fixes one design point per configuration (Table 2); an
architecture study wants the neighbourhood too. Each sweep runs one
workload across a knob range and reports cycles/energy per point, in a
form ``repro.harness.report.format_table`` can render.

    from repro.harness.sweeps import sweep_clusters
    result = sweep_clusters("hotspot", scale=0.5)
    print(result.render())

Every sweep accepts ``jobs`` (default: the ``REPRO_JOBS`` environment
variable, else serial) and shards its points across the
:mod:`repro.harness.parallel` process pool. Results are independent of
``jobs`` — same points, same records, same rendered table — which
``tests/test_parallel_equivalence.py`` enforces.
"""

from dataclasses import dataclass, field

from repro import machines
from repro.harness.parallel import run_specs
from repro.harness.runner import RunSpec
from repro.harness.report import format_table
from repro.obs import merge_flat


@dataclass
class SweepResult:
    """Outcome of one knob sweep."""

    workload: str
    knob: str
    points: dict = field(default_factory=dict)  # value -> RunRecord

    def cycles(self):
        return {value: record.cycles
                for value, record in self.points.items()}

    def best(self):
        """(knob value, record) minimizing cycles over clean runs;
        falls back to all points when every cell failed."""
        clean = {v: r for v, r in self.points.items() if not r.failed}
        candidates = clean or self.points
        return min(candidates.items(), key=lambda kv: kv[1].cycles)

    def render(self):
        rows = []
        for value, record in self.points.items():
            rows.append([value, record.cycles, f"{record.ipc:.2f}",
                         f"{record.energy_j * 1e6:.2f} uJ",
                         "Y" if record.verified else "N",
                         record.status])
        return format_table(
            [self.knob, "cycles", "IPC", "energy", "ok", "status"],
            rows, title=f"{self.workload}: sweep over {self.knob}")

    def all_verified(self):
        return all(r.verified for r in self.points.values())

    def failures(self):
        """{knob value: RunRecord} of cells that did not run cleanly."""
        return {v: r for v, r in self.points.items() if r.failed}

    def merged_stats(self):
        """One aggregate stats document over every point (deterministic
        fold in knob order; see :func:`repro.obs.merge_flat`)."""
        return merge_flat([r.stats for r in self.points.values()])


def _sweep(workload, knob, values, specs, jobs=None, journal=None,
           resume=False, progress=None):
    """Execute ``specs`` (one per knob value, same order) through the
    pool and zip them back into a :class:`SweepResult`. ``journal`` /
    ``resume`` enable crash-safe resumable execution
    (docs/RESILIENCE.md); ``progress`` renders the sweep live from the
    telemetry stream (docs/OBSERVABILITY.md §6)."""
    result = SweepResult(workload=workload, knob=knob)
    records = run_specs(specs, jobs=jobs, journal=journal,
                        resume=resume, progress=progress)
    for value, record in zip(values, records):
        result.points[value] = record
    return result


def sweep_clusters(workload, scale=0.5, cluster_counts=(2, 4, 8, 16, 32),
                   simt=False, jobs=None, journal=None, resume=False,
                   progress=None):
    """Cycles vs. ring size — the paper's 32/256/512-PE axis, densified."""
    specs = [RunSpec.diag(workload, config="F4C32", scale=scale,
                          num_clusters=count, simt=simt)
             for count in cluster_counts]
    return _sweep(workload, "clusters", cluster_counts, specs, jobs,
                  journal, resume, progress)


def sweep_threads(workload, scale=0.5, thread_counts=(1, 2, 4, 8, 16),
                  total_clusters=32, simt=False, jobs=None, journal=None,
                  resume=False, progress=None):
    """Spatial-parallelism scaling at a fixed 32-cluster budget."""
    specs = [RunSpec.diag(workload, config="F4C32", scale=scale,
                          threads=threads,
                          num_clusters=max(1, total_clusters // threads),
                          simt=simt)
             for threads in thread_counts]
    return _sweep(workload, "threads", thread_counts, specs, jobs,
                  journal, resume, progress)


def sweep_lsu_depth(workload, scale=0.5, depths=(1, 2, 4, 8, 16),
                    jobs=None, journal=None, resume=False,
                    progress=None):
    """Cluster LSU queue depth (paper Section 5.2's request queue)."""
    specs = [RunSpec.diag(workload, config="F4C16", scale=scale,
                          config_overrides={"lsu_queue_depth": depth})
             for depth in depths]
    return _sweep(workload, "lsu_queue_depth", depths, specs, jobs,
                  journal, resume, progress)


def sweep_flush_penalty(workload, scale=0.5,
                        penalties=(1, 3, 6, 12), jobs=None,
                        journal=None, resume=False, progress=None):
    """Cost of a control-flow flush (paper Section 7.3.2's >=3 cycles)."""
    specs = [RunSpec.diag(workload, config="F4C16", scale=scale,
                          config_overrides={"flush_penalty": penalty})
             for penalty in penalties]
    return _sweep(workload, "flush_penalty", penalties, specs, jobs,
                  journal, resume, progress)


def sweep_sample_period(workload, scale=1.0, machine="diag",
                        config="F4C2",
                        periods=(2_000, 5_000, 10_000, 25_000),
                        window=500, warmup=500, jobs=None,
                        journal=None, resume=False, progress=None):
    """Sampled-simulation accuracy vs. speed: sweep the period
    (:mod:`repro.sampling`). Imported lazily — sampling imports the
    runner, and this module must stay importable from it. ``config``
    names a DiAG preset; other machines run their default."""
    from repro.sampling import SampledSpec
    config = machines.get(machine).preset_for(config)
    specs = [SampledSpec(workload=workload, machine=machine,
                         config=config, scale=scale, period=period,
                         window=min(window, max(1, period - warmup)),
                         warmup=min(warmup, max(0, period - 1)))
             for period in periods]
    return _sweep(workload, "sample_period", periods, specs, jobs,
                  journal, resume, progress)


ALL_SWEEPS = {
    "clusters": sweep_clusters,
    "threads": sweep_threads,
    "lsu_depth": sweep_lsu_depth,
    "flush_penalty": sweep_flush_penalty,
    "sample_period": sweep_sample_period,
}
