"""One pure fold per paper artefact (tables, figures, headline numbers).

Each fold turns run records, looked up by spec, into the plain dict
the benchmark suite asserts the paper's qualitative shape on; it never
runs or mutates anything. :func:`run_suite` runs the union of several
artefacts' plans as one ``run_specs`` campaign (docs/PARALLEL.md).
``scale`` shrinks problem sizes (the paper projects from reduced
inputs too, Section 7.1)."""

import math

from repro.core import CONFIG_PRESETS, EnergyModel
from repro.harness import parallel
# run_diag/run_baseline: re-exported for perfbench's span probes only
from repro.harness.runner import RunSpec, run_baseline, run_diag  # noqa: F401
from repro.workloads import RODINIA_WORKLOADS, SPEC_WORKLOADS

RODINIA = sorted(RODINIA_WORKLOADS)
SPEC = sorted(SPEC_WORKLOADS)

#: paper Section 7.1: 12-core 8-issue ARM baseline
BASELINE_CORES = 12
#: paper Section 7.2.1: "16-by-2 format" — the 32-cluster processor is
#: split into 16 rings of two clusters, one software thread each (the
#: baseline stays at its 12 cores, as in the paper).
MT_THREADS = 16
MT_CLUSTERS_PER_RING = 2
#: SIMT pipelining needs enough clusters per ring to replicate the loop
#: body ("configure DiAG with enough PEs to exploit reuse ... to unlock
#: its potential with thread pipelining"). The paper tunes this per
#: benchmark by hand (Section 7.2.1); we pick the better of two
#: ring partitionings of the same 32-cluster processor.
SIMT_POINTS = ((16, 2), (8, 4))

SINGLE_CONFIGS = ("F4C2", "F4C16", "F4C32")

#: two compute-heavy + two memory/graph benchmarks (paper Figure 11
#: shows four Rodinia benchmarks spanning that spectrum)
FIG11_BENCHMARKS = ("nn", "kmeans", "srad", "bfs")


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _cell(name, role, scale):
    """The spec of a run cell several folds share, built only here.
    ``role``: a DiAG preset, ``"base"``/``"base_mt"`` (the 1-core /
    ``BASELINE_CORES``-core baseline), ``"mt"`` or ``"simt"`` (a tuple)."""
    if role == "base":
        return RunSpec.ooo(name, scale=scale)
    if role == "base_mt":
        return RunSpec.ooo(name, scale=scale, threads=BASELINE_CORES)
    if role == "mt":
        return RunSpec.diag(name, config="F4C32", scale=scale,
                            threads=MT_THREADS,
                            num_clusters=MT_CLUSTERS_PER_RING)
    if role == "simt":
        return tuple(RunSpec.diag(name, config="F4C32", scale=scale,
                                  threads=threads, num_clusters=clusters,
                                  simt=True)
                     for threads, clusters in SIMT_POINTS)
    return RunSpec.diag(name, config=role, scale=scale)


# --- Tables

def _table1(records, scale):
    """Table 1 — per-instruction stage comparison, OoO vs DiAG.

    The structural rows are architectural facts; the measured evidence
    quantifies the 'Fetch/Decode: No under reuse' claim: I-line
    fetches per retired instruction with and without datapath reuse.
    """
    with_reuse = records[_cell("nn", "F4C16", scale)]
    without = records[RunSpec.diag(
        "nn", config="F4C16", scale=scale,
        config_overrides={"enable_reuse": False, "enable_simt": False})]
    rows = [
        # (stage, OoO, DiAG initial, DiAG reuse)
        ("Fetch", "Yes", "Yes (Batch)", "No"),
        ("Decode", "Yes", "Yes", "No"),
        ("Issue", "Yes", "No", "No"),
        ("Issue Width", "4-8 Instr.", "Scalable", "Scalable"),
        ("Rename", "Yes", "No", "No"),
        ("Register File", "Physical RF", "Reg Lanes", "Reg Lanes"),
        ("Dispatch", "Yes", "No", "No"),
        ("Execute", "Yes", "Yes", "Yes"),
        ("Commit", "Reorder Buffer", "Reg Lanes", "Reg Lanes"),
    ]
    def fetch_rate(record):
        return record.extra["lines_fetched"] * 16 / record.instructions \
            if record.instructions else 0.0
    return {
        "rows": rows,
        "fetch_per_instr_with_reuse": fetch_rate(with_reuse),
        "fetch_per_instr_without_reuse": fetch_rate(without),
        "reuse_hits": with_reuse.extra.get("reuse_hits", 0),
        "verified": with_reuse.verified and without.verified,
    }


def run_table2():
    """Table 2 — the four hardware configurations."""
    rows = {}
    for name in ("I4C2", "F4C2", "F4C16", "F4C32"):
        cfg = CONFIG_PRESETS[name]
        rows[name] = {
            "isa": cfg.isa,
            "pes_per_cluster": cfg.pes_per_cluster,
            "total_clusters": cfg.num_clusters,
            "total_pes": cfg.total_pes,
            "freq_sim_ghz": cfg.freq_ghz,
            "l1i_kb": cfg.l1i_size // 1024,
            "l1d_kb": cfg.l1d_size // 1024,
            "l2_mb": cfg.l2_size // (1024 * 1024),
        }
    return {"rows": rows}


def run_table3():
    """Table 3 — area and power breakdown by component."""
    model = EnergyModel(CONFIG_PRESETS["F4C32"])
    report = model.area_report()
    return {
        "rows": report.rows(),
        "top_mm2": report.top_mm2,
        "cluster_mm2": report.cluster_mm2,
        "pe_um2": report.pe_um2,
        "fpu_um2": report.fpu_um2,
        "reglane_um2": report.reglane_um2,
        "peak_power_w": model.peak_power_w(),
        # paper values for EXPERIMENTS.md deltas
        "paper_top_mm2": 93.07,
        "paper_cluster_mm2": 2.208,
        "paper_peak_power_w": 74.30,
    }


# --- Figures 9 and 10 — performance

def _note_failure(result, name, record):
    """Record a failed cell in the experiment's skip report."""
    if record.failed:
        result.setdefault("failures", []).append(
            {"benchmark": name, "machine": record.machine,
             "config": record.config, "status": record.status,
             "error": record.error})


def _single_thread(benchmarks, records, scale, paper_average):
    """Figures 9a/10a — speedup of each DiAG config vs the 1-core OoO.

    Failed cells (engine error / hang / timeout) are skipped and
    reported under ``result["failures"]`` instead of aborting the
    sweep; averages are taken over the surviving cells.
    """
    result = {"benchmarks": {}, "average": {}, "failures": []}
    for name in benchmarks:
        base = records[_cell(name, "base", scale)]
        _note_failure(result, name, base)
        row = {"baseline_cycles": base.cycles,
               "baseline_verified": base.verified,
               "baseline_status": base.status}
        for config in SINGLE_CONFIGS:
            diag = records[_cell(name, config, scale)]
            _note_failure(result, name, diag)
            row[config] = {
                "cycles": diag.cycles,
                "speedup": base.cycles / diag.cycles
                if diag.cycles and not diag.failed and not base.failed
                else 0,
                "verified": diag.verified,
                "status": diag.status,
            }
        result["benchmarks"][name] = row
    rows = result["benchmarks"].values()
    result["average"] = {config: geomean([r[config]["speedup"] for r in rows])
                         for config in SINGLE_CONFIGS}
    result["paper_average"] = dict(zip(SINGLE_CONFIGS, paper_average))
    return result


def best_simt_record(records, name, scale):
    """Best SIMT operating point for one benchmark (paper-style manual
    region/configuration tuning, Section 7.2.1): ``(record, regions)``
    where ``regions`` is the most pipelined regions *any* probed point
    ran. The first point wins ties; a failed best is replaced."""
    points = [records[spec] for spec in _cell(name, "simt", scale)]
    best = points[0]
    for record in points[1:]:
        if best.failed or (record.cycles and not record.failed
                           and record.cycles < best.cycles):
            best = record
    return best, max(r.extra.get("simt_regions", 0) for r in points)


def _multi_thread(benchmarks, records, scale, paper_average):
    """Figures 9b/10b — spatial multi-thread + SIMT vs the 12-core
    baseline; failed cells are skipped and reported as in
    :func:`_single_thread`."""
    result = {"benchmarks": {}, "average": {}, "failures": []}
    for name in benchmarks:
        base = records[_cell(name, "base_mt", scale)]
        diag_mt = records[_cell(name, "mt", scale)]
        diag_simt, any_regions = best_simt_record(records, name, scale)
        for record in (base, diag_mt, diag_simt):
            _note_failure(result, name, record)
        simt_failed = base.failed or diag_simt.failed
        result["benchmarks"][name] = {
            "baseline_cycles": base.cycles,
            "baseline_verified": base.verified,
            "baseline_status": base.status,
            "mt": {"cycles": diag_mt.cycles,
                   "speedup": base.cycles / diag_mt.cycles
                   if diag_mt.cycles and not diag_mt.failed
                   and not base.failed else 0,
                   "verified": diag_mt.verified,
                   "status": diag_mt.status},
            "simt": {"cycles": diag_simt.cycles,
                     "speedup": base.cycles / diag_simt.cycles
                     if diag_simt.cycles and not simt_failed else 0,
                     "verified": diag_simt.verified,
                     "status": diag_simt.status,
                     "threads": diag_simt.threads,
                     "regions": diag_simt.extra.get("simt_regions", 0),
                     "regions_any_point": any_regions},
        }
    rows = result["benchmarks"].values()
    result["average"] = {key: geomean([r[key]["speedup"] for r in rows])
                         for key in ("mt", "simt")}
    result["paper_average"] = paper_average
    return result


# --- Figure 11 — energy breakdown, Figure 12 — energy efficiency

def _fig11(records, scale):
    """Figure 11 — DiAG energy % by component on four benchmarks."""
    result = {"benchmarks": {}}
    for name in FIG11_BENCHMARKS:
        record = records[_cell(name, "F4C32", scale)]
        result["benchmarks"][name] = {
            "breakdown": record.energy_breakdown,
            "category": (RODINIA_WORKLOADS.get(name)
                         or SPEC_WORKLOADS[name]).CATEGORY,
            "verified": record.verified,
        }
    return result


def _fig12(records, scale):
    """Figure 12 — Rodinia energy-efficiency improvement vs baseline.

    Efficiency = 1 / total energy (Section 7.4). Paper averages:
    1.51x single-thread, 1.35x multi-thread, 1.63x with SIMT.
    """
    result = {"benchmarks": {}, "average": {}}
    for name in RODINIA:
        base1 = records[_cell(name, "base", scale)]
        basen = records[_cell(name, "base_mt", scale)]
        diag1 = records[_cell(name, "F4C32", scale)]
        diag_mt = records[_cell(name, "mt", scale)]
        diag_simt, _ = best_simt_record(records, name, scale)
        result["benchmarks"][name] = {
            "single": base1.energy_j / diag1.energy_j
            if diag1.energy_j else 0,
            "multi": basen.energy_j / diag_mt.energy_j
            if diag_mt.energy_j else 0,
            "simt": basen.energy_j / diag_simt.energy_j
            if diag_simt.energy_j else 0,
        }
    rows = result["benchmarks"].values()
    result["average"] = {key: geomean([r[key] for r in rows])
                         for key in ("single", "multi", "simt")}
    result["paper_average"] = {"single": 1.51, "multi": 1.35, "simt": 1.63}
    return result


# --- Section 7.3.2 — stall breakdown, and the abstract's headline

def _stalls(records, scale):
    """Section 7.3.2 — stall sources averaged over Rodinia on F4C32.

    Paper: 73.6% memory, 21.1% control, 5.3% other.
    """
    per_benchmark = {}
    for name in RODINIA:
        fractions = records[_cell(name, "F4C32", scale)].stall_fractions
        if fractions:
            per_benchmark[name] = fractions
    average = {key: sum(f.get(key, 0.0) for f in per_benchmark.values())
               / len(per_benchmark)
               for key in ("memory", "control", "other")} \
        if per_benchmark else {}
    return {
        "average": average,
        "per_benchmark": per_benchmark,
        "paper": {"memory": 0.736, "control": 0.211, "other": 0.053},
    }


def _headline(records, scale):
    """Abstract — DiAG (512 PEs): 1.18x speedup, 1.63x energy eff.

    The headline numbers are the best DiAG operating point (SIMT
    multi-thread where applicable) against the multicore baseline,
    averaged over both suites.
    """
    per_benchmark = {}
    for name in RODINIA + SPEC:
        base = records[_cell(name, "base_mt", scale)]
        diag, _ = best_simt_record(records, name, scale)
        per_benchmark[name] = {
            "speedup": base.cycles / diag.cycles if diag.cycles else 0,
            "efficiency": base.energy_j / diag.energy_j
            if diag.energy_j else 0}
    rows = per_benchmark.values()
    return {
        "speedup": geomean([r["speedup"] for r in rows]),
        "efficiency": geomean([r["efficiency"] for r in rows]),
        "per_benchmark": per_benchmark,
        "paper": {"speedup": 1.18, "efficiency": 1.63},
    }


#: artefact id -> fold(records, scale). A fold must look up the same
#: specs whatever the records hold (:func:`plan` relies on it). The
#: tuples are the paper's Figure 9a/10a averages for F4C2/F4C16/F4C32.
EXPERIMENTS = {
    "table1": _table1,
    "table2": lambda records, scale: run_table2(),
    "table3": lambda records, scale: run_table3(),
    "fig9a": lambda records, scale: _single_thread(
        RODINIA, records, scale, (0.91, 1.12, 1.12)),
    "fig9b": lambda records, scale: _multi_thread(
        RODINIA, records, scale, {"mt": 0.95, "simt": 1.2}),
    "fig10a": lambda records, scale: _single_thread(
        SPEC, records, scale, (0.81, 0.97, 0.97)),
    "fig10b": lambda records, scale: _multi_thread(
        SPEC, records, scale, {"mt": 0.97, "simt": 1.15}),
    "fig11": _fig11,
    "fig12": _fig12,
    "stalls": _stalls,
    "headline": _headline,
}


class _Probe(dict):
    """Records that note each spec a fold looks up (see :func:`plan`)."""

    def __missing__(self, spec):
        record = self[spec] = spec.record()
        return record


def plan(names, scale):
    """The specs the named artefacts' folds look up, each once, in
    first-lookup order: folding over empty records finds them, so a plan
    cannot drift from its fold, and frozen canonical specs compare by
    value, so equal runs dedupe without building a workload."""
    probe = _Probe()
    for name in names:
        EXPERIMENTS[name](probe, scale)
    return list(probe)


def run_suite(names, scale=1.0):
    """Each named artefact's result, folded from one ``run_specs``
    campaign over :func:`plan` (pooled under ``REPRO_JOBS`` > 1)."""
    specs = plan(names, scale)
    records = dict(zip(specs, parallel.run_specs(specs)))
    return {name: EXPERIMENTS[name](records, scale) for name in names}


def _alone(name, default_scale=1.0):
    """``run_<name>(scale)``: artefact ``name`` as a suite of one."""
    def run(scale=default_scale):
        return run_suite([name], scale)[name]
    return run


run_table1 = _alone("table1", 0.5)
run_fig9a = _alone("fig9a")
run_fig9b = _alone("fig9b")
run_fig10a = _alone("fig10a")
run_fig10b = _alone("fig10b")
run_fig11 = _alone("fig11")
run_fig12 = _alone("fig12")
run_stall_breakdown = _alone("stalls")
run_headline = _alone("headline")
