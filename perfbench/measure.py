"""Measurement core shared by the four workloads.

A benchmark invocation (:class:`Run`) sets its workload up several
times, then measures one timed phase (:class:`Phase`) made of rounds:
each round performs the workload's fixed set of operations in an
order drawn from the seed. End-to-end metrics fold the untraced phase
(:func:`end_to_end`); per-layer metrics fold a traced phase, its spans
and the telemetry the program already writes (:func:`per_layer`).

Every operation is checked (:meth:`Run.check_record`): a simulated
cell must halt ``ok`` and verify its outputs, and its
``deterministic_view`` digest must equal the one recorded for the same
cell in earlier rounds and earlier runs (:class:`DigestStore`).
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import pickle
import resource
import statistics
import time
from pathlib import Path

from spans import coverage, duration, layer_seconds, self_seconds

#: record fields a digest covers, besides the deterministic stats view
RECORD_FIELDS = ("workload", "machine", "config", "threads", "simt",
                 "cycles", "instructions", "verified", "status")

#: seconds :func:`calibrate` takes on the reference host: the 2-core
#: x86-64 host that produced the medians in README.md, while it was
#: quiet (median 0.0796 s over 40 runs), rounded. The declared
#: ``*_ref_*`` host-time metrics are scaled to that host's speed
CAL_REF_S = 0.08
#: loop iterations of one calibration
CAL_LOOPS = 1_000_000
#: a phase calibrates before its first round, after the last one, and
#: after any round that ends this many seconds after the last sample
CAL_EVERY_S = 3.0

#: units of the end-to-end metrics a workload reports beyond the ones
#: BENCHMARK.json declares for every workload (README.md, "Metrics")
EXTRA_UNITS = {
    "wall_s": "s",
    "sim_kips": "kinst/s",
    "diag_kips": "kinst/s",
    "ooo_kips": "kinst/s",
    "host_cal_s": "s",
    "fail_ratio": "ratio",
    "replay_s": "s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "req_p95_beyond": "count",
    "hit_p50_ms": "ms",
    "throughput_rps": "req/s",
}


class BenchError(Exception):
    """A condition that fails the benchmark run loudly."""


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Inclusive ``q``-th percentile (``q`` in 1..99)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def calibrate():
    """Seconds a fixed pure-Python loop takes now (best of three): the
    host's current speed, for the same kind of work the simulator does
    (bytecode dispatch, list indexing, integer arithmetic)."""
    table = list(range(256))
    best = None
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc = (acc + table[(i ^ acc) & 255]) & 0xFFFF
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best


def record_doc(record):
    """A RunRecord (or the JSON-shaped record a service streams) as a
    plain dict."""
    if dataclasses.is_dataclass(record):
        return dataclasses.asdict(record)
    return dict(record)


def digest(doc):
    """Content hash of a record's deterministic part."""
    from repro.obs import deterministic_view

    view = {key: doc.get(key) for key in RECORD_FIELDS}
    view["stats"] = deterministic_view(doc.get("stats") or {})
    text = json.dumps(view, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def tree_hash(src_root):
    """Hash of every ``.py`` file under ``src_root``: digests recorded
    for one version of the program are never compared with another."""
    sha = hashlib.sha256()
    for path in sorted(Path(src_root).rglob("*.py")):
        sha.update(str(path.relative_to(src_root)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


class DigestStore:
    """Per-cell digests, shared by every run (traced or not) of one
    version of the program in one checkout."""

    def __init__(self, path, src_root):
        self.path = Path(path)
        self.version = tree_hash(src_root)
        self.known = self._load().get(self.version, {})
        self.new = {}

    def _load(self):
        """The whole store: version -> {cell: digest}."""
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def check(self, cell, value):
        """True when ``value`` matches what ``cell`` produced before
        (or ``cell`` is new)."""
        previous = self.known.get(cell, self.new.get(cell))
        if previous is None:
            self.new[cell] = value
            return True
        return previous == value

    def save(self):
        """Add the new digests under this version; the digests stored
        for every other version are kept."""
        if not self.new:
            return
        data = self._load()
        merged = data.get(self.version, {})
        merged.update(self.known)
        merged.update(self.new)
        data[self.version] = merged
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, self.path)


@dataclasses.dataclass
class Work:
    """One executed (not cached) simulation."""

    machine: str
    sampled: bool
    instructions: int
    cycles: int
    host_s: float
    stats: dict
    record_kb: float = 0.0


class Phase:
    """One timed phase: its rounds and what they measured."""

    def __init__(self, traced=False):
        self.traced = traced
        self.rounds = []          # (start, end) perf_counter pairs
        self.round_work = []      # the Work entries of each round
        self.calibrations = []    # calibrate() samples
        self.round_cycles = []    # simulated cycles of each round
        self.work = []            # Work entries
        self.pool_busy_s = 0.0    # Σ record wall time inside a pool
        self.pool_capacity_s = 0.0  # workers × wall of the pool calls
        self.replays = []         # campaign warm-replay seconds
        self.requests = []        # service: one dict per request
        self.service = {}         # service: /metrics deltas
        self.telemetry = None     # path of a telemetry stream
        self.waits_ms = []        # telemetry: scheduled -> started
        self.queue_depth_max = 0  # telemetry: most cells waiting at once
        self.retries = 0          # telemetry: retry events

    @property
    def walls(self):
        return [end - start for start, end in self.rounds]

    def executed(self, record, host_s, sampled=False, record_kb=0.0):
        """Account one executed cell; returns the record as a dict."""
        doc = record_doc(record)
        self.work.append(Work(
            machine=doc["machine"], sampled=sampled,
            instructions=doc.get("instructions", 0),
            cycles=doc.get("cycles", 0), host_s=host_s,
            stats=doc.get("stats") or {}, record_kb=record_kb))
        return doc


class Run:
    """Operation accounting, output checks and scratch space for one
    benchmark invocation."""

    def __init__(self, workdir, seed, digests, recorder=None):
        self.workdir = Path(workdir)
        self.seed = seed
        self.digests = digests
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._dirs = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def check_record(self, cell, doc):
        """One simulated cell is one operation: it must halt ``ok``,
        verify its outputs, and hash to the same digest as every
        earlier result of ``cell``."""
        if doc.get("status") != "ok" or not doc.get("verified"):
            return self.check(False, f"{cell}: status={doc.get('status')} "
                                     f"verified={doc.get('verified')} "
                                     f"error={doc.get('error')}")
        return self.check(self.digests.check(cell, digest(doc)),
                          f"{cell}: deterministic_view digest differs "
                          f"from an earlier result of the same cell")

    def cell(self, cell_id):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.cell(cell_id)

    def fresh_dir(self, name):
        self._dirs += 1
        path = self.workdir / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path


def run_phase(workload, run, rng, budget, min_rounds, traced=False):
    """Rounds until ``budget`` seconds have passed (at least
    ``min_rounds``)."""
    phase = Phase(traced)
    workload.begin_phase(run, phase)
    phase.calibrations.append(calibrate())
    sampled = start = time.perf_counter()
    while len(phase.rounds) < min_rounds \
            or time.perf_counter() - start < budget:
        first = len(phase.work)
        begin = time.perf_counter()
        workload.round(run, rng, phase)
        end = time.perf_counter()
        phase.rounds.append((begin, end))
        phase.round_work.append(phase.work[first:])
        if end - sampled >= CAL_EVERY_S:
            phase.calibrations.append(calibrate())
            sampled = time.perf_counter()
    if sampled < phase.rounds[-1][1]:
        phase.calibrations.append(calibrate())
    workload.end_phase(run, rng, phase)
    if phase.telemetry is not None:
        phase.waits_ms, phase.queue_depth_max, phase.retries = \
            fold_telemetry(phase.telemetry)
    if len(set(phase.round_cycles)) > 1:
        run.check(False, f"simulated cycles differ between rounds: "
                         f"{sorted(set(phase.round_cycles))}")
    return phase


def peak_rss_mb():
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _ratio(num, den):
    return num / den if den else 0.0


def _kips(work, seconds=None):
    """Executed instructions per host second, in thousands (over the
    cells' own host time unless ``seconds`` is given)."""
    if seconds is None:
        seconds = sum(w.host_s for w in work)
    return _ratio(sum(w.instructions for w in work), seconds) / 1000.0


def _best_round_kips(phase, machine=None):
    """The fastest round's executed kinst/s: over the round's wall time,
    or over its ``machine`` cells' own host time."""
    best = 0.0
    for (start, end), work in zip(phase.rounds, phase.round_work):
        if machine is None:
            best = max(best, _kips(work, end - start))
        else:
            best = max(best, _kips([w for w in work if w.machine == machine]))
    return best


def end_to_end(phase, setups, run):
    """The untraced phase's end-to-end metrics: name -> value.

    Host time drifts with how busy the host is, by far more than a
    regression bound, over a few minutes, and other tenants only ever
    add time. So the declared host-time metrics (``*_ref_*``) take the
    phase's fastest round and scale it to the reference host's speed by
    the fastest :func:`calibrate` sample of the phase: both are the
    least disturbed observations. The measured values (median round,
    whole phase) are reported alongside."""
    walls = phase.walls
    host_cal = min(phase.calibrations)
    speed = host_cal / CAL_REF_S  # > 1: this host is slower right now
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "sim_kips": _kips(phase.work, sum(walls)),
        "diag_kips": _kips([w for w in phase.work if w.machine == "diag"]),
        "ooo_kips": _kips([w for w in phase.work if w.machine == "ooo"]),
        "host_cal_s": host_cal,
        "sim_cycles": phase.round_cycles[0] if phase.round_cycles else 0,
        "peak_rss_mb": peak_rss_mb(),
        "fail_ratio": _ratio(run.failed, run.attempted),
    }
    metrics["wall_ref_s"] = min(walls) / speed
    metrics["sim_ref_kips"] = _best_round_kips(phase) * speed
    for name in ("diag", "ooo"):
        metrics[f"{name}_ref_kips"] = _best_round_kips(phase, name) * speed
    if phase.replays:
        metrics["replay_s"] = median(phase.replays)
    if phase.requests:
        latency = [r["total_ms"] for r in phase.requests]
        hits = [r["total_ms"] for r in phase.requests
                if r["outcome"] in ("cached", "deduped")]
        p95 = percentile(latency, 95)
        metrics.update({
            "req_p50_ms": median(latency),
            "req_p95_ms": p95,
            "req_p95_beyond": sum(1 for v in latency if v > p95),
            "hit_p50_ms": median(hits),
            "throughput_rps": len(latency) / sum(walls),
        })
    return metrics


# ---------------------------------------------------------- per layer

def _sum_stat(work, name):
    return sum(w.stats.get(name, 0) for w in work)


def _engine_layer(work, prefix):
    """``core.*`` / ``baseline.*`` from full-detail records."""
    run_s = _sum_stat(work, "host.phase.run.seconds")
    cycles = sum(w.cycles for w in work)
    return {
        f"{prefix}.run_s": run_s,
        f"{prefix}.kips": _kips(work, run_s),
        f"{prefix}.stepped_cycles":
            cycles - _sum_stat(work, "sim.host.ff_skipped_cycles"),
        f"{prefix}.ipc": _ratio(sum(w.instructions for w in work), cycles),
    }


def _miss_rate(work, level):
    misses = _sum_stat(work, f"mem.{level}.misses")
    return _ratio(misses, misses + _sum_stat(work, f"mem.{level}.hits"))


def _stat_keys(work, suffix):
    return sum(value for w in work for key, value in w.stats.items()
               if key.endswith(suffix))


def fold_telemetry(path):
    """(queue waits in ms, max queue depth, retries) from a telemetry
    stream: a cell waits from ``scheduled`` until a worker ``started``
    it."""
    from repro.obs.telemetry import read_events

    events = sorted(read_events(path), key=lambda e: e["ts"])
    scheduled = {}
    waits = []
    depth = peak = retries = 0
    for event in events:
        kind, run_id = event["ev"], event.get("run")
        if kind == "scheduled":
            scheduled[run_id] = event["ts"]
            depth += 1
            peak = max(peak, depth)
        elif kind == "started" and run_id in scheduled:
            waits.append((event["ts"] - scheduled.pop(run_id)) * 1000.0)
            depth -= 1
        elif kind == "retry":
            retries += 1
    return waits, peak, retries


def per_layer(plain, traced, spans, owner_pid):
    """The traced phase's per-layer metrics: name -> value. Layers a
    workload does not exercise read 0."""
    full = [w for w in traced.work if not w.sampled]
    sampled = [w for w in traced.work if w.sampled]
    diag = [w for w in full if w.machine == "diag"]
    gets = [s for s in spans if s["name"] == "diskcache.get"]
    puts = [s for s in spans if s["name"] == "diskcache.put"]
    reuse_hits = _stat_keys(diag, ".reuse.hits")
    iss_instructions = sum(w.stats.get("iss.instructions", w.instructions)
                           for w in sampled)
    iss_s = layer_seconds(spans, ["iss.run"])
    metrics = {
        "workloads.build_s": layer_seconds(spans, ["workloads.build"]),
        "workloads.builds": sum(1 for s in spans
                                if s["name"] == "workloads.build"),
        "core.reuse_hit_ratio": _ratio(
            reuse_hits, reuse_hits + _stat_keys(diag, ".reuse.misses")),
        "memory.l1d_miss_rate": _miss_rate(full, "l1d"),
        "memory.l2_miss_rate": _miss_rate(full, "l2"),
        "memory.bank_conflicts": _sum_stat(full, "mem.bank_conflicts"),
        "energy.report_s": layer_seconds(spans, ["energy.report"]),
        "obs.collect_s": layer_seconds(spans, ["obs.collect", "obs.dump"]),
        "runner.self_s": self_seconds(
            spans, {"runner.run_diag", "runner.run_baseline"}),
        "parallel.busy_share": _ratio(traced.pool_busy_s,
                                      traced.pool_capacity_s),
        "parallel.wait_ms_p50": median(traced.waits_ms),
        "parallel.record_kb": median(
            [w.record_kb for w in traced.work if w.record_kb]),
        "parallel.retries": traced.retries,
        "diskcache.get_ms_p50": median([duration(s) * 1000.0 for s in gets]),
        "diskcache.put_ms_p50": median([duration(s) * 1000.0 for s in puts]),
        "diskcache.hit_ratio": _ratio(sum(1 for s in gets if s.get("hit")),
                                      len(gets)),
        "diskcache.writes": sum(1 for s in puts if s.get("ok")),
        "diskcache.dropped": sum(1 for s in puts if not s.get("ok")),
        "iss.run_s": iss_s,
        "iss.kips": _ratio(iss_instructions, iss_s) / 1000.0,
        "sampling.window_s": layer_seconds(spans, ["sampling.window"]),
        "sampling.clone_s": layer_seconds(spans, ["sampling.clone"]),
        "sampling.windows": _sum_stat(sampled, "sampling.windows"),
        "sampling.ci95_rel": median(
            [w.stats.get("sampling.ipc_ci95_rel", 0.0) for w in sampled]),
        # both phases' round times at the same host speed
        "bench.trace_overhead_pct": (_ratio(
            median(traced.walls) / median(traced.calibrations),
            median(plain.walls) / median(plain.calibrations)) - 1.0) * 100.0,
        "bench.span_coverage": coverage(spans, owner_pid, traced.rounds),
    }
    metrics.update(_engine_layer(diag, "core"))
    metrics.update(_engine_layer(
        [w for w in full if w.machine == "ooo"], "baseline"))
    requests = traced.requests
    service = traced.service
    metrics.update({
        "service.admit_ms_p50": median([r["admit_ms"] for r in requests]),
        "service.exec_ms_p50": median(
            [r["total_ms"] - r["admit_ms"] for r in requests]),
        "service.queue_depth_max":
            traced.queue_depth_max if requests else 0,
        "service.hit_ratio": _ratio(
            service.get("cache_hits", 0),
            service.get("cache_hits", 0) + service.get("cache_misses", 0)),
        "service.dedup_share": _ratio(service.get("dedup_shared", 0),
                                      service.get("requests", 0)),
        "service.executions": service.get("executions", 0),
        "service.rejected": service.get("rejected_rate", 0)
        + service.get("rejected_depth", 0),
    })
    return metrics


def pickled_kb(record):
    return len(pickle.dumps(record)) / 1024.0


# --------------------------------------------------------- validation

def build_result(run, metrics, declared):
    """The result line: every declared metric with its unit. A missing
    or non-finite metric, or a run that attempted nothing, raises."""
    if run.attempted == 0:
        raise BenchError("the workload completed zero operations")
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"metric {name!r} is missing")
        value = metrics[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise BenchError(f"metric {name!r} is not a finite number: "
                             f"{value!r}")
        out[name] = {"value": value, "unit": entry["unit"]}
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": out}


def check_trace(spans):
    if not spans:
        raise BenchError("the traced run recorded no spans")
