"""Single-run execution + caching for the experiment harness.

Every run is a canonical spec — :class:`RunSpec` (full detail) or
:class:`repro.sampling.SampledSpec` — and :func:`run_spec` is the one
build → run → verify → status skeleton behind :func:`run_diag`,
:func:`run_baseline` and :func:`repro.sampling.run_sampled`; what a
machine name means comes from the :mod:`repro.machines` registry.
Engine exceptions, liveness hangs and cycle-budget timeouts become
``RunRecord.status`` / ``RunRecord.error`` instead of propagating, so
one pathological cell can never abort a whole sweep.

One key names a run everywhere — :func:`repro.harness.journal.
spec_key`, the content hash of the canonical spec plus its workload's
program bytes (an edited workload can never alias a stale record) —
in the journal, the run service and both cache tiers behind every
run: the process-local LRU below (``_CACHE``; hits return the *same*
record object) and the optional persistent
:mod:`repro.harness.diskcache`, consulted on a memory miss and written
through. Only clean, halted runs are cached (a truncated run must
never satisfy a later full-budget request); traced runs bypass both.
"""

import time
from collections import OrderedDict
from dataclasses import InitVar, dataclass, field

from repro import machines
from repro.core.watchdog import SimulationHang
from repro.harness import diskcache
from repro.harness.journal import spec_key
from repro.obs import (  # collect_*: see collect_stats
    PhaseProfiler,
    collect_diag,
    collect_ooo,
    export_throughput,
    telemetry,
)
from repro.workloads import get_workload

#: RunRecord.status values: "ok" = ran to halt (verified says whether
#: outputs matched), "timed_out" = cycle budget exhausted while still
#: retiring, "hang" = liveness watchdog fired, "error" = the engine or
#: the workload's verifier raised. The last two are synthesized by the
#: harness (see docs/RESILIENCE.md): "timeout" = the wall-clock
#: watchdog fired twice (pool + bounded serial retry), "quarantined" =
#: the spec failed every pool attempt *and* its in-process fallback.
RUN_STATUSES = ("ok", "timed_out", "hang", "error", "timeout",
                "quarantined")

#: the docs/RESILIENCE.md failure taxonomy (RunRecord.failure_class)
FAILURE_CLASSES = ("hang", "crash", "divergence", "infra")


def classify_failure(status):
    """Map a :class:`RunRecord` status onto the failure taxonomy
    (None for statuses that are not failures — "ok", and "timed_out",
    which is a bounded result, not a breakage)."""
    return {"hang": "hang", "error": "crash",
            "timeout": "hang", "quarantined": "infra"}.get(status)


@dataclass
class RunRecord:
    """Outcome of one (workload, machine, configuration) run."""

    workload: str
    machine: str            # a repro.machines name
    config: str
    threads: int
    simt: bool
    cycles: int = 0
    instructions: int = 0
    verified: bool = False
    status: str = "ok"
    error: str = None
    energy_j: float = 0.0
    energy_breakdown: dict = field(default_factory=dict)
    stall_fractions: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: docs/RESILIENCE.md taxonomy for failed runs ("hang" / "crash" /
    #: "divergence" / "infra"); None when the run is not a failure
    failure_class: str = None
    #: full machine-readable stats document — the flat dump of the
    #: repro.obs.StatsRegistry this run populated (shared ``core.*`` /
    #: ``mem.*`` namespace plus engine detail; see docs/OBSERVABILITY.md)
    stats: dict = field(default_factory=dict)

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0

    def stat(self, name, default=0):
        """One counter from the stats document (``default`` if the run
        failed before stats were collected)."""
        return self.stats.get(name, default)

    @property
    def failed(self):
        """True when the run did not complete cleanly (independent of
        whether a clean run's outputs verified)."""
        return self.status != "ok"


_CACHE = OrderedDict()
#: LRU bound on cached run records; sweeps touching more distinct
#: (workload, config) cells than this re-run the oldest ones.
CACHE_MAX_ENTRIES = 512

#: built WorkloadInstances are reusable (setup/verify are idempotent —
#: fault campaigns already rely on this), so memoize (class, scale,
#: threads, simt) -> (instance, program digest) and hashing the program
#: for the run key costs one build per distinct cell, not per call.
#: Keyed by the *class object*: re-registering a workload under the
#: same name yields a different class and therefore a fresh build.
_BUILDS = OrderedDict()
BUILD_CACHE_MAX_ENTRIES = 128


def clear_cache():
    """Drop all cached run records and memoized workload builds (used
    between benchmark sessions). The persistent disk cache is *not*
    touched — use ``repro cache clear`` / ``DiskCache.clear``."""
    _CACHE.clear()
    _BUILDS.clear()


def _built(cls, scale, threads, simt):
    """Memoized (WorkloadInstance, program digest) for one cell."""
    key = (cls, scale, threads, simt)
    # pop + re-insert (each atomic) refreshes the LRU slot safely when
    # the run service keys specs on several threads at once
    hit = _BUILDS.pop(key, None)
    if hit is not None:
        _BUILDS[key] = hit
        return hit
    inst = cls().build(scale=scale, threads=threads, simt=simt)
    built = (inst, diskcache.program_digest(inst.program))
    _BUILDS[key] = built
    while len(_BUILDS) > BUILD_CACHE_MAX_ENTRIES:
        _BUILDS.popitem(last=False)
    return built


def _store(key, record):
    _CACHE[key] = record
    while len(_CACHE) > CACHE_MAX_ENTRIES:
        _CACHE.popitem(last=False)


def _lookup(key):
    """``(record, disk tier)``: a cached clean record for ``key`` from
    the LRU or the disk tier, or None."""
    record = _CACHE.get(key)
    if record is not None:
        _CACHE.move_to_end(key)
        telemetry.emit("cache_hit", tier="mem")
        return record, None
    disk = diskcache.active()
    if disk is None:
        # no second tier: this lookup is decided here (a disk tier
        # emits its own hit/miss from DiskCache.get)
        telemetry.emit("cache_miss", tier="mem")
        return None, None
    record = disk.get(key)
    # a persisted record is only trusted if it says "ok" — the cache
    # layer never serves failed or truncated runs
    if record is not None and record.status == "ok":
        _store(key, record)
        return record, disk
    return None, disk


class WorkloadSpec:
    """What the harness's run specs share: named by :func:`spec_key`
    (which covers :meth:`program_digest`), executed by :func:`run_spec`
    through :meth:`simulate`, and canonical at construction — two specs
    for the same run are equal (default preset filled in, overrides
    sorted, ``threads``/``simt`` clamped to what the run will use), and
    one the machine cannot interpret (unknown machine, workload, preset
    or knob) raises ``ValueError`` then, not later in a worker."""

    def _canonicalize(self, **overrides):
        """Rewrite the fields in canonical form, folding the non-None
        ``overrides`` into ``config_overrides``."""
        machine = machines.get(self.machine)
        try:
            cls = get_workload(self.workload)
        except KeyError:
            raise ValueError(f"unknown workload {self.workload!r}") \
                from None
        try:
            overrides = tuple(sorted({
                **dict(self.config_overrides),
                **{k: v for k, v in overrides.items() if v is not None},
            }.items()))
        except (TypeError, ValueError):
            raise ValueError("config_overrides must be a mapping or a "
                             "list of [knob, value] pairs") from None
        config = self.config if self.config is not None \
            else machine.default_preset
        machine.config(config, overrides)  # unknown preset/knob raises
        canonical = {"config": config, "config_overrides": overrides,
                     "scale": float(self.scale),
                     "simt": bool(self.simt and cls.SIMT_CAPABLE
                                  and machine.simt)}
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    def resolved_config(self):
        return machines.get(self.machine).config(self.config,
                                                 self.config_overrides)

    def build(self):
        """Memoized ``(WorkloadInstance, program digest)``."""
        return _built(get_workload(self.workload), self.scale,
                      self.threads, self.simt)

    def program_digest(self):
        """The program-bytes part of the run key (None when the build
        fails — so does the run, and failures are never cached)."""
        try:
            return self.build()[1]
        except Exception:
            return None

    def record(self, **kwargs):
        return RunRecord(workload=self.workload, machine=self.machine,
                         config=self.resolved_config().name,
                         threads=self.threads, simt=self.simt, **kwargs)

    def failure_record(self, status, error, failure_class):
        """The record for a spec the harness could not execute
        (quarantine, serial-retry timeout)."""
        return self.record(status=status, error=error,
                           failure_class=failure_class)

    def execute(self):
        return run_spec(self)


@dataclass(frozen=True)
class RunSpec(WorkloadSpec):
    """One picklable full-detail run request: everything
    :func:`run_spec` needs to reproduce a run in another process.
    ``num_clusters`` is accepted for the clusters-per-ring split
    (paper Section 7.2.1) and folds into ``config_overrides``."""

    machine: str                 # a repro.machines name
    workload: str
    config: str = None           # preset name (machine default if None)
    scale: float = 1.0
    threads: int = 1
    simt: bool = False
    max_cycles: int = None
    config_overrides: tuple = ()  # sorted ((knob, value), ...) pairs
    num_clusters: InitVar[int] = None

    def __post_init__(self, num_clusters):
        self._canonicalize(num_clusters=num_clusters)
        if not get_workload(self.workload).MT_CAPABLE:
            object.__setattr__(self, "threads", 1)

    @classmethod
    def diag(cls, workload, **kwargs):
        return cls(machine="diag", workload=workload, **kwargs)

    @classmethod
    def ooo(cls, workload, **kwargs):
        return cls(machine="ooo", workload=workload, **kwargs)

    @classmethod
    def from_dict(cls, doc):
        """Canonicalize a JSON-shaped mapping (a service request body,
        a saved sweep point) into a RunSpec. Unknown fields, presets
        and knobs raise ``ValueError`` — a typo must never silently
        alias the default-config run's cache identity."""
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ValueError(str(exc)) from None

    def simulate(self, record, inst, profiler, tracer=None):
        """The full-detail run body of :func:`run_spec`."""
        machine = machines.get(self.machine)
        cfg = self.resolved_config()
        with profiler.phase("build"):
            sim = machine.build(cfg, inst.program, self.threads, tracer)
            inst.setup(sim.memory)
        if tracer is not None:
            machine.label_tracks(tracer, self.threads)
        with profiler.phase("run"):
            result = sim.runner.run(max_cycles=self.max_cycles)
        record.cycles = result.cycles
        record.instructions = result.instructions
        record.status = "ok" if result.halted else "timed_out"
        energy = machine.energy(cfg, result, sim.hierarchies)
        record.energy_j = energy.total_j
        record.energy_breakdown = energy.breakdown()
        record.stall_fractions = {
            k.value: v for k, v in
            result.stats.stall_fractions().items()}
        record.extra = {**machine.extra(result), "params": inst.params}
        with profiler.phase("verify"):
            record.verified = result.halted \
                and bool(inst.verify(sim.memory))
        registry = collect_stats(machine, result, sim.hierarchies)
        profiler.export(registry)
        export_throughput(registry, result.cycles, result.instructions,
                          profiler.seconds("run"),
                          tracer.emitted if tracer is not None else 0,
                          ff_skips=sum(u.ff_skips for u in sim.units),
                          ff_skipped_cycles=sum(
                              u.ff_skipped_cycles for u in sim.units))
        record.stats = registry.as_dict()


def collect_stats(machine, result, hierarchies):
    """The run's stats registry from ``machine.collector``, called
    through this module's namespace when re-exported here (the
    benchmark's span probes patch ``runner.collect_diag``/``_ooo``)."""
    fn = machine.collector
    return globals().get(fn.__name__, fn)(result, hierarchies)


def run_spec(spec, tracer=None):
    """Execute one canonical spec; returns a :class:`RunRecord`.

    The shared skeleton: build the workload (memoized), then — unless
    either cache tier holds a clean record under ``spec_key(spec)`` —
    run ``spec.simulate`` and classify the outcome. Exceptions become
    ``status="error"``, liveness hangs ``status="hang"``. A ``tracer``
    (an :class:`repro.obs.EventTracer`) bypasses both caches: a cached
    record would have emitted no events into it."""
    record = spec.record()
    profiler = PhaseProfiler()
    start = time.time()
    key = disk = None
    try:
        with profiler.phase("build"):
            inst, _ = spec.build()
        if tracer is None:
            key = spec_key(spec)
            hit, disk = _lookup(key)
            if hit is not None:
                return hit
        spec.simulate(record, inst, profiler, tracer)
    except SimulationHang as exc:
        record.status = "hang"
        record.error = str(exc)
        record.cycles = exc.cycle
    except Exception as exc:
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
    record.wall_seconds = time.time() - start
    record.failure_class = classify_failure(record.status)
    # Never cache failed or truncated records: a later call must get a
    # fresh attempt (and a truncated run must never impersonate a
    # full-budget one).
    if key is not None and record.status == "ok":
        _store(key, record)
        if disk is not None:
            disk.put(key, record)
    return record


def run_diag(workload, config="F4C32", scale=1.0, threads=1, simt=False,
             num_clusters=None, max_cycles=None, config_overrides=None,
             tracer=None):
    """Run ``workload`` on a DiAG processor; returns a :class:`RunRecord`.

    ``config`` is a Table 2 preset name; ``num_clusters`` optionally
    overrides the clusters available *per ring* (used to split an
    F4C32 into multiple rings for spatial multi-threading — paper
    Section 7.2.1's "16-by-2 format"). ``tracer`` is an optional
    :class:`repro.obs.EventTracer`; traced runs bypass the run cache.
    """
    return run_spec(RunSpec.diag(
        workload, config=config, scale=scale, threads=threads,
        simt=simt, num_clusters=num_clusters, max_cycles=max_cycles,
        config_overrides=config_overrides or ()), tracer)


def run_baseline(workload, scale=1.0, threads=1, max_cycles=None,
                 config=None, tracer=None):
    """Run ``workload`` on the out-of-order baseline (multicore if
    ``threads`` > 1); returns a :class:`RunRecord`. ``config`` is an
    optional :class:`repro.baseline.OoOConfig`; ``tracer`` is an
    optional :class:`repro.obs.EventTracer`; traced runs bypass the
    run cache."""
    preset, overrides = (None, ()) if config is None \
        else machines.get("ooo").describe(config)
    return run_spec(RunSpec.ooo(
        workload, config=preset, scale=scale, threads=threads,
        max_cycles=max_cycles, config_overrides=overrides), tracer)
