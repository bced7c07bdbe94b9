"""Fault-injection campaigns: inject, classify, aggregate.

A campaign takes one workload, picks ``trials`` deterministic single-bit
faults (seed-driven, population-weighted across the machine's injection
sites), runs each under a bounded budget, and classifies the outcome
against the functional ISS as golden reference:

========== ==========================================================
outcome    meaning
========== ==========================================================
masked     run halted, outputs verify, architectural registers match
           the ISS — the flip was absorbed (dead value, rewritten
           register, unread line)
sdc        run halted but outputs or final registers differ — silent
           data corruption, the dangerous class
detected   the engine raised a structured error (decode fault, bad
           memory access, simulator assertion)
hang       the liveness watchdog fired: no retirement for a full
           quiet window (see repro.core.watchdog)
timed_out  the run kept retiring but exhausted the cycle budget
           (e.g. a corrupted loop bound) — a runaway, not a livelock
========== ==========================================================

Everything is derived from ``seed`` with no global RNG or wall-clock
input, so two campaigns with the same arguments produce bit-identical
outcome sequences — *including* when the trials are sharded across a
process pool (``jobs`` > 1): each worker rebuilds the workload from its
name (bit-identical programs and inputs by construction), classifies a
contiguous chunk of the planned specs, and the chunks are concatenated
in plan order. Process isolation also means an injected fault can never
leak state into a sibling trial. Pool failures degrade to the serial
path (see :mod:`repro.harness.parallel`).
"""

import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from repro import machines
from repro.core import SimulationHang
from repro.faults.injector import FaultInjector, FaultSpec
from repro.harness.runner import collect_stats
from repro.iss import ISS
from repro.workloads import get_workload

OUTCOMES = ("masked", "sdc", "detected", "hang", "timed_out")


class CampaignError(RuntimeError):
    """The fault-free reference run failed, so no campaign can run."""


@dataclass
class TrialResult:
    """One injection and its classified outcome.

    ``cycles`` and ``retired`` come from the run's registry counters
    (``core.cycles`` / ``core.instructions``); a hang or detected fault
    reports the counts reached before the run aborted."""

    spec: FaultSpec
    outcome: str
    cycles: int = 0
    retired: int = 0
    error: str = None
    #: architectural point a hang was stuck at, from the watchdog's
    #: head-state snapshot: the address the committed state has reached
    #: and the last committed (addr, mnemonic) before progress stopped
    arch_pc: str = None
    last_commit: str = None


@dataclass
class CampaignReport:
    """Aggregate outcome of one campaign."""

    workload: str
    machine: str
    config: str
    scale: float
    seed: int
    clean_cycles: int = 0
    clean_retired: int = 0
    site_population: dict = field(default_factory=dict)
    trials: list = field(default_factory=list)

    @property
    def counts(self):
        """{outcome: trials} over the full taxonomy (zeros included)."""
        counter = Counter(t.outcome for t in self.trials)
        return {outcome: counter.get(outcome, 0) for outcome in OUTCOMES}

    def outcome_sequence(self):
        """The per-trial outcome list (reproducibility checks)."""
        return [t.outcome for t in self.trials]

    def summary(self):
        """Human-readable breakdown for the CLI."""
        total = len(self.trials) or 1
        lines = [
            f"fault campaign: {self.workload} on {self.machine} "
            f"({self.config}, scale {self.scale}, seed {self.seed})",
            f"  clean run: {self.clean_cycles} cycles, "
            f"{self.clean_retired} retired; site population: "
            + ", ".join(f"{site}={count}" for site, count
                        in sorted(self.site_population.items())),
            f"  {len(self.trials)} injection(s):",
        ]
        for outcome in OUTCOMES:
            count = self.counts[outcome]
            lines.append(f"    {outcome:10s} {count:4d}  "
                         f"({100.0 * count / total:5.1f}%)")
        for trial in self.trials:
            if trial.outcome == "hang" and (trial.arch_pc
                                            or trial.last_commit):
                lines.append(
                    f"    first hang stuck at {trial.arch_pc or '?'} "
                    f"(last commit: {trial.last_commit or 'none'}, "
                    f"{trial.retired} retired)")
                break
        return "\n".join(lines)


def _execute(machine, config, program, inst, injector, max_cycles):
    """One run with ``injector`` attached; returns (stats, memory,
    x-regs, f-regs) where ``stats`` is the run's flat registry dump.

    Classification reads the shared counters (``sim.halted``,
    ``core.cycles``, ``core.instructions``) out of ``stats`` rather
    than engine-private result fields, so both machines are handled by
    identical downstream code."""
    entry = machines.get(machine)
    sim = entry.build(config, program)
    inst.setup(sim.memory)
    engine = sim.units[0]
    injector.attach(engine, sim.hierarchies[0])
    result = sim.runner.run(max_cycles=max_cycles)
    stats = collect_stats(entry, result, sim.hierarchies).as_dict()
    return stats, sim.memory, engine.arch.x, engine.arch.f


def _golden(program, inst):
    """Run the ISS to completion; returns (x, f) register lists.

    Executes through the superblock fast path (``ISS.run``), so the
    per-campaign golden reference costs milliseconds even for full
    workloads; throughput is emitted as ``golden_run`` telemetry."""
    import time as _time

    from repro.obs import telemetry

    iss = ISS(program)
    inst.setup(iss.memory)
    start = _time.perf_counter()
    iss.run()
    elapsed = _time.perf_counter() - start
    telemetry.emit(
        "golden_run", kind="faults",
        instructions=iss.stats.instructions,
        kips=round(iss.stats.instructions / elapsed / 1000.0, 1)
        if elapsed > 0 else 0.0)
    if not inst.verify(iss.memory):
        raise CampaignError("ISS reference run failed verification")
    return list(iss.x), list(iss.f)


def plan_campaign(site_population, sites, trials, seed):
    """Derive ``trials`` FaultSpecs from ``seed``.

    Sites are weighted by their dynamic event population so e.g. a
    lane-heavy program receives proportionally more lane flips —
    matching how uniformly-random physical upsets would distribute.
    """
    populated = [s for s in sites if site_population.get(s, 0) > 0]
    if not populated:
        raise CampaignError("no injectable events at any site")
    weights = np.array([site_population[s] for s in populated],
                       dtype=float)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    specs = []
    for __ in range(trials):
        site = populated[int(rng.choice(len(populated), p=weights))]
        index = int(rng.integers(site_population[site]))
        bit = int(rng.integers(32))
        specs.append(FaultSpec(site, index, bit))
    return specs


def _classify(machine, config, program, inst, spec, max_cycles,
              gold_x, gold_f):
    injector = FaultInjector(spec)
    try:
        stats, memory, x, f = _execute(
            machine, config, program, inst, injector, max_cycles)
    except SimulationHang as exc:
        # the watchdog's progress marker IS the retired-instruction
        # counter; the head-state dump carries its final value plus
        # the architectural snapshot (where the committed state got
        # stuck, and on what) that makes a torture hang actionable
        return TrialResult(spec, "hang", cycles=exc.cycle,
                           retired=exc.head_state.get("retired", 0),
                           arch_pc=exc.head_state.get("arch_pc"),
                           last_commit=exc.head_state.get("last_commit"),
                           error=str(exc))
    except Exception as exc:  # engine raised: the fault was detected
        return TrialResult(spec, "detected",
                           error=f"{type(exc).__name__}: {exc}")
    cycles = stats["core.cycles"]
    retired = stats["core.instructions"]
    if not stats["sim.halted"]:
        return TrialResult(spec, "timed_out", cycles=cycles,
                           retired=retired)
    try:
        ok = bool(inst.verify(memory))
    except Exception as exc:
        # outputs so corrupted the checker itself choked
        return TrialResult(spec, "sdc", cycles=cycles, retired=retired,
                           error=f"verify raised {type(exc).__name__}")
    if not ok or x[1:] != gold_x[1:] or f != gold_f:
        return TrialResult(spec, "sdc", cycles=cycles, retired=retired)
    return TrialResult(spec, "masked", cycles=cycles, retired=retired)


def _trial_chunk(workload, machine, run_cfg, scale, specs, budget,
                 gold_x, gold_f):
    """Classify a contiguous chunk of planned specs — the pool worker
    entry point. Rebuilds the workload from its name (deterministic by
    construction, so every worker sees bit-identical programs and
    inputs) and returns the TrialResults in spec order."""
    cls = get_workload(workload)
    inst = cls().build(scale=scale, threads=1, simt=False)
    return [_classify(machine, run_cfg, inst.program, inst, spec,
                      budget, gold_x, gold_f) for spec in specs]


def _chunked(specs, jobs):
    """Split ``specs`` into at most ``jobs`` contiguous chunks whose
    concatenation preserves the plan order.

    Chunking is a pure function of (plan, jobs) and the chunks are the
    journal's unit of work, so resuming a journaled campaign requires
    the same ``--jobs`` it started with (docs/RESILIENCE.md)."""
    size, remainder = divmod(len(specs), jobs)
    chunks = []
    start = 0
    for index in range(jobs):
        end = start + size + (1 if index < remainder else 0)
        if end > start:
            chunks.append(specs[start:end])
        start = end
    return chunks


@dataclass(frozen=True)
class FaultChunkSpec:
    """One contiguous chunk of planned trials as a picklable
    :func:`repro.harness.parallel.run_specs` cell, so fault campaigns
    ride the same retry/backoff/journal machinery as every other
    batch. All fields are dataclasses or scalars — the chunk's content
    hash (journal key) covers the full trial identity including the
    golden registers and budget."""

    workload: str
    machine: str
    run_cfg: object           # DiAGConfig | OoOConfig (picklable)
    scale: float
    specs: tuple              # planned FaultSpecs, plan order
    budget: int
    gold_x: tuple
    gold_f: tuple
    chunk_index: int

    def execute(self):
        return _trial_chunk(self.workload, self.machine, self.run_cfg,
                            self.scale, list(self.specs), self.budget,
                            list(self.gold_x), list(self.gold_f))

    def failure_record(self, status, error, failure_class):
        """A chunk the harness gave up on yields no synthetic trials —
        returning None makes :func:`_classify_pooled` re-classify it
        in-process (the engine's own watchdogs bound that run), so a
        campaign never reports fabricated outcomes."""
        warnings.warn(f"fault chunk {self.chunk_index} of "
                      f"{self.workload} {status} ({error}); "
                      "re-classifying in-process")
        return None


def _classify_pooled(workload, machine, run_cfg, scale, specs, budget,
                     gold_x, gold_f, jobs, journal=None, resume=False,
                     progress=None):
    """Shard trial classification across :func:`run_specs` (retry with
    backoff, pool rebuild, journaled resume); any chunk the harness
    still could not produce is re-classified serially in-process."""
    from repro.harness.parallel import run_specs

    chunks = _chunked(specs, jobs)
    cells = [FaultChunkSpec(workload=workload, machine=machine,
                            run_cfg=run_cfg, scale=scale,
                            specs=tuple(chunk), budget=budget,
                            gold_x=tuple(gold_x), gold_f=tuple(gold_f),
                            chunk_index=index)
             for index, chunk in enumerate(chunks)]
    results = run_specs(cells, jobs=jobs, journal=journal,
                        resume=resume, progress=progress)
    for index, chunk_result in enumerate(results):
        if chunk_result is None:
            results[index] = _trial_chunk(
                workload, machine, run_cfg, scale, chunks[index],
                budget, gold_x, gold_f)
    return [trial for chunk_result in results for trial in chunk_result]


def run_campaign(workload, machine="diag", config="F4C2", scale=0.25,
                 trials=20, seed=0, watchdog_window=None, jobs=None,
                 journal=None, resume=False, progress=None):
    """Run a full injection campaign; returns a :class:`CampaignReport`.

    ``config`` names a preset of ``machine``; a preset of another
    machine (the DiAG default ``F4C2`` on ``machine="ooo"``) means
    this machine's default. The per-trial cycle budget is 4x the
    fault-free run (plus slack) so hangs and runaways terminate
    quickly; ``watchdog_window`` defaults to the clean cycle count plus
    slack, which no fault-free quiet period can approach. ``jobs`` > 1
    (or ``REPRO_JOBS``) shards the trials across worker processes; the
    report is identical to the serial one, in the same trial order.
    ``journal``/``resume`` journal completed trial chunks for
    crash-safe resumption; the chunking depends on ``jobs``, so resume
    with the same ``--jobs`` (docs/RESILIENCE.md). ``progress`` (a
    :class:`repro.obs.progress.ProgressRenderer`) tracks the pooled
    path live; chunks — the journal's unit of work — are its cells.
    """
    entry = machines.get(machine)
    cls = get_workload(workload)
    inst = cls().build(scale=scale, threads=1, simt=False)
    program = inst.program
    gold_x, gold_f = _golden(program, inst)

    # Fault-free profiling run: learns the per-site event population
    # and the cycle budget, and proves the baseline is sound.
    base_cfg = entry.engine_config(config)
    profiler = FaultInjector(spec=None)
    stats, memory, x, f = _execute(
        machine, base_cfg, program, inst, profiler, None)
    clean_cycles = stats["core.cycles"]
    if not stats["sim.halted"]:
        raise CampaignError(
            f"fault-free {machine} run did not halt "
            f"({clean_cycles} cycles)")
    if not inst.verify(memory) or x[1:] != gold_x[1:] or f != gold_f:
        raise CampaignError(
            f"fault-free {machine} run diverged from the ISS")

    window = watchdog_window if watchdog_window is not None \
        else clean_cycles + 1000
    run_cfg = replace(base_cfg, watchdog_window=window)
    budget = 4 * clean_cycles + 2000

    sites = entry.fault_sites
    population = {site: profiler.counts.get(site, 0) for site in sites}
    specs = plan_campaign(population, sites, trials, seed)

    report = CampaignReport(workload=workload, machine=machine,
                            config=base_cfg.name, scale=scale, seed=seed,
                            clean_cycles=clean_cycles,
                            clean_retired=stats["core.instructions"],
                            site_population=population)
    from repro.harness.parallel import resolve_jobs
    from repro.obs import telemetry
    jobs = resolve_jobs(jobs)
    telemetry.emit("plan", kind="faults", workload=workload,
                   machine=machine, trials=len(specs), seed=seed,
                   clean_cycles=int(clean_cycles),
                   sites={site: int(count)
                          for site, count in population.items()})
    if (jobs > 1 and len(specs) > 1) or journal or progress:
        report.trials.extend(_classify_pooled(
            workload, machine, run_cfg, scale, specs, budget,
            gold_x, gold_f, jobs, journal=journal, resume=resume,
            progress=progress))
    else:
        for spec in specs:
            report.trials.append(_classify(machine, run_cfg, program,
                                           inst, spec, budget,
                                           gold_x, gold_f))
    return report
