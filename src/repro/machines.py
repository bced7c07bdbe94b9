"""The machine registry: the one place that knows what a machine is.

Every DiAG result pairs the DiAG dataflow ring with the out-of-order
baseline on one workload. What each layer needs to know about a
machine — config presets and how overrides apply, how to build its
engine (full run, multi-thread, sampled window, lockstep, fault
trial), its energy model, stats collector, trace tracks, fault sites
and SIMT capability — lives on its :class:`Machine` entry in
:data:`MACHINES`. Callers look a name up with :func:`get` and never
branch on it, so a new machine variant is one new entry here.
"""

import dataclasses
from collections import namedtuple

from repro.baseline import (
    BaselinePowerModel,
    MulticoreCPU,
    OoOConfig,
    OoOCore,
)
from repro.core import CONFIG_PRESETS, DiAGProcessor, EnergyModel
from repro.core.ring import RingEngine
from repro.obs import collect_diag, collect_ooo

#: a built full run: ``runner.run(max_cycles=)`` drives it; ``units``
#: are the rings or cores (arch state, fast-forward counters)
Sim = namedtuple("Sim", "runner memory hierarchies units")


class Machine:
    """One registered machine. Subclasses set the class data and
    implement ``build(cfg, program, threads=1, tracer=None)`` -> a
    :class:`Sim`, ``window_engine(cfg, program, hierarchy, arch,
    clone)`` -> a warm-started single-thread engine, and
    ``energy(cfg, result, hierarchies)`` -> an energy report."""

    name = None
    presets = {}              # preset name -> config object
    default_preset = None
    simt = False              # executes SIMT regions as SIMT
    collector = None          # its stats collector (a repro.obs function)
    fault_sites = ()          # injection sites of fault campaigns
    track_pid = 0             # Chrome-trace process id ...
    track_label = None        # ... and per-thread track label prefix
    reference = False         # the machine speedups are measured against
    title = "{config}"        # row label in ``repro run``

    def config(self, preset=None, overrides=()):
        """The config for ``preset`` (the default when None) with
        ``overrides`` (a mapping or ``(knob, value)`` pairs) applied.
        An unknown preset or knob raises ``ValueError``."""
        preset = self.default_preset if preset is None else preset
        base = self.presets.get(preset) if isinstance(preset, str) \
            else None
        if base is None:
            raise ValueError(f"unknown {self.name} config {preset!r}; "
                             f"one of: {', '.join(self.presets)}")
        overrides = dict(overrides)
        unknown = sorted(set(overrides)
                         - {f.name for f in dataclasses.fields(base)})
        if unknown:
            raise ValueError(f"unknown {self.name} config knob(s): "
                             f"{', '.join(unknown)}")
        return dataclasses.replace(base, **overrides) if overrides \
            else base

    def describe(self, cfg):
        """``(preset, overrides)`` naming a config object — the inverse
        of :meth:`config`, so a hand-built config becomes a plain spec."""
        preset = cfg.name if cfg.name in self.presets \
            else self.default_preset
        base = self.presets[preset]
        return preset, tuple(sorted(
            (f.name, getattr(cfg, f.name))
            for f in dataclasses.fields(cfg)
            if getattr(cfg, f.name) != getattr(base, f.name)))

    def preset_for(self, name):
        """``name`` if it is one of this machine's presets; None (the
        default) for another :data:`CONFIG_AXIS` preset, since
        campaign cells and CLI flags name one DiAG preset for every
        machine they cover. Any other name raises ``ValueError``."""
        if name is None or name in self.presets:
            return name
        if name in CONFIG_AXIS:
            return None
        raise ValueError(f"unknown {self.name} config {name!r}")

    def engine_config(self, config=None, **overrides):
        """Resolve a lockstep or fault-campaign ``config``: a config
        object of this machine, or a preset name (:meth:`preset_for`),
        with ``overrides`` applied."""
        if config is None or isinstance(config, str):
            return self.config(self.preset_for(config), overrides)
        return dataclasses.replace(config, **overrides)

    def extra(self, result):
        """Engine-specific counters for ``RunRecord.extra``."""
        return {"mispredicts": result.stats.mispredicts}

    def label_tracks(self, tracer, threads=1):
        """Name this machine's process and thread tracks in a trace."""
        tracer.set_process(self.track_pid, self.name)
        for tid in range(threads):
            tracer.set_thread(self.track_pid, tid,
                              f"{self.track_label}{tid}")


class DiAG(Machine):
    """The DiAG dataflow ring (paper Sections 4-6, Table 2 presets)."""

    name = "diag"
    presets = CONFIG_PRESETS
    default_preset = "F4C32"
    simt = True
    collector = staticmethod(collect_diag)
    fault_sites = ("pe", "lane", "cache")
    track_pid = 0
    track_label = "ring"
    title = "DiAG {config:5s}"

    def build(self, cfg, program, threads=1, tracer=None):
        proc = DiAGProcessor(cfg, program, num_threads=threads,
                             tracer=tracer)
        return Sim(proc, proc.memory, [proc.hierarchy], proc.rings)

    def window_engine(self, cfg, program, hierarchy, arch, clone):
        # the ring has no branch predictor: its long-history state is
        # the cache hierarchy alone
        return RingEngine(cfg, hierarchy, program, entry_pc=clone.pc,
                          arch=arch)

    def energy(self, cfg, result, hierarchies):
        return EnergyModel(cfg).energy_report(result, hierarchies[0])

    def extra(self, result):
        stats = result.stats
        return {"reuse_hits": stats.reuse_hits,
                "lines_fetched": stats.lines_fetched,
                "mispredicts": stats.mispredicts,
                "simt_regions": stats.simt_regions,
                "simt_threads": stats.simt_threads}


class OoO(Machine):
    """The out-of-order baseline (paper Section 7.1); a multicore when
    the run has more than one thread."""

    name = "ooo"
    presets = {"ooo8": OoOConfig()}
    default_preset = "ooo8"
    collector = staticmethod(collect_ooo)
    fault_sites = ("rob", "regfile", "cache")
    track_pid = 1
    track_label = "core"
    reference = True
    title = "baseline "

    def build(self, cfg, program, threads=1, tracer=None):
        if threads == 1:
            core = OoOCore(cfg, program)
            sim = Sim(core, core.hierarchy.memory, [core.hierarchy],
                      [core])
        else:
            cpu = MulticoreCPU(cfg, program, threads)
            sim = Sim(cpu, cpu.memory, [c.hierarchy for c in cpu.cores],
                      cpu.cores)
        if tracer is not None:
            for core in sim.units:
                core.tracer = tracer
        return sim

    def window_engine(self, cfg, program, hierarchy, arch, clone):
        engine = OoOCore(cfg, program, hierarchy=hierarchy, arch=arch,
                         load_image=False, entry_pc=clone.pc)
        warm = getattr(clone, "warm_trace", None)
        if warm is not None:
            # a cold front end biases branch-heavy windows the way
            # cold caches do: hand the core the trained state
            engine.predictor = warm.predictor_copy()
            engine.btb = dict(warm.btb)
            engine.ras = list(warm.ras)
        return engine

    def energy(self, cfg, result, hierarchies):
        return BaselinePowerModel(
            cfg, num_cores=len(hierarchies)).energy_report(
                result, hierarchies)


#: every registered machine by name, in presentation order
MACHINES = {m.name: m for m in (DiAG(), OoO())}
NAMES = tuple(MACHINES)
#: the presets a ``--config`` flag or a campaign cell may name: DiAG's
#: Table 2 presets; a machine without the named one runs its default
CONFIG_AXIS = tuple(MACHINES["diag"].presets)


def get(name):
    """The :class:`Machine` registered as ``name``; ``ValueError`` for
    an unknown name."""
    machine = MACHINES.get(name) if isinstance(name, str) else None
    if machine is None:
        raise ValueError(f"unknown machine {name!r}; one of: "
                         f"{', '.join(NAMES)}")
    return machine


def select(choice):
    """The machine names a CLI ``--machine`` value covers: one name,
    or ``"both"``."""
    return NAMES if choice == "both" else (get(choice).name,)
