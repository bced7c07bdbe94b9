"""Top-level DiAG processor: dataflow rings + shared memory hierarchy.

Paper Section 5.1: a DiAG processor is organized as dataflow rings
(each the analogue of a CPU core), each containing processing clusters
of PEs. Multi-threaded runs allocate one ring per software thread (the
"16-by-2 format" of Section 7.2.1: each thread gets a ring with
``num_clusters`` clusters to alternate between); all rings share the
banked L1D / L2 hierarchy, so inter-thread memory contention is
modelled through the shared bank/bus timing state.
"""

from dataclasses import dataclass, field

from repro.checkpoint import Checkpointable
from repro.core.clock import drive
from repro.core.lanes import ArchLanes
from repro.core.ring import RingEngine
from repro.core.stats import RingStats
from repro.memory.hierarchy import MemoryHierarchy


@dataclass
class DiAGResult:
    """Outcome of one DiAG run."""

    cycles: int = 0
    stats: RingStats = field(default_factory=RingStats)
    ring_stats: list = field(default_factory=list)
    halted: bool = False
    #: True when the run stopped on the cycle budget rather than a halt
    timed_out: bool = False
    halt_reasons: list = field(default_factory=list)

    @property
    def instructions(self):
        return self.stats.retired

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0


class DiAGProcessor(Checkpointable):
    """A DiAG processor instance executing one program.

    Checkpoints (``save_state``/``restore_state``) capture the rings,
    lanes, shared hierarchy, memory and stats in one snapshot;
    :meth:`run` then continues exactly where the snapshot stopped."""

    def __init__(self, config, program, num_threads=1, thread_regs=None,
                 hierarchy=None, tracer=None):
        """``thread_regs``: optional per-thread {reg_index: value} seeds.

        By default thread ``t`` starts with a0 = t and a1 = num_threads
        (the SPMD convention all multi-threaded workloads use) and a
        private 64 KiB stack carved below the shared stack top.
        ``tracer``: optional :class:`repro.obs.EventTracer` shared by
        every ring (ring ``t`` emits on trace thread-track ``t``).
        """
        self.config = config
        self.program = program
        self.num_threads = num_threads
        self.tracer = tracer
        self.hierarchy = hierarchy if hierarchy is not None \
            else MemoryHierarchy(config.hierarchy_config())
        program.load_into(self.hierarchy.memory)
        self.rings = []
        for tid in range(num_threads):
            arch = ArchLanes.spmd(tid, num_threads, thread_regs)
            ring = RingEngine(config, self.hierarchy, program,
                              arch=arch, ring_id=tid)
            ring.tracer = tracer
            self.rings.append(ring)

    @property
    def memory(self):
        return self.hierarchy.memory

    def run(self, max_cycles=None):
        """Run all rings in lockstep until every thread halts.

        The cycle budget is *absolute*: a processor restored from a
        checkpoint at cycle N continues toward the same budget an
        uninterrupted run would have had, so split runs and whole runs
        retire identical schedules (tests/test_checkpoint.py).

        Raises :class:`repro.core.watchdog.SimulationHang` if any ring
        stops retiring for ``config.watchdog_window`` cycles."""
        drive(self.rings, max_cycles)
        return self._collect()

    def _collect(self):
        result = DiAGResult()
        for ring in self.rings:
            result.stats.merge(ring.stats)
            result.ring_stats.append(ring.stats)
            result.halt_reasons.append(ring.halt_reason)
        result.cycles = max((r.cycle for r in self.rings), default=0)
        result.halted = all(r.halted for r in self.rings)
        result.timed_out = not result.halted
        return result


def run_program(program, config, num_threads=1, thread_regs=None,
                max_cycles=None):
    """Convenience wrapper: build a processor, run, return the result.

    The result also exposes the processor (``result.processor``) so
    callers can inspect memory and cache statistics.
    """
    processor = DiAGProcessor(config, program, num_threads=num_threads,
                              thread_regs=thread_regs)
    result = processor.run(max_cycles=max_cycles)
    result.processor = processor
    return result
