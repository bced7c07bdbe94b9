"""Multicore wrapper: N out-of-order cores with private L1s, shared L2.

The paper's baseline is a 12-core 8-issue out-of-order CPU with 64 KB
L1s and a 4-8 MB unified L2 (Section 7.1). Cores run in lockstep; the
shared L2 and DRAM path carry cross-core contention. Threads follow
the same SPMD convention as DiAG rings (a0 = thread id, a1 = nthreads,
private stacks).
"""

from dataclasses import dataclass, field

from repro.baseline.ooo import OoOConfig, OoOCore, OoOStats
from repro.checkpoint import Checkpointable
from repro.core.clock import drive
from repro.core.lanes import ArchLanes
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.main_memory import MainMemory


def build_shared_hierarchies(config, num_cores):
    """Per-core hierarchies with private L1I/L1D over one shared L2."""
    memory = MainMemory()
    hcfg = config.hierarchy_config()
    shared_l2 = Cache("L2", hcfg.l2_size, hcfg.l2_ways, hcfg.line_bytes,
                      hcfg.timings.l2_hit, lower=None,
                      lower_latency=hcfg.timings.dram)
    hierarchies = []
    for __ in range(num_cores):
        hier = MemoryHierarchy(hcfg, memory=memory)
        hier.l2 = shared_l2
        hier.l1i.lower = shared_l2
        hier.l1d.lower = shared_l2
        hierarchies.append(hier)
    return memory, shared_l2, hierarchies


@dataclass
class MulticoreResult:
    cycles: int = 0
    stats: OoOStats = field(default_factory=OoOStats)
    core_stats: list = field(default_factory=list)
    halted: bool = False
    #: True when the run stopped on the cycle budget rather than a halt
    timed_out: bool = False

    @property
    def instructions(self):
        return self.stats.retired

    @property
    def ipc(self):
        return self.stats.retired / self.cycles if self.cycles else 0.0


class MulticoreCPU(Checkpointable):
    """N lockstep out-of-order cores sharing L2 and main memory.

    Checkpoints capture all cores plus the shared hierarchy and memory
    in one snapshot (docs/RESILIENCE.md)."""

    def __init__(self, config, program, num_cores, thread_regs=None):
        self.config = config
        self.program = program
        self.memory, self.shared_l2, hierarchies = \
            build_shared_hierarchies(config, num_cores)
        program.load_into(self.memory)
        self.cores = [
            OoOCore(config, program, hierarchy=hierarchies[tid],
                    arch=ArchLanes.spmd(tid, num_cores, thread_regs),
                    core_id=tid, load_image=False)
            for tid in range(num_cores)]

    def run(self, max_cycles=None):
        """Run all cores in lockstep until every thread halts; the
        cycle budget is absolute (see DiAGProcessor.run)."""
        drive(self.cores, max_cycles)
        return self._collect()

    def _collect(self):
        result = MulticoreResult()
        for core in self.cores:
            result.stats.merge(core.stats)
            result.core_stats.append(core.stats)
        result.cycles = result.stats.cycles
        result.halted = all(c.halted for c in self.cores)
        result.timed_out = not result.halted
        return result


def run_multicore(program, num_cores, config=None, thread_regs=None,
                  max_cycles=None):
    """Run ``program`` SPMD-style on ``num_cores`` baseline cores."""
    cpu = MulticoreCPU(config or OoOConfig(), program, num_cores,
                       thread_regs=thread_regs)
    result = cpu.run(max_cycles=max_cycles)
    result.cpu = cpu
    return result
