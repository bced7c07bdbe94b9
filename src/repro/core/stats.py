"""Statistics: stall taxonomy and utilization counters.

The stall classification mirrors Section 7.3.2 of the paper, which
attributes stalled cycles to three sources: memory (73.6 %), control flow
changes (21.1 %), and other/structural (5.3 %). We count, each cycle in
which the ring retires nothing, the reason the *head* instruction is
stalled ("we only count the source of stalls, not dependent
instructions that are subsequently stalled").
"""

import enum
from dataclasses import dataclass, field, fields


class StallReason(enum.Enum):
    MEMORY = "memory"       # cache misses, LSU queue, busy banks
    CONTROL = "control"     # flushes, line reload after branch
    STRUCTURAL = "other"    # bus busy, no free cluster, shared FU


class CoreStats:
    """Behaviour shared by both engines' stats dataclasses: the stall
    taxonomy and the field-driven merge across rings or cores."""

    def stall(self, reason, cycles=1):
        self.stall_cycles[reason] = self.stall_cycles.get(reason, 0) + cycles

    @property
    def total_stalls(self):
        return sum(self.stall_cycles.values())

    @property
    def ipc(self):
        return self.retired / self.cycles if self.cycles else 0.0

    def stall_fractions(self):
        """{reason: fraction of all stall cycles}; empty dict if none."""
        total = self.total_stalls
        if not total:
            return {}
        return {reason: count / total
                for reason, count in self.stall_cycles.items()}

    def merge(self, other):
        """Accumulate another unit's counters into this one: counters
        add, ``cycles`` takes the max (units run in lockstep) and the
        stall taxonomy adds reason by reason."""
        for f in fields(self):
            name = f.name
            value = getattr(other, name)
            if name == "cycles":
                self.cycles = max(self.cycles, value)
            elif name == "stall_cycles":
                for reason, count in value.items():
                    self.stall(reason, count)
            else:
                setattr(self, name, getattr(self, name) + value)


@dataclass
class RingStats(CoreStats):
    """Counters for one dataflow ring."""

    cycles: int = 0
    retired: int = 0
    disabled_slots: int = 0      # PEs occupied by PC-mismatch instructions
    squashed: int = 0
    lines_fetched: int = 0
    reuse_hits: int = 0          # backward branches resolved by reuse
    reuse_misses: int = 0        # backward branches that reloaded a line
    branches: int = 0
    taken_branches: int = 0
    mispredicts: int = 0
    simt_regions: int = 0
    simt_threads: int = 0
    simt_insts: int = 0
    loads: int = 0
    stores: int = 0
    store_forwards: int = 0
    stall_cycles: dict = field(default_factory=dict)

    # per-cycle utilization sums for the energy model
    pe_active_cycles: int = 0     # PE executing (any op)
    fpu_active_cycles: int = 0    # PE executing an FP op
    resident_cluster_cycles: int = 0  # clusters powered (lanes + ctrl)
