"""Register lanes: DiAG's replacement for the register file / ROB.

Paper Section 4.1: every architectural register is a lane (a wire
bundle with a value and a valid bit) flowing across the PEs. A PE's
write changes the lane only for *subsequent* PEs, which is what makes
WAR/WAW hazards vanish (Section 4.2) — the window machine in
:mod:`repro.core.ring` realizes this by linking each reader to the
youngest older writer of its lane.

This module provides the two timing/state pieces of that abstraction:

* :class:`ArchLanes` — the committed lane values entering the window
  (the "register file" a freshly armed cluster sees), covering both the
  integer and floating-point lane sets.
* :func:`lane_delay` — propagation delay between two PE positions,
  reproducing Section 6.1.2: lanes pass through a 2-input MUX per PE
  and a full register buffer every ``buffer_every`` PEs, and a buffer
  between clusters; at the 2 GHz simulation frequency a value crossing
  a segment or cluster boundary costs one extra cycle.
"""

MASK32 = 0xFFFFFFFF


class ArchLanes:
    """Committed architectural lane values (integer 'x' + FP 'f')."""

    STACK_TOP = 0x7FFFF0
    #: private stack carved below STACK_TOP for each SPMD thread
    STACK_BYTES_PER_THREAD = 64 * 1024

    def __init__(self):
        self.x = [0] * 32
        self.f = [0] * 32
        self.x[2] = self.STACK_TOP  # sp

    @classmethod
    def spmd(cls, tid, num_threads, thread_regs=None):
        """Entry lanes of SPMD thread ``tid`` of ``num_threads``: a0 =
        tid, a1 = num_threads (the convention every multi-threaded
        workload uses) and a private stack below the shared stack top.
        ``thread_regs`` is an optional per-thread list of
        ``{reg_index: value}`` seeds applied on top."""
        arch = cls()
        arch.x[2] = cls.STACK_TOP - tid * cls.STACK_BYTES_PER_THREAD
        arch.x[10] = tid
        arch.x[11] = num_threads
        if thread_regs is not None and tid < len(thread_regs):
            for reg, value in thread_regs[tid].items():
                arch.x[reg] = value & MASK32
        return arch

    def read(self, regfile, index):
        bank = self.f if regfile == "f" else self.x
        return bank[index]

    def write(self, regfile, index, value):
        if regfile == "x":
            if index == 0:
                return
            self.x[index] = value & MASK32
        else:
            self.f[index] = value & MASK32

    def copy(self):
        clone = ArchLanes.__new__(ArchLanes)
        clone.x = list(self.x)
        clone.f = list(self.f)
        return clone

    def as_dict(self):
        return {("x", i): v for i, v in enumerate(self.x)} | \
               {("f", i): v for i, v in enumerate(self.f)}


def lane_delay(producer_pos, consumer_pos, pes_per_cluster,
               buffer_every, inter_cluster_delay):
    """Cycles for a lane value to travel between two PE positions.

    Positions are (activation_seq, pe_index) with activation_seq
    increasing along the (possibly re-activated) cluster chain. The
    producer's result is never visible earlier than the next cycle.
    """
    prod_act, prod_pe = producer_pos
    cons_act, cons_pe = consumer_pos
    if cons_act < prod_act or (cons_act == prod_act and cons_pe <= prod_pe):
        raise ValueError("lane values only flow forward in program order")
    if prod_act == cons_act:
        segments = cons_pe // buffer_every - prod_pe // buffer_every
        return 1 + segments
    last_segment = (pes_per_cluster - 1) // buffer_every
    segments_out = last_segment - prod_pe // buffer_every
    segments_in = cons_pe // buffer_every
    boundaries = cons_act - prod_act
    return (1 + segments_out + segments_in
            + boundaries * inter_cluster_delay)
