"""One clock for both engines: the cycle driver and the fast-forward
contract.

A *unit* is one DiAG ring or one out-of-order core. :func:`drive` is
the only cycle loop in the simulator: ``RingEngine.run`` and
``OoOCore.run`` drive a group of one, ``DiAGProcessor.run`` and
``MulticoreCPU.run`` a group of rings or cores sharing one memory
system. :class:`ClockedUnit` is the base both engines share: the state
the driver reads (``cycle``, ``halted``, the progress watchdog and the
observation hooks), the liveness check, and the fast-forward contract
of docs/PERFORMANCE.md §2. An engine supplies only its
microarchitecture: ``step()``, ``head_state()``, ``quiescent()`` and
the ``_ff_*`` hooks named below.
"""

from repro.core.watchdog import ProgressWatchdog


class ClockedUnit:
    """One clocked unit: the driver-facing half of an engine.

    Subclasses implement ``step()`` (advance one cycle, bumping
    ``cycle`` and ``stats.cycles``), ``head_state()`` (the hang-report
    dump), ``quiescent()``, ``_ff_purge_heaps()``, ``_ff_events()`` and
    ``_ff_account(span)``; an engine with pre-scheduled regions also
    overrides :meth:`in_region` and ``_ff_region_target(budget)``."""

    #: machine name carried by :class:`repro.core.watchdog.SimulationHang`
    machine = None

    #: Smallest span worth skipping: the quiescence analysis (heap
    #: scans, stall classification, batched census) costs about as much
    #: as stepping a few no-op cycles, so short skips are a net loss.
    #: Any value is cycle-exact — skips only cover provably no-op steps.
    FF_MIN_SPAN = 4

    def __init__(self, config):
        self.config = config
        self.cycle = 0
        self.halted = False
        self.halt_reason = None
        self.watchdog = ProgressWatchdog(
            getattr(config, "watchdog_window", 0))
        #: optional callable(addr, instr) invoked at each retirement,
        #: in program order (test/trace hook)
        self.retire_hook = None
        #: optional callable(entry) invoked right after ``_commit``
        #: applies an entry's architectural effects (repro.verify
        #: lockstep). Retirements never occur inside a fast-forward
        #: span, so this hook is FF-safe and deliberately absent from
        #: :meth:`ff_setup`.
        self.commit_hook = None
        #: optional FaultInjector (repro.faults), routed through at each
        #: of the engine's value-producing sites
        self.fault_hook = None
        #: optional repro.obs.EventTracer; every emission site is
        #: guarded by a None check so disabled tracing stays free
        self.tracer = None
        #: fast-forward bookkeeping (diagnostics, not exported to stats:
        #: the stats document must be identical with skipping off)
        self.ff_skips = 0
        self.ff_skipped_cycles = 0

    # ----------------------------------------------------------- liveness

    def in_region(self):
        """True inside a pre-scheduled region (a pipelined SIMT region
        on the ring): its finish cycle is known, every cycle of it
        counts as progress, and a retired-budget pause must not land
        inside it. Units without such regions never are."""
        return False

    def check_watchdog(self):
        """Raise SimulationHang if the unit has stopped retiring."""
        if self.halted:
            return
        self.watchdog.check(self.machine, self.cycle, self.stats.retired,
                            self.head_state,
                            progressing=self.in_region())

    # ------------------------------------------------------- fast-forward
    #
    # Event-driven cycle skipping (docs/PERFORMANCE.md). A cycle is
    # *quiescent* when a step would change nothing but the per-cycle
    # accounting: every in-flight operation finishes at a known future
    # cycle and nothing can move before the earliest of them. Skipping
    # then jumps the clock straight to that event and credits the span
    # in one batch, so the final stats document is byte-identical to
    # ticking.

    def ff_setup(self):
        """Decide once per run whether fast-forward may engage.

        Per-cycle observers force skip-off: an event tracer or a
        PipeTracer samples stepped state, a fault injector counts
        value-production sites against its trigger, and a disabled
        watchdog (window 0) leaves no deadline to cap skips against."""
        return bool(self.config.fast_forward
                    and self.tracer is None
                    and self.fault_hook is None
                    and getattr(self, "_pipetracer", None) is None
                    and self.watchdog.window > 0)

    def ff_target(self, budget):
        """The cycle to jump to, or None when skipping is not possible.

        Caps at the budget and at ``watchdog.deadline() - 1`` so budget
        exhaustion and SimulationHang occur at the identical simulated
        cycle as ticked execution (the step at deadline-1 runs normally
        and its check raises with cycle == deadline). The event bound
        is computed *before* the quiescence analysis: most attempts die
        on the cheap FF_MIN_SPAN pre-filter without paying for the deep
        checks (purging first only pushes heap heads later, so the
        bound never rejects a span the purged state would allow)."""
        if self.in_region():
            return self._ff_region_target(budget)
        now = self.cycle
        self._ff_purge_heaps()
        target = min(self._ff_events(), default=budget)
        if target > budget:
            target = budget
        deadline = self.watchdog.deadline()
        if deadline is not None and target > deadline - 1:
            target = deadline - 1
        if target - now < self.FF_MIN_SPAN:
            return None
        if not self.quiescent():
            return None
        return target

    def ff_skip_to(self, target):
        """Jump the clock to ``target``, batch-accounting the span."""
        span = target - self.cycle
        if span <= 0:
            return
        self._ff_account(span)
        self.ff_skips += 1
        self.ff_skipped_cycles += span
        self.cycle = target
        self.stats.cycles = target


def _paused(units, max_retired):
    """The retired-budget pause: the group has retired ``max_retired``
    and no unit is inside a pre-scheduled region (a region credits its
    instructions up front while its cycles elapse, so pausing inside
    one would pair credited instructions with missing cycles)."""
    return (sum(unit.stats.retired for unit in units) >= max_retired
            and not any(unit.in_region() for unit in units))


def drive(units, max_cycles=None, max_retired=None):
    """Clock ``units`` in lockstep until every one halts, the cycle
    budget runs out, or the retired budget pauses them.

    Both budgets are *absolute*: ``max_cycles`` (default: the first
    unit's ``config.max_cycles``) bounds the units' own cycle counter,
    and ``max_retired`` the retired instructions summed over the group.
    A restored or paused group therefore continues toward the same
    budgets an uninterrupted run would have had, and already-halted
    units never step again.

    Each cycle steps every live unit and checks its watchdog (raising
    :class:`repro.core.watchdog.SimulationHang`), then drops halted
    units. With fast-forward on for every unit, the group then skips
    together to the earliest :meth:`ClockedUnit.ff_target` of any live
    unit: units interact solely through memory, which no quiescent
    unit touches before its next event."""
    ff = all(unit.ff_setup() for unit in units)
    live = [unit for unit in units if not unit.halted]
    if not live:
        return
    budget = max_cycles if max_cycles is not None \
        else units[0].config.max_cycles
    cycle = max(unit.cycle for unit in units)
    while cycle < budget:
        if max_retired is not None and _paused(units, max_retired):
            break
        halted = False
        for unit in live:
            unit.step()
            unit.check_watchdog()
            halted = halted or unit.halted
        cycle += 1
        if halted:
            live = [unit for unit in live if not unit.halted]
            if not live:
                break
        if ff:
            target = budget
            for unit in live:
                unit_target = unit.ff_target(budget)
                if unit_target is None:
                    break
                if unit_target < target:
                    target = unit_target
            else:
                for unit in live:
                    unit.ff_skip_to(target)
                cycle = target
