"""Liveness watchdogs: turn silent livelocks into structured errors.

Both engines (the DiAG ring and the OoO baseline) previously spun to
``max_cycles`` on a livelock — a window head waiting on a producer that
never completes, or a front end re-arming the same line forever — and
the only symptom was a huge cycle count with ``halted=False``. The
watchdog tracks *retirement* progress: if no instruction retires for
``watchdog_window`` consecutive cycles (and the engine is not inside a
pre-scheduled SIMT region, whose finish cycle is known), the engine
raises :class:`SimulationHang` carrying a head-state dump instead of
exhausting the budget.

Only retirement counts as progress on purpose: an architecturally
infinite loop *retires* forever and is therefore not a hang — it runs
to the cycle budget and is reported as ``timed_out``, a different
failure class (see ``repro.harness.runner``).
"""


class SimulationHang(RuntimeError):
    """No forward progress for a full watchdog window.

    Attributes:
        machine: ``"diag"`` or ``"ooo"``.
        cycle: cycle at which the watchdog fired.
        last_progress_cycle: last cycle an instruction retired.
        window: the configured quiet window, in cycles.
        head_state: dict dump of the engine's head-of-window state.
    """

    def __init__(self, machine, cycle, last_progress_cycle, window,
                 head_state):
        self.machine = machine
        self.cycle = cycle
        self.last_progress_cycle = last_progress_cycle
        self.window = window
        self.head_state = dict(head_state)
        detail = ", ".join(f"{k}={v}" for k, v in self.head_state.items())
        super().__init__(
            f"{machine}: no retirement for {window} cycles "
            f"(cycle {cycle}, last progress at {last_progress_cycle}); "
            f"head state: {detail}")


class ProgressWatchdog:
    """No-retirement progress counter shared by both engines.

    ``check`` is called once per cycle by ``repro.core.clock.drive`` (not
    from ``step``, so manual single-steppers are never interrupted).
    ``marker`` is any value that changes when the engine makes forward
    progress — both engines pass their retired-instruction count.
    A ``window`` of 0 (or None) disables the watchdog.
    """

    def __init__(self, window):
        self.window = window or 0
        self._last_marker = None
        self._last_progress_cycle = 0

    def deadline(self):
        """The cycle at which :meth:`check` would raise if no further
        progress is recorded, or None when the watchdog is disabled.
        The fast-forward scheduler caps every skip at ``deadline() - 1``
        so a hang fires at the identical simulated cycle either way."""
        if self.window <= 0:
            return None
        return self._last_progress_cycle + self.window

    def feed(self, cycle, marker):
        """Record externally-known progress at ``cycle``.

        Used when the fast-forward scheduler jumps over a span whose
        per-cycle checks would all have passed ``progressing=True`` (a
        pre-scheduled SIMT region): the skipped checks would have moved
        the progress marker to ``cycle``, so this does it in one call."""
        self._last_marker = marker
        self._last_progress_cycle = cycle

    def check(self, machine, cycle, marker, dump, progressing=False):
        """Record progress; raise :class:`SimulationHang` on a full
        quiet window. ``dump`` is a zero-argument callable returning the
        head-state dict (only invoked when the watchdog fires);
        ``progressing`` marks cycles that are known-productive without
        retiring (an active SIMT region)."""
        if self.window <= 0:
            return
        if progressing or marker != self._last_marker:
            self._last_marker = marker
            self._last_progress_cycle = cycle
            return
        if cycle - self._last_progress_cycle >= self.window:
            raise SimulationHang(machine, cycle,
                                 self._last_progress_cycle,
                                 self.window, dump())
