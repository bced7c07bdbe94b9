"""Fast-forward (event-driven cycle skipping) equivalence contract.

``fast_forward`` is a host-speed optimisation only: every simulated
outcome — final stats document, cycle count, energy, and even the
cycle at which the hang watchdog fires — must be byte-identical with
skipping on or off. See docs/PERFORMANCE.md for the invariant.
"""

import ast
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.baseline import MulticoreCPU, OoOConfig, OoOCore
from repro.core import F4C2, DiAGProcessor, SimulationHang, clock
from repro.harness import run_baseline, run_diag
from repro.obs import deterministic_view

WORKLOADS = ("nn", "bfs", "hotspot")

#: (workload, threads) cells: every workload on one unit, plus two-unit
#: groups, which fast-forward only together (repro.core.clock.drive)
CELLS = [pytest.param(w, 1, id=w) for w in WORKLOADS] \
    + [pytest.param(w, 2, id=f"{w}-t2") for w in ("nn", "hotspot")]

# Same shape as tests/test_faults.py: jumps into zero words, which
# never decode, so the machine spins without retiring anything.
LIVELOCK_SRC = """
    j hole
    ebreak
    .data
    hole: .word 0, 0, 0, 0
"""


def _assert_equivalent(on, off):
    assert on.status == off.status
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions
    assert on.energy_j == off.energy_j
    assert deterministic_view(on.stats) == deterministic_view(off.stats)


@pytest.mark.parametrize("simt", (False, True), ids=("seq", "simt"))
@pytest.mark.parametrize("workload,threads", CELLS)
def test_diag_ff_matches_ticked(workload, threads, simt):
    on = run_diag(workload, config="F4C2", scale=0.5, threads=threads,
                  simt=simt)
    off = run_diag(workload, config="F4C2", scale=0.5, threads=threads,
                   simt=simt, config_overrides={"fast_forward": False})
    assert on.status == "ok" and on.verified
    _assert_equivalent(on, off)


@pytest.mark.parametrize("workload,threads", CELLS)
def test_ooo_ff_matches_ticked(workload, threads):
    on = run_baseline(workload, scale=0.5, threads=threads)
    off = run_baseline(workload, scale=0.5, threads=threads,
                       config=OoOConfig(fast_forward=False))
    assert on.status == "ok" and on.verified
    _assert_equivalent(on, off)


class TestSkipsActuallyHappen:
    """Guard against the optimisation silently disabling itself."""

    SRC = """
        li t0, 0
        li t1, 200
    loop:
        lw t2, 0(s0)
        addi t0, t0, 1
        blt t0, t1, loop
        ebreak
        .data
        buf: .word 7
    """

    def test_diag_ring_skips(self):
        program = assemble("la s0, buf\n" + self.SRC)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run()
        assert result.halted
        assert sum(r.ff_skipped_cycles for r in proc.rings) > 0

    def test_ooo_core_skips(self):
        program = assemble("la s0, buf\n" + self.SRC)
        core = OoOCore(OoOConfig(), program)
        result = core.run()
        assert result.halted
        assert core.ff_skipped_cycles > 0

    # each thread chases zeros through its own lines, so both units
    # wait on the same kind of DRAM miss at about the same time
    GROUP_SRC = """
        la s0, buf
        slli t5, a0, 16
        add s0, s0, t5
        li t0, 0
        li t1, 64
    loop:
        lw t2, 0(s0)
        add s0, s0, t2
        addi s0, s0, 1024
        addi t0, t0, 1
        blt t0, t1, loop
        ebreak
        .data
        buf: .word 0
    """

    def test_two_ring_group_skips(self):
        proc = DiAGProcessor(F4C2, assemble(self.GROUP_SRC),
                             num_threads=2)
        result = proc.run()
        assert result.halted
        assert all(r.ff_skipped_cycles > 0 for r in proc.rings)

    def test_two_core_group_skips(self):
        cpu = MulticoreCPU(OoOConfig(), assemble(self.GROUP_SRC), 2)
        result = cpu.run()
        assert result.halted
        assert all(c.ff_skipped_cycles > 0 for c in cpu.cores)


class TestHangFiresAtIdenticalCycle:
    """The watchdog deadline caps every skip, so a genuine livelock is
    reported at the same simulated cycle with fast-forward on or off."""

    def _diag_hang(self, fast_forward):
        cfg = F4C2.with_overrides(watchdog_window=500,
                                  fast_forward=fast_forward)
        proc = DiAGProcessor(cfg, assemble(LIVELOCK_SRC))
        with pytest.raises(SimulationHang) as exc_info:
            proc.run(max_cycles=1_000_000)
        return exc_info.value

    def _ooo_hang(self, fast_forward):
        cfg = OoOConfig(watchdog_window=500, fast_forward=fast_forward)
        core = OoOCore(cfg, assemble(LIVELOCK_SRC))
        with pytest.raises(SimulationHang) as exc_info:
            core.run(max_cycles=1_000_000)
        return exc_info.value

    def test_diag(self):
        on, off = self._diag_hang(True), self._diag_hang(False)
        assert on.cycle == off.cycle
        assert on.last_progress_cycle == off.last_progress_cycle

    def test_ooo(self):
        on, off = self._ooo_hang(True), self._ooo_hang(False)
        assert on.cycle == off.cycle
        assert on.last_progress_cycle == off.last_progress_cycle


# ---------------------------------------------------------------------
# one clock: only the driver runs the fast-forward protocol
# ---------------------------------------------------------------------

FF_PROTOCOL = {"ff_setup", "ff_target", "ff_skip_to"}


def ff_call_sites(tree):
    """(line, name) of every call to a fast-forward protocol method."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name in FF_PROTOCOL:
                sites.append((node.lineno, name))
    return sites


def test_only_the_driver_runs_the_ff_protocol():
    src = Path(clock.__file__).resolve().parents[1]
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path == Path(clock.__file__).resolve():
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in ff_call_sites(tree):
            offenders.append(f"{path.relative_to(src)}:{line} {name}")
    assert not offenders, (
        "fast-forward protocol called outside repro.core.clock:\n"
        + "\n".join(offenders))


@pytest.mark.parametrize("source", [
    "ring.ff_target(budget)",
    "core.ff_skip_to(target)",
    "ff = self.ff_setup() and ff",
])
def test_ff_guard_catches_calls(source):
    assert ff_call_sites(ast.parse(source))
