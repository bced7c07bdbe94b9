"""SIMT thread pipelining: functional equivalence + timing properties."""

from repro.asm import assemble
from repro.core import DiAGProcessor, F4C2, F4C16, F4C32
from repro.core.ring import RingEngine
from repro.iss import ISS
from repro.memory.hierarchy import MemoryHierarchy


def simt_program(n, body, setup="", data=".space 1024"):
    return f"""
    la   a2, out
    {setup}
    li   t2, 0
    li   t3, 1
    li   t4, {n}
    simt_s t2, t3, t4, 1
{body}
    simt_e t2, t4
    ebreak
    .data
    out: {data}
    """


SQUARES = """
    mul  t0, t2, t2
    slli t1, t2, 2
    add  t1, t1, a2
    sw   t0, 0(t1)
"""


def run_both(src, config):
    program = assemble(src)
    iss = ISS(program)
    iss.run()
    proc = DiAGProcessor(config, program)
    result = proc.run(max_cycles=1_000_000)
    assert result.halted
    return iss, proc, result


class TestFunctionalEquivalence:
    def test_squares_match_iss(self):
        src = simt_program(32, SQUARES)
        iss, proc, result = run_both(src, F4C16)
        out = iss.program.symbol("out")
        assert proc.memory.snapshot_words(out, 32) \
            == iss.memory.snapshot_words(out, 32)
        assert result.stats.simt_regions == 1
        assert result.stats.simt_threads == 32

    def test_rc_final_value_matches(self):
        src = simt_program(10, SQUARES) \
            .replace("ebreak", "sw t2, 512(a2)\nebreak")
        iss, proc, __ = run_both(src, F4C16)
        out = iss.program.symbol("out")
        assert proc.memory.read_word(out + 512) \
            == iss.memory.read_word(out + 512)

    def test_divergent_threads(self):
        body = """
    andi t0, t2, 1
    beqz t0, even_case
    li   t0, 111
    j    store_it
even_case:
    li   t0, 222
store_it:
    slli t1, t2, 2
    add  t1, t1, a2
    sw   t0, 0(t1)
"""
        src = simt_program(16, body)
        iss, proc, __ = run_both(src, F4C16)
        out = iss.program.symbol("out")
        expect = [222 if i % 2 == 0 else 111 for i in range(16)]
        assert proc.memory.snapshot_words(out, 16) == expect
        assert iss.memory.snapshot_words(out, 16) == expect

    def test_fp_region(self):
        body = """
    fcvt.s.w ft0, t2
    fmul.s ft1, ft0, ft0
    fsqrt.s ft2, ft1
    slli t1, t2, 2
    add  t1, t1, a2
    fsw  ft2, 0(t1)
"""
        src = simt_program(12, body)
        iss, proc, __ = run_both(src, F4C16)
        out = iss.program.symbol("out")
        assert proc.memory.read_bytes(out, 48) \
            == iss.memory.read_bytes(out, 48)

    def test_memory_loads_in_region(self):
        setup = "la a3, src_data"
        body = """
    slli t1, t2, 2
    add  t0, t1, a3
    lw   t0, 0(t0)
    slli t0, t0, 1
    add  t1, t1, a2
    sw   t0, 0(t1)
"""
        words = ", ".join(str(i * 3) for i in range(16))
        src = simt_program(16, body, setup=setup,
                           data=f".space 64\nsrc_data: .word {words}")
        iss, proc, __ = run_both(src, F4C16)
        out = iss.program.symbol("out")
        assert proc.memory.snapshot_words(out, 16) \
            == [i * 6 for i in range(16)]


class TestPipelineTiming:
    def test_scales_with_clusters(self):
        src = simt_program(256, SQUARES)
        program = assemble(src)
        cycles = {}
        for cfg in (F4C2, F4C16, F4C32):
            result = DiAGProcessor(cfg, program).run()
            assert result.halted
            cycles[cfg.name] = result.cycles
        assert cycles["F4C16"] < cycles["F4C2"]
        # saturates once copies exceed the interval bound (extra copies
        # only add pipeline-fill cost)
        assert cycles["F4C32"] <= cycles["F4C16"] * 1.10

    def test_simt_beats_sequential_on_big_config(self):
        src = simt_program(256, SQUARES)
        program = assemble(src)
        simt = DiAGProcessor(F4C32, program).run()
        seq = DiAGProcessor(
            F4C32.with_overrides(enable_simt=False), program).run()
        assert simt.halted and seq.halted
        assert simt.cycles < seq.cycles

    def test_interval_throttles_throughput(self):
        body = SQUARES
        fast_src = f"""
        la a2, out
        li t2, 0
        li t3, 1
        li t4, 64
        simt_s t2, t3, t4, 1
{body}
        simt_e t2, t4
        ebreak
        .data
        out: .space 512
        """
        slow_src = fast_src.replace("simt_s t2, t3, t4, 1",
                                    "simt_s t2, t3, t4, 20")
        fast = DiAGProcessor(F4C32, assemble(fast_src)).run()
        slow = DiAGProcessor(F4C32, assemble(slow_src)).run()
        assert slow.cycles > fast.cycles

    def test_simt_instructions_counted(self):
        src = simt_program(16, SQUARES)
        result = DiAGProcessor(F4C16, assemble(src)).run()
        assert result.stats.simt_insts >= 16 * 4


class TestFallback:
    def test_disabled_config_still_correct(self):
        src = simt_program(20, SQUARES)
        program = assemble(src)
        iss = ISS(program)
        iss.run()
        cfg = F4C16.with_overrides(enable_simt=False)
        proc = DiAGProcessor(cfg, program)
        result = proc.run()
        assert result.halted
        assert result.stats.simt_regions == 0
        out = program.symbol("out")
        assert proc.memory.snapshot_words(out, 20) \
            == iss.memory.snapshot_words(out, 20)

    def test_oversized_region_falls_back(self):
        # region body too large for F4C2's two clusters
        body = SQUARES + "".join(
            "    add s5, s5, t0\n    xor s5, s5, t1\n" for __ in range(20))
        src = simt_program(8, body)
        program = assemble(src)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run()
        assert result.halted
        assert result.stats.simt_regions == 0  # never pipelined
        iss = ISS(program)
        iss.run()
        out = program.symbol("out")
        assert proc.memory.snapshot_words(out, 8) \
            == iss.memory.snapshot_words(out, 8)

    def test_empty_slice_guard(self):
        # start >= end: region must execute zero iterations via the
        # guard branch (workload common.simt_loop pattern)
        src = """
        la a2, out
        li t2, 5
        li t4, 5
        bge t2, t4, skip
        li t3, 1
        simt_s t2, t3, t4, 1
        sw t2, 0(a2)
        simt_e t2, t4
        skip:
        ebreak
        .data
        out: .word 777
        """
        program = assemble(src)
        proc = DiAGProcessor(F4C16, program)
        result = proc.run()
        assert result.halted
        assert proc.memory.read_word(program.symbol("out")) == 777


class TestRetiredBudgetPause:
    """``RingEngine.run(max_retired=)`` (sampling windows) never pauses
    inside a pipelined region: the region's instructions are credited
    when it starts while its cycles elapse until it ends."""

    def _ring(self, program):
        hierarchy = MemoryHierarchy(F4C16.hierarchy_config())
        program.load_into(hierarchy.memory)
        return RingEngine(F4C16, hierarchy, program)

    def test_budget_inside_region_pauses_after_it(self):
        program = assemble(simt_program(32, SQUARES))
        probe = self._ring(program)
        while not probe.in_region():
            before = probe.stats.retired
            probe.step()
        region_end = probe._simt_until

        ring = self._ring(program)
        ring.run(max_retired=before + 1)
        assert not ring.in_region() and not ring.halted
        assert ring.cycle >= region_end
        assert ring.stats.retired == probe.stats.retired

        # the pause is resumable and costs nothing
        ring.run()
        whole = self._ring(program)
        whole.run()
        assert ring.halted and whole.halted
        assert (ring.cycle, ring.stats.retired) \
            == (whole.cycle, whole.stats.retired)
