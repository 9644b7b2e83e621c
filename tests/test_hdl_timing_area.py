"""Tests for STA, area accounting, buffering and pipeline analysis."""

import pytest

from repro.errors import NetlistError, PipelineError
from repro.hdl.area.model import area_report
from repro.hdl.buffering import insert_buffers
from repro.hdl.library import FO4_PS, default_library
from repro.hdl.module import Module
from repro.hdl.pipeline import pipeline_report, stage_map
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.timing.sta import analyze, critical_path_breakdown


def _chain(n, width_in=1):
    """A chain of n inverters (hand-computable timing)."""
    m = Module("chain")
    a = m.input("a", 1)
    net = a[0]
    for __ in range(n):
        net = m.gate("INV", net)
    m.output("o", [net])
    return m


class TestSTA:
    def test_inverter_chain_delay(self):
        lib = default_library()
        m = _chain(4)
        report = analyze(m, lib)
        spec = lib.spec("INV")
        # First three INVs drive one INV pin; the last drives the output.
        expect = 3 * spec.delay_ps(spec.input_cap) \
            + spec.delay_ps(lib.output_load)
        assert report.latency_ps == pytest.approx(expect)

    def test_parallel_paths_take_max(self):
        m = Module("par")
        a = m.input("a", 1)
        slow = m.gate("INV", a[0])
        slow = m.gate("INV", slow)
        fast = m.gate("BUF", a[0])
        out = m.gate("AND2", slow, fast)
        m.output("o", [out])
        lib = default_library()
        report = analyze(m, lib)
        path_kinds = [m.gates[g][0] for g in report.stages[0].path_gates]
        assert path_kinds == ["INV", "INV", "AND2"]

    def test_stage_endpoints(self):
        m = Module("pipe")
        a = m.input("a", 1)
        x = m.gate("INV", a[0])
        q = m.register(x, stage=1)
        y = m.gate("INV", q)
        y = m.gate("INV", y)
        m.output("o", [y])
        report = analyze(m, default_library())
        assert len(report.stages) == 2
        assert report.stages[1].delay_ps > report.stages[0].delay_ps
        assert report.clock_period_ps == pytest.approx(
            report.stages[1].delay_ps
            + default_library().register.overhead_ps)

    def test_breakdown_sums_to_latency(self):
        from repro.circuits.mult_radix16 import radix16_multiplier
        lib = default_library()
        m = radix16_multiplier()
        report = analyze(m, lib)
        segments = critical_path_breakdown(m, lib, report.critical_stage)
        assert sum(s.delay_ps for s in segments) \
            == pytest.approx(report.latency_ps)

    def test_fo4_normalization(self):
        m = _chain(2)
        report = analyze(m, default_library())
        assert report.latency_fo4 == pytest.approx(
            report.latency_ps / FO4_PS)


class TestArea:
    def test_counts_every_gate(self):
        lib = default_library()
        m = Module("area")
        a = m.input("a", 2)
        with m.block("one"):
            m.gate("XOR2", a[0], a[1])
        with m.block("two"):
            m.gate("NAND2", a[0], a[1])
        report = area_report(m, lib)
        assert report.total_um2 == pytest.approx(
            lib.spec("XOR2").area_um2 + lib.spec("NAND2").area_um2)
        assert report.block_um2("one") == pytest.approx(
            lib.spec("XOR2").area_um2)
        assert report.total_nand2_eq == pytest.approx(
            lib.spec("XOR2").area_eq + 1.0)

    def test_registers_counted(self):
        lib = default_library()
        m = Module("area")
        a = m.input("a", 3)
        m.register_bus(a, stage=1)
        report = area_report(m, lib)
        assert report.register_um2 == pytest.approx(
            3 * lib.register.area_um2)
        assert report.total_um2 == report.register_um2


class TestBuffering:
    def _fanout_module(self, sinks):
        m = Module("fan")
        a = m.input("a", 1)
        src = m.gate("INV", a[0])
        outs = [m.gate("BUF", src) for __ in range(sinks)]
        x = outs[0]
        for o in outs[1:]:
            x = m.gate("OR2", x, o)
        m.output("o", [x])
        return m

    def test_loads_bounded_after_pass(self):
        lib = default_library()
        m = self._fanout_module(40)
        insert_buffers(m, lib, max_load=8.0)
        load = m.index.library(lib).load
        for net in range(m.n_nets):
            if net in m.constants:
                continue
            assert load[net] <= 8.0 + lib.output_load, net

    def test_function_preserved(self):
        lib = default_library()
        m = self._fanout_module(20)
        before = LevelizedSimulator(m).run({"a": [0, 1]}, 2)
        out_before = [before.bus_word(m.outputs["o"], t) for t in range(2)]
        insert_buffers(m, lib, max_load=6.0)
        after = LevelizedSimulator(m).run({"a": [0, 1]}, 2)
        out_after = [after.bus_word(m.outputs["o"], t) for t in range(2)]
        assert out_before == out_after

    def test_constants_exempt(self):
        lib = default_library()
        m = Module("const_fan")
        a = m.input("a", 1)
        one = m.const(1)
        x = a[0]
        for __ in range(30):
            x = m.gate("AND2", x, one)
        m.output("o", [x])
        gates_before = len(m.gates)
        insert_buffers(m, lib, max_load=4.0)
        # No buffers on the constant net.
        assert all(inputs[1] == one
                   for kind, inputs, __, __ in m.gates[:gates_before]
                   if kind == "AND2")

    def test_threshold_validated(self):
        with pytest.raises(NetlistError):
            insert_buffers(Module("m"), default_library(), max_load=0.5)


class TestPipelineAnalysis:
    def test_stage_map_simple(self):
        m = Module("p")
        a = m.input("a", 1)
        x = m.gate("INV", a[0])
        q = m.register(x, stage=1)
        y = m.gate("INV", q)
        m.output("o", [y])
        gate_stages, net_stages = stage_map(m)
        assert gate_stages == (1, 2)

    def test_mixed_stage_gate_rejected(self):
        m = Module("p")
        a = m.input("a", 2)
        q = m.register(a[0], stage=1)   # stage-2 value
        bad = m.gate("AND2", q, a[1])   # mixes stage 2 with stage 1
        m.output("o", [bad])
        with pytest.raises(PipelineError):
            stage_map(m, strict=True)
        gate_stages, __ = stage_map(m, strict=False)
        assert gate_stages == (2,)

    def test_mixed_stage_names_lowest_index_gate(self):
        """Gate 0 reads gate 1's output, so the sort visits gate 1
        first; both mix stages, and the error names gate 0."""
        m = Module("p")
        a = m.input("a", 2)
        q = m.register(a[0], stage=1)
        late, early = m.new_net(), m.new_net()
        m._driver[late] = m._driver[early] = "gate"
        m.gates.append(("AND2", (early, a[1]), late, "x"))
        m.gates.append(("AND2", (q, a[1]), early, "y"))
        m.output("o", [late])
        assert m.index.node_order().index(1) < m.index.node_order().index(0)
        with pytest.raises(PipelineError,
                           match=r"^gate 0 \(AND2 in 'x'\) mixes stages"):
            stage_map(m, strict=True)

    def test_report_counts(self):
        from repro.circuits.mult_radix16 import radix16_multiplier
        m = radix16_multiplier(pipeline_cut="after_ppgen")
        report = pipeline_report(m)
        assert report.n_stages == 2
        assert set(report.gates_per_stage) == {1, 2}
        assert report.registers_per_cut == {1: len(m.registers)}
        assert 0 < report.stage_share(1) < 1
