"""Tests for Verilog export, VCD dumping and the CLI."""

import os
import re

import pytest

from repro.errors import SimulationError
from repro.hdl.export import to_verilog, write_verilog
from repro.hdl.module import Module
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.sim.waveform import dump_vcd


def _small_module(with_regs=False):
    m = Module("demo-top")
    a = m.input("a", 2)
    b = m.input("b", 2)
    s = m.gate("XOR2", a[0], b[0])
    c = m.gate("AND2", a[1], b[1])
    if with_regs:
        s = m.register(s, stage=1)
        c = m.register(c, stage=1)
    m.output("out", [s, c])
    return m


class TestVerilogExport:
    def test_combinational_module(self):
        text = to_verilog(_small_module())
        assert "module demo_top (" in text
        assert "input  [1:0] a;" in text
        assert "output [1:0] out;" in text
        assert re.search(r"assign n\d+ = n\d+ \^ n\d+;", text)
        assert "clk" not in text
        assert text.strip().endswith("endmodule")

    def test_registers_emit_clocked_block(self):
        text = to_verilog(_small_module(with_regs=True))
        assert "input clk;" in text
        assert "always @(posedge clk)" in text
        assert "if (rst)" in text
        assert text.count("<=") == 4          # 2 reset + 2 data assignments

    def test_deterministic(self):
        assert to_verilog(_small_module()) == to_verilog(_small_module())

    def test_full_multiplier_exports(self):
        from repro.eval.experiments import cached_module
        module = cached_module("r16")
        text = to_verilog(module)
        # Every gate appears exactly once as an assignment.
        assert text.count("assign n") >= len(module.gates)
        assert "endmodule" in text

    def test_write_to_file(self, tmp_path):
        path = write_verilog(_small_module(), tmp_path / "demo.v")
        assert os.path.getsize(path) > 100

    def test_constants_tied(self):
        m = Module("c")
        a = m.input("a", 1)
        one = m.const(1)
        m.output("o", [m.gate("AND2", a[0], one)])
        text = to_verilog(m)
        assert "= 1'b1;" in text


class TestVCD:
    def test_dump_and_structure(self, tmp_path):
        m = _small_module()
        run = LevelizedSimulator(m).run({"a": [0, 1, 2, 3],
                                         "b": [3, 3, 3, 3]}, 4)
        path = dump_vcd(m, run, tmp_path / "wave.vcd")
        text = open(path).read()
        assert "$timescale 1ns $end" in text
        assert "$var wire 2" in text
        assert "$enddefinitions $end" in text
        assert "#0" in text and "#3" in text

    def test_only_changes_recorded(self, tmp_path):
        m = _small_module()
        run = LevelizedSimulator(m).run({"a": [1, 1, 1], "b": [2, 2, 2]}, 3)
        path = dump_vcd(m, run, tmp_path / "wave.vcd")
        text = open(path).read()
        # Constant signals appear once (at time 0) only; bus 'a' gets the
        # first VCD id '!' (sorted order).
        body = text.split("$enddefinitions $end")[1]
        assert body.count("b01 !") == 1      # bus 'a' dumped once

    def test_custom_bus_selection(self, tmp_path):
        m = _small_module()
        run = LevelizedSimulator(m).run({"a": [0, 3], "b": [0, 3]}, 2)
        __, __, xor_out, __ = m.gates[0]
        path = dump_vcd(m, run, tmp_path / "w.vcd",
                        buses={"xor_bit": [xor_out]})
        text = open(path).read()
        assert "xor_bit" in text
        assert "$var wire 1" in text

    def test_empty_selection_rejected(self, tmp_path):
        m = _small_module()
        run = LevelizedSimulator(m).run({"a": [0], "b": [0]}, 1)
        with pytest.raises(SimulationError):
            dump_vcd(m, run, tmp_path / "w.vcd", buses={})

    def test_bad_net_rejected(self, tmp_path):
        m = _small_module()
        run = LevelizedSimulator(m).run({"a": [0], "b": [0]}, 1)
        with pytest.raises(SimulationError):
            dump_vcd(m, run, tmp_path / "w.vcd", buses={"x": [10_000]})


class TestCLI:
    def test_single_experiment(self, capsys):
        from repro.__main__ import main
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "binary128" in out

    def test_unknown_experiment(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_export_verilog_command(self, tmp_path, capsys):
        from repro.__main__ import main
        path = str(tmp_path / "reducer.v")
        assert main(["export-verilog", "reducer", path]) == 0
        assert "endmodule" in open(path).read()

    def test_export_verilog_bad_module(self, tmp_path):
        from repro.__main__ import main
        assert main(["export-verilog", "r32",
                     str(tmp_path / "x.v")]) == 2

    def test_export_verilog_usage(self):
        from repro.__main__ import main
        assert main(["export-verilog"]) == 2
