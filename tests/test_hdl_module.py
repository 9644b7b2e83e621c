"""Tests for the netlist builder and validator."""

import pytest

from repro.errors import NetlistError
from repro.hdl.library import default_library
from repro.hdl.module import Module
from repro.hdl.validate import validate


def _small_module():
    m = Module("demo")
    a = m.input("a", 2)
    b = m.input("b", 2)
    with m.block("logic"):
        x = m.gate("XOR2", a[0], b[0])
        y = m.gate("AND2", a[1], b[1])
    m.output("o", [x, y])
    return m


class TestConstruction:
    def test_basic_shape(self):
        m = _small_module()
        stats = m.stats()
        assert stats["gates"] == 2
        assert stats["inputs"] == 4
        assert stats["outputs"] == 2
        assert stats["kinds"] == {"XOR2": 1, "AND2": 1}

    def test_block_tags(self):
        m = _small_module()
        assert all(block == "logic" for __, __, __, block in m.gates)

    def test_nested_blocks(self):
        m = Module("demo")
        a = m.input("a", 1)
        with m.block("outer"):
            with m.block("inner"):
                m.gate("INV", a[0])
        __, __, __, block = m.gates[0]
        assert block == "outer/inner"

    def test_duplicate_io_rejected(self):
        m = Module("demo")
        m.input("a", 1)
        with pytest.raises(NetlistError):
            m.input("a", 1)
        n = m.input("b", 1)
        m.output("o", n)
        with pytest.raises(NetlistError):
            m.output("o", n)

    def test_undriven_net_rejected(self):
        m = Module("demo")
        with pytest.raises(NetlistError):
            m.gate("INV", 42)

    def test_gate_arity_checked(self):
        m = Module("demo")
        a = m.input("a", 2)
        with pytest.raises(NetlistError):
            m.gate("INV", a[0], a[1])
        with pytest.raises(NetlistError):
            m.gate("XOR2", a[0])

    def test_constants_shared(self):
        m = Module("demo")
        assert m.const(0) == m.const(0)
        assert m.const(1) == m.const(1)
        assert m.const(0) != m.const(1)
        with pytest.raises(NetlistError):
            m.const(2)

    def test_registers(self):
        m = Module("demo")
        a = m.input("a", 4)
        q = m.register_bus(a, stage=1)
        m.output("o", q)
        assert m.stats()["registers"] == 4
        assert m.stage_count() == 2
        assert m.driver_kind(q[0]) == "register"

    def test_driver_kinds(self):
        m = _small_module()
        assert m.driver_kind(m.inputs["a"][0]) == "input"
        __, __, output, __ = m.gates[0]
        assert m.driver_kind(output) == "gate"
        assert m.driver_kind(m.const(1)) == "const"
        with pytest.raises(NetlistError):
            m.driver_kind(10_000)

    def test_fanout_and_load(self):
        m = Module("demo")
        a = m.input("a", 1)
        m.gate("INV", a[0])
        m.gate("INV", a[0])
        fanout = m.index.fanout
        assert fanout[a[0]] == (0, 1)
        lib = default_library()
        load = m.index.library(lib).load
        assert load[a[0]] == 2 * lib.spec("INV").input_cap


class TestValidate:
    def test_clean_module_passes(self):
        validate(_small_module())

    def test_cycle_detected(self):
        m = Module("demo")
        a = m.input("a", 1)
        # Manually create a combinational cycle.
        out1 = m.new_net()
        out2 = m.new_net()
        m._driver[out1] = "gate"
        m._driver[out2] = "gate"
        m.gates.append(("AND2", (a[0], out2), out1, ""))
        m.gates.append(("INV", (out1,), out2, ""))
        with pytest.raises(NetlistError, match="cycle"):
            validate(m)

    def test_double_driver_detected(self):
        m = Module("demo")
        a = m.input("a", 1)
        n = m.gate("INV", a[0])
        m.gates.append(("INV", (a[0],), n, ""))
        with pytest.raises(NetlistError, match="driven by"):
            validate(m)

    def test_undriven_detected(self):
        m = _small_module()
        m.n_nets += 1
        with pytest.raises(NetlistError, match="no driver"):
            validate(m)
