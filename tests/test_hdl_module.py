"""Tests for the netlist builder and validator."""

import pickle

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

    def test_block_path_follows_the_stack(self):
        """Gate and register tags equal the joined block stack at every
        depth, including after leaving a block."""
        m = Module("demo")
        a = m.input("a", 1)
        tags = []

        def mark():
            m.gate("INV", a[0])
            m.register(a[0], stage=1)
            tags.append("/".join(m._block_stack))

        mark()
        with m.block("outer"):
            mark()
            with m.block("mid"):
                mark()
                with m.block("inner"):
                    mark()
                mark()
            with m.block("other"):
                mark()
            mark()
        mark()
        assert tags == ["", "outer", "outer/mid", "outer/mid/inner",
                        "outer/mid", "outer/other", "outer", ""]
        assert [block for __, __, __, block in m.gates] == tags
        assert [block for __, __, __, block in m.registers] == tags
        assert m.current_block == ""

    def test_block_path_survives_an_exception(self):
        m = Module("demo")
        a = m.input("a", 1)
        with pytest.raises(NetlistError):
            with m.block("outer"):
                m.gate("INV", 99)
        m.gate("INV", a[0])
        assert m.gates[-1][3] == "" == m.current_block

    def test_copy_inside_a_block_keeps_the_path(self):
        m = Module("demo")
        a = m.input("a", 1)
        with m.block("outer"):
            with m.block("inner"):
                twin = m.copy()
        assert twin.current_block == "outer/inner"
        twin.gate("INV", a[0])
        twin.register(a[0], stage=1)
        assert twin.gates[-1][3] == twin.registers[-1][3] == "outer/inner"
        assert m.current_block == ""

    def test_unpickled_without_the_cached_path_still_builds(self,
                                                            monkeypatch):
        m = Module("demo")
        a = m.input("a", 1)
        with m.block("outer"):
            plain = Module.__getstate__
            monkeypatch.setattr(
                Module, "__getstate__",
                lambda self: {k: v for k, v in plain(self).items()
                              if k != "_block_path"})
            blob = pickle.dumps(m)
        monkeypatch.undo()
        old = pickle.loads(blob)
        assert "_block_path" in vars(old)
        old.gate("INV", a[0])
        assert old.gates[-1][3] == "outer"
        with old.block("inner"):
            old.gate("INV", a[0])
        assert old.gates[-1][3] == "outer/inner"

    @pytest.mark.parametrize("net, message", [
        ("x", "net ids are ints, got 'x'"),
        (1.0, "net ids are ints, got 1.0"),
        (None, "net ids are ints, got None"),
        (99, "net 99 used before being driven"),
        (-1, "net -1 used before being driven"),
    ])
    def test_bad_net_messages(self, net, message):
        m = Module("demo")
        a = m.input("a", 2)
        for build in (lambda: m.gate("AND2", a[0], net),
                      lambda: m.gate("INV", net),
                      lambda: m.register(net, stage=1),
                      lambda: m.output("o", [a[1], net])):
            with pytest.raises(NetlistError) as info:
                build()
            assert str(info.value) == message
        assert m.n_nets == 2 and not m.gates and not m.registers

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

    def test_lowest_undriven_net_is_named(self):
        m = _small_module()
        first = m.n_nets
        m.n_nets += 3
        with pytest.raises(NetlistError,
                           match=rf"^net {first} has no driver$"):
            validate(m)


class TestDoubleDrivers:
    """``validate`` names both drivers of a net driven twice, first
    the earlier in the order gates, registers, inputs, constants."""

    @staticmethod
    def _module():
        m = Module("demo")
        a = m.input("a", 2)
        n = m.gate("INV", a[0])
        q = m.register(n, stage=1)
        one = m.const(1)
        m.output("o", [q])
        return m, a, n, q, one

    def _message(self, m):
        with pytest.raises(NetlistError) as info:
            validate(m)
        return str(info.value)

    def test_gate_and_gate(self):
        m, a, n, __, __ = self._module()
        m.gates.append(("INV", (a[1],), n, ""))
        assert self._message(m) == f"net {n} driven by gate 0 and gate 1"

    def test_register_and_register(self):
        m, a, __, q, __ = self._module()
        m.registers.append((a[1], q, 1, ""))
        assert self._message(m) \
            == f"net {q} driven by register 0 and register 1"

    def test_gate_and_register(self):
        m, a, n, __, __ = self._module()
        m.registers.append((a[1], n, 1, ""))
        assert self._message(m) \
            == f"net {n} driven by gate 0 and register 1"

    def test_input_and_gate(self):
        m, a, __, __, __ = self._module()
        m.gates.append(("INV", (a[1],), a[0], ""))
        assert self._message(m) \
            == f"net {a[0]} driven by gate 1 and input a"

    def test_input_and_register(self):
        m, a, __, __, __ = self._module()
        m.registers.append((a[0], a[1], 1, ""))
        assert self._message(m) \
            == f"net {a[1]} driven by register 1 and input a"

    def test_const_and_gate(self):
        m, a, __, __, one = self._module()
        m.gates.append(("INV", (a[1],), one, ""))
        assert self._message(m) \
            == f"net {one} driven by gate 1 and a constant"
