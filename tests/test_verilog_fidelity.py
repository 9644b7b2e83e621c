"""Export fidelity: re-simulate the emitted Verilog with a tiny
interpreter and compare against the original netlist.

No Verilog simulator is assumed; the test parses the generated
continuous assignments and register updates directly, which closes the
loop on the export templates independently of the generator.
"""

import random
import re

import pytest

from repro.circuits.mult_radix16 import radix16_multiplier
from repro.hdl.export import to_verilog, to_verilog_testbench
from repro.hdl.module import Module
from repro.hdl.sim.levelized import LevelizedSimulator
from tests.oracles.cells import CELLS

_ASSIGN = re.compile(r"^\s*assign n(\d+) = (.+?);(?:\s*//.*)?$")
_INPUT_BIT = re.compile(r"^\s*assign n(\d+) = (\w+)\[(\d+)\];$")
_CONST = re.compile(r"^\s*assign n(\d+) = 1'b([01]);$")
_REG_UPDATE = re.compile(r"^\s*n(\d+) <= n(\d+);")


class VerilogInterpreter:
    """Evaluate the exported module's assigns cycle by cycle."""

    def __init__(self, text):
        self.input_bits = []      # (net, bus, index)
        self.consts = {}
        self.assigns = []         # (net, python expression)
        self.reg_updates = []     # (q, d)
        in_reset = False
        for line in text.splitlines():
            if "if (rst)" in line:
                in_reset = True
                continue
            if "end else begin" in line:
                in_reset = False
                continue
            m = _CONST.match(line)
            if m:
                self.consts[int(m.group(1))] = int(m.group(2))
                continue
            m = _INPUT_BIT.match(line)
            if m:
                self.input_bits.append((int(m.group(1)), m.group(2),
                                        int(m.group(3))))
                continue
            m = _REG_UPDATE.match(line)
            if m and not in_reset:
                self.reg_updates.append((int(m.group(1)), int(m.group(2))))
                continue
            m = _ASSIGN.match(line)
            if m and "[" not in m.group(2) and "{" not in m.group(2):
                self.assigns.append((int(m.group(1)),
                                     self._to_python(m.group(2))))
        self.n_nets = 1 + max(
            [n for n, __ in self.assigns]
            + [n for n, __, __ in self.input_bits]
            + list(self.consts)
            + [q for q, __ in self.reg_updates] + [0])
        self._toposort_assigns()
        self._compiled = [(net, compile(expr, "<assign>", "eval"))
                          for net, expr in self.assigns]

    def _toposort_assigns(self):
        """Order assigns by data dependency (buffer insertion appends
        gates out of construction order, so the text order is not
        topological)."""
        producer = {net: i for i, (net, __) in enumerate(self.assigns)}
        deps = []
        for net, expr in self.assigns:
            used = {int(n) for n in re.findall(r"n(\d+)", expr)}
            deps.append([producer[u] for u in used if u in producer])
        indeg = [0] * len(self.assigns)
        consumers = [[] for __ in self.assigns]
        for i, dd in enumerate(deps):
            for d in dd:
                indeg[i] += 1
                consumers[d].append(i)
        ready = [i for i, d in enumerate(indeg) if d == 0]
        order = []
        while ready:
            i = ready.pop()
            order.append(i)
            for c in consumers[i]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        assert len(order) == len(self.assigns), "cycle in exported assigns"
        self.assigns = [self.assigns[i] for i in order]

    @staticmethod
    def _to_python(expr):
        # "s ? b : a"  ->  "(b if s else a)"
        tern = re.match(r"^(.+?) \? (.+?) : (.+)$", expr)
        if tern:
            return (f"({tern.group(2)} if {tern.group(1)} "
                    f"else {tern.group(3)})")
        return expr.replace("~", "1 ^ ")

    def run(self, module, stimulus, n_cycles):
        values = {n: 0 for n in range(self.n_nets)}
        values.update(self.consts)
        out_words = {name: [] for name in module.outputs}
        env_names = {}
        for t in range(n_cycles):
            for net, bus, idx in self.input_bits:
                word = stimulus[bus][t] if t < len(stimulus[bus]) else 0
                values[net] = (word >> idx) & 1
            env = {f"n{n}": v for n, v in values.items()}
            for net, code in self._compiled:
                v = eval(code, {"__builtins__": {}}, env) & 1
                env[f"n{net}"] = v
                values[net] = v
            for name, bus in module.outputs.items():
                out_words[name].append(
                    sum(values[net] << i for i, net in enumerate(bus)))
            latched = [(q, values[d]) for q, d in self.reg_updates]
            for q, v in latched:
                values[q] = v
        return out_words


def _roundtrip(module, stimulus, n_cycles):
    text = to_verilog(module)
    interp = VerilogInterpreter(text)
    got = interp.run(module, stimulus, n_cycles)
    run = LevelizedSimulator(module).run(stimulus, n_cycles)
    for name, bus in module.outputs.items():
        expect = [run.bus_word(bus, t) for t in range(n_cycles)]
        assert got[name] == expect, name


class TestVerilogRoundtrip:
    def test_combinational_gates(self):
        """One gate of every cell kind, each on the first inputs of one
        4-bit bus driven through all 16 values: every rendered Verilog
        expression over every input combination."""
        m = Module("comb")
        a = m.input("a", 4)
        m.output("o", [m.gate(kind, *a[:arity])
                       for kind, (__, arity) in sorted(CELLS.items())])
        _roundtrip(m, {"a": list(range(16))}, 16)

    def test_registered_module(self):
        m = Module("seq")
        a = m.input("a", 3)
        stage1 = [m.gate("INV", n) for n in a]
        q = m.register_bus(stage1, stage=1)
        out = [m.gate("XOR2", q[i], a[i]) for i in range(3)]
        m.output("o", out)
        rng = random.Random(2)
        stim = {"a": [rng.getrandbits(3) for __ in range(16)]}
        _roundtrip(m, stim, 16)

    @pytest.mark.slow
    def test_radix16_multiplier_roundtrip(self):
        """The big one: the full 20k-gate netlist through the exported
        Verilog interpreter (a handful of vectors; eval is slow)."""
        m = radix16_multiplier()
        rng = random.Random(3)
        stim = {"x": [rng.getrandbits(64) for __ in range(3)],
                "y": [rng.getrandbits(64) for __ in range(3)]}
        _roundtrip(m, stim, 3)


class TestTestbenchGeneration:
    def test_combinational_tb(self):
        m = Module("c")
        a = m.input("a", 2)
        m.output("o", [m.gate("AND2", a[0], a[1]),
                       m.gate("XOR2", a[0], a[1])])
        tb = to_verilog_testbench(m, {"a": [0, 1, 2, 3]}, 4)
        assert "module c_tb;" in tb
        assert tb.count("if (o !==") == 4
        assert "PASS" in tb
        assert "clk" not in tb

    def test_registered_tb_has_clocking(self):
        m = Module("s")
        a = m.input("a", 1)
        q = m.register(a[0], stage=1)
        m.output("o", [q])
        tb = to_verilog_testbench(m, {"a": [1, 0, 1]}, 3)
        assert "always #5 clk = ~clk;" in tb
        assert "rst = 0;" in tb
        assert "@(negedge clk);" in tb
        # Expected values follow the one-cycle register delay.
        assert "if (o !== 1'h0)" in tb.splitlines()[
            [i for i, l in enumerate(tb.splitlines())
             if "if (o !==" in l][0]]

    def test_expected_values_match_levelized(self):
        m = Module("s2")
        a = m.input("a", 2)
        q = m.register_bus(a, stage=1)
        m.output("o", q)
        stim = {"a": [3, 1, 2]}
        tb = to_verilog_testbench(m, stim, 3)
        expects = re.findall(r"if \(o !== 2'h([0-9A-F])\)", tb)
        # Registered bus: output lags input by one cycle (reset -> 0).
        assert [int(e, 16) for e in expects] == [0, 3, 1]
