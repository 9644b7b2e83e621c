"""Property-based tests of the HDL substrate on random netlists.

A hypothesis strategy generates arbitrary feed-forward gate networks;
every engine in the substrate must agree on them: levelized vs
event-driven values, STA vs event settle times, and function
preservation under buffering and optimization.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.buffering import insert_buffers
from repro.hdl.cell import CELL_KINDS, cell_num_inputs
from repro.hdl.library import default_library
from repro.hdl.module import Module
from repro.hdl.optimize import optimize
from repro.hdl.sim.event import EventSimulator
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.timing.sta import analyze
from repro.hdl.validate import validate

KINDS = sorted(CELL_KINDS)


@st.composite
def random_module(draw, max_gates=30, n_inputs=6, max_registers=0):
    """A random acyclic gate network with some constants mixed in.

    ``max_registers > 0`` also inserts 1..``max_registers`` pipeline
    registers on random nets between the gates; each q net joins the
    pool, so later gates (and registers) may consume it.
    """
    m = Module("random")
    a = m.input("a", n_inputs)
    nets = list(a) + [m.const(0), m.const(1)]
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    reg_steps = []
    if max_registers:
        n_regs = draw(st.integers(min_value=1, max_value=max_registers))
        reg_steps = sorted(draw(st.integers(0, n_gates))
                           for __ in range(n_regs))
    for step in range(n_gates + 1):
        while reg_steps and reg_steps[0] == step:
            reg_steps.pop(0)
            d = nets[draw(st.integers(0, len(nets) - 1))]
            nets.append(m.register(d, stage=1))
        if step == n_gates:
            break
        kind = draw(st.sampled_from(KINDS))
        arity = cell_num_inputs(kind)
        ins = [nets[draw(st.integers(0, len(nets) - 1))]
               for __ in range(arity)]
        nets.append(m.gate(kind, *ins))
    out_count = draw(st.integers(min_value=1, max_value=4))
    outs = [nets[draw(st.integers(0, len(nets) - 1))]
            for __ in range(out_count)]
    # Outputs must be distinct nets? Buses may repeat nets; allowed.
    m.output("o", outs)
    return m


@st.composite
def module_and_patterns(draw, n_patterns=6, max_registers=0):
    m = draw(random_module(max_registers=max_registers))
    patterns = [draw(st.integers(0, (1 << 6) - 1))
                for __ in range(n_patterns)]
    return m, patterns


def registered_module_and_patterns(n_patterns=6):
    """:func:`module_and_patterns` over netlists with 1-8 registers."""
    return module_and_patterns(n_patterns=n_patterns, max_registers=8)


def _out_words(module, run, n):
    return [run.bus_word(module.outputs["o"], t) for t in range(n)]


class TestRandomNetlists:
    @given(module_and_patterns())
    @settings(max_examples=60, deadline=None)
    def test_validates(self, case):
        module, __ = case
        validate(module)

    @given(module_and_patterns())
    @settings(max_examples=60, deadline=None)
    def test_event_settles_to_levelized(self, case):
        module, patterns = case
        lib = default_library()
        run = LevelizedSimulator(module).run({"a": patterns}, len(patterns))
        esim = EventSimulator(module, lib)

        def stim(t):
            return {net: (patterns[t] >> i) & 1
                    for i, net in enumerate(module.inputs["a"])}

        # A trivially valid upper bound covering gates that feed no
        # output (STA endpoints exclude them; the event sim does not).
        load = module.index.library(lib).load
        delay_bound = sum(lib.spec(kind).delay_ps(load[output])
                          for kind, __, output, __ in module.gates)
        esim.initialize(stim(0))
        for t in range(1, len(patterns)):
            counts = esim.apply(stim(t))
            for net in range(module.n_nets):
                assert esim.values[net] == run.net_value(net, t)
            assert counts.settle_time_ps <= delay_bound + 1e-6

    @given(module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_buffering_preserves_function(self, case):
        module, patterns = case
        lib = default_library()
        before = LevelizedSimulator(module).run({"a": patterns},
                                                len(patterns))
        expect = _out_words(module, before, len(patterns))
        insert_buffers(module, lib, max_load=3.0)
        validate(module)
        after = LevelizedSimulator(module).run({"a": patterns},
                                               len(patterns))
        assert _out_words(module, after, len(patterns)) == expect
        # Pin loads (gate/register inputs) are bounded; output-pad load
        # is fixed at its net and cannot be buffered away.
        pad = [0.0] * module.n_nets
        for bus in module.outputs.values():
            for net in bus:
                pad[net] += lib.output_load
        load = module.index.library(lib).load
        buf_cap = lib.spec("BUF").input_cap
        for net in range(module.n_nets):
            if net in module.constants:
                continue
            pin_load = load[net] - pad[net]
            if pad[net] == 0:
                assert pin_load <= 3.0 + 1e-9, net
            else:
                assert pin_load <= 3.0 + pad[net] + 2 * buf_cap + 1e-9, net

    @given(module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_optimize_preserves_function(self, case):
        module, patterns = case
        before = LevelizedSimulator(module).run({"a": patterns},
                                                len(patterns))
        expect = _out_words(module, before, len(patterns))
        optimize(module)
        validate(module)
        after = LevelizedSimulator(module).run({"a": patterns},
                                               len(patterns))
        assert _out_words(module, after, len(patterns)) == expect

    @given(module_and_patterns())
    @settings(max_examples=30, deadline=None)
    def test_export_roundtrip(self, case):
        from tests.test_verilog_fidelity import VerilogInterpreter
        from repro.hdl.export import to_verilog

        module, patterns = case
        run = LevelizedSimulator(module).run({"a": patterns},
                                             len(patterns))
        expect = _out_words(module, run, len(patterns))
        interp = VerilogInterpreter(to_verilog(module))
        got = interp.run(module, {"a": patterns}, len(patterns))
        assert got["o"] == expect

    @given(module_and_patterns())
    @settings(max_examples=30, deadline=None)
    def test_zero_delay_toggles_lower_bound_event(self, case):
        """Per net, glitch-aware counts can never undercut functional
        transition counts."""
        module, patterns = case
        lib = default_library()
        run = LevelizedSimulator(module).run({"a": patterns},
                                             len(patterns))
        zero = run.toggles_per_net()
        esim = EventSimulator(module, lib)

        def stim(t):
            return {net: (patterns[t] >> i) & 1
                    for i, net in enumerate(module.inputs["a"])}

        esim.initialize(stim(0))
        totals = [0] * module.n_nets
        for t in range(1, len(patterns)):
            counts = esim.apply(stim(t))
            for net, c in enumerate(counts.toggles):
                totals[net] += c
        for net in range(module.n_nets):
            assert totals[net] >= zero[net], net
            assert (totals[net] - zero[net]) % 2 == 0   # glitches pair up