"""The worklist buffering pass against the full-rebuild reference.

``insert_buffers`` keeps its consumer and load tables up to date
across passes and re-checks only the nets a pass touched;
``tests/oracles/buffering.py`` rebuilds the tables and re-checks every
net on every pass.  On the same unbuffered netlist both must append the
same BUFs, rewire the same pins and end with the same net count.
"""

import pytest
from hypothesis import given, settings

from repro.circuits.mult_common import build_multiplier
from repro.circuits.reducer import build_reducer
from repro.core.pipeline_unit import (
    FRMT_FP32X2,
    FRMT_FP64,
    FRMT_INT64,
    build_mf_multiplier,
)
from repro.eval import sweep as sw
from repro.eval.experiments import NAMED_BUILDS
from repro.hdl.buffering import insert_buffers
from repro.hdl.library import default_library
from repro.hdl.module import Module
from repro.hdl.optimize import optimize, tie_input
from tests.oracles.buffering import reference_insert_buffers
from tests.oracles.fault_resim import clone_module
from tests.test_hdl_properties import random_module


def _sweep_builds():
    """``(id, builder, params)`` of every multiplier the sweeps build."""
    for k, __ in sw.RADIX_POINTS:
        yield f"radix{1 << k}", build_multiplier, {"radix_log2": k}
    for style in sw.CPA_STYLES:
        yield f"cpa_{style}", build_multiplier, {"radix_log2": 4,
                                                 "adder_style": style}
    for cut in sw.PIPELINE_CUTS:
        yield f"cut_{cut}", build_multiplier, {"radix_log2": 4,
                                               "pipeline_cut": cut}
    for k, __, use42 in sw.TREE_POINTS:
        yield (f"tree_r{1 << k}_{'42' if use42 else '32'}",
               build_multiplier, {"radix_log2": k, "use_4_2": use42})
    yield "multi-format", build_mf_multiplier, {}


def _designs():
    """Every sweep and named design, once each."""
    seen = []
    rows = list(_sweep_builds()) + [(name, fn, params) for name, (fn, params)
                                    in NAMED_BUILDS.items()]
    for ident, fn, params in rows:
        key = (fn, sw._bound_args(fn, params))
        if key not in seen:
            seen.append(key)
            yield pytest.param(fn, params, id=ident)


def _unbuffered(builder, params):
    if builder is build_reducer:       # the reducer is never buffered
        return builder(**params)
    return builder(**params, buffer_max_load=None)


def _assert_same_buffering(module, max_load):
    lib = default_library()
    fast, ref = clone_module(module), clone_module(module)
    insert_buffers(fast, lib, max_load=max_load)
    reference_insert_buffers(ref, lib, max_load=max_load)
    assert fast.gates == ref.gates
    assert fast.registers == ref.registers
    assert fast.n_nets == ref.n_nets
    return fast


@pytest.mark.parametrize("builder,params", _designs())
def test_experiment_designs(builder, params):
    _assert_same_buffering(_unbuffered(builder, params), 8.0)


@pytest.mark.parametrize("label", [label for label in sw.SPECIALIZATION_LABELS
                                   if label != "multi-format"])
def test_specialization_flows(label):
    """Tie ``frmt``, optimize, then buffer — as ``specialization_point``."""
    code = {"int64-only": FRMT_INT64, "fp64-only": FRMT_FP64,
            "fp32x2-only": FRMT_FP32X2}[label]
    module = build_mf_multiplier(buffer_max_load=None)
    tie_input(module, "frmt", code)
    optimize(module)
    _assert_same_buffering(module, 8.0)


@pytest.mark.parametrize("max_load", [3.0, 4.0, 16.0])
@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("radix_log2", [2, 4])
def test_narrow_multipliers_across_budgets(radix_log2, width, max_load):
    module = build_multiplier(radix_log2, width=width,
                              pipeline_cut="after_ppgen",
                              buffer_max_load=None)
    _assert_same_buffering(module, max_load)


@pytest.mark.parametrize("max_load", [3.0, 4.0, 16.0])
def test_random_netlists(max_load):
    @given(random_module(max_gates=60, n_inputs=3, max_registers=8))
    @settings(max_examples=40, deadline=None)
    def check(module):
        _assert_same_buffering(module, max_load)

    check()


def _fanout_module(name, n_readers):
    """Input ``a[0]`` read by ``n_readers`` INVs: over any small budget."""
    m = Module(name)
    a = m.input("a", 4)
    with m.block("fan"):
        outs = [m.gate("INV", a[0]) for __ in range(n_readers)]
    return m, a, outs


def _gate_readers(module, net):
    """The gates still reading ``net`` after buffering, once per pin."""
    return [g for g, (__, ins, __, __) in enumerate(module.gates)
            for n in ins if n == net]


class TestEdgeCases:
    """Netlists the multipliers may not contain, where the sink order
    and the pin loads decide the split."""

    @pytest.mark.parametrize("max_load", [2.0, 3.0, 8.0])
    def test_gate_reading_an_over_budget_net_on_two_pins(self, max_load):
        m, a, outs = _fanout_module("two_pins", 9)
        with m.block("pair"):
            both = m.gate("AND2", a[0], a[0])
            mux = m.gate("MUX2", a[0], a[0], a[1])
        m.output("o", outs + [both, mux])
        before = m.n_nets
        fast = _assert_same_buffering(m, max_load)
        assert fast.n_nets > before
        # Every reader left on a[0] is a BUF: each pin of the two-pin
        # readers was moved as a sink of its own.
        assert all(fast.gates[g][0] == "BUF"
                   for g in _gate_readers(fast, a[0]))
        __, both_ins, __, __ = fast.gates[9]
        __, mux_ins, __, __ = fast.gates[10]
        assert min(both_ins + mux_ins[:2]) >= before
        assert mux_ins[2] == a[1]

    @pytest.mark.parametrize("max_load", [2.0, 4.0])
    def test_over_budget_register_d_nets(self, max_load):
        m, a, outs = _fanout_module("reg_d", 3)
        qs = [m.register(a[0], stage=1, block="regs") for __ in range(8)]
        qs += [m.register(a[1], stage=1) for __ in range(6)]
        m.output("o", outs + qs)
        before = m.n_nets
        fast = _assert_same_buffering(m, max_load)
        assert fast.n_nets > before
        assert all(d >= before for d, __, __, __ in fast.registers)

    @pytest.mark.parametrize("max_load", [3.0, 4.0])
    def test_sink_on_pin_3_of_a_four_input_cell(self, max_load):
        m, a, outs = _fanout_module("pin3", 5)
        with m.block("wide"):
            wide = [m.gate(kind, a[1], a[2], a[3], a[0])
                    for kind in ("AO22", "OA22", "AO22")]
        m.output("o", outs + wide)
        before = m.n_nets
        fast = _assert_same_buffering(m, max_load)
        assert fast.n_nets > before
        for g in range(5, 8):
            kind, ins, __, __ = fast.gates[g]
            assert ins[:3] == (a[1], a[2], a[3]) and ins[3] >= before

    @pytest.mark.parametrize("max_load", [3.0, 8.0])
    def test_primary_output_net_over_budget(self, max_load):
        m, a, outs = _fanout_module("po", 12)
        m.output("o", outs + [a[0], a[0]])
        m.output("p", [a[0]])
        before = m.n_nets
        fast = _assert_same_buffering(m, max_load)
        assert fast.n_nets > before
        assert fast.outputs == {"o": outs + [a[0], a[0]], "p": [a[0]]}
