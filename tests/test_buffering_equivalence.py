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
