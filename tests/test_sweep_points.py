"""Sweep design points: which netlist each leaf measures, and its checks.

A sweep point whose build matches a named experiment netlist measures
``cached_module(name)`` itself and builds nothing; the three ``*-only``
specialization points share one unbuffered MF build per process, which
the first of them builds; every other point builds a fresh netlist.  A
design point whose simulated products are wrong raises
``SimulationError`` even under ``python -O``.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.circuits.mult_common import build_multiplier
from repro.circuits.reducer import build_reducer
from repro.core.pipeline_unit import build_mf_multiplier
from repro.eval import sweep as sw
from repro.eval.experiments import cached_module
from repro.eval.orchestrator import _sweep_configs

#: Sweep leaf -> its ``cached_module`` name, for the shared points.
SHARED = {
    "radix_point/r4": "r4",
    "radix_point/r8": "r8",
    "radix_point/r16": "r16",
    "cpa_point/kogge_stone": "r16",
    "cut_point/none": "r16",
    "cut_point/after_ppgen": "r16_pipe",
    "tree_point/r4_32": "r4",
    "tree_point/r16_32": "r16",
    "specialization_point/multi-format": "mf",
}

BUILDER_CODES = {build_multiplier.__code__, build_mf_multiplier.__code__,
                 build_reducer.__code__}


def _points():
    leaves = (sw.radix_point, sw.cpa_point, sw.cut_point, sw.tree_point,
              sw.specialization_point)
    for leaf, configs in zip(leaves, _sweep_configs()):
        for suffix, params in configs:
            yield f"{leaf.__name__}/{suffix}", leaf, params


POINTS = list(_points())


class _Measured(Exception):
    def __init__(self, module):
        super().__init__()
        self.module = module


def _measured_module(monkeypatch, leaf, params):
    """The module ``leaf`` would measure, and the builders it called."""
    def capture(module, *args, **kwargs):
        raise _Measured(module)

    monkeypatch.setattr(sw, "measure_design_point",
                        lambda label, module, **kw: capture(module))
    monkeypatch.setattr(sw, "analyze", capture)
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in BUILDER_CODES:
            built.append(frame.f_code.co_name)
            sys.setprofile(None)      # the build itself runs unprofiled

    sys.setprofile(profile)
    try:
        leaf(**params)
    except _Measured as measured:
        return measured.module, built
    finally:
        sys.setprofile(None)
    raise AssertionError("leaf measured nothing")


def test_every_sweep_point_is_classified():
    ids = [ident for ident, __, __ in POINTS]
    assert len(ids) == 18
    assert set(SHARED) <= set(ids)


@pytest.mark.parametrize("leaf,params,name", [
    pytest.param(leaf, params, SHARED[ident], id=ident)
    for ident, leaf, params in POINTS if ident in SHARED])
def test_shared_points_reuse_cached_module(monkeypatch, leaf, params, name):
    named = cached_module(name)
    module, built = _measured_module(monkeypatch, leaf, params)
    assert module is named
    assert built == []


SPECIALIZED = ("int64-only", "fp64-only", "fp32x2-only")


@pytest.mark.parametrize("leaf,params", [
    pytest.param(leaf, params, id=ident)
    for ident, leaf, params in POINTS if ident not in SHARED])
def test_other_points_build_fresh(monkeypatch, leaf, params):
    """Every non-shared point builds one netlist; a ``*-only`` point
    does so from a cold per-process memo and measures an edited copy."""
    specialized = params.get("label") in SPECIALIZED
    if specialized:
        sw._unbuffered_mf.cache_clear()
    module, built = _measured_module(monkeypatch, leaf, params)
    assert len(built) == 1
    assert all(module is not cached_module(name)
               for name in set(SHARED.values()))
    if specialized:
        assert module is not sw._unbuffered_mf()


def test_specialized_points_share_one_mf_build(monkeypatch):
    """The ``*-only`` points build the unbuffered MF unit once, measure
    what each would on a fresh build of its own, and edit only copies."""
    fresh = {}
    for label in SPECIALIZED:
        sw._unbuffered_mf.cache_clear()
        fresh[label] = sw.specialization_point(label)
    sw._unbuffered_mf.cache_clear()
    real, built = sw.build_mf_multiplier, []

    def build(**params):
        module = real(**params)
        built.append((params, module, list(module.gates),
                      list(module.registers), module.n_nets))
        return module

    monkeypatch.setattr(sw, "build_mf_multiplier", build)
    shared = {label: sw.specialization_point(label) for label in SPECIALIZED}
    assert shared == fresh
    assert len(built) == 1
    params, module, gates, registers, n_nets = built[0]
    assert params == {"buffer_max_load": None}
    assert sw._unbuffered_mf() is module
    assert module.gates == gates
    assert module.registers == registers
    assert module.n_nets == n_nets


@pytest.mark.parametrize("leaf,params,name", [
    (sw.radix_point, {"radix_log2": 3}, "r8"),
    (sw.cut_point, {"cut": "after_ppgen"}, "r16_pipe"),
    (sw.specialization_point, {"label": "multi-format"}, "mf"),
])
def test_shared_leaf_leaves_module_unchanged(leaf, params, name):
    module = cached_module(name)
    gates, registers = list(module.gates), list(module.registers)
    n_nets = module.n_nets
    leaf(**params)
    assert module.gates == gates
    assert module.registers == registers
    assert module.n_nets == n_nets


def test_wrong_product_raises_under_optimize_flag():
    """The product check is a raise, not an ``assert`` that -O strips."""
    script = textwrap.dedent("""
        from repro.errors import SimulationError
        from repro.eval.experiments import cached_module
        from repro.eval.sweep import measure_design_point
        from tests.oracles.fault_resim import clone_module

        module = clone_module(cached_module("r16"))
        lsb = module.outputs["p"][0]
        idx = next(i for i, (__, __, output, __) in enumerate(module.gates)
                   if output == lsb)
        kind, inputs, output, block = module.gates[idx]
        assert kind == "XOR2"
        module.gates[idx] = ("XNOR2", inputs, output, block)
        try:
            measure_design_point("broken", module)
        except SimulationError as exc:
            print("raised:", exc)
        else:
            print("passed silently")
    """)
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, check=True,
                         cwd=Path(__file__).resolve().parents[1])
    assert out.stdout.startswith("raised: broken: wrong product at pattern 0")
