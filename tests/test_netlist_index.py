"""The derived netlist index (:mod:`repro.hdl.index`).

Every analysis reads one index per module: one topological sort shared
by validation, the compile pass, pipeline staging, STA, area and power,
rebuilt after any edit of the module and never pickled.
"""

import gc
import pickle

from repro import obs
from repro.eval.experiments import NAMED_BUILDS
from repro.hdl.area.model import area_report
from repro.hdl.buffering import insert_buffers
from repro.hdl.library import default_library
from repro.hdl.module import Module
from repro.hdl.optimize import optimize
from repro.hdl.pipeline import stage_map
from repro.hdl.power.monte_carlo import estimate_power
from repro.hdl.sim.compile import compiled_module
from repro.hdl.timing.sta import analyze
from repro.hdl.validate import validate


def _pipe():
    """Two stages; stage 2 fans one net out to eight gates."""
    m = Module("pipe")
    a = m.input("a", 2)
    x = m.gate("AND2", a[0], a[1])
    (q,) = m.register_bus([x], stage=1)
    y = m.gate("INV", q)
    m.output("o", [m.gate("AND2", y, m.const(1)) for __ in range(8)])
    return m


def _sorts():
    return obs.registry().counter_value("hdl.index.sorts")


def test_one_sort_serves_every_analysis():
    lib = default_library()
    m = _pipe()
    before = _sorts()
    validate(m)
    compiled_module(m)
    stage_map(m)
    analyze(m, lib)
    area_report(m, lib)
    estimate_power(m, lib, {"a": [0, 3, 1, 2]}, 4, attribution=True)
    assert _sorts() - before == 1


def test_every_edit_gets_a_fresh_index_and_compiled_module():
    lib = default_library()
    m = _pipe()

    def analysed():
        index, compiled = m.index, compiled_module(m)
        analyze(m, lib)
        assert compiled._gates == m.gates
        assert compiled.n_nets == m.n_nets
        return index, compiled

    def edits():
        yield lambda: m.gate("INV", m.inputs["a"][0])
        yield lambda: insert_buffers(m, lib, max_load=3.0)
        yield lambda: optimize(m)

    index, compiled = analysed()
    for edit in edits():
        n_gates = len(m.gates)
        edit()
        assert len(m.gates) != n_gates
        fresh, fresh_compiled = analysed()
        assert fresh is not index and fresh_compiled is not compiled
        index, compiled = fresh, fresh_compiled


def test_index_is_never_pickled():
    m = _pipe()
    plain = pickle.dumps(m)
    analyze(m, default_library())
    assert pickle.dumps(m) == plain
    assert "index" not in vars(pickle.loads(plain))


def test_rows_and_fanout_leave_the_collector():
    """Gate/register rows and the index's fanout are tuples of ints and
    strings, which the cyclic collector stops tracking once it has seen
    them: a built r16 (~20k gates), fanout read, adds fewer tracked
    objects than 1% of its gate count."""
    builder, params = NAMED_BUILDS["r16"]
    warm = builder(**params)           # warm imports and lazy tables
    assert warm.index.fanout
    del warm
    gc.collect()
    before = len(gc.get_objects())
    module = builder(**params)
    assert module.index.fanout
    gc.collect()
    added = len(gc.get_objects()) - before
    assert added < len(module.gates) / 100, added
