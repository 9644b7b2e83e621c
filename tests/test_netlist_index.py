"""The derived netlist index (:mod:`repro.hdl.index`).

Every analysis reads one index per module: one topological sort shared
by validation, the compile pass, pipeline staging, STA, area and power,
rebuilt after any edit of the module and never pickled.
"""

import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits.mult_common import build_multiplier
from repro.errors import PipelineError
from repro.eval.experiments import NAMED_BUILDS
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.area.model import area_report
from repro.hdl.buffering import insert_buffers
from repro.hdl.library import default_library
from repro.hdl.module import Module
from repro.hdl.optimize import optimize
from repro.hdl.pipeline import stage_map
from repro.hdl.power.monte_carlo import estimate_power, shared_event_simulator
from repro.hdl.sim.compile import compiled_module
from repro.hdl.timing.sta import analyze
from repro.hdl.validate import validate
from tests.oracles.toposort import kahn_order


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
        assert compiled._gates == tuple(m.gates)
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


def _tracked_slots():
    """Summed length of every list, tuple and dict the cyclic
    collector tracks: what one full collection walks through."""
    return sum(len(obj) for obj in gc.get_objects()
               if type(obj) in (list, tuple, dict))


def test_analysed_module_holds_no_large_tracked_tables():
    """An analysed module keeps its derived tables (index, compiled
    module, event simulator) as tuples and arrays, which the collector
    does not walk: after every analysis of a fresh r16, what stays
    tracked is about its one ``Module.gates`` list.

    Without the C library the glitch replay runs on the Python wheel,
    which keeps by design one evaluation closure per gate (each with
    its closure tuple) and two scratch lists; those are counted apart,
    by name, and everything else must stay under the same bound."""
    builder, params = NAMED_BUILDS["r16"]
    lib = default_library()
    stim = WorkloadGenerator(1).multiplier_stimulus(8)

    def analysed():
        module = builder(**params)
        validate(module)
        compiled_module(module)
        stage_map(module)
        analyze(module, lib)
        area_report(module, lib)
        estimate_power(module, lib, stim, 8, attribution=True)
        return module

    analysed()                   # warm imports, caches and lazy tables
    gc.collect()
    before = _tracked_slots()
    module = analysed()
    gc.collect()
    added = _tracked_slots() - before
    esim = shared_event_simulator(module, lib)
    if esim.kernel == "python":
        closures = esim._gate_val
        added -= (len(closures) + sum(len(fn.__closure__) for fn in closures)
                  + len(esim._live_seq) + len(esim._trig_mark))
    else:
        assert esim._gate_val is esim._live_seq is esim._trig_mark is None
    rows = len(module.gates) + len(module.registers)
    assert added < 1.2 * rows, (added, rows)


_ARITY_KIND = {1: "INV", 2: "AND2", 3: "AND3", 4: "AO22"}


@st.composite
def raw_netlists(draw):
    """Rows wired at random in creation order, then stored shuffled:
    gates of arity 1-4 that may read one net more than once, registers,
    and (when drawn) one pin rewired to its own or a later node's
    output, which may close a cycle."""
    n_inputs = draw(st.integers(1, 4))
    is_register = draw(st.lists(st.booleans(), max_size=16))
    rows = []
    for k, register in enumerate(is_register):
        output = n_inputs + k
        arity = 1 if register else draw(st.integers(1, 4))
        inputs = draw(st.lists(st.integers(0, output - 1),
                               min_size=arity, max_size=arity))
        rows.append([register, inputs, output])
    n_nets = n_inputs + len(rows)
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        pin = draw(st.integers(0, len(row[1]) - 1))
        row[1][pin] = draw(st.integers(row[2], n_nets - 1))
    rows = draw(st.permutations(rows))
    module = Module("raw")
    module.n_nets = n_nets
    for register, inputs, output in rows:
        if register:
            module.registers.append((inputs[0], output, 1, ""))
        else:
            module.gates.append((_ARITY_KIND[len(inputs)], tuple(inputs),
                                 output, ""))
    return module


def _producers(module):
    """net -> node code of its driver (gate index or ``-1 - ridx``)."""
    producer = {output: gidx
                for gidx, (__, __, output, __) in enumerate(module.gates)}
    producer.update((q, -1 - ridx)
                    for ridx, (__, q, __, __) in enumerate(module.registers))
    return producer


@given(raw_netlists())
@settings(max_examples=300, deadline=None)
def test_node_order_is_a_topological_permutation(module):
    """On an acyclic netlist the order holds every gate and register
    once, each after the producers of its inputs, and a second sort
    returns it again; exactly where the reference Kahn sort finds a
    cycle, the requested error type is raised."""
    try:
        kahn_order(module, PipelineError)
    except PipelineError:
        with pytest.raises(PipelineError, match="cycle"):
            module.index.node_order(PipelineError)
        return
    order = module.index.node_order(PipelineError)
    codes = (list(range(len(module.gates)))
             + [-1 - ridx for ridx in range(len(module.registers))])
    assert sorted(order) == sorted(codes)
    position = {node: pos for pos, node in enumerate(order)}
    producer = _producers(module)
    node_inputs = ([(gidx, inputs) for gidx, (__, inputs, __, __)
                    in enumerate(module.gates)]
                   + [(-1 - ridx, (d,)) for ridx, (d, __, __, __)
                      in enumerate(module.registers)])
    for node, inputs in node_inputs:
        for net in inputs:
            if net in producer:
                assert position[producer[net]] < position[node]
    module.drop_index()
    assert module.index.node_order(PipelineError) == order


def test_built_module_sorts_in_construction_order():
    """A module built through ``Module.gate``/``register`` comes out in
    output-net order: its construction order."""
    m = build_multiplier(radix_log2=2, width=8, pipeline_cut="after_ppgen",
                         buffer_max_load=None)
    assert m.registers
    by_net = sorted(_producers(m).items())
    assert m.index.node_order() == tuple(node for __, node in by_net)


def test_deep_chain_built_against_net_order():
    """A 50k-gate chain whose first gate drives the highest net: the
    first root visited is the chain's end, fifty thousand producers
    deep, which an explicit stack walks without recursion."""
    n = 50_000
    m = Module("chain")
    m.n_nets = n + 1
    m._driver[0] = "input"
    m.inputs["a"] = [0]
    for gidx in range(n):
        m.gates.append(("INV", (0 if gidx == 0 else n + 1 - gidx,),
                        n - gidx, ""))
        m._driver[n - gidx] = "gate"
    m.output("o", [1])
    assert m.index.node_order() == tuple(range(n))
