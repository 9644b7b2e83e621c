"""Equivalence tests for the compiled simulation backend.

Every fast path the compiled backend introduced — the native and the
generated-Python levelized kernels, the per-gate closures, the
truth-table C event kernel and the
delta-stimulus :meth:`EventSimulator.replay` that Monte Carlo power
rides — claims bit-identity with the historic reference
implementation it replaced (kept in ``tests/oracles/``).  These tests
pin that claim down kind-by-kind, on random netlists (registered ones
included), and on the real multipliers.
"""

import dataclasses
import math
import os
import random
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.errors import NetlistError, SimulationError
from repro.hdl.cell import CELL_KINDS, cell_num_inputs
from repro.hdl.library import default_library
from repro.hdl.module import Module
from repro.hdl.power.monte_carlo import (
    estimate_power,
    shared_event_simulator,
)
from repro.hdl.sim import ckernel, event
from repro.hdl.sim.compile import compiled_module, gate_expr
from repro.hdl.sim.event import EventSimulator
from repro.hdl.sim.levelized import LevelizedSimulator
from tests.oracles.cells import CELLS
from tests.oracles.event_heap import HeapEventSimulator, event_toggles_legacy
from tests.oracles.kernel_tables import reference_kernel_tables
from tests.oracles.levelized import interpreted_run
from tests.test_hdl_properties import (
    module_and_patterns,
    registered_module_and_patterns,
)

KINDS = sorted(CELLS)

HAVE_C = ckernel.load_kernel() is not None
needs_c = pytest.mark.skipif(not HAVE_C, reason="C library unavailable")

#: The levelized kernels every equivalence case runs on: the native one
#: wherever the C library loads, and the generated-Python fallback.
LEVELIZED_KERNELS = ("c", "python") if HAVE_C else ("python",)


def _sim(module, kernel):
    """A :class:`LevelizedSimulator` on the named levelized kernel."""
    sim = LevelizedSimulator(module)
    if kernel == "python":
        sim._lib = None
    assert sim.kernel == kernel
    return sim


def _stimulus_words(rng, width, n):
    """``n`` words with bits beyond ``width`` set and some negative: the
    kernels must ignore both, as ``bit_transpose`` does."""
    return [rng.getrandbits(width + 7) - (1 << (width + 3))
            for __ in range(n)]


def _wide_module():
    """A 130-bit bus through XORs, a register bank and constants: both
    bus sides span three limbs."""
    m = Module("wide")
    a = m.input("a", 130)
    one, zero = m.const(1), m.const(0)
    mixed = [m.gate("XOR2", a[i], a[(i + 1) % 130]) for i in range(130)]
    regs = [m.register(net, stage=1) for net in mixed]
    out = [m.gate("MUX2", regs[i], a[i], one) if i % 3 else
           m.gate("OR2", regs[i], zero) for i in range(130)]
    m.output("o", out)
    m.output("k", [one, zero, one])
    return m


def _input_stim(module, patterns, t):
    return {net: (patterns[t] >> i) & 1
            for i, net in enumerate(module.inputs["a"])}


# ----------------------------------------------------------------------
# the cell table's kernel expressions and truth tables vs the reference
# functions of tests/oracles/cells.py, kind by kind
# ----------------------------------------------------------------------

class TestCodegenTemplates:
    """``gate_expr`` renders each kind's table row; ``cell_eval`` in the
    test names is the reference function it must match."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_scalar_expression_matches_cell_eval(self, kind):
        fn, arity = CELLS[kind]
        gate = (kind, tuple(range(arity)), arity, "")
        expr = gate_expr(gate)
        for idx in range(1 << arity):
            bits = [(idx >> j) & 1 for j in range(arity)]
            got = eval(expr, {"v": bits, "M": 1}) & 1
            assert got == fn(1, *bits) & 1, (kind, bits)

    @pytest.mark.parametrize("kind", KINDS)
    def test_packed_expression_matches_cell_eval(self, kind):
        # All input combinations at once: pattern i carries combination i.
        fn, arity = CELLS[kind]
        n = 1 << arity
        m = (1 << n) - 1
        words = []
        for j in range(arity):
            packed = 0
            for i in range(n):
                packed |= ((i >> j) & 1) << i
            words.append(packed)
        gate = (kind, tuple(range(arity)), arity, "")
        expr = gate_expr(gate)
        got = eval(expr, {"v": words, "M": m}) & m
        assert got == fn(m, *words) & m


class TestTruthTable:
    @pytest.mark.parametrize("kind", KINDS)
    def test_table_matches_cell_eval(self, kind):
        fn, arity = CELLS[kind]
        table = CELL_KINDS[kind].truth_table
        # All 16 slots — including the padded high bits, which must
        # replicate the low-arity output so a padded input slot (wired
        # to input 0 by the kernel) can never change the result.
        for idx in range(16):
            bits = [(idx >> j) & 1 for j in range(arity)]
            assert (table >> idx) & 1 == fn(1, *bits) & 1, (kind, idx)


# ----------------------------------------------------------------------
# compiled levelized kernel vs interpreted reference
# ----------------------------------------------------------------------

class TestCompiledLevelized:
    @given(module_and_patterns())
    @settings(max_examples=50, deadline=None)
    def test_matches_interpreter_on_random_netlists(self, case):
        module, patterns = case
        n = len(patterns)
        interp = interpreted_run(module, {"a": patterns}, n)
        for kernel in LEVELIZED_KERNELS:
            compiled = _sim(module, kernel).run({"a": patterns}, n)
            # Net-for-net, every pattern word identical.
            assert compiled.values == interp.values, kernel

    def test_matches_interpreter_on_radix16(self):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module("r16")
        stim = WorkloadGenerator(7).multiplier_stimulus(4)
        interp = interpreted_run(module, stim, 4)
        for kernel in LEVELIZED_KERNELS:
            compiled = _sim(module, kernel).run(stim, 4)
            assert compiled.bus_words(module.outputs["p"]) \
                == interp.bus_words(module.outputs["p"]), kernel
            assert compiled.values == interp.values, kernel

    @pytest.mark.parametrize("n", [1, 7, 13, 63, 64, 65, 70, 100, 131,
                                   514])
    @given(registered_module_and_patterns(n_patterns=1))
    @settings(max_examples=8, deadline=None)
    def test_pattern_counts_across_limb_edges(self, n, case):
        module, __ = case
        rng = random.Random(n)
        # One pattern short: the missing last pattern defaults to 0.
        stim = {"a": _stimulus_words(rng, 6, n - 1)}
        interp = interpreted_run(module, stim, n)
        for kernel in LEVELIZED_KERNELS:
            run = _sim(module, kernel).run(stim, n)
            assert run.bus_words(module.outputs["o"]) \
                == interp.bus_words(module.outputs["o"]), kernel
            assert run.toggles_per_net() == interp.toggles_per_net(), kernel
            assert run.values == interp.values, kernel

    @pytest.mark.parametrize("n", [1, 64, 65, 200])
    def test_bus_wider_than_a_limb(self, n):
        module = _wide_module()
        stim = {"a": _stimulus_words(random.Random(n), 130, n)}
        interp = interpreted_run(module, stim, n)
        for kernel in LEVELIZED_KERNELS:
            run = _sim(module, kernel).run(stim, n)
            for name in ("o", "k"):
                bus = module.outputs[name]
                words = run.bus_words(bus)
                assert words == interp.bus_words(bus), kernel
                assert words == [interp.bus_word(bus, t) for t in range(n)]
            assert run.toggles_per_net() == interp.toggles_per_net(), kernel
            assert run.values == interp.values, kernel

    @needs_c
    def test_native_run_generates_no_python_kernel(self):
        module = _wide_module()
        sim = _sim(module, "c")
        stim = {"a": _stimulus_words(random.Random(3), 130, 70)}
        sim.run(stim, 70).bus_words(module.outputs["o"])
        sim.run(stim, 70).toggles_per_net()
        assert compiled_module(module)._level_fns is None


# ----------------------------------------------------------------------
# time-wheel engine vs heapq reference
# ----------------------------------------------------------------------

class TestWheelMatchesHeap:
    @given(module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_identical_transition_counts(self, case):
        module, patterns = case
        lib = default_library()
        wheel = EventSimulator(module, lib)
        heap = HeapEventSimulator(module, lib)
        wheel.initialize(_input_stim(module, patterns, 0))
        heap.initialize(_input_stim(module, patterns, 0))
        assert list(wheel.values) == heap.values
        for t in range(1, len(patterns)):
            cw = wheel.apply(_input_stim(module, patterns, t))
            ch = heap.apply(_input_stim(module, patterns, t))
            assert cw.toggles == ch.toggles
            assert cw.settle_time_ps == ch.settle_time_ps
            assert list(wheel.values) == heap.values


# ----------------------------------------------------------------------
# replay(): C kernel, wheel fallback, heap reference — one answer
# ----------------------------------------------------------------------

class TestReplay:
    @given(module_and_patterns())
    @settings(max_examples=30, deadline=None)
    def test_matches_per_cycle_heap_apply(self, case):
        module, patterns = case
        n = len(patterns)
        lib = default_library()
        run = LevelizedSimulator(module).run({"a": patterns}, n)

        esim = EventSimulator(module, lib)
        counts = esim.replay(run.values, 1, n - 1)

        heap = HeapEventSimulator(module, lib)
        heap.initialize(_input_stim(module, patterns, 0))
        totals = [0] * module.n_nets
        last = None
        for t in range(1, n):
            last = heap.apply(_input_stim(module, patterns, t),
                              toggles_out=totals)
        assert counts.toggles == totals
        assert counts.settle_time_ps == last.settle_time_ps
        assert list(esim.values) == heap.values

    @given(module_and_patterns())
    @settings(max_examples=20, deadline=None)
    def test_python_fallback_matches_kernel_path(self, case):
        module, patterns = case
        n = len(patterns)
        lib = default_library()
        run = LevelizedSimulator(module).run({"a": patterns}, n)
        fast = EventSimulator(module, lib)
        slow = EventSimulator(module, lib)
        slow._ck = None        # force the pure-Python replay path
        cf = fast.replay(run.values, 1, n - 1)
        cs = slow.replay(run.values, 1, n - 1)
        assert cf.toggles == cs.toggles
        assert cf.settle_time_ps == cs.settle_time_ps
        assert fast.values == slow.values

    def test_settles_to_final_cycle_state(self):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module("r4")
        n = 6
        stim = WorkloadGenerator(11).multiplier_stimulus(n)
        run = LevelizedSimulator(module).run(stim, n)
        esim = EventSimulator(module, default_library())
        counts = esim.replay(run.values, 1, n - 1)
        # Feed-forward logic: the settled state after the last transition
        # is the zero-delay state of the last cycle.
        for net in range(module.n_nets):
            assert esim.values[net] == run.net_value(net, n - 1)
        assert counts.total() >= sum(run.toggles_per_net())
        # Perf counters accumulated across the whole window.
        assert esim.stats["applies"] == n - 1
        assert esim.stats["events"] == counts.events_processed

    def test_window_validation(self):
        m = Module("demo")
        a = m.input("a", 1)
        m.output("o", [m.gate("INV", a[0])])
        esim = EventSimulator(m, default_library())
        packed = [0] * m.n_nets
        with pytest.raises(SimulationError, match="window"):
            esim.replay(packed, 0, 3)
        with pytest.raises(SimulationError, match="window"):
            esim.replay(packed, 3, 2)
        with pytest.raises(SimulationError, match="every net"):
            esim.replay([0], 1, 2)

    def test_long_window_chunking(self):
        # More transitions than one C-kernel window (63) in one replay.
        m = Module("chain")
        a = m.input("a", 1)
        net = a[0]
        for __ in range(5):
            net = m.gate("INV", net)
        m.output("o", [net])
        n = 150
        patterns = [(t * 0x9E3779B9 >> 7) & 1 for t in range(n)]
        run = LevelizedSimulator(m).run({"a": patterns}, n)
        esim = EventSimulator(m, default_library())
        counts = esim.replay(run.values, 1, n - 1)
        flips = sum(patterns[t] != patterns[t - 1] for t in range(1, n))
        # A pure inverter chain can't glitch: every net toggles exactly
        # once per input flip.
        assert counts.toggles == [flips] * m.n_nets
        for net_id in range(m.n_nets):
            assert esim.values[net_id] == run.net_value(net_id, n - 1)


# ----------------------------------------------------------------------
# the C kernel's bucket ring vs the heapq reference: event bookkeeping
# ----------------------------------------------------------------------

def _heap_window(module, lib, run, t_first, t_last, bucket_ps=None):
    """The heap oracle over transitions ``t_first..t_last`` of ``run``:
    ``(toggles, counts, last counts, oracle)``, ``counts`` the window's
    ``[events, cancelled, slots, max slot, shared buckets]`` (the last
    at ring bucket width ``bucket_ps``), its stimulus stepped in the
    canonical order (input buses, then register q nets)."""
    order = ([net for bus in module.inputs.values() for net in bus]
             + [q for __, q, __, __ in module.registers])
    heap = HeapEventSimulator(module, lib, bucket_ps)
    heap.initialize({net: run.net_value(net, t_first - 1) for net in order})
    totals = [0] * module.n_nets
    counts = [0, 0, 0, 0, 0]
    last = None
    for t in range(t_first, t_last + 1):
        last = heap.apply({net: run.net_value(net, t) for net in order},
                          toggles_out=totals)
        counts[0] += last.events_processed
        counts[1] += last.cancelled
        counts[2] += last.wheel_buckets
        counts[3] = max(counts[3], last.wheel_max_bucket)
        counts[4] += last.ring_shared_buckets
    return totals, counts, last, heap


#: Span counts the C-kernel replay is forced to split into; 1 is the
#: serial replay.
SPAN_COUNTS = (1, 2, 3, 4)


def _forced_spans(n):
    """Force every replay to split into ``min(n, transitions)`` spans."""
    return mock.patch.object(event, "replay_span_count",
                             lambda transitions: min(n, transitions))


def _assert_kernel_matches_heap(module, lib, run, t_first, t_last):
    """A C-kernel replay of the window, split into each of
    :data:`SPAN_COUNTS` contiguous spans, equals the heap oracle in
    every count it keeps, occupancy included (one slot per distinct
    maturity time, and the new times meeting an occupied bucket of the
    kernel's ring); returns the serial replay's counts."""
    q = ckernel.ring_geometry(module.index.library(lib).delays)[0]
    totals, expected, last, heap = _heap_window(module, lib, run,
                                                t_first, t_last, q)
    got = []
    for n in SPAN_COUNTS:
        esim = EventSimulator(module, lib)
        assert esim.kernel == "c"
        with _forced_spans(n):
            counts = esim.replay(run.packed, t_first, t_last)
        assert counts.spans == min(n, t_last - t_first + 1)
        assert len(counts.span_s) == counts.spans
        assert counts.ring_bucket_ps == q
        assert counts.toggles == totals
        assert [counts.events_processed, counts.cancelled,
                counts.wheel_buckets, counts.wheel_max_bucket,
                counts.ring_shared_buckets] == expected
        assert counts.settle_time_ps == last.settle_time_ps
        assert list(esim.values) == heap.values
        got.append(counts)
    return got[0]


def _slot_stress_module(n_loads, n_wide):
    """A flip of ``a[0]`` schedules at once an evaluation of one gate of
    every kind at every load of 1..``n_loads`` inverters: hundreds of
    distinct maturity times pending together.  ``a[1]`` and ``a[2]``
    both drive ``n_wide`` equal-load XOR2s, whose evaluations (two per
    gate when both flip, one cancelling the other) mature together."""
    m = Module("slots")
    a = m.input("a", 3)
    for kind in KINDS:
        for load in range(1, n_loads + 1):
            out = m.gate(kind, *[a[0]] * cell_num_inputs(kind))
            for __ in range(load):
                m.gate("INV", out)
    m.output("o", [m.gate("XOR2", a[1], a[2]) for __ in range(n_wide)])
    return m


@needs_c
class TestKernelEventCounts:
    """The C kernel runs the heap engine's schedule-per-trigger
    algorithm, so besides toggles, settle time and values its event and
    cancellation counts must equal the oracle's too — at every split
    into spans, since each span seeds from the levelized words of the
    cycle before it and cancellation never reaches across a
    transition."""

    @given(module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_random_netlists(self, case):
        module, patterns = case
        n = len(patterns)
        run = LevelizedSimulator(module).run({"a": patterns}, n)
        _assert_kernel_matches_heap(module, default_library(), run, 1, n - 1)

    @given(registered_module_and_patterns(n_patterns=8))
    @settings(max_examples=30, deadline=None)
    def test_registered_netlists(self, case):
        module, patterns = case
        n = len(patterns)
        run = LevelizedSimulator(module).run({"a": patterns}, n)
        _assert_kernel_matches_heap(module, default_library(), run, 1, n - 1)

    def test_named_r4(self):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module("r4")
        n = 6
        stim = WorkloadGenerator(11).multiplier_stimulus(n)
        run = LevelizedSimulator(module).run(stim, n)
        # Span threads switching as often as they can lose no count.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = _assert_kernel_matches_heap(module, default_library(),
                                                 run, 1, n - 1)
        finally:
            sys.setswitchinterval(interval)
        assert (counts.events_processed, counts.cancelled) \
            == (139_148, 33_047)

    def test_slot_table_growth_and_long_slots(self):
        lib = default_library()
        module = _slot_stress_module(n_loads=20, n_wide=300)
        index = module.index
        delays = index.library(lib).delays
        a0 = module.inputs["a"][0]
        assert len({delays[g] for g in index.fanout[a0]}) \
            > ckernel.WHEEL_INITIAL_SLOTS
        n = ckernel.WINDOW_TRANSITIONS + 1
        rng = random.Random(5)
        # a[0] flips in transitions 1, 20, 40 and 41 only (the oracle
        # is slow); a[1] and a[2] flip together in transition 1.  The
        # serial replay's one window holds every span boundary.
        patterns = [rng.getrandbits(2) << 1 | (1 <= t < 20 or t == 40)
                    for t in range(n)]
        patterns[0] = 0
        patterns[1] = 0b111
        run = LevelizedSimulator(module).run({"a": patterns}, n)
        counts = _assert_kernel_matches_heap(module, lib, run, 1, n - 1)
        assert counts.wheel_max_bucket >= 2 * 300

    def test_zero_delay_events_join_the_slot_being_drained(self):
        """With zero-delay buffers an event matures at the time being
        drained; the heap pops it after that time's older events, the
        wheel appends it to the slot it is walking."""
        lib = default_library()
        buf = lib.spec("BUF")
        lib = dataclasses.replace(lib, cells={
            **lib.cells,
            "BUF": dataclasses.replace(buf, intrinsic_ps=0.0,
                                       slope_ps=0.0)})
        m = Module("zero")
        a = m.input("a", 4)
        outs = []
        for i in range(4):
            x = m.gate("XOR2", a[i], a[(i + 1) % 4])
            b1 = m.gate("BUF", x)
            b2 = m.gate("BUF", b1)
            outs.append(m.gate("AND2", b2, m.gate("INV", a[(i + 2) % 4])))
            outs.append(m.gate("BUF", m.gate("XOR2", b1, x)))
        m.output("o", outs)
        n = 40
        rng = random.Random(9)
        patterns = [rng.getrandbits(4) for __ in range(n)]
        run = LevelizedSimulator(m).run({"a": patterns}, n)
        counts = _assert_kernel_matches_heap(m, lib, run, 1, n - 1)
        assert counts.events_processed > counts.wheel_buckets


# ----------------------------------------------------------------------
# the bucket ring's geometry, and the ring on libraries that stress it
# ----------------------------------------------------------------------

def _assert_tables_match(module):
    """The kernel's native tables equal the per-gate flattening."""
    esim = EventSimulator(module, default_library())
    assert esim.kernel == "c"
    ck, n_gates = esim._ck, len(module.gates)
    native = (list(ck._gin[:4 * n_gates]), list(ck._ttab[:n_gates]),
              list(ck._gout[:n_gates]), list(ck._fo_ptr),
              list(ck._fo_dat[:ck._fo_ptr[module.n_nets]]))
    assert "fanout" not in module.index.__dict__
    reference = reference_kernel_tables(module)
    for name, got, want in zip(("gin", "ttab", "gout", "fo_ptr", "fo_dat"),
                               native, reference):
        assert got == want, name


def _repeated_pin_module():
    """Every cell kind, each once on distinct nets and once reading one
    net on all its pins, plus registers and both constants."""
    m = Module("repeated")
    a = m.input("a", 4)
    pool = list(a) + [m.const(0), m.const(1)]
    for kind in CELL_KINDS:
        arity = cell_num_inputs(kind)
        pool.append(m.gate(kind, *pool[-arity:]))
        pool.append(m.gate(kind, *[pool[-2]] * arity))
        pool.append(m.register(pool[-1], stage=1))
    m.output("o", pool[-6:])
    return m


@needs_c
class TestKernelTables:
    """``ck_tables`` builds the event kernel's gate tables and CSR
    fanout from the compiled node table; they equal the per-gate
    flattening of ``tests/oracles/kernel_tables.py`` (padded pins, one
    fanout entry per real pin, ascending) on every netlist shape."""

    @given(registered_module_and_patterns())
    @settings(max_examples=60, deadline=None)
    def test_random_netlists(self, case):
        module, __ = case
        _assert_tables_match(module)

    def test_every_kind_with_repeated_pins(self):
        module = _repeated_pin_module()
        _assert_tables_match(module)
        fanout = module.index.fanout
        for g, (kind, ins, __, __) in enumerate(module.gates):
            if len(set(ins)) == 1 < len(ins):
                assert fanout[ins[0]].count(g) == len(ins), kind

    def test_repeated_pins_replay_like_the_heap(self):
        module = _repeated_pin_module()
        rng = random.Random(5)
        n = 12
        run = LevelizedSimulator(module).run(
            {"a": [rng.randrange(16) for __ in range(n)]}, n)
        _assert_kernel_matches_heap(module, default_library(), run, 1, n - 1)

    def test_buffered_netlist_reading_later_bufs(self):
        from repro.circuits.mult_common import build_multiplier

        module = build_multiplier(2, width=8, buffer_max_load=3.0)
        assert any(kind != "BUF" and max(ins) > out
                   for kind, ins, out, __ in module.gates)
        _assert_tables_match(module)

    @pytest.mark.parametrize("name", ["r4", "mf"])
    def test_named_designs(self, name):
        from repro.eval.experiments import NAMED_BUILDS

        builder, params = NAMED_BUILDS[name]
        _assert_tables_match(builder(**params))


class TestFanoutOnDemand:
    """A native replay never builds the index's tuple fanout; the
    Python wheel builds it on its first ``apply`` and reads it."""

    @staticmethod
    def _module():
        from repro.circuits.mult_common import build_multiplier
        from repro.eval.workloads import WorkloadGenerator

        stim = WorkloadGenerator(3).multiplier_stimulus(6)
        return build_multiplier(2, width=8), {
            bus: [w & 0xFF for w in words] for bus, words in stim.items()}

    @staticmethod
    def _builds():
        from repro import obs

        return obs.registry().snapshot()["counters"].get(
            "hdl.index.fanout_builds", 0)

    @needs_c
    def test_native_estimate_builds_no_fanout(self):
        module, stim = self._module()
        before = self._builds()
        report = estimate_power(module, default_library(), stim, 6,
                                attribution=True)
        assert report.sim_stats["kernel"] == "c"
        assert "fanout" not in module.index.__dict__
        assert self._builds() == before

    def test_python_wheel_builds_and_reads_it(self):
        module, stim = self._module()
        lib = default_library()
        esim = EventSimulator(module, lib)
        esim._ck = None                     # the Python wheel's replay
        assert "fanout" not in module.index.__dict__
        before = self._builds()
        run = LevelizedSimulator(module).run(stim, 6)
        counts = esim.replay(run.packed, 1, 5)
        assert esim._fanout is module.index.fanout
        assert self._builds() == before + 1
        totals, __, last, __ = _heap_window(module, lib, run, 1, 5)
        assert counts.toggles == totals
        assert counts.settle_time_ps == last.settle_time_ps


def _library_with(change):
    """The default library with every cell spec passed through
    ``change(kind, spec) -> spec``."""
    lib = default_library()
    return dataclasses.replace(lib, cells={
        kind: change(kind, spec) for kind, spec in lib.cells.items()})


def _off_grid_library():
    """Every delay a third of the default's: on no power-of-two grid
    the ring could use, so buckets hold several distinct times."""
    return _library_with(lambda kind, spec: dataclasses.replace(
        spec, intrinsic_ps=spec.intrinsic_ps / 3,
        slope_ps=spec.slope_ps / 3))


def _fine_library():
    """INV 2**-10 ps slower: a grid so fine that ``dmax / q`` exceeds
    :data:`~repro.hdl.sim.ckernel.RING_MAX_BUCKETS`, so the ring widens
    its buckets; inverter chains then end 2**-10 ps apart, inside one
    bucket."""
    return _library_with(lambda kind, spec: dataclasses.replace(
        spec, intrinsic_ps=spec.intrinsic_ps + 2 ** -10)
        if kind == "INV" else spec)


#: Whole-ps, load-independent delays, INV 1 ps and the slowest kinds
#: 8 ps: the ring's buckets are 1 ps wide and every maturity time lies
#: exactly on a bucket boundary.
_BOUNDARY_PS = {**{kind: float(1 + i % 7)
                   for i, kind in enumerate(sorted(CELL_KINDS))},
                "INV": 1.0, "XOR2": 8.0, "XNOR2": 8.0, "XOR3": 8.0,
                "MAJ3": 8.0, "MUX2": 8.0}


def _boundary_library():
    return _library_with(lambda kind, spec: dataclasses.replace(
        spec, intrinsic_ps=_BOUNDARY_PS[kind], slope_ps=0.0))


def _boundary_module():
    """Under :func:`_boundary_library`: an inverter chain (1 ps a
    stage) and XOR2s (8 ps, the largest delay) closing over it, so a
    flip of ``a[0]`` keeps events pending at every time from ``now`` to
    ``now + 8`` ps - the ring's whole window - while 8 ps evaluations
    are cancelled by newer ones."""
    m = Module("boundary")
    a = m.input("a", 3)
    chain = [a[0]]
    for __ in range(12):
        chain.append(m.gate("INV", chain[-1]))
    outs = [m.gate("XOR2", chain[i], chain[i + j])
            for i in range(0, 12, 3) for j in (1, 4, 7) if i + j <= 12]
    outs.append(m.gate("XOR2", a[1], chain[8]))
    outs.append(m.gate("MUX2", a[2], chain[5], chain[12]))
    m.output("o", outs)
    return m


class TestRingGeometry:
    def test_bucket_is_the_coarsest_grid_of_the_delays(self):
        assert ckernel.ring_geometry([12.0, 116.0]) == (4.0, 32)
        assert ckernel.ring_geometry([12.5, 116.0, 0.0]) == (0.5, 256)
        assert ckernel.ring_geometry([1.0, 8.0]) == (1.0, 16)
        # No non-zero delay: every event matures at t = 0.
        assert ckernel.ring_geometry([]) == (1.0, 4)
        assert ckernel.ring_geometry([0.0, 0.0]) == (1.0, 4)

    @pytest.mark.parametrize("delays", [
        [12.0 + 2 ** -10, 116.0],
        [1 / 3, 116.0],
        [2.0 ** -1074, 1.0],
        [2.0 ** -1074],
        [1e300, 3.0],
    ])
    def test_ring_spans_the_window_within_the_cap(self, delays):
        q, n = ckernel.ring_geometry(delays)
        dmax = max(delays)
        assert n & (n - 1) == 0 and n <= ckernel.RING_MAX_BUCKETS
        assert n >= dmax / q + 3
        assert math.frexp(q)[0] == 0.5 and math.isfinite(1 / q)
        assert q == 2.0 ** -32 or q / 2 < dmax / (ckernel.RING_MAX_BUCKETS - 3)

    def test_named_designs_use_the_whole_cap(self):
        # The default library's loads (1.1, 1.5, 2.2 ...) put some
        # delays off every power-of-two grid, so the cap sets q.
        from repro.eval.experiments import cached_module

        delays = cached_module("r4").index.library(default_library()).delays
        assert ckernel.ring_geometry(delays) \
            == (2.0 ** -5, ckernel.RING_MAX_BUCKETS)

    @needs_c
    @pytest.mark.parametrize("field, value", [
        ("slope_ps", -100.0),
        ("intrinsic_ps", math.inf),
        ("intrinsic_ps", math.nan),
    ])
    def test_unorderable_delay_raises_naming_the_gate(self, field, value):
        lib = _library_with(lambda kind, spec: dataclasses.replace(
            spec, **{field: value}) if kind == "NAND2" else spec)
        m = Module("bad")
        a = m.input("a", 2)
        m.output("o", [m.gate("INV", a[0]), m.gate("NAND2", a[0], a[1])])
        with pytest.raises(SimulationError,
                           match=r"gate 1 \(NAND2 driving net \d+\)"):
            EventSimulator(m, lib)


@needs_c
class TestRingLibraries:
    """The ring equals the heap oracle where its buckets are shared or
    its window is tight, at every span count; the oracle counts the
    shared buckets from ``floor(t / q)`` itself."""

    def _named_r4(self, lib):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module("r4")
        n = 4
        run = LevelizedSimulator(module).run(
            WorkloadGenerator(13).multiplier_stimulus(n), n)
        return _assert_kernel_matches_heap(module, lib, run, 1, n - 1)

    @given(module_and_patterns())
    @settings(max_examples=20, deadline=None)
    def test_random_netlists(self, case):
        module, patterns = case
        n = len(patterns)
        run = LevelizedSimulator(module).run({"a": patterns}, n)
        for lib in (_off_grid_library(), _fine_library(),
                    _boundary_library()):
            _assert_kernel_matches_heap(module, lib, run, 1, n - 1)

    def test_off_grid_library(self):
        assert self._named_r4(_off_grid_library()).ring_shared_buckets > 0

    def test_widened_ring(self):
        lib = _fine_library()
        from repro.eval.experiments import cached_module

        delays = cached_module("r4").index.library(lib).delays
        assert max(delays) / 2 ** -10 > ckernel.RING_MAX_BUCKETS
        counts = self._named_r4(lib)
        assert counts.ring_bucket_ps > 2 ** -10
        assert counts.ring_shared_buckets > 0

    def test_times_on_bucket_boundaries(self):
        m = _boundary_module()
        n = 40
        rng = random.Random(21)
        patterns = [rng.getrandbits(3) for __ in range(n)]
        run = LevelizedSimulator(m).run({"a": patterns}, n)
        lib = _boundary_library()
        # [now, now + 8] holds 9 bucket boundaries: the ring needs 16.
        assert ckernel.ring_geometry(m.index.library(lib).delays) \
            == (1.0, 16)
        counts = _assert_kernel_matches_heap(m, lib, run, 1, n - 1)
        assert counts.ring_shared_buckets == 0
        assert counts.cancelled > 0


# ----------------------------------------------------------------------
# the C-kernel replay split into contiguous spans, one thread each
# ----------------------------------------------------------------------

class TestReplaySpans:
    def test_spans_are_contiguous_covering_and_never_empty(self):
        for t_first in (1, 5):
            for transitions in range(1, 70):
                t_last = t_first + transitions - 1
                for n in range(1, min(transitions, 9) + 1):
                    spans = event.replay_spans(t_first, t_last, n)
                    assert len(spans) == n
                    assert spans[0][0] == t_first
                    assert spans[-1][1] == t_last
                    for (__, last), (first, __) in zip(spans, spans[1:]):
                        assert first == last + 1
                    sizes = [last - first + 1 for first, last in spans]
                    assert min(sizes) >= 1
                    assert max(sizes) - min(sizes) <= 1

    def test_count_is_usable_cpus_capped_by_transitions(self):
        cpus = len(os.sched_getaffinity(0))
        assert event.replay_span_count(10 ** 6) == cpus
        assert event.replay_span_count(1) == 1

    @needs_c
    def test_spans_time_themselves_on_the_trace(self):
        from repro import obs

        module = _wide_module()
        n = 9
        rng = random.Random(4)
        run = LevelizedSimulator(module).run(
            {"a": [rng.getrandbits(130) for __ in range(n)]}, n)
        esim = EventSimulator(module, default_library())
        obs.start_trace()
        try:
            with _forced_spans(3):
                counts = esim.replay(run.packed, 1, n - 1)
        finally:
            events = obs.stop_trace()
        replay, = [e for e in events if e["name"] == "sim:replay"]
        assert replay["args"]["span_s"] == list(counts.span_s)
        assert len(counts.span_s) == 3
        assert all(0 < s <= replay["dur"] / 1e6 for s in counts.span_s)

    @needs_c
    def test_failing_span_raises_and_leaves_no_thread(self, monkeypatch):
        module = _wide_module()
        lib = default_library()
        n = 9
        rng = random.Random(3)
        patterns = [rng.getrandbits(130) for __ in range(n)]
        run = LevelizedSimulator(module).run({"a": patterns}, n)
        esim = EventSimulator(module, lib)
        want = esim.replay(run.packed, 1, n - 1)
        run_window = ckernel.CKernel.run

        def fail_off_main_state(ck, state, *args):
            if state is not ck.state:
                raise SimulationError("injected span failure")
            return run_window(ck, state, *args)

        baseline = threading.active_count()
        with _forced_spans(3):
            monkeypatch.setattr(ckernel.CKernel, "run", fail_off_main_state)
            with pytest.raises(SimulationError, match="injected"):
                esim.replay(run.packed, 1, n - 1)
            assert threading.active_count() == baseline
            monkeypatch.setattr(ckernel.CKernel, "run", run_window)
            again = esim.replay(run.packed, 1, n - 1)
        assert again.spans == 3
        assert again.toggles == want.toggles
        assert again.events_processed == want.events_processed


# ----------------------------------------------------------------------
# registered random netlists: register shift, replay
# ----------------------------------------------------------------------

class TestRegisteredNetlists:
    @given(registered_module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_run_matches_interpreter(self, case):
        module, patterns = case
        n = len(patterns)
        interp = interpreted_run(module, {"a": patterns}, n)
        for kernel in LEVELIZED_KERNELS:
            compiled = _sim(module, kernel).run({"a": patterns}, n)
            assert compiled.values == interp.values, kernel

    @given(registered_module_and_patterns(n_patterns=8))
    @settings(max_examples=30, deadline=None)
    def test_replay_matches_legacy_on_both_kernels(self, case):
        module, patterns = case
        n = len(patterns)
        lib = default_library()
        stim = {"a": patterns}
        legacy = event_toggles_legacy(
            module, lib, interpreted_run(module, stim, n), stim, n)
        for kernel in LEVELIZED_KERNELS:
            run = _sim(module, kernel).run(stim, n)
            for c_kernel in (True, False):
                esim = EventSimulator(module, lib)
                if not c_kernel:
                    esim._ck = None     # the pure-Python wheel replay
                # The run's own words: a limb buffer off the native
                # levelized kernel.
                counts = esim.replay(run.packed, 1, n - 1)
                assert counts.toggles == legacy, (kernel, esim.kernel)


# ----------------------------------------------------------------------
# the index's toposort
# ----------------------------------------------------------------------

class TestToposort:
    @given(module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_gate_order_is_topological(self, case):
        module, __ = case
        order = [node for node in module.index.node_order() if node >= 0]
        assert sorted(order) == list(range(len(module.gates)))
        position = {gidx: pos for pos, gidx in enumerate(order)}
        producer = {output: i
                    for i, (__, __, output, __) in enumerate(module.gates)}
        for gidx, (__, inputs, __, __) in enumerate(module.gates):
            for net in inputs:
                if net in producer:
                    assert position[producer[net]] < position[gidx]

    def test_node_order_includes_registers(self):
        m = Module("reg")
        a = m.input("a", 1)
        inv = m.gate("INV", a[0])
        q = m.register(inv, stage=1)
        m.output("o", [m.gate("BUF", q)])
        order = m.index.node_order()
        assert -1 in order                   # register 0 encoded as -1
        assert sorted(i for i in order if i >= 0) == [0, 1]
        # The register comes after its d-producer and before its q-consumer.
        assert order.index(0) < order.index(-1) < order.index(1)

    def test_cycle_raises_requested_error_type(self):
        m = Module("cyclic")
        a = m.input("a", 1)
        out1 = m.new_net()
        out2 = m.new_net()
        m._driver[out1] = "gate"
        m._driver[out2] = "gate"
        m.gates.append(("AND2", (a[0], out2), out1, ""))
        m.gates.append(("INV", (out1,), out2, ""))
        with pytest.raises(SimulationError, match="cycle"):
            m.index.node_order()
        with pytest.raises(NetlistError, match="cycle"):
            m.index.node_order(NetlistError)


# ----------------------------------------------------------------------
# Monte Carlo: shared simulator, stats, legacy glitch reference
# ----------------------------------------------------------------------

class TestMonteCarlo:
    def _module_and_stim(self, n_cycles):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module("r4")
        stim = WorkloadGenerator(2017).multiplier_stimulus(n_cycles)
        return module, stim

    def test_shared_simulator_is_reused(self):
        module, __ = self._module_and_stim(2)
        lib = default_library()
        esim = shared_event_simulator(module, lib)
        assert shared_event_simulator(module, lib) is esim
        # Library matching is by equality, not identity.
        assert shared_event_simulator(module, default_library()) is esim

    def test_sim_stats_in_report(self):
        module, stim = self._module_and_stim(4)
        lib = default_library()
        report = estimate_power(module, lib, stim, 4)
        stats = report.sim_stats
        assert stats["engine"] == "wheel"
        assert stats["kernel"] in ("c", "python")
        assert stats["kernel"] == shared_event_simulator(module, lib).kernel
        assert stats["transitions"] == 3
        assert stats["events_processed"] > 0
        assert stats["replay_spans"] == (
            event.replay_span_count(3) if stats["kernel"] == "c" else 1)
        if stats["kernel"] == "c":
            ck = shared_event_simulator(module, lib)._ck
            assert stats["ring_bucket_ps"] == ck.ring_bucket_ps > 0
            assert stats["ring_shared_buckets"] >= 0
        else:
            assert stats["ring_bucket_ps"] == 0.0
            assert stats["ring_shared_buckets"] == 0

        flat = estimate_power(module, lib, stim, 4, glitch=False)
        assert flat.sim_stats["engine"] == "zero-delay"
        assert flat.sim_stats["replay_spans"] == 0
        assert flat.sim_stats["ring_bucket_ps"] == 0.0
        assert flat.sim_stats["ring_shared_buckets"] == 0

    def test_batch_glitch_toggles_match_legacy_reference(self):
        from repro.eval.workloads import WorkloadGenerator

        module, __ = self._module_and_stim(2)
        lib = default_library()
        for seed, n in ((4, 2), (5, 9)):
            stim = WorkloadGenerator(seed).multiplier_stimulus(n)
            got = estimate_power(module, lib, stim, n)
            run = LevelizedSimulator(module).run(stim, n)
            legacy = event_toggles_legacy(module, lib, run, stim, n)
            assert got.total_toggles == sum(legacy)
            assert got.sim_stats["transitions"] == n - 1


# ----------------------------------------------------------------------
# the compiled kernel's fallback is counted, never silent
# ----------------------------------------------------------------------

class TestKernelFallback:
    @pytest.fixture
    def fresh_loader(self, monkeypatch):
        from repro import obs

        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_load_attempted", False)
        monkeypatch.setattr(ckernel, "fallback_reason", None)
        return obs.registry()

    def _fallbacks(self, reg):
        return reg.snapshot()["counters"].get("sim.ckernel.fallback", 0)

    def test_compile_flags_name_the_library(self, tmp_path, monkeypatch):
        path = ckernel._library_path(tmp_path)
        assert ckernel._library_path(tmp_path) == path
        monkeypatch.setattr(ckernel, "CFLAGS", ckernel.CFLAGS + ("-O3",))
        assert ckernel._library_path(tmp_path) != path

    def test_build_compiles_with_cflags(self, tmp_path, monkeypatch):
        commands = []

        def no_compile(cmd, **kwargs):
            commands.append(cmd)
            raise OSError("not compiling")

        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
        monkeypatch.setenv("CC", "cc")
        monkeypatch.setattr(ckernel.subprocess, "run", no_compile)
        with pytest.raises(OSError, match="not compiling"):
            ckernel._build_and_load()
        flags = list(ckernel.CFLAGS)
        assert commands[0][1:1 + len(flags)] == flags

    def test_build_failure_is_counted_with_reason(self, fresh_loader,
                                                  monkeypatch):
        def broken():
            raise OSError("linker exploded")

        monkeypatch.setattr(ckernel, "_build_and_load", broken)
        before = self._fallbacks(fresh_loader)
        assert ckernel.load_kernel() is None
        assert ckernel.fallback_reason == "build_failed: linker exploded"
        assert self._fallbacks(fresh_loader) == before + 1
        rows = fresh_loader.snapshot()["records"]["sim.ckernel.fallback"]
        assert rows[-1] == {"reason": "build_failed: linker exploded"}
        # Once per process: a second call neither retries nor recounts.
        assert ckernel.load_kernel() is None
        assert self._fallbacks(fresh_loader) == before + 1

    def test_concurrent_first_calls_share_one_build(self, fresh_loader,
                                                   monkeypatch):
        builds = []
        library = object()

        def slow_build():
            builds.append(threading.get_ident())
            time.sleep(0.3)
            return library

        monkeypatch.setattr(ckernel, "_build_and_load", slow_build)
        before = self._fallbacks(fresh_loader)
        got = []
        threads = [threading.Thread(
            target=lambda: got.append(ckernel.load_kernel()))
            for __ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == [library, library]
        assert len(builds) == 1
        assert ckernel.fallback_reason is None
        assert self._fallbacks(fresh_loader) == before

    def test_missing_compiler_and_opt_out_reasons(self, fresh_loader,
                                                  monkeypatch):
        monkeypatch.setattr(ckernel, "_build_and_load", lambda: None)
        assert ckernel.load_kernel() is None
        assert ckernel.fallback_reason == "no_compiler"

        monkeypatch.setattr(ckernel, "_load_attempted", False)
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        assert ckernel.load_kernel() is None
        assert ckernel.fallback_reason == "disabled"


# ----------------------------------------------------------------------
# on-disk module cache
# ----------------------------------------------------------------------

class TestModuleDiskCache:
    """Named netlists are entries of the result store: one
    digest-addressed object per name, charged to ``module_cache.*``."""

    @staticmethod
    def _counter(name):
        from repro import obs

        return obs.registry().snapshot()["counters"].get(name, 0)

    @staticmethod
    def _cold(monkeypatch, root):
        """Point the store at ``root`` and empty the in-process level
        (each test empties it again on the way out, so no tmp_path-backed
        module outlives it)."""
        from repro.eval.experiments import cached_module

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(root))
        cached_module.cache_clear()

    def test_pickle_roundtrip(self, tmp_path, monkeypatch):
        from repro.eval.experiments import cached_module

        try:
            self._cold(monkeypatch, tmp_path)
            first = cached_module("r4")
            files = list((tmp_path / "objects").glob("*.pkl"))
            assert len(files) == 1
            hits = self._counter("module_cache.hits")
            cached_module.cache_clear()
            second = cached_module("r4")   # from the store
            assert self._counter("module_cache.hits") == hits + 1
            assert second.n_nets == first.n_nets
            assert ([kind for kind, __, __, __ in second.gates]
                    == [kind for kind, __, __, __ in first.gates])
            assert second.inputs.keys() == first.inputs.keys()
        finally:
            cached_module.cache_clear()

    def test_store_roundtrip_rows_equal_a_fresh_build(self, tmp_path,
                                                      monkeypatch):
        """Gate and register rows come back from the store as the plain
        tuples a fresh build makes, field for field."""
        from repro.eval.experiments import NAMED_BUILDS, cached_module

        try:
            self._cold(monkeypatch, tmp_path)
            cached_module("r4_pipe")
            cached_module.cache_clear()
            hits = self._counter("module_cache.hits")
            loaded = cached_module("r4_pipe")   # from the store
            assert self._counter("module_cache.hits") == hits + 1
        finally:
            cached_module.cache_clear()
        builder, params = NAMED_BUILDS["r4_pipe"]
        fresh = builder(**params)
        assert loaded.registers and loaded.registers == fresh.registers
        assert loaded.gates == fresh.gates
        assert {type(row) for row in loaded.gates + loaded.registers} \
            == {tuple}

    def test_corrupt_entry_is_counted_and_replaced(self, tmp_path,
                                                   monkeypatch):
        import pickle

        from repro.eval.experiments import cached_module

        try:
            self._cold(monkeypatch, tmp_path)
            cached_module("reducer")
            (path,) = (tmp_path / "objects").glob("*.pkl")
            path.write_bytes(pickle.dumps({"schema": "repro.cache/1",
                                           "digest": "f" * 64,
                                           "value": "tampered"}))
            before = (self._counter("module_cache.corrupt"),
                      self._counter("module_cache.misses"),
                      self._counter("orchestrator.cache.corrupt"))
            cached_module.cache_clear()
            module = cached_module("reducer")
        finally:
            cached_module.cache_clear()
        assert (self._counter("module_cache.corrupt"),
                self._counter("module_cache.misses"),
                self._counter("orchestrator.cache.corrupt")) \
            == (before[0] + 1, before[1] + 1, before[2])
        with open(path, "rb") as fh:
            assert pickle.load(fh)["value"].n_nets == module.n_nets

    def test_cache_disabled_by_env(self, monkeypatch):
        from repro.eval.experiments import cached_module

        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        before = (self._counter("module_cache.hits"),
                  self._counter("module_cache.misses"))
        try:
            cached_module.cache_clear()
            first = cached_module("r4")
            assert cached_module("r4") is first
            cached_module.cache_clear()     # no on-disk level to hit
            assert cached_module("r4") is not first
        finally:
            cached_module.cache_clear()
        assert (self._counter("module_cache.hits"),
                self._counter("module_cache.misses")) \
            == (before[0], before[1] + 2)

    def test_parent_format_archive_imports(self, tmp_path, monkeypatch):
        """An archive that still carries the retired ``index.json``
        imports, and its module entries load without a build."""
        import io
        import json
        import tarfile

        from repro.eval.cache import ResultCache
        from repro.eval.experiments import cached_module

        try:
            self._cold(monkeypatch, tmp_path / "src")
            cached_module("r4")
            (path,) = (tmp_path / "src" / "objects").glob("*.pkl")
            archive = tmp_path / "parent.tar.gz"
            index = json.dumps({"schema": "repro.cache/1", "entries": {
                path.stem: {"name": "?", "bytes": path.stat().st_size,
                            "atime": 0.0}}}).encode()
            with tarfile.open(archive, "w:gz") as tar:
                info = tarfile.TarInfo("index.json")
                info.size = len(index)
                tar.addfile(info, io.BytesIO(index))
                tar.add(path, arcname=f"objects/{path.name}")
            dst = ResultCache(root=tmp_path / "dst", fingerprint="fp")
            assert dst.import_archive(archive) == {
                "imported": 1, "skipped": 0, "corrupt": 0}
            assert not (tmp_path / "dst" / "index.json").exists()
            self._cold(monkeypatch, tmp_path / "dst")
            hits = self._counter("module_cache.hits")
            misses = self._counter("module_cache.misses")
            cached_module("r4")
            assert (self._counter("module_cache.hits"),
                    self._counter("module_cache.misses")) \
                == (hits + 1, misses)
        finally:
            cached_module.cache_clear()
