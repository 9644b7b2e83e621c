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

import random
import threading
import time

import pytest
from hypothesis import given, settings

from repro.errors import NetlistError, SimulationError
from repro.hdl.cell import CELL_KINDS
from repro.hdl.library import default_library
from repro.hdl.module import Gate, Module
from repro.hdl.power.monte_carlo import (
    estimate_power,
    shared_event_simulator,
)
from repro.hdl.sim import ckernel
from repro.hdl.sim.compile import compiled_module, gate_expr
from repro.hdl.sim.event import EventSimulator
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.sim.toposort import topo_gate_order, topo_node_order
from tests.oracles.cells import CELLS
from tests.oracles.event_heap import HeapEventSimulator, event_toggles_legacy
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
        gate = Gate(kind, tuple(range(arity)), arity, "")
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
        gate = Gate(kind, tuple(range(arity)), arity, "")
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
        assert wheel.values == heap.values
        for t in range(1, len(patterns)):
            cw = wheel.apply(_input_stim(module, patterns, t))
            ch = heap.apply(_input_stim(module, patterns, t))
            assert cw.toggles == ch.toggles
            assert cw.settle_time_ps == ch.settle_time_ps
            assert wheel.values == heap.values


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
        assert esim.values == heap.values

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
# shared toposort
# ----------------------------------------------------------------------

class TestToposort:
    @given(module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_gate_order_is_topological(self, case):
        module, __ = case
        order = topo_gate_order(module)
        assert sorted(order) == list(range(len(module.gates)))
        position = {gidx: pos for pos, gidx in enumerate(order)}
        producer = {g.output: i for i, g in enumerate(module.gates)}
        for gidx, gate in enumerate(module.gates):
            for net in gate.inputs:
                if net in producer:
                    assert position[producer[net]] < position[gidx]

    def test_node_order_includes_registers(self):
        m = Module("reg")
        a = m.input("a", 1)
        inv = m.gate("INV", a[0])
        q = m.register(inv, stage=1)
        m.output("o", [m.gate("BUF", q)])
        order = topo_node_order(m)
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
        m.gates.append(Gate("AND2", (a[0], out2), out1, ""))
        m.gates.append(Gate("INV", (out1,), out2, ""))
        for fn in (topo_gate_order, topo_node_order):
            with pytest.raises(SimulationError, match="cycle"):
                fn(m)
            with pytest.raises(NetlistError, match="cycle"):
                fn(m, error=NetlistError)


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

        flat = estimate_power(module, lib, stim, 4, glitch=False)
        assert flat.sim_stats["engine"] == "zero-delay"

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
            assert ([g.kind for g in second.gates]
                    == [g.kind for g in first.gates])
            assert second.inputs.keys() == first.inputs.keys()
        finally:
            cached_module.cache_clear()

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
