"""Equivalence tests for the compiled simulation backend.

Every fast path the compiled backend introduced — the codegen levelized
kernel, the per-gate closures, the truth-table C event kernel, the
delta-stimulus :meth:`EventSimulator.replay`, the batched and sharded
Monte Carlo — claims bit-identity with the historic reference
implementation it replaced (kept in ``tests/oracles/``).  These tests
pin that claim down kind-by-kind, on random netlists (registered ones
included), and on the real multipliers.
"""

import time

import pytest
from hypothesis import given, settings

from repro.errors import NetlistError, SimulationError
from repro.hdl.cell import CELL_KINDS, cell_eval, cell_num_inputs
from repro.hdl.library import default_library
from repro.hdl.module import Gate, Module
from repro.hdl.power.monte_carlo import (
    estimate_power,
    estimate_power_batch,
    merge_shard_results,
    power_replay_shard,
    power_report_from_shards,
    power_shard_plan,
    shared_event_simulator,
)
from repro.hdl.sim import ckernel
from repro.hdl.sim.compile import EXPR_TEMPLATES, gate_expr
from repro.hdl.sim.event import EventSimulator
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.sim.toposort import topo_gate_order, topo_node_order
from tests.oracles.event_heap import HeapEventSimulator, event_toggles_legacy
from tests.oracles.levelized import interpreted_run, interpreted_run_segments
from tests.test_hdl_properties import (
    module_and_patterns,
    registered_module_and_patterns,
)

KINDS = sorted(CELL_KINDS)


def _input_stim(module, patterns, t):
    return {net: (patterns[t] >> i) & 1
            for i, net in enumerate(module.inputs["a"])}


# ----------------------------------------------------------------------
# codegen templates and truth tables vs cell_eval, kind by kind
# ----------------------------------------------------------------------

class TestCodegenTemplates:
    @pytest.mark.parametrize("kind", KINDS)
    def test_scalar_expression_matches_cell_eval(self, kind):
        arity = cell_num_inputs(kind)
        gate = Gate(kind, tuple(range(arity)), arity, "")
        expr = gate_expr(gate)
        fn = cell_eval(kind)
        for idx in range(1 << arity):
            bits = [(idx >> j) & 1 for j in range(arity)]
            got = eval(expr, {"v": bits, "M": 1}) & 1
            assert got == fn(1, *bits) & 1, (kind, bits)

    @pytest.mark.parametrize("kind", KINDS)
    def test_packed_expression_matches_cell_eval(self, kind):
        # All input combinations at once: pattern i carries combination i.
        arity = cell_num_inputs(kind)
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
        assert got == cell_eval(kind)(m, *words) & m

    def test_every_kind_has_a_template(self):
        assert set(EXPR_TEMPLATES) == set(CELL_KINDS)


class TestTruthTable:
    @pytest.mark.parametrize("kind", KINDS)
    def test_table_matches_cell_eval(self, kind):
        arity = cell_num_inputs(kind)
        fn = cell_eval(kind)
        table = ckernel.truth_table(fn, arity)
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
        compiled = LevelizedSimulator(module).run({"a": patterns}, n)
        interp = interpreted_run(module, {"a": patterns}, n)
        # Net-for-net, every pattern word identical.
        assert compiled.values == interp.values

    def test_matches_interpreter_on_radix16(self):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module("r16")
        stim = WorkloadGenerator(7).multiplier_stimulus(4)
        compiled = LevelizedSimulator(module).run(stim, 4)
        interp = interpreted_run(module, stim, 4)
        assert compiled.values == interp.values


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
# registered random netlists: register shift, segment mask, replay
# ----------------------------------------------------------------------

class TestRegisteredNetlists:
    @given(registered_module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_run_matches_interpreter(self, case):
        module, patterns = case
        n = len(patterns)
        compiled = LevelizedSimulator(module).run({"a": patterns}, n)
        assert compiled.values == interpreted_run(module, {"a": patterns},
                                                  n).values

    @given(registered_module_and_patterns(n_patterns=85))
    @settings(max_examples=25, deadline=None)
    def test_ragged_segments_match_interpreter(self, case):
        module, patterns = case
        jobs = []
        off = 0
        for n in (1, 7, 64, 13):
            jobs.append(({"a": patterns[off:off + n]}, n))
            off += n
        fast = LevelizedSimulator(module).run_segments(jobs)
        ref = interpreted_run_segments(module, jobs)
        assert fast.segments == ref.segments
        assert fast.values == ref.values

    @given(registered_module_and_patterns(n_patterns=8))
    @settings(max_examples=30, deadline=None)
    def test_replay_matches_legacy_on_both_kernels(self, case):
        module, patterns = case
        n = len(patterns)
        lib = default_library()
        stim = {"a": patterns}
        run = LevelizedSimulator(module).run(stim, n)
        legacy = event_toggles_legacy(module, lib, run, stim, n)
        for c_kernel in (True, False):
            esim = EventSimulator(module, lib)
            if not c_kernel:
                esim._ck = None     # the pure-Python wheel replay
            counts = esim.replay(run.values, 1, n - 1)
            assert counts.toggles == legacy, esim.kernel


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
# Monte Carlo: shared simulator, stats, batching, sharding
# ----------------------------------------------------------------------

def _power_fields(report):
    return (report.dynamic_mw, report.register_mw, report.leakage_mw,
            report.zero_delay_dynamic_mw, report.by_block_mw,
            report.total_toggles)


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
        assert stats["workers"] == 1
        assert stats["events_processed"] > 0

        flat = estimate_power(module, lib, stim, 4, glitch=False)
        assert flat.sim_stats["engine"] == "zero-delay"

    @pytest.mark.parametrize("glitch,attribution",
                             [(True, False), (False, False), (True, True)])
    def test_batch_matches_separate_runs(self, glitch, attribution):
        """Ragged superword segments equal each stimulus run alone."""
        from repro.eval.workloads import WorkloadGenerator

        module, __ = self._module_and_stim(2)
        lib = default_library()
        jobs = [(WorkloadGenerator(seed).multiplier_stimulus(n), n)
                for seed, n in ((1, 2), (2, 17), (3, 64))]
        batch = estimate_power_batch(module, lib, jobs, glitch=glitch,
                                     attribution=attribution)
        assert len(batch) == len(jobs)
        for got, (stim, n) in zip(batch, jobs):
            alone = estimate_power(module, lib, stim, n, glitch=glitch,
                                   attribution=attribution)
            assert _power_fields(got) == _power_fields(alone)
            assert got.sim_stats["transitions"] == n - 1
            assert (got.sim_stats.get("events_processed")
                    == alone.sim_stats.get("events_processed"))
            if attribution:
                assert got.attribution.render(top=5) \
                    == alone.attribution.render(top=5)
            else:
                assert got.attribution is None

    def test_batch_glitch_toggles_match_legacy_reference(self):
        from repro.eval.workloads import WorkloadGenerator

        module, __ = self._module_and_stim(2)
        lib = default_library()
        jobs = [(WorkloadGenerator(seed).multiplier_stimulus(n), n)
                for seed, n in ((4, 2), (5, 9))]
        batch = estimate_power_batch(module, lib, jobs)
        for got, (stim, n) in zip(batch, jobs):
            run = LevelizedSimulator(module).run(stim, n)
            legacy = event_toggles_legacy(module, lib, run, stim, n)
            assert got.total_toggles == sum(legacy)

    @pytest.mark.parametrize("n_cycles", [2, 9, 17])
    def test_shards_match_estimate_power(self, n_cycles):
        module, stim = self._module_and_stim(n_cycles)
        lib = default_library()
        whole = estimate_power(module, lib, stim, n_cycles)
        plan = power_shard_plan(n_cycles, 4)
        shards = [power_replay_shard(module, lib, stim, n_cycles, a, b)
                  for a, b in plan]
        merged = power_report_from_shards(module, lib, stim, n_cycles,
                                          shards)
        assert merged.total_mw == whole.total_mw
        assert _power_fields(merged) == _power_fields(whole)
        assert (merged.sim_stats["events_processed"]
                == whole.sim_stats["events_processed"])
        assert merged.sim_stats["workers"] == len(plan)

    def test_sharded_elapsed_is_replay_time(self, monkeypatch):
        """``elapsed_s`` sums the shards' replay time on the shard path,
        as it is the replay time on the batch path."""
        module, stim = self._module_and_stim(9)
        lib = default_library()
        replay = EventSimulator.replay

        def slow_replay(self, *args, **kwargs):
            time.sleep(0.02)
            return replay(self, *args, **kwargs)

        monkeypatch.setattr(EventSimulator, "replay", slow_replay)
        plan = power_shard_plan(9, 2)
        assert len(plan) == 4
        shards = [power_replay_shard(module, lib, stim, 9, a, b)
                  for a, b in plan]
        merged = power_report_from_shards(module, lib, stim, 9, shards)
        assert merged.sim_stats["elapsed_s"] >= 0.08
        whole = estimate_power(module, lib, stim, 9)
        assert whole.sim_stats["elapsed_s"] >= 0.02

    def test_merge_is_order_independent_across_kernels(self):
        module, stim = self._module_and_stim(9)
        lib = default_library()
        c_shard, py_shard = [power_replay_shard(module, lib, stim, 9, a, b)
                             for a, b in power_shard_plan(9, 4)]
        c_shard[1]["kernel"] = "c"
        py_shard[1]["kernel"] = "python"
        forward = merge_shard_results(module.n_nets, [c_shard, py_shard])
        backward = merge_shard_results(module.n_nets, [py_shard, c_shard])
        assert forward == backward
        assert forward[1]["kernel"] == "mixed"
        same = merge_shard_results(module.n_nets, [c_shard, c_shard])
        assert same[1]["kernel"] == "c"


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
    def test_pickle_roundtrip(self, tmp_path, monkeypatch):
        from repro.eval import experiments

        monkeypatch.setenv("REPRO_MODULE_CACHE", str(tmp_path))
        experiments.cached_module.cache_clear()
        try:
            first = experiments.cached_module("r4")
            files = list(tmp_path.glob("r4-*.pkl"))
            assert len(files) == 1
            experiments.cached_module.cache_clear()
            second = experiments.cached_module("r4")   # from pickle
            assert second.n_nets == first.n_nets
            assert ([g.kind for g in second.gates]
                    == [g.kind for g in first.gates])
            assert second.inputs.keys() == first.inputs.keys()
        finally:
            # Don't leave tmp_path-backed entries in the process-wide cache.
            experiments.cached_module.cache_clear()

    def test_cache_disabled_by_env(self, monkeypatch):
        from repro.eval.experiments import _module_cache_dir

        monkeypatch.setenv("REPRO_MODULE_CACHE", "0")
        assert _module_cache_dir() is None
