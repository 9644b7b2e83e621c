"""Equivalence tests: the patched-row fault campaign vs clone-and-re-simulate.

A campaign judges each mutant by settling the golden compiled module
with one node-table row replaced (``CompiledModule.with_gate``).  Its
contract is bit-identity with the reference of ``tests/oracles/
fault_resim.py``, which copies the netlist, mutates the copy and
simulates it from scratch.  These tests check that exhaustively on a
small hand-built pipelined module (every gate x every same-arity rekind
and every meaningful pin swap, net for net, on both levelized kernels)
and campaign by campaign on the r4, r16 and MF netlists.
"""

import random
import sys
import threading

import pytest

from repro import obs
from repro.errors import NetlistError
from repro.eval.experiments import cached_module
from repro.eval.fault_injection import (
    _MUTATION_POOLS,
    Battery,
    campaign_battery,
    chunk_plan,
    clear_campaign_cache,
    coverage_chunk,
    multiplier_battery,
    mutation_coverage,
)
from repro.hdl.cell import CELL_KINDS, cell_num_inputs
from repro.hdl.module import Module
from repro.hdl.sim import ckernel, compile as sim_compile
from repro.hdl.sim.compile import compiled_module
from repro.hdl.sim.levelized import LevelizedSimulator
from tests.oracles.fault_resim import clone_module, reference_coverage
from tests.oracles.levelized import interpreted_run

HAVE_C = ckernel.load_kernel() is not None


def _toy_module():
    """A two-stage pipelined mix of every mutation-pool arity."""
    m = Module("toy")
    a = m.input("a", 4)
    b = m.input("b", 4)
    s1 = [
        m.gate("AND2", a[0], b[0]),
        m.gate("XOR2", a[1], b[1]),
        m.gate("AO22", a[0], a[1], b[2], b[3]),
        m.gate("MAJ3", a[2], b[2], a[3]),
        m.gate("INV", b[3]),
        m.gate("OAI21", a[2], a[3], b[1]),
    ]
    q = m.register_bus(s1, stage=1)
    s2 = [
        m.gate("OR2", q[0], q[1]),
        m.gate("XOR3", q[2], q[3], q[4]),
        m.gate("NAND2", q[4], q[5]),
        m.gate("MUX2", q[0], q[3], q[5]),
    ]
    m.output("z", s2)
    return m


def _toy_battery(module, n_patterns=12, seed=3):
    """Random stimulus; expectations from the golden simulation itself.

    The first pattern is pipeline fill (stage-1 registers still zero)
    and left unchecked.
    """
    rng = random.Random(seed)
    stim = {name: [rng.getrandbits(len(bus)) for __ in range(n_patterns)]
            for name, bus in module.inputs.items()}
    run = LevelizedSimulator(module).run(stim, n_patterns)
    expected = {}
    for name, bus in module.outputs.items():
        words = list(run.bus_words(bus))
        words[0] = None
        expected[name] = words
    return Battery(stimulus=stim, n_patterns=n_patterns, expected=expected)


def _all_mutants(module):
    """Every same-arity rekind and every meaningful distinct-net swap."""
    for idx, (kind, inputs, output, block) in enumerate(module.gates):
        arity = cell_num_inputs(kind)
        for new_kind in _MUTATION_POOLS.get(arity, []):
            if new_kind != kind:
                yield idx, (new_kind, inputs, output, block)
        for i, j in CELL_KINDS[kind].swaps:
            if inputs[i] != inputs[j]:
                ins = list(inputs)
                ins[i], ins[j] = ins[j], ins[i]
                yield idx, (kind, tuple(ins), output, block)


def _patched_run(module, battery, idx, mutant):
    patched = compiled_module(module).with_gate(idx, mutant)
    return LevelizedSimulator(module, patched).run(battery.stimulus,
                                                   battery.n_patterns)


def _python_kernel(monkeypatch):
    """Route every levelized run of the test to the generated-Python
    kernel, with chunks of three statements so a patch has neighbours."""
    monkeypatch.setattr(ckernel, "load_kernel", lambda: None)
    monkeypatch.setattr(sim_compile, "CHUNK_STATEMENTS", 3)


class TestExhaustiveToy:
    @pytest.mark.parametrize("native", [True, False])
    def test_every_mutant_matches_full_resim(self, native, monkeypatch):
        if not native:
            _python_kernel(monkeypatch)
        module = _toy_module()
        battery = _toy_battery(module)
        kernel = LevelizedSimulator(module).kernel
        assert kernel == ("c" if native and HAVE_C else "python")
        checked = 0
        for idx, mutant in _all_mutants(module):
            run = _patched_run(module, battery, idx, mutant)
            twin = clone_module(module)
            twin.gates[idx] = mutant
            full_run = interpreted_run(twin, battery.stimulus,
                                       battery.n_patterns)
            assert run.values == full_run.values, \
                f"mutant {idx}: {mutant[0]} nets diverged on {kernel}"
            assert battery.check_run(module, run) \
                == battery.check_run(twin, full_run)
            checked += 1
        assert checked > 20

    def test_python_kernel_rebuilds_one_chunk(self, monkeypatch):
        """A patched module reuses every generated chunk function of
        its base except the one holding the changed statement."""
        _python_kernel(monkeypatch)
        module = _toy_module()
        battery = _toy_battery(module)
        golden = compiled_module(module)
        assert len(golden._level_fns) > 2
        for idx, mutant in _all_mutants(module):
            patched = golden.with_gate(idx, mutant)
            LevelizedSimulator(module, patched).run(battery.stimulus,
                                                    battery.n_patterns)
            fresh = [a is not b for a, b in zip(golden._level_fns,
                                                patched._level_fns)]
            assert len(fresh) == len(golden._level_fns)
            assert sum(fresh) == 1

    def test_overlay_restored_between_mutants(self):
        """Verdicts must not depend on what ran before: every patch
        works on a private copy of the golden node table."""
        module = _toy_module()
        battery = _toy_battery(module)
        golden = compiled_module(module)
        table = golden.node_table.tobytes()
        mutants = list(_all_mutants(module))

        def verdict(idx, mutant):
            run = _patched_run(module, battery, idx, mutant)
            return battery.check_run(module, run)

        first = [verdict(i, g) for i, g in mutants]
        again = [verdict(i, g) for i, g in reversed(mutants)]
        assert first == again[::-1]
        assert golden.node_table.tobytes() == table
        assert compiled_module(module) is golden

    def test_mutant_must_keep_output_net(self):
        module = _toy_module()
        golden = compiled_module(module)
        kind, inputs, __, block = module.gates[0]
        __, __, other_output, __ = module.gates[1]
        bad = (kind, inputs, other_output, block)
        with pytest.raises(NetlistError):
            golden.with_gate(0, bad)

    def test_mutant_must_keep_input_set(self):
        module = _toy_module()
        golden = compiled_module(module)
        kind, inputs, output, block = module.gates[0]
        other = module.gates[1][1][0]     # gate 1's first input net
        for bad in ((kind, (inputs[0], other), output, block),
                    ("AND3", inputs + (other,), output, block),
                    ("AND3", inputs, output, block)):
            with pytest.raises(NetlistError):
                golden.with_gate(0, bad)


@pytest.fixture(scope="module")
def r4():
    return cached_module("r4")


@pytest.fixture(scope="module")
def r16():
    return cached_module("r16")


def _key(result):
    return (result.attempted, result.detected,
            [(s.gate_index, s.description) for s in result.survivors])


class TestCampaignEquivalence:
    def _race(self, module, battery, n_mutations, seed):
        ref = reference_coverage(module, battery, n_mutations, seed)
        got = mutation_coverage(module, battery, n_mutations=n_mutations,
                                seed=seed)
        assert _key(got) == _key(ref)
        return got

    def test_r4_bit_identical(self, r4):
        rng = random.Random(21)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(12)]
        self._race(r4, multiplier_battery(r4, cases), 18, seed=31)

    def test_r16_bit_identical(self, r16):
        self._race(r16, campaign_battery("r16", r16), 8, seed=13)

    def test_mf_bit_identical(self):
        mf = cached_module("mf")
        self._race(mf, campaign_battery("mf", mf), 6, seed=8)

    def test_golden_mismatch_detects_every_mutant(self, r4):
        """A battery the golden module itself fails ticks
        ``fault.golden_mismatch``; its mutants fail it too, exactly as
        the reference judges them."""
        cases = [(3, 5), (7, 11)]
        battery = multiplier_battery(r4, cases)
        battery.expected["p"] = [1 for __ in battery.expected["p"]]
        reg = obs.registry()
        before = reg.counter_value("fault.golden_mismatch") or 0
        result = self._race(r4, battery, 3, seed=2)
        assert result.detected == 3
        assert (reg.counter_value("fault.golden_mismatch") or 0) \
            - before == 1

    def test_metrics_counters_exposed(self, r4):
        reg = obs.registry()
        reg.reset()
        battery = campaign_battery("r16", r4)
        obs.start_trace()
        try:
            result = mutation_coverage(r4, battery, n_mutations=6, seed=5)
        finally:
            events = obs.stop_trace()
        snap = reg.snapshot()
        assert snap["counters"]["fault.mutations"] == 6
        assert snap["counters"]["fault.golden_runs"] == 1
        assert snap["counters"].get("fault.detected", 0) == result.detected
        campaigns = [ev for ev in events if ev.get("ph") == "X"
                     and ev["name"] == "fault:campaign"]
        assert [ev["args"]["kernel"] for ev in campaigns] \
            == [LevelizedSimulator(r4).kernel]
        assert "mode" not in campaigns[0]["args"]

    def test_concurrent_chunks_match_serial(self):
        """Chunks judged on several threads at once share the cached
        golden check and the golden compiled module; every chunk must
        still match its serial result."""
        plan = chunk_plan(24, seed=5, chunks=6)
        clear_campaign_cache()
        serial = [_key(coverage_chunk("r16", n, s)) for s, n in plan]
        clear_campaign_cache()
        got = [None] * len(plan)

        def work(i):
            s, n = plan[i]
            got[i] = _key(coverage_chunk("r16", n, s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(plan))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            clear_campaign_cache()
        assert not any(t.is_alive() for t in threads)
        assert got == serial
