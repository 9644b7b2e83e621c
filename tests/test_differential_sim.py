"""Equivalence tests: differential cone engine vs full re-simulation.

The differential engine's contract is bit-identity — for any mutant and
any battery, its verdict must match a full clone-and-resimulate check.
These tests assert that exhaustively on a small hand-built pipelined
module (every gate x every same-arity rekind and every meaningful pin
swap) and statistically on the real multiplier netlists, plus the
pruning/early-exit mechanics the speedup relies on.
"""

import random

import pytest

from repro import obs
from repro.eval.experiments import cached_module
from repro.eval.fault_injection import (
    _MEANINGFUL_SWAPS,
    _MUTATION_POOLS,
    Battery,
    campaign_battery,
    clone_module,
    multiplier_battery,
    mutation_coverage,
)
from repro.errors import SimulationError
from repro.hdl.cell import cell_num_inputs
from repro.hdl.module import Gate, Module
from repro.hdl.sim.differential import (
    DifferentialEngine,
    Observation,
    output_observation,
)
from repro.hdl.sim.levelized import LevelizedSimulator
from tests.oracles.differential import interpreted_masked_evals
from tests.oracles.levelized import interpreted_run


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
    and left unchecked, exercising the observation window logic.
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
    for idx, gate in enumerate(module.gates):
        arity = cell_num_inputs(gate.kind)
        for kind in _MUTATION_POOLS.get(arity, []):
            if kind != gate.kind:
                yield idx, Gate(kind, gate.inputs, gate.output, gate.block)
        for i, j in _MEANINGFUL_SWAPS.get(gate.kind, []):
            if gate.inputs[i] != gate.inputs[j]:
                ins = list(gate.inputs)
                ins[i], ins[j] = ins[j], ins[i]
                yield idx, Gate(gate.kind, tuple(ins), gate.output,
                                gate.block)


class TestExhaustiveToy:
    @pytest.mark.parametrize("compiled", [True, False])
    def test_every_mutant_matches_full_resim(self, compiled):
        module = _toy_module()
        battery = _toy_battery(module)
        golden = None
        if not compiled:
            golden = interpreted_run(module, battery.stimulus,
                                     battery.n_patterns)
        engine = DifferentialEngine(module, battery.stimulus,
                                    battery.n_patterns,
                                    battery.observation(module),
                                    golden=golden)
        if not compiled:
            engine._evals = interpreted_masked_evals(module, engine._work,
                                                     engine.m)
        assert battery.check_run(module, engine.golden)
        checked = 0
        for idx, mutant in _all_mutants(module):
            verdict = engine.run_mutant(idx, mutant)
            twin = clone_module(module)
            twin.gates[idx] = mutant
            full_run = interpreted_run(twin, battery.stimulus,
                                       battery.n_patterns)
            assert verdict.detected == \
                (not battery.check_run(twin, full_run)), \
                f"mutant {idx}: {mutant.kind} verdict diverged"
            assert 1 <= verdict.gates_evaluated <= len(module.gates) + 1
            assert verdict.cone_size >= 1
            checked += 1
        assert checked > 20

    def test_overlay_restored_between_mutants(self):
        """Verdicts must not depend on what ran before (overlay hygiene)."""
        module = _toy_module()
        battery = _toy_battery(module)
        obsv = battery.observation(module)
        engine = DifferentialEngine(module, battery.stimulus,
                                    battery.n_patterns, obsv)
        mutants = list(_all_mutants(module))
        first = [engine.run_mutant(i, g) for i, g in mutants]
        again = [engine.run_mutant(i, g) for i, g in reversed(mutants)]
        assert [v.detected for v in first] == \
            [v.detected for v in reversed(again)]

    def test_mutant_must_keep_output_net(self):
        module = _toy_module()
        battery = _toy_battery(module)
        engine = DifferentialEngine(module, battery.stimulus,
                                    battery.n_patterns,
                                    battery.observation(module))
        gate = module.gates[0]
        bad = Gate(gate.kind, gate.inputs, module.gates[1].output,
                   gate.block)
        with pytest.raises(SimulationError):
            engine.run_mutant(0, bad)


class TestPruningAndEarlyExit:
    def test_zero_diff_mutant_stops_at_one_eval(self):
        """OR2(x, x) -> AND2(x, x) is functionally invisible: the diff
        word is zero and the cone must never be entered."""
        m = Module("prune")
        x = m.input("x", 1)
        t = m.gate("OR2", x[0], x[0])
        chain = t
        for __ in range(5):
            chain = m.gate("INV", chain)
        m.output("z", [chain])
        battery = _toy_battery(m, n_patterns=8)
        engine = DifferentialEngine(m, battery.stimulus,
                                    battery.n_patterns,
                                    battery.observation(m))
        gate = m.gates[0]
        verdict = engine.run_mutant(0, Gate("AND2", gate.inputs,
                                            gate.output, gate.block))
        assert not verdict.detected
        assert verdict.gates_evaluated == 1
        assert verdict.cone_size == 6
        assert not verdict.early_exit

    def test_early_exit_when_output_is_hit_first(self):
        """A mutant whose own output net is observed detects immediately,
        leaving the rest of its cone unvisited."""
        m = Module("early")
        x = m.input("x", 2)
        hit = m.gate("AND2", x[0], x[1])
        deep = hit
        for __ in range(6):
            deep = m.gate("INV", deep)
        m.output("z", [hit, deep])
        stim = {"x": [0, 1, 2, 3, 1, 2]}
        run = LevelizedSimulator(m).run(stim, 6)
        battery = Battery(stimulus=stim, n_patterns=6,
                          expected={"z": list(run.bus_words(
                              m.outputs["z"]))})
        engine = DifferentialEngine(m, battery.stimulus,
                                    battery.n_patterns,
                                    battery.observation(m))
        gate = m.gates[0]
        verdict = engine.run_mutant(0, Gate("OR2", gate.inputs,
                                            gate.output, gate.block))
        assert verdict.detected
        assert verdict.early_exit
        assert verdict.gates_evaluated < verdict.cone_size

    def test_register_delays_difference_into_window(self):
        """A difference parked in a flip-flop is only observed once it
        surfaces — the register's time shift must line up with the
        battery's checked pattern window."""
        module = _toy_module()
        battery = _toy_battery(module)
        engine = DifferentialEngine(module, battery.stimulus,
                                    battery.n_patterns,
                                    battery.observation(module))
        # Observe nothing: every mutant must survive.
        blind = DifferentialEngine(module, battery.stimulus,
                                   battery.n_patterns,
                                   Observation(masks={}))
        for idx, mutant in _all_mutants(module):
            assert not blind.run_mutant(idx, mutant).detected
        # Observe everything from t=0: detections can only grow vs the
        # windowed battery observation.
        full_obs = output_observation(module, 0, battery.n_patterns)
        wide = DifferentialEngine(module, battery.stimulus,
                                  battery.n_patterns, full_obs)
        for idx, mutant in _all_mutants(module):
            if engine.run_mutant(idx, mutant).detected:
                assert wide.run_mutant(idx, mutant).detected


@pytest.fixture(scope="module")
def r4():
    return cached_module("r4")


@pytest.fixture(scope="module")
def r16():
    return cached_module("r16")


class TestCampaignEquivalence:
    def _race(self, module, battery, n_mutations, seed):
        full = mutation_coverage(module, n_mutations=n_mutations,
                                 seed=seed, mode="full", battery=battery)
        diff = mutation_coverage(module, n_mutations=n_mutations,
                                 seed=seed, mode="differential",
                                 battery=battery)
        assert (full.attempted, full.detected) == \
            (diff.attempted, diff.detected)
        assert [(s.gate_index, s.description) for s in full.survivors] \
            == [(s.gate_index, s.description) for s in diff.survivors]
        return diff

    def test_r4_bit_identical(self, r4):
        rng = random.Random(21)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(12)]
        self._race(r4, multiplier_battery(r4, cases), 18, seed=31)

    def test_r16_bit_identical(self, r16):
        self._race(r16, campaign_battery("r16", r16), 8, seed=13)

    def test_golden_mismatch_falls_back_to_full(self, r4):
        """A battery the golden module itself fails must not crash the
        differential path — it degrades to full mode (where every mutant
        fails too), keeping the modes equivalent by construction."""
        cases = [(3, 5), (7, 11)]
        battery = multiplier_battery(r4, cases)
        battery.expected["p"] = [1 for __ in battery.expected["p"]]
        result = mutation_coverage(r4, n_mutations=3, seed=2,
                                   mode="differential", battery=battery)
        assert result.detected == 3

    def test_metrics_counters_exposed(self, r4):
        reg = obs.registry()
        reg.reset()
        battery = campaign_battery("r16", r4)
        mutation_coverage(r4, n_mutations=6, seed=5,
                          mode="differential", battery=battery)
        snap = reg.snapshot()
        assert snap["counters"]["fault.mutations"] == 6
        assert snap["counters"]["fault.gates_evaluated"] >= 6
        assert "fault.early_exits" in snap["counters"]
        hist = snap["histograms"]["fault.cone_size"]
        assert hist["count"] == 6
        assert hist["max"] >= 1
