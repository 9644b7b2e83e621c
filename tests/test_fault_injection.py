"""Tests for the mutation/fault-injection harness."""

import random

import pytest

from repro.eval.experiments import cached_module
from repro.eval.fault_injection import (
    _MUTATION_POOLS,
    CoverageResult,
    Mutation,
    campaign_battery,
    chunk_plan,
    multiplier_battery,
    mutation_coverage,
)
from repro.errors import SimulationError
from repro.hdl.cell import CELL_KINDS
from repro.hdl.sim.levelized import LevelizedSimulator
from tests.oracles.fault_resim import checker, clone_module, inject_mutation


@pytest.fixture(scope="module")
def r16():
    return cached_module("r16")


class TestClone:
    def test_clone_is_independent(self, r16):
        twin = clone_module(r16)
        rng = random.Random(0)
        inject_mutation(twin, rng)
        # The original is untouched.
        diff = sum(1 for a, b in zip(r16.gates, twin.gates) if a != b)
        assert diff == 1

    def test_clone_simulates_identically(self, r16):
        twin = clone_module(r16)
        stim = {"x": [12345], "y": [67890]}
        a = LevelizedSimulator(r16).run(stim, 1)
        b = LevelizedSimulator(twin).run(stim, 1)
        assert a.bus_word(r16.outputs["p"], 0) \
            == b.bus_word(twin.outputs["p"], 0)


class TestMutation:
    def test_mutation_changes_exactly_one_gate(self, r16):
        rng = random.Random(5)
        for __ in range(10):
            twin = clone_module(r16)
            mutation = inject_mutation(twin, rng)
            changed = [i for i, (a, b) in enumerate(zip(r16.gates,
                                                        twin.gates))
                       if a != b]
            assert changed == [mutation.gate_index]

    def test_arity4_pool_has_a_rekind(self):
        """AO22 must have a same-arity alternative (its OA22 dual) —
        otherwise arity-4 gates can only ever mutate by pin swap.

        The pools and swaps are derived from the cell table, and their
        order fixes ``propose_mutation``'s random draws and with them
        every campaign in the committed report: a reordered or added
        row must fail here rather than silently move the report."""
        assert _MUTATION_POOLS == {
            1: ["INV", "BUF"],
            2: ["AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"],
            3: ["AND3", "OR3", "NAND3", "NOR3", "XOR3", "MAJ3", "AOI21",
                "OAI21"],
            4: ["AO22", "OA22"],
        }
        assert [(k, row.swaps) for k, row in CELL_KINDS.items()
                if row.swaps] == [
            ("MUX2", ((0, 1), (0, 2), (1, 2))),
            ("AOI21", ((0, 2), (1, 2))),
            ("OAI21", ((0, 2), (1, 2))),
            ("AO22", ((0, 2), (0, 3), (1, 2), (1, 3))),
            ("OA22", ((0, 2), (0, 3), (1, 2), (1, 3))),
        ]

    def test_ao22_rekind_reachable(self, r16):
        rng = random.Random(12)
        rekinds = set()
        for __ in range(200):
            twin = clone_module(r16)
            mutation = inject_mutation(twin, rng)
            if "AO22 ->" in mutation.description:
                rekinds.add(twin.gates[mutation.gate_index].kind)
        assert "OA22" in rekinds

    def test_commutative_swaps_not_generated(self, r16):
        """AO22 swaps must cross the product pairs; intra-pair swaps are
        equivalent mutants and would corrupt the coverage metric."""
        rng = random.Random(6)
        for __ in range(50):
            twin = clone_module(r16)
            mutation = inject_mutation(twin, rng)
            if "swapped pins" in mutation.description and \
                    "AO22" in mutation.description:
                pins = mutation.description.split("pins ")[1].split(" ")[0]
                i, j = sorted(int(p) for p in pins.split("/"))
                assert (i, j) in ((0, 2), (0, 3), (1, 2), (1, 3))


class TestCoverage:
    def test_multiplier_coverage_high(self, r16):
        rng = random.Random(1)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(16)]
        result = mutation_coverage(r16, multiplier_battery(r16, cases),
                                   n_mutations=30, seed=7)
        # Most mutations must be caught; the known survivors are
        # equivalence classes (one-hot OR==XOR, prefix g/p exclusivity).
        assert result.coverage >= 0.75
        assert result.attempted == 30
        assert result.detected + len(result.survivors) == 30

    def test_detected_mutation_really_breaks_function(self, r16):
        """Spot-check: a detected mutant must actually mis-multiply."""
        rng = random.Random(1)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(16)]
        battery = multiplier_battery(r16, cases)
        result = mutation_coverage(r16, battery, n_mutations=10, seed=3)
        assert checker(battery)(r16)       # the original passes
        assert result.detected >= 1

    def test_render(self, r16):
        rng = random.Random(1)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(4)]
        result = mutation_coverage(r16, multiplier_battery(r16, cases),
                                   n_mutations=5, seed=9)
        text = result.render()
        assert "mutations injected : 5" in text

    def test_render_reports_hidden_survivors(self):
        survivors = [Mutation(i, f"gate {i}: fake") for i in range(14)]
        result = CoverageResult(attempted=20, detected=6,
                                survivors=survivors)
        text = result.render()
        assert text.count("survivor:") == 10
        assert "… and 4 more survivors" in text
        short = CoverageResult(attempted=20, detected=10,
                               survivors=survivors[:10])
        assert "more survivors" not in short.render()


class TestCampaignArguments:
    """A campaign that cannot run raises instead of rendering 0.0%."""

    @pytest.mark.parametrize("n", [0, -1])
    def test_chunk_plan_rejects_non_positive_mutations(self, n):
        with pytest.raises(SimulationError):
            chunk_plan(n, seed=7)

    @pytest.mark.parametrize("chunks", [0, -2])
    def test_chunk_plan_rejects_non_positive_chunks(self, chunks):
        with pytest.raises(SimulationError):
            chunk_plan(12, seed=7, chunks=chunks)

    @pytest.mark.parametrize("n", [0, -1])
    def test_run_experiment_rejects_non_positive_mutations(self, n):
        from repro.eval.orchestrator import run_experiment

        with pytest.raises(SimulationError):
            run_experiment("fault_r16", n_mutations=n, cache=False,
                           backend="inline")

    def test_unknown_target_raises_simulation_error(self, r16):
        from repro.eval.fault_injection import campaign_engine

        with pytest.raises(SimulationError):
            campaign_battery("r8", r16)
        with pytest.raises(SimulationError):
            campaign_engine("r8")

    def test_report_rejects_non_positive_mutations(self, tmp_path):
        from repro.eval.report import generate_report

        with pytest.raises(SimulationError):
            generate_report(out_path=tmp_path / "r.txt",
                            include_verification=True, mutations=-1,
                            filters=["fault_r16"], cache=False,
                            backend="inline")
