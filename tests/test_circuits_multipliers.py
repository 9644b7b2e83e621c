"""Tests for the assembled 64x64 multipliers (Fig. 2, Tables I-III)."""

import random

import pytest

from repro.bits.utils import mask
from repro.circuits.mult_common import build_multiplier
from repro.circuits.mult_radix4 import radix4_multiplier
from repro.circuits.mult_radix8 import radix8_multiplier
from repro.circuits.mult_radix16 import radix16_multiplier
from repro.errors import NetlistError
from repro.hdl.library import default_library
from repro.hdl.pipeline import pipeline_report
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.timing.sta import analyze

BUILDERS = {
    "r4": radix4_multiplier,
    "r8": radix8_multiplier,
    "r16": radix16_multiplier,
}

EDGE_CASES = [
    (0, 0), (1, 1), (0, mask(64)), (mask(64), 0),
    (mask(64), mask(64)), (1 << 63, 1 << 63), (1 << 63, mask(64)),
    (1, mask(64)), (mask(64), 1),
    (0x8888888888888888, 0x8888888888888888),   # all digits -8
    (0x7777777777777777, 0x7777777777777777),   # all digits +7
    (0xAAAAAAAAAAAAAAAA, 0x5555555555555555),
]


def _verify(module, cases, latency=0):
    stim = {"x": [c[0] for c in cases] + [0] * latency,
            "y": [c[1] for c in cases] + [0] * latency}
    run = LevelizedSimulator(module).run(stim, len(cases) + latency)
    for t, (x, y) in enumerate(cases):
        got = run.bus_word(module.outputs["p"], t + latency)
        assert got == x * y, (module.name, hex(x), hex(y))


@pytest.fixture(scope="module")
def modules():
    return {name: builder() for name, builder in BUILDERS.items()}


@pytest.fixture(scope="module")
def pipelined_modules():
    return {name: builder(pipeline_cut="after_ppgen")
            for name, builder in BUILDERS.items()}


class TestCombinational:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_edge_cases(self, modules, name):
        _verify(modules[name], EDGE_CASES)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_random(self, modules, name):
        rng = random.Random(hash(name) & 0xFFFF)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(50)]
        _verify(modules[name], cases)

    def test_block_structure_matches_fig2(self, modules):
        blocks = {g.block.split("/", 1)[0] for g in modules["r16"].gates}
        assert {"precomp", "recoder", "ppgen", "tree", "cpa"} <= blocks
        # radix-4 has no multiple pre-computation (2X is wiring).
        r4_blocks = {g.block.split("/", 1)[0] for g in modules["r4"].gates}
        assert "precomp" not in r4_blocks


class TestPipelined:
    @pytest.mark.parametrize("name", ["r4", "r16"])
    def test_one_cycle_latency_results(self, pipelined_modules, name):
        rng = random.Random(5)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(20)]
        _verify(pipelined_modules[name], cases, latency=1)

    @pytest.mark.parametrize("name", ["r4", "r16"])
    def test_two_stages(self, pipelined_modules, name):
        module = pipelined_modules[name]
        assert module.stage_count() == 2
        report = pipeline_report(module)
        assert report.n_stages == 2

    def test_after_precomp_cut(self):
        module = radix16_multiplier(pipeline_cut="after_precomp")
        rng = random.Random(6)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(10)]
        _verify(module, cases, latency=1)
        # Fewer registers than the after-ppgen cut.
        after_ppgen = radix16_multiplier(pipeline_cut="after_ppgen")
        assert len(module.registers) < len(after_ppgen.registers)

    def test_unknown_cut_rejected(self):
        with pytest.raises(NetlistError):
            build_multiplier(4, pipeline_cut="mid_tree")


class TestPaperShapeClaims:
    """The relative claims of Sec. II-A, robust to calibration."""

    def test_radix4_faster_than_radix16(self, modules):
        lib = default_library()
        t4 = analyze(modules["r4"], lib).latency_ps
        t16 = analyze(modules["r16"], lib).latency_ps
        assert t4 < t16
        # Paper: about 20% faster; allow a generous band.
        assert 0.70 < t4 / t16 < 0.98

    def test_radix8_dominated(self, modules):
        """Sec. II-A's reason to skip radix-8: needs the pre-computation
        like radix-16 but keeps a taller tree."""
        lib = default_library()
        t8 = analyze(modules["r8"], lib).latency_ps
        t16 = analyze(modules["r16"], lib).latency_ps
        assert t8 >= t16 * 0.95

    def test_radix16_fewer_tree_gates(self, modules):
        def tree_gates(m):
            return sum(1 for g in m.gates
                       if g.block.split("/", 1)[0] == "tree")
        assert tree_gates(modules["r16"]) < 0.62 * tree_gates(modules["r4"])

    def test_radix16_latency_near_29_fo4(self, modules):
        lib = default_library()
        fo4 = analyze(modules["r16"], lib).latency_fo4
        assert 25 <= fo4 <= 36      # paper: 29

    def test_adder_style_option(self):
        module = build_multiplier(4, adder_style="brent_kung")
        rng = random.Random(8)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(8)]
        _verify(module, cases)

    def test_4_2_tree_option(self):
        module = build_multiplier(4, use_4_2=True)
        rng = random.Random(9)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(8)]
        _verify(module, cases)

    def test_unbuffered_build(self):
        module = build_multiplier(4, buffer_max_load=None)
        _verify(module, EDGE_CASES[:4])
