"""Tests for netlist optimization (constant propagation, DCE,
format specialization)."""

import random

import pytest

from repro.core.pipeline_unit import FRMT_FP64, FRMT_INT64, build_mf_multiplier
from repro.errors import NetlistError
from repro.hdl.module import Module
from repro.hdl.optimize import (
    OptimizeStats,
    eliminate_dead_cells,
    optimize,
    propagate_constants,
    tie_input,
)
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.validate import validate


class TestConstantPropagation:
    def test_fully_constant_cone_folds(self):
        m = Module("c")
        one = m.const(1)
        zero = m.const(0)
        x = m.gate("AND2", one, zero)      # = 0
        y = m.gate("XOR2", x, one)         # = 1
        a = m.input("a", 1)
        out = m.gate("AND2", a[0], y)      # = a
        m.output("o", [out])
        stats = optimize(m)
        assert stats.constants_folded >= 2
        run = LevelizedSimulator(m).run({"a": [0, 1]}, 2)
        assert [run.bus_word(m.outputs["o"], t) for t in range(2)] == [0, 1]

    def test_partial_constants_simplify(self):
        m = Module("p")
        a = m.input("a", 2)
        one = m.const(1)
        zero = m.const(0)
        outs = [
            m.gate("XOR3", a[0], a[1], one),   # -> XNOR2
            m.gate("MAJ3", a[0], a[1], one),   # -> OR2
            m.gate("MAJ3", a[0], a[1], zero),  # -> AND2
            m.gate("AND3", a[0], a[1], one),   # -> AND2
            m.gate("MUX2", a[0], a[1], one),   # -> wire a[1]
        ]
        m.output("o", outs)
        before = LevelizedSimulator(m).run({"a": [0, 1, 2, 3]}, 4)
        expect = [before.bus_word(m.outputs["o"], t) for t in range(4)]
        stats = optimize(m)
        assert stats.cells_simplified >= 4
        after = LevelizedSimulator(m).run({"a": [0, 1, 2, 3]}, 4)
        assert [after.bus_word(m.outputs["o"], t) for t in range(4)] \
            == expect
        kinds = {g.kind for g in m.gates}
        assert "XOR3" not in kinds
        assert "MAJ3" not in kinds


class TestDeadCellElimination:
    def test_unreachable_cone_removed(self):
        m = Module("d")
        a = m.input("a", 2)
        kept = m.gate("AND2", a[0], a[1])
        dead = m.gate("XOR2", a[0], a[1])
        dead = m.gate("INV", dead)
        m.output("o", [kept])
        stats = OptimizeStats()
        eliminate_dead_cells(m, stats)
        assert stats.dead_cells_removed == 2
        assert len(m.gates) == 1

    def test_registers_feeding_nothing_removed(self):
        m = Module("dr")
        a = m.input("a", 1)
        m.register(a[0], stage=1)          # dangling register
        m.output("o", [m.gate("BUF", a[0])])
        stats = OptimizeStats()
        eliminate_dead_cells(m, stats)
        assert stats.dead_registers_removed == 1

    def test_live_logic_untouched(self):
        m = Module("l")
        a = m.input("a", 4)
        n = a[0]
        for i in range(1, 4):
            n = m.gate("XOR2", n, a[i])
        m.output("o", [n])
        stats = OptimizeStats()
        eliminate_dead_cells(m, stats)
        assert stats.dead_cells_removed == 0
        assert len(m.gates) == 3


class TestFormatSpecialization:
    """Tie the MF unit's frmt input and reap the other formats' logic:
    an upper bound on what multi-format flexibility costs in cells."""

    @pytest.mark.slow
    def test_int64_specialization_preserves_function(self):
        m = build_mf_multiplier(buffer_max_load=None)
        full_gates = len(m.gates)
        tie_input(m, "frmt", FRMT_INT64)
        stats = optimize(m)
        validate(m)
        assert stats.dead_cells_removed + stats.constants_folded > 500
        assert len(m.gates) < full_gates
        rng = random.Random(9)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(10)]
        stim = {"x": [c[0] for c in cases] + [0, 0],
                "y": [c[1] for c in cases] + [0, 0]}
        run = LevelizedSimulator(m).run(stim, len(cases) + 2)
        for t, (x, y) in enumerate(cases):
            ph = run.bus_word(m.outputs["ph"], t + 2)
            pl = run.bus_word(m.outputs["pl"], t + 2)
            assert (ph << 64) | pl == x * y, t

    @pytest.mark.slow
    def test_fp64_specialization_preserves_function(self):
        from repro.bits.ieee754 import BINARY64
        from repro.core.formats import MFFormat, OperandBundle
        from repro.core.mfmult import MFMult

        m = build_mf_multiplier(buffer_max_load=None)
        tie_input(m, "frmt", FRMT_FP64)
        optimize(m)
        validate(m)
        rng = random.Random(10)
        mf = MFMult()
        cases = [(BINARY64.pack(rng.getrandbits(1), rng.randint(1, 2046),
                                rng.getrandbits(52)),
                  BINARY64.pack(rng.getrandbits(1), rng.randint(1, 2046),
                                rng.getrandbits(52)))
                 for __ in range(10)]
        stim = {"x": [c[0] for c in cases] + [0, 0],
                "y": [c[1] for c in cases] + [0, 0]}
        run = LevelizedSimulator(m).run(stim, len(cases) + 2)
        for t, (x, y) in enumerate(cases):
            expect = mf.multiply(OperandBundle.fp64(x, y), MFFormat.FP64)
            assert run.bus_word(m.outputs["ph"], t + 2) == expect.ph, t

    def test_tie_unknown_bus(self):
        m = build_mf_multiplier(buffer_max_load=None)
        with pytest.raises(NetlistError):
            tie_input(m, "mode", 0)


class TestOptimizePreservesBehaviour:
    def test_multiplier_after_optimize(self):
        """Optimizing an already-folded netlist is ~a no-op and must not
        change products."""
        from repro.circuits.mult_radix16 import radix16_multiplier

        m = radix16_multiplier(buffer_max_load=None)
        before = len(m.gates)
        optimize(m)
        validate(m)
        assert len(m.gates) <= before
        rng = random.Random(11)
        cases = [(rng.getrandbits(64), rng.getrandbits(64))
                 for __ in range(8)]
        stim = {"x": [c[0] for c in cases], "y": [c[1] for c in cases]}
        run = LevelizedSimulator(m).run(stim, len(cases))
        for t, (x, y) in enumerate(cases):
            assert run.bus_word(m.outputs["p"], t) == x * y
