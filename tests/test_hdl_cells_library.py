"""Tests for the cell semantics and the characterized library."""

import itertools

import pytest

from repro.errors import NetlistError
from repro.hdl.cell import CELL_KINDS, cell_eval, cell_num_inputs
from repro.hdl.library import (
    FO4_PS,
    NAND2_AREA_UM2,
    CellLibrary,
    default_library,
)
from tests.oracles.cells import CELLS

TRUTH = {
    "INV": lambda a: 1 - a,
    "BUF": lambda a: a,
    "AND2": lambda a, b: a & b,
    "AND3": lambda a, b, c: a & b & c,
    "OR2": lambda a, b: a | b,
    "OR3": lambda a, b, c: a | b | c,
    "NAND2": lambda a, b: 1 - (a & b),
    "NAND3": lambda a, b, c: 1 - (a & b & c),
    "NOR2": lambda a, b: 1 - (a | b),
    "NOR3": lambda a, b, c: 1 - (a | b | c),
    "XOR2": lambda a, b: a ^ b,
    "XNOR2": lambda a, b: 1 - (a ^ b),
    "XOR3": lambda a, b, c: a ^ b ^ c,
    "MAJ3": lambda a, b, c: 1 if a + b + c >= 2 else 0,
    "MUX2": lambda a, b, s: b if s else a,
    "AOI21": lambda a, b, c: 1 - ((a & b) | c),
    "OAI21": lambda a, b, c: 1 - ((a | b) & c),
    "AO22": lambda a, b, c, d: (a & b) | (c & d),
    "OA22": lambda a, b, c, d: (a | b) & (c | d),
}


class TestCellSemantics:
    """The cell table against the hand-written reference functions of
    ``tests/oracles/cells.py`` and the scalar lambdas above."""

    def test_oracle_covers_every_kind(self):
        assert {kind: arity for kind, (__, arity) in CELLS.items()} \
            == {kind: cell_num_inputs(kind) for kind in CELL_KINDS}

    @pytest.mark.parametrize("kind", sorted(CELLS))
    def test_truth_table(self, kind):
        fn = cell_eval(kind)
        ref_fn, n = CELLS[kind]
        ref = TRUTH[kind]
        for inputs in itertools.product((0, 1), repeat=n):
            assert fn(1, *inputs) & 1 == ref(*inputs), (kind, inputs)
            assert ref_fn(1, *inputs) & 1 == ref(*inputs), (kind, inputs)

    @pytest.mark.parametrize("kind", sorted(CELLS))
    def test_bit_parallel_consistency(self, kind):
        """Evaluating 8 patterns at once equals 8 scalar evaluations,
        and the table's packed result equals the reference function's."""
        fn = cell_eval(kind)
        ref_fn, n = CELLS[kind]
        m = (1 << 8) - 1
        patterns = [tuple((p >> i) & 1 for i in range(n)) for p in range(8)]
        packed_inputs = [sum(patterns[p][i] << p for p in range(8))
                         for i in range(n)]
        packed_out = fn(m, *packed_inputs) & m
        assert packed_out == ref_fn(m, *packed_inputs) & m
        for p in range(8):
            assert (packed_out >> p) & 1 == TRUTH[kind](*patterns[p])

    def test_unknown_kind(self):
        with pytest.raises(NetlistError):
            cell_eval("NAND7")
        with pytest.raises(NetlistError):
            cell_num_inputs("NAND7")


class TestLibrary:
    def test_fo4_anchor(self):
        """The paper's library anchor: FO4 = 64 ps."""
        assert default_library().fo4_ps == pytest.approx(FO4_PS)

    def test_nand2_area_anchor(self):
        """The paper's area anchor: NAND2 = 1.06 um^2."""
        lib = default_library()
        assert lib.spec("NAND2").area_um2 == pytest.approx(1.06)
        assert NAND2_AREA_UM2 == 1.06

    def test_all_cell_kinds_characterized(self):
        lib = default_library()
        for kind in CELL_KINDS:
            spec = lib.spec(kind)
            assert spec.area_eq > 0
            assert spec.intrinsic_ps > 0
            assert spec.slope_ps > 0

    def test_delay_grows_with_load(self):
        spec = default_library().spec("XOR2")
        assert spec.delay_ps(8) > spec.delay_ps(1)

    def test_register_overhead_about_3_fo4(self):
        """Sec. III-D: pipeline overhead about 3 FO4."""
        lib = default_library()
        assert 2.0 <= lib.register.overhead_ps / FO4_PS <= 4.0

    def test_scaled_copy(self):
        lib = default_library()
        double = lib.scaled(lib.energy_fj_per_unit * 2)
        assert double.energy_fj_per_unit == 2 * lib.energy_fj_per_unit
        assert double.cells is lib.cells or double.cells == lib.cells

    def test_missing_kind_rejected(self):
        lib = default_library()
        with pytest.raises(NetlistError):
            lib.spec("DLATCH")
        cells = dict(lib.cells)
        cells.pop("INV")
        with pytest.raises(NetlistError):
            CellLibrary(cells=cells, register=lib.register)

    def test_toggle_energy_includes_load(self):
        lib = default_library()
        e0 = lib.toggle_energy_units("INV", 0)
        e4 = lib.toggle_energy_units("INV", 4)
        assert e4 > e0
        assert e0 == pytest.approx(lib.spec("INV").area_eq)
