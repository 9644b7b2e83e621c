"""Tests for the structural 3-stage multi-format unit (Fig. 5).

The central invariant: the netlist and the functional model agree bit
for bit across every format, including interleaved format switches.
"""

import random

import pytest

from repro.bits.ieee754 import BINARY32, BINARY64
from repro.bits.utils import mask
from repro.core.formats import MFFormat, OperandBundle
from repro.core.mfmult import MFMult
from repro.core.pipeline_unit import (
    FRMT_FP32X2,
    FRMT_FP64,
    FRMT_INT64,
    LATENCY,
    MFMultUnit,
    build_mf_multiplier,
)
from repro.hdl.library import default_library
from repro.hdl.pipeline import pipeline_report
from repro.hdl.timing.sta import analyze


@pytest.fixture(scope="module")
def unit():
    return MFMultUnit()


def _norm64(rng):
    return BINARY64.pack(rng.getrandbits(1), rng.randint(1, 2046),
                         rng.getrandbits(52))


def _norm32(rng):
    return BINARY32.pack(rng.getrandbits(1), rng.randint(1, 254),
                         rng.getrandbits(23))


class TestCoSimulation:
    def test_int64_exact(self, unit):
        rng = random.Random(1)
        ops = [(OperandBundle.int64(rng.getrandbits(64),
                                    rng.getrandbits(64)), MFFormat.INT64)
               for __ in range(25)]
        ops.append((OperandBundle.int64(mask(64), mask(64)), MFFormat.INT64))
        results = unit.run_batch(ops)
        for (bundle, __), res in zip(ops, results):
            assert (res.ph << 64) | res.pl == bundle.x * bundle.y

    def test_fp64_matches_functional(self, unit):
        rng = random.Random(2)
        mf = MFMult()
        ops = [(OperandBundle.fp64(_norm64(rng), _norm64(rng)),
                MFFormat.FP64) for __ in range(30)]
        results = unit.run_batch(ops)
        for (bundle, fmt), res in zip(ops, results):
            expect = mf.multiply(bundle, fmt)
            assert res.ph == expect.ph, (hex(bundle.x), hex(bundle.y))
            assert res.pl == 0

    def test_fp32_dual_matches_functional(self, unit):
        rng = random.Random(3)
        mf = MFMult()
        ops = []
        for __ in range(30):
            ops.append((OperandBundle.fp32_pair(
                _norm32(rng), _norm32(rng), _norm32(rng), _norm32(rng)),
                MFFormat.FP32X2))
        results = unit.run_batch(ops)
        for (bundle, fmt), res in zip(ops, results):
            expect = mf.multiply(bundle, fmt)
            assert res.ph == expect.ph, (hex(bundle.x), hex(bundle.y))

    def test_interleaved_format_switching(self, unit):
        """Back-to-back format changes must not corrupt the pipeline —
        each in-flight operation carries its own registered controls."""
        rng = random.Random(4)
        mf = MFMult()
        ops = []
        for __ in range(12):
            ops.append((OperandBundle.int64(rng.getrandbits(64),
                                            rng.getrandbits(64)),
                        MFFormat.INT64))
            ops.append((OperandBundle.fp64(_norm64(rng), _norm64(rng)),
                        MFFormat.FP64))
            ops.append((OperandBundle.fp32_pair(
                _norm32(rng), _norm32(rng), _norm32(rng), _norm32(rng)),
                MFFormat.FP32X2))
        results = unit.run_batch(ops)
        for (bundle, fmt), res in zip(ops, results):
            expect = mf.multiply(bundle, fmt)
            assert (res.ph, res.pl) == (expect.ph, expect.pl), fmt

    def test_rounding_boundary_cases(self, unit):
        """The renormalization window (mantissas near all-ones)."""
        mf = MFMult()
        all_ones = BINARY64.pack(0, 1023, mask(52))
        near = BINARY64.pack(0, 1023, mask(52) - 1)
        one_and_half = BINARY64.pack(0, 1023, 1 << 51)
        ops = [(OperandBundle.fp64(a, b), MFFormat.FP64)
               for a in (all_ones, near, one_and_half)
               for b in (all_ones, near, one_and_half)]
        m_y = ((1 << 54) - 1) // 3
        ops.append((OperandBundle.fp64(
            BINARY64.pack(0, 1023, 1 << 51),
            BINARY64.pack(0, 1023, m_y - (1 << 52))), MFFormat.FP64))
        results = unit.run_batch(ops)
        for (bundle, fmt), res in zip(ops, results):
            expect = mf.multiply(bundle, fmt)
            assert res.ph == expect.ph

    def test_fp32_rounding_boundaries(self, unit):
        mf = MFMult()
        all_ones = BINARY32.pack(0, 127, mask(23))
        half = BINARY32.pack(0, 127, 1 << 22)
        one = BINARY32.pack(0, 127, 0)
        ops = []
        for a in (all_ones, half, one):
            for b in (all_ones, half, one):
                ops.append((OperandBundle.fp32_pair(a, b, b, a),
                            MFFormat.FP32X2))
        results = unit.run_batch(ops)
        for (bundle, fmt), res in zip(ops, results):
            expect = mf.multiply(bundle, fmt)
            assert res.ph == expect.ph


class TestUnitStructure:
    def test_three_stages(self, unit):
        assert unit.module.stage_count() == 3
        report = pipeline_report(unit.module)
        assert report.n_stages == 3

    def test_latency_constant(self):
        assert LATENCY == 2

    def test_stage2_holds_ppgen_and_tree(self, unit):
        gate_stages, __ = __import__(
            "repro.hdl.pipeline", fromlist=["stage_map"]).stage_map(
                unit.module)
        by_block = {}
        for (__, __, __, block), stage in zip(unit.module.gates,
                                               gate_stages):
            top = block.split("/", 1)[0]
            by_block.setdefault(top, set()).add(stage)
        assert by_block["ppgen"] == {2}
        assert by_block["tree"] == {2}
        assert by_block["precomp"] == {1}
        assert by_block["normround"] == {3}

    def test_frmt_codes(self):
        assert FRMT_INT64 == 0
        assert FRMT_FP64 == 1
        assert FRMT_FP32X2 == 2

    def test_clock_period_in_paper_band(self, unit):
        """Paper: 1120 ps (17.5 FO4) at 45 nm; ours must land within a
        reasonable band of that (the trend claims rely on it)."""
        lib = default_library()
        report = analyze(unit.module, lib)
        assert 14 <= report.clock_period_ps / 64 <= 26

    def test_empty_batch(self, unit):
        assert unit.run_batch([]) == []

    def test_single_op_wrapper(self, unit):
        res = unit.multiply(OperandBundle.int64(3, 5), MFFormat.INT64)
        assert res.pl == 15
