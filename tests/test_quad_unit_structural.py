"""Tests for the structural quad-binary16 unit (quad_fp16=True builds).

Four formats on one netlist: int64, binary64, dual binary32 and quad
binary16, co-simulated against the software model, interleaved.
"""

import random

import pytest

from repro.bits.ieee754 import BINARY16, BINARY32, BINARY64
from repro.core.formats import MFFormat, OperandBundle
from repro.core.mfmult import MFMult
from repro.core.pipeline_unit import (
    FRMT_FP16X4,
    MFMultUnit,
    build_mf_multiplier,
)
from repro.errors import SimulationError
from repro.hdl.pipeline import pipeline_report
from repro.hdl.validate import validate


@pytest.fixture(scope="module")
def quad_unit():
    return MFMultUnit(quad_fp16=True)


def _n16(rng, lo=8, hi=22):
    return BINARY16.pack(rng.getrandbits(1), rng.randint(lo, hi),
                         rng.getrandbits(10))


def _n32(rng):
    return BINARY32.pack(rng.getrandbits(1), rng.randint(1, 254),
                         rng.getrandbits(23))


def _n64(rng):
    return BINARY64.pack(rng.getrandbits(1), rng.randint(1, 2046),
                         rng.getrandbits(52))


class TestQuadUnit:
    def test_structure(self, quad_unit):
        validate(quad_unit.module)
        assert quad_unit.supports_fp16
        assert pipeline_report(quad_unit.module).n_stages == 3

    def test_fp16_quad_matches_functional(self, quad_unit):
        rng = random.Random(61)
        mf = MFMult()
        ops = [(OperandBundle.fp16_quad([_n16(rng) for __ in range(4)],
                                        [_n16(rng) for __ in range(4)]),
                MFFormat.FP16X4) for __ in range(25)]
        for (bundle, fmt), res in zip(ops, quad_unit.run_batch(ops)):
            assert res.ph == mf.multiply(bundle, fmt).ph, hex(bundle.x)
            assert res.pl == 0

    def test_legacy_formats_still_exact(self, quad_unit):
        rng = random.Random(62)
        mf = MFMult()
        ops = []
        for __ in range(10):
            ops.append((OperandBundle.int64(rng.getrandbits(64),
                                            rng.getrandbits(64)),
                        MFFormat.INT64))
            ops.append((OperandBundle.fp64(_n64(rng), _n64(rng)),
                        MFFormat.FP64))
            ops.append((OperandBundle.fp32_pair(_n32(rng), _n32(rng),
                                                _n32(rng), _n32(rng)),
                        MFFormat.FP32X2))
        for (bundle, fmt), res in zip(ops, quad_unit.run_batch(ops)):
            expect = mf.multiply(bundle, fmt)
            assert (res.ph, res.pl) == (expect.ph, expect.pl), fmt

    def test_interleaved_all_four_formats(self, quad_unit):
        rng = random.Random(63)
        mf = MFMult()
        ops = []
        for i in range(16):
            pick = i % 4
            if pick == 0:
                ops.append((OperandBundle.int64(rng.getrandbits(64),
                                                rng.getrandbits(64)),
                            MFFormat.INT64))
            elif pick == 1:
                ops.append((OperandBundle.fp64(_n64(rng), _n64(rng)),
                            MFFormat.FP64))
            elif pick == 2:
                ops.append((OperandBundle.fp32_pair(
                    _n32(rng), _n32(rng), _n32(rng), _n32(rng)),
                    MFFormat.FP32X2))
            else:
                ops.append((OperandBundle.fp16_quad(
                    [_n16(rng) for __ in range(4)],
                    [_n16(rng) for __ in range(4)]), MFFormat.FP16X4))
        for (bundle, fmt), res in zip(ops, quad_unit.run_batch(ops)):
            expect = mf.multiply(bundle, fmt)
            assert (res.ph, res.pl) == (expect.ph, expect.pl), fmt

    def test_fp16_rounding_boundaries(self, quad_unit):
        """All-ones mantissas: the renormalization window per lane."""
        mf = MFMult()
        all_ones = BINARY16.pack(0, 15, (1 << 10) - 1)
        half = BINARY16.pack(0, 15, 1 << 9)
        one = BINARY16.pack(0, 15, 0)
        ops = []
        for a in (all_ones, half, one):
            for b in (all_ones, half, one):
                ops.append((OperandBundle.fp16_quad([a, b, a, b],
                                                    [b, a, a, b]),
                            MFFormat.FP16X4))
        for (bundle, fmt), res in zip(ops, quad_unit.run_batch(ops)):
            assert res.ph == mf.multiply(bundle, fmt).ph

    def test_lane_isolation(self, quad_unit):
        """Changing one lane's operands must not disturb the others."""
        rng = random.Random(64)
        mf = MFMult()
        base_x = [_n16(rng) for __ in range(4)]
        base_y = [_n16(rng) for __ in range(4)]
        ops = [(OperandBundle.fp16_quad(base_x, base_y), MFFormat.FP16X4)]
        for lane in range(4):
            xs = list(base_x)
            xs[lane] = _n16(rng)
            ops.append((OperandBundle.fp16_quad(xs, base_y),
                        MFFormat.FP16X4))
        results = quad_unit.run_batch(ops)
        ref = results[0]
        for lane in range(4):
            changed = results[lane + 1]
            for other in range(4):
                if other == lane:
                    continue
                assert ((changed.ph >> (16 * other)) & 0xFFFF) \
                    == ((ref.ph >> (16 * other)) & 0xFFFF), (lane, other)

    def test_default_unit_rejects_fp16(self):
        unit = MFMultUnit()
        rng = random.Random(65)
        op = (OperandBundle.fp16_quad([_n16(rng)] * 4, [_n16(rng)] * 4),
              MFFormat.FP16X4)
        with pytest.raises(SimulationError):
            unit.run_batch([op])

    def test_default_build_unchanged_by_quad_code(self):
        """The quad overlay folds away: default builds keep their size."""
        default = build_mf_multiplier(buffer_max_load=None)
        # The classic unit stays near its established size (the overlay
        # muxes with a constant select all fold out).
        assert 18000 < len(default.gates) < 22000
        quad = build_mf_multiplier(buffer_max_load=None, quad_fp16=True)
        assert len(quad.gates) > len(default.gates)

    def test_frmt_code(self):
        assert FRMT_FP16X4 == 0b11
