"""Tests for the quad-binary16 extension format."""

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arith.adders_ref import multi_window_add
from repro.arith.partial_products import build_quad_lane_pp_array
from repro.arith.rounding import FP16_LANES, normalize_round_fp16_quad
from repro.arith.trees import reduce_pp_array
from repro.bits.ieee754 import BINARY16, decode, encode, round_significand
from repro.bits.utils import mask
from repro.core.formats import MFFormat, OperandBundle
from repro.core.mfmult import MFMult
from repro.errors import BitWidthError, FormatError
from tests.oracles.mf_datapath import datapath_multiply

SIG11 = st.integers(min_value=1 << 10, max_value=(1 << 11) - 1)
U11 = st.integers(min_value=0, max_value=(1 << 11) - 1)
MID16 = st.builds(
    BINARY16.pack,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=8, max_value=22),   # central: products in range
    st.integers(min_value=0, max_value=mask(10)),
)


class TestMultiWindowAdd:
    @given(st.integers(min_value=0, max_value=mask(128)),
           st.integers(min_value=0, max_value=mask(128)))
    def test_four_windows(self, a, b):
        total = multi_window_add(a, b, 128, (32, 64, 96))
        for k in range(4):
            lo = 32 * k
            wa = (a >> lo) & mask(32)
            wb = (b >> lo) & mask(32)
            assert (total >> lo) & mask(32) == (wa + wb) & mask(32)

    def test_no_boundaries_is_plain_add(self):
        assert multi_window_add(7, 9, 8, ()) == 16

    def test_bad_boundary(self):
        with pytest.raises(BitWidthError):
            multi_window_add(0, 0, 8, (8,))


class TestQuadArray:
    @given(st.tuples(U11, U11, U11, U11), st.tuples(U11, U11, U11, U11))
    @settings(max_examples=60)
    def test_total_is_four_products(self, xs, ys):
        array = build_quad_lane_pp_array(list(xs), list(ys))
        expect = sum((xs[k] * ys[k]) << (32 * k) for k in range(4))
        assert array.total() == expect

    def test_four_windows(self):
        array = build_quad_lane_pp_array([1] * 4, [1] * 4)
        assert array.windows == ((0, 32), (32, 64), (64, 96), (96, 128))

    def test_lane_containment(self):
        ones = (1 << 11) - 1
        array = build_quad_lane_pp_array([ones] * 4, [ones] * 4)
        for row in array.rows:
            k = int(row.lane[1])
            assert 32 * k <= row.offset
            assert row.msb_position < 32 * (k + 1)

    def test_shape_validated(self):
        with pytest.raises(BitWidthError):
            build_quad_lane_pp_array([1, 2, 3], [1, 2, 3, 4])

    @given(st.tuples(SIG11, SIG11, SIG11, SIG11),
           st.tuples(SIG11, SIG11, SIG11, SIG11))
    @settings(max_examples=40)
    def test_reduces_and_rounds(self, xs, ys):
        array = build_quad_lane_pp_array(list(xs), list(ys))
        s, c, __ = reduce_pp_array(array)
        lanes = normalize_round_fp16_quad(s, c)
        for k in range(4):
            product = xs[k] * ys[k]
            expect, carry = round_significand(product, 11,
                                              mode="injection")
            high = (product >> 21) & 1
            assert lanes[k].significand == expect, k
            assert lanes[k].exponent_increment == (high | carry), k


class TestMFMultFP16:
    @given(MID16, MID16, MID16, MID16)
    @example(*[BINARY16.pack(0, 15, 1 << 9)] * 4)      # 1.5: high-leading
    @settings(max_examples=40)
    def test_datapath_equals_fast(self, a, b, c, d):
        bundle = OperandBundle.fp16_quad([a, b, c, d], [d, c, b, a])
        ref, __ = datapath_multiply(bundle, MFFormat.FP16X4)
        assert ref == MFMult().multiply(bundle, MFFormat.FP16X4)

    @given(MID16, MID16)
    @settings(max_examples=60)
    def test_lane_rounding_near_ieee(self, xe, ye):
        mf = MFMult()
        bundle = OperandBundle.fp16_quad([xe] * 4, [ye] * 4)
        result = mf.multiply(bundle, MFFormat.FP16X4)
        ieee = encode(decode(xe, BINARY16) * decode(ye, BINARY16),
                      BINARY16)
        for k in range(4):
            assert result.fp16_encoding(k) in (ieee, ieee + 1)

    def test_convenience_wrapper(self):
        got = MFMult().mul_fp16_quad((1.5, 2.0, -0.5, 4.0),
                                     (2.0, 2.0, 8.0, 0.25))
        assert got == (3.0, 4.0, -4.0, 1.0)

    def test_lanes_independent(self):
        mf = MFMult()
        a = mf.mul_fp16_quad((1.5, 7.0, 1.0, 1.0), (2.0, 3.0, 1.0, 1.0))
        b = mf.mul_fp16_quad((1.5, 5.0, 2.0, 9.0), (2.0, 2.0, 2.0, 2.0))
        assert a[0] == b[0] == 3.0

    def test_throughput_property(self):
        assert MFFormat.FP16X4.flops_per_cycle == 4

    def test_full_mode_matches_numpy_style_half(self):
        mf = MFMult(mode="full")
        vals = [(1.5, 2.5), (0.1, 3.0), (1e4, 2.0), (0.0, 5.0),
                (6.0e-5, 0.5)]
        for a, b in vals:
            got = mf.mul_fp16_quad((a, 1.0, 1.0, 1.0),
                                   (b, 1.0, 1.0, 1.0))[0]
            expect = decode(encode(
                decode(encode(a, BINARY16), BINARY16)
                * decode(encode(b, BINARY16), BINARY16), BINARY16),
                BINARY16)
            # Full mode rounds by injection by default; allow one ulp.
            if expect:
                assert abs(got - expect) <= abs(expect) * 2.0 ** -10
            else:
                assert got == 0.0

    def test_trace_has_four_lanes(self):
        values = [encode(v, BINARY16) for v in (1.5, 2.0, 3.0, 4.0)]
        __, trace = datapath_multiply(
            OperandBundle.fp16_quad(values, values), MFFormat.FP16X4)
        assert len(trace.lane_results) == 4
        assert len(trace.pp_array.windows) == 4

    def test_bundle_validation(self):
        with pytest.raises(BitWidthError):
            OperandBundle.fp16_quad([1 << 16, 0, 0, 0], [0, 0, 0, 0])
        with pytest.raises(BitWidthError):
            OperandBundle.fp16_quad([0, 0], [0, 0])
        with pytest.raises(FormatError):
            OperandBundle.int64(0, 0).lane16(4)
