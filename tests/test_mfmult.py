"""Tests for the functional multi-format multiplier."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.bits.ieee754 import BINARY32, BINARY64, decode, encode
from repro.bits.utils import mask
from repro.core.formats import Flag, MFFormat, OperandBundle, RoundingMode
from repro.core.mfmult import MFMult
from repro.errors import (
    BitWidthError,
    FormatError,
    UnsupportedOperationError,
)
from tests.oracles.mf_datapath import datapath_multiply

U64 = st.integers(min_value=0, max_value=mask(64))
NORMAL64 = st.builds(
    BINARY64.pack,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=1, max_value=2046),
    st.integers(min_value=0, max_value=mask(52)),
)
NORMAL32 = st.builds(
    BINARY32.pack,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=1, max_value=254),
    st.integers(min_value=0, max_value=mask(23)),
)
ONE_HALF64 = BINARY64.pack(0, 1023, 1 << 51)                 # 1.5
ONE_HALF32 = BINARY32.pack(0, 127, 1 << 22)                  # 1.5
# 1.5 * CARRY64 has significand product 2**105 - 2**51: the low-case
# injection rounds up to 2**53 and renormalizes.
CARRY64 = BINARY64.pack(0, 1023, ((1 << 54) - 1) // 3 - (1 << 52))
# Exponents kept central so results stay in range (paper mode has no
# overflow handling; range flags are tested separately).
MID64 = st.builds(
    BINARY64.pack,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=523, max_value=1523),
    st.integers(min_value=0, max_value=mask(52)),
)
MID32 = st.builds(
    BINARY32.pack,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=64, max_value=190),
    st.integers(min_value=0, max_value=mask(23)),
)


class TestInt64:
    @given(U64, U64)
    @settings(max_examples=30)
    def test_datapath_exact(self, x, y):
        bundle = OperandBundle.int64(x, y)
        ref, __ = datapath_multiply(bundle, MFFormat.INT64)
        assert ref == MFMult().multiply(bundle, MFFormat.INT64)
        assert ref.int128 == x * y

    @given(U64, U64)
    def test_fast_exact(self, x, y):
        assert MFMult().mul_int64(x, y) == x * y

    def test_result_ports(self):
        """int64 presents the product on both ports (PH | PL)."""
        r = MFMult().multiply(
            OperandBundle.int64(mask(64), mask(64)), MFFormat.INT64)
        product = mask(64) ** 2
        assert r.ph == product >> 64
        assert r.pl == product & mask(64)
        assert r.int128 == product

    def test_port_accessors_guarded(self):
        r = MFMult().multiply(
            OperandBundle.int64(1, 1), MFFormat.INT64)
        with pytest.raises(FormatError):
            __ = r.fp64_encoding
        with pytest.raises(FormatError):
            r.fp32_encoding(0)


class TestFP64PaperMode:
    @given(NORMAL64, NORMAL64)
    @example(ONE_HALF64, ONE_HALF64)                # high-leading case
    @example(ONE_HALF64, CARRY64)                   # rounding carry-out
    @settings(max_examples=40)
    def test_datapath_equals_fast(self, xe, ye):
        """The PP/tree/Fig. 3 oracle and MFMult agree bit for bit,
        range flags included.  Shrinking favours small fractions (the
        low-leading case), hence the pinned examples."""
        bundle = OperandBundle.fp64(xe, ye)
        ref, __ = datapath_multiply(bundle, MFFormat.FP64)
        assert ref == MFMult().multiply(bundle, MFFormat.FP64)

    @given(MID64, MID64)
    @settings(max_examples=200)
    def test_within_half_ulp_of_exact(self, xe, ye):
        """Injection rounding is round-to-nearest (ties away): the result
        is always within half an ulp of the exact product."""
        bundle = OperandBundle.fp64(xe, ye)
        r = MFMult().multiply(bundle, MFFormat.FP64)
        got = decode(r.fp64_encoding, BINARY64)
        # Measure against the infinitely precise product: a float
        # "exact" is itself RNE-rounded, so an exact tie (which the
        # datapath rounds away and RNE rounds to even) would read as a
        # full-ulp error instead of the true half ulp.
        exact = Fraction(decode(xe, BINARY64)) * Fraction(decode(ye, BINARY64))
        assert got != 0
        assert abs(Fraction(got) - exact) / abs(exact) \
            <= Fraction(1, 2 ** 53) + Fraction(1, 2 ** 80)

    @given(MID64, MID64)
    @settings(max_examples=100)
    def test_differs_from_rne_only_on_ties(self, xe, ye):
        bundle = OperandBundle.fp64(xe, ye)
        ours = MFMult().multiply(bundle, MFFormat.FP64)
        ieee = encode(decode(xe, BINARY64) * decode(ye, BINARY64), BINARY64)
        # Equal, or one ulp up (tie rounded away instead of to even).
        assert ours.ph in (ieee, ieee + 1)

    def test_sign_rule(self):
        mf = MFMult()
        assert mf.mul_fp64(-2.0, 3.0) == -6.0
        assert mf.mul_fp64(-2.0, -3.0) == 6.0
        assert mf.mul_fp64(2.0, 3.0) == 6.0

    def test_exponent_increment_case(self):
        # 1.5 * 1.5 = 2.25: leading one lands high -> exponent + 1.
        assert MFMult().mul_fp64(1.5, 1.5) == 2.25

    def test_rounding_overflow_renormalizes(self):
        # 1.5 * m_y with m_y chosen so the significand product is exactly
        # 2**105 - 2**51: the injection tie rounds the low-leading
        # product up to 2**53, which must renormalize to exactly 2.0.
        m_y = ((1 << 54) - 1) // 3          # 3 * m_y = 2**54 - 1
        y = decode(BINARY64.pack(0, 1023, m_y - (1 << 52)), BINARY64)
        assert (3 << 51) * m_y == (1 << 105) - (1 << 51)
        assert MFMult().mul_fp64(1.5, y) == 2.0

    def test_overflow_flag(self):
        big = BINARY64.pack(0, 2046, 0)
        r = MFMult().multiply(OperandBundle.fp64(big, big), MFFormat.FP64)
        assert Flag.OVERFLOW in r.flags

    def test_underflow_flag(self):
        tiny = BINARY64.pack(0, 1, 0)
        r = MFMult().multiply(OperandBundle.fp64(tiny, tiny), MFFormat.FP64)
        assert Flag.UNDERFLOW in r.flags

    @pytest.mark.parametrize("encoding, kind", [
        (BINARY64.pack(0, 0, 0), "zero"),
        (BINARY64.pack(0, 0, 1), "subnormal"),
        (BINARY64.pack(0, 2047, 0), "infinity"),
        (BINARY64.pack(0, 2047, 1), "NaN"),
    ])
    def test_unsupported_operands_raise(self, encoding, kind):
        one = encode(1.0, BINARY64)
        with pytest.raises(UnsupportedOperationError, match=kind):
            MFMult().multiply(OperandBundle.fp64(encoding, one),
                              MFFormat.FP64)


class TestFP32DualPaperMode:
    @given(NORMAL32, NORMAL32, NORMAL32, NORMAL32)
    @example(ONE_HALF32, ONE_HALF32, ONE_HALF32, ONE_HALF32)
    @settings(max_examples=40)
    def test_datapath_equals_fast(self, x0, y0, x1, y1):
        bundle = OperandBundle.fp32_pair(x0, y0, x1, y1)
        ref, __ = datapath_multiply(bundle, MFFormat.FP32X2)
        assert ref == MFMult().multiply(bundle, MFFormat.FP32X2)

    @given(MID32, MID32, MID32, MID32)
    @settings(max_examples=100)
    def test_lanes_are_independent(self, x0, y0, x1, y1):
        """Changing lane 1 operands must not affect lane 0's result."""
        mf = MFMult()
        one = encode(1.0, BINARY32)
        a = mf.multiply(OperandBundle.fp32_pair(x0, y0, x1, y1),
                        MFFormat.FP32X2)
        b = mf.multiply(OperandBundle.fp32_pair(x0, y0, one, one),
                        MFFormat.FP32X2)
        assert a.fp32_encoding(0) == b.fp32_encoding(0)

    @given(MID32, MID32)
    @settings(max_examples=60)
    def test_lane_matches_scalar_semantics(self, xe, ye):
        """Each lane rounds exactly like a standalone binary32 multiply."""
        mf = MFMult()
        r = mf.multiply(OperandBundle.fp32_pair(xe, ye, xe, ye),
                        MFFormat.FP32X2)
        assert r.fp32_encoding(0) == r.fp32_encoding(1)
        ieee = encode(decode(xe, BINARY32) * decode(ye, BINARY32), BINARY32)
        assert r.fp32_encoding(0) in (ieee, ieee + 1)

    def test_convenience_wrapper(self):
        r0, r1 = MFMult().mul_fp32_pair((1.5, 3.0), (2.0, 7.0))
        assert (r0, r1) == (3.0, 21.0)


class TestFullMode:
    @given(st.floats(min_value=-1e150, max_value=1e150,
                     allow_nan=False, allow_infinity=False),
           st.floats(min_value=-1e150, max_value=1e150,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_rne_matches_hardware_float(self, a, b):
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        assert mf.mul_fp64(a, b) == a * b

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False),
           st.floats(width=32, allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_rne_binary32_matches_numpy_style(self, a, b):
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        product = (struct.unpack("<f", struct.pack("<f", a))[0]
                   * struct.unpack("<f", struct.pack("<f", b))[0])
        try:
            expect = struct.unpack("<f", struct.pack("<f", product))[0]
        except OverflowError:
            expect = math.copysign(math.inf, product)
        r0, __ = mf.mul_fp32_pair((a, 1.0), (b, 1.0))
        if math.isnan(expect):
            assert math.isnan(r0)
        else:
            assert r0 == expect

    def test_specials(self):
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        assert mf.mul_fp64(0.0, 5.0) == 0.0
        assert math.copysign(1.0, mf.mul_fp64(-0.0, 5.0)) == -1.0
        assert mf.mul_fp64(math.inf, 2.0) == math.inf
        assert mf.mul_fp64(-math.inf, 2.0) == -math.inf
        assert math.isnan(mf.mul_fp64(math.inf, 0.0))
        assert math.isnan(mf.mul_fp64(math.nan, 1.0))

    def test_subnormal_inputs_and_outputs(self):
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        tiny = math.ldexp(1.0, -1060)
        assert mf.mul_fp64(tiny, 0.5) == tiny * 0.5
        sub = math.ldexp(1.0, -1030)
        assert mf.mul_fp64(sub, sub) == 0.0         # underflows to zero
        a, b = math.ldexp(1.0, -540), math.ldexp(1.0, -535)
        assert mf.mul_fp64(a, b) == a * b           # the half-ulp tie case

    def test_overflow_to_infinity(self):
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        assert mf.mul_fp64(1e300, 1e300) == math.inf
        assert mf.mul_fp64(-1e300, 1e300) == -math.inf

    def test_injection_mode_in_full_envelope(self):
        mf = MFMult(mode="full", rounding=RoundingMode.INJECTION)
        assert mf.mul_fp64(1.5, 2.0) == 3.0
        assert mf.mul_fp64(0.0, 3.0) == 0.0


class TestConfiguration:
    def test_paper_mode_rejects_rne(self):
        """The paper's unit has no sticky bit (Sec. III-A)."""
        with pytest.raises(UnsupportedOperationError):
            MFMult(mode="paper", rounding=RoundingMode.RNE)

    def test_bad_mode(self):
        with pytest.raises(FormatError):
            MFMult(mode="silicon")
        with pytest.raises(TypeError):
            MFMult(fidelity="datapath")     # one engine, no fidelity knob

    def test_operand_bundle_validation(self):
        with pytest.raises(BitWidthError):
            OperandBundle.int64(1 << 64, 0)
        with pytest.raises(BitWidthError):
            OperandBundle.fp32_pair(1 << 32, 0, 0, 0)
        with pytest.raises(FormatError):
            OperandBundle.int64(0, 0).lane32(2)

    def test_multiply_requires_bundle(self):
        with pytest.raises(FormatError):
            MFMult().multiply((1, 2), MFFormat.INT64)


class TestTrace:
    """The oracle exposes the datapath's intermediate values."""

    def test_datapath_trace_populated(self):
        bundle = OperandBundle.fp64(encode(1.5, BINARY64),
                                    encode(2.5, BINARY64))
        __, trace = datapath_multiply(bundle, MFFormat.FP64)
        assert trace.fmt is MFFormat.FP64
        assert trace.pp_array is not None
        assert len(trace.lane_results) == 1
        assert (trace.tree_sum + trace.tree_carry) & mask(128) \
            == (3 << 51) * (5 << 50)

    def test_fp32_trace_has_two_lanes(self):
        bundle = OperandBundle.fp32_pair(
            encode(1.5, BINARY32), encode(2.0, BINARY32),
            encode(2.0, BINARY32), encode(3.0, BINARY32))
        __, trace = datapath_multiply(bundle, MFFormat.FP32X2)
        assert len(trace.lane_results) == 2
        assert len(trace.pp_array.windows) == 2
