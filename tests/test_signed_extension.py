"""Tests for the signed-multiplication extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith.partial_products import build_signed_pp_array
from repro.arith.trees import reduce_pp_array
from repro.bits.utils import from_twos_complement, mask, to_twos_complement
from repro.core.mfmult import MFMult
from repro.errors import BitWidthError
from tests.oracles.mf_datapath import datapath_mul_int64_signed

S64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


class TestSignedPPArray:
    @given(S64, S64)
    @settings(max_examples=120)
    def test_total_is_signed_product(self, x, y):
        array = build_signed_pp_array(to_twos_complement(x, 64),
                                      to_twos_complement(y, 64))
        assert from_twos_complement(array.total(), 128) == x * y

    def test_sixteen_rows(self):
        """The final transfer digit is dropped: 16 rows, not 17."""
        array = build_signed_pp_array(1, 1)
        assert len(array.rows) == 16

    def test_extremes(self):
        lo = -(1 << 63)
        hi = (1 << 63) - 1
        for x in (lo, hi, -1, 0, 1):
            for y in (lo, hi, -1, 0, 1):
                array = build_signed_pp_array(to_twos_complement(x, 64),
                                              to_twos_complement(y, 64))
                assert from_twos_complement(array.total(), 128) == x * y

    @given(st.integers(min_value=-(1 << 7), max_value=(1 << 7) - 1),
           st.integers(min_value=-(1 << 7), max_value=(1 << 7) - 1))
    def test_8bit_radix4(self, x, y):
        array = build_signed_pp_array(to_twos_complement(x, 8),
                                      to_twos_complement(y, 8),
                                      width=8, radix_log2=2,
                                      product_width=16)
        assert from_twos_complement(array.total(), 16) == x * y

    def test_width_must_divide(self):
        with pytest.raises(BitWidthError):
            build_signed_pp_array(0, 0, width=64, radix_log2=3)

    @given(S64, S64)
    @settings(max_examples=40)
    def test_reduces_through_the_tree(self, x, y):
        array = build_signed_pp_array(to_twos_complement(x, 64),
                                      to_twos_complement(y, 64))
        s, c, __ = reduce_pp_array(array)
        assert from_twos_complement((s + c) & mask(128), 128) == x * y


class TestMFMultSigned:
    @given(S64, S64)
    @settings(max_examples=30)
    def test_datapath(self, x, y):
        product, __ = datapath_mul_int64_signed(x, y)
        assert product == MFMult().mul_int64_signed(x, y) == x * y

    @given(S64, S64)
    def test_fast(self, x, y):
        assert MFMult().mul_int64_signed(x, y) == x * y

    def test_range_checked(self):
        with pytest.raises(BitWidthError):
            MFMult().mul_int64_signed(1 << 63, 0)
