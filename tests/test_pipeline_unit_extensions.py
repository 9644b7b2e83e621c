"""Tests for the unit's paper-suggested extensions.

* structural RNE (the sticky bit Sec. III-A lists as missing), and
* the Fig. 6 reducer absorbed into the output formatter (Sec. IV).
"""

import random

import pytest

from repro.bits.ieee754 import BINARY32, BINARY64, encode
from repro.core.formats import MFFormat, OperandBundle, RoundingMode
from repro.core.mfmult import MFMult
from repro.core.pipeline_unit import MFMultUnit, build_mf_multiplier
from repro.core.reduction import reduce_binary64
from repro.errors import NetlistError


@pytest.fixture(scope="module")
def rne_unit():
    return MFMultUnit(rounding="rne")


@pytest.fixture(scope="module")
def reducer_unit():
    return MFMultUnit(with_reducer=True)


def _mid64(rng):
    return BINARY64.pack(rng.getrandbits(1), rng.randint(600, 1400),
                         rng.getrandbits(52))


def _mid32(rng):
    return BINARY32.pack(rng.getrandbits(1), rng.randint(64, 190),
                         rng.getrandbits(23))


def _tie64_cases():
    """Deterministic binary64 tie cases: 1.5 * m_y.

    With m_x = 3*2^51, the product is (3*m_y) << 51; for odd m_y with
    3*m_y < 2^54 the guard bit is 1 and everything below is 0 — an exact
    low-case tie.  For m_y = 2 (mod 4) with 3*m_y >= 2^54 the same holds
    one position up (a high-case tie).
    """
    one_point_five = BINARY64.pack(0, 1023, 1 << 51)
    cases = []
    limit = (1 << 54) // 3
    for m_y in (
        (1 << 52) + 1, (1 << 52) + 3, (1 << 52) + 12345,
        limit - 2 if (limit - 2) % 2 == 1 else limit - 3,
    ):
        assert m_y % 2 == 1 and 3 * m_y < (1 << 54)
        cases.append((one_point_five, BINARY64.pack(0, 1023,
                                                    m_y - (1 << 52))))
    for m_y in ((1 << 53) - 2, (1 << 53) - 6):
        assert m_y % 4 == 2 and 3 * m_y >= (1 << 54)
        cases.append((one_point_five, BINARY64.pack(0, 1023,
                                                    m_y - (1 << 52))))
    return cases


def _tie32_cases():
    one_point_five = BINARY32.pack(0, 127, 1 << 22)
    cases = []
    for m_y in ((1 << 23) + 1, (1 << 23) + 777, 11184809):
        assert m_y % 2 == 1 and 3 * m_y < (1 << 25)
        cases.append((one_point_five, BINARY32.pack(0, 127,
                                                    m_y - (1 << 23))))
    return cases


class TestStructuralRNE:
    def test_random_fp64_matches_full_model(self, rne_unit):
        rng = random.Random(21)
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        ops = [(OperandBundle.fp64(_mid64(rng), _mid64(rng)), MFFormat.FP64)
               for __ in range(40)]
        results = rne_unit.run_batch(ops)
        for (bundle, fmt), res in zip(ops, results):
            assert res.ph == mf.multiply(bundle, fmt).ph, hex(bundle.x)

    def test_fp64_ties_round_to_even(self, rne_unit):
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        injection = MFMult()
        ops = [(OperandBundle.fp64(a, b), MFFormat.FP64)
               for a, b in _tie64_cases()]
        results = rne_unit.run_batch(ops)
        corrections = 0
        for (bundle, fmt), res in zip(ops, results):
            expect = mf.multiply(bundle, fmt).ph
            assert res.ph == expect
            if injection.multiply(bundle, fmt).ph != expect:
                corrections += 1
        # The tie family must actually exercise the correction path.
        assert corrections >= 3

    def test_fp32_ties_round_to_even(self, rne_unit):
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        ops = []
        for a, b in _tie32_cases():
            ops.append((OperandBundle.fp32_pair(a, b, b, a),
                        MFFormat.FP32X2))
        results = rne_unit.run_batch(ops)
        for (bundle, fmt), res in zip(ops, results):
            assert res.ph == mf.multiply(bundle, fmt).ph

    def test_random_fp32_matches_full_model(self, rne_unit):
        rng = random.Random(22)
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        ops = [(OperandBundle.fp32_pair(_mid32(rng), _mid32(rng),
                                        _mid32(rng), _mid32(rng)),
                MFFormat.FP32X2) for __ in range(40)]
        results = rne_unit.run_batch(ops)
        for (bundle, fmt), res in zip(ops, results):
            assert res.ph == mf.multiply(bundle, fmt).ph

    def test_int64_unaffected(self, rne_unit):
        rng = random.Random(23)
        ops = [(OperandBundle.int64(rng.getrandbits(64),
                                    rng.getrandbits(64)), MFFormat.INT64)
               for __ in range(10)]
        for (bundle, __), res in zip(ops, rne_unit.run_batch(ops)):
            assert (res.ph << 64) | res.pl == bundle.x * bundle.y

    def test_sticky_block_exists(self, rne_unit):
        blocks = {g.block.split("/", 1)[0] for g in rne_unit.module.gates}
        assert "sticky" in blocks

    def test_bad_rounding_rejected(self):
        with pytest.raises(NetlistError):
            build_mf_multiplier(rounding="stochastic")


class TestIntegratedReducer:
    def test_reduced_flag_and_payload(self, reducer_unit):
        mf = MFMult()
        rng = random.Random(24)
        ops = [(OperandBundle.fp64(_mid64(rng), _mid64(rng)), MFFormat.FP64)
               for __ in range(15)]
        # Guaranteed-reducible product: 1.5 * 2.0 = 3.0.
        ops.append((OperandBundle.fp64(encode(1.5, BINARY64),
                                       encode(2.0, BINARY64)),
                    MFFormat.FP64))
        results = reducer_unit.run_batch(ops)
        seen_reduced = 0
        for (bundle, fmt), res in zip(ops, results):
            ph = mf.multiply(bundle, fmt).ph
            assert res.ph == ph
            decision = reduce_binary64(ph)
            assert res.reduced == (1 if decision.reduced else 0)
            if decision.reduced:
                assert res.pl == decision.encoding32
                seen_reduced += 1
            else:
                assert res.pl == 0
        assert seen_reduced >= 1

    def test_flag_low_outside_fp64(self, reducer_unit):
        ops = [(OperandBundle.int64(3, 5), MFFormat.INT64)]
        res = reducer_unit.run_batch(ops)[0]
        assert res.reduced == 0
        assert res.pl == 15          # int64's PL untouched

    def test_plain_unit_has_no_flag(self):
        unit = MFMultUnit()
        assert not unit.has_reducer
        res = unit.multiply(OperandBundle.int64(2, 2), MFFormat.INT64)
        assert res.reduced is None
