"""Cross-layer integration tests.

These exercise complete user workflows: software model <-> gate-level
unit equivalence under random mixed traffic, the demote-and-issue
pipeline of Sec. IV end to end, and power-harness consistency.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits.ieee754 import BINARY32, BINARY64, decode
from repro.bits.utils import mask
from repro.core.formats import MFFormat, OperandBundle
from repro.core.mfmult import MFMult
from repro.core.pipeline_unit import MFMultUnit
from repro.core.reduction import reduce_binary64, widen_binary32
from repro.core.vector_unit import VectorMultiplier
from repro.eval.workloads import WorkloadGenerator

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


@pytest.fixture(scope="module")
def unit():
    return MFMultUnit()


class TestStructuralFunctionalEquivalence:
    """Hypothesis-driven co-simulation: the netlist IS the model."""

    @given(NORMAL64, NORMAL64)
    @settings(max_examples=25, deadline=None)
    def test_fp64(self, unit, xe, ye):
        mf = MFMult()
        bundle = OperandBundle.fp64(xe, ye)
        expect = mf.multiply(bundle, MFFormat.FP64)
        got = unit.multiply(bundle, MFFormat.FP64)
        assert got.ph == expect.ph

    @given(NORMAL32, NORMAL32, NORMAL32, NORMAL32)
    @settings(max_examples=25, deadline=None)
    def test_fp32_dual(self, unit, x0, y0, x1, y1):
        mf = MFMult()
        bundle = OperandBundle.fp32_pair(x0, y0, x1, y1)
        expect = mf.multiply(bundle, MFFormat.FP32X2)
        got = unit.multiply(bundle, MFFormat.FP32X2)
        assert got.ph == expect.ph

    @given(st.integers(min_value=0, max_value=mask(64)),
           st.integers(min_value=0, max_value=mask(64)))
    @settings(max_examples=25, deadline=None)
    def test_int64(self, unit, x, y):
        got = unit.multiply(OperandBundle.int64(x, y), MFFormat.INT64)
        assert (got.ph << 64) | got.pl == x * y


class TestReduceThenMultiplyEndToEnd:
    """Sec. IV's full story: demote, multiply on the narrow lane,
    widen back — error-free for reducible operands."""

    @given(st.integers(min_value=0, max_value=1),
           st.integers(min_value=960, max_value=1085),
           st.integers(min_value=0, max_value=mask(23)),
           st.integers(min_value=0, max_value=1),
           st.integers(min_value=960, max_value=1085),
           st.integers(min_value=0, max_value=mask(23)))
    @settings(max_examples=40, deadline=None)
    def test_demoted_product_matches_binary32_semantics(
            self, sx, ex, fx, sy, ey, fy):
        xe = BINARY64.pack(sx, ex, fx << 29)
        ye = BINARY64.pack(sy, ey, fy << 29)
        dx, dy = reduce_binary64(xe), reduce_binary64(ye)
        assert dx.reduced and dy.reduced
        mf = MFMult()
        bundle = OperandBundle.fp32_pair(dx.encoding32, dy.encoding32,
                                         dx.encoding32, dy.encoding32)
        out = mf.multiply(bundle, MFFormat.FP32X2)
        back = decode(widen_binary32(out.fp32_encoding(0)), BINARY64)
        exact = decode(xe, BINARY64) * decode(ye, BINARY64)
        assert abs(back - exact) <= abs(exact) * 2.0 ** -23

    def test_vector_machine_against_pure_fp64(self):
        """The demoting machine and the baseline produce results that
        agree to binary32 precision on the same stream."""
        gen = WorkloadGenerator(11)
        pairs = gen.mixed_binary64_stream(60, 0.7)
        with_red = VectorMultiplier(use_reduction=True).run(pairs)
        without = VectorMultiplier(use_reduction=False).run(pairs)
        assert with_red.stats.total_cycles < without.stats.total_cycles
        for a, b in zip(with_red.products64, without.products64):
            va, vb = decode(a, BINARY64), decode(b, BINARY64)
            assert abs(va - vb) <= abs(vb) * 2.0 ** -23


class TestMixedTrafficThroughput:
    def test_dual_lane_throughput_double(self, unit):
        """2 results per issued cycle in fp32 mode, 1 otherwise — the
        basis of Table V's throughput column."""
        assert MFFormat.FP32X2.flops_per_cycle == 2
        assert MFFormat.FP64.flops_per_cycle == 1

    def test_pipeline_accepts_new_op_every_cycle(self, unit):
        rng = random.Random(10)
        ops = [(OperandBundle.int64(rng.getrandbits(64),
                                    rng.getrandbits(64)), MFFormat.INT64)
               for __ in range(8)]
        results = unit.run_batch(ops)
        assert len(results) == 8
        for (bundle, __), res in zip(ops, results):
            assert (res.ph << 64) | res.pl == bundle.x * bundle.y


class TestPowerHarnessConsistency:
    def test_idle_lane_saves_power(self):
        """Table V row 4 vs row 3: a single binary32 issue must dissipate
        less than a dual issue (the idle lane stops toggling)."""
        from repro.eval.experiments import cached_module
        from repro.hdl.library import default_library
        from repro.hdl.power.monte_carlo import estimate_power

        lib = default_library()
        module = cached_module("mf")
        gen = WorkloadGenerator(12)
        dual = estimate_power(module, lib, gen.mf_stimulus("fp32_dual", 8), 8)
        gen = WorkloadGenerator(12)
        single = estimate_power(module, lib,
                                gen.mf_stimulus("fp32_single", 8), 8)
        assert single.total_mw < dual.total_mw

    def test_fp64_cheaper_than_int64(self):
        """Table V: only 53 of 64 significand bits are active in fp64."""
        from repro.eval.experiments import cached_module
        from repro.hdl.library import default_library
        from repro.hdl.power.monte_carlo import estimate_power

        lib = default_library()
        module = cached_module("mf")
        gen = WorkloadGenerator(13)
        i64 = estimate_power(module, lib, gen.mf_stimulus("int64", 8), 8)
        gen = WorkloadGenerator(13)
        f64 = estimate_power(module, lib, gen.mf_stimulus("fp64", 8), 8)
        assert f64.total_mw < i64.total_mw
