"""Seed-robustness of the headline reproduction claims.

The claim registry (``tests/test_paper_claims.py``) asserts the paper's
shape claims for one committed seed; these tests re-check the claims
across several stimulus seeds and Monte Carlo depths, so the
reproduction cannot hinge on a lucky draw.
Kept at modest cycle counts — direction, not precision.
"""

import pytest

from repro.eval.experiments import cached_module
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.library import default_library
from repro.hdl.power.monte_carlo import estimate_power


def _power(which, fmt_or_stim, n_cycles, seed):
    lib = default_library()
    module = cached_module(which)
    gen = WorkloadGenerator(seed)
    if which == "mf":
        stim = gen.mf_stimulus(fmt_or_stim, n_cycles)
    else:
        stim = gen.multiplier_stimulus(n_cycles)
    return estimate_power(module, lib, stim, n_cycles).total_mw


@pytest.mark.slow
@pytest.mark.parametrize("seed", [11, 222, 3333])
class TestTableIIIRobustness:
    def test_pipelined_radix16_wins(self, seed):
        r16 = _power("r16_pipe", None, 10, seed)
        r4 = _power("r4_pipe", None, 10, seed)
        assert r16 < r4
        assert 0.80 < r16 / r4 < 0.97


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 77, 777])
class TestTableVRobustness:
    def test_format_power_ordering(self, seed):
        mw = {fmt: _power("mf", fmt, 10, seed)
              for fmt in ("int64", "fp64", "fp32_dual", "fp32_single")}
        assert mw["int64"] > mw["fp64"] > mw["fp32_dual"] \
            > mw["fp32_single"]

    def test_dual_lane_efficiency_wins(self, seed):
        fp64 = _power("mf", "fp64", 10, seed)
        dual = _power("mf", "fp32_dual", 10, seed)
        # 2 FLOPs/cycle at lower power: efficiency gain well over 2x.
        assert 2 * fp64 / dual > 2.0


class TestCycleCountRobustness:
    @pytest.mark.parametrize("n_cycles", [6, 12, 24])
    def test_table3_ratio_stable(self, n_cycles):
        r16 = _power("r16_pipe", None, n_cycles, 2017)
        r4 = _power("r4_pipe", None, n_cycles, 2017)
        assert 0.80 < r16 / r4 < 0.97
