"""Tests for the power model and Monte Carlo estimator."""

import pytest

from repro.errors import SimulationError
from repro.hdl.library import default_library
from repro.hdl.module import Module
from repro.hdl.power.model import (
    clock_energy_fj_per_cycle,
    toggles_to_power_mw,
)
from repro.hdl.power.monte_carlo import estimate_power


def _toggle_module():
    m = Module("toggler")
    a = m.input("a", 1)
    x = m.gate("INV", a[0])
    m.output("o", [x])
    return m


class TestUnitConversions:
    def test_toggles_to_power(self):
        # 1000 fJ over 10 cycles at 100 MHz = 1000e-15 J / 100e-9 s = 10 uW.
        assert toggles_to_power_mw(1000.0, 10, 100.0) \
            == pytest.approx(0.01)

    def test_zero_cycles(self):
        assert toggles_to_power_mw(1000.0, 0, 100.0) == 0.0

    def test_leakage_scales_with_area(self):
        lib = default_library()
        small = _toggle_module()
        big = Module("big")
        a = big.input("a", 1)
        for __ in range(100):
            big.gate("INV", a[0])
        assert (big.index.library(lib).leakage_mw
                > small.index.library(lib).leakage_mw)

    def test_clock_energy_per_register(self):
        lib = default_library()
        m = Module("regs")
        a = m.input("a", 4)
        m.register_bus(a, stage=1)
        expect = 4 * lib.register.clock_energy_units * lib.energy_fj_per_unit
        assert clock_energy_fj_per_cycle(m, lib) == pytest.approx(expect)

    def test_net_energies_cover_drivers(self):
        lib = default_library()
        m = _toggle_module()
        energies = m.index.library(lib).energies
        # The gate output includes the cell's internal term.
        __, __, output, __ = m.gates[0]
        assert energies[output] >= \
            lib.energy_fj_per_unit * lib.spec("INV").area_eq


class TestEstimatePower:
    def test_idle_circuit_only_leaks(self):
        m = _toggle_module()
        lib = default_library()
        rep = estimate_power(m, lib, {"a": [0, 0, 0, 0]}, 4)
        assert rep.dynamic_mw == 0.0
        assert rep.total_mw == pytest.approx(rep.leakage_mw)

    def test_activity_scales_power(self):
        m = _toggle_module()
        lib = default_library()
        busy = estimate_power(m, lib, {"a": [0, 1, 0, 1]}, 4)
        lazy = estimate_power(m, lib, {"a": [0, 1, 1, 1]}, 4)
        assert busy.dynamic_mw > lazy.dynamic_mw > 0

    def test_power_scales_with_frequency(self):
        m = _toggle_module()
        lib = default_library()
        rep = estimate_power(m, lib, {"a": [0, 1, 0]}, 3,
                             frequency_mhz=100.0)
        scaled = rep.scaled_to(880.0)
        assert scaled.dynamic_mw == pytest.approx(rep.dynamic_mw * 8.8)
        assert scaled.leakage_mw == rep.leakage_mw   # leakage is static

    def test_glitch_free_mode(self):
        m = _toggle_module()
        lib = default_library()
        rep = estimate_power(m, lib, {"a": [0, 1, 0]}, 3, glitch=False)
        assert rep.glitch_mw == pytest.approx(0.0)

    def test_needs_two_cycles(self):
        with pytest.raises(SimulationError):
            estimate_power(_toggle_module(), default_library(),
                           {"a": [0]}, 1)

    def test_block_breakdown_sums_to_dynamic(self):
        from repro.circuits.mult_radix16 import radix16_multiplier
        from repro.eval.workloads import WorkloadGenerator

        m = radix16_multiplier()
        lib = default_library()
        stim = WorkloadGenerator(1).multiplier_stimulus(4)
        rep = estimate_power(m, lib, stim, 4)
        assert sum(rep.by_block_mw.values()) == pytest.approx(
            rep.dynamic_mw, rel=1e-9)

    def test_register_power_positive_for_pipelined(self):
        from repro.circuits.mult_radix16 import radix16_multiplier
        from repro.eval.workloads import WorkloadGenerator

        m = radix16_multiplier(pipeline_cut="after_ppgen")
        lib = default_library()
        stim = WorkloadGenerator(1).multiplier_stimulus(4)
        rep = estimate_power(m, lib, stim, 4)
        assert rep.register_mw > 0

    def test_glitch_power_nonnegative_and_bounded(self):
        from repro.circuits.mult_radix4 import radix4_multiplier
        from repro.eval.workloads import WorkloadGenerator

        m = radix4_multiplier()
        lib = default_library()
        stim = WorkloadGenerator(2).multiplier_stimulus(4)
        rep = estimate_power(m, lib, stim, 4)
        assert rep.glitch_mw >= 0
        assert rep.dynamic_mw >= rep.zero_delay_dynamic_mw
