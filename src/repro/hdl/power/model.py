"""Energy bookkeeping: toggles -> femtojoules -> milliwatts.

The model follows the standard CMOS dynamic power decomposition the
paper's tooling uses:

* **dynamic** energy: every net transition switches the driving cell's
  internal capacitance plus the loads it drives —
  ``E = scale * (area_eq(driver) + 0.5 * load)`` femtojoules per toggle;
* **register/clock** energy: each flip-flop pays a clock-tick energy
  every cycle (toggling or not) and output-transition energy when its
  q flips (the q-net toggles are counted by the simulators like any
  other net);
* **leakage**: proportional to total area.

The per-net toggle energies and the leakage are per-library fields of
the module's index (:class:`~repro.hdl.index.LibraryFields`), computed
once per module and library.

``scale`` (``CellLibrary.energy_fj_per_unit``) is the single calibrated
constant — see docs/power_model.md and the calibration test in
``tests/test_eval.py``.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class PowerReport:
    """Power estimate at a given clock frequency."""

    frequency_mhz: float
    cycles: int
    dynamic_mw: float
    register_mw: float
    leakage_mw: float
    #: Dynamic power that a zero-delay (glitch-free) simulation would
    #: predict; ``dynamic_mw - zero_delay_dynamic_mw`` is glitch power.
    zero_delay_dynamic_mw: Optional[float] = None
    by_block_mw: Dict[str, float] = field(default_factory=dict)
    total_toggles: int = 0
    #: Simulator perf counters from the Monte Carlo run that produced
    #: this report (events processed, inertial cancellations, time-wheel
    #: occupancy, worker count) — diagnostics only, no power semantics.
    #: Always matches ``repro.obs.schema.SIM_STATS_KEYS``.
    sim_stats: Optional[Dict[str, object]] = None
    #: Per-net power attribution (``estimate_power(attribution=True)``):
    #: glitch/functional split by named sub-block, cell type and
    #: pipeline stage — a pure observer over the same toggle vectors,
    #: so the headline numbers above are identical with it on or off.
    attribution: Optional[object] = None

    @property
    def total_mw(self):
        return self.dynamic_mw + self.register_mw + self.leakage_mw

    @property
    def glitch_mw(self):
        if self.zero_delay_dynamic_mw is None:
            return None
        return self.dynamic_mw - self.zero_delay_dynamic_mw

    def scaled_to(self, frequency_mhz):
        """The same activity numbers re-expressed at another clock.

        Dynamic and register power scale linearly with frequency;
        leakage does not (the paper scales its 100 MHz numbers the same
        way for the 880 MHz column of Table V).
        """
        ratio = frequency_mhz / self.frequency_mhz
        return PowerReport(
            frequency_mhz=frequency_mhz,
            cycles=self.cycles,
            dynamic_mw=self.dynamic_mw * ratio,
            register_mw=self.register_mw * ratio,
            leakage_mw=self.leakage_mw,
            zero_delay_dynamic_mw=(None if self.zero_delay_dynamic_mw is None
                                   else self.zero_delay_dynamic_mw * ratio),
            by_block_mw={k: v * ratio for k, v in self.by_block_mw.items()},
            total_toggles=self.total_toggles,
            sim_stats=self.sim_stats,
            attribution=(None if self.attribution is None
                         else self.attribution.scaled_to(frequency_mhz)),
        )


def clock_energy_fj_per_cycle(module, library):
    """Clock-tree energy paid by the registers every cycle."""
    return (len(module.registers) * library.register.clock_energy_units
            * library.energy_fj_per_unit)


def toggles_to_power_mw(total_energy_fj, cycles, frequency_mhz):
    """Convert accumulated switching energy to average power.

    ``cycles`` transitions happen in ``cycles / f`` seconds:
    ``P[mW] = E[fJ] * 1e-15 / (cycles / (f[MHz] * 1e6)) * 1e3``.
    """
    if cycles <= 0:
        return 0.0
    seconds = cycles / (frequency_mhz * 1e6)
    return total_energy_fj * 1e-15 / seconds * 1e3
