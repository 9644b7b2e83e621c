"""Design-space sweeps (the ablation studies).

The paper makes several design choices it argues for but does not
sweep; we do:

* **radix** — 4 vs 8 vs 16 (Sec. II-A argues radix-8 is dominated);
* **final CPA style** — ripple / Brent-Kung / Kogge-Stone / carry-select;
* **pipeline cut** — after the pre-computation vs after PPGEN;
* **tree style** — Dadda 3:2 vs 4:2-compressor-first;
* **format specialization** — the MF unit tied to one format.

Each ``*_point`` function measures one design point; the orchestrator
composes them into the ``sweep_radix``, ``sweep_cpa``,
``sweep_pipeline_cut``, ``sweep_tree`` and ``sweep_specialization``
experiments (``run_experiment("sweep_radix", power_cycles=10)``).
"""

import inspect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuits.mult_common import build_multiplier
from repro.core.pipeline_unit import (
    FRMT_FP32X2,
    FRMT_FP64,
    FRMT_INT64,
    build_mf_multiplier,
)
from repro.errors import SimulationError
from repro.eval.experiments import NAMED_BUILDS, cached_module
from repro.eval.tables import render_table
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.area.model import area_report
from repro.hdl.buffering import insert_buffers
from repro.hdl.library import default_library
from repro.hdl.power.monte_carlo import estimate_power
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.timing.sta import analyze


@dataclass
class DesignPoint:
    """One multiplier configuration's measurements."""

    label: str
    gates: int
    registers: int
    latency_ps: float
    clock_ps: float
    area_knand2: float
    power_mw: Optional[float] = None

    def as_row(self):
        return (self.label, self.gates, self.registers,
                round(self.latency_ps), round(self.clock_ps),
                round(self.area_knand2, 1),
                "-" if self.power_mw is None else round(self.power_mw, 2))


@dataclass
class SweepResult:
    title: str
    points: List[DesignPoint]

    def render(self):
        return render_table(
            ("config", "gates", "regs", "latency[ps]", "clock[ps]",
             "area[K]", "power[mW]"),
            [p.as_row() for p in self.points], title=self.title)


def measure_design_point(label, module, power_cycles=0, seed=2017,
                         verify_patterns=16):
    """STA + area (+ optional power) for one built multiplier module.

    The stimulus is generated **once** for the longest pass and sliced:
    the verify pass reads the first ``verify_patterns`` words of the
    same stream the power pass replays (the simulators only consume the
    first ``n_patterns`` entries of each bus list), instead of paying
    ``WorkloadGenerator`` twice per design point.
    """
    lib = default_library()
    n_patterns = max(verify_patterns, power_cycles)
    stim = (WorkloadGenerator(seed).multiplier_stimulus(n_patterns)
            if n_patterns else None)
    if verify_patterns:
        run = LevelizedSimulator(module).run(stim, verify_patterns)
        latency = module.stage_count() - 1
        words = run.bus_words(module.outputs["p"])
        for t in range(verify_patterns - latency):
            expect = stim["x"][t] * stim["y"][t]
            if words[t + latency] != expect:
                raise SimulationError(
                    f"{label}: wrong product at pattern {t} "
                    f"({hex(stim['x'][t])} * {hex(stim['y'][t])})")
    timing = analyze(module, lib)
    area = area_report(module, lib)
    power = None
    if power_cycles:
        power = estimate_power(module, lib, stim, power_cycles).total_mw
    return DesignPoint(
        label=label,
        gates=len(module.gates),
        registers=len(module.registers),
        latency_ps=timing.latency_ps,
        clock_ps=timing.clock_period_ps,
        area_knand2=area.total_nand2_eq / 1000.0,
        power_mw=power,
    )


#: The swept configurations, in rendering order.  Each leaf function
#: below measures exactly one of these — module-level and
#: keyword-addressable so the orchestrator can fan the points out over
#: worker processes and merge them back deterministically.
RADIX_POINTS = ((2, "radix-4"), (3, "radix-8"), (4, "radix-16"))
CPA_STYLES = ("ripple", "brent_kung", "kogge_stone", "carry_select")
PIPELINE_CUTS = (None, "after_precomp", "after_ppgen")
TREE_POINTS = ((2, "radix-4", False), (2, "radix-4", True),
               (4, "radix-16", False), (4, "radix-16", True))
SPECIALIZATION_LABELS = ("multi-format", "int64-only", "fp64-only",
                         "fp32x2-only")


def _bound_args(builder, params):
    """``params`` completed with ``builder``'s defaults."""
    bound = inspect.signature(builder).bind(**params)
    bound.apply_defaults()
    return bound.arguments


def design_module(builder, **params):
    """The netlist ``builder(**params)`` builds, for one design point.

    Params are compared with each ``NAMED_BUILDS`` row after filling in
    the builder's defaults (``adder_style="kogge_stone"`` at radix 16 is
    ``"r16"``).  A match is that row's ``cached_module`` netlist; any
    other build is fresh: nothing retains it and it never enters the
    on-disk module cache.
    """
    args = _bound_args(builder, params)
    for name, (row_builder, row_params) in NAMED_BUILDS.items():
        if (row_builder is builder
                and _bound_args(row_builder, row_params) == args):
            return cached_module(name)
    return builder(**params)


def radix_point(radix_log2, power_cycles=0):
    """One radix-sweep design point (leaf job)."""
    label = dict((k, lbl) for k, lbl in RADIX_POINTS)[radix_log2]
    module = design_module(build_multiplier, radix_log2=radix_log2)
    return measure_design_point(label, module, power_cycles=power_cycles)


def cpa_point(style, radix_log2=4, power_cycles=0):
    """One CPA-style design point (leaf job)."""
    module = design_module(build_multiplier, radix_log2=radix_log2,
                           adder_style=style)
    return measure_design_point(f"cpa={style}", module,
                                power_cycles=power_cycles)


def cut_point(cut, radix_log2=4, power_cycles=0):
    """One pipeline-cut design point (leaf job)."""
    module = design_module(build_multiplier, radix_log2=radix_log2,
                           pipeline_cut=cut)
    return measure_design_point(f"cut={cut}", module,
                                power_cycles=power_cycles)


def tree_point(radix_log2, use_4_2, power_cycles=0):
    """One tree-style design point (leaf job)."""
    module = design_module(build_multiplier, radix_log2=radix_log2,
                           use_4_2=use_4_2)
    label = dict((k, lbl) for k, lbl, __ in TREE_POINTS)[radix_log2]
    tag = "4:2" if use_4_2 else "3:2"
    return measure_design_point(f"{label} {tag}", module,
                                power_cycles=power_cycles)


def specialization_point(label):
    """One format-specialization design point (leaf job).

    ``"multi-format"`` measures the full unit; the ``*-only`` labels tie
    ``frmt`` and let the optimizer reap the other formats' logic.
    """
    from repro.hdl.optimize import optimize, tie_input

    lib = default_library()
    if label == "multi-format":
        module = design_module(build_mf_multiplier)
    else:
        code = {"int64-only": FRMT_INT64, "fp64-only": FRMT_FP64,
                "fp32x2-only": FRMT_FP32X2}[label]
        module = build_mf_multiplier(buffer_max_load=None)
        tie_input(module, "frmt", code)
        optimize(module)
        insert_buffers(module, lib)
    timing = analyze(module, lib)
    area = area_report(module, lib)
    return DesignPoint(
        label=label, gates=len(module.gates),
        registers=len(module.registers),
        latency_ps=timing.latency_ps,
        clock_ps=timing.clock_period_ps,
        area_knand2=area.total_nand2_eq / 1000.0)
