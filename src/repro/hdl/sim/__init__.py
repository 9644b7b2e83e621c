"""Netlist simulators.

* :mod:`repro.hdl.sim.compile` — the netlist compile pass: flattens a
  module once into topo-ordered flat arrays and generates specialized
  straight-line evaluation code (the kernels both simulators run).
* :mod:`repro.hdl.sim.levelized` — zero-delay, **bit-parallel** over
  patterns: functional verification and zero-delay switching activity.
  Registers are modeled as one-cycle time shifts of the pattern axis,
  which is exact for the feed-forward pipelines used here.
* :mod:`repro.hdl.sim.event` — event-driven with per-gate load-dependent
  delays: counts *all* transitions including glitches, the quantity the
  paper's combinational-vs-pipelined power comparison hinges on.  It
  runs a bucketed time wheel, with an optional C kernel for replays.

The reference engines these must match bit-for-bit live in
``tests/oracles/``, not here.
"""

from repro.hdl.sim.compile import CompiledModule, compile_module, compiled_module
from repro.hdl.sim.event import EventSimulator, TransitionCounts
from repro.hdl.sim.levelized import LevelizedSimulator, SimRun

__all__ = [
    "CompiledModule",
    "EventSimulator",
    "LevelizedSimulator",
    "SimRun",
    "TransitionCounts",
    "compile_module",
    "compiled_module",
]
