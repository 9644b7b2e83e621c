"""Monte Carlo power estimation (the paper's methodology, Sec. III-E).

"We perform a Monte Carlo simulation by generating pseudo-random input
patterns and estimate the power at a reference frequency 100 MHz" — this
module does exactly that against our netlists:

1.  an exact levelized run computes every net's value in every cycle
    (this also supplies the register outputs cycle by cycle);
2.  the event-driven simulator replays each cycle transition with real
    cell delays, counting glitches;
3.  toggle counts weighted by per-net switching energies, plus register
    clock energy and leakage, yield the :class:`PowerReport`.

``glitch=False`` skips step 2 and charges only the zero-delay activity —
the comparison between the two is the paper's combinational-vs-pipelined
glitch argument made explicit.

Performance machinery (all bit-identical to the straightforward serial
replay):

* the event simulator is **reused** across calls on the same
  module/library pair (:func:`shared_event_simulator`) — its load map,
  fanout lists, delays and compiled evaluation closures are built once;
* the glitch replay (:meth:`EventSimulator.replay`) feeds the event
  engine *delta* stimulus straight from the levelized run's packed
  pattern words, and runs on the compiled C event kernel
  (:mod:`repro.hdl.sim.ckernel`) whenever a system C compiler is
  available.
"""

import argparse
import time
import weakref
from typing import Dict

from repro import obs
from repro.errors import SimulationError
from repro.hdl.power.attribution import attribute_power
from repro.hdl.power.model import (
    PowerReport,
    clock_energy_fj_per_cycle,
    leakage_mw,
    net_toggle_energies,
    toggles_to_power_mw,
)
from repro.hdl.sim.event import EventSimulator
from repro.hdl.sim.levelized import LevelizedSimulator

#: Retained (library, simulator) pairs per module — bounded so sweeps
#: over many scaled libraries don't pin arbitrarily many simulators.
_SIM_CACHE_PER_MODULE = 4

_SIM_CACHE = weakref.WeakKeyDictionary()   # Module -> [(library, esim)]


def shared_event_simulator(module, library):
    """One :class:`EventSimulator` per (module, equal library), reused.

    Constructing an event simulator recomputes the load map, fanout
    lists and per-gate delays — pure functions of module + library — so
    repeated ``estimate_power`` calls share one instance.  Matching is
    by library *equality* (libraries are frozen dataclasses), so the
    idiomatic ``default_library()``-per-call still hits the cache.
    """
    entries = _SIM_CACHE.setdefault(module, [])
    for lib, esim in entries:
        if lib == library:
            return esim
    esim = EventSimulator(module, library)
    entries.append((library, esim))
    if len(entries) > _SIM_CACHE_PER_MODULE:
        entries.pop(0)
    return esim


def cycles_arg(text):
    """The ``argparse`` type of every ``--cycles`` flag: a Monte Carlo
    run needs at least two cycles, so that it has one transition."""
    n_cycles = int(text)
    if n_cycles < 2:
        raise argparse.ArgumentTypeError(
            f"{n_cycles}: a power estimate needs at least two cycles "
            f"(one transition)")
    return n_cycles


def estimate_power(module, library, stimulus, n_cycles, frequency_mhz=100.0,
                   glitch=True, attribution=False):
    """Estimate average power over a stimulus sequence.

    ``stimulus`` maps input bus names to per-cycle word lists (as for
    :class:`LevelizedSimulator`).  At least two cycles are needed to
    observe a transition.  One levelized run gives the zero-delay
    toggles and the per-net pattern words; with ``glitch`` one event
    replay over transitions ``1 .. n_cycles-1`` seeds from those words.
    ``attribution=True`` additionally keeps the per-net toggle vectors
    and attaches a
    :class:`~repro.hdl.power.attribution.PowerAttribution` (glitch vs
    functional split by sub-block / cell / pipeline stage) to the
    report — a pure observer, the power numbers do not change.
    """
    if n_cycles < 2:
        raise SimulationError("need at least two cycles to measure power")
    t_level = time.perf_counter()
    sim = LevelizedSimulator(module)
    with obs.span("power:levelized", cat="power", module=module.name,
                  cycles=n_cycles, kernel=sim.kernel):
        run = sim.run(stimulus, n_cycles)
    t_level = time.perf_counter() - t_level
    zero_toggles = run.toggles_per_net()
    if glitch:
        esim = shared_event_simulator(module, library)
        with obs.span("power:glitch_replay", cat="power",
                      module=module.name):
            event_toggles, sim_stats = _replay(esim, run.packed, 1,
                                               n_cycles - 1)
    else:
        event_toggles = zero_toggles
        sim_stats = {"engine": "zero-delay", "kernel": "none",
                     "transitions": n_cycles - 1, "elapsed_s": t_level}
    return _assemble_report(module, library, n_cycles, zero_toggles,
                            event_toggles, sim_stats, t_level,
                            frequency_mhz, glitch, attribution)


def _assemble_report(module, library, n_cycles, zero_toggles,
                     event_toggles, sim_stats, t_level, frequency_mhz,
                     glitch, attribution):
    """Fold toggle counts into the :class:`PowerReport`."""
    sim_stats = obs.normalize_sim_stats(sim_stats)
    energies = net_toggle_energies(module, library)
    owner = module.block_of_net()
    zero_energy = sum(t * e for t, e in zip(zero_toggles, energies))

    # Effective switched energy: the functional transitions plus the
    # derated share of the extra (glitch) transitions (see
    # CellLibrary.glitch_retention).
    retention = library.glitch_retention if glitch else 0.0
    dynamic_energy = 0.0
    by_block_energy: Dict[str, float] = {}
    for net, zcount in enumerate(zero_toggles):
        extra = max(event_toggles[net] - zcount, 0)
        count = zcount + retention * extra
        if not count:
            continue
        e = count * energies[net]
        dynamic_energy += e
        top = owner[net].split("/", 1)[0] if owner[net] else "(io)"
        by_block_energy[top] = by_block_energy.get(top, 0.0) + e

    transitions = n_cycles - 1
    dynamic_mw = toggles_to_power_mw(dynamic_energy, transitions,
                                     frequency_mhz)
    zero_mw = toggles_to_power_mw(zero_energy, transitions, frequency_mhz)
    register_mw = toggles_to_power_mw(
        clock_energy_fj_per_cycle(module, library) * transitions,
        transitions, frequency_mhz)

    attribution_report = None
    if attribution:
        with obs.span("power:attribution", cat="power", module=module.name):
            attribution_report = attribute_power(
                module, library, energies, zero_toggles, event_toggles,
                transitions, frequency_mhz, glitch=glitch)

    reg = obs.registry()
    reg.inc("power.estimates")
    reg.record("power.estimates",
               {"module": module.name, "glitch": glitch,
                "cycles": n_cycles, "levelized_s": round(t_level, 6),
                **sim_stats})
    return PowerReport(
        frequency_mhz=frequency_mhz,
        cycles=transitions,
        dynamic_mw=dynamic_mw,
        register_mw=register_mw,
        leakage_mw=leakage_mw(module, library),
        zero_delay_dynamic_mw=zero_mw,
        by_block_mw={k: toggles_to_power_mw(v, transitions, frequency_mhz)
                     for k, v in by_block_energy.items()},
        total_toggles=sum(event_toggles),
        sim_stats=sim_stats,
        attribution=attribution_report,
    )


# ----------------------------------------------------------------------
# glitch replay
# ----------------------------------------------------------------------

def _replay(esim, packed_values, t_first, t_last):
    """Replay transitions ``t_first..t_last`` (inclusive).

    ``packed_values`` are the levelized run's per-net pattern words
    (bit ``t`` = value in cycle ``t``).  Returns per-net toggle totals
    and the replay's perf counters; ``elapsed_s`` is the replay's own
    wall time.
    """
    totals = [0] * esim.module.n_nets
    t0 = time.perf_counter()
    counts = esim.replay(packed_values, t_first, t_last,
                         toggles_out=totals)
    stats = {"engine": esim.engine, "kernel": esim.kernel,
             "transitions": t_last - t_first + 1,
             "events_processed": counts.events_processed,
             "cancellations": counts.cancelled,
             "wheel_buckets": counts.wheel_buckets,
             "wheel_max_bucket": counts.wheel_max_bucket,
             "elapsed_s": time.perf_counter() - t0}
    return totals, stats
