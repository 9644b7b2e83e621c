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
  available;
* a long point splits into :func:`power_shard_plan` windows replayed
  by independent :func:`power_replay_shard` leaves (the orchestrator
  runs them on any scheduler backend).  Each window seeds from the
  exact levelized values at its first cycle — the event simulator's
  settled state equals the zero-delay state, so windows are independent
  and the per-net toggle counts merge deterministically by integer
  summation (:func:`power_report_from_shards`).
"""

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


def estimate_power(module, library, stimulus, n_cycles, frequency_mhz=100.0,
                   glitch=True, attribution=False):
    """Estimate average power over a stimulus sequence.

    ``stimulus`` maps input bus names to per-cycle word lists (as for
    :class:`LevelizedSimulator`).  At least two cycles are needed to
    observe a transition.  ``attribution=True`` additionally keeps the
    per-net toggle vectors and attaches a
    :class:`~repro.hdl.power.attribution.PowerAttribution` (glitch vs
    functional split by sub-block / cell / pipeline stage) to the
    report — a pure observer, the power numbers do not change.

    This is the one-job case of :func:`estimate_power_batch`; to spread
    one long point over processes, run its :func:`power_shard_plan`
    windows as :func:`power_replay_shard` leaves and merge them with
    :func:`power_report_from_shards`.
    """
    return estimate_power_batch(module, library, [(stimulus, n_cycles)],
                                frequency_mhz=frequency_mhz, glitch=glitch,
                                attribution=attribution)[0]


def _zero_delay(module, library, jobs):
    """The zero-delay prefix every power path shares.

    One superword levelized pass over ``jobs`` (``(stimulus, n_cycles)``
    pairs), plus the per-net switching energies and sub-block owners.
    Returns ``(segmented run, energies, owner, levelized seconds)``.
    """
    for __, n_cycles in jobs:
        if n_cycles < 2:
            raise SimulationError(
                "need at least two cycles to measure power")
    t_level = time.perf_counter()
    with obs.span("power:levelized", cat="power", module=module.name,
                  cycles=sum(n for __, n in jobs), segments=len(jobs)):
        seg = LevelizedSimulator(module).run_segments(jobs)
    t_level = time.perf_counter() - t_level
    return (seg, net_toggle_energies(module, library),
            module.block_of_net(), t_level)


def estimate_power_batch(module, library, jobs, frequency_mhz=100.0,
                         glitch=True, attribution=False):
    """Estimate power for several independent stimulus sequences on one
    module in a single superword settle pass.

    ``jobs`` is a sequence of ``(stimulus, n_cycles)`` pairs.  The
    levelized simulation — whose per-gate interpreter overhead dominates
    a Monte Carlo point — runs **once** over the concatenated segments
    (:meth:`~repro.hdl.sim.levelized.LevelizedSimulator.run_segments`);
    per-job zero-delay toggles are windowed popcounts over the shared
    words and the glitch replay seeds each job's cycle window straight
    from them.  Returns one :class:`PowerReport` per job, each
    bit-identical to an :func:`estimate_power` call over the same
    stimulus alone (``tests/test_sim_compile.py``).
    """
    jobs = list(jobs)
    seg, energies, owner, t_level = _zero_delay(module, library, jobs)
    esim = shared_event_simulator(module, library) if glitch else None

    reports = []
    for i, (__, n_cycles) in enumerate(jobs):
        zero_toggles = seg.toggles_per_net(i)
        offset = seg.segments[i][0]
        if glitch:
            with obs.span("power:glitch_replay", cat="power",
                          module=module.name, workers=1):
                event_toggles, sim_stats = _replay(
                    esim, seg.values, offset + 1, offset + n_cycles - 1)
                sim_stats["workers"] = 1
        else:
            event_toggles = zero_toggles
            sim_stats = {"engine": "zero-delay", "kernel": "none",
                         "transitions": n_cycles - 1, "workers": 1,
                         "elapsed_s": t_level}
        reports.append(_assemble_report(
            module, library, n_cycles, zero_toggles, event_toggles,
            sim_stats, energies, owner, t_level, frequency_mhz, glitch,
            attribution))
    return reports


def _assemble_report(module, library, n_cycles, zero_toggles,
                     event_toggles, sim_stats, energies, owner, t_level,
                     frequency_mhz, glitch, attribution):
    """Fold toggle counts into the :class:`PowerReport`.

    Shared tail of :func:`estimate_power_batch` and
    :func:`power_report_from_shards`, so a report assembled from
    independently-executed shard leaves is arithmetic-identical to the
    monolithic run (the toggle counts themselves merge by integer
    summation).
    """
    sim_stats = obs.normalize_sim_stats(sim_stats)
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
    toggles = event_toggles

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
        total_toggles=sum(toggles),
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
    wall time, so it means the same on the batch and the shard path.
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


def power_shard_plan(n_cycles, max_transitions=16):
    """Split transitions ``1 .. n_cycles-1`` into replay windows.

    Returns ``[(t_first, t_last)]`` pairs covering every transition
    exactly once, each at most ``max_transitions`` long and balanced to
    within one transition, so a Monte Carlo power point decomposes into
    many small, independently stealable leaves rather than one long
    pole.
    """
    transitions = n_cycles - 1
    if transitions < 1:
        raise SimulationError("need at least two cycles to measure power")
    shards = -(-transitions // max(1, int(max_transitions)))
    base, extra = divmod(transitions, shards)
    windows = []
    t = 1
    for w in range(shards):
        size = base + (1 if w < extra else 0)
        windows.append((t, t + size - 1))
        t += size
    return windows


def power_replay_shard(module, library, stimulus, n_cycles, t_first,
                       t_last):
    """One stealable glitch-replay leaf: transitions ``t_first..t_last``.

    Re-runs the (cheap, deterministic) levelized simulation to recover
    the per-net pattern words, then replays only the window.  Returns
    ``(totals, stats)`` for :func:`power_report_from_shards`.
    """
    if n_cycles < 2:
        raise SimulationError("need at least two cycles to measure power")
    sim = LevelizedSimulator(module)
    run = sim.run(stimulus, n_cycles)
    esim = shared_event_simulator(module, library)
    with obs.span("power:shard", cat="power", t_first=t_first,
                  t_last=t_last):
        totals, stats = _replay(esim, run.values, t_first, t_last)
    obs.registry().record(
        "power.shards",
        {"t_first": t_first, "t_last": t_last,
         **obs.normalize_sim_stats(dict(stats))})
    return totals, stats


def merge_shard_results(n_nets, results):
    """Deterministically merge per-window ``(totals, stats)`` pairs.

    Toggle counts sum element-wise (integer arithmetic — order
    independent); perf counters and replay time sum,
    ``wheel_max_bucket`` takes the max, and ``kernel`` is the kernel
    every shard ran on (``"mixed"`` when they differ), so any
    partitioning or ordering of the transition sequence yields the same
    merged result.
    """
    totals = [0] * n_nets
    merged = {"engine": "wheel", "transitions": 0,
              "events_processed": 0, "cancellations": 0,
              "wheel_buckets": 0, "wheel_max_bucket": 0, "elapsed_s": 0.0}
    kernels = set()
    for window_totals, stats in results:
        kernels.add(stats["kernel"])
        for net, c in enumerate(window_totals):
            if c:
                totals[net] += c
        for key in ("transitions", "events_processed", "cancellations",
                    "wheel_buckets", "elapsed_s"):
            merged[key] += stats[key]
        if stats["wheel_max_bucket"] > merged["wheel_max_bucket"]:
            merged["wheel_max_bucket"] = stats["wheel_max_bucket"]
    merged["kernel"] = kernels.pop() if len(kernels) == 1 else "mixed"
    return totals, merged


def power_report_from_shards(module, library, stimulus, n_cycles,
                             shard_outputs, frequency_mhz=100.0,
                             attribution=False):
    """Assemble a :class:`PowerReport` from shard-leaf outputs.

    ``shard_outputs`` are the ``(totals, stats)`` pairs produced by
    :func:`power_replay_shard` over a full :func:`power_shard_plan`
    partition.  The zero-delay baseline is recomputed locally by the
    same levelized pass :func:`estimate_power_batch` runs, the glitch
    toggles come from the
    merged shards — numerically identical to a monolithic
    :func:`estimate_power` run over the same stimulus.
    """
    if not shard_outputs:
        raise SimulationError("power_report_from_shards needs >=1 shard")
    seg, energies, owner, t_level = _zero_delay(
        module, library, [(stimulus, n_cycles)])
    zero_toggles = seg.toggles_per_net(0)
    event_toggles, sim_stats = merge_shard_results(module.n_nets,
                                                   shard_outputs)
    sim_stats["workers"] = len(shard_outputs)
    return _assemble_report(module, library, n_cycles, zero_toggles,
                            event_toggles, sim_stats, energies, owner,
                            t_level, frequency_mhz, True, attribution)
