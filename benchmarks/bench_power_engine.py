"""Glitch-replay engine: before/after milliseconds per cycle transition.

"Before" is the seed implementation kept verbatim in
``tests.oracles.event_heap.event_toggles_legacy``: a fresh heapq
event simulator per call, full per-cycle stimulus dicts, per-gate
dispatch to a cell function.  "After" is the shipping path of
``estimate_power``: a shared simulator, delta stimulus straight from the
levelized pattern words, and the compiled C event kernel when a system
compiler is present (pure-Python time wheel otherwise).

Emits ``BENCH_power_engine.json`` (repro.bench/1 envelope) at the
repository root with the per-design numbers; the equivalence of per-net
toggle counts between the two paths is asserted in the same breath.
Run it from the repository root (``python -m pytest``), which puts the
``tests`` package on the import path.
"""

import os
import time

from _bench_io import write_bench
from repro.eval.experiments import cached_module
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.library import default_library
from repro.hdl.power.monte_carlo import _replay, shared_event_simulator
from repro.hdl.sim.levelized import LevelizedSimulator
from tests.oracles.event_heap import event_toggles_legacy

#: Cycles for the engine comparison — small, because the *before* path
#: is the slow one being measured.
N_CYCLES = int(os.environ.get("REPRO_ENGINE_BENCH_CYCLES", "8"))

DESIGNS = ("r16", "r16_pipe", "mf")

SEED = 2017


def _stimulus(which, gen, n_cycles):
    if which == "mf":
        return gen.mf_stimulus("fp64", n_cycles)
    return gen.multiplier_stimulus(n_cycles)


def test_bench_power_engine(report_sink):
    lib = default_library()
    transitions = N_CYCLES - 1
    results = {}
    kernel = "python"
    for which in DESIGNS:
        module = cached_module(which)
        gen = WorkloadGenerator(SEED)
        stim = _stimulus(which, gen, N_CYCLES)
        run = LevelizedSimulator(module).run(stim, N_CYCLES)

        t0 = time.perf_counter()
        before_totals = event_toggles_legacy(module, lib, run, stim,
                                             N_CYCLES)
        before_s = time.perf_counter() - t0

        # Warm the shared simulator (construction is amortized across
        # estimate_power calls; the seed rebuilt everything per call).
        esim = shared_event_simulator(module, lib)
        kernel = esim.kernel
        t0 = time.perf_counter()
        after_totals, stats = _replay(esim, run.values, 1, transitions)
        after_s = time.perf_counter() - t0

        assert after_totals == before_totals, f"{which}: toggles diverged"
        results[which] = {
            "before_ms_per_transition": before_s * 1000 / transitions,
            "after_ms_per_transition": after_s * 1000 / transitions,
            "speedup": before_s / after_s if after_s else float("inf"),
            "events_processed": stats["events_processed"],
        }

    payload = {
        "n_cycles": N_CYCLES,
        "transitions": transitions,
        "kernel": kernel,
        "designs": results,
    }
    write_bench("power_engine", payload, seed=SEED)

    lines = [f"glitch replay engine, {transitions} transitions "
             f"(kernel: {kernel})"]
    for which, r in results.items():
        lines.append(
            f"{which:<10} before {r['before_ms_per_transition']:7.1f} ms/tr"
            f"   after {r['after_ms_per_transition']:6.1f} ms/tr"
            f"   speedup {r['speedup']:5.1f}x")
    report_sink("power_engine", "\n".join(lines))

    # The headline acceptance: with the compiled kernel the radix-16
    # glitch replay is at least 5x faster per transition.
    if kernel == "c":
        assert results["r16"]["speedup"] >= 5.0
