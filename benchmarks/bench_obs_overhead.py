"""Instrumentation overhead: the observability layer must be ~free.

Times the radix-16 glitch replay (the hottest instrumented path) in
three configurations —

* **obs disabled**: registry muted (``set_enabled(False)``), tracing
  off — the floor;
* **obs on, trace off**: the shipping default — counters and records
  collected (now including the log-bucket quantile sketches on every
  timer/histogram observation) **with the background gauge sampler
  running**, spans a no-op;
* **obs on, trace on**: spans recorded too (what ``--trace`` pays).

Each leg takes the best of ``ROUNDS`` runs (min filters scheduler
noise), asserts the per-net toggle counts are identical across legs,
and writes ``BENCH_obs_overhead.json`` (``repro.bench/1`` envelope) at
the repository root.  The gate: metrics-plus-sampler overhead must stay
under 5% of the disabled floor.  Tracing overhead is recorded honestly
but not gated — it is opt-in.

A second subject times the serve hot path with **wide words live**: a
``WIDE_PATTERNS``-transaction superword through the int64 lane engine
(spans, counters and occupancy histograms firing per word).  Costs are
normalized **per pattern**, not per word — a wide word amortizes its
instrumentation over W x 64 patterns, and gating per-word numbers
would let per-pattern overhead grow W-fold unnoticed.  Same <5% gate.
"""

import json
import os
import time

from _bench_io import write_bench

from repro import obs
from repro.eval.experiments import cached_module
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.library import default_library
from repro.hdl.power.monte_carlo import _replay, shared_event_simulator
from repro.hdl.sim.levelized import LevelizedSimulator

N_CYCLES = int(os.environ.get("REPRO_OBS_BENCH_CYCLES", "10"))
ROUNDS = int(os.environ.get("REPRO_OBS_BENCH_ROUNDS", "5"))
MAX_METRICS_OVERHEAD = 0.05

#: Wide-word serve subject: patterns per superword (W = /64 limbs).
WIDE_PATTERNS = int(os.environ.get("REPRO_OBS_BENCH_WIDE", "256"))


def _best_of(fn, rounds):
    best = float("inf")
    value = None
    for __ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, value


def test_bench_obs_overhead(report_sink):
    module = cached_module("r16")
    lib = default_library()
    stim = WorkloadGenerator(2017).multiplier_stimulus(N_CYCLES)
    run = LevelizedSimulator(module).run(stim, N_CYCLES)
    transitions = N_CYCLES - 1

    # Warm the shared simulator and its kernels outside the clocks.
    esim = shared_event_simulator(module, lib)
    kernel = esim.kernel
    _replay(esim, run.values, 1, transitions)

    def replay():
        totals, __ = _replay(esim, run.values, 1, transitions)
        return totals

    # Wide-word serve subject: one W x 64-pattern superword through the
    # int64 lane engine — the serve hot path with its spans/histograms.
    import random as _random

    from repro.serve.engine import lane_engine
    from repro.serve.transactions import Transaction, TxKind

    _rng = _random.Random(2017)
    wide_txs = [Transaction.int64(_rng.getrandbits(64),
                                  _rng.getrandbits(64))
                for __ in range(WIDE_PATTERNS)]
    engine = lane_engine(TxKind.INT64)
    engine.execute(wide_txs[:64])          # warm outside the clocks

    def wide_serve():
        return [(r.ph, r.pl) for r in engine.execute(wide_txs)]

    reg = obs.registry()
    # The "metrics" leg pays for everything the live-telemetry default
    # costs: sketch bucketing on every observation plus the background
    # sampler thread ticking its ring buffers.
    sampler = obs.TimeSeriesSampler(interval_s=0.05, registry=reg)
    sampler.add_source("bench.constant", lambda: 1.0)
    sampler.add_source("bench.registry.mean",
                       lambda: (reg.counter_value("sampler.ticks") or None))
    legs = {}
    wide_legs = {}
    try:
        reg.set_enabled(False)
        legs["disabled"] = _best_of(replay, ROUNDS)
        wide_legs["disabled"] = _best_of(wide_serve, ROUNDS)
        reg.set_enabled(True)
        reg.reset()
        sampler.start()
        legs["metrics"] = _best_of(replay, ROUNDS)
        wide_legs["metrics"] = _best_of(wide_serve, ROUNDS)
        obs.start_trace()
        legs["trace"] = _best_of(replay, ROUNDS)
    finally:
        sampler.stop()
        obs.stop_trace()
        reg.set_enabled(True)
        reg.reset()

    base_s, base_totals = legs["disabled"]
    for name, (__, totals) in legs.items():
        assert totals == base_totals, f"{name}: toggles diverged"
    wide_base_s, wide_base_results = wide_legs["disabled"]
    for name, (__, results) in wide_legs.items():
        assert results == wide_base_results, \
            f"wide serve {name}: results diverged"

    def leg_entry(seconds):
        return {
            "seconds": seconds,
            "ms_per_transition": seconds * 1000 / transitions,
            "overhead_vs_disabled": seconds / base_s - 1.0,
        }

    def wide_entry(seconds):
        # Per-PATTERN normalization: a superword must not hide (or be
        # blamed for) W x the instrumentation of a base word.
        return {
            "seconds": seconds,
            "ms_per_pattern": seconds * 1000 / WIDE_PATTERNS,
            "overhead_vs_disabled": seconds / wide_base_s - 1.0,
        }

    payload = {
        "design": "r16",
        "n_cycles": N_CYCLES,
        "rounds": ROUNDS,
        "kernel": kernel,
        "sampler_enabled": True,
        "quantile_sketches": True,
        "max_metrics_overhead": MAX_METRICS_OVERHEAD,
        "legs": {name: leg_entry(seconds)
                 for name, (seconds, __) in legs.items()},
        "wide_serve": {
            "word_patterns": WIDE_PATTERNS,
            "limbs": WIDE_PATTERNS // 64,
            "legs": {name: wide_entry(seconds)
                     for name, (seconds, __) in wide_legs.items()},
        },
    }
    payload["wide_serve"]["overhead_vs_disabled"] = \
        payload["wide_serve"]["legs"]["metrics"]["overhead_vs_disabled"]
    write_bench("obs_overhead", payload, seed=2017)
    report_sink("obs_overhead", json.dumps(payload, indent=2))

    metrics_overhead = payload["legs"]["metrics"]["overhead_vs_disabled"]
    assert metrics_overhead < MAX_METRICS_OVERHEAD, (
        f"metrics instrumentation costs {metrics_overhead:.1%} on the "
        f"r16 glitch replay (gate: {MAX_METRICS_OVERHEAD:.0%})")
    wide_overhead = payload["wide_serve"]["overhead_vs_disabled"]
    assert wide_overhead < MAX_METRICS_OVERHEAD, (
        f"metrics instrumentation costs {wide_overhead:.1%} per pattern "
        f"on the W={WIDE_PATTERNS // 64} wide-word serve path "
        f"(gate: {MAX_METRICS_OVERHEAD:.0%})")
