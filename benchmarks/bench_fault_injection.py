"""Fault-simulation race: full re-simulation vs the differential engine.

Injects functional faults (cell rekinds, non-commutative pin swaps)
into the radix-16 multiplier and races the two campaign engines head to
head — full clone-and-resimulate vs the differential cone engine —
asserting their :class:`CoverageResult` values are bit-identical, and
emits ``BENCH_fault_sim.json`` (``repro.bench/1`` envelope) at the
repository root with the per-mutation speedup, mean fan-out cone size,
early-exit rate and the golden-run sharing of a chunked wide-battery
campaign.  The coverage figures themselves are paper-evidence claims
(``fault_r16/*``, ``fault_mf/*``) in ``tests/test_paper_claims.py``.
"""

import os
import time

from _bench_io import write_bench

from repro import obs
from repro.eval.fault_injection import (
    campaign_battery,
    chunk_plan,
    clear_campaign_cache,
    coverage_chunk,
    merge_coverage,
    mutation_coverage,
    propose_mutation,
)
from repro.eval.experiments import cached_module
from repro.eval.orchestrator import run_experiment
from repro.hdl.cell import cell_num_inputs
from repro.hdl.sim.differential import DifferentialEngine

#: Mutations for the head-to-head race — the full path re-simulates the
#: whole radix-16 datapath per mutation, so this is the slow side.
N_RACE = int(os.environ.get("REPRO_FAULT_BENCH_MUTATIONS", "20"))

#: Wide-battery superword (ISSUE 9): the whole campaign battery packs
#: into one W x 64-pattern golden word instead of 64-pattern chunks.
BATTERY_PATTERNS = int(os.environ.get("REPRO_FAULT_BENCH_BATTERY", "256"))

#: Gate: chunked campaigns must share golden runs — at least this many
#: fewer golden kernel invocations than chunks.
MIN_INVOCATION_REDUCTION = float(
    os.environ.get("REPRO_FAULT_BENCH_MIN_REDUCTION", "3.0"))


def test_bench_fault_sim_race(report_sink):
    """Full vs differential on the radix-16 campaign: identical results,
    measured per-mutation speedup recorded in BENCH_fault_sim.json."""
    module = cached_module("r16")
    battery = campaign_battery("r16", module)
    seed = 7

    t0 = time.perf_counter()
    full = mutation_coverage(module, n_mutations=N_RACE, seed=seed,
                             mode="full", battery=battery)
    full_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    diff = mutation_coverage(module, n_mutations=N_RACE, seed=seed,
                             mode="differential", battery=battery)
    diff_s = time.perf_counter() - t0

    assert (full.attempted, full.detected) == (diff.attempted,
                                               diff.detected)
    assert [(s.gate_index, s.description) for s in full.survivors] \
        == [(s.gate_index, s.description) for s in diff.survivors]

    # Isolate the steady-state per-mutation cost: golden simulation and
    # fan-out precomputation are per-campaign, paid once.
    engine = DifferentialEngine(module, battery.stimulus,
                                battery.n_patterns,
                                battery.observation(module))
    import random as _random
    rng = _random.Random(seed)
    arities = [cell_num_inputs(g.kind) for g in module.gates]
    proposals = [propose_mutation(module, rng, arities)
                 for __ in range(N_RACE)]
    t0 = time.perf_counter()
    verdicts = [engine.run_mutant(idx, mutant)
                for idx, mutant, __ in proposals]
    mutants_s = time.perf_counter() - t0

    per_mutation_speedup = (full_s / N_RACE) / (mutants_s / N_RACE)

    # Wide-battery superword campaign with shared golden state: the
    # whole battery (BATTERY_PATTERNS cases) runs as ONE golden kernel
    # invocation, reused by every chunk of the campaign.  The
    # ``fault.golden_runs`` counter proves the reduction the gate
    # demands; the full-mode race proves the verdicts are unchanged.
    clear_campaign_cache()
    reg = obs.registry()
    golden_before = reg.counter_value("fault.golden_runs") or 0
    # No result cache: a warm cache would serve the campaign and
    # ``fault.golden_runs`` would read 0.
    wide = run_experiment(
        "fault_r16", n_mutations=40, seed=seed,
        battery_patterns=BATTERY_PATTERNS, cache=False, backend="inline")
    golden_runs = (reg.counter_value("fault.golden_runs") or 0) \
        - golden_before
    chunks = len(chunk_plan(40, seed, None))
    invocation_reduction = chunks / golden_runs if golden_runs \
        else float("inf")
    wide_full = merge_coverage(
        [coverage_chunk("r16", n, s, mode="full",
                        battery_patterns=BATTERY_PATTERNS)
         for s, n in chunk_plan(8, seed)])
    wide_diff = run_experiment(
        "fault_r16", n_mutations=8, seed=seed,
        battery_patterns=BATTERY_PATTERNS, cache=False, backend="inline")
    assert (wide_full.attempted, wide_full.detected) \
        == (wide_diff.attempted, wide_diff.detected), \
        "wide-battery differential diverged from full re-simulation"

    report = {
        "design": "r16",
        "mutations": N_RACE,
        "gates": len(module.gates),
        "full_s": round(full_s, 3),
        "differential_s": round(diff_s, 3),
        "differential_mutants_s": round(mutants_s, 3),
        "campaign_speedup": round(full_s / diff_s, 2),
        "per_mutation_speedup": round(per_mutation_speedup, 2),
        "mean_cone_size": round(sum(v.cone_size for v in verdicts)
                                / len(verdicts), 1),
        "mean_gates_evaluated": round(
            sum(v.gates_evaluated for v in verdicts) / len(verdicts), 1),
        "early_exit_rate": round(sum(1 for v in verdicts if v.early_exit)
                                 / len(verdicts), 3),
        "detected": diff.detected,
        "battery_patterns": BATTERY_PATTERNS,
        "campaign_chunks": chunks,
        "golden_runs": golden_runs,
        "kernel_invocation_reduction": round(invocation_reduction, 2),
        "wide_coverage": round(wide.coverage, 3),
        "cpu_count": os.cpu_count(),
    }
    write_bench("fault_sim", report, seed=seed)
    report_sink("fault_sim_race",
                "\n".join(f"{k:>24}: {v}" for k, v in report.items()))
    assert per_mutation_speedup >= 5.0
    assert invocation_reduction >= MIN_INVOCATION_REDUCTION, (
        f"golden-run sharing: {golden_runs} golden kernel invocations "
        f"for {chunks} chunks ({invocation_reduction:.1f}x < "
        f"{MIN_INVOCATION_REDUCTION}x gate)")
