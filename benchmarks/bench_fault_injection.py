"""Fault-simulation race: the campaign engine vs clone-and-re-simulate.

Injects functional faults (cell rekinds, non-commutative pin swaps)
into the radix-16 multiplier and races the campaign engine — each
mutant settled as the golden node table with one row replaced — against
the reference of ``tests/oracles/fault_resim.py``, which clones, mutates
and fully re-simulates every mutant.  Asserts their
:class:`CoverageResult` values are identical and emits
``BENCH_fault_sim.json`` (``repro.bench/1`` envelope) at the repository
root with the per-mutation speedup and the golden-run sharing of a
chunked wide-battery campaign.  The coverage figures themselves are
paper-evidence claims (``fault_r16/*``, ``fault_mf/*``) in
``tests/test_paper_claims.py``.
"""

import os
import random
import time

from _bench_io import write_bench

from repro import obs
from repro.eval.fault_injection import (
    campaign_battery,
    chunk_plan,
    clear_campaign_cache,
    merge_coverage,
    mutation_coverage,
    propose_mutation,
)
from repro.eval.experiments import cached_module
from repro.eval.orchestrator import run_experiment
from repro.hdl.sim.compile import compiled_module
from repro.hdl.sim.levelized import LevelizedSimulator
from tests.oracles.fault_resim import reference_coverage

#: Mutations for the head-to-head race — the reference re-simulates the
#: whole radix-16 datapath per mutation, so this is the slow side.
N_RACE = int(os.environ.get("REPRO_FAULT_BENCH_MUTATIONS", "20"))

#: Wide-battery superword: the whole campaign battery packs into one
#: W x 64-pattern golden word instead of 64-pattern chunks.
BATTERY_PATTERNS = int(os.environ.get("REPRO_FAULT_BENCH_BATTERY", "256"))

#: Gate: chunked campaigns must share golden runs — at least this many
#: fewer golden kernel invocations than chunks.
MIN_INVOCATION_REDUCTION = float(
    os.environ.get("REPRO_FAULT_BENCH_MIN_REDUCTION", "3.0"))


def _key(result):
    return (result.attempted, result.detected,
            [(s.gate_index, s.description) for s in result.survivors])


def test_bench_fault_sim_race(report_sink):
    """Engine vs reference on the radix-16 campaign: identical results,
    measured per-mutation speedup recorded in BENCH_fault_sim.json."""
    module = cached_module("r16")
    battery = campaign_battery("r16", module)
    seed = 7

    t0 = time.perf_counter()
    ref = reference_coverage(module, battery, N_RACE, seed)
    ref_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    got = mutation_coverage(module, battery, n_mutations=N_RACE, seed=seed)
    engine_s = time.perf_counter() - t0

    assert _key(got) == _key(ref)

    # Isolate the steady-state per-mutation cost: patch one row of the
    # golden table and settle it, per mutant.
    golden = compiled_module(module)
    rng = random.Random(seed)
    proposals = [propose_mutation(module, rng) for __ in range(N_RACE)]
    t0 = time.perf_counter()
    for idx, mutant, __ in proposals:
        run = LevelizedSimulator(module, golden.with_gate(idx, mutant)) \
            .run(battery.stimulus, battery.n_patterns)
        battery.check_run(module, run)
    mutants_s = time.perf_counter() - t0

    per_mutation_speedup = ref_s / mutants_s

    # Wide-battery superword campaign with shared golden state: the
    # whole battery (BATTERY_PATTERNS cases) is checked by ONE golden
    # kernel invocation, reused by every chunk of the campaign.  The
    # ``fault.golden_runs`` counter proves the reduction the gate
    # demands; the reference race proves the verdicts are unchanged.
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
    wide_battery = campaign_battery("r16", module,
                                    patterns=BATTERY_PATTERNS)
    wide_ref = merge_coverage(
        [reference_coverage(module, wide_battery, n, s)
         for s, n in chunk_plan(8, seed)])
    wide_got = run_experiment(
        "fault_r16", n_mutations=8, seed=seed,
        battery_patterns=BATTERY_PATTERNS, cache=False, backend="inline")
    assert _key(wide_ref) == _key(wide_got), \
        "wide-battery campaign diverged from the reference"

    report = {
        "design": "r16",
        "kernel": LevelizedSimulator(module).kernel,
        "mutations": N_RACE,
        "gates": len(module.gates),
        "reference_s": round(ref_s, 3),
        "engine_s": round(engine_s, 3),
        "engine_mutants_s": round(mutants_s, 3),
        "campaign_speedup": round(ref_s / engine_s, 2),
        "per_mutation_speedup": round(per_mutation_speedup, 2),
        "detected": got.detected,
        "battery_patterns": BATTERY_PATTERNS,
        "campaign_chunks": chunks,
        "golden_runs": golden_runs,
        "kernel_invocation_reduction": round(invocation_reduction, 2),
        "wide_coverage": round(wide.coverage, 3),
        "cpu_count": os.cpu_count(),
    }
    write_bench("fault_sim", report, seed=seed)
    report_sink("fault_sim_race",
                "\n".join(f"{k:>27}: {v}" for k, v in report.items()))
    assert per_mutation_speedup >= 5.0
    assert invocation_reduction >= MIN_INVOCATION_REDUCTION, (
        f"golden-run sharing: {golden_runs} golden kernel invocations "
        f"for {chunks} chunks ({invocation_reduction:.1f}x < "
        f"{MIN_INVOCATION_REDUCTION}x gate)")
