"""Serving throughput: one-transaction-per-word vs coalesced words.

The bit-parallel levelized kernel charges by the gate count, not the
pattern count, so a simulation word carrying 64 independent transactions
costs barely more than a word carrying one.  This benchmark races the
two service configurations of :mod:`repro.serve` under the seeded
mixed-format load generator:

* **baseline** — ``max_batch=1``: every transaction dispatches its own
  word (what calling :class:`~repro.core.mfmult.MFMult` through the
  netlist per operation amounts to);
* **coalesced** — ``max_batch=64``: the server packs full base words
  under saturating bursty load;
* **wide** — ``word_patterns=512`` (``W=8`` limbs): the server packs
  superwords, amortizing each kernel pass over eight base words at the
  same (full-word) occupancy discipline as the coalesced leg.  The
  per-transaction submit path is width-independent, so the speedup
  saturates as W grows; W=8 sits at the knee for this request volume.

All runs verify every result bit-for-bit against
:func:`repro.serve.transactions.reference_result`, so the speedup is
measured *with* the correctness check that batching changes nothing.

Emits ``BENCH_serve.json`` (repro.bench/1 envelope) at the repo root.
"""

import os

from _bench_io import write_bench
from repro.serve.loadgen import run_load, warm_engines

SEED = int(os.environ.get("REPRO_SERVE_BENCH_SEED", "2017"))

#: Request counts — the baseline pays ~1.5 ms *per transaction*, so it
#: gets a smaller sample; the coalesced run needs enough words for the
#: occupancy statistics to mean something.
BASELINE_REQUESTS = int(os.environ.get("REPRO_SERVE_BENCH_BASELINE", "128"))
COALESCED_REQUESTS = int(os.environ.get("REPRO_SERVE_BENCH_REQUESTS", "2048"))

#: Acceptance gates (ISSUE 6): sustained speedup and mean occupancy.
MIN_SPEEDUP = float(os.environ.get("REPRO_SERVE_BENCH_MIN_SPEEDUP", "20"))
MIN_OCCUPANCY = float(os.environ.get("REPRO_SERVE_BENCH_MIN_OCCUPANCY", "48"))

#: Wide-word leg (ISSUE 9): W x 64-pattern superwords vs the 64-pattern
#: coalesced leg, at matched (saturating full-word) occupancy.
WIDE_WORD_PATTERNS = int(os.environ.get("REPRO_SERVE_BENCH_WIDE", "512"))
MIN_WIDE_SPEEDUP = float(
    os.environ.get("REPRO_SERVE_BENCH_MIN_WIDE_SPEEDUP", "2.0"))
MIN_WIDE_OCCUPANCY = float(
    os.environ.get("REPRO_SERVE_BENCH_MIN_WIDE_OCCUPANCY", "256"))

#: Rounds per leg — each timed window is well under a second, so a
#: single sample is at the mercy of the scheduler; keep the best
#: (fastest) round per leg, as bench_obs_overhead does.
ROUNDS = int(os.environ.get("REPRO_SERVE_BENCH_ROUNDS", "3"))

#: Saturating load: large bursts, no inter-burst gap, generous timeout
#: so words fill rather than flush early.
LOAD = dict(seed=SEED, burst_mean=64, specials=0.02, max_wait=0.05,
            warm=False)


def _best_run(**kwargs):
    """Best-of-ROUNDS run_load: keep the fastest round's full record.

    Every round still verifies bit-for-bit (a round with mismatches
    fails the leg outright rather than being quietly discarded).
    """
    best = None
    for __ in range(ROUNDS):
        record = run_load(**kwargs)
        assert record["mismatches"] == 0, \
            f"{record['mode']} diverged from MFMult"
        if best is None or record["requests_per_s"] > best["requests_per_s"]:
            best = record
    return best


def _fmt(record, label=None):
    lat = record["latency_ms"]
    return (f"{label or record['mode']:<9} {record['requests']:>5} req "
            f"{record['wall_s']:7.3f} s  {record['requests_per_s']:>9.0f} "
            f"req/s  occ {record['mean_occupancy']:6.2f}"
            f"/{record['word_capacity']}  "
            f"p50/p99 {lat['p50']:.1f}/{lat['p99']:.1f} ms")


def test_bench_serve(report_sink):
    warm_engines()  # module build + kernel compile stay out of the race

    baseline = _best_run(requests=BASELINE_REQUESTS, baseline=True, **LOAD)
    coalesced = _best_run(requests=COALESCED_REQUESTS, baseline=False,
                          **LOAD)
    # Matched occupancy: same saturating discipline, bursts scaled to
    # keep filling full (now wider) words.
    wide = _best_run(requests=COALESCED_REQUESTS, baseline=False,
                     word_patterns=WIDE_WORD_PATTERNS,
                     **{**LOAD, "burst_mean": WIDE_WORD_PATTERNS})

    speedup = (coalesced["requests_per_s"] / baseline["requests_per_s"]
               if baseline["requests_per_s"] else float("inf"))
    wide_speedup = (wide["requests_per_s"] / coalesced["requests_per_s"]
                    if coalesced["requests_per_s"] else float("inf"))
    payload = {
        "baseline": baseline,
        "coalesced": coalesced,
        "wide": wide,
        "speedup": round(speedup, 2),
        "wide_speedup_vs_coalesced64": round(wide_speedup, 2),
        "wide_word_patterns": WIDE_WORD_PATTERNS,
        "min_speedup_gate": MIN_SPEEDUP,
        "min_occupancy_gate": MIN_OCCUPANCY,
        "min_wide_speedup_gate": MIN_WIDE_SPEEDUP,
        "min_wide_occupancy_gate": MIN_WIDE_OCCUPANCY,
    }
    write_bench("serve", payload, seed=SEED)

    lines = ["transaction-batched service, mixed-format saturating load",
             _fmt(baseline), _fmt(coalesced),
             _fmt(wide, label=f"wide-w{WIDE_WORD_PATTERNS // 64}"),
             f"speedup {speedup:.1f}x  (gate >= {MIN_SPEEDUP:.0f}x)  "
             f"occupancy {coalesced['mean_occupancy']:.2f}/64 "
             f"(gate >= {MIN_OCCUPANCY:.0f})",
             f"wide (W={WIDE_WORD_PATTERNS // 64}) speedup "
             f"{wide_speedup:.2f}x vs coalesced-64 "
             f"(gate >= {MIN_WIDE_SPEEDUP:.1f}x)  occupancy "
             f"{wide['mean_occupancy']:.2f}/{WIDE_WORD_PATTERNS} "
             f"(gate >= {MIN_WIDE_OCCUPANCY:.0f})"]
    report_sink("serve", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"coalescing speedup {speedup:.1f}x below {MIN_SPEEDUP}x gate")
    assert coalesced["mean_occupancy"] >= MIN_OCCUPANCY, (
        f"mean occupancy {coalesced['mean_occupancy']} below "
        f"{MIN_OCCUPANCY}/64")
    assert wide_speedup >= MIN_WIDE_SPEEDUP, (
        f"wide-word speedup {wide_speedup:.2f}x below "
        f"{MIN_WIDE_SPEEDUP}x gate")
    assert wide["mean_occupancy"] >= MIN_WIDE_OCCUPANCY, (
        f"wide mean occupancy {wide['mean_occupancy']} below "
        f"{MIN_WIDE_OCCUPANCY}/{WIDE_WORD_PATTERNS}")
