"""Seeded mixed-format load generator for the simulation service.

Models a population of independent callers hitting the server with
bursty arrivals: requests come in geometric bursts of back-to-back
submissions, drawn from a seeded RNG so every run is reproducible.  The traffic mix spans all five lanes —
int64, fp64, dual fp32, quad fp16 multiplies and fp64->fp32 reduction
probes — with optional IEEE special values sprinkled in to exercise the
software-envelope path.

Every completed transaction is checked bit-for-bit against
:func:`repro.serve.transactions.reference_result`, so a load run is
also a correctness campaign.

CLI::

    python -m repro.serve.loadgen --requests 512 --seed 7 \
        --out run.json --metrics-json metrics.json --trace trace.json

``--baseline`` forces ``max_batch=1`` — the one-transaction-per-word
configuration ``benchmarks/bench_serve.py`` compares against.
``--word-patterns N`` (a positive multiple of 64) widens the simulation
word to an ``N``-slot superword; the run record carries a per-width
occupancy sketch row so wide-word sweeps can be compared run to run.
"""

import argparse
import json
import random
import sys
import time

from repro import obs
from repro.obs.quantile import QuantileSketch, diff_bucket_dicts
from repro.bits.ieee754 import BINARY16, BINARY32, BINARY64
from repro.eval.workloads import WorkloadGenerator
from repro.errors import FormatError
from repro.serve.server import Server
from repro.serve.transactions import (
    WORD_PATTERNS,
    Transaction,
    TxKind,
    reference_result,
    validate_word_patterns,
)

#: Default traffic mix (fractions sum to 1).
DEFAULT_MIX = {
    "int64": 0.15,
    "fp64": 0.30,
    "fp32x2": 0.25,
    "fp16x4": 0.15,
    "reduce64": 0.15,
}


class TrafficGenerator:
    """Seeded transaction stream over a lane mix, with optional specials."""

    def __init__(self, seed=2017, mix=None, specials=0.0,
                 reducible_fraction=0.5):
        self._rng = random.Random(seed)
        self._wl = WorkloadGenerator(seed ^ 0x5EED)
        mix = dict(mix or DEFAULT_MIX)
        total = sum(mix.values())
        if total <= 0:
            raise FormatError("traffic mix must have positive weight")
        self._lanes = sorted(mix)
        self._weights = [mix[lane] / total for lane in self._lanes]
        self.specials = specials
        self.reducible_fraction = reducible_fraction

    def _special_encoding(self, fmt):
        kind = self._rng.choice(("zero", "inf", "nan", "subnormal"))
        sign = self._rng.getrandbits(1)
        if kind == "zero":
            return fmt.pack(sign, 0, 0)
        if kind == "inf":
            return fmt.pack(sign, fmt.exponent_mask, 0)
        if kind == "nan":
            return fmt.pack(sign, fmt.exponent_mask,
                            self._rng.randint(1, 2 ** fmt.trailing_significand_bits - 1))
        return fmt.pack(sign, 0,
                        self._rng.randint(1, 2 ** fmt.trailing_significand_bits - 1))

    def _fp_encoding(self, fmt):
        if self.specials and self._rng.random() < self.specials:
            return self._special_encoding(fmt)
        if fmt is BINARY64:
            return self._wl.normal_binary64()
        if fmt is BINARY32:
            return self._wl.normal_binary32()
        return BINARY16.pack(self._rng.getrandbits(1),
                             self._rng.randint(1, 30),
                             self._rng.getrandbits(10))

    def next_transaction(self):
        lane = self._rng.choices(self._lanes, weights=self._weights)[0]
        if lane == "int64":
            return Transaction.int64(self._wl.uint64(), self._wl.uint64())
        if lane == "fp64":
            return Transaction.fp64(self._fp_encoding(BINARY64),
                                    self._fp_encoding(BINARY64))
        if lane == "fp32x2":
            return Transaction.fp32_pair(
                self._fp_encoding(BINARY32), self._fp_encoding(BINARY32),
                self._fp_encoding(BINARY32), self._fp_encoding(BINARY32))
        if lane == "fp16x4":
            return Transaction.fp16_quad(
                [self._fp_encoding(BINARY16) for _ in range(4)],
                [self._fp_encoding(BINARY16) for _ in range(4)])
        if self._rng.random() < self.reducible_fraction:
            return Transaction.reduce64(self._wl.reducible_binary64())
        return Transaction.reduce64(self._wl.normal_binary64())

    def burst_size(self, mean):
        """Geometric burst length with the given mean (>= 1)."""
        if mean <= 1:
            return 1
        size = 1
        p = 1.0 / mean
        while self._rng.random() > p:
            size += 1
        return size


def _percentile(sorted_values, q):
    if not sorted_values:
        return None
    idx = min(len(sorted_values) - 1,
              max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def warm_engines(mix=None):
    """Build and compile every lane engine outside the timed window.

    A long-lived server pays netlist construction once per process; the
    load generator models the steady state, so module build/compile cost
    must not be billed to the measured run.
    """
    from repro.serve.engine import lane_engine

    lanes = set(mix or DEFAULT_MIX)
    warmer = TrafficGenerator(seed=0, mix=mix)
    for _ in range(64):
        tx = warmer.next_transaction()
        if tx.lane in lanes:
            lane_engine(tx.kind).execute([tx])
            lanes.discard(tx.lane)
        if not lanes:
            break


def run_load(requests=256, seed=2017, baseline=False, max_wait=0.02,
             burst_mean=16, specials=0.02, mix=None, warm=True,
             telemetry_port=None, before_stop=None,
             word_patterns=WORD_PATTERNS):
    """Drive one load run; returns the result record (JSON-ready).

    ``baseline=True`` is the one-transaction-per-word configuration:
    every word carries a single pattern, so the requests/sec it sustains
    is the unbatched floor the coalescing server is measured against.
    Otherwise words coalesce up to ``word_patterns`` (a multiple of
    64) transactions.

    ``telemetry_port`` (0 = ephemeral) starts the server's HTTP
    telemetry endpoint for the run; ``before_stop(server)`` is called
    after the drain while the server — and its endpoint — is still
    live, so callers can scrape ``/metrics`` mid-flight.
    """
    traffic = TrafficGenerator(seed=seed, mix=mix, specials=specials)
    txs = [traffic.next_transaction() for _ in range(requests)]
    if warm:
        warm_engines(mix)

    reg = obs.registry()
    counters_before = dict(reg.snapshot()["counters"])
    # The registry is process-cumulative; diff the latency and
    # occupancy sketches' buckets around the run so the quantiles
    # describe *this* run even when several run_load() calls share a
    # process (bench_serve.py).
    agg_before = reg.aggregate("serve.latency_ms")
    buckets_before = (agg_before or {}).get("buckets", {})
    occ_before = reg.aggregate("serve.batch.occupancy")
    occ_buckets_before = (occ_before or {}).get("buckets", {})

    server = Server(max_batch=1 if baseline else None, max_wait=max_wait,
                    telemetry_port=telemetry_port,
                    word_patterns=word_patterns)
    tickets = []
    t0 = time.perf_counter()
    i = 0
    while i < len(txs):
        for _ in range(traffic.burst_size(burst_mean)):
            if i >= len(txs):
                break
            tickets.append(server.submit(txs[i]))
            i += 1
    server.drain()
    wall_s = time.perf_counter() - t0
    if before_stop is not None:
        before_stop(server)
    server.stop()
    server.disable_telemetry()

    mismatches = 0
    latencies_ms = []
    per_lane = {}
    for tx, ticket in zip(txs, tickets):
        result = ticket.result(timeout=0)
        latencies_ms.append(ticket.latency_s * 1e3)
        per_lane[tx.lane] = per_lane.get(tx.lane, 0) + 1
        if result != reference_result(tx):
            mismatches += 1
    latencies_ms.sort()

    # Run-scoped quantiles from the registry's log-bucket sketch: the
    # same machinery /metrics exposes, so the CLI summary and the HTTP
    # endpoint agree.  Exact min/max from the tickets clamp the bucket
    # midpoints.
    agg_after = reg.aggregate("serve.latency_ms") or {}
    sketch = QuantileSketch.from_dict(
        diff_bucket_dicts(agg_after.get("buckets", {}), buckets_before))
    lat_lo = latencies_ms[0] if latencies_ms else None
    lat_hi = latencies_ms[-1] if latencies_ms else None
    latency_ms = {
        "p50": sketch.quantile(0.50, lo=lat_lo, hi=lat_hi),
        "p95": sketch.quantile(0.95, lo=lat_lo, hi=lat_hi),
        "p99": sketch.quantile(0.99, lo=lat_lo, hi=lat_hi),
        "max": lat_hi,
    }
    if latency_ms["p50"] is None and latencies_ms:
        # Tracing/metrics disabled: fall back to the exact order stats.
        latency_ms = {
            "p50": _percentile(latencies_ms, 0.50),
            "p95": _percentile(latencies_ms, 0.95),
            "p99": _percentile(latencies_ms, 0.99),
            "max": lat_hi,
        }

    snap = reg.snapshot()
    counters = {
        name: value - counters_before.get(name, 0)
        for name, value in snap["counters"].items()
        if name.startswith("serve.")
    }
    flushes = {name.split(".", 2)[2]: value
               for name, value in counters.items()
               if name.startswith("serve.flushes.")}
    n_flushes = sum(flushes.values())

    # Run-scoped occupancy quantiles (patterns per dispatched word),
    # the per-width row the wide-word sweeps compare: occupancy above
    # 64 is only reachable when word_patterns > 64 actually coalesces.
    occ_after = reg.aggregate("serve.batch.occupancy") or {}
    occ_sketch = QuantileSketch.from_dict(
        diff_bucket_dicts(occ_after.get("buckets", {}),
                          occ_buckets_before))
    occupancy_row = {
        "word_patterns": word_patterns,
        "mean": (round(requests / n_flushes, 3) if n_flushes else None),
        "p50": occ_sketch.quantile(0.50, lo=1,
                                   hi=1 if baseline else word_patterns),
        "max": occ_sketch.quantile(1.00, lo=1,
                                   hi=1 if baseline else word_patterns),
    }
    record = {
        "requests": requests,
        "seed": seed,
        "mode": "baseline" if baseline else "coalesced",
        "max_batch": 1 if baseline else word_patterns,
        "max_wait_s": max_wait,
        "burst_mean": burst_mean,
        "specials_fraction": specials,
        "wall_s": round(wall_s, 6),
        "requests_per_s": round(requests / wall_s, 3) if wall_s else None,
        "per_lane_requests": dict(sorted(per_lane.items())),
        "per_lane_requests_per_s": {
            lane: round(n / wall_s, 3) for lane, n in sorted(per_lane.items())
        } if wall_s else {},
        "flushes": dict(sorted(flushes.items())),
        "words_dispatched": n_flushes,
        "mean_occupancy": (round(requests / n_flushes, 3)
                           if n_flushes else None),
        "word_capacity": word_patterns,
        "word_limbs": word_patterns // WORD_PATTERNS,
        "occupancy": occupancy_row,
        "latency_ms": latency_ms,
        "latency_quantile_source": ("sketch" if sketch.count else "exact"),
        "software_lanes": counters.get("serve.software_lanes", 0),
        "mismatches": mismatches,
    }
    return record


def _make_scraper(out_dir):
    """A ``before_stop`` hook scraping the live telemetry endpoint.

    Fetches ``/metrics`` (Prometheus text), ``/metrics.json`` and
    ``/healthz`` over real HTTP while the burst's server still owns its
    queues, and writes each body into ``out_dir`` — the artifact the CI
    telemetry-smoke job asserts against.
    """
    import os
    import urllib.error
    import urllib.request

    def scrape(server):
        telemetry = server.telemetry
        if telemetry is None:
            return
        # A short burst can finish inside the sampling interval; force
        # one tick so the queue-depth/occupancy gauges and ring buffers
        # are populated in the artifact.
        obs.sampler().sample_once()
        os.makedirs(out_dir, exist_ok=True)
        for route, fname in (("/metrics", "metrics.txt"),
                             ("/metrics.json", "metrics.json"),
                             ("/series.json", "series.json"),
                             ("/healthz", "healthz.json")):
            try:
                with urllib.request.urlopen(telemetry.url + route,
                                            timeout=10) as resp:
                    body = resp.read()
            except urllib.error.HTTPError as exc:   # 503 still has a body
                body = exc.read()
            with open(os.path.join(out_dir, fname), "wb") as fh:
                fh.write(body)
        print(f"scraped telemetry from {telemetry.url} into {out_dir}",
              file=sys.stderr)

    return scrape


def _word_patterns_arg(text):
    """``--word-patterns`` type: a bad width is a usage error (exit 2)."""
    try:
        return validate_word_patterns(int(text))
    except ValueError:                       # FormatError is a ValueError
        raise argparse.ArgumentTypeError(
            f"must be a positive multiple of {WORD_PATTERNS}, "
            f"got {text!r}") from None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="seeded mixed-format load generator for repro.serve")
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--baseline", action="store_true",
                        help="one-transaction-per-word mode (max_batch=1)")
    parser.add_argument("--word-patterns", type=_word_patterns_arg,
                        default=WORD_PATTERNS, metavar="N",
                        help="simulation word capacity, a positive "
                             "multiple of 64 (default 64)")
    parser.add_argument("--max-wait", type=float, default=0.02,
                        metavar="SECONDS")
    parser.add_argument("--burst", type=int, default=16, metavar="MEAN",
                        help="mean geometric burst size (arrivals)")
    parser.add_argument("--specials", type=float, default=0.02,
                        help="fraction of FP operands drawn from "
                             "zero/subnormal/inf/NaN")
    parser.add_argument("--slo-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="exit nonzero when the sketch p99 latency "
                             "exceeds this budget (latency is always "
                             "per-transaction, so the budget means the "
                             "same thing at any --word-patterns; size it "
                             "vs --max-wait, which bounds the fill time "
                             "of a partial word)")
    parser.add_argument("--telemetry-port", type=int, default=None,
                        metavar="PORT",
                        help="serve /metrics and /healthz during the run "
                             "(0 = ephemeral port)")
    parser.add_argument("--scrape-dir", metavar="DIR", default=None,
                        help="scrape /metrics, /metrics.json and /healthz "
                             "into DIR while the burst's server is still "
                             "live (implies --telemetry-port 0)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the run record as JSON")
    parser.add_argument("--json", action="store_true",
                        help="print the run record as JSON to stdout")
    parser.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="write the repro.obs/1 metrics snapshot")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record Chrome trace-event spans")
    args = parser.parse_args(argv)

    telemetry_port = args.telemetry_port
    before_stop = None
    if args.scrape_dir is not None:
        if telemetry_port is None:
            telemetry_port = 0
        before_stop = _make_scraper(args.scrape_dir)

    if args.trace:
        obs.start_trace()
    record = run_load(
        requests=args.requests, seed=args.seed, baseline=args.baseline,
        max_wait=args.max_wait, burst_mean=args.burst,
        specials=args.specials, telemetry_port=telemetry_port, before_stop=before_stop,
        word_patterns=args.word_patterns)
    if args.trace:
        obs.write_trace(args.trace)
    if args.metrics_json:
        with open(args.metrics_json, "w") as fh:
            json.dump(obs.registry().snapshot(), fh, indent=2)
            fh.write("\n")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")

    if args.json:
        print(json.dumps(record, indent=2))
    else:
        lat = record["latency_ms"]
        print(f"{record['mode']}: {record['requests']} requests in "
              f"{record['wall_s']:.3f}s -> "
              f"{record['requests_per_s']:.0f} req/s")
        print(f"occupancy {record['mean_occupancy']}/"
              f"{record['word_capacity']} patterns/word over "
              f"{record['words_dispatched']} words "
              f"({record['word_limbs']} limb"
              f"{'s' if record['word_limbs'] != 1 else ''}); flushes "
              f"{record['flushes']}")
        occ = record["occupancy"]
        if occ["p50"] is not None:
            print(f"  W={record['word_limbs']:<3} occupancy sketch: "
                  f"p50={occ['p50']:.0f} max={occ['max']:.0f}")
        for lane, rps in record["per_lane_requests_per_s"].items():
            print(f"  {lane:<9} {record['per_lane_requests'][lane]:>6} req"
                  f"   {rps:>10.1f} req/s")
        print(f"latency ms ({record['latency_quantile_source']}): "
              f"p50={lat['p50']:.2f} p95={lat['p95']:.2f} "
              f"p99={lat['p99']:.2f} max={lat['max']:.2f}")
        print(f"verified bit-identical vs reference: "
              f"{record['mismatches']} mismatches")
    status = 0 if record["mismatches"] == 0 else 1
    if args.slo_p99_ms is not None:
        p99 = record["latency_ms"]["p99"]
        if p99 is None or p99 > args.slo_p99_ms:
            print(f"SLO BREACH: p99 {p99 if p99 is None else round(p99, 3)}"
                  f" ms > budget {args.slo_p99_ms} ms", file=sys.stderr)
            status = status or 2
        else:
            print(f"SLO ok: p99 {p99:.3f} ms <= {args.slo_p99_ms} ms",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
