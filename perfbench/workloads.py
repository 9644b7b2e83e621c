"""The benchmark's four workloads and the seeded generators behind them.

Every input is generated here from ``--seed``; nothing comes from
``repro.serve.loadgen`` or ``repro.eval.workloads``, so an edit to those
modules cannot move a workload.  Each workload has three steps:

* ``setup()`` -- what a fresh process needs before it can do the work
  (imports, module loads from the warm pickle cache, kernel codegen);
  its wall is one ``setup_s`` sample;
* ``make_inputs(seed, seconds)`` -- the seeded inputs and their
  references, untimed;
* ``measure(seconds, corrupt)`` -- the timed window, followed by the
  correctness check of every output.

All timings are host time, rescaled to a reference host speed: the
shared machines this runs on drift by +-30% in phases of seconds, which
no window length averages out.  Next to every timed sample the workload
times :func:`calibrate`, a fixed pure-Python big-int probe that no
change to ``src/`` can touch, and multiplies the sample by
``CALIBRATION_REF_S / probe time`` -- its host time on a machine where
the probe takes ``CALIBRATION_REF_S``.  The unscaled figures ride along
in the "ran as" record.  ``serve_paced`` is not rescaled: its latency is
mostly wall-clock waiting (``max_wait``, arrival gaps), not computation.

``corrupt=True`` flips one output before it is checked, which the
self-test uses to prove the checks can fail.
"""

import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from dataclasses import replace
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Designs whose netlists the report and the power workload load.
ALL_MODULES = ("r16", "r16_pipe", "r4", "r4_pipe", "r8", "mf", "mf_quad",
               "reducer")

#: The power workload's points: (design, stimulus kind).
POWER_POINTS = (("r16", "int"), ("r16_pipe", "int"), ("mf", "int64"),
                ("mf", "fp64"), ("mf", "fp32_dual"))
POWER_CYCLES = 128

SPECIAL_SHARE = 0.02

#: Seconds one :func:`calibrate` call takes on the reference host.
CALIBRATION_REF_S = 0.0015
_PROBE_MASK = (1 << 512) - 1
_PROBE_WORDS = tuple((0x9E3779B97F4A7C15 * (i + 1) * 0x1234567) & _PROBE_MASK
                     for i in range(64))


def rng(seed, stream):
    """A generator private to one input stream of one seed."""
    return random.Random(f"perfbench:{stream}:{seed}")


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_references():
    with open(HERE / "references.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# operand generators
# ----------------------------------------------------------------------

def normal(r, fmt):
    return fmt.pack(r.getrandbits(1), r.randint(1, fmt.exponent_mask - 1),
                    r.getrandbits(fmt.trailing_significand_bits))


def special(r, fmt):
    """A zero, subnormal, infinity or NaN encoding of ``fmt``."""
    tbits, emask = fmt.trailing_significand_bits, fmt.exponent_mask
    frac = r.getrandbits(tbits) or 1
    exponent, fraction = r.choice(((0, 0), (0, frac), (emask, 0),
                                   (emask, frac)))
    return fmt.pack(r.getrandbits(1), exponent, fraction)


def reducible64(r, fmt64):
    """A binary64 holding an exact binary32 value (Algorithm 1 passes)."""
    return fmt64.pack(r.getrandbits(1), r.randint(959, 1087),
                      r.getrandbits(23) << 29)


def make_tx(r, kind):
    """One transaction of lane ``kind`` (0..4: int64, fp64, fp32x2,
    fp16x4, reduce64); ``SPECIAL_SHARE`` of the floating-point and
    reduction transactions carry one special operand, and half the
    reductions a demotable value."""
    from repro.bits.ieee754 import BINARY16, BINARY32, BINARY64
    from repro.serve.transactions import Transaction

    if kind == 0:
        return Transaction.int64(r.getrandbits(64), r.getrandbits(64))
    if kind == 4:
        if r.random() < SPECIAL_SHARE:
            x = special(r, BINARY64)
        elif r.random() < 0.5:
            x = reducible64(r, BINARY64)
        else:
            x = normal(r, BINARY64)
        return Transaction.reduce64(x)
    fmt, n_lanes = {1: (BINARY64, 1), 2: (BINARY32, 2),
                    3: (BINARY16, 4)}[kind]
    xs = [normal(r, fmt) for __ in range(n_lanes)]
    ys = [normal(r, fmt) for __ in range(n_lanes)]
    if r.random() < SPECIAL_SHARE:
        side = xs if r.getrandbits(1) else ys
        side[r.randrange(n_lanes)] = special(r, fmt)
    if kind == 1:
        return Transaction.fp64(xs[0], ys[0])
    if kind == 2:
        return Transaction.fp32_pair(xs[0], ys[0], xs[1], ys[1])
    return Transaction.fp16_quad(xs, ys)


def tx_pool(seed, n):
    """``n`` transactions with lanes drawn uniformly at random."""
    r = rng(seed, "serve-pool")
    return [make_tx(r, r.randrange(5)) for __ in range(n)]


def burst_pool(seed, n_bursts, per_lane):
    """``n_bursts`` bursts, each ``per_lane`` transactions of every lane
    in shuffled order, concatenated."""
    r = rng(seed, "serve-bursts")
    pool = []
    for __ in range(n_bursts):
        burst = [make_tx(r, kind) for kind in range(5)
                 for __ in range(per_lane)]
        r.shuffle(burst)
        pool.extend(burst)
    return pool


def poisson_offsets(seed, rate, seconds):
    """Arrival offsets (s) of an open-loop Poisson source."""
    r = rng(seed, "serve-arrivals")
    offsets, t = [], 0.0
    while True:
        t += r.expovariate(rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


def power_stimuli(seed, n_cycles=POWER_CYCLES):
    """One stimulus per ``POWER_POINTS`` entry."""
    from repro.bits.ieee754 import BINARY32, BINARY64
    from repro.core.pipeline_unit import FRMT_FP32X2, FRMT_FP64, FRMT_INT64

    stimuli = []
    for i, (__, kind) in enumerate(POWER_POINTS):
        r = rng(seed, f"power-{i}")
        if kind in ("int", "int64"):
            xs = [r.getrandbits(64) for __ in range(n_cycles)]
            ys = [r.getrandbits(64) for __ in range(n_cycles)]
        elif kind == "fp64":
            xs = [normal(r, BINARY64) for __ in range(n_cycles)]
            ys = [normal(r, BINARY64) for __ in range(n_cycles)]
        else:
            xs = [normal(r, BINARY32) | normal(r, BINARY32) << 32
                  for __ in range(n_cycles)]
            ys = [normal(r, BINARY32) | normal(r, BINARY32) << 32
                  for __ in range(n_cycles)]
        stim = {"x": xs, "y": ys}
        if kind != "int":
            code = {"int64": FRMT_INT64, "fp64": FRMT_FP64,
                    "fp32_dual": FRMT_FP32X2}[kind]
            stim["frmt"] = [code] * n_cycles
        stimuli.append(stim)
    return stimuli


def power_point_values(report):
    """The simulated statistics a power point must reproduce exactly."""
    return {"total_mw": repr(report.total_mw),
            "events_processed": report.sim_stats["events_processed"]}


def report_section_digests(text):
    """``{section title: sha256}`` of a rendered report."""
    digests = {}
    for chunk in text.split("\n## ")[1:]:
        title, __, body = chunk.partition("\n")
        digests[title] = sha256(body.encode()).hexdigest()
    return digests


def expected_event_kernel():
    """``"c"`` wherever a C compiler exists (what the kernel builds with)."""
    return "c" if (os.environ.get("CC") or shutil.which("cc")
                   or shutil.which("gcc")) else "python"


def calibrate():
    """Seconds taken by one fixed host-speed probe.

    The probe mixes what the simulators spend their time on: 512-bit
    integer logic, list indexing and dict stores.
    """
    t0 = time.perf_counter()
    v, d = list(_PROBE_WORDS), {}
    for i in range(6000):
        a, b = v[(i * 7) & 63], v[(i * 13) & 63]
        v[i & 63] = ((a & b) ^ (v[(i * 5) & 63] >> 1)) & _PROBE_MASK
        d[i & 255] = a
    return time.perf_counter() - t0


def host_scale(probes=5):
    """Factor turning host seconds measured now into reference seconds."""
    return CALIBRATION_REF_S / statistics.median(
        calibrate() for __ in range(probes))


def rebind(fn, replacement):
    """Point every ``repro`` module's binding of ``fn`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is fn:
                setattr(module, key, replacement)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """Common shape; subclasses fill in ``setup``/``make_inputs``/``measure``.

    ``measure`` returns the end-to-end figures ``ops_per_s``,
    ``op_p50_ms`` and ``op_p99_ms``, the ``attempted`` and ``failed``
    operation counts, the measured ``windows`` (perf_counter spans of
    the program's work, excluding the benchmark's own bookkeeping
    between bursts) and how many whole ``units`` of work (passes,
    reports) they held.
    """

    name = "?"
    #: Per-request generator lateness (ms), for open-loop workloads.
    late_ms = None

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.ran_as = {}

    def setup(self):
        raise NotImplementedError

    def make_inputs(self, seed, seconds):
        raise NotImplementedError

    def measure(self, seconds, corrupt=False):
        raise NotImplementedError


def _warm_serve_lanes():
    """Build every lane engine and run one transaction through each, so
    the kernels' lazy code generation is paid in set-up."""
    from repro.bits.ieee754 import BINARY16, BINARY32, BINARY64
    from repro.serve.engine import lane_engine
    from repro.serve.transactions import ONE_ENCODING, Transaction

    one16, one32, one64 = (ONE_ENCODING[f]
                           for f in (BINARY16, BINARY32, BINARY64))
    for tx in (Transaction.int64(3, 5), Transaction.fp64(one64, one64),
               Transaction.fp32_pair(one32, one32, one32, one32),
               Transaction.fp16_quad([one16] * 4, [one16] * 4),
               Transaction.reduce64(one64)):
        lane_engine(tx.kind).execute([tx])


class ServeBurst(Workload):
    """Closed loop of back-to-back bursts into one wide-word server.

    Every burst holds exactly one word's worth (512) of each lane in
    shuffled order, and words flush only when full (``MAX_WAIT`` is a
    stall guard, not a batching knob), so each burst runs as five full
    kernel passes whatever the thread interleaving.  The next burst is
    submitted as soon as the previous one has returned and its results
    have been compared with their precomputed references.

    Each burst is one sample, rescaled by probes on either side of it:
    ``ops_per_s`` is the median burst throughput and the latency
    percentiles (submit -> result) are the medians over bursts of each
    burst's own percentiles.
    """

    name = "serve_burst"
    WORD_PATTERNS = 512
    MAX_WAIT = 1.0
    BURST = 5 * WORD_PATTERNS
    POOL_BURSTS = 4

    def setup(self):
        _warm_serve_lanes()

    def make_inputs(self, seed, seconds):
        from repro.serve import transactions

        self.pool = burst_pool(seed, self.POOL_BURSTS, self.WORD_PATTERNS)
        self.refs = [transactions.reference_result(tx) for tx in self.pool]

    def _burst(self, server, start, corrupt):
        """Submit one burst, collect it, then check it.

        Returns ``(seconds, latencies, failed, window)``: submit start
        to last completion, per-transaction ms, failures, and the
        perf_counter span from the first submit until every result was
        collected (the checks run after it).
        """
        pool, refs, n_pool = self.pool, self.refs, len(self.pool)
        failed = 0
        tp = time.perf_counter()
        t0 = time.monotonic()
        tickets = []
        for k in range(start, start + self.BURST):
            try:
                tickets.append(server.submit(pool[k % n_pool], timeout=60.0))
            except Exception:                  # QueueFullError and kin
                failed += 1
                tickets.append(None)
        results = []
        for ticket in tickets:
            try:
                results.append(ticket and ticket.result(timeout=60.0))
            except Exception:
                results.append(None)
        window = (tp, time.perf_counter())
        latencies, last = [], t0
        for k, (ticket, result) in enumerate(zip(tickets, results)):
            if result is None:
                failed += ticket is not None
                continue
            if corrupt and k == 0:
                result = replace(result, ph=result.ph ^ 1)
            if result != refs[(start + k) % n_pool]:
                failed += 1
            latencies.append((ticket.completed_at - ticket.submitted_at) * 1e3)
            last = max(last, ticket.completed_at)
        return last - t0, latencies, failed, window

    def measure(self, seconds, corrupt=False):
        from repro.serve.server import Server

        server = Server(word_patterns=self.WORD_PATTERNS,
                        max_wait=self.MAX_WAIT)
        rates, p50s, p99s, scales, windows = [], [], [], [], []
        failed = 0
        try:
            self._burst(server, 0, False)      # untimed warm-up
            t0 = time.perf_counter()
            while not rates or time.perf_counter() - t0 < seconds:
                before = host_scale(1)
                wall, latencies, bad, window = self._burst(
                    server, len(rates) * self.BURST, corrupt and not rates)
                scale = (before + host_scale(1)) / 2
                failed += bad
                scales.append(scale)
                windows.append(window)
                rates.append(len(latencies) / (wall * scale))
                p50s.append(percentile(latencies, 0.50) * scale)
                p99s.append(percentile(latencies, 0.99) * scale)
        finally:
            server.close()
        self.ran_as.update(
            word_patterns=server.word_patterns, burst=self.BURST,
            bursts=len(rates), pool=len(self.pool),
            host_scale=statistics.median(scales),
            raw_ops_per_s=statistics.median(
                r * s for r, s in zip(rates, scales)))
        return {"ops_per_s": statistics.median(rates),
                "op_p50_ms": statistics.median(p50s),
                "op_p99_ms": statistics.median(p99s),
                "attempted": len(rates) * self.BURST, "failed": failed,
                "units": 1, "windows": windows}


class ServePaced(Workload):
    """Open loop: Poisson arrivals at a fixed rate into 64-pattern words.

    Words mostly flush on ``MAX_WAIT`` at partial occupancy.  Each
    latency is timed from the request's due time, so a stalled
    generator or dispatcher charges every request it delays.  The
    percentiles are taken per ``BIN_S`` of arrivals (~1000 requests, so
    the p99 has 10 beyond it) and the median over bins is reported: a
    slow host phase shorter than half the run does not move them.
    """

    name = "serve_paced"
    WORD_PATTERNS = 64
    MAX_WAIT = 0.020
    RATE = 2000.0
    POOL = 4096
    BIN_S = 0.5

    def setup(self):
        _warm_serve_lanes()

    def make_inputs(self, seed, seconds):
        from repro.serve import transactions

        self.pool = tx_pool(seed, self.POOL)
        self.refs = [transactions.reference_result(tx) for tx in self.pool]
        self.offsets = poisson_offsets(seed, self.RATE, seconds)

    def measure(self, seconds, corrupt=False):
        from repro.serve.server import Server

        server = Server(word_patterns=self.WORD_PATTERNS,
                        max_wait=self.MAX_WAIT)
        pool, n_pool = self.pool, len(self.pool)
        offsets = self.offsets
        tickets = [None] * len(offsets)
        late = array("d")
        failed = 0
        try:
            t_base = time.perf_counter() + 0.01
            m_base = time.monotonic() + 0.01
            sleep, now = time.sleep, time.perf_counter
            for k, offset in enumerate(offsets):
                due = t_base + offset
                wait = due - now()
                if wait > 0:
                    sleep(wait)
                late.append((now() - due) * 1e3)
                try:
                    tickets[k] = server.submit(pool[k % n_pool], block=False)
                except Exception:              # QueueFullError and kin
                    failed += 1
            server.drain(timeout=60.0)
        finally:
            server.close()

        bins = {}
        last = m_base
        for k, ticket in enumerate(tickets):
            if ticket is None:
                continue
            try:
                result = ticket.result(timeout=60.0)
            except Exception:
                failed += 1
                continue
            if corrupt and k == 0:
                result = replace(result, ph=result.ph ^ 1)
            if result != self.refs[k % n_pool]:
                failed += 1
            bins.setdefault(int(offsets[k] // self.BIN_S), []).append(
                (ticket.completed_at - m_base - offsets[k]) * 1e3)
            last = max(last, ticket.completed_at)
        elapsed = last - m_base
        self.late_ms = late
        self.ran_as.update(
            word_patterns=server.word_patterns, rate_per_s=self.RATE,
            max_wait_ms=self.MAX_WAIT * 1e3,
            late_p50_ms=round(percentile(late, 0.5), 4),
            late_p99_ms=round(percentile(late, 0.99), 4))
        per_bin = list(bins.values())
        return {"ops_per_s": sum(map(len, per_bin)) / elapsed,
                "op_p50_ms": statistics.median(
                    percentile(b, 0.50) for b in per_bin),
                "op_p99_ms": statistics.median(
                    percentile(b, 0.99) for b in per_bin),
                "attempted": len(offsets), "failed": failed, "units": 1,
                "windows": [(t_base, t_base + elapsed)]}


class ReportCold(Workload):
    """One full ``generate_report`` from an empty result cache.

    CLI defaults (12 cycles, 12 mutations, sweeps and verification on),
    ``inline`` backend.  Every section's bytes must match the digests
    recorded in ``references.json``.

    The report runs ~20 s, longer than the host's speed phases, so it is
    rescaled leaf by leaf: every leaf job (``call_leaf``) is bracketed by
    two probes, and the remainder outside leaves takes the mean factor.
    """

    name = "report_cold"

    def setup(self):
        import repro.eval.report  # noqa: F401
        from repro.eval.experiments import cached_module

        for which in ALL_MODULES:
            cached_module(which)

    def make_inputs(self, seed, seconds):
        # The report's inputs are its own fixed seeds; --seed selects
        # nothing here, so every run checks the same recorded bytes.
        self.reference = load_references()["report_sections"]

    def measure(self, seconds, corrupt=False):
        from repro import obs
        from repro.eval import report
        from repro.eval.cache import ResultCache
        from repro.eval.sched import base

        root = self.workdir / "results"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        call_leaf = base.call_leaf
        leaves = {"raw": 0.0, "scaled": 0.0, "probe": 0.0}
        scales = []

        def rescaled_leaf(fn, params):
            tp = time.perf_counter()
            before = host_scale(3)
            ts = time.perf_counter()
            try:
                return call_leaf(fn, params)
            finally:
                te = time.perf_counter()
                after = host_scale(3)
                leaves["raw"] += te - ts
                leaves["scaled"] += (te - ts) * (before + after) / 2
                leaves["probe"] += (ts - tp) + (time.perf_counter() - te)
                scales.extend((before, after))

        rebind(call_leaf, rescaled_leaf)
        try:
            t0 = time.perf_counter()
            text = report.generate_report(
                n_cycles=12, include_sweeps=True, include_verification=True,
                mutations=12, workers=0, backend="inline",
                cache=ResultCache(root=root))
            t1 = time.perf_counter()
        finally:
            rebind(rescaled_leaf, call_leaf)
        scale = statistics.mean(scales) if scales else host_scale()
        wall = leaves["scaled"] + scale * (
            t1 - t0 - leaves["raw"] - leaves["probe"])
        shutil.rmtree(root, ignore_errors=True)
        if corrupt:
            text = text.replace("\n```\n", "\n```\n#", 1)

        digests = report_section_digests(text)
        failed = sum(1 for title, digest in self.reference.items()
                     if digests.get(title) != digest)
        failed += len(digests.keys() - self.reference.keys())
        reg = obs.registry()
        modes = sorted({row["mode"] for row in
                        reg.snapshot()["records"].get("report.jobs", ())})
        kernels = {}
        for row in reg.snapshot()["records"].get("power.estimates", ()):
            kernels.setdefault(row["module"], set()).add(row.get("kernel"))
        self.ran_as.update(
            backend="+".join(m for m in modes if m != "cache") or "cache",
            cache_hits=reg.counter_value("report.cache_hits"),
            downgraded=reg.counter_value("orchestrator.backend.downgraded"),
            event_kernel={m: "+".join(sorted(k)) for m, k in
                          sorted(kernels.items())},
            host_scale=scale, raw_report_s=t1 - t0, leaves=len(scales) // 2)
        # One report per run: both percentiles are its wall.
        return {"ops_per_s": 1.0 / wall,
                "op_p50_ms": wall * 1e3, "op_p99_ms": wall * 1e3,
                "attempted": max(len(self.reference), 1), "failed": failed,
                "units": 1, "windows": [(t0, t1)]}


class PowerDeep(Workload):
    """Repeated passes of ``estimate_power`` over five design points.

    A pass is 128-cycle Monte Carlo power on r16, r16_pipe and the MF
    unit in int64, fp64 and fp32_dual.  Compilation (levelized codegen,
    event simulators, the C kernel) happens in setup.  Operations are
    simulated transitions; each point must reproduce its recorded
    ``total_mw`` and ``events_processed`` exactly.
    """

    name = "power_deep"

    def setup(self):
        from repro.eval.experiments import cached_module
        from repro.hdl.library import default_library
        from repro.hdl.power.monte_carlo import estimate_power

        self.library = default_library()
        self.modules = {d: cached_module(d) for d, __ in POWER_POINTS}
        for (design, __), stim in zip(POWER_POINTS, power_stimuli(0, 8)):
            estimate_power(self.modules[design], self.library, stim, 8)

    def make_inputs(self, seed, seconds):
        self.stimuli = power_stimuli(seed)
        self.reference = load_references()["power"].get(str(seed))

    def measure(self, seconds, corrupt=False):
        from repro.hdl.power import monte_carlo

        transitions = POWER_CYCLES - 1
        per_point_ms = [[] for __ in POWER_POINTS]
        scales, values = [], []
        t0 = time.perf_counter()
        while not values or time.perf_counter() - t0 < seconds:
            row = []
            for i, (design, __) in enumerate(POWER_POINTS):
                before = host_scale(3)
                ts = time.perf_counter()
                rep = monte_carlo.estimate_power(
                    self.modules[design], self.library, self.stimuli[i],
                    POWER_CYCLES)
                point_s = time.perf_counter() - ts
                scale = (before + host_scale(3)) / 2
                scales.append(scale)
                per_point_ms[i].append(point_s * scale * 1e3 / transitions)
                row.append(power_point_values(rep))
            values.append(row)
        t1 = time.perf_counter()
        if corrupt:
            values[-1][0] = dict(values[-1][0], events_processed=-1)

        # Without a recorded reference for this seed the first pass is
        # the reference, so only run-to-run drift can fail.
        reference = self.reference or values[0]
        failed = sum(1 for row in values
                     for got, want in zip(row, reference) if got != want)
        kernels = {}
        for design, module in self.modules.items():
            esim = monte_carlo.shared_event_simulator(module, self.library)
            kernels[design] = esim.kernel
        self.ran_as.update(event_kernel=kernels, passes=len(values),
                           reference="recorded" if self.reference
                           else "first-pass",
                           host_scale=statistics.median(scales))
        # A point's replay is deterministic work that host noise only
        # ever slows, so each point is timed by its fastest pass (as
        # timeit does): over 10 s windows that spreads half as much as
        # the median pass.  The typical figure averages the five points,
        # the tail is the slowest point.
        best_ms = [min(ms) for ms in per_point_ms]
        mean_ms = statistics.mean(best_ms)
        return {"ops_per_s": 1e3 / mean_ms,
                "op_p50_ms": mean_ms,
                "op_p99_ms": max(best_ms),
                "attempted": len(values) * len(POWER_POINTS),
                "failed": failed, "units": len(values),
                "windows": [(t0, t1)]}


WORKLOADS = {cls.name: cls for cls in (ServeBurst, ServePaced, ReportCold,
                                       PowerDeep)}
