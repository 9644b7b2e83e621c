"""The one-command report pipeline: all scheduler backends raced.

Races full-report generations through the orchestrator, one leg per
execution backend —

* **serial cold**: ``workers=1``, auto backend (inline), fresh cache;
* **parallel cold**: ``workers=4``, auto backend, fresh cache — on a
  box with fewer than 4 cores the auto policy *downgrades to inline*
  (counted as ``orchestrator.backend.downgraded``) instead of paying
  process overhead for time slicing, so this leg can never lose to
  serial by design; otherwise it runs on the ``workers`` pool;
* **workers cold**: the explicit work-stealing pool on a fresh cache —
  on hosts with >= 4 cores it must beat serial by 2.5x;
* **warm**: the auto leg rerun over the parallel run's cache;
* **remote cold**: two localhost worker daemons behind ``--backend
  remote`` (same total worker count as the ``workers`` leg); on hosts
  with >= 4 cores it must not lose to the same-host ``workers`` pool;
* **remote cachesync**: a *fresh coordinator cache* against the warm
  daemons — every leaf must arrive via a digest pull, with **zero**
  jobs dispatched;
* **remote kill**: fresh daemons, one of them stopped a third of the
  way through the run — the report must still complete with zero lost
  leaves (in-flight work re-queued onto the survivor).

All rendered reports must be *byte-identical* (the orchestrator's
determinism contract, now across backends and machines too).  The
envelope records per-backend rows, the longest single leaf of the
serial leg — fine-grained stealable leaves keep ``max_leaf_fraction``
at or below 0.25 of the graph wall, which is what makes stealing
effective — and the ``dist.*`` headline metrics the perf gate tracks.
"""

import json
import os
import threading
import time

from _bench_io import write_bench
from repro.eval.orchestrator import ResultCache
from repro.eval.report import generate_report
from repro.eval.sched.daemon import WorkerDaemon

N_CYCLES = int(os.environ.get("REPRO_REPORT_BENCH_CYCLES", "6"))
MUTATIONS = int(os.environ.get("REPRO_REPORT_BENCH_MUTATIONS", "8"))
PARALLEL_WORKERS = 4
REMOTE_DAEMONS = 2


def _one_run(tmp_path, tag, workers, cache_root, backend="auto",
             hosts=None, progress=None):
    cache = ResultCache(root=str(cache_root))
    metrics = {}
    t0 = time.perf_counter()
    text = generate_report(
        n_cycles=N_CYCLES, out_path=str(tmp_path / f"report_{tag}.txt"),
        include_sweeps=True, include_verification=True,
        mutations=MUTATIONS, workers=workers, cache=cache,
        metrics=metrics, backend=backend, hosts=hosts, progress=progress)
    seconds = time.perf_counter() - t0
    counters = metrics["counters"]
    job_rows = [r for r in metrics["records"].get("report.jobs", ())
                if not r["cached"]]
    max_leaf = max((r["seconds"] for r in job_rows), default=0.0)
    return {"tag": tag, "backend": backend, "workers": workers,
            "effective_workers": min(workers, os.cpu_count() or 1),
            "oversubscribed": workers > (os.cpu_count() or 1),
            "downgraded":
                counters.get("orchestrator.backend.downgraded", 0) > 0,
            "steals": counters.get("orchestrator.steals", 0),
            "seconds": seconds,
            "max_leaf_seconds": max_leaf,
            "max_leaf_fraction": round(max_leaf / max(seconds, 1e-9), 4),
            "n_jobs": counters.get("report.jobs", 0),
            "cache_hits": counters.get("report.cache_hits", 0),
            "remote_jobs": counters.get("sched.remote.jobs", 0),
            "remote_pulled": counters.get("sched.remote.cache.pulled", 0),
            "remote_requeues": counters.get("sched.remote.requeues", 0),
            "remote_hosts_lost":
                counters.get("sched.remote.hosts.lost", 0),
            "text": text}


def _start_daemons(tmp_path, tag, per_daemon_workers):
    """Two localhost worker daemons with fresh private object stores."""
    return [
        WorkerDaemon(workers=per_daemon_workers,
                     cache=ResultCache(
                         root=str(tmp_path / f"daemon_{tag}_{i}"),
                         fingerprint="(daemon)"),
                     label=f"bench-{tag}-{i}").start()
        for i in range(REMOTE_DAEMONS)
    ]


def _hosts(daemons):
    return ",".join(f"127.0.0.1:{d.port}" for d in daemons)


def test_bench_report_pipeline(benchmark, report_sink, tmp_path):
    cpus = os.cpu_count() or 1
    pool_workers = PARALLEL_WORKERS if cpus >= PARALLEL_WORKERS \
        else max(2, cpus)

    serial = _one_run(tmp_path, "serial_cold", 1, tmp_path / "cache_serial")
    parallel = _one_run(tmp_path, "parallel_cold", PARALLEL_WORKERS,
                        tmp_path / "cache_parallel")
    stealing = _one_run(tmp_path, "workers_cold", pool_workers,
                        tmp_path / "cache_workers", backend="workers")

    # The multi-host legs: the same report through two localhost worker
    # daemons, with the same *total* worker count as the workers leg.
    per_daemon = max(1, pool_workers // REMOTE_DAEMONS)
    daemons = _start_daemons(tmp_path, "cold", per_daemon)
    try:
        remote = _one_run(tmp_path, "remote_cold", pool_workers,
                          tmp_path / "cache_remote", backend="remote",
                          hosts=_hosts(daemons))
        # Digest cache sync: a fresh coordinator cache against the now
        # warm daemons must execute *zero* leaves — everything is
        # answered from the offer and pulled by sha256 digest.
        cachesync = _one_run(tmp_path, "remote_cachesync", pool_workers,
                             tmp_path / "cache_remote2", backend="remote",
                             hosts=_hosts(daemons))
    finally:
        for daemon in daemons:
            daemon.stop()

    # Fault tolerance: fresh daemons, one stopped a third of the way in.
    kill_daemons = _start_daemons(tmp_path, "kill", per_daemon)
    kill_at = max(2, remote["n_jobs"] // 3)
    done = {"n": 0, "fired": False}

    def _kill_progress(event):
        done["n"] += 1
        if done["n"] >= kill_at and not done["fired"]:
            done["fired"] = True
            threading.Thread(target=kill_daemons[1].stop,
                             daemon=True).start()

    try:
        kill = _one_run(tmp_path, "remote_kill", pool_workers,
                        tmp_path / "cache_kill", backend="remote",
                        hosts=_hosts(kill_daemons),
                        progress=_kill_progress)
    finally:
        for daemon in kill_daemons:
            daemon.stop()

    # The timed leg: the warm rerun over the parallel run's cache.
    warm = benchmark.pedantic(
        _one_run, args=(tmp_path, "warm", PARALLEL_WORKERS,
                        tmp_path / "cache_parallel"),
        rounds=1, iterations=1)

    # Determinism contract: every backend renders the same bytes — the
    # kill leg doubles as the zero-lost-leaves proof (a dropped leaf
    # could not render an identical report).
    runs = (serial, parallel, stealing, remote, cachesync, kill, warm)
    for run in runs[1:]:
        assert run["text"] == serial["text"], run["tag"]
    assert warm["cache_hits"] >= 1
    assert cachesync["remote_jobs"] == 0
    assert cachesync["remote_pulled"] >= 1
    assert done["fired"], "kill leg never reached its trigger point"
    assert kill["remote_hosts_lost"] == 1

    warm_speedup = serial["seconds"] / max(warm["seconds"], 1e-9)
    parallel_speedup = serial["seconds"] / max(parallel["seconds"], 1e-9)
    workers_speedup = serial["seconds"] / max(stealing["seconds"], 1e-9)
    dist_speedup = serial["seconds"] / max(remote["seconds"], 1e-9)
    record = {
        "n_cycles": N_CYCLES,
        "mutations": MUTATIONS,
        "cpu_count": cpus,
        "runs": [{k: v for k, v in run.items() if k != "text"}
                 for run in runs],
        "parallel_speedup_vs_serial": round(parallel_speedup, 3),
        "workers_speedup_vs_serial": round(workers_speedup, 3),
        "warm_speedup_vs_serial_cold": round(warm_speedup, 3),
        "max_leaf_fraction_serial": serial["max_leaf_fraction"],
        "dist": {
            "speedup_vs_serial": round(dist_speedup, 3),
            "requeues": kill["remote_requeues"],
            "cachesync_jobs": cachesync["remote_jobs"],
            "cachesync_pulled": cachesync["remote_pulled"],
            "hosts": REMOTE_DAEMONS,
            "workers_per_host": per_daemon,
        },
    }
    write_bench("report_pipeline", record)
    report_sink("report_pipeline", json.dumps(record, indent=2))

    assert warm_speedup >= 10.0
    # Stealable leaves keep the longest leaf well under the graph wall.
    assert serial["max_leaf_fraction"] <= 0.25
    # The auto backend never loses to serial: an oversubscribed request
    # downgrades to the identical inline path instead of time slicing.
    if parallel["downgraded"]:
        assert parallel["effective_workers"] == 1
    assert parallel_speedup >= 1.0
    # The parallel gates need real cores; smaller boxes only record.
    if cpus >= PARALLEL_WORKERS:
        assert parallel_speedup >= 3.0
        assert workers_speedup >= 2.5
        # Two localhost daemons must not lose to the same-host stealing
        # pool by more than the wire tax.
        assert dist_speedup >= workers_speedup * 0.8
