"""The pluggable scheduler backends and the content-addressed cache.

Load-bearing guarantees:

* every local backend (``inline``, work-stealing ``workers``)
  produces byte-identical graph results at any worker count,
  ``LeafResult.seconds`` means the leaf's own execution time on each
  (no queue wait, no cache I/O), and a failing leaf raises its own
  exception;
* ``inline`` runs one leaf per ``next_result`` in declared order, so
  progress streams between leaves;
* the ``workers`` backend actually steals under skew and recovers from
  a worker crash by re-queueing the in-flight leaf;
* the ``repro.sched/1`` wire envelopes round-trip tasks and results;
* the content-addressed store round-trips through ``export``/
  ``import`` so a second machine replays the graph with **zero leaf
  executions**, bounds itself via LRU eviction, and counts corruption;
* the Monte Carlo shard plan partitions the transition sequence
  exactly, and fault campaigns auto-chunk without changing historic
  plans.
"""

import os
import pickle
import time

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.eval.cache import ResultCache, key_digest
from repro.eval.orchestrator import Job, job, run_graph
from repro.eval.sched import make_backend
from tests.oracles.sched_leaves import seeded_leaf


def _counter(name):
    return obs.registry().snapshot()["counters"].get(name, 0)


def _mini_graph(fast=6, slow_seconds=0.0):
    """A small skewed graph: one heavy leaf, several light ones, a merge."""
    jobs = [job("slow", "tests.oracles.sched_leaves:sleepy_leaf",
                weight=8.0, seconds=slow_seconds, seed=99, size=3)]
    jobs += [job(f"fast{i}", "tests.oracles.sched_leaves:seeded_leaf",
                 weight=1.0, seed=i, size=2)
             for i in range(fast)]
    leaf_names = tuple(j.name for j in jobs)
    jobs.append(Job(name="total",
                    fn=lambda deps: sorted(sum(deps.values(), [])),
                    params=(), deps=leaf_names))
    return jobs


def _expected_total(fast=6):
    values = [seeded_leaf(seed=99, size=3)]
    values += [seeded_leaf(seed=i, size=2) for i in range(fast)]
    return sorted(sum(values, []))


@pytest.mark.parametrize("backend", ["inline", "workers"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_backend_parity(backend, workers):
    """Identical results on every backend at every worker count."""
    outcomes = run_graph(_mini_graph(), workers=workers, cache=None,
                         backend=backend)
    assert outcomes["total"].value == _expected_total()
    assert outcomes["fast0"].value == seeded_leaf(seed=0, size=2)


def test_backend_choices_and_auto_policy(monkeypatch):
    from repro.eval import orchestrator
    from repro.eval.sched import BACKEND_CHOICES

    assert BACKEND_CHOICES == ("auto", "inline", "workers", "remote")
    monkeypatch.setattr(orchestrator.os, "cpu_count", lambda: 4)
    resolve = orchestrator._resolve_backend_choice
    assert resolve("auto", 1) == ("inline", 1)
    assert resolve("auto", 2) == ("workers", 2)
    assert resolve("auto", 8) == ("inline", 1)       # oversubscribed
    with pytest.raises(SimulationError, match="unknown scheduler"):
        resolve("fork", 2)


@pytest.mark.parametrize("backend", ["inline", "workers"])
def test_leaf_seconds_exclude_queue_wait(backend):
    """A fast leaf queued behind a slow one reports its own run time."""
    jobs = [job("slow", "tests.oracles.sched_leaves:sleepy_leaf",
                weight=8.0, seconds=0.4, seed=1),
            job("fast", "tests.oracles.sched_leaves:seeded_leaf",
                weight=1.0, seed=2)]
    out = run_graph(jobs, workers=1, cache=None, backend=backend)
    assert out["slow"].seconds >= 0.4
    assert out["fast"].seconds < 0.2


class _SlowStoreCache(ResultCache):
    """A result store whose every write takes 0.2 s."""

    def store(self, jb, value):
        time.sleep(0.2)
        return super().store(jb, value)


@pytest.mark.parametrize("backend", ["inline", "workers"])
def test_leaf_seconds_exclude_cache_io(backend, tmp_path):
    """Cache probes and stores happen in the scheduler, outside the
    leaf's own execution time — on inline exactly as on workers."""
    cache = _SlowStoreCache(root=tmp_path, fingerprint="fp")
    jobs = [job("leaf", "tests.oracles.sched_leaves:seeded_leaf", seed=3)]
    out = run_graph(jobs, workers=1, cache=cache, backend=backend)
    assert out["leaf"].seconds < 0.2
    assert out["leaf"].mode == ("inline" if backend == "inline"
                                else "worker")


def test_inline_progress_streams_between_leaves():
    """``--live`` sees leaf *k* finish before leaf *k+1* starts, and a
    serial backend keeps the declared order instead of heaviest-first."""
    events = []

    def leaf(tag):
        events.append(("run", tag))
        return tag

    jobs = [job(f"leaf{i}", leaf, weight=1 + i, tag=i) for i in range(3)]
    jobs.append(Job(name="total", fn=lambda deps: sorted(deps.values()),
                    deps=tuple(jb.name for jb in jobs)))
    out = run_graph(jobs, cache=None, backend="inline",
                    progress=lambda info: events.append(("done",
                                                         info["name"])))
    assert out["total"].value == [0, 1, 2]
    assert events == [("run", 0), ("done", "leaf0"),
                      ("run", 1), ("done", "leaf1"),
                      ("run", 2), ("done", "leaf2"),
                      ("done", "total")]


def test_workers_backend_steals_under_skew():
    before = _counter("orchestrator.steals")
    outcomes = run_graph(_mini_graph(fast=8, slow_seconds=0.4),
                         workers=2, cache=None, backend="workers")
    assert outcomes["total"].value == _expected_total(fast=8)
    assert _counter("orchestrator.steals") > before


def test_workers_backend_recovers_from_crash(tmp_path):
    sentinel = str(tmp_path / "crashed-once")
    before = _counter("orchestrator.worker.crashes")
    jobs = [job("boom", "tests.oracles.sched_leaves:crashy_leaf",
                weight=4.0, sentinel=sentinel, seed=5)]
    jobs += [job(f"ok{i}", "tests.oracles.sched_leaves:seeded_leaf",
                 seed=i, size=2) for i in range(3)]
    outcomes = run_graph(jobs, workers=2, cache=None, backend="workers")
    assert outcomes["boom"].value == seeded_leaf(seed=5, size=2)
    assert all(outcomes[f"ok{i}"].value == seeded_leaf(seed=i, size=2)
               for i in range(3))
    assert _counter("orchestrator.worker.crashes") == before + 1
    assert os.path.exists(sentinel)


@pytest.mark.parametrize("backend", ["inline", "workers"])
def test_workers_backend_leaf_error_propagates(backend):
    """A failing leaf re-raises its own exception in the caller."""
    jobs = [job("bad", "tests.oracles.sched_leaves:seeded_leaf",
                seed="not-an-int", size=None)]
    with pytest.raises(TypeError):
        run_graph(jobs, workers=2, cache=None, backend=backend)


def test_make_backend_rejects_unknown():
    with pytest.raises(SimulationError):
        make_backend("quantum", 2)
    with pytest.raises(SimulationError):
        run_graph(_mini_graph(), workers=2, cache=None, backend="quantum")


def test_wire_envelopes_roundtrip():
    from repro.eval.sched import LeafTask, wire

    task = LeafTask(name="leafy", fn="tests.oracles.sched_leaves:seeded_leaf",
                    params=(("seed", 3), ("size", 2)), weight=2.0,
                    fingerprint="abc123")
    env = wire.job_envelope(task)
    assert env["schema"] == wire.SCHEMA
    back = wire.task_from_envelope(env)
    assert back.name == task.name and back.params == task.params
    assert back.fingerprint == "abc123"

    from repro.eval.sched.base import execute_task
    res = execute_task(back)
    renv = wire.result_envelope(res, worker=7)
    rback = wire.result_from_envelope(renv)
    assert rback.ok and rback.value == seeded_leaf(seed=3, size=2)
    assert rback.worker == 7


def test_cache_export_import_roundtrip_zero_leaf_executions(tmp_path):
    src = ResultCache(root=str(tmp_path / "src"), fingerprint="fp-x")
    jobs = _mini_graph(fast=4)
    run_graph(jobs, workers=0, cache=src, backend="inline")
    assert src.misses > 0

    archive = str(tmp_path / "results.tar.gz")
    exported = src.export(archive)["entries"]
    assert exported == len([j for j in jobs if not j.deps])

    dst = ResultCache(root=str(tmp_path / "dst"), fingerprint="fp-x")
    stats = dst.import_archive(archive)
    assert stats["imported"] == exported and stats["corrupt"] == 0

    # The warm machine replays the graph without executing one leaf.
    outcomes = run_graph(jobs, workers=2, cache=dst, backend="workers")
    assert outcomes["total"].value == _expected_total(fast=4)
    leaf_modes = {o.mode for n, o in outcomes.items() if n != "total"}
    assert leaf_modes == {"cache"}
    assert dst.misses == 0
    # Lazy backend start: a fully cache-served graph forks no workers.
    spawned = _counter("orchestrator.workers.spawned")
    run_graph(jobs, workers=2, cache=dst, backend="workers")
    assert _counter("orchestrator.workers.spawned") == spawned


def test_cache_import_skips_corrupt_entries(tmp_path):
    src = ResultCache(root=str(tmp_path / "src"), fingerprint="fp-x")
    jb = job("unit", "tests.oracles.sched_leaves:seeded_leaf", seed=1, size=2)
    run_graph([jb], workers=0, cache=src)
    objects = tmp_path / "src" / "objects"
    (entry,) = os.listdir(objects)
    (objects / entry).write_bytes(pickle.dumps({"schema": "repro.cache/1",
                                                "key": "tampered",
                                                "value": 13}))
    archive = str(tmp_path / "bad.tar.gz")
    src.export(archive)
    dst = ResultCache(root=str(tmp_path / "dst"), fingerprint="fp-x")
    stats = dst.import_archive(archive)
    assert stats["imported"] == 0 and stats["corrupt"] == 1


def test_cache_lru_eviction_is_size_capped(tmp_path):
    cache = ResultCache(root=str(tmp_path), fingerprint="fp")
    blob = list(range(20000))           # ~100 KB pickled
    for i in range(6):
        cache.store(job(f"big{i}", "m:f", i=i), blob)
        hit, __ = cache.load(job(f"big{i}", "m:f", i=i))
        assert hit
    before = cache.stats()
    assert before["entries"] == 6
    evicted = cache.gc(max_mb=0.25)
    assert len(evicted) > 0
    after = cache.stats()
    assert after["entries"] < 6
    assert after["bytes"] <= 0.25 * 1024 * 1024
    # Most-recently-used entries survive.
    hit, __ = cache.load(job("big5", "m:f", i=5))
    assert hit


def test_cache_cli_stats_gc_export_import(tmp_path, capsys):
    from repro.eval import cache as cache_cli

    root = str(tmp_path / "store")
    cache = ResultCache(root=root, fingerprint="fp")
    cache.store(job("one", "m:f", a=1), [1, 2, 3])

    assert cache_cli.main(["--root", root, "stats"]) == 0
    assert "1 entries" in capsys.readouterr().out

    archive = str(tmp_path / "out.tar.gz")
    assert cache_cli.main(["--root", root, "export", archive]) == 0
    capsys.readouterr()

    dst = str(tmp_path / "other")
    assert cache_cli.main(["--root", dst, "import", archive]) == 0
    assert "imported 1" in capsys.readouterr().out

    assert cache_cli.main(["--root", dst, "gc", "--max-mb", "0"]) == 0


def test_key_digest_is_content_address():
    a = key_digest("same-key")
    b = key_digest("same-key")
    c = key_digest("other-key")
    assert a == b != c
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")


def test_transition_windows_partition_exactly():
    from repro.hdl.power.monte_carlo import power_shard_plan

    for n_cycles in (2, 3, 16, 17, 64, 65):
        for max_transitions in (1, 2, 3, 7, 16, 100):
            windows = power_shard_plan(n_cycles, max_transitions)
            covered = [t for a, b in windows for t in range(a, b + 1)]
            assert covered == list(range(1, n_cycles))
            sizes = [b - a + 1 for a, b in windows]
            assert max(sizes) <= max_transitions
            assert max(sizes) - min(sizes) <= 1
    plan = power_shard_plan(64, max_transitions=16)
    assert len(plan) == 4
    assert all(b - a + 1 <= 16 for a, b in plan)
    assert power_shard_plan(12, max_transitions=16) == [(1, 11)]
    with pytest.raises(SimulationError, match="two cycles"):
        power_shard_plan(1)


def test_chunk_plan_auto_matches_historic_plans():
    from repro.eval.fault_injection import chunk_plan

    # n <= 40 keeps the exact historic 4-way split (same shard seeds).
    assert chunk_plan(40, 7) == chunk_plan(40, 7, 4)
    assert chunk_plan(12, 7) == chunk_plan(12, 7, 4)
    # Larger campaigns refine toward ~10 mutations per leaf.
    plan = chunk_plan(100, 7)
    assert len(plan) == 10
    assert sum(size for __, size in plan) == 100
