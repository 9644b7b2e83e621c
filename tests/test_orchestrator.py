"""The experiment orchestrator: graphs, caching, determinism.

The load-bearing guarantees tested here:

* a parallel run produces *the same objects* as a serial run at the
  same seeds (the merge order is deterministic, not scheduling-order);
* the persistent result cache hits on identical ``(fingerprint,
  experiment, params)`` keys, misses when the fingerprint moves, and
  silently recomputes over corrupt entries;
* the job-graph checker rejects cycles and conflicting duplicates;
* ``python -m repro`` runs the same registry with the report's params,
  so each printed body equals that experiment's report section.
"""

import os
import pickle

import pytest

from repro.errors import SimulationError
from repro.eval import orchestrator as orch
from repro.eval.orchestrator import (
    Job,
    ResultCache,
    build_jobs,
    experiment_names,
    job,
    run_experiment,
    run_experiments,
    run_graph,
)


def test_job_helper_normalizes_params():
    a = job("a", "m:f", weight=2.0, beta=1, alpha=2)
    b = job("a", "m:f", weight=2.0, alpha=2, beta=1)
    assert a == b                     # param order must not matter
    assert a.params == (("alpha", 2), ("beta", 1))


def test_run_graph_serial_topological_merge():
    jobs = [
        job("leaf1", "repro.eval.fault_injection:chunk_plan",
            n_mutations=6, seed=1, chunks=2),
        job("leaf2", "repro.eval.fault_injection:chunk_plan",
            n_mutations=4, seed=1, chunks=2),
        Job(name="total", fn=lambda deps: deps["leaf1"] + deps["leaf2"],
            params=(), deps=("leaf1", "leaf2")),
    ]
    outcomes = run_graph(jobs, workers=0, cache=None)
    assert outcomes["leaf1"].value == [(1000003, 3), (1000004, 3)]
    assert outcomes["total"].value \
        == outcomes["leaf1"].value + outcomes["leaf2"].value


def test_run_graph_rejects_cycles():
    jobs = [
        Job(name="a", fn=lambda deps: 1, params=(), deps=("b",)),
        Job(name="b", fn=lambda deps: 2, params=(), deps=("a",)),
    ]
    with pytest.raises(SimulationError):
        run_graph(jobs, workers=0)


def test_run_graph_rejects_conflicting_duplicates():
    jobs = [
        job("a", "repro.eval.fault_injection:chunk_plan",
            n_mutations=5, seed=1, chunks=1),
        job("a", "repro.eval.fault_injection:chunk_plan",
            n_mutations=6, seed=1, chunks=1),
    ]
    with pytest.raises(SimulationError):
        run_graph(jobs, workers=0)


def test_registry_builds_every_experiment():
    for name in experiment_names():
        jobs = build_jobs(name)
        assert jobs[-1].name == name or any(j.name == name for j in jobs)
        names = [j.name for j in jobs]
        assert len(names) == len(set(names))
        for j in jobs:
            for dep in j.deps:
                assert dep in names


@pytest.mark.parametrize("name,points,weight", [
    ("table3", ["comb_r4", "comb_r16", "pipe_r4", "pipe_r16"], 4.0),
    ("table5", ["int64", "fp64", "fp32_dual", "fp32_single"], 3.0),
], ids=["table3", "table5"])
def test_each_power_point_is_one_leaf(name, points, weight):
    """At any Monte Carlo depth a power point is one leaf job: no
    replay-window leaves and no per-point merge."""
    jobs = build_jobs(name, {"n_cycles": 64})
    leaves = [j for j in jobs if j.name != name]
    extra = ["max_freq"] if name == "table5" else []
    assert [j.name for j in leaves] \
        == [f"{name}/{key}" for key in points + extra]
    for leaf in leaves[:len(points)]:
        assert not leaf.deps and leaf.cacheable
        assert leaf.weight == weight
        assert dict(leaf.params)["n_cycles"] == 64


def test_serial_parallel_parity_table3():
    serial = run_experiment("table3", workers=0, cache=False, n_cycles=4)
    parallel = run_experiment("table3", workers=2, cache=False, n_cycles=4)
    assert parallel.power_mw == serial.power_mw
    assert parallel.render() == serial.render()


def test_serial_parallel_parity_fault_chunks():
    serial = run_experiment("fault_r16", workers=0, cache=False,
                            n_mutations=8, seed=11)
    parallel = run_experiment("fault_r16", workers=2, cache=False,
                              n_mutations=8, seed=11)
    assert serial.attempted == parallel.attempted == 8
    assert serial.detected == parallel.detected
    assert [m.description for m in serial.survivors] \
        == [m.description for m in parallel.survivors]


def test_run_experiments_shared_graph():
    results, outcomes = run_experiments(
        [("table4", {}), ("fig2", {})], workers=0, cache=False)
    assert set(results) == {"table4", "fig2"}
    assert any(o.name == "table4" for o in outcomes)


def test_cache_hit_on_identical_params(tmp_path):
    cache = ResultCache(root=str(tmp_path), fingerprint="fp-1")
    first = run_experiment("table4", cache=cache)
    assert cache.hits == 0
    second = run_experiment("table4", cache=cache)
    assert cache.hits >= 1
    assert second.render() == first.render()


def test_cache_distinguishes_params(tmp_path):
    cache = ResultCache(root=str(tmp_path), fingerprint="fp-1")
    run_experiment("fig6", cache=cache, n_random=64)
    hits_before = cache.hits
    run_experiment("fig6", cache=cache, n_random=128)
    assert cache.hits == hits_before   # different params: all misses


def test_cache_invalidated_by_fingerprint_change(tmp_path):
    old = ResultCache(root=str(tmp_path), fingerprint="sources-v1")
    run_experiment("table4", cache=old)
    new = ResultCache(root=str(tmp_path), fingerprint="sources-v2")
    run_experiment("table4", cache=new)
    assert new.hits == 0               # fingerprint moved: cold cache
    assert new.misses >= 1


def test_cache_corrupt_entry_falls_back(tmp_path):
    cache = ResultCache(root=str(tmp_path), fingerprint="fp-1")
    run_experiment("table4", cache=cache)
    objects = os.path.join(str(tmp_path), "objects")
    entries = [os.path.join(objects, f) for f in os.listdir(objects)]
    assert entries
    for path in entries:
        with open(path, "wb") as fh:
            fh.write(b"not a pickle at all")
    fresh = ResultCache(root=str(tmp_path), fingerprint="fp-1")
    result = run_experiment("table4", cache=fresh)    # must not raise
    assert fresh.hits == 0
    assert result.rows


def test_cache_entry_roundtrips_values(tmp_path):
    cache = ResultCache(root=str(tmp_path), fingerprint="fp")
    jb = job("unit", "repro.eval.fault_injection:chunk_plan",
             n_mutations=7, seed=3, chunks=2)
    hit, __ = cache.load(jb)
    assert not hit
    cache.store(jb, 5040)
    hit, value = cache.load(jb)
    assert hit and value == 5040
    # And the stored entry is a content-addressed plain pickle on disk:
    # objects/<sha256(key)>.pkl, the store's only state.
    objects = os.path.join(str(tmp_path), "objects")
    (entry,) = os.listdir(objects)
    assert entry.endswith(".pkl") and len(entry) == 64 + len(".pkl")
    with open(os.path.join(objects, entry), "rb") as fh:
        payload = pickle.load(fh)
    assert payload["value"] == 5040
    assert not os.path.exists(os.path.join(str(tmp_path), "index.json"))


def test_cache_env_disable(monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    assert orch.resolve_cache(True) is None


def test_report_cli_smoke(tmp_path, capsys):
    from repro.eval import report

    out = tmp_path / "report.txt"
    code = report.main(["--cycles", "4", "--mutations", "4",
                        "--no-sweeps", "--no-verification",
                        "--filter", "table4", "--filter", "fig2",
                        "--no-cache", "--output", str(out), "--json"])
    assert code == 0
    assert out.exists()
    text = out.read_text()
    assert "Table IV" in text
    assert "Fig. 2" in text


def _cli_bodies(out):
    """``{name: body}`` of the CLI's ``===== name =====`` blocks."""
    bodies, name = {}, None
    for line in out.splitlines(keepends=True):
        if line.startswith("===== ") and line.rstrip().endswith(" ====="):
            name = line.strip()[6:-6]
            bodies[name] = ""
        else:
            bodies[name] += line
    return {k: v[:-2] for k, v in bodies.items()}    # drop "\n\n"


def test_cli_bodies_match_report_sections(tmp_path, monkeypatch, capsys):
    """``python -m repro`` runs the registry with the report's params:
    each body is byte-identical to a direct ``run_experiment``."""
    from repro.__main__ import main
    from repro.eval.report import report_sections

    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    assert main(["table3", "table4", "activity", "--cycles", "4"]) == 0
    bodies = _cli_bodies(capsys.readouterr().out)
    assert list(bodies) == ["table3", "table4", "activity"]
    params = {name: p for __, name, p in report_sections(n_cycles=4)}
    for name, body in bodies.items():
        assert body == run_experiment(name, cache=False,
                                      **params[name]).render()


def test_cli_targets_are_the_registry(capsys):
    """Every registry experiment has a report section (the CLI's params),
    and an unknown target is rejected with the registry's names."""
    from repro.__main__ import main
    from repro.eval.report import report_sections

    assert [name for __, name, ___ in report_sections()] \
        == list(experiment_names())
    with pytest.raises(SystemExit):
        main(["table9"])
    assert "sweep_radix" in capsys.readouterr().err


def test_parallel_run_counts_oversubscription(monkeypatch):
    """Requesting more workers than cores must be visible in metrics."""
    from repro import obs

    monkeypatch.setattr(orch.os, "cpu_count", lambda: 1)
    counters = obs.registry().snapshot()["counters"]
    before = counters.get("orchestrator.workers.oversubscribed", 0)
    downgraded_before = counters.get("orchestrator.backend.downgraded", 0)
    jobs = [job("leaf", "repro.eval.fault_injection:chunk_plan",
                n_mutations=4, seed=1, chunks=2)]
    outcomes = run_graph(jobs, workers=2, cache=None)
    snap = obs.registry().snapshot()
    assert snap["counters"]["orchestrator.workers.oversubscribed"] \
        == before + 1
    assert snap["gauges"]["orchestrator.workers.requested"] == 2
    assert snap["gauges"]["orchestrator.workers.cpu_count"] == 1
    # ...and the auto policy downgrades to inline rather than paying
    # process overhead for time slicing on too few cores.
    assert snap["counters"]["orchestrator.backend.downgraded"] \
        == downgraded_before + 1
    assert outcomes["leaf"].mode == "inline"
