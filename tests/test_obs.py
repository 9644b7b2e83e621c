"""Tests for the unified observability layer (:mod:`repro.obs`).

Covers the metrics registry (instruments, snapshot/merge semantics,
fork guards, record caps), the Chrome trace-event spans, the enforced
``sim_stats`` schema, the per-net power attribution (bit-identical
headline numbers, block sums equal to the report total), and the
worker protocols: Monte Carlo shards and orchestrator jobs must merge
child metrics exactly once.
"""

import json
import os

import pytest

from repro import obs
from repro.hdl.library import default_library
from repro.hdl.module import Module
from repro.hdl.buffering import insert_buffers
from repro.hdl.pipeline import stage_map
from repro.hdl.power.monte_carlo import estimate_power
from repro.obs.metrics import MAX_RECORDS_PER_NAME, MetricsRegistry
from repro.obs.quantile import (
    GAMMA,
    QuantileSketch,
    diff_bucket_dicts,
    merge_bucket_dicts,
    quantiles_from_aggregate,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test sees (and leaves behind) an empty process registry."""
    obs.registry().reset()
    obs.drain_events()
    yield
    obs.registry().reset()
    obs.drain_events()


def _module_and_stim(n_cycles, seed=2017):
    from repro.eval.experiments import cached_module
    from repro.eval.workloads import WorkloadGenerator

    module = cached_module("r4")
    stim = WorkloadGenerator(seed).multiplier_stimulus(n_cycles)
    return module, stim


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counters_gauges_timers(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.gauge("g", 7.5)
        reg.observe("t", 0.25)
        reg.observe("t", 0.75)
        reg.observe_value("h", 10)
        snap = reg.snapshot()
        assert snap["schema"] == "repro.obs/1"
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 7.5
        timer = snap["timers"]["t"]
        assert {k: timer[k] for k in ("count", "total", "min", "max")} \
            == {"count": 2, "total": 1.0, "min": 0.25, "max": 0.75}
        assert sum(timer["buckets"].values()) == 2
        assert snap["histograms"]["h"]["count"] == 1

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.record("rows", {"x": 1})
        reg.annotate("path", "/tmp/x")
        round_tripped = json.loads(json.dumps(reg.snapshot()))
        assert round_tripped["counters"]["a"] == 1
        assert round_tripped["records"]["rows"] == [{"x": 1}]
        assert round_tripped["meta"]["path"] == "/tmp/x"

    def test_merge_adds_counters_and_appends_records(self):
        parent, child = MetricsRegistry(), MetricsRegistry()
        parent.inc("jobs", 2)
        child.inc("jobs", 3)
        child.record("rows", {"i": 0})
        parent.merge(child.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["jobs"] == 5
        assert snap["records"]["rows"] == [{"i": 0}]

    def test_merge_combines_timers(self):
        parent, child = MetricsRegistry(), MetricsRegistry()
        parent.observe("t", 1.0)
        child.observe("t", 3.0)
        parent.merge(child.snapshot())
        agg = parent.snapshot()["timers"]["t"]
        assert {k: agg[k] for k in ("count", "total", "min", "max")} \
            == {"count": 2, "total": 4.0, "min": 1.0, "max": 3.0}
        assert sum(agg["buckets"].values()) == 2

    def test_merge_rejects_wrong_schema(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="schema"):
            reg.merge({"schema": "other/9", "counters": {}})
        with pytest.raises(ValueError, match="schema"):
            reg.merge(None)

    def test_merge_twice_double_counts_by_design(self):
        # The no-double-count guarantee comes from task_collect draining
        # exactly once per task, not from merge() deduplicating.
        parent, child = MetricsRegistry(), MetricsRegistry()
        child.inc("n")
        snap = child.snapshot()
        parent.merge(snap)
        parent.merge(snap)
        assert parent.snapshot()["counters"]["n"] == 2

    def test_record_cap_counts_drops(self):
        reg = MetricsRegistry()
        for i in range(MAX_RECORDS_PER_NAME + 5):
            reg.record("rows", {"i": i})
        snap = reg.snapshot()
        assert len(snap["records"]["rows"]) == MAX_RECORDS_PER_NAME
        assert snap["counters"]["rows.dropped"] == 5

    def test_disabled_registry_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("c")
        reg.record("rows", {})
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["records"] == {}
        reg.set_enabled(True)
        reg.inc("c")
        assert reg.snapshot()["counters"]["c"] == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.gauge("g", 1)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}


# ----------------------------------------------------------------------
# quantile sketches
# ----------------------------------------------------------------------

class TestQuantileSketch:
    def test_quantile_within_relative_error_bound(self):
        sketch = QuantileSketch()
        values = [1.5 ** (i % 23) + i * 0.01 for i in range(500)]
        for v in values:
            sketch.add(v)
        exact = sorted(values)
        for q in (0.5, 0.9, 0.95, 0.99):
            true = exact[round(q * (len(exact) - 1))]
            est = sketch.quantile(q)
            assert abs(est - true) / true <= (GAMMA - 1.0)

    def test_merge_is_associative_and_commutative(self):
        def make(samples):
            s = QuantileSketch()
            for v in samples:
                s.add(v)
            return s

        sets = ([0.1, 2.0, 2.0, 300.0], [0.0, -1.0, 5.5],
                [7.0, 0.002, 90000.0, 0.0])

        def fold(order):
            acc = QuantileSketch()
            for i in order:
                acc.merge(make(sets[i]))
            return acc

        reference = fold((0, 1, 2))
        for order in ((2, 1, 0), (1, 0, 2), (0, 2, 1)):
            other = fold(order)
            assert other.buckets == reference.buckets
            assert other.count == reference.count
        # (a + b) + c == a + (b + c) on the raw bucket tables too.
        left = merge_bucket_dicts(
            merge_bucket_dicts(dict(make(sets[0]).buckets),
                               make(sets[1]).buckets),
            make(sets[2]).buckets)
        bc = merge_bucket_dicts(dict(make(sets[1]).buckets),
                                make(sets[2]).buckets)
        right = merge_bucket_dicts(dict(make(sets[0]).buckets), bc)
        assert left == right == reference.buckets

    def test_merged_sketch_equals_single_stream(self):
        stream = [0.01 * i + 0.5 for i in range(200)]
        whole = QuantileSketch()
        for v in stream:
            whole.add(v)
        a, b = QuantileSketch(), QuantileSketch()
        for v in stream[:77]:
            a.add(v)
        for v in stream[77:]:
            b.add(v)
        a.merge(b)
        assert a.buckets == whole.buckets
        assert a.quantile(0.95) == whole.quantile(0.95)

    def test_diff_bucket_dicts_scopes_a_run(self):
        before = QuantileSketch()
        for v in (1.0, 2.0, 4.0):
            before.add(v)
        after = QuantileSketch.from_dict(before.to_dict())
        run = [10.0, 20.0, 20.0]
        for v in run:
            after.add(v)
        scoped = QuantileSketch.from_dict(
            diff_bucket_dicts(after.to_dict(), before.to_dict()))
        only_run = QuantileSketch()
        for v in run:
            only_run.add(v)
        assert scoped.buckets == only_run.buckets
        assert scoped.count == 3

    def test_zero_and_negative_pseudo_buckets(self):
        sketch = QuantileSketch()
        for v in (-1.0, 0.0, 0.0, 8.0):
            sketch.add(v)
        assert sketch.quantile(0.0, lo=-1.0) == -1.0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0, hi=8.0) \
            == pytest.approx(8.0, rel=GAMMA - 1.0)

    def test_registry_aggregate_roundtrips_through_json(self):
        reg = MetricsRegistry()
        for i in range(1, 101):
            reg.observe_value("lat", float(i))
        snap = json.loads(json.dumps(reg.snapshot()))
        qs = quantiles_from_aggregate(snap["histograms"]["lat"])
        assert set(qs) == {"p50", "p95", "p99"}
        assert qs["p50"] == pytest.approx(50.0, rel=GAMMA - 1.0)
        assert qs["p95"] == pytest.approx(95.0, rel=GAMMA - 1.0)
        # min/max clamps keep the tail honest.
        assert qs["p99"] <= 100.0

    def test_merged_registries_answer_quantiles(self):
        parent, child = MetricsRegistry(), MetricsRegistry()
        for i in range(50):
            parent.observe("t", 0.001 * (i + 1))
        for i in range(50):
            child.observe("t", 0.001 * (i + 51))
        parent.merge(child.snapshot())
        qs = quantiles_from_aggregate(parent.snapshot()["timers"]["t"])
        assert qs["p50"] == pytest.approx(0.050, rel=2 * (GAMMA - 1.0))


# ----------------------------------------------------------------------
# trace spans
# ----------------------------------------------------------------------

class TestTrace:
    def test_span_records_complete_event(self):
        obs.start_trace()
        try:
            with obs.span("unit:test", cat="test", detail=7) as note:
                note["extra"] = "yes"
        finally:
            events = obs.stop_trace()
        assert len(events) == 1
        ev = events[0]
        assert ev["name"] == "unit:test" and ev["ph"] == "X"
        assert ev["cat"] == "test"
        assert ev["dur"] >= 0 and ev["pid"] == os.getpid()
        assert ev["args"]["detail"] == 7 and ev["args"]["extra"] == "yes"
        assert ev["args"]["span"]          # spans now carry identity
        assert "parent" not in ev["args"]  # top-level span has no parent

    def test_spans_are_noops_when_disabled(self):
        assert not obs.is_tracing()
        with obs.span("ignored"):
            pass
        obs.complete_event("ignored", 0.0, 1.0)
        assert obs.drain_events() == []

    def test_trace_json_is_perfetto_shaped(self, tmp_path):
        obs.start_trace()
        try:
            with obs.span("a"):
                pass
            path = tmp_path / "trace.json"
            n = obs.write_trace(str(path))
        finally:
            obs.stop_trace()
        assert n == 1
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            assert key in doc["traceEvents"][0]

    def test_task_payload_roundtrip(self):
        obs.start_trace()
        try:
            obs.task_begin()
            obs.registry().inc("child.work", 2)
            with obs.span("child:op"):
                pass
            payload = obs.task_collect()
            # Simulate the parent side: reset, then merge.
            obs.task_begin()
            obs.task_merge(payload)
            snap = obs.registry().snapshot()
            events = obs.drain_events()
        finally:
            obs.stop_trace()
        assert snap["counters"]["child.work"] == 2
        assert [ev["name"] for ev in events] == ["child:op"]
        # The trace buffer drains on collect; metrics are scoped by the
        # *next* task_begin (pool workers are reused across tasks).
        assert obs.task_collect()["trace"] == []
        obs.task_begin()
        assert "child.work" \
            not in obs.task_collect()["metrics"]["counters"]


# ----------------------------------------------------------------------
# stitched distributed traces
# ----------------------------------------------------------------------

def _assert_stitched(events):
    """No orphan parents; every flow arrow resolves head-to-tail."""
    spans = {ev["args"]["span"] for ev in events
             if ev.get("ph") == "X" and "span" in ev.get("args", {})}
    orphans = [ev["args"]["parent"] for ev in events
               if ev.get("ph") == "X"
               and ev.get("args", {}).get("parent") not in spans | {None}]
    assert orphans == [], f"orphan parent span ids: {orphans}"
    starts = sorted((ev["cat"], ev["name"], ev["id"])
                    for ev in events if ev.get("ph") == "s")
    ends = sorted((ev["cat"], ev["name"], ev["id"])
                  for ev in events if ev.get("ph") == "f")
    assert starts == ends, "unmatched flow arrows"
    return spans


def _tiny_graph(n=3):
    from repro.eval.orchestrator import job

    return [job(f"leaf{i}", "repro.eval.fault_injection:chunk_plan",
                n_mutations=4 + i, seed=1, chunks=2) for i in range(n)]


class TestTraceStitching:
    @pytest.mark.parametrize("backend", ["workers"])
    def test_worker_leaves_stitch_into_one_trace(self, backend):
        from repro.eval.orchestrator import run_graph

        obs.start_trace()
        try:
            run_graph(_tiny_graph(), workers=2, cache=None,
                      backend=backend)
        finally:
            events = obs.stop_trace()
        spans = _assert_stitched(events)
        by_name = {}
        for ev in events:
            if ev.get("ph") == "X":
                by_name.setdefault(ev["name"], []).append(ev)
        assert "graph:run" in by_name
        root = by_name["graph:run"][0]["args"]["span"]
        leaves = [ev for name, evs in by_name.items()
                  for ev in evs if name.startswith("leaf:leaf")]
        assert len(leaves) == 3
        for ev in leaves:
            # Remote leaf spans adopt the coordinator's graph:run span.
            assert ev["args"]["parent"] == root
            assert ev["args"]["span"] in spans
        # One flow arrow per dispatched leaf, coordinator -> worker.
        flows = [ev for ev in events if ev.get("ph") == "s"]
        assert {ev["name"] for ev in flows} \
            == {"sched:leaf0", "sched:leaf1", "sched:leaf2"}

    def test_serve_lane_flows_stitch(self):
        from repro.serve.server import Server
        from repro.serve.transactions import Transaction

        obs.start_trace()
        try:
            server = Server(max_batch=8, max_wait=0.005)
            tickets = [server.submit(Transaction.int64(i + 1, i + 3))
                       for i in range(6)]
            server.drain()
            server.stop()
            for t in tickets:
                t.result(timeout=0)
        finally:
            events = obs.stop_trace()
        _assert_stitched(events)
        flows = [ev for ev in events if ev.get("ph") == "s"]
        assert len(flows) == 6      # one client->flush arrow per submit
        assert {ev["name"] for ev in flows} == {"serve:tx:int64"}
        flushes = [ev for ev in events if ev.get("ph") == "X"
                   and ev["name"] == "serve:flush:int64"]
        assert flushes
        flush_spans = {ev["args"]["span"] for ev in flushes}
        runs = [ev for ev in events if ev.get("ph") == "X"
                and ev["name"] == "serve:run:int64"]
        assert runs
        for ev in runs:             # engine work nests under its flush
            assert ev["args"]["parent"] in flush_spans
            assert ev["args"]["kernel"] in ("c", "python")


# ----------------------------------------------------------------------
# sim_stats schema
# ----------------------------------------------------------------------

class TestSimStatsSchema:
    def test_normalize_fills_defaults_and_rate(self):
        stats = obs.normalize_sim_stats(
            {"engine": "zero-delay", "transitions": 10, "elapsed_s": 2.0})
        obs.assert_sim_stats_schema(stats)
        assert stats["kernel"] == "none"
        assert stats["transitions_per_s"] == pytest.approx(5.0)

    def test_normalize_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown sim_stats"):
            obs.normalize_sim_stats({"engin": "typo"})

    def test_assert_schema_rejects_partial(self):
        with pytest.raises(ValueError, match="missing"):
            obs.assert_sim_stats_schema({"engine": "wheel"})
        with pytest.raises(ValueError):
            obs.assert_sim_stats_schema(None)

    def test_both_engines_emit_identical_key_sets(self):
        module, stim = _module_and_stim(4)
        lib = default_library()
        glitchy = estimate_power(module, lib, stim, 4)
        flat = estimate_power(module, lib, stim, 4, glitch=False)
        obs.assert_sim_stats_schema(glitchy.sim_stats)
        obs.assert_sim_stats_schema(flat.sim_stats)
        assert set(glitchy.sim_stats) == set(flat.sim_stats)
        assert flat.sim_stats["engine"] == "zero-delay"
        assert flat.sim_stats["transitions"] == 3
        assert flat.sim_stats["transitions_per_s"] > 0


# ----------------------------------------------------------------------
# power attribution
# ----------------------------------------------------------------------

class TestPowerAttribution:
    def test_headline_numbers_bit_identical_with_attribution(self):
        module, stim = _module_and_stim(6)
        lib = default_library()
        plain = estimate_power(module, lib, stim, 6)
        attributed = estimate_power(module, lib, stim, 6, attribution=True)
        assert plain.attribution is None
        assert attributed.attribution is not None
        assert attributed.dynamic_mw == plain.dynamic_mw
        assert attributed.register_mw == plain.register_mw
        assert attributed.leakage_mw == plain.leakage_mw
        assert attributed.zero_delay_dynamic_mw == plain.zero_delay_dynamic_mw
        assert attributed.by_block_mw == plain.by_block_mw
        assert attributed.total_toggles == plain.total_toggles

    def test_blocks_sum_to_report_total(self):
        module, stim = _module_and_stim(6)
        lib = default_library()
        rep = estimate_power(module, lib, stim, 6, attribution=True)
        att = rep.attribution
        for rollup in (att.by_block, att.by_cell, att.by_stage):
            total = sum(e["total_mw"] for e in rollup.values())
            assert total == pytest.approx(rep.total_mw, rel=1e-9)
        assert att.glitch_mw() == pytest.approx(rep.glitch_mw, rel=1e-9)
        assert att.functional_mw() \
            == pytest.approx(rep.zero_delay_dynamic_mw, rel=1e-9)

    def test_no_glitch_attribution_has_zero_glitch(self):
        module, stim = _module_and_stim(4)
        rep = estimate_power(module, default_library(), stim, 4,
                             glitch=False, attribution=True)
        assert rep.attribution.glitch_mw() == 0.0
        assert rep.attribution.glitch_retention == 0.0

    def test_scaled_report_scales_attribution(self):
        module, stim = _module_and_stim(4)
        rep = estimate_power(module, default_library(), stim, 4,
                             attribution=True)
        scaled = rep.scaled_to(880.0)
        assert scaled.attribution.total_mw() \
            == pytest.approx(scaled.total_mw, rel=1e-9)
        # Leakage must not scale with frequency.
        assert sum(e["leakage_mw"]
                   for e in scaled.attribution.by_block.values()) \
            == pytest.approx(rep.leakage_mw, rel=1e-9)

    def test_stage_attribution_on_buffered_pipeline(self):
        """Leakage lands in the stage ``stage_map`` gives each gate,
        also for gates that buffering rewired to read a BUF appended
        after them (``module.gates`` is then not topologically
        ordered)."""
        lib = default_library()
        m = Module("pipe")
        a = m.input("a", 2)
        x = m.gate("AND2", a[0], a[1])
        (q,) = m.register_bus([x], stage=1)
        y = m.gate("INV", q)
        m.output("o", [m.gate("INV", y) for __ in range(12)])
        insert_buffers(m, lib, max_load=3.0)
        position = {output: i
                    for i, (__, __, output, __) in enumerate(m.gates)}
        assert any(position.get(net, -1) > i
                   for i, (__, inputs, __, __) in enumerate(m.gates)
                   for net in inputs)

        rep = estimate_power(m, lib, {"a": [0, 3, 1, 3, 0, 2]}, 6,
                             attribution=True)
        gate_stages, net_stages = stage_map(m)
        leak_per_eq = lib.leakage_nw_per_eq * 1e-6
        expect = {}
        for (kind, __, __, __), stage in zip(m.gates, gate_stages):
            expect[stage] = (expect.get(stage, 0.0)
                             + lib.spec(kind).area_eq * leak_per_eq)
        for __, q, __, __ in m.registers:
            stage = net_stages[q]
            expect[stage] = (expect.get(stage, 0.0)
                             + lib.register.area_eq * leak_per_eq)
        by_stage = rep.attribution.by_stage
        assert sorted(by_stage) == sorted(expect) == [1, 2]
        for stage, leakage in expect.items():
            assert by_stage[stage]["leakage_mw"] \
                == pytest.approx(leakage, rel=1e-9)
        cells = m.index.cells
        assert cells[x] == "AND2" and cells[q] == "DFF"
        assert cells[y] == "INV" and cells[a[0]] == "(input)"

    def test_render_mentions_blocks_and_hot_nets(self):
        module, stim = _module_and_stim(4)
        rep = estimate_power(module, default_library(), stim, 4,
                             attribution=True)
        text = rep.attribution.render(top=5)
        assert "by named sub-block" in text
        assert "by cell type" in text
        assert "by pipeline stage" in text
        assert "hot nets" in text


# ----------------------------------------------------------------------
# worker processes: orchestrator workers
# ----------------------------------------------------------------------

class TestWorkerMerge:
    def test_orchestrator_workers_merge_job_metrics(self):
        from repro.eval.orchestrator import run_experiment

        reg = obs.registry()
        # Explicit backend: the auto policy would downgrade an
        # oversubscribed request to inline on small boxes, but this
        # test is *about* worker-process metrics merging.
        result = run_experiment("table3", workers=2, cache=False,
                                n_cycles=4, backend="workers")
        snap = reg.snapshot()
        assert set(result.power_mw) \
            == {"comb_r4", "comb_r16", "pipe_r4", "pipe_r16"}
        # 4 leaves ran in workers + 1 merge inline — each counted once.
        assert snap["counters"]["orchestrator.jobs"] == 5
        assert snap["counters"]["orchestrator.jobs.worker"] == 4
        assert snap["counters"]["orchestrator.jobs.inline"] == 1
        names = [r["name"] for r in snap["records"]["orchestrator.jobs"]]
        assert sorted(names) == sorted(
            ["table3", "table3/comb_r4", "table3/comb_r16",
             "table3/pipe_r4", "table3/pipe_r16"])
        # The workers' own estimator metrics merged into the parent:
        # one estimate per leaf, none double-counted.
        assert snap["counters"]["power.estimates"] == 4
        assert len(snap["records"]["power.estimates"]) == 4

    def test_orchestrator_serial_matches_worker_counters(self):
        from repro.eval.orchestrator import run_experiment

        reg = obs.registry()
        run_experiment("table3", workers=0, cache=False, n_cycles=4)
        serial = reg.snapshot()
        reg.reset()
        run_experiment("table3", workers=2, cache=False, n_cycles=4,
                       backend="workers")
        parallel = reg.snapshot()
        for key in ("orchestrator.jobs", "power.estimates",
                    "sim.replay.transitions"):
            assert serial["counters"][key] == parallel["counters"][key]


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------

class TestCLIs:
    def test_power_breakdown_cli_fp32x2(self, capsys):
        from repro.eval.power_breakdown import main

        assert main(["--format", "fp32x2", "--cycles", "4"]) == 0
        out = capsys.readouterr().out
        assert "attribution check: OK" in out
        assert "by named sub-block" in out

    def test_power_breakdown_cli_json(self, capsys):
        from repro.eval.power_breakdown import main

        assert main(["--module", "r4", "--cycles", "4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.power_breakdown/1"
        blocks = doc["attribution"]["by_block"]
        total = sum(e["total_mw"] for e in blocks.values())
        assert total == pytest.approx(doc["total_mw"], rel=1e-9)
        obs.assert_sim_stats_schema(doc["sim_stats"])

    def test_report_cli_trace_and_metrics_json(self, tmp_path, capsys):
        from repro.eval.report import main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(["--cycles", "4", "--filter", "table4",
                     "--workers", "1", "--no-cache",
                     "--output", str(tmp_path / "report.txt"),
                     "--trace", str(trace_path),
                     "--metrics-json", str(metrics_path)])
        assert code == 0
        obs.stop_trace()         # main() leaves tracing on; clean up
        doc = json.loads(trace_path.read_text())
        names = [ev["name"] for ev in doc["traceEvents"]]
        assert "job:table4" in names
        assert "report:experiments" in names and "report:render" in names
        metrics = json.loads(metrics_path.read_text())
        assert metrics["schema"] == "repro.obs/1"
        assert metrics["counters"]["report.jobs"] == 1
        assert metrics["records"]["report.jobs"][0]["name"] == "table4"
        out = capsys.readouterr().out
        assert "1 jobs, 0 served from cache" in out

    def test_report_json_matches_metrics_json(self, tmp_path, capsys):
        from repro.eval.report import main

        metrics_path = tmp_path / "metrics.json"
        code = main(["--cycles", "4", "--filter", "table4",
                     "--workers", "1", "--no-cache", "--json",
                     "--output", str(tmp_path / "report.txt"),
                     "--metrics-json", str(metrics_path)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(metrics_path.read_text())
        assert printed == written
