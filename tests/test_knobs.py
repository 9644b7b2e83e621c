"""Every environment knob and CLI flag earns its place.

The set of ``REPRO_*`` variables that ``src/`` reads must equal the
"Environment knobs" table of ``docs/api.md``, and the ``--flags`` each
``src/`` program declares must equal its "CLI flags" table — an option
added without a documented row (naming its user), or a row left behind
for a deleted option, fails here.  Knobs and flags that no other test
exercises get a behaviour test below.  ``src/`` must also never import
``tests`` (the reference oracles live there, not in the library).
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.eval.cache import ResultCache
from repro.hdl.sim import ckernel
from repro.obs.metrics import MetricsRegistry

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")
FLAG = re.compile(r'add_argument\(\s*"(--[a-z0-9-]+)"')
PROG = re.compile(r'prog="([^"]+)"')


def _source_knobs():
    knobs = set()
    for path in (ROOT / "src").rglob("*.py"):
        knobs.update(KNOB.findall(path.read_text()))
    return knobs


def _api_section(title):
    text = (ROOT / "docs" / "api.md").read_text()
    return text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def _documented_knobs():
    section = _api_section("Environment knobs")
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `(REPRO_[A-Z_]+)` \|(.*)\|(.*)\|$", line)
        if match:
            rows[match.group(1)] = (match.group(2).strip(),
                                    match.group(3).strip())
    return rows


def test_every_source_knob_is_documented_and_vice_versa():
    documented = _documented_knobs()
    assert _source_knobs() == set(documented)
    for name, (what, used_by) in documented.items():
        assert what and used_by, name


def _source_flags():
    """``(program, --flag)`` for every flag a ``src/`` parser declares."""
    flags = set()
    for path in (ROOT / "src").rglob("*.py"):
        text = path.read_text()
        found = FLAG.findall(text)
        prog = PROG.search(text)
        assert prog or not found, f"{path}: flags without a prog= name"
        flags.update((prog.group(1), flag) for flag in found)
    return flags


def _documented_flags():
    rows = {}
    for line in _api_section("CLI flags").splitlines():
        match = re.match(r"\| `([^`]+)` \| `(--[a-z0-9-]+)` \|(.*)\|$",
                         line)
        if match:
            rows[(match.group(1), match.group(2))] = match.group(3).strip()
    return rows


def test_every_cli_flag_is_documented_with_a_user_and_vice_versa():
    documented = _documented_flags()
    assert _source_flags() == set(documented)
    for key, used_by in documented.items():
        assert used_by, key


def test_src_never_imports_tests():
    imports_tests = re.compile(
        r"^\s*(from|import)\s+tests\b|[\"']tests\.", re.M)
    offenders = [str(path.relative_to(ROOT))
                 for path in (ROOT / "src").rglob("*.py")
                 if imports_tests.search(path.read_text())]
    assert offenders == []


def test_no_obs_starts_registries_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_NO_OBS", "1")
    reg = MetricsRegistry()
    reg.inc("knob.probe")
    assert reg.snapshot()["counters"].get("knob.probe", 0) == 0
    monkeypatch.delenv("REPRO_NO_OBS")
    reg = MetricsRegistry()
    reg.inc("knob.probe")
    assert reg.snapshot()["counters"]["knob.probe"] == 1


def test_result_cache_mb_sets_the_lru_budget(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULT_CACHE_MB", "2")
    cache = ResultCache(root=tmp_path, fingerprint="fp")
    assert cache.max_bytes == 2 * 1024 * 1024
    monkeypatch.delenv("REPRO_RESULT_CACHE_MB")
    assert ResultCache(root=tmp_path, fingerprint="fp").max_bytes is None
    monkeypatch.setenv("REPRO_RESULT_CACHE_MB", "512MB")
    with pytest.raises(ReproError, match="REPRO_RESULT_CACHE_MB='512MB'"):
        ResultCache(root=tmp_path, fingerprint="fp")


def test_ckernel_cache_overrides_the_kernel_directory(monkeypatch,
                                                      tmp_path):
    target = tmp_path / "kernels"
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(target))
    assert ckernel._cache_dir() == target
    assert target.is_dir()


def test_trace_env_writes_a_trace_at_exit(tmp_path):
    out = tmp_path / "trace.json"
    code = ("from repro import obs\n"
            "with obs.span('knob:probe', cat='test'):\n"
            "    pass\n")
    env = dict(os.environ, REPRO_TRACE=str(out),
               PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)
    names = {ev["name"] for ev in json.loads(out.read_text())["traceEvents"]}
    assert "knob:probe" in names


# ----------------------------------------------------------------------
# flags no other test exercises
# ----------------------------------------------------------------------

def test_loadgen_specials_flag(capsys):
    from repro.serve.loadgen import main

    assert main(["--requests", "8", "--burst", "4", "--specials", "0.5",
                 "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["specials_fraction"] == 0.5
    assert record["mismatches"] == 0


def test_power_breakdown_seed_and_top_flags(capsys):
    from repro.eval.power_breakdown import main

    assert main(["--module", "r4", "--cycles", "4", "--seed", "7",
                 "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "4 cycles, seed 7" in out
    assert "-- top 2 hot nets" in out


def test_cache_stats_json_flag(tmp_path, capsys):
    from repro.eval import cache as cache_cli

    assert cache_cli.main(["--root", str(tmp_path), "stats", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_perf_check_window_flag(tmp_path, capsys):
    from repro.eval import perf

    hist = tmp_path / "history"
    for speedup in (30.0, 30.0, 9.0):
        perf.record("serve", {"speedup": speedup}, history_dir=hist)
    doc = {"schema": "repro.bench/1", "bench": "serve",
           "results": {"speedup": 9.0}}
    (tmp_path / "BENCH_serve.json").write_text(json.dumps(doc))
    argv = ["check", "serve", "--root", str(tmp_path), "--history",
            str(hist)]
    # The 3-run median (30) flags 9.0 as a regression; a 1-run window
    # compares against the latest run (9.0) only.
    assert perf.main(argv) == 1
    assert perf.main(argv + ["--window", "1"]) == 0


@pytest.mark.parametrize("width", ["100", "foo", "auto"])
def test_loadgen_word_patterns_rejects_bad_widths_at_parse_time(width,
                                                               capsys):
    from repro.serve.loadgen import main

    with pytest.raises(SystemExit) as exc:
        main(["--word-patterns", width])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --word-patterns: must be a positive multiple " \
           f"of 64, got {width!r}" in err


def test_worker_no_cache_and_telemetry_port_flags(monkeypatch, tmp_path):
    from repro.eval.sched import daemon

    class Started(Exception):
        pass

    caches = []

    class FakeDaemon:
        def __init__(self, bind, workers, cache, label):
            caches.append(cache)

        def start(self):
            pass

        def start_telemetry(self, port):
            assert port == 0
            raise Started

    monkeypatch.setattr(daemon, "WorkerDaemon", FakeDaemon)
    for argv in (["serve", "--no-cache"],
                 ["serve", "--cache-root", str(tmp_path)]):
        with pytest.raises(Started):
            daemon.main(argv + ["--telemetry-port", "0"])
    assert caches[0] is None
    assert caches[1] is not None and caches[1].root == tmp_path


# ----------------------------------------------------------------------
# the subcommand table
# ----------------------------------------------------------------------

def test_every_subcommand_module_exposes_main():
    import importlib

    from repro.__main__ import _SUBCOMMANDS

    for name, module in _SUBCOMMANDS.items():
        assert callable(importlib.import_module(module).main), name


def test_retired_tune_subcommand_is_an_unknown_experiment(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["tune", "width"])
    assert exc.value.code == 2
    assert "unknown experiments: tune, width" in capsys.readouterr().err
