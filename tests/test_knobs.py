"""Every environment knob earns its place.

The set of ``REPRO_*`` variables that ``src/`` reads must equal the
"Environment knobs" table of ``docs/api.md`` — a knob added without a
documented row, or a row left behind for a deleted knob, fails here.
Knobs that no other test exercises get a behaviour test below.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.eval.cache import ResultCache
from repro.hdl.sim import ckernel
from repro.obs.metrics import MetricsRegistry

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _source_knobs():
    knobs = set()
    for path in (ROOT / "src").rglob("*.py"):
        knobs.update(KNOB.findall(path.read_text()))
    return knobs


def _documented_knobs():
    text = (ROOT / "docs" / "api.md").read_text()
    section = text.split("## Environment knobs", 1)[1].split("\n## ", 1)[0]
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
