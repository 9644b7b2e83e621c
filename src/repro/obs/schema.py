"""Stable schemas for the metric payloads crossing module boundaries.

The one contract enforced today is the simulator-stats dict
(``PowerReport.sim_stats``): both power engines — the glitch-aware
event replay and the zero-delay fallback — must emit the *same* key
set, so downstream consumers (the metrics registry, ``--metrics-json``,
the report tables) never branch on engine identity.
"""

from typing import Dict

#: Every key a ``PowerReport.sim_stats`` dict carries, with the value
#: used when an engine has nothing to report for it.
SIM_STATS_DEFAULTS: Dict[str, object] = {
    "engine": "unknown",          # "wheel" | "zero-delay"
    "kernel": "none",             # "c" | "python" | "mixed" | "none"
    "workers": 1,
    "transitions": 0,
    "events_processed": 0,
    "cancellations": 0,
    "wheel_buckets": 0,
    "wheel_max_bucket": 0,
    "elapsed_s": 0.0,
    "transitions_per_s": 0.0,
}

SIM_STATS_KEYS = frozenset(SIM_STATS_DEFAULTS)


def normalize_sim_stats(stats):
    """Return ``stats`` with every schema key present.

    Missing keys take their defaults; ``transitions_per_s`` is derived
    from ``transitions``/``elapsed_s`` when absent.  Unknown keys are a
    programming error (a renamed counter would otherwise fork the
    schema silently) and raise :class:`ValueError`.
    """
    unknown = set(stats) - SIM_STATS_KEYS
    if unknown:
        raise ValueError(
            f"unknown sim_stats keys {sorted(unknown)}; "
            f"extend repro.obs.schema.SIM_STATS_DEFAULTS first")
    out = dict(SIM_STATS_DEFAULTS)
    out.update(stats)
    if not out["transitions_per_s"] and out["elapsed_s"] > 0:
        out["transitions_per_s"] = out["transitions"] / out["elapsed_s"]
    return out


def assert_sim_stats_schema(stats):
    """Raise :class:`ValueError` unless ``stats`` matches the schema exactly."""
    if stats is None:
        raise ValueError("sim_stats is None")
    missing = SIM_STATS_KEYS - set(stats)
    extra = set(stats) - SIM_STATS_KEYS
    if missing or extra:
        raise ValueError(
            f"sim_stats schema mismatch: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}")
    return True
