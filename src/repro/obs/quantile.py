"""Streaming quantiles from fixed log-bucket sketches.

The registry's timers and histograms historically carried only
``count/total/min/max`` — enough for means, useless for tail latency.
:class:`QuantileSketch` adds p50/p95/p99 (any quantile, really) for a
few hundred bytes per metric:

* positive samples land in geometric buckets ``[GAMMA**i, GAMMA**(i+1))``
  — with :data:`GAMMA` = 1.05 every estimate is within ~2.5% relative
  error of the true sample;
* zero and negative samples get two dedicated slots (durations are
  occasionally 0.0 on coarse clocks; negatives only ever appear from
  clock steps) so the rank walk stays exact;
* the bucket table is a plain ``{index: count}`` dict of integers, so
  **merging is exact bucket-wise addition** — associative and
  commutative, which is what lets worker snapshots fold into the
  coordinator in any completion order under the ``repro.obs/1`` merge
  rules.

The sketch serializes inside the existing timer/histogram aggregate as
a ``"buckets"`` key (JSON object, string keys); consumers that predate
it simply ignore the extra key, and :func:`quantiles_from_aggregate`
reconstructs quantiles from any snapshot — including one that crossed a
process boundary as JSON.
"""

import math
from typing import Dict, Optional

#: Geometric bucket growth factor: relative error <= (GAMMA - 1) / 2.
GAMMA = 1.05

_LOG_GAMMA = math.log(GAMMA)

#: Reserved pseudo-bucket keys (JSON object keys are strings anyway).
_ZERO = "zero"
_NEG = "neg"


def bucket_value(index):
    """The representative value of bucket ``index`` (geometric middle)."""
    return GAMMA ** (index + 0.5)


class QuantileSketch:
    """Fixed log-bucket quantile sketch (DDSketch-style, unbounded keys).

    Unbounded means "one dict slot per occupied bucket": real metric
    streams (latencies spanning micro- to kilo-seconds) occupy a few
    hundred buckets at most.
    """

    __slots__ = ("buckets", "count")

    def __init__(self):
        self.buckets: Dict[str, int] = {}
        self.count = 0

    def add(self, value):
        """Fold one sample in."""
        if value > 0:
            key = str(math.floor(math.log(value) / _LOG_GAMMA))
        elif value == 0:
            key = _ZERO
        else:
            key = _NEG
        self.buckets[key] = self.buckets.get(key, 0) + 1
        self.count += 1

    def merge(self, other):
        """Exact bucket-wise addition (associative and commutative)."""
        for key, n in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + n
        self.count += other.count

    def quantile(self, q, lo=None, hi=None):
        """The ``q``-quantile estimate (``0 <= q <= 1``), or ``None``.

        ``lo``/``hi`` clamp the estimate into the exact observed range
        (the aggregate's min/max) so p0/p100 stay honest.
        """
        if self.count <= 0:
            return None
        rank = q * (self.count - 1)
        seen = self.buckets.get(_NEG, 0)
        if rank < seen:
            return lo if lo is not None else float("-inf")
        seen += self.buckets.get(_ZERO, 0)
        if rank < seen:
            return 0.0
        estimate = None
        for index in sorted(int(k) for k in self.buckets
                            if k not in (_ZERO, _NEG)):
            seen += self.buckets[str(index)]
            if rank < seen:
                estimate = bucket_value(index)
                break
        if estimate is None:                 # numeric edge: rank == count-1
            top = max((int(k) for k in self.buckets
                       if k not in (_ZERO, _NEG)), default=None)
            estimate = bucket_value(top) if top is not None else 0.0
        if lo is not None:
            estimate = max(estimate, lo)
        if hi is not None:
            estimate = min(estimate, hi)
        return estimate

    # -- (de)serialization ---------------------------------------------

    def to_dict(self):
        """The JSON form stored under the aggregate's ``"buckets"`` key."""
        return dict(self.buckets)

    @classmethod
    def from_dict(cls, buckets):
        sketch = cls()
        if buckets:
            sketch.buckets = {str(k): int(n) for k, n in buckets.items()}
            sketch.count = sum(sketch.buckets.values())
        return sketch

    @classmethod
    def from_aggregate(cls, agg):
        """Rebuild from a snapshot timer/histogram aggregate dict."""
        return cls.from_dict((agg or {}).get("buckets"))


def merge_bucket_dicts(mine, theirs):
    """Fold bucket table ``theirs`` into ``mine`` in place (both JSON dicts)."""
    for key, n in (theirs or {}).items():
        mine[key] = mine.get(key, 0) + n
    return mine


def diff_bucket_dicts(after, before):
    """Bucket table of the samples in ``after`` but not ``before``.

    Registries are process-cumulative; callers that want the quantiles
    of one scoped run (one load burst, one campaign) diff the bucket
    tables around it.  Exact because counts only ever grow.
    """
    out = {}
    before = before or {}
    for key, n in (after or {}).items():
        delta = n - before.get(key, 0)
        if delta > 0:
            out[key] = delta
    return out


def quantiles_from_aggregate(agg, qs=(0.5, 0.95, 0.99)) -> Optional[dict]:
    """``{"p50": ..., "p95": ...}`` from a snapshot aggregate, or ``None``.

    Works on any ``repro.obs/1`` timer/histogram aggregate that carries
    a ``"buckets"`` table — including one parsed back from JSON on the
    other side of a process or HTTP boundary.
    """
    if not agg or not agg.get("buckets"):
        return None
    sketch = QuantileSketch.from_aggregate(agg)
    lo, hi = agg.get("min"), agg.get("max")
    return {_qlabel(q): sketch.quantile(q, lo=lo, hi=hi) for q in qs}


def _qlabel(q):
    text = f"{q * 100:g}"
    return f"p{text.replace('.', '_')}"
