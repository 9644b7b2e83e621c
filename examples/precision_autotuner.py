"""Precision autotuning with the Fig. 6 reducer family.

Run:  python examples/precision_autotuner.py

Sec. IV proposes demoting binary64 operands to binary32 "if the
application allows for a reduced precision", and its future work wants
to extend the reduction to periodic significands.  This example tunes a
whole *workload* automatically:

* the exact Algorithm 1 reducer demotes only error-free operands;
* the PeriodicReducer additionally demotes repeating-fraction values
  (ratios of small integers, decimal constants);
* the LossyReducer demotes anything representable within an error
  budget the caller chooses.

For each policy it reports demotion coverage, energy (paper Table V
prices), and the worst relative error actually incurred.
"""

import random

from repro.bits.ieee754 import BINARY32, BINARY64, decode, encode
from repro.core.reduction import (
    LossyReducer,
    PeriodicReducer,
    reduce_binary64,
)
from repro.core.vector_unit import FormatPowerTable, IssueStats, product_fits


class _ExactPolicy:
    name = "Algorithm 1 (exact)"

    def reduce(self, encoding):
        return reduce_binary64(encoding)


def autotune(pairs, policy, table):
    """Schedule with a given demotion policy; returns (stats, worst_err)."""
    stats = IssueStats(total_operations=len(pairs))
    worst = 0.0
    demoted = []
    for xe, ye in pairs:
        dx = policy.reduce(xe)
        dy = policy.reduce(ye)
        exact = decode(xe, BINARY64) * decode(ye, BINARY64)
        if dx.reduced and dy.reduced and product_fits(dx, dy):
            got = (decode(dx.encoding32, BINARY32)
                   * decode(dy.encoding32, BINARY32))
            demoted.append(True)
            stats.demoted_operations += 1
        else:
            got = exact
            demoted.append(False)
            stats.fp64_cycles += 1
        if exact:
            worst = max(worst, abs(got - exact) / abs(exact))
    stats.fp32_dual_cycles = stats.demoted_operations // 2
    stats.fp32_single_cycles = stats.demoted_operations % 2
    return stats, worst


def build_workload(n, rng):
    """A mix the paper's Sec. IV has in mind: small integers, small
    fractions, decimal constants, ratios — plus full-precision noise."""
    pool = []
    for __ in range(n):
        kind = rng.randrange(5)
        if kind == 0:
            v = float(rng.randint(-1000, 1000))        # small integers
        elif kind == 1:
            v = rng.randint(-1000, 1000) / 64.0        # small dyadics
        elif kind == 2:
            v = rng.randint(1, 9) / 10.0               # decimal constants
        elif kind == 3:
            v = rng.randint(1, 30) / rng.choice([3.0, 7.0, 9.0])  # ratios
        else:
            v = rng.uniform(-1e3, 1e3)                 # full precision
        pool.append(v if v != 0 else 1.0)
    return pool


def main():
    rng = random.Random(41)
    n = 400
    xs = build_workload(n, rng)
    ys = build_workload(n, rng)
    pairs = [(encode(a, BINARY64), encode(b, BINARY64))
             for a, b in zip(xs, ys)]
    table = FormatPowerTable()

    policies = [
        _ExactPolicy(),
        PeriodicReducer(max_period=12),
        LossyReducer(max_ulp_error=0.5),
    ]
    names = [p.name if hasattr(p, "name") else type(p).__name__
             for p in policies]

    print(f"workload: {n} binary64 multiplications "
          f"(mixed integers/fractions/ratios/noise)\n")
    print(f"{'policy':<24} {'demoted':>8} {'cycles':>7} "
          f"{'saved':>7} {'worst rel err':>14}")
    print("-" * 66)
    baseline = None
    for policy, name in zip(policies, names):
        stats, worst = autotune(pairs, policy, table)
        saved = stats.savings_fraction(table)
        if baseline is None:
            baseline = saved
        print(f"{name:<24} {stats.demoted_operations:>5}/{n:<3}"
              f" {stats.total_cycles:>6} {saved:>6.1%} {worst:>14.2e}")

    print("\nThe periodic and lossy reducers demote more of the stream "
          "(more dual-lane cycles,\nmore energy saved) at a bounded, "
          "sub-binary32-ulp accuracy cost — the trade\nSec. IV proposes.")


if __name__ == "__main__":
    main()
