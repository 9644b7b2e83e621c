"""Dot products on the dual binary32 lanes — the vector-unit use case.

Run:  python examples/dual_lane_dot_product.py

The paper motivates the unit with "accelerators, multi-lane vector
units and GPUs" that issue several multiplications per cycle.  This
example computes a dot product three ways and compares cycles and
energy (priced with the paper's Table V power figures):

1.  binary64, one product per cycle;
2.  dual binary32, two products per cycle (operands demoted up front);
3.  dual binary32 via the Fig. 6 reducer, demoting only the elements
    that are *exactly* representable, falling back to binary64 for the
    rest — the paper's Sec. IV flow.
"""

import math
import random

from repro.bits.ieee754 import BINARY32, BINARY64, decode, encode
from repro.core import MFFormat, MFMult, OperandBundle, VectorMultiplier
from repro.core.vector_unit import FormatPowerTable


def dot_fp64(mf, xs, ys):
    """Reference flow: every product on the binary64 path."""
    acc = 0.0
    for a, b in zip(xs, ys):
        acc += mf.mul_fp64(a, b)
    return acc, len(xs)                     # cycles = one per product


def dot_fp32_dual(mf, xs, ys):
    """Everything demoted to binary32, two products per issued cycle."""
    acc = 0.0
    cycles = 0
    for i in range(0, len(xs) - 1, 2):
        r0, r1 = mf.mul_fp32_pair((xs[i], xs[i + 1]), (ys[i], ys[i + 1]))
        acc += r0 + r1
        cycles += 1
    if len(xs) % 2:
        r0, __ = mf.mul_fp32_pair((xs[-1], 1.0), (ys[-1], 1.0))
        acc += r0
        cycles += 1
    return acc, cycles


def dot_reduced(xs, ys):
    """Sec. IV flow: demote exactly-representable pairs, pair them up."""
    machine = VectorMultiplier(use_reduction=True)
    pairs = [(encode(a, BINARY64), encode(b, BINARY64))
             for a, b in zip(xs, ys)]
    result = machine.run(pairs)
    acc = sum(decode(p, BINARY64) for p in result.products64)
    return acc, result.stats


def main():
    rng = random.Random(2017)
    n = 200
    # A realistic mixed signal: half "nice" values (small dyadics that
    # fit binary32 exactly), half full-precision noise.
    xs, ys = [], []
    for i in range(n):
        if i % 2 == 0:
            xs.append(rng.randint(-4096, 4096) / 256.0)
            ys.append(rng.randint(-4096, 4096) / 256.0)
        else:
            xs.append(rng.uniform(-10, 10))
            ys.append(rng.uniform(-10, 10))

    mf = MFMult()
    table = FormatPowerTable()              # the paper's Table V prices
    exact = sum(a * b for a, b in zip(xs, ys))

    d64, cycles64 = dot_fp64(mf, xs, ys)
    e64 = cycles64 * table.energy_per_cycle_pj("fp64")
    print(f"binary64      : {d64:+.9f}  cycles={cycles64:4d} "
          f"energy={e64:7.1f} pJ  |err|={abs(d64 - exact):.2e}")

    d32, cycles32 = dot_fp32_dual(mf, xs, ys)
    e32 = cycles32 * table.energy_per_cycle_pj("fp32_dual")
    print(f"dual binary32 : {d32:+.9f}  cycles={cycles32:4d} "
          f"energy={e32:7.1f} pJ  |err|={abs(d32 - exact):.2e}")

    dred, stats = dot_reduced(xs, ys)
    ered = stats.energy_pj(table)
    print(f"Sec. IV mix   : {dred:+.9f}  cycles={stats.total_cycles:4d} "
          f"energy={ered:7.1f} pJ  |err|={abs(dred - exact):.2e}")
    print(f"                ({stats.demoted_operations}/{n} operations "
          f"demoted error-free, {stats.savings_fraction(table):.0%} "
          f"energy saved vs all-binary64)")

    assert abs(d64 - exact) < 1e-9
    assert stats.demoted_operations > 0
    assert ered < e64


if __name__ == "__main__":
    main()
