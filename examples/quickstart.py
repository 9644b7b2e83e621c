"""Quickstart: multiply numbers in all three formats, both layers.

Run:  python examples/quickstart.py

Shows the three operating formats of the multi-format multiplier
(Sec. III) on the *functional* model, then replays the same operations
through the *gate-level* 3-stage pipelined netlist (Fig. 5) and checks
they agree bit for bit.
"""

from repro import MFFormat, MFMult, OperandBundle
from repro.bits.ieee754 import BINARY32, BINARY64, decode, encode
from repro.core.pipeline_unit import MFMultUnit


def main():
    # Paper mode: the silicon's exact results, computed with integer
    # arithmetic (the PP-array/tree/Fig. 3 mirror is a test oracle).
    mf = MFMult()

    print("== int64: 64x64 -> 128-bit unsigned product ==")
    x, y = 0xDEADBEEFCAFEBABE, 0x123456789ABCDEF1
    product = mf.mul_int64(x, y)
    print(f"  {x:#x} * {y:#x}")
    print(f"  = {product:#x}")
    assert product == x * y

    print("\n== binary64: one double-precision product per cycle ==")
    a, b = 1.5, 2.5
    print(f"  {a} * {b} = {mf.mul_fp64(a, b)}")
    print(f"  pi-ish: {mf.mul_fp64(3.141592653589793, 2.718281828459045)}")

    print("\n== dual binary32: two single-precision products per cycle ==")
    (r0, r1) = mf.mul_fp32_pair((1.5, 100.0), (2.0, 0.25))
    print(f"  lane 0: 1.5 * 2.0   = {r0}")
    print(f"  lane 1: 100.0 * 0.25 = {r1}")

    print("\n== same operations through the gate-level pipeline ==")
    unit = MFMultUnit()          # builds the ~25k-gate netlist of Fig. 5
    stats = unit.module.stats()
    print(f"  netlist: {stats['gates']} gates, {stats['registers']} "
          f"flip-flops, 3 stages")
    ops = [
        (OperandBundle.int64(x, y), MFFormat.INT64),
        (OperandBundle.fp64(encode(a, BINARY64), encode(b, BINARY64)),
         MFFormat.FP64),
        (OperandBundle.fp32_pair(
            encode(1.5, BINARY32), encode(2.0, BINARY32),
            encode(100.0, BINARY32), encode(0.25, BINARY32)),
         MFFormat.FP32X2),
    ]
    results = unit.run_batch(ops)
    assert (results[0].ph << 64) | results[0].pl == x * y
    assert decode(results[1].ph, BINARY64) == mf.mul_fp64(a, b)
    assert decode(results[2].ph & 0xFFFFFFFF, BINARY32) == r0
    assert decode(results[2].ph >> 32, BINARY32) == r1
    print("  gate-level results match the functional model exactly.")


if __name__ == "__main__":
    main()
