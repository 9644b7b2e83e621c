"""Reference datapath of the multi-format multiplier (Sec. III, Fig. 5).

The step-by-step composition ``MFMult(mode="paper")`` is checked
against: the radix-16 minimally redundant PP array (one window for
int64/binary64, the dual-lane windows of Fig. 4 for binary32, four
32-bit-pitch windows for the binary16 extension), Dadda reduction to a
carry-save pair with lane-boundary carry kill, and the speculative
dual-CPA normalize/round of Fig. 3 whose high-leading selection is also
each lane's exponent increment.

Built from :mod:`repro.arith`, :mod:`repro.bits` and
:mod:`repro.core.formats` only — never from :mod:`repro.core.mfmult`.
Paper envelope: FP operands must be normalized.
"""

from dataclasses import dataclass

from repro.arith.partial_products import (
    PPArray,
    build_dual_lane_pp_array,
    build_pp_array,
    build_quad_lane_pp_array,
    build_signed_pp_array,
)
from repro.arith.rounding import (
    int64_product,
    normalize_round_fp16_quad,
    normalize_round_fp32_dual,
    normalize_round_fp64,
)
from repro.arith.trees import reduce_pp_array
from repro.bits.utils import from_twos_complement, mask, to_twos_complement
from repro.core.formats import FORMAT_OF, Flag, MFFormat, ResultBundle


@dataclass(frozen=True)
class DatapathTrace:
    """Intermediate values of one datapath multiplication."""

    fmt: MFFormat
    pp_array: PPArray
    tree_sum: int
    tree_carry: int
    lane_results: tuple = ()        # one NormRoundResult per FP lane


def _tree(array):
    s, c, __ = reduce_pp_array(array)
    return s, c


def _significand(encoding, ieee):
    """The significand of a normalized encoding, hidden bit set."""
    fraction_bits = ieee.trailing_significand_bits
    return (encoding & mask(fraction_bits)) | (1 << fraction_bits)


def datapath_multiply(operands, fmt):
    """``(ResultBundle, DatapathTrace)`` of one paper-mode issue."""
    if fmt is MFFormat.INT64:
        array = build_pp_array(operands.x, operands.y, width=64,
                               radix_log2=4, product_width=128)
        s, c = _tree(array)
        product = int64_product(s, c)
        return (ResultBundle(ph=product >> 64, pl=product & mask(64),
                             fmt=fmt),
                DatapathTrace(fmt, array, s, c))

    ieee = FORMAT_OF[fmt]
    width = 64 // fmt.flops_per_cycle
    lanes = [((operands.x >> (width * k)) & mask(width),
              (operands.y >> (width * k)) & mask(width))
             for k in range(fmt.flops_per_cycle)]
    sx = [_significand(xe, ieee) for xe, __ in lanes]
    sy = [_significand(ye, ieee) for __, ye in lanes]
    if fmt is MFFormat.FP64:
        array = build_pp_array(sx[0], sy[0], width=64, radix_log2=4,
                               product_width=128)
        s, c = _tree(array)
        rounded = (normalize_round_fp64(s, c),)
    elif fmt is MFFormat.FP32X2:
        array = build_dual_lane_pp_array(sx[0], sy[0], sx[1], sy[1])
        s, c = _tree(array)
        rounded = normalize_round_fp32_dual(s, c)
    else:
        array = build_quad_lane_pp_array(sx, sy)
        s, c = _tree(array)
        rounded = normalize_round_fp16_quad(s, c)

    ph = 0
    flags = []
    for k, ((xe, ye), lane) in enumerate(zip(lanes, rounded)):
        x_sign, x_exp, __ = ieee.unpack(xe)
        y_sign, y_exp, __ = ieee.unpack(ye)
        exponent = x_exp + y_exp - ieee.bias + lane.exponent_increment
        if exponent >= ieee.exponent_mask:
            flags.append(Flag.OVERFLOW)
        elif exponent <= 0:
            flags.append(Flag.UNDERFLOW)
        ph |= ieee.pack(x_sign ^ y_sign, exponent & ieee.exponent_mask,
                        lane.significand
                        & mask(ieee.trailing_significand_bits)) << (width * k)
    return (ResultBundle(ph=ph, pl=0, fmt=fmt, flags=tuple(flags)),
            DatapathTrace(fmt, array, s, c, tuple(rounded)))


def datapath_mul_int64_signed(x, y):
    """``(product, DatapathTrace)`` of the signed int64 extension.

    Two's complement patterns through the signed PP array (the
    recoder's final transfer digit dropped) and the int64 CPA.
    """
    array = build_signed_pp_array(to_twos_complement(x, 64),
                                  to_twos_complement(y, 64), width=64,
                                  radix_log2=4, product_width=128)
    s, c = _tree(array)
    return (from_twos_complement(int64_product(s, c), 128),
            DatapathTrace(MFFormat.INT64, array, s, c))
