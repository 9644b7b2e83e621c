"""Functional model of the multi-format multiplier (Sec. III, Fig. 5).

``MFMult`` computes what the paper's datapath computes, one format per
call: the int64 product on both ports, or one binary64, two binary32 or
four binary16 (extension) products per issue, each lane rounded by
injection (Fig. 3) with its biased exponent incremented when the
product's leading one lands high.  It does so with plain integer
arithmetic on the unpacked significands — one model, used by every
caller.

The step-by-step mirror of the hardware (radix-16 PP array, Dadda
reduction, the speculative dual-CPA rounding of Fig. 3) is the test
oracle ``tests/oracles/mf_datapath.py``, property-tested bit-identical
to ``MFMult(mode="paper")``; the gate-level unit
(:mod:`repro.core.pipeline_unit`) is co-simulated against this model.

Two behavioural modes:

* ``mode="paper"`` reproduces the silicon exactly: normalized operands
  only (no zeros, subnormals, infinities or NaNs), rounding by
  injection.  Unsupported operands raise
  :class:`~repro.errors.UnsupportedOperationError`.
* ``mode="full"`` adds the extensions the paper lists as future work:
  sticky-based round-to-nearest-even, subnormal inputs/outputs and IEEE
  special values, handled in the formatter wrapper around the same core.
"""

from dataclasses import dataclass

from repro.bits.ieee754 import (
    BINARY16,
    BINARY32,
    BINARY64,
    decode,
    encode,
    round_significand,
)
from repro.bits.utils import mask, to_twos_complement
from repro.core.formats import (
    FORMAT_OF,
    Flag,
    MFFormat,
    OperandBundle,
    ResultBundle,
    RoundingMode,
)
from repro.errors import FormatError, UnsupportedOperationError


@dataclass(frozen=True)
class _UnpackedFloat:
    sign: int
    exponent: int       # biased
    significand: int    # with hidden bit


class MFMult:
    """The multi-format multiplier, software edition.

    Parameters
    ----------
    mode:
        ``"paper"`` (silicon-exact envelope) or ``"full"`` (IEEE
        extensions enabled).
    rounding:
        :class:`RoundingMode`; the paper mode default is ``INJECTION``.
    """

    def __init__(self, mode="paper", rounding=RoundingMode.INJECTION):
        if mode not in ("paper", "full"):
            raise FormatError(f"mode must be 'paper' or 'full', got {mode!r}")
        if mode == "paper" and rounding is RoundingMode.RNE:
            raise UnsupportedOperationError(
                "the paper's unit has no sticky bit: RNE needs mode='full'"
            )
        self.mode = mode
        self.rounding = rounding

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def multiply(self, operands, fmt):
        """Multiply one operand bundle; returns a :class:`ResultBundle`."""
        if not isinstance(operands, OperandBundle):
            raise FormatError("operands must be an OperandBundle")
        if fmt is MFFormat.INT64:
            return self._multiply_int64(operands)
        if fmt in FORMAT_OF:
            return self._multiply_fp(operands, fmt)
        raise FormatError(f"unknown format {fmt!r}")

    def mul_int64(self, x, y):
        """Convenience: 64x64 -> 128-bit unsigned product."""
        return self.multiply(OperandBundle.int64(x, y), MFFormat.INT64).int128

    def mul_int64_signed(self, x, y):
        """Signed 64x64 -> 128-bit product (extension, see
        :func:`repro.arith.partial_products.build_signed_pp_array`).

        Accepts and returns Python signed integers, range-checked as
        64-bit two's complement; the datapath runs them as two's
        complement patterns with the recoder's final transfer digit
        dropped — the classic Booth signed-multiplication property.
        """
        to_twos_complement(x, 64)
        to_twos_complement(y, 64)
        return x * y

    def mul_fp64(self, x, y):
        """Convenience: multiply two Python floats through the fp64 path."""
        bundle = OperandBundle.fp64(encode(x, BINARY64), encode(y, BINARY64))
        result = self.multiply(bundle, MFFormat.FP64)
        return decode(result.fp64_encoding, BINARY64)

    def mul_fp32_pair(self, pair_a, pair_b):
        """Convenience: two binary32 products in one issue.

        ``pair_a = (x0, x1)`` and ``pair_b = (y0, y1)`` as Python floats;
        returns ``(x0*y0, x1*y1)`` computed by the dual-lane path.
        """
        x0, x1 = pair_a
        y0, y1 = pair_b
        bundle = OperandBundle.fp32_pair(
            encode(x0, BINARY32), encode(y0, BINARY32),
            encode(x1, BINARY32), encode(y1, BINARY32),
        )
        result = self.multiply(bundle, MFFormat.FP32X2)
        return (
            decode(result.fp32_encoding(0), BINARY32),
            decode(result.fp32_encoding(1), BINARY32),
        )

    def mul_fp16_quad(self, xs, ys):
        """Convenience: four binary16 products in one issue (extension).

        ``xs``/``ys`` are 4-tuples of Python floats; returns the four
        products as Python floats.
        """
        bundle = OperandBundle.fp16_quad(
            [encode(v, BINARY16) for v in xs],
            [encode(v, BINARY16) for v in ys],
        )
        result = self.multiply(bundle, MFFormat.FP16X4)
        return tuple(decode(result.fp16_encoding(k), BINARY16)
                     for k in range(4))

    # ------------------------------------------------------------------
    # the per-format paths
    # ------------------------------------------------------------------

    def _multiply_int64(self, operands):
        product = operands.x * operands.y
        return ResultBundle(ph=product >> 64, pl=product & mask(64),
                            fmt=MFFormat.INT64)

    def _multiply_fp(self, operands, fmt):
        """Every FP format: ``flops_per_cycle`` independent lanes.

        Lane ``k`` of a ``w``-bit format sits in bits ``[w*k, w*k + w)``
        of each port (binary64 is the one-lane case); flags concatenate
        in lane order.
        """
        ieee = FORMAT_OF[fmt]
        width = 64 // fmt.flops_per_cycle
        lane_mask = mask(width)
        core = self._fp_exact if self.mode == "full" else self._paper_round
        ph = 0
        flags = []
        for k in range(fmt.flops_per_cycle):
            xe = (operands.x >> (width * k)) & lane_mask
            ye = (operands.y >> (width * k)) & lane_mask
            encoding = self._special_product(xe, ye, ieee)
            if encoding is None:
                ux, uy = self._unpack(xe, ieee), self._unpack(ye, ieee)
                sig, exponent, lane_flags = core(ux, uy, ieee)
                flags.extend(lane_flags)
                encoding = ieee.pack(
                    ux.sign ^ uy.sign, exponent & ieee.exponent_mask,
                    sig & mask(ieee.trailing_significand_bits))
            ph |= encoding << (width * k)
        return ResultBundle(ph=ph, pl=0, fmt=fmt, flags=tuple(flags))

    def _paper_round(self, ux, uy, fmt):
        """The paper's rounding on the exact significand product.

        Matches the Fig. 3 outcome bit for bit: injection rounding with
        renormalization when the low-case rounding carries up.
        """
        product = ux.significand * uy.significand
        p = fmt.precision
        high = (product >> (2 * p - 1)) & 1
        rounded, carry = round_significand(product, p, mode="injection")
        increment = high | carry
        exponent = ux.exponent + uy.exponent - fmt.bias + increment
        flags = self._range_flags(exponent, fmt)
        return rounded, exponent, flags

    # ------------------------------------------------------------------
    # operand unpacking and the full-mode IEEE envelope
    # ------------------------------------------------------------------

    def _unpack(self, encoding, fmt):
        sign, biased, fraction = fmt.unpack(encoding)
        if 0 < biased < fmt.exponent_mask:
            return _UnpackedFloat(sign, biased,
                                  fraction | (1 << fmt.trailing_significand_bits))
        if self.mode == "paper":
            kind = ("zero" if (biased == 0 and fraction == 0) else
                    "subnormal" if biased == 0 else
                    "infinity" if fraction == 0 else "NaN")
            raise UnsupportedOperationError(
                f"the paper's unit only multiplies normalized {fmt.name} "
                f"operands; got a {kind}"
            )
        if biased == 0 and fraction != 0:
            # Full mode: normalize the subnormal into an unbiased-extended
            # exponent so the shared core can treat it uniformly.
            shift = fmt.precision - fraction.bit_length()
            return _UnpackedFloat(sign, 1 - shift,
                                  fraction << shift)
        return None    # zero, inf or NaN: handled by _special_product

    def _special_product(self, xe, ye, fmt):
        """IEEE special-value handling (full mode only); None if ordinary."""
        if self.mode == "paper":
            return None
        x_nan, y_nan = fmt.is_nan(xe), fmt.is_nan(ye)
        x_inf, y_inf = fmt.is_inf(xe), fmt.is_inf(ye)
        x_zero, y_zero = fmt.is_zero(xe), fmt.is_zero(ye)
        sign = ((xe >> fmt.sign_position) ^ (ye >> fmt.sign_position)) & 1
        if x_nan or y_nan or (x_inf and y_zero) or (y_inf and x_zero):
            return fmt.pack(0, fmt.exponent_mask,
                            1 << (fmt.trailing_significand_bits - 1))
        if x_inf or y_inf:
            return fmt.pack(sign, fmt.exponent_mask, 0)
        if x_zero or y_zero:
            return fmt.pack(sign, 0, 0)
        return None

    def _fp_exact(self, ux, uy, fmt):
        """Full-mode core: exact product, subnormal-aware IEEE rounding.

        ``ux``/``uy`` carry significands with the hidden bit set and
        possibly *extended* exponents (subnormal inputs were normalized
        by :meth:`_unpack`), so the exact value of the product is
        ``mx * my * 2**(ex + ey - 2*bias - 2*(p-1))``.
        """
        p = fmt.precision
        product = ux.significand * uy.significand
        high = (product >> (2 * p - 1)) & 1
        leading = 2 * p - 2 + high          # bit index of the leading one
        # Unbiased exponent of the product's leading bit.
        exp_unbiased = (ux.exponent - fmt.bias) + (uy.exponent - fmt.bias) + high
        rmode = "rne" if self.rounding is RoundingMode.RNE else "injection"

        if exp_unbiased < fmt.emin:
            return self._fp_exact_subnormal(product, leading, exp_unbiased,
                                            fmt, rmode)

        sig, carry = round_significand(product, p, mode=rmode)
        exp_unbiased += carry
        biased = exp_unbiased + fmt.bias
        inexact = (Flag.INEXACT,) if product & mask(leading + 1 - p) else ()
        if biased >= fmt.exponent_mask:
            # Overflow to infinity (fraction 0, all-ones exponent).
            return 0, fmt.exponent_mask, (Flag.OVERFLOW, Flag.INEXACT)
        return sig, biased, inexact

    @staticmethod
    def _fp_exact_subnormal(product, leading, exp_unbiased, fmt, rmode):
        """Round an exact product into the subnormal range of ``fmt``."""
        p = fmt.precision
        shift = fmt.emin - exp_unbiased     # > 0
        keep = p - shift                    # fraction bits that survive
        flags = (Flag.UNDERFLOW, Flag.INEXACT)
        if keep <= 0:
            # The value is at most half the smallest subnormal ulp away
            # from zero; only a value >= half an ulp can round to 1.
            if keep == 0:
                if rmode == "injection":        # ties round up
                    return 1, 0, flags
                above_half = product > (1 << leading)
                return (1 if above_half else 0), 0, flags
            return 0, 0, flags
        sig, carry = round_significand(product, keep, mode=rmode)
        if carry:
            # Renormalized by round_significand: the true rounded value
            # was 2**keep.
            full = 1 << keep
        else:
            full = sig
        if full >> (p - 1):
            # Rounded all the way up to the smallest normal.
            return 1 << (p - 1), 1, flags
        inexact = product & mask(leading + 1 - keep)
        if not inexact:
            return full, 0, (Flag.UNDERFLOW,)
        return full, 0, flags

    @staticmethod
    def _range_flags(biased_exponent, fmt):
        if biased_exponent >= fmt.exponent_mask:
            return (Flag.OVERFLOW,)
        if biased_exponent <= 0:
            return (Flag.UNDERFLOW,)
        return ()


