"""Structural binary64 -> binary32 reducer (Fig. 6, Algorithm 1).

Hardware inventory per the paper:

* a **5-bit CPA** for ``E32 = E64 - 896``: the 7 LSBs of -896 are zero,
  so only the upper 5 exponent bits need an adder (the low 7 pass
  through) — implemented exactly that way;
* a **12-bit CPA** for the ``E64 - 1151 < 0`` bound (-1151 is odd; the
  figure draws 11 bits, see DESIGN.md for the discrepancy note);
* a **29-input OR tree** over the low fraction bits;
* a **2:1 mux** selecting the reduced binary32 (packed in the low 32
  bits of the output) or the original binary64.

The module's outputs: ``out`` (64 bits), ``reduced`` (validity flag),
plus the internal condition bits ``c1``/``c2``/``zero`` for inspection.
"""

from repro.circuits.adders import make_adder
from repro.circuits.primitives import GateBuilder
from repro.core.reduction import BIAS_DELTA, DISCARDED_FRACTION_BITS, UPPER_BOUND
from repro.hdl.module import Module
from repro.hdl.validate import validate


def build_reducer(adder_style="ripple", name="fp64_to_fp32_reducer"):
    """Build the Fig. 6 reducer as a standalone module.

    Inputs: ``d`` (a binary64 encoding).  Outputs: ``out`` (binary32 in
    the low word when reduced, else the original binary64), ``reduced``,
    ``c1``, ``c2``, ``zero``.
    """
    m = Module(name)
    gb = GateBuilder(m)
    d = m.input("d", 64)
    out, reduce_ok, c1, c2, zero_ok = reducer_logic(gb, d, adder_style)
    m.output("out", out)
    m.output("reduced", [reduce_ok])
    m.output("c1", [c1])
    m.output("c2", [c2])
    m.output("zero", [gb.g_not(zero_ok)])
    return validate(m)


def reducer_logic(gb, d, adder_style="ripple"):
    """Instantiate the Fig. 6 datapath on an existing 64-bit bus.

    Returns ``(out_bus, reduced, c1, c2, zero_ok)``.  Exposed separately
    so the multi-format unit can absorb the reducer into its output
    formatter, as Sec. IV suggests ("can be easily included in the
    multi-format multiplier of Fig. 5").
    """
    m = gb.m
    sign = d[63]
    e64 = d[52:63]               # 11 exponent bits
    fraction = d[0:52]
    adder = make_adder(adder_style)

    with m.block("exp_low_check"):
        # E32 = E64 - 896; -896 = 0b10001000000 in 11-bit two's
        # complement: its 7 LSBs are zero, so E32[0:7] = E64[0:7] and a
        # 5-bit adder handles bits 7..11 (with the borrow sign).
        low7 = e64[:7]
        high4 = e64[7:]
        const = (-BIAS_DELTA >> 7) & 0x1F          # -896 / 128 = -7 -> 5 bits
        const_bus = gb.bus_const(const, 5)
        hi_sum, __ = adder(gb, gb.bus_pad(high4, 5), const_bus)
        e32 = low7 + hi_sum[:4]                     # 11 magnitude bits
        e32_sign = hi_sum[4]                        # 1 when E32 < 0
        # c1: E32 > 0  <=>  not negative and not zero.
        e32_nonzero = gb.or_tree(e32)
        c1 = gb.g_and(gb.g_not(e32_sign), e32_nonzero)

    with m.block("exp_high_check"):
        # c2: E64 - 1151 < 0.  -1151 is odd -> full 12-bit CPA.
        const_bus = gb.bus_const((-UPPER_BOUND) & 0xFFF, 12)
        diff, __ = adder(gb, gb.bus_pad(e64, 12), const_bus)
        c2 = diff[11]                               # sign bit: negative

    with m.block("zero_check"):
        # The 29-input OR tree (NOR as OR + INV): 1 when every
        # discarded fraction bit is 0.
        discarded = list(fraction[:DISCARDED_FRACTION_BITS])
        zero_ok = gb.g_not(gb.or_tree(discarded))

    with m.block("select"):
        reduce_ok = gb.and_tree([c1, c2, zero_ok])
        # binary32 encoding in the low 32 bits: sign, E32[7:0], fraction>>29.
        packed32 = (list(fraction[DISCARDED_FRACTION_BITS:])  # 23 bits
                    + list(e32[:8])                           # 8 exponent bits
                    + [sign])                                 # sign
        out = [gb.g_mux(d[i], packed32[i] if i < 32 else gb.zero, reduce_ok)
               for i in range(64)]

    return out, reduce_ok, c1, c2, zero_ok
