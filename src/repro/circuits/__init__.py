"""Structural circuit generators.

Each generator builds gates into a :class:`repro.hdl.module.Module` and
mirrors, node for node, a reference algorithm from :mod:`repro.arith`;
the tests co-simulate the two layers.  Constant folding in
:mod:`repro.circuits.primitives` plays the role a synthesis tool would:
cells with constant inputs are simplified away, so the area/power
numbers refer to netlists a real flow would produce.
"""

from repro.circuits.adders import kogge_stone_adder, make_adder, ripple_adder
from repro.circuits.compressor_tree import build_compressor_tree
from repro.circuits.mult_radix4 import radix4_multiplier
from repro.circuits.mult_radix8 import radix8_multiplier
from repro.circuits.mult_radix16 import radix16_multiplier
from repro.circuits.primitives import Bus

__all__ = [
    "Bus",
    "build_compressor_tree",
    "kogge_stone_adder",
    "make_adder",
    "radix16_multiplier",
    "radix4_multiplier",
    "radix8_multiplier",
    "ripple_adder",
]
