"""Reference (algorithmic) implementations of the paper's arithmetic.

Everything in this package manipulates plain integers.  The structural
circuits in :mod:`repro.circuits` are generated to mirror these
algorithms gate by gate, and the test suite cross-checks the two layers
against each other exhaustively and property-based.
"""

from repro.arith.adders_ref import (
    brent_kung_carries,
    carry_select_add,
    kogge_stone_carries,
    ripple_add,
)
from repro.arith.csa import compress_3_2, compress_4_2, full_adder, half_adder
from repro.arith.partial_products import (
    PPArray,
    PPRow,
    build_dual_lane_pp_array,
    build_pp_array,
)
from repro.arith.recoding import (
    booth_radix4_digits,
    radix16_digits,
    recode_minimally_redundant,
)
from repro.arith.trees import (
    ReductionSchedule,
    dadda_sequence,
    reduce_columns,
    reduce_pp_array,
)

__all__ = [
    "PPArray",
    "PPRow",
    "ReductionSchedule",
    "booth_radix4_digits",
    "brent_kung_carries",
    "build_dual_lane_pp_array",
    "build_pp_array",
    "carry_select_add",
    "compress_3_2",
    "compress_4_2",
    "dadda_sequence",
    "full_adder",
    "half_adder",
    "kogge_stone_carries",
    "radix16_digits",
    "recode_minimally_redundant",
    "reduce_columns",
    "reduce_pp_array",
    "ripple_add",
]
