"""OR trees (sticky / zero detection).

Fig. 6 needs a 29-input OR tree to test the low fraction bits for zero;
the sticky-bit extension (Sec. IV: "part of the OR-tree can be shared
with the sticky-bit computation") reuses the same structure.
"""


def zero_flag(gb, nets):
    """1 when every net is 0 (NOR over the bus, built as OR + INV)."""
    return gb.g_not(gb.or_tree(list(nets)))
