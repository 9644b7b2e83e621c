"""Constant-folding gate builders.

These wrappers instantiate cells through :meth:`Module.gate` but fold
constants first — ``AND(x, 0)`` becomes the constant-0 net, ``FA(a, b, 1)``
becomes the cheaper XNOR/OR pair, and so on.  Generators can therefore
describe datapaths uniformly (correction constants, padded buses,
blanked lanes) while the resulting netlists stay as lean as what a
synthesis tool would emit; the area and power results refer to the
folded netlists.

A ``Bus`` is just a list of net ids, LSB first.
"""

from typing import List

from repro.errors import NetlistError
from repro.hdl.cell import cell_kind

Bus = List[int]


class GateBuilder:
    """Folding gate factory bound to one module."""

    def __init__(self, module, cse=True):
        self.m = module
        self.zero = module.const(0)
        self.one = module.const(1)
        self._const = {self.zero: 0, self.one: 1}
        self._cse = {} if cse else None
        #: rough logic depth per net (inputs/constants = 0); used by the
        #: compressor tree to consume early-arriving bits first, the way
        #: delay-aware synthesis orders counter inputs.
        self.depth = {}

    def const_of(self, net):
        """0/1 when ``net`` is a constant, else None."""
        return self._const.get(net)

    def depth_of(self, net):
        return self.depth.get(net, 0)

    def _cell(self, kind, *ins):
        """Instantiate with common-subexpression reuse (synthesis-style)."""
        if self._cse is None:
            net = self.m.gate(kind, *ins)
            self.depth[net] = max((self.depth_of(n) for n in ins),
                                  default=0) + 1
            return net
        if not cell_kind(kind).swaps:  # symmetric in all its inputs
            key = (kind,) + tuple(sorted(ins))
        else:
            key = (kind,) + tuple(ins)
        net = self._cse.get(key)
        if net is None:
            net = self.m.gate(kind, *ins)
            self._cse[key] = net
            self.depth[net] = max((self.depth_of(n) for n in ins),
                                  default=0) + 1
        return net

    # -- single-output cells ------------------------------------------

    def g_not(self, a):
        ca = self.const_of(a)
        if ca is not None:
            return self.one if ca == 0 else self.zero
        return self._cell("INV", a)

    def g_and(self, a, b):
        ca, cb = self.const_of(a), self.const_of(b)
        if ca == 0 or cb == 0:
            return self.zero
        if ca == 1:
            return b
        if cb == 1:
            return a
        if a == b:
            return a
        return self._cell("AND2", a, b)

    def g_or(self, a, b):
        ca, cb = self.const_of(a), self.const_of(b)
        if ca == 1 or cb == 1:
            return self.one
        if ca == 0:
            return b
        if cb == 0:
            return a
        if a == b:
            return a
        return self._cell("OR2", a, b)

    def g_xor(self, a, b):
        ca, cb = self.const_of(a), self.const_of(b)
        if ca is not None and cb is not None:
            return self.one if ca ^ cb else self.zero
        if ca == 0:
            return b
        if cb == 0:
            return a
        if ca == 1:
            return self.g_not(b)
        if cb == 1:
            return self.g_not(a)
        if a == b:
            return self.zero
        return self._cell("XOR2", a, b)

    def g_xnor(self, a, b):
        ca, cb = self.const_of(a), self.const_of(b)
        if ca is not None or cb is not None or a == b:
            return self.g_not(self.g_xor(a, b))
        return self._cell("XNOR2", a, b)

    def g_mux(self, a, b, sel):
        """``a`` when ``sel = 0``, ``b`` when ``sel = 1``."""
        cs = self.const_of(sel)
        if cs == 0:
            return a
        if cs == 1:
            return b
        if a == b:
            return a
        ca, cb = self.const_of(a), self.const_of(b)
        if ca == 0 and cb == 1:
            return sel
        if ca == 1 and cb == 0:
            return self.g_not(sel)
        if ca == 0:
            return self.g_and(b, sel)
        if cb == 0:
            return self.g_and(a, self.g_not(sel))
        if ca == 1:
            return self.g_or(b, self.g_not(sel))
        if cb == 1:
            return self.g_or(a, sel)
        return self._cell("MUX2", a, b, sel)

    def g_and3(self, a, b, c):
        consts = [self.const_of(n) for n in (a, b, c)]
        if 0 in consts:
            return self.zero
        live = [n for n, cv in zip((a, b, c), consts) if cv is None]
        if not live:
            return self.one
        if len(live) == 1:
            return live[0]
        if len(live) == 2:
            return self.g_and(live[0], live[1])
        return self._cell("AND3", a, b, c)

    def g_or3(self, a, b, c):
        consts = [self.const_of(n) for n in (a, b, c)]
        if 1 in consts:
            return self.one
        live = [n for n, cv in zip((a, b, c), consts) if cv is None]
        if not live:
            return self.zero
        if len(live) == 1:
            return live[0]
        if len(live) == 2:
            return self.g_or(live[0], live[1])
        return self._cell("OR3", a, b, c)

    def g_ao22(self, a, b, c, d):
        """``(a & b) | (c & d)`` with folding to simpler gates."""
        consts = [self.const_of(n) for n in (a, b, c, d)]
        if consts[0] == 0 or consts[1] == 0:
            return self.g_and(c, d)
        if consts[2] == 0 or consts[3] == 0:
            return self.g_and(a, b)
        if any(cv is not None for cv in consts):
            return self.g_or(self.g_and(a, b), self.g_and(c, d))
        return self._cell("AO22", a, b, c, d)

    def one_hot_select(self, pairs):
        """OR of ``select & data`` products (the Fig. 1 PP mux).

        ``pairs`` is ``[(select_net, data_net), ...]`` with one-hot
        selects; packs products two per AO22 cell and ORs the results.
        """
        live = []
        for sel, data in pairs:
            if self.const_of(sel) == 0 or self.const_of(data) == 0:
                continue
            live.append((sel, data))
        terms = []
        i = 0
        while i + 1 < len(live):
            (s1, d1), (s2, d2) = live[i], live[i + 1]
            terms.append(self.g_ao22(s1, d1, s2, d2))
            i += 2
        if i < len(live):
            terms.append(self.g_and(*live[i]))
        return self.or_tree(terms)

    # -- carry-save cells ----------------------------------------------

    def fa(self, a, b, c):
        """Full adder; returns ``(sum, carry)`` with constant folding."""
        for first, second, third in ((a, b, c), (b, c, a), (c, a, b)):
            cv = self.const_of(third)
            if cv == 0:
                return self.ha(first, second)
            if cv == 1:
                s = self.g_xnor(first, second)
                carry = self.g_or(first, second)
                return s, carry
        return (self._cell("XOR3", a, b, c),
                self._cell("MAJ3", a, b, c))

    def ha(self, a, b):
        """Half adder; returns ``(sum, carry)``."""
        ca, cb = self.const_of(a), self.const_of(b)
        if ca == 0:
            return b, self.zero
        if cb == 0:
            return a, self.zero
        if ca == 1:
            return self.g_not(b), b
        if cb == 1:
            return self.g_not(a), a
        return self.g_xor(a, b), self.g_and(a, b)

    # -- bus helpers -----------------------------------------------------

    def bus_const(self, value, width):
        """A bus of constant nets spelling ``value``."""
        return [self.one if (value >> i) & 1 else self.zero
                for i in range(width)]

    def bus_invert(self, bus):
        return [self.g_not(n) for n in bus]

    def bus_mux(self, bus_a, bus_b, sel):
        if len(bus_a) != len(bus_b):
            raise NetlistError(
                f"bus width mismatch: {len(bus_a)} vs {len(bus_b)}"
            )
        return [self.g_mux(a, b, sel) for a, b in zip(bus_a, bus_b)]

    def bus_shift_left(self, bus, amount, width=None):
        """Left shift by wiring, zero filled, truncated to ``width``."""
        width = width if width is not None else len(bus) + amount
        shifted = [self.zero] * amount + list(bus)
        shifted = shifted[:width]
        while len(shifted) < width:
            shifted.append(self.zero)
        return shifted

    def bus_pad(self, bus, width):
        if len(bus) > width:
            raise NetlistError(f"bus of {len(bus)} nets won't fit {width}")
        return list(bus) + [self.zero] * (width - len(bus))

    def or_tree(self, nets):
        """Balanced OR reduction of any number of nets (0 -> const 0)."""
        nets = [n for n in nets if self.const_of(n) != 0]
        if any(self.const_of(n) == 1 for n in nets):
            return self.one
        if not nets:
            return self.zero
        while len(nets) > 1:
            nxt = []
            i = 0
            while i + 2 < len(nets):
                nxt.append(self.g_or3(nets[i], nets[i + 1], nets[i + 2]))
                i += 3
            if i + 1 < len(nets):
                nxt.append(self.g_or(nets[i], nets[i + 1]))
            elif i < len(nets):
                nxt.append(nets[i])
            nets = nxt
        return nets[0]

    def and_tree(self, nets):
        """Balanced AND reduction."""
        nets = [n for n in nets if self.const_of(n) != 1]
        if any(self.const_of(n) == 0 for n in nets):
            return self.zero
        if not nets:
            return self.one
        while len(nets) > 1:
            nxt = []
            i = 0
            while i + 2 < len(nets):
                nxt.append(self.g_and3(nets[i], nets[i + 1], nets[i + 2]))
                i += 3
            if i + 1 < len(nets):
                nxt.append(self.g_and(nets[i], nets[i + 1]))
            elif i < len(nets):
                nxt.append(nets[i])
            nets = nxt
        return nets[0]


def bus_from_const(module, value, width):
    """Convenience: constant bus without instantiating a GateBuilder."""
    zero = module.const(0)
    one = module.const(1)
    return [one if (value >> i) & 1 else zero for i in range(width)]
