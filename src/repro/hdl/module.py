"""Structural netlists.

A :class:`Module` is a flat net-level description: integer net ids,
single-output gates, optional pipeline registers, named input/output
buses (LSB-first lists of nets) and two constant nets.  Hierarchy is
recorded as a block *tag* per gate (e.g. ``"ppgen/row3"``) — enough for
the per-block timing/area/power breakdowns the paper reports, without
the weight of real hierarchy.

Construction idiom::

    m = Module("mult64")
    x = m.input("x", 64)
    y = m.input("y", 64)
    with m.block("ppgen"):
        n = m.gate("XOR2", x[0], y[0])
    m.output("p", [n])

Rows.  ``Module.gates`` and ``Module.registers`` hold plain tuples,
in this field order::

    gate:     (kind, inputs, output, block)   # str, tuple of ints, int, str
    register: (d, q, stage, block)            # int, int, int, str

``stage`` is the pipeline cut a register belongs to (1 = between stage
1 and stage 2, matching Fig. 5's numbering).  Readers unpack a row by
name (``for kind, inputs, output, block in module.gates``).  A tuple of
strings, ints and int tuples is untracked by CPython's cyclic garbage
collector after the first collection that sees it, so the hundred
thousand rows of the paper's netlists cost no collection time and
unpickle as plain data; a dataclass or ``NamedTuple`` row stays
tracked for its lifetime.

Analyses read the derived structure (topological order, fanout, loads,
stages, ...) from :attr:`Module.index`, which every mutator drops.
"""

import contextlib
from functools import cached_property
from typing import Dict, List, Tuple

from repro.errors import NetlistError
from repro.hdl.cell import cell_num_inputs
from repro.hdl.index import NetlistIndex


class Module:
    """A flat structural netlist under construction."""

    def __init__(self, name):
        self.name = name
        self.n_nets = 0
        self.gates: List[Tuple[str, Tuple[int, ...], int, str]] = []
        self.registers: List[Tuple[int, int, int, str]] = []
        self.inputs: Dict[str, List[int]] = {}
        self.outputs: Dict[str, List[int]] = {}
        self._driver: Dict[int, str] = {}     # net -> "gate"/"input"/...
        self._const_nets: Dict[int, int] = {}  # net -> 0/1
        self._const_cache: Dict[int, int] = {}
        self._block_stack: List[str] = []
        self._block_path = ""                  # "/".join(_block_stack)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def new_net(self):
        self.drop_index()
        net = self.n_nets
        self.n_nets += 1
        return net

    @property
    def current_block(self):
        return self._block_path

    @contextlib.contextmanager
    def block(self, tag):
        """Scope subsequent gates under ``tag`` (nestable)."""
        stack = self._block_stack
        stack.append(tag)
        self._block_path = "/".join(stack)
        try:
            yield
        finally:
            stack.pop()
            self._block_path = "/".join(stack)

    def input(self, name, width):
        """Declare a primary input bus; returns its nets, LSB first."""
        if name in self.inputs:
            raise NetlistError(f"duplicate input {name!r}")
        bus = [self.new_net() for _ in range(width)]
        for net in bus:
            self._driver[net] = "input"
        self.inputs[name] = bus
        return bus

    def output(self, name, nets):
        """Declare a primary output bus over existing nets."""
        if name in self.outputs:
            raise NetlistError(f"duplicate output {name!r}")
        nets = list(nets)
        for net in nets:
            self._require_driven(net)
        self.drop_index()
        self.outputs[name] = nets

    def const(self, value):
        """The shared constant-0 or constant-1 net."""
        if value not in (0, 1):
            raise NetlistError(f"constant must be 0 or 1, got {value!r}")
        if value not in self._const_cache:
            net = self.new_net()
            self._driver[net] = "const"
            self._const_nets[net] = value
            self._const_cache[value] = net
        return self._const_cache[value]

    def gate(self, kind, *inputs, block=None):
        """Instantiate a cell; returns its output net."""
        expected = cell_num_inputs(kind)
        if len(inputs) != expected:
            raise NetlistError(
                f"{kind} takes {expected} inputs, got {len(inputs)}"
            )
        driver = self._driver
        for net in inputs:
            if type(net) is not int or net not in driver:
                self._require_driven(net)
        # new_net(), inlined: one call per gate of every build.
        self.__dict__.pop("index", None)
        out = self.n_nets
        self.n_nets = out + 1
        driver[out] = "gate"
        self.gates.append((kind, inputs, out,
                           block if block is not None else self._block_path))
        return out

    def register(self, d, stage, block=None):
        """Insert a pipeline flip-flop on net ``d``; returns the q net."""
        self._require_driven(d)
        q = self.new_net()
        self._driver[q] = "register"
        self.registers.append((d, q, stage,
                               block if block is not None
                               else self._block_path))
        return q

    def register_bus(self, bus, stage, block=None):
        """Register every net of a bus; returns the q bus."""
        return [self.register(net, stage, block=block) for net in bus]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def constants(self):
        """Mapping net -> constant value (0/1)."""
        return dict(self._const_nets)

    def driver_kind(self, net):
        """``"input"``, ``"gate"``, ``"register"`` or ``"const"``."""
        try:
            return self._driver[net]
        except KeyError:
            raise NetlistError(f"net {net} has no driver") from None

    def stage_count(self):
        """Number of pipeline stages (register stages + 1)."""
        if not self.registers:
            return 1
        return max(stage for __, __, stage, __ in self.registers) + 1

    @cached_property
    def index(self):
        """The module's :class:`~repro.hdl.index.NetlistIndex`: every
        analysis reads its derived structure from here."""
        return NetlistIndex(self)

    def drop_index(self):
        """Forget the derived index; passes that edit ``gates``,
        ``registers`` or the buses in place call this when done."""
        self.__dict__.pop("index", None)

    def copy(self):
        """A structural copy sharing no mutable state with this module
        (rows are immutable tuples, so both row lists hold the same
        ones); the copy starts without an index."""
        twin = Module(self.name)
        twin.n_nets = self.n_nets
        twin.gates = list(self.gates)
        twin.registers = list(self.registers)
        twin.inputs = {name: list(bus) for name, bus in self.inputs.items()}
        twin.outputs = {name: list(bus)
                        for name, bus in self.outputs.items()}
        twin._driver = dict(self._driver)
        twin._const_nets = dict(self._const_nets)
        twin._const_cache = dict(self._const_cache)
        twin._block_stack = list(self._block_stack)
        twin._block_path = self._block_path
        return twin

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "index"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        if "_block_path" not in state:   # pickled without the cached path
            self._block_path = "/".join(self._block_stack)

    def stats(self):
        """Cheap structural summary used by reports and tests."""
        kinds = {}
        for kind, __, __, __ in self.gates:
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "nets": self.n_nets,
            "gates": len(self.gates),
            "registers": len(self.registers),
            "inputs": sum(len(b) for b in self.inputs.values()),
            "outputs": sum(len(b) for b in self.outputs.values()),
            "kinds": kinds,
        }

    def _require_driven(self, net):
        if not isinstance(net, int):
            raise NetlistError(f"net ids are ints, got {net!r}")
        if net not in self._driver:
            raise NetlistError(f"net {net} used before being driven")

    def __repr__(self):
        return (f"Module({self.name!r}, nets={self.n_nets}, "
                f"gates={len(self.gates)}, regs={len(self.registers)})")
