"""One derived index per netlist.

Validation, the compile pass, static timing, area, pipeline staging,
Monte Carlo power and its attribution read a module's structure from
:attr:`~repro.hdl.module.Module.index` instead of deriving it again.
Each field is derived on its first read and kept; every edit of the
module drops the whole index
(:meth:`~repro.hdl.module.Module.drop_index`), and it is never pickled.

The per-net and per-node tables are tuples, never lists.  A full
collection of CPython's cyclic garbage collector visits every element
of every list it tracks, while a tuple of strings, ints and such
tuples leaves its tracking at the first collection that sees it; an
analysed module kept for the rest of a report would otherwise add its
tables' length to every full collection.
"""

import weakref
from array import array
from functools import cached_property
from itertools import accumulate

from repro import obs
from repro.errors import PipelineError, SimulationError


class NetlistIndex:
    """The derived structure of one module, built field by field."""

    def __init__(self, module):
        # Weak: the index lives on the module, and a strong reference
        # would make every analysed module a reference cycle.
        self._module = weakref.ref(module)
        self._order = None
        self._libraries = []

    def node_order(self, error=SimulationError):
        """Gate indices (``>= 0``) and register codes (``-1 - ridx``)
        in one deterministic topological order, sorted on first call.

        Registers are nodes with a d -> q edge, so any cycle, even one
        through a register, raises ``error``.  Readers that need only
        the gates (timing, the event settle) filter it.
        """
        if self._order is None:
            obs.registry().inc("hdl.index.sorts")
            self._order = _kahn_order(self._module(), error)
        return self._order

    @cached_property
    def fanout(self):
        """net -> tuple of the gate indices reading it, ascending
        (registers excluded)."""
        module = self._module()
        fanout = [[] for __ in range(module.n_nets)]
        for idx, (__, inputs, __, __) in enumerate(module.gates):
            for net in inputs:
                fanout[net].append(idx)
        return tuple(map(tuple, fanout))

    @cached_property
    def owner(self):
        """net -> block tag of its driver (inputs and constants: ``""``)."""
        module = self._module()
        owner = [""] * module.n_nets
        for __, __, output, block in module.gates:
            owner[output] = block
        for __, q, __, block in module.registers:
            owner[q] = block
        return tuple(owner)

    @cached_property
    def top(self):
        """net -> top-level block tag of its driver (``""`` for none,
        which each report names its own way)."""
        tops = {tag: tag.split("/", 1)[0] for tag in set(self.owner)}
        return tuple(tops[tag] for tag in self.owner)

    @cached_property
    def cells(self):
        """net -> driving cell kind (``DFF`` for register outputs)."""
        module = self._module()
        cell = ["(input)"] * module.n_nets
        for net in module.constants:
            cell[net] = "(const)"
        for kind, __, output, __ in module.gates:
            cell[output] = kind
        for __, q, __, __ in module.registers:
            cell[q] = "DFF"
        return tuple(cell)

    @cached_property
    def stages(self):
        """``(gate_stages, net_stages, mixed)`` of one pipeline walk
        (see :func:`repro.hdl.pipeline.stage_map`); ``mixed`` is the
        message of the first gate mixing stages or register latching a
        net of another stage, else ``None``."""
        module = self._module()
        gates, registers = module.gates, module.registers
        net_stage = [0] * module.n_nets
        for bus in module.inputs.values():
            for net in bus:
                net_stage[net] = 1
        gate_stages = [0] * len(gates)
        mixed = None
        for node in self.node_order(PipelineError):
            if node >= 0:
                kind, inputs, output, block = gates[node]
                stages = {net_stage[n] for n in inputs if net_stage[n]}
                stage = max(stages) if stages else 1
                if len(stages) > 1 and mixed is None:
                    mixed = (f"gate {node} ({kind} in {block!r}) "
                             f"mixes stages {sorted(stages)}")
                gate_stages[node] = net_stage[output] = stage
            else:
                d, q, reg_stage, __ = registers[-node - 1]
                d_stage = net_stage[d] or reg_stage
                if d_stage != reg_stage and mixed is None:
                    mixed = (f"register at stage {reg_stage} latches a "
                             f"stage-{d_stage} net")
                net_stage[q] = reg_stage + 1
        return tuple(gate_stages), tuple(net_stage), mixed

    @cached_property
    def compiled(self):
        """The module's :class:`~repro.hdl.sim.compile.CompiledModule`."""
        # Imported on use, so building a Module loads no simulator.
        from repro.hdl.sim.compile import compile_module

        return compile_module(self._module())

    def library(self, library):
        """The :class:`LibraryFields` for ``library``, matched by
        equality so that ``default_library()``-per-call shares them."""
        for fields in self._libraries:
            if fields.library == library:
                return fields
        fields = LibraryFields(self._module, library)
        self._libraries.append(fields)
        return fields


class LibraryFields:
    """A module's fields that depend on the cell library.  The float
    tables are ``array("d")``: a module keeps them for its lifetime, at
    a quarter of a float list's memory."""

    def __init__(self, module_ref, library):
        self._module = module_ref
        self.library = library

    @cached_property
    def load(self):
        """net -> total driven input capacitance: gate and register
        pins, plus the output pad load of primary outputs."""
        module, library = self._module(), self.library
        load = array("d", bytes(8 * module.n_nets))
        for kind, inputs, __, __ in module.gates:
            cap = library.spec(kind).input_cap
            for net in inputs:
                load[net] += cap
        reg_cap = library.register.input_cap
        for d, __, __, __ in module.registers:
            load[d] += reg_cap
        for bus in module.outputs.values():
            for net in bus:
                load[net] += library.output_load
        return load

    @cached_property
    def delays(self):
        """gate index -> its load-dependent delay in ps."""
        load, spec = self.load, self.library.spec
        return array("d", [spec(kind).delay_ps(load[output])
                           for kind, __, output, __ in self._module().gates])

    @cached_property
    def energies(self):
        """net -> energy (fJ) of one transition: ``scale * (area_eq of
        the driver + 0.5 * load)``; input nets carry load energy only,
        register q nets the flip-flop's output energy."""
        module, library = self._module(), self.library
        scale = library.energy_fj_per_unit
        energy = array("d", [scale * 0.5 * load for load in self.load])
        for kind, __, output, __ in module.gates:
            energy[output] += scale * library.spec(kind).area_eq
        qunits = library.register.q_energy_units
        for __, q, __, __ in module.registers:
            energy[q] += scale * qunits
        return energy

    @cached_property
    def leakage_mw(self):
        """Static power of the whole module in mW (proportional to area)."""
        module, library = self._module(), self.library
        area_eq = 0.0
        for kind, __, __, __ in module.gates:
            area_eq += library.spec(kind).area_eq
        area_eq += library.register.area_eq * len(module.registers)
        return area_eq * library.leakage_nw_per_eq * 1e-6

    @cached_property
    def event_simulator(self):
        """The module's shared :class:`~repro.hdl.sim.event.EventSimulator`:
        its compiled evaluation closures are built once, however many
        estimates reuse it."""
        from repro.hdl.sim.event import EventSimulator

        return EventSimulator(self._module(), self.library)


def _kahn_order(module, error):
    """Kahn's sort with a LIFO ready stack over one flat edge table.

    Node ``i < len(gates)`` is gate ``i`` and node ``len(gates) + r``
    register ``r``.  Each pin read from another node is one edge.  A
    counting sort places the edges by producer: one pass counts the
    degrees, giving CSR offsets ``start``, and a second walks the pins
    in node order and writes each consumer at its producer's cursor.
    So the slice ``targets[start[p]:start[p + 1]]`` lists ``p``'s
    consumers in the order they are met, a node reading ``p`` twice
    twice in a row, and releases nodes exactly as one consumer list per
    node would (``tests/oracles/toposort.py``) without allocating a
    container per node.
    """
    gates, registers = module.gates, module.registers
    n_gates = len(gates)
    node_inputs = ([inputs for __, inputs, __, __ in gates]
                   + [(d,) for d, __, __, __ in registers])
    n_nodes = len(node_inputs)
    producer = [-1] * module.n_nets
    for node, (__, __, output, __) in enumerate(gates):
        producer[output] = node
    for node, (__, q, __, __) in enumerate(registers, n_gates):
        producer[q] = node
    indegree = [0] * n_nodes
    outdegree = [0] * n_nodes
    for node, nets in enumerate(node_inputs):
        for net in nets:
            src = producer[net]
            if src >= 0:
                indegree[node] += 1
                outdegree[src] += 1
    start = [0, *accumulate(outdegree)]
    cursor = start[:-1]
    targets = [0] * start[-1]
    for node, nets in enumerate(node_inputs):
        for net in nets:
            src = producer[net]
            if src >= 0:
                targets[cursor[src]] = node
                cursor[src] += 1
    ready = [node for node in range(n_nodes) if not indegree[node]]
    order = []
    while ready:
        node = ready.pop()
        # Register ``ridx`` is node ``n_gates + ridx``, coded ``-1 - ridx``.
        order.append(node if node < n_gates else n_gates - 1 - node)
        for consumer in targets[start[node]:start[node + 1]]:
            indegree[consumer] -= 1
            if not indegree[consumer]:
                ready.append(consumer)
    if len(order) != n_nodes:
        raise error("netlist has a combinational cycle")
    return tuple(order)
