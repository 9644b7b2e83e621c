"""One derived index per netlist.

Validation, the compile pass, static timing, area, pipeline staging,
Monte Carlo power and its attribution read a module's structure from
:attr:`~repro.hdl.module.Module.index` instead of deriving it again.
Its one topological sort is a depth-first pass, which on a module as
built emits the construction order.
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
        in one deterministic topological order, sorted depth-first on
        first call (:func:`_depth_first_order`).

        Registers are nodes with a d -> q edge, so any cycle, even one
        through a register, raises ``error``.  Readers that need only
        the gates (timing, the event settle) filter it; none depends on
        which topological order it is.
        """
        if self._order is None:
            obs.registry().inc("hdl.index.sorts")
            self._order = _depth_first_order(self._module(), error)
        return self._order

    @cached_property
    def fanout(self):
        """net -> tuple of the gate indices reading it, ascending
        (registers excluded), once per pin: ``hdl.index.fanout_builds``
        counts the builds.  Only the Python event wheel reads it; the C
        event kernel builds its own from the compiled node table."""
        obs.registry().inc("hdl.index.fanout_builds")
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
        (see :func:`repro.hdl.pipeline.stage_map`); ``mixed`` names the
        lowest-index gate mixing stages, else the lowest-index register
        latching a net of another stage, else is ``None``, whatever the
        node order."""
        module = self._module()
        gates, registers = module.gates, module.registers
        net_stage = [0] * module.n_nets
        for bus in module.inputs.values():
            for net in bus:
                net_stage[net] = 1
        gate_stages = [0] * len(gates)
        mixed = []
        for node in self.node_order(PipelineError):
            if node >= 0:
                kind, inputs, output, block = gates[node]
                stages = {net_stage[n] for n in inputs if net_stage[n]}
                stage = max(stages) if stages else 1
                if len(stages) > 1:
                    mixed.append((0, node, f"gate {node} ({kind} in "
                                  f"{block!r}) mixes stages {sorted(stages)}"))
                gate_stages[node] = net_stage[output] = stage
            else:
                d, q, reg_stage, __ = registers[-node - 1]
                d_stage = net_stage[d] or reg_stage
                if d_stage != reg_stage:
                    mixed.append((1, -node - 1, f"register {-node - 1} at "
                                  f"stage {reg_stage} latches a "
                                  f"stage-{d_stage} net"))
                net_stage[q] = reg_stage + 1
        mixed = min(mixed)[2] if mixed else None
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


def _depth_first_order(module, error):
    """One iterative depth-first pass from roots in output-net order: a
    module built through :meth:`~repro.hdl.module.Module.gate` comes out
    in construction order, and a buffer added later is pulled in just
    before its first reader.  Node ``i < len(gates)`` is gate ``i`` and
    node ``len(gates) + r`` register ``r``.  A node is gray from its
    expansion until it is emitted; a gray producer met again closes a
    cycle.  The stack is explicit, so no netlist is too deep for it.
    """
    gates, registers = module.gates, module.registers
    n_gates = len(gates)
    node_inputs = ([inputs for __, inputs, __, __ in gates]
                   + [(d,) for d, __, __, __ in registers])
    # Inputs and constants are read from a sentinel node, born black.
    sentinel = len(node_inputs)
    producer = [sentinel] * module.n_nets
    for node, (__, __, output, __) in enumerate(gates):
        producer[output] = node
    for node, (__, q, __, __) in enumerate(registers, n_gates):
        producer[q] = node
    mark = bytearray(sentinel + 1)           # 0 white, 1 gray, 2 black
    mark[sentinel] = 2
    order, stack = [], []
    for root in producer:
        if not mark[root]:
            stack.append(root)
        while stack:
            node = stack[-1]
            if not mark[node]:
                mark[node] = 1
                depth = len(stack)
                for net in node_inputs[node]:
                    src = producer[net]
                    if mark[src] != 2:
                        if mark[src]:
                            raise error("netlist has a combinational cycle")
                        stack.append(src)
                if len(stack) > depth:
                    continue
            stack.pop()
            # A node pushed by two readers is popped once more, black.
            if mark[node] == 1:
                mark[node] = 2
                # Register ``ridx`` (node ``n_gates + ridx``) is ``-1 - ridx``.
                order.append(node if node < n_gates else n_gates - 1 - node)
    return tuple(order)
