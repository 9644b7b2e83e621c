"""Netlist compile pass: flatten once, specialize on demand.

The interpreting simulators pay a per-gate dispatch tax on every
evaluation: fetch the ``Gate`` dataclass, look up its ``cell_eval``
function, branch on arity, build an argument list.  On a 20k-gate
multiplier that tax dominates the runtime of both the levelized runs and
the event-driven glitch replay.

This module removes it by *compiling* a :class:`~repro.hdl.module.Module`
exactly once.  Construction does one pass over
:func:`~repro.hdl.sim.toposort.topo_node_order` and builds the
**node table**: six ``int32`` per node (an opcode per cell kind, four
input nets, one output net; constant-1 nets and registers are nodes
too), the flattened form the native levelized kernel of
:mod:`repro.hdl.sim.ckernel` walks.  Everything else is generated only
when a Python engine actually asks for it:

* a **levelized kernel** — straight-line Python source, one statement
  per gate/register in topological order, operating bit-parallel on the
  packed pattern words (``v[out] = M ^ (v[a] & v[b])`` …), built with
  ``compile()``/``exec`` and chunked into several functions to keep the
  code objects small — the fallback when the C library is unavailable;
* a **scalar settle kernel** — the same straight-line code over the
  combinational gates only (mask fixed to 1), used by the Python event
  simulator to settle the network from scratch;
* **per-gate evaluation closures** — one zero-argument lambda per gate
  that recomputes the gate's scalar output from the simulator's live
  ``values`` list, used in the event simulator's inner scheduling loop.

A one-gate mutant that keeps its output net and input set (a rekind or
a pin swap) keeps the module's topological order valid, so
:meth:`CompiledModule.with_gate` derives it from the compiled module by
rewriting one node-table row — the fault campaigns of
:mod:`repro.eval.fault_injection` settle every mutant that way.

Both the generated Python expressions and the native kernel's gate
cases are the ``expr`` of the kind's row in
:data:`repro.hdl.cell.CELL_KINDS`, the template ``cell_eval`` is
rendered from too (unit tests sweep every kind against the independent
functions of ``tests/oracles/cells.py``).  Because the kernels evaluate
the same exact integer operations in the same topological discipline,
compiled results are **bit-identical** to the interpreters' — the
compile pass is a pure speedup.

Compilation results are cached per ``Module`` instance (weakly, so
modules remain collectable); mutating a module after first compile is
detected by a cheap shape check and triggers recompilation.
"""

import weakref
from array import array
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import obs
from repro.errors import NetlistError
from repro.hdl.cell import CELL_KINDS, cell_kind, cell_num_inputs
from repro.hdl.sim.toposort import topo_node_order

#: Node-table opcode of each cell kind, then the two non-gate nodes: a
#: register (``q = (d << 1) & M``) and a constant-1 net (``out = M``).
OPCODES = {kind: op for op, kind in enumerate(CELL_KINDS)}
OP_REG = len(OPCODES)
OP_ONE = OP_REG + 1

#: ``int32`` fields per node-table row: opcode, four inputs, output.
NODE_FIELDS = 6

#: Statements per generated function.  Keeps individual code objects a
#: comfortable size for CPython's compiler without fragmenting the work.
CHUNK_STATEMENTS = 4000


def gate_expr(gate, mask_name="M"):
    """The Python expression recomputing ``gate``'s output from ``v``."""
    return cell_kind(gate.kind).expr.format(
        *[f"v[{net}]" for net in gate.inputs], M=mask_name)


def _compile_chunks(statements, tag):
    """Exec chunks of statements as ``def _k(v, M)`` functions;
    ``M`` is the all-patterns mask."""
    fns = []
    with obs.span("compile:kernel", cat="compile", tag=tag,
                  statements=len(statements)):
        for start in range(0, len(statements), CHUNK_STATEMENTS):
            body = statements[start:start + CHUNK_STATEMENTS] or ["pass"]
            src = "def _k(v, M):\n    " + "\n    ".join(body)
            namespace = {}
            code = compile(src, f"<repro.hdl.sim.compile:{tag}:{start}>",
                           "exec")
            exec(code, namespace)
            fns.append(namespace["_k"])
    obs.registry().inc("compile.kernels")
    return fns


def _compile_eval_factories(gates, tag):
    """Exec chunks of ``lambda:`` appends building scalar per-gate closures."""
    fns = []
    gates = list(gates)
    with obs.span("compile:kernel", cat="compile", tag=tag,
                  statements=len(gates)):
        for start in range(0, len(gates), CHUNK_STATEMENTS):
            body = [f"a(lambda: {gate_expr(g, mask_name='1')})"
                    for g in gates[start:start + CHUNK_STATEMENTS]] or ["pass"]
            src = "def _k(v, a):\n    " + "\n    ".join(body)
            namespace = {}
            code = compile(src, f"<repro.hdl.sim.compile:{tag}:{start}>",
                           "exec")
            exec(code, namespace)
            fns.append(namespace["_k"])
    obs.registry().inc("compile.kernels")
    return fns


def _append_gate_row(table, gate):
    """Append ``gate``'s node-table row; unused input slots repeat
    input 0."""
    ins = gate.inputs
    table.append(OPCODES[gate.kind])
    table += ins
    table += (ins[0],) * (4 - len(ins))
    table.append(gate.output)


@dataclass
class CompiledModule:
    """One module flattened and specialized for fast simulation.

    The node table is built at construction; the Python kernels'
    statements are generated and ``compile()``/``exec``-ed on first use
    and cached — a consumer whose levelized runs and replays go to the
    native kernel never pays for Python code it doesn't call.
    """

    n_nets: int
    n_gates: int
    n_registers: int
    #: ``NODE_FIELDS`` int32 per node, constant-1 nets first, then the
    #: topological node order (see :data:`OPCODES`).
    node_table: array = field(repr=False)
    _tag: str = "module"
    _order: List[int] = field(repr=False, default_factory=list)
    _gates: List = field(repr=False, default_factory=list)
    _registers: List = field(repr=False, default_factory=list)
    _level_fns: Optional[List[Callable]] = field(repr=False, default=None)
    _settle_fns: Optional[List[Callable]] = field(repr=False, default=None)
    _eval_factories: Optional[List[Callable]] = field(repr=False,
                                                      default=None)
    #: A :meth:`with_gate` result's ``(base module, patched position)``.
    _patch: Optional[tuple] = field(repr=False, default=None)

    def run_levelized(self, values, m):
        """Evaluate every gate and register time-shift, bit-parallel,
        over the patterns of the all-patterns mask ``m``."""
        for fn in self._levelized_fns():
            fn(values, m)

    def _levelized_fns(self):
        """The generated levelized kernel, one function per chunk of
        :data:`CHUNK_STATEMENTS` nodes.  A :meth:`with_gate` result
        reuses its base's chunks and generates only the patched one."""
        fns = self._level_fns
        if fns is None:
            lo, hi, fns = 0, len(self._order), []
            if self._patch is not None:
                base, pos = self._patch
                fns = list(base._levelized_fns())
                lo = pos - pos % CHUNK_STATEMENTS
                hi = lo + CHUNK_STATEMENTS
            gates, registers = self._gates, self._registers
            stmts = []
            for node in self._order[lo:hi]:
                if node >= 0:
                    gate = gates[node]
                    stmts.append(f"v[{gate.output}] = {gate_expr(gate)}")
                else:
                    reg = registers[-node - 1]
                    stmts.append(f"v[{reg.q}] = (v[{reg.d}] << 1) & M")
            chunks = _compile_chunks(stmts, f"{self._tag}:levelized")
            first = lo // CHUNK_STATEMENTS
            fns[first:first + len(chunks)] = chunks
            self._level_fns = fns
        return fns

    def with_gate(self, index, gate):
        """This module with gate ``index`` replaced by ``gate``.

        ``gate`` must drive the same output net from the same set of
        input nets (a rekind or a pin swap), so this module's
        topological order stays valid for it: the result shares the
        order and holds a private copy of the node table with one row
        rewritten — no toposort, no table build.  Its generated-Python
        kernel, if a run asks for one, reuses this module's chunk
        functions and generates only the chunk holding the changed
        statement.  Raises :class:`~repro.errors.NetlistError` for any
        other replacement.
        """
        old = self._gates[index]
        if (gate.output != old.output or set(gate.inputs) != set(old.inputs)
                or len(gate.inputs) != cell_num_inputs(gate.kind)):
            raise NetlistError(
                f"gate {index}: a replacement must keep the output net and "
                f"the input set of {old.kind}{old.inputs} -> {old.output}")
        pos = self._order.index(index)
        row = len(self.node_table) // NODE_FIELDS - len(self._order) + pos
        new_row = []
        _append_gate_row(new_row, gate)
        table = self.node_table[:]
        table[row * NODE_FIELDS:(row + 1) * NODE_FIELDS] = array("i", new_row)
        gates = list(self._gates)
        gates[index] = gate
        return CompiledModule(
            n_nets=self.n_nets, n_gates=self.n_gates,
            n_registers=self.n_registers, node_table=table,
            _tag=self._tag, _order=self._order, _gates=gates,
            _registers=self._registers, _patch=(self, pos))

    def settle(self, values):
        """Zero-delay scalar settle of the combinational gates."""
        fns = self._settle_fns
        if fns is None:
            gates = self._gates
            fns = self._settle_fns = _compile_chunks(
                [f"v[{gates[node].output}] = {gate_expr(gates[node])}"
                 for node in self._order if node >= 0],
                f"{self._tag}:settle")
        for fn in fns:
            fn(values, 1)

    def make_gate_evals(self, values):
        """Per-gate re-evaluation closures over ``values``.

        Index ``g`` of the returned list recomputes gate ``g``'s output
        from the current ``values`` — the event simulator's inner loop
        calls these instead of dispatching through ``cell_eval``.
        """
        factories = self._eval_factories
        if factories is None:
            factories = self._eval_factories = _compile_eval_factories(
                self._gates, f"{self._tag}:evals")
        evals = []
        for fn in factories:
            fn(values, evals.append)
        return evals


def compile_module(module):
    """Compile ``module`` into a :class:`CompiledModule` (uncached)."""
    with obs.span("compile:module", cat="compile", module=module.name,
                  gates=len(module.gates)):
        return _compile_module(module)


def _compile_module(module):
    gates = module.gates
    registers = module.registers
    order = topo_node_order(module)

    # One pass: a row per constant-1 net, then per node in order.  A
    # register's d fills all four input slots.
    table = []
    for net, cval in module.constants.items():
        if cval:
            table += (OP_ONE, net, net, net, net, net)
    for node in order:
        if node >= 0:
            _append_gate_row(table, gates[node])
        else:
            reg = registers[-node - 1]
            table += (OP_REG, reg.d, reg.d, reg.d, reg.d, reg.q)

    return CompiledModule(
        n_nets=module.n_nets,
        n_gates=len(gates),
        n_registers=len(registers),
        node_table=array("i", table),
        _tag=module.name or "module",
        _order=order,
        _gates=list(gates),
        _registers=list(registers),
    )


_CACHE = weakref.WeakKeyDictionary()


def compiled_module(module):
    """The compile-once cache: one :class:`CompiledModule` per module.

    A module that grew since its first compilation (the builders mutate
    modules only during construction, but nothing enforces it) is
    transparently recompiled.
    """
    cm = _CACHE.get(module)
    if (cm is None or cm.n_nets != module.n_nets
            or cm.n_gates != len(module.gates)
            or cm.n_registers != len(module.registers)):
        cm = compile_module(module)
        _CACHE[module] = cm
    return cm
