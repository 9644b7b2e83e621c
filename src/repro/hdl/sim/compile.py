"""Netlist compile pass: flatten once, specialize on demand.

The interpreting simulators pay a per-gate dispatch tax on every
evaluation: fetch the gate row, look up its ``cell_eval``
function, branch on arity, build an argument list.  On a 20k-gate
multiplier that tax dominates the runtime of both the levelized runs and
the event-driven glitch replay.

This module removes it by *compiling* a :class:`~repro.hdl.module.Module`
exactly once.  Construction does one pass over the topological node
order of the module's :class:`~repro.hdl.index.NetlistIndex` and builds
the **node table**: six ``int32`` per node (an opcode per cell kind, four
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

The compiled form of a module is a field of its index
(:func:`compiled_module`), so it is built once and dropped with the
index when the module is edited.
"""

from array import array
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.errors import NetlistError
from repro.hdl.cell import CELL_KINDS, cell_kind, cell_num_inputs

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
    """The Python expression recomputing the output of the gate row
    ``gate`` from ``v``."""
    kind, inputs, __, __ = gate
    return cell_kind(kind).expr.format(
        *[f"v[{net}]" for net in inputs], M=mask_name)


def _gate_stmt(gate):
    """The statement assigning the gate row ``gate``'s output net."""
    __, __, output, __ = gate
    return f"v[{output}] = {gate_expr(gate)}"


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
    """Append the gate row ``gate``'s node-table row; unused input
    slots repeat input 0."""
    kind, ins, output, __ = gate
    table.append(OPCODES[kind])
    table += ins
    table += (ins[0],) * (4 - len(ins))
    table.append(output)


@dataclass
class CompiledModule:
    """One module flattened and specialized for fast simulation.

    The node table is built at construction; the Python kernels'
    statements are generated and ``compile()``/``exec``-ed on first use
    and cached — a consumer whose levelized runs and replays go to the
    native kernel never pays for Python code it doesn't call.
    """

    n_nets: int
    #: ``NODE_FIELDS`` int32 per node, constant-1 nets first, then the
    #: topological node order (see :data:`OPCODES`).
    node_table: array = field(repr=False)
    _tag: str = "module"
    #: The index's node order and the module's rows, as tuples: kept
    #: for the module's lifetime, so out of the cyclic collector's walk.
    _order: Tuple[int, ...] = field(repr=False, default=())
    _gates: Tuple[tuple, ...] = field(repr=False, default=())
    _registers: Tuple[tuple, ...] = field(repr=False, default=())
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
                    stmts.append(_gate_stmt(gates[node]))
                else:
                    d, q, __, __ = registers[-node - 1]
                    stmts.append(f"v[{q}] = (v[{d}] << 1) & M")
            chunks = _compile_chunks(stmts, f"{self._tag}:levelized")
            first = lo // CHUNK_STATEMENTS
            fns[first:first + len(chunks)] = chunks
            self._level_fns = fns
        return fns

    def with_gate(self, index, gate):
        """This module with gate ``index`` replaced by the row ``gate``.

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
        kind, inputs, output, __ = gate
        old_kind, old_inputs, old_output, __ = self._gates[index]
        if (output != old_output or set(inputs) != set(old_inputs)
                or len(inputs) != cell_num_inputs(kind)):
            raise NetlistError(
                f"gate {index}: a replacement must keep the output net and "
                f"the input set of {old_kind}{old_inputs} -> {old_output}")
        pos = self._order.index(index)
        row = len(self.node_table) // NODE_FIELDS - len(self._order) + pos
        new_row = []
        _append_gate_row(new_row, gate)
        table = self.node_table[:]
        table[row * NODE_FIELDS:(row + 1) * NODE_FIELDS] = array("i", new_row)
        gates = self._gates[:index] + (gate,) + self._gates[index + 1:]
        return CompiledModule(
            n_nets=self.n_nets, node_table=table,
            _tag=self._tag, _order=self._order, _gates=gates,
            _registers=self._registers, _patch=(self, pos))

    def settle(self, values):
        """Zero-delay scalar settle of the combinational gates."""
        fns = self._settle_fns
        if fns is None:
            gates = self._gates
            fns = self._settle_fns = _compile_chunks(
                [_gate_stmt(gates[node]) for node in self._order
                 if node >= 0],
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
    """Compile ``module`` into a new :class:`CompiledModule`
    (:func:`compiled_module` keeps one per module)."""
    gates = module.gates
    registers = module.registers
    with obs.span("compile:module", cat="compile", module=module.name,
                  gates=len(gates)):
        order = module.index.node_order()
        # One pass: a row per constant-1 net, then per node in order.
        # A register's d fills all four input slots.
        table = []
        for net, cval in module.constants.items():
            if cval:
                table += (OP_ONE, net, net, net, net, net)
        for node in order:
            if node >= 0:
                _append_gate_row(table, gates[node])
            else:
                d, q, __, __ = registers[-node - 1]
                table += (OP_REG, d, d, d, d, q)

    return CompiledModule(
        n_nets=module.n_nets,
        node_table=array("i", table),
        _tag=module.name or "module",
        _order=order,
        _gates=tuple(gates),
        _registers=tuple(registers),
    )


def compiled_module(module):
    """The compile-once form of ``module``: its index's
    :attr:`~repro.hdl.index.NetlistIndex.compiled` field."""
    return module.index.compiled
