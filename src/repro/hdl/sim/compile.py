"""Netlist compile pass: flatten once, specialize via source codegen.

The interpreting simulators pay a per-gate dispatch tax on every
evaluation: fetch the ``Gate`` dataclass, look up its ``cell_eval``
function, branch on arity, build an argument list.  On a 20k-gate
multiplier that tax dominates the runtime of both the levelized runs and
the event-driven glitch replay.

This module removes it by *compiling* a :class:`~repro.hdl.module.Module`
exactly once into

* a **levelized kernel** — straight-line Python source, one statement
  per gate/register in topological order, operating bit-parallel on the
  packed pattern words (``v[out] = M ^ (v[a] & v[b])`` …), built with
  ``compile()``/``exec`` and chunked into several functions to keep the
  code objects small;
* a **scalar settle kernel** — the same straight-line code over the
  combinational gates only (mask fixed to 1), used by the event
  simulator to settle the network from scratch;
* **per-gate evaluation closures** — one zero-argument lambda per gate
  that recomputes the gate's scalar output from the simulator's live
  ``values`` list, used in the event simulator's inner scheduling loop.

Generated expressions mirror :data:`repro.hdl.cell.CELL_KINDS` exactly
(a unit test sweeps every kind against ``cell_eval``), and because the
kernels evaluate the same exact integer operations in the same
topological discipline, compiled results are **bit-identical** to the
interpreters' — the compile pass is a pure speedup.

Compilation results are cached per ``Module`` instance (weakly, so
modules remain collectable); mutating a module after first compile is
detected by a cheap shape check and triggers recompilation.
"""

import weakref
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import obs
from repro.errors import NetlistError
from repro.hdl.cell import CELL_KINDS
from repro.hdl.sim.toposort import topo_gate_order, topo_node_order

#: kind -> expression template.  ``{M}`` is the all-patterns mask
#: (``1`` in scalar mode); positional fields are operand expressions.
#: Semantics must mirror ``CELL_KINDS`` — tested kind-by-kind.
EXPR_TEMPLATES = {
    "INV": "({M} ^ {0})",
    "BUF": "{0}",
    "AND2": "({0} & {1})",
    "AND3": "({0} & {1} & {2})",
    "OR2": "({0} | {1})",
    "OR3": "({0} | {1} | {2})",
    "NAND2": "({M} ^ ({0} & {1}))",
    "NAND3": "({M} ^ ({0} & {1} & {2}))",
    "NOR2": "({M} ^ ({0} | {1}))",
    "NOR3": "({M} ^ ({0} | {1} | {2}))",
    "XOR2": "({0} ^ {1})",
    "XNOR2": "({M} ^ {0} ^ {1})",
    "XOR3": "({0} ^ {1} ^ {2})",
    "MAJ3": "(({0} & {1}) | ({0} & {2}) | ({1} & {2}))",
    "MUX2": "({0} ^ (({0} ^ {1}) & {2}))",
    "AOI21": "({M} ^ (({0} & {1}) | {2}))",
    "OAI21": "({M} ^ (({0} | {1}) & {2}))",
    "AO22": "(({0} & {1}) | ({2} & {3}))",
    "OA22": "(({0} | {1}) & ({2} | {3}))",
}

_missing = set(CELL_KINDS) - set(EXPR_TEMPLATES)
if _missing:  # pragma: no cover - import-time sync guard
    raise NetlistError(f"no codegen template for cell kinds: {sorted(_missing)}")

#: Statements per generated function.  Keeps individual code objects a
#: comfortable size for CPython's compiler without fragmenting the work.
CHUNK_STATEMENTS = 4000


def gate_expr(gate, mask_name="M"):
    """The Python expression recomputing ``gate``'s output from ``v``."""
    try:
        template = EXPR_TEMPLATES[gate.kind]
    except KeyError:
        raise NetlistError(f"unknown cell kind {gate.kind!r}") from None
    return template.format(*[f"v[{net}]" for net in gate.inputs], M=mask_name)


def _compile_chunks(statements, tag):
    """Exec chunks of statements as ``def _k(v, M, R)`` functions.

    ``M`` is the all-patterns mask; ``R`` is the register shift mask
    (``M`` for a plain run, ``M & ~segment_starts`` for a segmented
    superword run — see :meth:`CompiledModule.run_levelized`).
    """
    fns = []
    with obs.span("compile:kernel", cat="compile", tag=tag,
                  statements=len(statements)):
        for start in range(0, len(statements), CHUNK_STATEMENTS):
            body = statements[start:start + CHUNK_STATEMENTS] or ["pass"]
            src = "def _k(v, M, R):\n    " + "\n    ".join(body)
            namespace = {}
            code = compile(src, f"<repro.hdl.sim.compile:{tag}:{start}>",
                           "exec")
            exec(code, namespace)
            fns.append(namespace["_k"])
    obs.registry().inc("compile.kernels")
    return fns


def _compile_eval_factories(gates, tag, mask_name="1"):
    """Exec chunks of ``lambda:`` appends building per-gate closures.

    With the default ``mask_name="1"`` the closures are scalar (the
    event simulator's case).  With ``mask_name="M"`` the generated
    functions take the all-patterns mask as an argument and the closures
    evaluate **bit-parallel** over the packed pattern words — what the
    differential fault engine binds against its overlay value list.
    """
    fns = []
    gates = list(gates)
    args = "v, a" if mask_name == "1" else "v, M, a"
    with obs.span("compile:kernel", cat="compile", tag=tag,
                  statements=len(gates)):
        for start in range(0, len(gates), CHUNK_STATEMENTS):
            body = [f"a(lambda: {gate_expr(g, mask_name=mask_name)})"
                    for g in gates[start:start + CHUNK_STATEMENTS]] or ["pass"]
            src = f"def _k({args}):\n    " + "\n    ".join(body)
            namespace = {}
            code = compile(src, f"<repro.hdl.sim.compile:{tag}:{start}>",
                           "exec")
            exec(code, namespace)
            fns.append(namespace["_k"])
    obs.registry().inc("compile.kernels")
    return fns


@dataclass
class CompiledModule:
    """One module flattened and specialized for fast simulation.

    Statement generation (cheap string work) happens at construction;
    the ``compile()``/``exec`` of each of the three kernels is deferred
    to its first use and cached — a consumer that only runs levelized
    patterns (or hands the event loop to the compiled C kernel) never
    pays for the kernels it doesn't call.
    """

    n_nets: int
    n_gates: int
    n_registers: int
    _tag: str = "module"
    _level_stmts: List[str] = field(repr=False, default_factory=list)
    _settle_stmts: List[str] = field(repr=False, default_factory=list)
    _gates: List = field(repr=False, default_factory=list)
    _level_fns: Optional[List[Callable]] = field(repr=False, default=None)
    _settle_fns: Optional[List[Callable]] = field(repr=False, default=None)
    _eval_factories: Optional[List[Callable]] = field(repr=False,
                                                      default=None)
    _masked_eval_factories: Optional[List[Callable]] = field(repr=False,
                                                             default=None)

    def run_levelized(self, values, m, reg_mask=None):
        """Evaluate every gate and register time-shift, bit-parallel.

        ``reg_mask`` (default: ``m``) masks the register time shifts —
        a segmented superword run passes ``m & ~segment_start_bits`` so
        each segment's first pattern sees a cleared flip-flop bank,
        which is exactly what makes concatenated independent stimulus
        sequences bit-identical to separate runs.
        """
        fns = self._level_fns
        if fns is None:
            fns = self._level_fns = _compile_chunks(
                self._level_stmts, f"{self._tag}:levelized")
        if reg_mask is None:
            reg_mask = m
        for fn in fns:
            fn(values, m, reg_mask)

    def settle(self, values):
        """Zero-delay scalar settle of the combinational gates."""
        fns = self._settle_fns
        if fns is None:
            fns = self._settle_fns = _compile_chunks(
                self._settle_stmts, f"{self._tag}:settle")
        for fn in fns:
            fn(values, 1, 1)

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

    def make_masked_gate_evals(self, values, m):
        """Bit-parallel per-gate closures under all-patterns mask ``m``.

        Index ``g`` recomputes gate ``g``'s packed pattern word from the
        current ``values`` — the differential fault engine's inner loop.
        The factories are mask-agnostic and cached; the mask binds per
        call, so engines over different pattern counts share them.
        """
        factories = self._masked_eval_factories
        if factories is None:
            factories = self._masked_eval_factories = \
                _compile_eval_factories(self._gates,
                                        f"{self._tag}:masked-evals",
                                        mask_name="M")
        evals = []
        for fn in factories:
            fn(values, m, evals.append)
        return evals

    @property
    def stats(self):
        compiled = [fns for fns in (self._level_fns, self._settle_fns)
                    if fns is not None]
        return {
            "gates": self.n_gates,
            "registers": self.n_registers,
            "kernel_chunks": sum(len(fns) for fns in compiled),
        }


def compile_module(module):
    """Compile ``module`` into a :class:`CompiledModule` (uncached)."""
    with obs.span("compile:module", cat="compile", module=module.name,
                  gates=len(module.gates)):
        return _compile_module(module)


def _compile_module(module):
    gates = module.gates
    registers = module.registers

    level_stmts = []
    for node in topo_node_order(module):
        if node >= 0:
            gate = gates[node]
            level_stmts.append(f"v[{gate.output}] = {gate_expr(gate)}")
        else:
            reg = registers[-node - 1]
            level_stmts.append(f"v[{reg.q}] = (v[{reg.d}] << 1) & R")
    settle_stmts = [f"v[{gates[idx].output}] = {gate_expr(gates[idx])}"
                    for idx in topo_gate_order(module)]

    return CompiledModule(
        n_nets=module.n_nets,
        n_gates=len(gates),
        n_registers=len(registers),
        _tag=module.name or "module",
        _level_stmts=level_stmts,
        _settle_stmts=settle_stmts,
        _gates=list(gates),
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
