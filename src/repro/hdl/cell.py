"""Combinational cell kinds: the one table of their semantics.

Every cell has a single output.  The full adder of the reference
algorithms maps to the pair ``XOR3`` (sum) + ``MAJ3`` (carry), the half
adder to ``XOR2`` + ``AND2`` — single-output cells keep the simulators'
data layout flat and fast.

Each kind is one :class:`CellKind` row of :data:`CELL_KINDS`: a name,
an arity and one boolean expression template.  Everything that needs a
kind's function is rendered from that template — the bit-parallel
evaluator here, the generated-Python and native levelized kernels'
gate cases (:mod:`repro.hdl.sim.compile`, :mod:`repro.hdl.sim.ckernel`),
the event kernel's truth tables, the Verilog export
(:mod:`repro.hdl.export`), the pin symmetries the gate builders'
common-subexpression reuse relies on (:mod:`repro.circuits.primitives`)
and the fault campaigns' mutation moves
(:mod:`repro.eval.fault_injection`).  A new kind is one row here plus
one ``CellSpec`` in :mod:`repro.hdl.library`.

Evaluation is *bit-parallel*: each operand is a Python int whose bit
``t`` is the net's value in pattern ``t``, and ``m`` is the
all-patterns mask (needed to bound inversions).  Scalar evaluation is
the special case ``m = 1``.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Tuple

from repro.errors import NetlistError


@dataclass(frozen=True)
class CellKind:
    """One cell kind: a name, an arity, an expression template and the
    fields derived from them, plus the fault campaigns' rekind flag."""

    name: str
    arity: int
    #: The function as a Python/C expression template: ``{0}`` …
    #: ``{3}`` are the operands, ``{M}`` the all-patterns mask, so
    #: ``({M} ^ x)`` is the complement of ``x``.  Either a lone operand
    #: or one parenthesized group.
    expr: str
    #: ``evaluate(m, *inputs)``, rendered from ``expr``.
    evaluate: Callable
    #: Output for input bits ``in0 = i & 1, in1 = (i >> 1) & 1, …`` at
    #: bit ``i``; bits beyond ``arity`` replicate it, so an unused input
    #: slot never affects the output.
    truth_table: int
    #: Input pin pairs ``(i, j)``, ascending, whose exchange changes the
    #: function (empty: the kind is symmetric in all its inputs).
    swaps: Tuple[Tuple[int, int], ...]
    #: Whether a fault campaign's rekind may turn a gate into this kind.
    rekind_target: bool


def _row(name, arity, expr, rekind_target=True):
    # Four input slots per node-table row (repro.hdl.sim.compile).
    if not 1 <= arity <= 4:
        raise NetlistError(f"cell kind {name}: arity {arity} not in 1..4")
    args = "abcd"[:arity]
    evaluate = eval(f"lambda m, {', '.join(args)}: "
                    + expr.format(*args, M="m"))
    table = 0
    for idx in range(16):
        if evaluate(1, *[(idx >> j) & 1 for j in range(arity)]) & 1:
            table |= 1 << idx
    swaps = tuple(pins for pins in combinations(range(arity), 2)
                  if _swap_changes_function(table, *pins))
    return CellKind(name, arity, expr, evaluate, table, swaps,
                    rekind_target)


def _swap_changes_function(table, i, j):
    """Whether exchanging input pins ``i`` and ``j`` changes the
    function of the 16-entry truth table ``table``."""
    for idx in range(16):
        if (idx >> i ^ idx >> j) & 1:
            swapped = idx ^ (1 << i) ^ (1 << j)
            if (table >> idx ^ table >> swapped) & 1:
                return True
    return False


#: kind -> row, in opcode order (the node table numbers kinds by their
#: position here, so new rows go at the end).
CELL_KINDS = {row.name: row for row in (
    _row("INV", 1, "({M} ^ {0})"),
    _row("BUF", 1, "{0}"),
    _row("AND2", 2, "({0} & {1})"),
    _row("AND3", 3, "({0} & {1} & {2})"),
    _row("OR2", 2, "({0} | {1})"),
    _row("OR3", 3, "({0} | {1} | {2})"),
    _row("NAND2", 2, "({M} ^ ({0} & {1}))"),
    _row("NAND3", 3, "({M} ^ ({0} & {1} & {2}))"),
    _row("NOR2", 2, "({M} ^ ({0} | {1}))"),
    _row("NOR3", 3, "({M} ^ ({0} | {1} | {2}))"),
    _row("XOR2", 2, "({0} ^ {1})"),
    _row("XNOR2", 2, "({M} ^ {0} ^ {1})"),
    _row("XOR3", 3, "({0} ^ {1} ^ {2})"),
    _row("MAJ3", 3, "(({0} & {1}) | ({0} & {2}) | ({1} & {2}))"),
    # Output {0} when {2} = 0, {1} when {2} = 1.  Not a rekind target:
    # adding it to the arity-3 pool would change every fault campaign's
    # random draws and with them the committed report.
    _row("MUX2", 3, "({0} ^ (({0} ^ {1}) & {2}))", rekind_target=False),
    _row("AOI21", 3, "({M} ^ (({0} & {1}) | {2}))"),
    _row("OAI21", 3, "({M} ^ (({0} | {1}) & {2}))"),
    # The Booth-mux workhorse and its dual.
    _row("AO22", 4, "(({0} & {1}) | ({2} & {3}))"),
    _row("OA22", 4, "(({0} | {1}) & ({2} | {3}))"),
)}


def cell_kind(kind):
    """The :class:`CellKind` row of a kind name."""
    try:
        return CELL_KINDS[kind]
    except KeyError:
        raise NetlistError(f"unknown cell kind {kind!r}") from None


def cell_eval(kind):
    """The bit-parallel evaluation function for a cell kind."""
    return cell_kind(kind).evaluate


def cell_num_inputs(kind):
    """The number of input pins of a cell kind."""
    return cell_kind(kind).arity
