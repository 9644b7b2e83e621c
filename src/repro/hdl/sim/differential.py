"""Differential cone-based fault simulation.

A fault campaign asks the same question hundreds of times: *does this
one-gate mutation change any output word the co-simulation battery
checks?*  The full answer — clone the module, recompile it, re-simulate
every gate over every pattern — costs the whole datapath per mutation.
Classic differential fault simulation exploits that a single-gate
mutation can only disturb nets inside the mutated gate's **transitive
fan-out cone**, and that bit-parallel values make "disturb" a word-level
XOR:

1. Simulate the **golden** (unmutated) module once per campaign and keep
   its per-net packed pattern words.
2. For a mutant, evaluate only the mutated gate's new output word over
   the golden input values.  The XOR against the golden word is the
   mutant's *difference word* — zero means the mutation is invisible
   under this battery and no further work happens.
3. Propagate nonzero differences through the fan-out cone only, popping
   nodes from a min-heap keyed by their levelized (topological)
   position: when a node is popped, every producer that could have
   changed its inputs has already been evaluated, so each node is
   evaluated at most once and each net written at most once.  Nodes
   whose re-evaluated output equals the current overlay value are
   pruned — their consumers are never scheduled.
4. Pipeline registers are difference *time shifts*: a register forwards
   ``(diff_d << 1) & mask``, exactly the ``q = d << 1`` model of the
   levelized simulator, so an ``L``-stage pipeline's latency is handled
   by construction — a stage-1 difference reaches the outputs ``L - 1``
   pattern positions later, where the observation masks expect it.
5. **Early exit:** the moment a changed net carries a difference bit
   inside an :class:`Observation` mask (an output-bus net, restricted to
   the pattern window the battery actually checks), the mutant is
   *detected* and the remaining cone is abandoned.

Gate evaluation reuses the compiled per-gate closures of
:mod:`repro.hdl.sim.compile` (``make_masked_gate_evals``) over a shared
overlay value list, so the inner loop runs the same generated
expressions as the levelized kernel; verdicts are therefore
**bit-identical** to a full re-simulation — asserted by the equivalence
suite and raced in CI.  Netlists are feed-forward (validated acyclic),
which the single-visit heap discipline relies on.
"""

import heapq
from dataclasses import dataclass
from typing import Dict

from repro import obs
from repro.bits.utils import mask
from repro.errors import SimulationError
from repro.hdl.cell import cell_eval
from repro.hdl.sim.compile import compiled_module
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.sim.toposort import topo_node_order


@dataclass(frozen=True)
class Observation:
    """Which ``(net, pattern)`` bits a battery actually checks.

    ``masks`` maps a net id to the packed pattern positions observed on
    it — for a pipelined multiplier's output bus that is the window
    ``[latency, n_patterns)``, the cycles whose results the checker
    compares.  Registers are deliberately *not* observation points: a
    difference parked in a flip-flop is only a fault if it later
    surfaces inside one of these masks (scan-style observability can be
    modelled by adding register q nets to ``masks`` explicitly).
    """

    masks: Dict[int, int]

    def window(self, nets, pattern_mask):
        """A copy with ``pattern_mask`` added on every net of ``nets``."""
        merged = dict(self.masks)
        for net in nets:
            merged[net] = merged.get(net, 0) | pattern_mask
        return Observation(masks=merged)


def output_observation(module, first_pattern, n_patterns, buses=None):
    """Observe ``module``'s output buses over ``[first_pattern, n)``.

    The standard campaign observation: every net of every named output
    bus (default: all outputs), masked to the pattern window the
    battery checks — the first ``first_pattern`` positions are pipeline
    fill and ignored.
    """
    window = mask(n_patterns) & ~mask(first_pattern)
    masks: Dict[int, int] = {}
    names = module.outputs if buses is None else buses
    for name in names:
        for net in module.outputs[name]:
            masks[net] = masks.get(net, 0) | window
    return Observation(masks=masks)


@dataclass(frozen=True)
class MutantVerdict:
    """One mutant's differential outcome and its cost accounting."""

    detected: bool
    gates_evaluated: int     # gate re-evaluations incl. the mutant itself
    cone_size: int           # static transitive fan-out cone (node count)
    early_exit: bool         # detection abandoned pending cone work


class DifferentialEngine:
    """Golden-run-sharing mutant evaluator for one module + battery.

    Construction simulates the golden module once (bit-parallel over all
    patterns) and precomputes everything every mutant shares: the
    fan-out adjacency over gates *and* registers, levelized node
    positions, and the compiled masked per-gate evaluation closures
    bound to a reusable overlay value list.  :meth:`run_mutant` then
    costs O(cone) per mutation instead of O(module).
    """

    def __init__(self, module, stimulus, n_patterns, observation,
                 golden=None):
        self.module = module
        self.n_patterns = n_patterns
        self.m = mask(n_patterns)
        self.observation = observation
        if golden is None:
            # Golden kernel invocations are the fault-sim cost driver
            # the benchmarks gate on: a campaign that shares one golden
            # run across its chunks (``campaign_engine``) pays this once
            # per (module, battery) instead of once per chunk — the
            # counter is how that reduction is proved.
            obs.registry().inc("fault.golden_runs")
            with obs.span("fault:golden", cat="fault", module=module.name,
                          patterns=n_patterns):
                golden = LevelizedSimulator(module).run(stimulus,
                                                        n_patterns)
        self.golden = golden
        self._golden = self.golden.values
        #: The overlay: golden everywhere except a mutant's changed nets
        #: while :meth:`run_mutant` is in flight (restored before return).
        self._work = list(self._golden)

        gates = module.gates
        registers = module.registers
        self._gates = gates
        self._registers = registers

        # Levelized positions for gates (>= 0) and registers (-1 - ridx).
        self._gate_pos = [0] * len(gates)
        self._reg_pos = [0] * len(registers)
        for pos, node in enumerate(topo_node_order(module)):
            if node >= 0:
                self._gate_pos[node] = pos
            else:
                self._reg_pos[-node - 1] = pos

        # Fan-out adjacency: net -> consuming nodes, registers included.
        consumers = [[] for __ in range(module.n_nets)]
        for idx, gate in enumerate(gates):
            for net in gate.inputs:
                consumers[net].append(idx)
        for ridx, reg in enumerate(registers):
            consumers[reg.d].append(-1 - ridx)
        self._consumers = consumers

        self._evals = compiled_module(module).make_masked_gate_evals(
            self._work, self.m)
        self._cone_cache: Dict[int, int] = {}

    def cone_size(self, gate_index):
        """Static transitive fan-out cone node count (gate included)."""
        size = self._cone_cache.get(gate_index)
        if size is not None:
            return size
        seen = set()
        frontier = [self._gates[gate_index].output]
        visited_nets = {frontier[0]}
        while frontier:
            net = frontier.pop()
            for node in self._consumers[net]:
                if node in seen:
                    continue
                seen.add(node)
                out = (self._gates[node].output if node >= 0
                       else self._registers[-node - 1].q)
                if out not in visited_nets:
                    visited_nets.add(out)
                    frontier.append(out)
        size = len(seen) + 1
        self._cone_cache[gate_index] = size
        return size

    def run_mutant(self, gate_index, mutant):
        """Judge one mutant: ``mutant`` virtually replaces gate ``gate_index``.

        The mutant gate must drive the same output net as the original
        (rekinds and pin swaps do); its new word is evaluated over the
        golden input values and the XOR difference propagates through
        the fan-out cone only.  Returns a :class:`MutantVerdict` whose
        ``detected`` matches what a full re-simulation plus battery
        comparison would conclude, provided the golden run itself passes
        the battery (the campaign driver asserts that once).
        """
        original = self._gates[gate_index]
        if mutant.output != original.output:
            raise SimulationError(
                "differential mutants must keep the gate's output net")
        golden = self._golden
        work = self._work
        m = self.m
        obs_masks = self.observation.masks
        consumers = self._consumers
        gates = self._gates
        registers = self._registers
        gate_pos = self._gate_pos
        reg_pos = self._reg_pos
        evals = self._evals

        heap = []
        queued = set()
        touched = []
        detected = False
        gates_evaluated = 1

        def flush(net, value):
            """Commit a changed net; True when an observed bit diverges."""
            work[net] = value
            touched.append(net)
            for node in consumers[net]:
                if node not in queued:
                    queued.add(node)
                    pos = gate_pos[node] if node >= 0 else reg_pos[-node - 1]
                    heapq.heappush(heap, (pos, node))
            om = obs_masks.get(net)
            return om is not None and bool((value ^ golden[net]) & om)

        value = cell_eval(mutant.kind)(
            m, *[golden[net] for net in mutant.inputs]) & m
        if value != golden[original.output]:
            detected = flush(original.output, value)

        while heap and not detected:
            __, node = heapq.heappop(heap)
            if node >= 0:
                value = evals[node]()
                gates_evaluated += 1
                out = gates[node].output
            else:
                reg = registers[-node - 1]
                value = (work[reg.d] << 1) & m
                out = reg.q
            if value != work[out]:
                detected = flush(out, value)

        early = detected and bool(heap)
        for net in touched:
            work[net] = golden[net]
        return MutantVerdict(detected=detected,
                             gates_evaluated=gates_evaluated,
                             cone_size=self.cone_size(gate_index),
                             early_exit=early)
