"""Reference event simulator: one global ``heapq`` entry per event.

The historic transport/inertial-delay engine the time wheel, its Python
replay and the C kernel of :mod:`repro.hdl.sim.event` must match
bit-for-bit.  It builds its own delays, fanout lists and per-gate
``cell_eval`` dispatch straight from the module and library, and
settles in plain topological order, so it shares no evaluation code
with the fast paths.
"""

import heapq

from repro.errors import SimulationError
from repro.hdl.cell import cell_eval
from repro.hdl.sim.event import TransitionCounts
from repro.hdl.sim.toposort import topo_gate_order


def _eval_gate(fn, ins, values):
    if len(ins) == 1:
        return fn(1, values[ins[0]]) & 1
    if len(ins) == 2:
        return fn(1, values[ins[0]], values[ins[1]]) & 1
    if len(ins) == 3:
        return fn(1, values[ins[0]], values[ins[1]], values[ins[2]]) & 1
    return fn(1, *[values[n] for n in ins]) & 1


class HeapEventSimulator:
    """Transport-delay simulator, schedule-per-trigger, one heap."""

    def __init__(self, module, library):
        self.module = module
        load = module.load_map(library)
        self._delay = [library.spec(g.kind).delay_ps(load[g.output])
                       for g in module.gates]
        fanout = module.fanout_map()
        self._fanout = [fanout[net] for net in range(module.n_nets)]
        self._eval = [cell_eval(g.kind) for g in module.gates]
        self._order = topo_gate_order(module)
        self._stimulus_nets = set()
        for bus in module.inputs.values():
            self._stimulus_nets.update(bus)
        for reg in module.registers:
            self._stimulus_nets.add(reg.q)
        self.values = [0] * module.n_nets
        self._initialized = False

    def initialize(self, stimulus):
        """Settle from scratch on ``stimulus`` (net -> 0/1, every input
        and register-q net); constants are filled in automatically."""
        module = self.module
        values = self.values
        for net in range(module.n_nets):
            values[net] = 0
        for net, cval in module.constants.items():
            values[net] = cval
        for net in self._stimulus_nets:
            if net not in stimulus:
                raise SimulationError(f"no stimulus for net {net}")
        for net, val in stimulus.items():
            values[net] = val & 1
        for idx in self._order:
            gate = module.gates[idx]
            values[gate.output] = _eval_gate(self._eval[idx], gate.inputs,
                                             values)
        self._initialized = True

    def apply(self, stimulus, toggles_out=None):
        """Apply new stimulus values and simulate to settling."""
        if not self._initialized:
            raise SimulationError("call initialize() before apply()")
        values = self.values
        gates = self.module.gates
        fanout = self._fanout
        delay = self._delay
        evals = self._eval
        toggles = (toggles_out if toggles_out is not None
                   else [0] * self.module.n_nets)
        heap = []
        counter = 0
        events = 0
        cancelled = 0
        # Inertial delay: only the *latest* scheduled evaluation of a net
        # is live; re-evaluating a gate before its pending output event
        # matures cancels that event.
        live_seq = [0] * self.module.n_nets

        def schedule_fanout(net, t):
            nonlocal counter
            for gidx in fanout[net]:
                gate = gates[gidx]
                val = _eval_gate(evals[gidx], gate.inputs, values)
                counter += 1
                live_seq[gate.output] = counter
                heapq.heappush(heap,
                               (t + delay[gidx], counter, gate.output, val))

        # Apply all stimulus changes simultaneously at t = 0.
        items = stimulus.items() if hasattr(stimulus, "items") else stimulus
        changed = []
        for net, val in items:
            val &= 1
            if values[net] != val:
                values[net] = val
                toggles[net] += 1
                changed.append(net)
        settle = 0.0
        for net in changed:
            schedule_fanout(net, 0.0)

        while heap:
            t, seq, net, val = heapq.heappop(heap)
            events += 1
            if seq != live_seq[net]:
                cancelled += 1
                continue            # cancelled by a newer evaluation
            if values[net] == val:
                continue
            values[net] = val
            toggles[net] += 1
            settle = t
            schedule_fanout(net, t)
        return TransitionCounts(toggles=toggles, events_processed=events,
                                settle_time_ps=settle, cancelled=cancelled)


def event_toggles_legacy(module, library, run, stimulus, n_cycles):
    """The seed's replay: fresh heapq simulator, full per-cycle dicts.

    The independent reference for the glitch-toggle equivalence tests
    and the before/after engine benchmark.
    """
    esim = HeapEventSimulator(module, library)
    totals = [0] * module.n_nets

    def cycle_stimulus(t):
        values = {}
        for name, bus in module.inputs.items():
            word = stimulus[name][t] if t < len(stimulus[name]) else 0
            for i, net in enumerate(bus):
                values[net] = (word >> i) & 1
        for reg in module.registers:
            values[reg.q] = run.net_value(reg.q, t)
        return values

    esim.initialize(cycle_stimulus(0))
    for t in range(1, n_cycles):
        counts = esim.apply(cycle_stimulus(t))
        for net, c in enumerate(counts.toggles):
            if c:
                totals[net] += c
    return totals
