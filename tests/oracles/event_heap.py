"""Reference event simulator: one global ``heapq`` entry per event.

The historic transport/inertial-delay engine the time wheel, its Python
replay and the C kernel of :mod:`repro.hdl.sim.event` must match
bit-for-bit.  It builds its own loads, delays and fanout lists straight
from the module and library, evaluates each gate with the hand-written
function of ``oracles.cells`` and settles in the gates of the module
index's topological order, so it shares no evaluation code with the
fast paths.

Given a ``bucket_ps``, it also counts what the C kernel's bucket ring
reports as ``ring_shared_buckets``: the new pending maturity times whose
bucket ``floor(t / bucket_ps)`` already holds another pending time.  A
time is pending from its first scheduled event until the next distinct
time starts draining, as a slot is in the ring.
"""

import heapq
import math

from repro.errors import SimulationError
from repro.hdl.sim.event import TransitionCounts
from tests.oracles.cells import reference_eval


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

    def __init__(self, module, library, bucket_ps=None):
        self.module = module
        self._bucket_ps = bucket_ps
        load = [0.0] * module.n_nets
        self._fanout = [[] for __ in range(module.n_nets)]
        for gidx, (kind, inputs, __, __) in enumerate(module.gates):
            for net in inputs:
                load[net] += library.spec(kind).input_cap
                self._fanout[net].append(gidx)
        for d, __, __, __ in module.registers:
            load[d] += library.register.input_cap
        for bus in module.outputs.values():
            for net in bus:
                load[net] += library.output_load
        self._delay = [library.spec(kind).delay_ps(load[output])
                       for kind, __, output, __ in module.gates]
        self._eval = [reference_eval(kind)
                      for kind, __, __, __ in module.gates]
        self._order = [node for node in module.index.node_order()
                       if node >= 0]
        self._stimulus_nets = set()
        for bus in module.inputs.values():
            self._stimulus_nets.update(bus)
        for __, q, __, __ in module.registers:
            self._stimulus_nets.add(q)
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
            __, inputs, output, __ = module.gates[idx]
            values[output] = _eval_gate(self._eval[idx], inputs, values)
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
        # Ring occupancy: the pending times, and how many of them each
        # bucket holds.
        q = self._bucket_ps
        pending = set()
        in_bucket = {}
        shared = 0

        def schedule_fanout(net, t):
            nonlocal counter, shared
            for gidx in fanout[net]:
                __, inputs, output, __ = gates[gidx]
                val = _eval_gate(evals[gidx], inputs, values)
                counter += 1
                live_seq[output] = counter
                te = t + delay[gidx]
                if q and te not in pending:
                    pending.add(te)
                    b = math.floor(te / q)
                    shared += in_bucket.get(b, 0) > 0
                    in_bucket[b] = in_bucket.get(b, 0) + 1
                heapq.heappush(heap, (te, counter, output, val))

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

        # Time-wheel occupancy: each distinct maturity time popped is
        # one slot; a slot holds the run of events popped at its time.
        n_slots = max_slot = run = 0
        t_prev = None
        while heap:
            t, seq, net, val = heapq.heappop(heap)
            events += 1
            if t == t_prev:
                run += 1
            else:
                if q and t_prev is not None:    # its slot is drained
                    pending.remove(t_prev)
                    in_bucket[math.floor(t_prev / q)] -= 1
                n_slots += 1
                run = 1
                t_prev = t
            max_slot = max(max_slot, run)
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
                                settle_time_ps=settle, cancelled=cancelled,
                                wheel_buckets=n_slots,
                                wheel_max_bucket=max_slot,
                                ring_bucket_ps=q or 0.0,
                                ring_shared_buckets=shared)


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
        for __, q, __, __ in module.registers:
            values[q] = run.net_value(q, t)
        return values

    esim.initialize(cycle_stimulus(0))
    for t in range(1, n_cycles):
        counts = esim.apply(cycle_stimulus(t))
        for net, c in enumerate(counts.toggles):
            if c:
                totals[net] += c
    return totals
