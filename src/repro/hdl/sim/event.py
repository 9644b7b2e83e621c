"""Event-driven timing simulation with glitch propagation.

The paper's central power observation (Table III) is that deep
combinational logic burns energy in *glitches* — spurious transitions
caused by unequal path delays — and that pipelining, by shortening the
paths between registers, removes much of that energy.  A zero-delay
simulator cannot see this at all; this transport-delay event simulator
counts every transition each net actually makes, using the same
load-dependent cell delays as the static timing engine.

Registers are *not* simulated here: the caller (the power estimator)
treats register outputs as stimulus nets whose per-cycle values come
from the exact levelized simulation, which is both faster and exact for
feed-forward pipelines.

The engine is a bucketed **time wheel**: pending events are grouped
by their exact maturity time in a dict of FIFO buckets, with a small
heap over the *distinct* times only.  Cell delays come from a small
discrete set, so event times collide massively and the heap holds one
entry per distinct timestamp instead of one per event.  Gate outputs
are recomputed through the compiled per-gate closures of
:mod:`repro.hdl.sim.compile`, and the zero-delay settle in
:meth:`EventSimulator.initialize` runs the compiled kernel.  Stimulus
can be a *delta* — just the nets that changed — so callers replaying a
cycle sequence need not rebuild a full per-cycle dict.

Events are processed in ascending time, insertion order within a
timestamp, with inertial cancellation — the order of the historic
one-heap-entry-per-event engine, which ``tests/oracles/event_heap.py``
keeps as the reference the wheel must match bit-for-bit.

For long cycle replays :meth:`EventSimulator.replay` additionally uses
the optional compiled C kernel (:mod:`repro.hdl.sim.ckernel`) when a
system C compiler is available — the same event order and cancellation
rule executed outside the interpreter, again bit-identical.
"""

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.errors import SimulationError
from repro.hdl.sim import ckernel
from repro.hdl.sim.compile import compiled_module


@dataclass
class TransitionCounts:
    """Per-net transition counts for one applied input change."""

    toggles: List[int]        # index = net id
    events_processed: int
    settle_time_ps: float
    #: Events swallowed by inertial cancellation (subset of processed).
    cancelled: int = 0
    #: Distinct timestamps the wheel visited.
    wheel_buckets: int = 0
    #: Largest single-timestamp bucket.
    wheel_max_bucket: int = 0

    def total(self):
        return sum(self.toggles)


class EventSimulator:
    """Transport-delay simulator over one module's combinational gates."""

    #: Reported as ``sim_stats["engine"]`` and on ``sim:replay`` spans.
    engine = "wheel"

    def __init__(self, module, library):
        self.module = module
        self.library = library
        load = module.load_map(library)
        self._delay = [0.0] * len(module.gates)
        for idx, gate in enumerate(module.gates):
            spec = library.spec(gate.kind)
            self._delay[idx] = spec.delay_ps(load[gate.output])
        fanout = module.fanout_map()
        self._fanout = [fanout[net] for net in range(module.n_nets)]
        self._out = [g.output for g in module.gates]
        self.values: List[int] = [0] * module.n_nets
        #: Canonical stimulus order: input buses LSB-first, register q
        #: nets last — the order every stimulus dict is built in, which
        #: :meth:`replay` reproduces for bit-identical event order.
        self._stim_order = []
        for bus in module.inputs.values():
            self._stim_order.extend(bus)
        for reg in module.registers:
            self._stim_order.append(reg.q)
        self._stimulus_nets = set(self._stim_order)
        self._initialized = False
        self._compiled = compiled_module(module)
        # Per-gate closures recomputing each output bit from self.values.
        # Built on first use: a replay served entirely by the compiled C
        # kernel never needs them.
        self._gate_val = None
        # Persistent wheel scratch: monotone sequence counters make the
        # arrays reusable across apply() calls without clearing.
        self._live_seq = [0] * module.n_nets
        self._trig_mark = [0] * len(module.gates)
        self._counter = 0
        # Compiled C kernel for replay(), when a compiler is available.
        self._ck = None
        lib = ckernel.load_kernel()
        if lib is not None:
            self._ck = ckernel.CKernel(lib, module, self._delay,
                                       self._fanout, self._stim_order)
        #: Cumulative perf counters across every apply()/replay() on
        #: this instance.
        self.stats = {"applies": 0, "events": 0, "cancelled": 0,
                      "wheel_buckets": 0, "wheel_max_bucket": 0}

    @property
    def kernel(self):
        """``"c"`` when :meth:`replay` runs the compiled kernel."""
        return "c" if self._ck is not None else "python"

    # ------------------------------------------------------------------

    def initialize(self, stimulus):
        """Settle the network from scratch on the given stimulus values.

        ``stimulus`` maps net id -> 0/1 for every input and register-q
        net; constants are filled in automatically.
        """
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
        # Zero-delay settle in topological order.
        self._compiled.settle(values)
        self._initialized = True

    def apply(self, stimulus, toggles_out=None):
        """Apply new stimulus values; simulate transitions to settling.

        ``stimulus`` is a net -> 0/1 mapping or an iterable of
        ``(net, value)`` pairs; nets already at their given value are
        ignored, so callers may pass either the full stimulus vector or
        only a delta of changed nets.  ``toggles_out``, if given, is a
        per-net counter list that toggles are *accumulated into* (and
        returned as ``TransitionCounts.toggles``) — callers replaying
        long cycle sequences use one accumulator instead of merging a
        fresh 20k-entry list per transition.  Returns a
        :class:`TransitionCounts` (stimulus-net toggles included, so
        input-driving energy can be attributed to loads).
        """
        if not self._initialized:
            raise SimulationError("call initialize() before apply()")
        # Two provably order-preserving optimizations over the reference
        # heap engine's schedule-per-trigger discipline:
        #
        # 1. *Deferred evaluation*: of the several evaluations a gate
        #    gets while one timestamp's bucket drains (one per changed
        #    input), only the last can survive inertial cancellation,
        #    and after that last trigger the gate's inputs cannot change
        #    again within the bucket (a change would be a new trigger).
        #    So a trigger only bumps the output's ``live_seq`` (that
        #    must happen immediately — it is what cancels the gate's
        #    pending events, including ones later in the bucket being
        #    drained) and records itself in ``trig_mark``; the gate is
        #    evaluated once, after the bucket drains, in last-trigger
        #    order — the exact value and relative event order the heap
        #    engine produces.
        # 2. *No-op suppression*: when the evaluated output equals the
        #    net's current value, no event is scheduled — bumping
        #    ``live_seq`` already cancelled any pending event for the
        #    net, after which nothing can change it before the skipped
        #    event would have matured, so that event could only have
        #    been a no-op at pop time too.  (This is also why the pop
        #    loop below needs no ``values[out] == val`` re-check.)
        #
        # Both change ``events_processed`` bookkeeping relative to the
        # heap engine but provably not toggles, values or settle time.
        values = self.values
        fanout = self._fanout
        delay = self._delay
        outs = self._out
        gate_val = self._gate_val
        if gate_val is None:
            gate_val = self._gate_val = self._compiled.make_gate_evals(values)
        n_nets = self.module.n_nets
        toggles = toggles_out if toggles_out is not None else [0] * n_nets
        live_seq = self._live_seq
        trig_mark = self._trig_mark
        counter = self._counter
        wheel: Dict[float, list] = {}
        times: List[float] = []
        push = heapq.heappush
        pop = heapq.heappop
        events = 0
        cancelled = 0
        n_buckets = 0
        max_bucket = 0
        settle = 0.0

        items = stimulus.items() if hasattr(stimulus, "items") else stimulus
        trig_list = []
        append_trig = trig_list.append
        for net, val in items:
            val &= 1
            if values[net] != val:
                values[net] = val
                toggles[net] += 1
                for g in fanout[net]:
                    counter += 1
                    trig_mark[g] = counter
                    live_seq[outs[g]] = counter
                    append_trig(g)

        t = 0.0
        while True:
            # Evaluate each gate triggered at time t once, in
            # last-trigger order, scheduling only value-changing events.
            i = counter - len(trig_list)
            for g in trig_list:
                i += 1
                if trig_mark[g] != i:
                    continue            # re-triggered later at this time
                val = gate_val[g]()
                counter += 1
                out = outs[g]
                live_seq[out] = counter
                if values[out] == val:
                    continue
                te = t + delay[g]
                bucket = wheel.get(te)
                if bucket is None:
                    wheel[te] = bucket = []
                    push(times, te)
                bucket.append((out, val, counter))
            if not times:
                break
            t = pop(times)
            bucket = wheel.pop(t)
            n_buckets += 1
            if len(bucket) > max_bucket:
                max_bucket = len(bucket)
            trig_list = []
            append_trig = trig_list.append
            for out, val, seq in bucket:
                events += 1
                if seq != live_seq[out]:
                    cancelled += 1
                    continue            # cancelled by a newer evaluation
                values[out] = val
                toggles[out] += 1
                settle = t
                for g in fanout[out]:
                    counter += 1
                    trig_mark[g] = counter
                    live_seq[outs[g]] = counter
                    append_trig(g)

        self._counter = counter
        stats = self.stats
        stats["applies"] += 1
        stats["events"] += events
        stats["cancelled"] += cancelled
        stats["wheel_buckets"] += n_buckets
        if max_bucket > stats["wheel_max_bucket"]:
            stats["wheel_max_bucket"] = max_bucket
        return TransitionCounts(toggles=toggles, events_processed=events,
                                settle_time_ps=settle, cancelled=cancelled,
                                wheel_buckets=n_buckets,
                                wheel_max_bucket=max_bucket)

    # ------------------------------------------------------------------
    # cycle-sequence replay
    # ------------------------------------------------------------------

    def replay(self, packed_values, t_first, t_last, toggles_out=None):
        """Replay cycle transitions ``t_first..t_last`` (inclusive).

        ``packed_values`` are a levelized run's per-net pattern words
        (bit ``t`` = the net's zero-delay value in cycle ``t``) — a list
        of ints or, as a native run's ``packed`` gives them, its limb
        buffer — which must cover cycle ``t_last``.  The network seeds itself from
        cycle ``t_first - 1`` — for feed-forward logic the event
        simulator's settled state equals the zero-delay state, so no
        settle pass is needed — then steps the stimulus nets through
        each cycle's values in the canonical stimulus order.

        Transitions run on the compiled C kernel when available
        (:attr:`kernel` is ``"c"``) and otherwise on the Python wheel,
        one :meth:`apply` delta per transition — the fallback when no C
        compiler is available.  Both process events in the identical
        total order by (maturity time, schedule sequence), so the
        accumulated per-net toggle counts are **bit-identical**.

        Returns an aggregate :class:`TransitionCounts` over the whole
        window (``settle_time_ps`` is the final transition's).  On
        return the simulator holds cycle ``t_last``'s settled state.
        """
        if t_first < 1 or t_last < t_first:
            raise SimulationError(
                f"bad transition window [{t_first}, {t_last}]")
        n_nets = self.module.n_nets
        if len(packed_values) < n_nets:
            raise SimulationError("packed_values must cover every net")
        toggles = toggles_out if toggles_out is not None else [0] * n_nets
        transitions = t_last - t_first + 1
        events = cancelled = 0
        n_buckets = 0
        max_bucket = 0
        settle = 0.0
        t0 = time.perf_counter()

        if self._ck is not None:
            ck = self._ck
            buf = ck.limbs(packed_values)
            ck.zero_toggles()
            ck.seed(buf, t_first - 1)
            t = t_first
            while t <= t_last:
                span = min(ckernel.WINDOW_TRANSITIONS, t_last - t + 1)
                ev, ca, settle = ck.run(buf, t - 1, span)
                events += ev
                cancelled += ca
                t += span
            # Publish the kernel's state: toggle totals, and the settled
            # scalar values (cycle t_last), so apply() can continue.
            ck_toggles = ck.toggles
            for net in range(n_nets):
                count = ck_toggles[net]
                if count:
                    toggles[net] += count
            values = self.values
            ck_values = ck.values
            for net in range(n_nets):
                values[net] = ck_values[net]
            self._initialized = True
            stats = self.stats
            stats["applies"] += transitions
            stats["events"] += events
            stats["cancelled"] += cancelled
        else:
            if isinstance(packed_values, ckernel.LimbBuffer):
                packed_values = packed_values.words()
            stim_order = self._stim_order
            self.initialize({net: (packed_values[net] >> (t_first - 1)) & 1
                             for net in stim_order})
            for t in range(t_first, t_last + 1):
                delta = [(net, (packed_values[net] >> t) & 1)
                         for net in stim_order
                         if ((packed_values[net] >> (t - 1))
                             ^ (packed_values[net] >> t)) & 1]
                counts = self.apply(delta, toggles_out=toggles)
                events += counts.events_processed
                cancelled += counts.cancelled
                n_buckets += counts.wheel_buckets
                if counts.wheel_max_bucket > max_bucket:
                    max_bucket = counts.wheel_max_bucket
                settle = counts.settle_time_ps
                # apply() maintains self.stats per transition already.

        reg = obs.registry()
        reg.inc("sim.replay.calls")
        reg.inc("sim.replay.transitions", transitions)
        reg.inc("sim.replay.events", events)
        reg.inc("sim.replay.cancellations", cancelled)
        obs.complete_event(
            "sim:replay", t0, time.perf_counter() - t0, cat="sim",
            module=self.module.name, kernel=self.kernel,
            engine=self.engine, transitions=transitions, events=events)

        return TransitionCounts(toggles=toggles, events_processed=events,
                                settle_time_ps=settle, cancelled=cancelled,
                                wheel_buckets=n_buckets,
                                wheel_max_bucket=max_bucket)
