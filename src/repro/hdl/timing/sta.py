"""Static timing analysis.

Computes per-net arrival times with the library's load-dependent cell
delays, extracts the critical path, and produces the per-block breakdown
the paper reports in Tables I and II (pre-computation / PPGEN / TREE /
CPA segments of the critical path).

Timing starts (arrival 0) are primary inputs and register outputs;
timing ends are primary outputs and register inputs.  For pipelined
modules each register *stage* yields its own :class:`StageTiming`, and
the achievable clock period is the worst stage delay plus the register
overhead (clk->q + setup), matching the paper's "about 3 FO4 of pipeline
overhead" accounting (Sec. III-D).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hdl.library import FO4_PS
from repro.hdl.sim.toposort import topo_gate_order


@dataclass(frozen=True)
class PathSegment:
    """A contiguous run of the critical path inside one block."""

    block: str
    delay_ps: float
    gates: int


@dataclass
class StageTiming:
    """Timing of one pipeline stage (or the whole combinational module)."""

    stage: int
    delay_ps: float
    endpoint: int                         # net id of the worst endpoint
    path_gates: List[int] = field(default_factory=list)  # gate indices


@dataclass
class TimingReport:
    """Full timing picture of a module."""

    stages: List[StageTiming]
    register_overhead_ps: float

    @property
    def critical_stage(self):
        return max(self.stages, key=lambda s: s.delay_ps)

    @property
    def clock_period_ps(self):
        """Achievable clock period for the pipelined implementation."""
        overhead = self.register_overhead_ps if len(self.stages) > 1 else 0.0
        return self.critical_stage.delay_ps + overhead

    @property
    def latency_ps(self):
        if len(self.stages) == 1:
            return self.stages[0].delay_ps
        return self.clock_period_ps * len(self.stages)

    @property
    def latency_fo4(self):
        return self.latency_ps / FO4_PS


def analyze(module, library):
    """Run STA on ``module``; returns a :class:`TimingReport`."""
    load = module.load_map(library)
    arrival = [0.0] * module.n_nets
    from_gate: List[Optional[int]] = [None] * module.n_nets

    order = topo_gate_order(module)
    gates = module.gates
    for idx in order:
        gate = gates[idx]
        delay = library.spec(gate.kind).delay_ps(load[gate.output])
        best_arr = 0.0
        for net in gate.inputs:
            if arrival[net] > best_arr:
                best_arr = arrival[net]
        arrival[gate.output] = best_arr + delay
        from_gate[gate.output] = idx

    # Group endpoints per stage: register d-pins belong to their stage,
    # primary outputs to the last stage.
    n_stages = module.stage_count()
    endpoints: Dict[int, List[int]] = {s: [] for s in range(1, n_stages + 1)}
    for reg in module.registers:
        endpoints[reg.stage].append(reg.d)
    for bus in module.outputs.values():
        endpoints[n_stages].extend(bus)

    stages = []
    for stage in sorted(endpoints):
        nets = endpoints[stage]
        if not nets:
            continue
        worst = max(nets, key=lambda n: arrival[n])
        stages.append(StageTiming(
            stage=stage,
            delay_ps=arrival[worst],
            endpoint=worst,
            path_gates=_trace_path(module, arrival, from_gate, worst),
        ))
    if not stages:
        raise SimulationError("module has no timing endpoints")
    return TimingReport(stages=stages,
                        register_overhead_ps=library.register.overhead_ps)


def _trace_path(module, arrival, from_gate, endpoint):
    """Walk the worst path backwards from an endpoint; gate indices in order."""
    path = []
    net = endpoint
    while from_gate[net] is not None:
        gidx = from_gate[net]
        path.append(gidx)
        gate = module.gates[gidx]
        net = max(gate.inputs, key=lambda n: arrival[n])
    path.reverse()
    return path


def critical_path_breakdown(module, library, stage=None, blocks=None):
    """Per-block delay contributions along a critical path.

    ``blocks`` optionally gives the top-level block tags in reporting
    order (e.g. ``["precomp", "ppgen", "tree", "cpa"]``); unlisted tags
    are appended.  Returns a list of :class:`PathSegment`.
    """
    report = analyze(module, library)
    if stage is None:
        timing = report.critical_stage
    else:
        matches = [s for s in report.stages if s.stage == stage]
        if not matches:
            raise SimulationError(f"no stage {stage} in module")
        timing = matches[0]

    load = module.load_map(library)
    contrib: Dict[str, Tuple[float, int]] = {}
    for gidx in timing.path_gates:
        gate = module.gates[gidx]
        delay = library.spec(gate.kind).delay_ps(load[gate.output])
        top = gate.block.split("/", 1)[0] if gate.block else "(top)"
        d, n = contrib.get(top, (0.0, 0))
        contrib[top] = (d + delay, n + 1)

    ordered = list(blocks) if blocks else []
    for tag in contrib:
        if tag not in ordered:
            ordered.append(tag)
    return [PathSegment(block=tag, delay_ps=contrib[tag][0],
                        gates=contrib[tag][1])
            for tag in ordered if tag in contrib]
