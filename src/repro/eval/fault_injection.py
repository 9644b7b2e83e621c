"""Fault injection: how strong is the co-simulation as a checker?

A reproduction whose gate-level model is verified only by construction
could hide systematic errors.  This harness *mutates* netlists —
replacing one cell's function with a different same-arity function, or
swapping two input pins — and measures how often a modest co-simulation
battery catches the mutation.  High mutation coverage is evidence the
equivalence tests in this repository actually constrain the netlists.

A campaign simulates the golden module once against the battery
(:func:`campaign_engine` caches that check per target and battery
width), then judges each mutant by settling the golden compiled module
with the mutated gate's node-table row replaced
(:meth:`~repro.hdl.sim.compile.CompiledModule.with_gate`) on the usual
:class:`~repro.hdl.sim.levelized.LevelizedSimulator` path, native or
generated Python.  A rekind or pin swap drives the same output net from
the same input nets, so the golden topological order holds for every
mutant and nothing is re-sorted or rebuilt.  The clone-and-re-simulate
reference the campaign must match verdict for verdict lives in
``tests/oracles/fault_resim.py``.

Both kinds of move are derived from the cell table
(:data:`repro.hdl.cell.CELL_KINDS`): the rekind pools group its rows by
arity in table order, and a pin swap is offered exactly where it
changes the row's truth table.

The battery itself is data (:class:`Battery`: stimulus + expected
output words per pattern).  The orchestrator's ``fault_r16``/``fault_mf``
experiments shard a campaign into :func:`coverage_chunk` leaves along
:func:`chunk_plan` and merge them with :func:`merge_coverage`.
"""

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.errors import SimulationError
from repro.hdl.cell import CELL_KINDS, cell_num_inputs
from repro.hdl.module import Gate
from repro.hdl.sim.compile import compiled_module
from repro.hdl.sim.levelized import LevelizedSimulator

#: Same-arity replacement pools in cell-table order (a mutation picks a
#: *different* kind).
_MUTATION_POOLS = {
    arity: [row.name for row in CELL_KINDS.values()
            if row.arity == arity and row.rekind_target]
    for arity in sorted({row.arity for row in CELL_KINDS.values()})}


@dataclass
class Mutation:
    """One injected fault."""

    gate_index: int
    description: str


@dataclass
class CoverageResult:
    """Outcome of a mutation-coverage campaign."""

    attempted: int
    detected: int
    survivors: List[Mutation] = field(default_factory=list)

    @property
    def coverage(self):
        if not self.attempted:
            return 0.0
        return self.detected / self.attempted

    def render(self):
        lines = [
            "Mutation coverage of the co-simulation battery",
            f"mutations injected : {self.attempted}",
            f"detected           : {self.detected} "
            f"({self.coverage:.1%})",
        ]
        for mutation in self.survivors[:10]:
            lines.append(f"  survivor: {mutation.description}")
        hidden = len(self.survivors) - 10
        if hidden > 0:
            lines.append(f"  … and {hidden} more survivors")
        return "\n".join(lines)


def propose_mutation(module, rng, arities=None):
    """Draw one random functional mutation without applying it.

    Mutations: change a cell kind within its arity pool, or swap two
    distinct input nets where the swap changes the cell's function
    (the row's ``swaps``; a commutative swap would be an equivalent
    mutant and poison the coverage metric).  Returns
    ``(gate_index, mutant_gate, Mutation)``.  ``arities`` is the
    optional precomputed per-gate input count list — campaigns compute
    it once and share it across every mutation instead of re-deriving
    cell arities per attempt.
    """
    for __ in range(100):
        idx = rng.randrange(len(module.gates))
        gate = module.gates[idx]
        arity = arities[idx] if arities is not None \
            else cell_num_inputs(gate.kind)
        choices = [k for k in _MUTATION_POOLS.get(arity, [])
                   if k != gate.kind]
        swaps = [(i, j) for i, j in CELL_KINDS[gate.kind].swaps
                 if gate.inputs[i] != gate.inputs[j]]
        moves = []
        if choices:
            moves.append("rekind")
        if swaps:
            moves.append("swap")
        if not moves:
            continue
        move = rng.choice(moves)
        if move == "rekind":
            new_kind = rng.choice(choices)
            mutant = Gate(new_kind, gate.inputs, gate.output, gate.block)
            return idx, mutant, Mutation(
                idx, f"gate {idx}: {gate.kind} -> {new_kind} "
                     f"in {gate.block!r}")
        i, j = rng.choice(swaps)
        ins = list(gate.inputs)
        ins[i], ins[j] = ins[j], ins[i]
        mutant = Gate(gate.kind, tuple(ins), gate.output, gate.block)
        return idx, mutant, Mutation(
            idx, f"gate {idx}: swapped pins {i}/{j} of "
                 f"{gate.kind} in {gate.block!r}")
    raise SimulationError("could not find a mutable gate")


# ----------------------------------------------------------------------
# the battery as data
# ----------------------------------------------------------------------

@dataclass
class Battery:
    """A co-simulation battery in data form.

    ``stimulus`` maps input bus names to per-pattern words;
    ``expected`` maps output bus names to per-pattern expected words,
    with ``None`` marking unchecked positions (pipeline fill cycles).
    """

    stimulus: Dict[str, List[int]]
    n_patterns: int
    expected: Dict[str, List[Optional[int]]]

    def check_run(self, module, run):
        """True when ``run`` meets every checked expectation."""
        for name, words in self.expected.items():
            got = run.bus_words(module.outputs[name])
            for t, want in enumerate(words):
                if want is not None and got[t] != want:
                    return False
        return True


def multiplier_battery(module, cases):
    """The 64x64 multiplier battery: ``p`` must equal ``x * y``.

    An ``L``-stage pipeline answers ``cases[t]`` at pattern
    ``t + L - 1``; the fill positions are unchecked.
    """
    latency = module.stage_count() - 1
    expected: List[Optional[int]] = [None] * len(cases)
    for t in range(len(cases) - latency):
        x, y = cases[t]
        expected[t + latency] = x * y
    return Battery(stimulus={"x": [c[0] for c in cases],
                             "y": [c[1] for c in cases]},
                   n_patterns=len(cases),
                   expected={"p": expected})


def mf_battery(operations):
    """The MF-unit battery: ``ph``/``pl`` vs the functional model.

    Drives :func:`repro.core.pipeline_unit.issue_stimulus` — the layout
    :meth:`~repro.core.pipeline_unit.MFMultUnit.run_batch` issues — and
    checks the ``ph``/``pl`` words of every issued operation.
    """
    from repro.core.mfmult import MFMult
    from repro.core.pipeline_unit import LATENCY, issue_stimulus

    mf = MFMult()
    results = [mf.multiply(bundle, fmt) for bundle, fmt in operations]
    flush: List[Optional[int]] = [None] * LATENCY
    return Battery(stimulus=issue_stimulus(operations),
                   n_patterns=len(operations) + LATENCY,
                   expected={"ph": flush + [r.ph for r in results],
                             "pl": flush + [r.pl for r in results]})


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------

def mutation_coverage(module, battery, n_mutations=40, seed=2017):
    """Run a campaign: mutate, check against ``battery``, count detections.

    Checks the golden module against ``battery`` once (see
    :func:`campaign_engine`), then judges ``n_mutations`` mutants drawn
    from ``seed``; a mutant that still passes the battery *survived*.
    """
    _golden_check(module, battery)
    return _judge_mutants(module, battery, n_mutations, seed)


def _golden_check(module, battery):
    """Settle the unmutated module on ``battery`` once.

    Ticks ``fault.golden_runs``, and ``fault.golden_mismatch`` when the
    module fails its own battery.  The mutants are judged against the
    battery as given either way, as the reference judges them.
    """
    reg = obs.registry()
    reg.inc("fault.golden_runs")
    with obs.span("fault:golden", cat="fault", module=module.name,
                  patterns=battery.n_patterns):
        run = LevelizedSimulator(module).run(battery.stimulus,
                                             battery.n_patterns)
    if not battery.check_run(module, run):
        reg.inc("fault.golden_mismatch")


def _judge_mutants(module, battery, n_mutations, seed):
    """Settle each mutant as the golden node table with one row
    replaced and compare its output words against ``battery``."""
    rng = random.Random(seed)
    arities = [cell_num_inputs(gate.kind) for gate in module.gates]
    golden = compiled_module(module)
    reg = obs.registry()
    result = CoverageResult(attempted=0, detected=0)
    with obs.span("fault:campaign", cat="fault", module=module.name,
                  kernel=LevelizedSimulator(module).kernel,
                  mutations=n_mutations):
        for __ in range(n_mutations):
            idx, mutant, mutation = propose_mutation(module, rng, arities)
            result.attempted += 1
            reg.inc("fault.mutations")
            run = LevelizedSimulator(module, golden.with_gate(idx, mutant)) \
                .run(battery.stimulus, battery.n_patterns)
            if battery.check_run(module, run):
                result.survivors.append(mutation)
            else:
                result.detected += 1
                reg.inc("fault.detected")
    return result


def r16_cases(n=16, case_seed=1):
    """The standard random co-simulation battery for the r16 campaigns."""
    rng = random.Random(case_seed)
    return [(rng.getrandbits(64), rng.getrandbits(64)) for __ in range(n)]


def mf_operations(n=12, case_seed=2):
    """A mixed-format co-simulation battery for the MF-unit campaigns."""
    from repro.bits.ieee754 import BINARY32, BINARY64
    from repro.core.formats import MFFormat, OperandBundle

    rng = random.Random(case_seed)
    ops = []
    for i in range(n):
        pick = i % 3
        if pick == 0:
            ops.append((OperandBundle.int64(rng.getrandbits(64),
                                            rng.getrandbits(64)),
                        MFFormat.INT64))
        elif pick == 1:
            ops.append((OperandBundle.fp64(
                BINARY64.pack(0, rng.randint(1, 2046), rng.getrandbits(52)),
                BINARY64.pack(0, rng.randint(1, 2046),
                              rng.getrandbits(52))), MFFormat.FP64))
        else:
            ops.append((OperandBundle.fp32_pair(
                *[BINARY32.pack(0, rng.randint(1, 254),
                                rng.getrandbits(23)) for __ in range(4)]),
                MFFormat.FP32X2))
    return ops


def campaign_battery(which, module, patterns=None):
    """The standard seeded battery for campaign target ``which``.

    ``patterns`` widens the battery beyond its historic default (16
    cases for ``r16``, 12 operations for ``mf``): the whole battery
    still packs into **one** superword, so a wider battery costs one
    golden kernel invocation regardless of width.  ``None`` keeps the
    historic seeds and sizes bit-for-bit.
    """
    if which == "r16":
        cases = r16_cases() if patterns is None else r16_cases(n=patterns)
        return multiplier_battery(module, cases)
    if which == "mf":
        ops = mf_operations() if patterns is None \
            else mf_operations(n=patterns)
        return mf_battery(ops)
    raise SimulationError(f"unknown campaign target {which!r}")


def _campaign_module(which):
    from repro.eval.experiments import cached_module

    if which not in ("r16", "mf"):
        raise SimulationError(f"unknown campaign target {which!r}")
    return cached_module(which)


#: The checked golden campaign per (target, battery width): every chunk
#: of a campaign reuses it — one golden kernel invocation per campaign
#: instead of one per chunk.  Entries are read-only once built.
_CAMPAIGN_LOCK = threading.Lock()
_CAMPAIGNS: Dict[tuple, tuple] = {}


def clear_campaign_cache():
    """Drop the checked golden campaigns (benchmark cost accounting)."""
    with _CAMPAIGN_LOCK:
        _CAMPAIGNS.clear()


def campaign_engine(which, battery_patterns=None):
    """The golden campaign for one ``(target, battery width)``.

    Returns ``(module, battery)``: the target module and its standard
    battery, whose golden run has been checked exactly once per key
    (``fault.golden_runs``; ``fault.golden_mismatch`` when the golden
    run fails its own battery).
    """
    key = (which, battery_patterns)
    with _CAMPAIGN_LOCK:
        entry = _CAMPAIGNS.get(key)
        if entry is None:
            module = _campaign_module(which)
            battery = campaign_battery(which, module,
                                       patterns=battery_patterns)
            _golden_check(module, battery)
            entry = _CAMPAIGNS[key] = (module, battery)
    return entry


def coverage_chunk(which="r16", n_mutations=10, seed=7,
                   battery_patterns=None):
    """One campaign shard — a parallelizable leaf job.

    Judges ``n_mutations`` mutations drawn from ``seed`` against the
    target's standard battery (fixed case seeds).  Chunks share one
    golden check per ``(which, battery_patterns)`` via
    :func:`campaign_engine`, so a whole campaign pays a single golden
    kernel invocation however it is chunked; ``battery_patterns``
    widens the battery superword (default: historic sizes).
    """
    module, battery = campaign_engine(which, battery_patterns)
    return _judge_mutants(module, battery, n_mutations, seed)


#: Auto-chunking aims at this many mutations per stealable leaf.
CHUNK_TARGET_MUTATIONS = 10


def chunk_plan(n_mutations, seed, chunks=None):
    """Deterministic ``(chunk_seed, chunk_size)`` split of a campaign.

    The orchestrator's campaign graph shards along this plan, so any
    backend, or a caller merging the chunks itself, gets the same
    result.  ``chunks=None`` auto-sizes toward
    :data:`CHUNK_TARGET_MUTATIONS` mutations per chunk, floored at the
    historic 4 chunks — campaigns of up to 40 mutations keep their
    exact historic shard seeds, while larger ones refine into more
    stealable leaves.
    """
    if n_mutations < 1 or (chunks is not None and chunks < 1):
        raise SimulationError(
            f"a campaign needs at least one mutation and one chunk "
            f"(n_mutations={n_mutations}, chunks={chunks})")
    if chunks is None:
        target = -(-n_mutations // CHUNK_TARGET_MUTATIONS)
        chunks = max(min(4, n_mutations), target)
    chunks = min(chunks, n_mutations)
    base, extra = divmod(n_mutations, chunks)
    return [(seed * 1000003 + i, base + (1 if i < extra else 0))
            for i in range(chunks)]


def merge_coverage(results):
    """Deterministic merge of per-chunk :class:`CoverageResult` values."""
    merged = CoverageResult(attempted=0, detected=0)
    for chunk in results:
        merged.attempted += chunk.attempted
        merged.detected += chunk.detected
        merged.survivors.extend(chunk.survivors)
    return merged
