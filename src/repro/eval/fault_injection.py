"""Fault injection: how strong is the co-simulation as a checker?

A reproduction whose gate-level model is verified only by construction
could hide systematic errors.  This harness *mutates* netlists —
replacing one cell's function with a different same-arity function, or
swapping two input pins — and measures how often a modest co-simulation
battery catches the mutation.  High mutation coverage is evidence the
equivalence tests in this repository actually constrain the netlists.

Campaigns run in one of two modes, bit-identical by construction and
raced against each other in CI:

* ``mode="full"`` — the historic path: clone the module, apply the
  mutation, re-simulate everything, compare against the battery's
  expected words.  O(module) per mutation; kept as the reference.
* ``mode="differential"`` (default) — simulate the golden module once
  per campaign and judge each mutant by propagating its XOR difference
  word through the mutated gate's fan-out cone only, early-exiting the
  moment a difference reaches an observed output bit (see
  :mod:`repro.hdl.sim.differential`).  O(cone) per mutation — the
  speedup ``benchmarks/bench_fault_injection.py`` records in
  ``BENCH_fault_sim.json``.

The battery itself is data (:class:`Battery`: stimulus + expected
output words per pattern), so both modes derive their verdicts from the
same comparisons.  The orchestrator's ``fault_r16``/``fault_mf``
experiments shard a campaign into :func:`coverage_chunk` leaves along
:func:`chunk_plan` and merge them with :func:`merge_coverage`.
"""

import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.errors import SimulationError
from repro.hdl.cell import cell_num_inputs
from repro.hdl.module import Gate, Module, Register

#: Same-arity replacement pools (a mutation picks a *different* kind).
_MUTATION_POOLS = {
    1: ["INV", "BUF"],
    2: ["AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"],
    3: ["AND3", "OR3", "NAND3", "NOR3", "XOR3", "MAJ3", "AOI21", "OAI21"],
    4: ["AO22", "OA22"],
}


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


def clone_module(module):
    """Structural copy (mutations must not touch the original)."""
    twin = Module(module.name)
    twin.n_nets = module.n_nets
    twin.gates = list(module.gates)
    twin.registers = list(module.registers)
    twin.inputs = {k: list(v) for k, v in module.inputs.items()}
    twin.outputs = {k: list(v) for k, v in module.outputs.items()}
    twin._driver = dict(module._driver)
    twin._const_nets = dict(module._const_nets)
    twin._const_cache = dict(module._const_cache)
    return twin


#: Pin swaps that actually change the boolean function (commutative
#: swaps would be equivalent mutants and poison the coverage metric).
_MEANINGFUL_SWAPS = {
    "MUX2": [(0, 1), (0, 2), (1, 2)],
    "AOI21": [(0, 2), (1, 2)],
    "OAI21": [(0, 2), (1, 2)],
    "AO22": [(0, 2), (0, 3), (1, 2), (1, 3)],
    "OA22": [(0, 2), (0, 3), (1, 2), (1, 3)],
}


def propose_mutation(module, rng, arities=None):
    """Draw one random functional mutation without applying it.

    Returns ``(gate_index, mutant_gate, Mutation)``.  ``arities`` is the
    optional precomputed per-gate input count list — campaigns compute
    it once and share it across every mutation (and both modes), instead
    of re-deriving cell arities per attempt.  The rng draw sequence is
    the historic ``inject_mutation`` one, so seeds reproduce.
    """
    for __ in range(100):
        idx = rng.randrange(len(module.gates))
        gate = module.gates[idx]
        arity = arities[idx] if arities is not None \
            else cell_num_inputs(gate.kind)
        choices = [k for k in _MUTATION_POOLS.get(arity, [])
                   if k != gate.kind]
        swaps = [(i, j) for i, j in _MEANINGFUL_SWAPS.get(gate.kind, [])
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


def inject_mutation(module, rng):
    """Apply one random functional mutation in place; returns Mutation.

    Mutations: change a cell kind within its arity pool, or swap two
    input pins where the cell is not commutative in them.
    """
    idx, mutant, mutation = propose_mutation(module, rng)
    module.gates[idx] = mutant
    return mutation


# ----------------------------------------------------------------------
# the battery as data
# ----------------------------------------------------------------------

@dataclass
class Battery:
    """A co-simulation battery in data form.

    ``stimulus`` maps input bus names to per-pattern words;
    ``expected`` maps output bus names to per-pattern expected words,
    with ``None`` marking unchecked positions (pipeline fill cycles).
    Both campaign modes judge mutants against exactly these
    comparisons, which is what makes them bit-identical.
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

    def checker(self):
        """A full-mode callable: simulate the module, compare words."""
        from repro.hdl.sim.levelized import LevelizedSimulator

        def check(module):
            run = LevelizedSimulator(module).run(self.stimulus,
                                                 self.n_patterns)
            return self.check_run(module, run)

        return check

    def observation(self, module):
        """The net-level :class:`Observation` of the checked positions."""
        from repro.hdl.sim.differential import Observation

        masks: Dict[int, int] = {}
        for name, words in self.expected.items():
            window = 0
            for t, want in enumerate(words):
                if want is not None:
                    window |= 1 << t
            if not window:
                continue
            for net in module.outputs[name]:
                masks[net] = masks.get(net, 0) | window
        return Observation(masks=masks)


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

    Mirrors :meth:`repro.core.pipeline_unit.MFMultUnit.run_batch`'s
    stimulus (pipeline flush cycles padded with the last operation) and
    checks the ``ph``/``pl`` words of every issued operation.
    """
    from repro.core.mfmult import MFMult
    from repro.core.pipeline_unit import FRMT_OF, LATENCY

    mf = MFMult(fidelity="fast")
    n = len(operations) + LATENCY
    xs = [bundle.x for bundle, __ in operations]
    ys = [bundle.y for bundle, __ in operations]
    fs = [FRMT_OF[fmt] for __, fmt in operations]
    xs += [xs[-1]] * LATENCY
    ys += [ys[-1]] * LATENCY
    fs += [fs[-1]] * LATENCY
    exp_ph: List[Optional[int]] = [None] * n
    exp_pl: List[Optional[int]] = [None] * n
    for t, (bundle, fmt) in enumerate(operations):
        res = mf.multiply(bundle, fmt)
        exp_ph[t + LATENCY] = res.ph
        exp_pl[t + LATENCY] = res.pl
    return Battery(stimulus={"x": xs, "y": ys, "frmt": fs},
                   n_patterns=n,
                   expected={"ph": exp_ph, "pl": exp_pl})


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------

def mutation_coverage(module, battery, n_mutations=40, seed=2017,
                      mode="full", engine=None):
    """Run a campaign: mutate, check against ``battery``, count detections.

    ``mode="full"`` clones and fully re-simulates each mutant through
    ``battery.checker()``; a mutant that still passes *survived*.

    ``mode="differential"`` shares one golden simulation across all
    mutations and re-evaluates fan-out cones only — same
    :class:`CoverageResult`, measured fraction of the work.  In the
    degenerate case where the golden module itself fails its battery,
    the campaign silently falls back to full mode (where every mutant
    fails too), so the modes never diverge.

    A prebuilt ``engine`` (see :func:`campaign_engine`) skips the
    golden run entirely: campaigns chunked over the same module and
    battery then pay **one** golden kernel invocation total instead of
    one per chunk — the engine is a pure cache of golden state, so
    verdicts are unchanged.  The caller must have verified the golden
    run against the battery (``campaign_engine`` does).
    """
    if mode not in ("full", "differential"):
        raise SimulationError(f"unknown campaign mode {mode!r}")
    rng = random.Random(seed)
    arities = [cell_num_inputs(gate.kind) for gate in module.gates]
    reg = obs.registry()

    if mode != "differential":
        engine = None
    elif engine is None:
        from repro.hdl.sim.differential import DifferentialEngine

        engine = DifferentialEngine(module, battery.stimulus,
                                    battery.n_patterns,
                                    battery.observation(module))
        if not battery.check_run(module, engine.golden):
            reg.inc("fault.golden_mismatch")
            mode = "full"
            engine = None
    checker = battery.checker()

    result = CoverageResult(attempted=0, detected=0)
    with obs.span("fault:campaign", cat="fault", module=module.name,
                  mode=mode, mutations=n_mutations):
        for __ in range(n_mutations):
            idx, mutant, mutation = propose_mutation(module, rng, arities)
            result.attempted += 1
            reg.inc("fault.mutations")
            if engine is not None:
                verdict = engine.run_mutant(idx, mutant)
                reg.inc("fault.gates_evaluated", verdict.gates_evaluated)
                reg.observe_value("fault.cone_size", verdict.cone_size)
                if verdict.early_exit:
                    reg.inc("fault.early_exits")
                survived = not verdict.detected
            else:
                twin = clone_module(module)
                twin.gates[idx] = mutant
                survived = checker(twin)
            if survived:
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
    raise ValueError(f"unknown campaign target {which!r}")


def _campaign_module(which):
    from repro.eval.experiments import cached_module

    if which not in ("r16", "mf"):
        raise ValueError(f"unknown campaign target {which!r}")
    return cached_module(which)


#: Shared golden state per (target, battery width): the golden run is
#: read-only once simulated, so every chunk of a campaign reuses it —
#: one golden kernel invocation per campaign instead of one per chunk.
#: Engines are additionally keyed by thread because ``run_mutant``
#: scribbles on a private overlay list.
_CAMPAIGN_LOCK = threading.Lock()
_CAMPAIGN_GOLDEN: Dict[tuple, tuple] = {}
_CAMPAIGN_ENGINES: Dict[tuple, object] = {}


def clear_campaign_cache():
    """Drop shared golden runs/engines (benchmark cost accounting)."""
    with _CAMPAIGN_LOCK:
        _CAMPAIGN_GOLDEN.clear()
        _CAMPAIGN_ENGINES.clear()


def campaign_engine(which, battery_patterns=None):
    """Shared differential state for one ``(target, battery width)``.

    Returns ``(module, battery, engine)``; ``engine`` is ``None`` when
    the golden run fails its own battery (callers fall back to full
    mode, where every mutant fails too — the modes never diverge).  The
    golden bit-parallel run is simulated once per key and cached; the
    per-thread :class:`~repro.hdl.sim.differential.DifferentialEngine`
    wrappers around it cost only the fan-out precomputation.
    """
    from repro.hdl.sim.differential import DifferentialEngine

    module = _campaign_module(which)
    key = (which, battery_patterns)
    with _CAMPAIGN_LOCK:
        entry = _CAMPAIGN_GOLDEN.get(key)
        if entry is None:
            battery = campaign_battery(which, module,
                                       patterns=battery_patterns)
            engine = DifferentialEngine(module, battery.stimulus,
                                        battery.n_patterns,
                                        battery.observation(module))
            if battery.check_run(module, engine.golden):
                entry = (battery, engine.golden)
                _CAMPAIGN_ENGINES[(key, threading.get_ident())] = engine
            else:
                obs.registry().inc("fault.golden_mismatch")
                entry = (battery, None)
            _CAMPAIGN_GOLDEN[key] = entry
        battery, golden = entry
        if golden is None:
            return module, battery, None
        tkey = (key, threading.get_ident())
        engine = _CAMPAIGN_ENGINES.get(tkey)
        if engine is None:
            engine = DifferentialEngine(module, battery.stimulus,
                                        battery.n_patterns,
                                        battery.observation(module),
                                        golden=golden)
            _CAMPAIGN_ENGINES[tkey] = engine
    return module, battery, engine


def coverage_chunk(which="r16", n_mutations=10, seed=7,
                   mode="differential", battery_patterns=None):
    """One campaign shard — a parallelizable leaf job.

    Builds the target module and its co-simulation battery from fixed
    case seeds, then runs ``n_mutations`` mutations drawn from ``seed``
    in the requested ``mode``.  Differential chunks share one cached
    golden run per ``(which, battery_patterns)`` via
    :func:`campaign_engine`, so a whole campaign pays a single golden
    kernel invocation however it is chunked; ``battery_patterns``
    widens the battery superword (default: historic sizes).
    """
    if mode == "differential":
        module, battery, engine = campaign_engine(which, battery_patterns)
        if engine is None:
            mode = "full"
        return mutation_coverage(module, n_mutations=n_mutations,
                                 seed=seed, mode=mode, battery=battery,
                                 engine=engine)
    module = _campaign_module(which)
    battery = campaign_battery(which, module, patterns=battery_patterns)
    return mutation_coverage(module, n_mutations=n_mutations, seed=seed,
                             mode=mode, battery=battery)


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
    if chunks is None:
        target = -(-n_mutations // CHUNK_TARGET_MUTATIONS)
        chunks = max(min(4, n_mutations), target)
    chunks = max(1, min(chunks, n_mutations))
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
