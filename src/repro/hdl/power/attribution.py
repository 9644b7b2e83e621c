"""Per-net power attribution: who burns the energy, and why.

The Monte Carlo estimator already *computes* per-net toggle counts for
both the zero-delay run (functional activity) and the glitch-aware
event replay — it just collapses them to one total before anybody can
ask questions.  This module keeps the per-net vectors long enough to
answer the paper's own questions (Tables III–V, Fig. 2): which named
sub-block (ppgen, compressor tree, CPA, normalize/round), which cell
type and which pipeline stage the dynamic power lands in, and how much
of each is *glitch* (event-replay transitions beyond the zero-delay
count, derated by ``CellLibrary.glitch_retention``) versus
*functional* switching.

Attribution is a pure observer: it re-reads the same toggle vectors
and per-net energies :func:`repro.hdl.power.monte_carlo.estimate_power`
uses, so enabling it cannot change a single reported milliwatt.  The
block, cell and stage of each net come from the module's
:class:`~repro.hdl.index.NetlistIndex` — the stage is the one
:func:`repro.hdl.pipeline.stage_map` assigns, walked in topological
order (gates rewired to BUFs appended later by
:func:`~repro.hdl.buffering.insert_buffers` included).  The
sum of the per-block totals equals ``PowerReport.total_mw`` (up to
float re-association across groups — asserted to 1e-9 relative in the
tests), because every energy contribution — switching, register clock,
leakage — is attributed to exactly one block.
"""

from dataclasses import dataclass, field
from typing import Dict, List

from repro.hdl.power.model import toggles_to_power_mw

#: Rollup entry keys, in rendering order.
COMPONENTS = ("functional_mw", "glitch_mw", "register_mw", "leakage_mw")


@dataclass
class PowerAttribution:
    """Dynamic/glitch/register/leakage power rolled up three ways.

    ``by_block`` keys are top-level block tags (the named sub-blocks of
    the netlists: ``precomp``, ``ppgen``, ``tree``, ``cpa``,
    ``normround``, …, with primary I/O nets under ``(io)``);
    ``by_cell`` keys are cell kinds (plus ``DFF``/``(input)``);
    ``by_stage`` keys are 1-based pipeline stages.  Every entry maps
    :data:`COMPONENTS` plus ``total_mw``, ``toggles`` and
    ``glitch_toggles``.  ``hot_nets`` lists the top dynamic-power nets
    with their full block path, cell, stage and toggle counts.
    """

    frequency_mhz: float
    transitions: int
    glitch_retention: float
    by_block: Dict[str, Dict[str, float]] = field(default_factory=dict)
    by_cell: Dict[str, Dict[str, float]] = field(default_factory=dict)
    by_stage: Dict[int, Dict[str, float]] = field(default_factory=dict)
    hot_nets: List[dict] = field(default_factory=list)

    def total_mw(self):
        """Sum of the per-block totals (== ``PowerReport.total_mw``)."""
        return sum(e["total_mw"] for e in self.by_block.values())

    def glitch_mw(self):
        return sum(e["glitch_mw"] for e in self.by_block.values())

    def functional_mw(self):
        return sum(e["functional_mw"] for e in self.by_block.values())

    def scaled_to(self, frequency_mhz):
        """Re-express at another clock (leakage does not scale)."""
        ratio = frequency_mhz / self.frequency_mhz

        def scale_entry(entry):
            out = dict(entry)
            for key in ("functional_mw", "glitch_mw", "register_mw"):
                out[key] = entry[key] * ratio
            out["total_mw"] = (out["functional_mw"] + out["glitch_mw"]
                               + out["register_mw"] + out["leakage_mw"])
            return out

        return PowerAttribution(
            frequency_mhz=frequency_mhz,
            transitions=self.transitions,
            glitch_retention=self.glitch_retention,
            by_block={k: scale_entry(v) for k, v in self.by_block.items()},
            by_cell={k: scale_entry(v) for k, v in self.by_cell.items()},
            by_stage={k: scale_entry(v) for k, v in self.by_stage.items()},
            hot_nets=[dict(n, mw=n["mw"] * ratio) for n in self.hot_nets],
        )

    def render(self, top=10):
        """Human-readable breakdown (what the CLI prints)."""
        lines = [f"power attribution @ {self.frequency_mhz:g} MHz, "
                 f"{self.transitions} transitions "
                 f"(glitch retention {self.glitch_retention:g})"]

        def table(title, entries, key_header):
            lines.append("")
            lines.append(f"-- {title} --")
            header = (f"{key_header:<12} {'functional':>11} {'glitch':>9} "
                      f"{'register':>9} {'leakage':>9} {'total':>9} "
                      f"{'glitch%':>8}")
            lines.append(header)
            ordered = sorted(entries.items(),
                             key=lambda kv: -kv[1]["total_mw"])
            for key, e in ordered:
                dyn = e["functional_mw"] + e["glitch_mw"]
                share = e["glitch_mw"] / dyn if dyn else 0.0
                lines.append(
                    f"{str(key):<12} {e['functional_mw']:>11.4f} "
                    f"{e['glitch_mw']:>9.4f} {e['register_mw']:>9.4f} "
                    f"{e['leakage_mw']:>9.4f} {e['total_mw']:>9.4f} "
                    f"{share:>8.1%}")
            total = {c: sum(e[c] for e in entries.values())
                     for c in COMPONENTS}
            lines.append(
                f"{'(sum)':<12} {total['functional_mw']:>11.4f} "
                f"{total['glitch_mw']:>9.4f} {total['register_mw']:>9.4f} "
                f"{total['leakage_mw']:>9.4f} "
                f"{sum(total.values()):>9.4f}")

        table("by named sub-block", self.by_block, "block")
        table("by cell type", self.by_cell, "cell")
        table("by pipeline stage",
              {f"stage {k}": v for k, v in self.by_stage.items()}, "stage")

        if self.hot_nets:
            lines.append("")
            lines.append(f"-- top {min(top, len(self.hot_nets))} hot nets "
                         f"(dynamic power) --")
            lines.append(f"{'net':>6} {'mW':>9} {'toggles':>8} "
                         f"{'glitch':>7}  block/cell/stage")
            for n in self.hot_nets[:top]:
                lines.append(
                    f"{n['net']:>6} {n['mw']:>9.5f} {n['toggles']:>8} "
                    f"{n['glitch_toggles']:>7}  "
                    f"{n['block'] or '(io)'} / {n['cell']} / S{n['stage']}")
        return "\n".join(lines)


def _zero_entry():
    return {"functional_mw": 0.0, "glitch_mw": 0.0, "register_mw": 0.0,
            "leakage_mw": 0.0, "total_mw": 0.0, "toggles": 0,
            "glitch_toggles": 0}


def attribute_power(module, library, zero_toggles, event_toggles,
                    transitions, frequency_mhz, glitch=True, top_n=20):
    """Build a :class:`PowerAttribution` from the estimator's raw vectors.

    ``zero_toggles`` and ``event_toggles`` are the per-net counts of
    the zero-delay run and the event replay (equal when
    ``glitch=False``), weighted by the per-net fJ/toggle of
    :attr:`repro.hdl.index.LibraryFields.energies`.  The glitch share
    of each net is derated by ``library.glitch_retention`` exactly as
    :func:`~repro.hdl.power.monte_carlo.estimate_power` charges it.
    """
    index = module.index
    energies = index.library(library).energies
    owner, top, cells = index.owner, index.top, index.cells
    __, stages, __ = index.stages
    retention = library.glitch_retention if glitch else 0.0

    # Switching energy per net, split functional vs (derated) glitch.
    by_block: Dict[str, dict] = {}
    by_cell: Dict[str, dict] = {}
    by_stage: Dict[int, dict] = {}
    per_net_energy = []

    def groups(net):
        for store, key in ((by_block, top[net] or "(io)"),
                           (by_cell, cells[net]),
                           (by_stage, stages[net])):
            entry = store.get(key)
            if entry is None:
                entry = store[key] = _zero_entry()
            yield entry

    for net in range(module.n_nets):
        zc = zero_toggles[net]
        extra = event_toggles[net] - zc
        if extra < 0:
            extra = 0
        if not zc and not extra:
            continue
        f_energy = zc * energies[net]
        g_energy = retention * extra * energies[net]
        per_net_energy.append((f_energy + g_energy, net, zc, extra))
        f_mw = toggles_to_power_mw(f_energy, transitions, frequency_mhz)
        g_mw = toggles_to_power_mw(g_energy, transitions, frequency_mhz)
        for entry in groups(net):
            entry["functional_mw"] += f_mw
            entry["glitch_mw"] += g_mw
            entry["toggles"] += event_toggles[net]
            entry["glitch_toggles"] += extra

    # Leakage (proportional to cell area) and register clock energy
    # (paid per cycle by every flip-flop), on each cell's output net.
    leak_per_eq = library.leakage_nw_per_eq * 1e-6
    for kind, __, output, __ in module.gates:
        mw = library.spec(kind).area_eq * leak_per_eq
        for entry in groups(output):
            entry["leakage_mw"] += mw
    clock_fj = (library.register.clock_energy_units
                * library.energy_fj_per_unit)
    clock_mw = toggles_to_power_mw(clock_fj * transitions, transitions,
                                   frequency_mhz)
    reg_leak = library.register.area_eq * leak_per_eq
    for __, q, __, __ in module.registers:
        for entry in groups(q):
            entry["register_mw"] += clock_mw
            entry["leakage_mw"] += reg_leak

    for store in (by_block, by_cell, by_stage):
        for entry in store.values():
            entry["total_mw"] = (entry["functional_mw"] + entry["glitch_mw"]
                                 + entry["register_mw"]
                                 + entry["leakage_mw"])

    per_net_energy.sort(key=lambda item: (-item[0], item[1]))
    hot = []
    for energy, net, zc, extra in per_net_energy[:top_n]:
        hot.append({
            "net": net,
            "mw": toggles_to_power_mw(energy, transitions, frequency_mhz),
            "toggles": event_toggles[net],
            "glitch_toggles": extra,
            "block": owner[net],
            "cell": cells[net],
            "stage": stages[net],
        })

    return PowerAttribution(
        frequency_mhz=frequency_mhz,
        transitions=transitions,
        glitch_retention=retention,
        by_block=dict(sorted(by_block.items())),
        by_cell=dict(sorted(by_cell.items())),
        by_stage=dict(sorted(by_stage.items())),
        hot_nets=hot,
    )
