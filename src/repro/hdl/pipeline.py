"""Pipeline structure analysis.

Registers are inserted by the circuit generators at explicit cut points
(the paper places them by hand too — Sec. III-D discusses the tried
placements).  This module derives which stage every gate ends up in and
checks the placement is *consistent*: a gate must combine values of a
single stage, i.e. every input must have crossed the same number of
register banks.
"""

from dataclasses import dataclass
from typing import Dict

from repro.errors import PipelineError


@dataclass
class PipelineReport:
    """Gates and area-relevant counts per pipeline stage."""

    n_stages: int
    gates_per_stage: Dict[int, int]
    registers_per_cut: Dict[int, int]

    def stage_share(self, stage):
        total = sum(self.gates_per_stage.values())
        if total == 0:
            return 0.0
        return self.gates_per_stage.get(stage, 0) / total


def stage_map(module, strict=True):
    """``(gate_stages, net_stages)``, read-only: the module index's one
    walk of its topological order.

    Primary inputs are stage 1, a register of cut ``s`` launches stage
    ``s + 1`` and a gate takes its inputs' stage (1 for a constant-only
    cone; constants are stage-agnostic, 0).  ``strict`` raises on the
    first gate mixing stages (an unbalanced cut) or register latching
    a net of another stage; otherwise the gate takes the latest.
    """
    gate_stages, net_stages, mixed = module.index.stages
    if strict and mixed is not None:
        raise PipelineError(mixed)
    return gate_stages, net_stages


def pipeline_report(module, strict=True):
    """Summarize the pipeline structure of a module."""
    gate_stages, __ = stage_map(module, strict=strict)
    gates_per_stage: Dict[int, int] = {}
    for stage in gate_stages:
        gates_per_stage[stage] = gates_per_stage.get(stage, 0) + 1
    regs_per_cut: Dict[int, int] = {}
    for __, __, stage, __ in module.registers:
        regs_per_cut[stage] = regs_per_cut.get(stage, 0) + 1
    return PipelineReport(
        n_stages=module.stage_count(),
        gates_per_stage=gates_per_stage,
        registers_per_cut=regs_per_cut,
    )


