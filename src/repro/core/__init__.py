"""The paper's contribution: the multi-format multiplier and reducer.

:mod:`repro.core.mfmult` is the functional model, mirrored gate by gate
by :mod:`repro.core.pipeline_unit` (the structural 3-stage unit of
Fig. 5).  :mod:`repro.core.reduction` implements the binary64 ->
binary32 demotion of Sec. IV, and :mod:`repro.core.vector_unit` the
issue-level scheduling that turns demotion into power savings;
:mod:`repro.core.accelerator` runs its kernels through that scheduler.
"""

from repro.core.accelerator import Accelerator, KernelReport
from repro.core.formats import (
    Flag,
    MFFormat,
    OperandBundle,
    ResultBundle,
    RoundingMode,
)
from repro.core.mfmult import MFMult
from repro.core.reduction import (
    LossyReducer,
    PeriodicReducer,
    ReductionDecision,
    is_reducible,
    reduce_binary64,
    widen_binary32,
)
from repro.core.vector_unit import (
    BatchResult,
    FormatPowerTable,
    IssueStats,
    VectorMultiplier,
)

__all__ = [
    "Accelerator",
    "BatchResult",
    "KernelReport",
    "Flag",
    "FormatPowerTable",
    "IssueStats",
    "LossyReducer",
    "MFFormat",
    "MFMult",
    "OperandBundle",
    "PeriodicReducer",
    "ReductionDecision",
    "ResultBundle",
    "RoundingMode",
    "VectorMultiplier",
    "is_reducible",
    "reduce_binary64",
    "widen_binary32",
]
