"""Activity-based power estimation."""

from repro.hdl.power.model import PowerReport
from repro.hdl.power.monte_carlo import estimate_power

__all__ = ["PowerReport", "estimate_power"]
