"""Non-equilibrium energetics of a two-qubit controlled-unitary gate."""

from .model import ModelParams, ThermalSpec, thermal_state

__version__ = "0.1.0"

__all__ = ["ModelParams", "ThermalSpec", "thermal_state"]
