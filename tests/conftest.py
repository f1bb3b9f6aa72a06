import numpy as np
import pytest

from gate_energetics import ModelParams, ThermalSpec, thermal_state

# first oscillation peak of the default model (omega_int / omega_L = 5)
T_STAR = float(np.pi / np.sqrt(26.0))


def op_distance(a, b) -> float:
    """Largest absolute entrywise difference between two operators."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@pytest.fixture(scope="session")
def params() -> ModelParams:
    return ModelParams()


@pytest.fixture(scope="session")
def rho0(params) -> np.ndarray:
    return thermal_state(ThermalSpec(), params)


@pytest.fixture(scope="session")
def sweep_grid() -> np.ndarray:
    """Default 200-point half-open grid over one three-peak window."""
    t_max = 3.0 * np.pi / np.sqrt(26.0)
    return t_max * np.arange(200) / 200.0
