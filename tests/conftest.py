import pytest

from toruswave.calibration import calibrate
from toruswave.fields import GridSpec


@pytest.fixture(scope="session")
def constants16():
    """Calibrated constants for the 16^3 grid at m = 3, shared across tests."""
    return calibrate(GridSpec(16), m=3)
