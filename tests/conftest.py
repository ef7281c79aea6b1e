import os

# After the machine has idled, OpenBLAS worker threads stall scipy's 4x4
# solves (2 ms per call instead of 0.05 ms), which breaks the acceptance
# suite's wall-clock bounds; 4x4 work gains nothing from them.  This must
# run before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from vspin import SpinParameters, closed_form_eigensystem


@pytest.fixture(scope="session")
def params():
    """Default demo system: all gate transitions drivable, lines well split."""
    return SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.5, gamma=1.0, h_rf=0.0)


@pytest.fixture(scope="session")
def eigen(params):
    return closed_form_eigensystem(params)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)
