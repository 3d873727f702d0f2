import os

# One BLAS thread, as CI and the benchmark run, set before numpy loads: a process with a
# BLAS thread pool trains its ANN stacks in one process (harness._usable_cores), and the
# tests that force a fork must fork a process that runs one thread.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import pytest

from windforecast.dataset import SyntheticConfig, generate_synthetic


@pytest.fixture(scope="session")
def synthetic_5k():
    """Default-config synthetic series, sized for correlation-structure tests."""
    return generate_synthetic(SyntheticConfig(n_samples=5000, seed=42))


@pytest.fixture(scope="session")
def noise_free_2k():
    return generate_synthetic(SyntheticConfig(n_samples=2000, noise_sd=0.0, seed=7))
