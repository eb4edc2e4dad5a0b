"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.core.burst import Burst, PAPER_FIG2_BURST
from repro.core.costs import CostModel
from repro.core.vectorized import HAVE_NUMPY
from repro.hw import bitsim

#: Both word kernels by name; ``uint64`` runs only where NumPy imports.
WORD_KERNELS = {"int": bitsim.IntKernel, "uint64": bitsim.Uint64Kernel}
HOST_KERNELS = [name for name in WORD_KERNELS
                if name == "int" or HAVE_NUMPY]


@pytest.fixture(scope="session")
def paper_burst() -> Burst:
    """The worked example of the paper's Fig. 2."""
    return PAPER_FIG2_BURST


@pytest.fixture(scope="session")
def fixed_model() -> CostModel:
    """alpha = beta = 1 (the paper's fixed-coefficient setting)."""
    return CostModel.fixed()


def _random_bursts(count: int, seed: int):
    # RandomPopulation reproduces workloads.random_data.random_bursts
    # byte-for-byte when NumPy is installed and substitutes a
    # deterministic pure-Python stream when it is not, so every suite
    # using these fixtures stays runnable on the CI NumPy-free leg.
    from repro.workloads.population import RandomPopulation

    return RandomPopulation(count=count, seed=seed).bursts()


@pytest.fixture(scope="session")
def small_random_bursts():
    """A small deterministic random population for fast checks."""
    return _random_bursts(count=50, seed=1234)


@pytest.fixture(scope="session")
def medium_random_bursts():
    """A mid-size deterministic random population for statistics checks."""
    return _random_bursts(count=500, seed=99)


@pytest.fixture(params=HOST_KERNELS)
def word_kernel(request, monkeypatch):
    """Run the test once per word kernel this host can import, swapped in
    as the platform kernel :data:`repro.hw.bitsim.KERNEL`.

    A test parametrizing over kernel names itself (``indirect=True``, to
    place the kernel id among its other ids) gets ``uint64`` skipped on
    hosts without NumPy.
    """
    if request.param not in HOST_KERNELS:
        pytest.skip(f"the {request.param} word kernel needs NumPy")
    kernel = WORD_KERNELS[request.param]()
    monkeypatch.setattr(bitsim, "KERNEL", kernel)
    return kernel


@pytest.fixture
def word_kernels(monkeypatch):
    """The same swap, for a test that compares kernels inside one run:
    ``for kernel in word_kernels():`` makes each host kernel the
    platform kernel in turn."""
    def each():
        for name in HOST_KERNELS:
            kernel = WORD_KERNELS[name]()
            monkeypatch.setattr(bitsim, "KERNEL", kernel)
            yield kernel
    return each
