"""Shared random-kernel builders for the test suite (the package's own)."""

from smoothavg.kernel import random_nonneg_fourier_kernel, random_symmetric_kernel

__all__ = ["random_nonneg_fourier_kernel", "random_symmetric_kernel"]
