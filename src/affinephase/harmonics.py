"""The dense unitary DFT matrix on Z_p, a test oracle for the ``numpy.fft`` kernels."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import TABLE_CACHE_SIZE


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def dft_matrix(p: int) -> np.ndarray:
    """The unitary p x p Fourier matrix U[m, n] = p**-0.5 * exp(-2*pi*i*n*m/p)."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    m = np.arange(p)
    U = np.exp(-2j * np.pi * np.outer(m, m) / p) / np.sqrt(p)
    U.setflags(write=False)
    return U
