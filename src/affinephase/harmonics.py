"""Unitary DFT on Z_p and cyclic convolution.

The transform is normalized by p**-0.5 so that it is unitary; the
convolution theorem then reads (f * g)^ = p**0.5 * fhat * ghat.
:func:`dft` and :func:`idft` stay dense matrix products; the group kernels
are index gathers and scatters followed by ``numpy.fft``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def dft_matrix(p: int) -> np.ndarray:
    """The unitary p x p Fourier matrix U[m, n] = p**-0.5 * exp(-2*pi*i*n*m/p)."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    m = np.arange(p)
    U = np.exp(-2j * np.pi * np.outer(m, m) / p) / np.sqrt(p)
    U.setflags(write=False)
    return U


def _as_vector(f, p: int | None) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1:
        raise ValueError("expected a one-dimensional vector indexed by Z_p")
    if p is not None and len(f) != p:
        raise ValueError(f"vector has length {len(f)}, expected index set Z_{p}")
    return f


def dft(f) -> np.ndarray:
    """Unitary Fourier transform of f on Z_p (p = len(f))."""
    f = _as_vector(f, None)
    return dft_matrix(len(f)) @ f


def idft(fhat) -> np.ndarray:
    """Inverse of :func:`dft`."""
    fhat = _as_vector(fhat, None)
    return dft_matrix(len(fhat)).conj().T @ fhat


def convolve(f, g) -> np.ndarray:
    """Cyclic convolution (f * g)(m) = sum_n f(n) g(m - n) on Z_p."""
    f = _as_vector(f, None)
    g = _as_vector(g, len(f))
    p = len(f)
    m = np.arange(p)
    # index matrix (m - n) mod p, row m, column n
    idx = (m[:, None] - m[None, :]) % p
    return (g[idx] * f[None, :]).sum(axis=1)
