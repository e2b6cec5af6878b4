"""Group Fourier transform of the affine group G = Z_p x| Z_p*.

The unitary dual of G consists of the p-1 lifted multiplicative characters
chi~(k,l) = chi(l) (dimension 1 each) and the single (p-1)-dimensional
representation pi_hat0.  No normalization is applied to the transform;
inversion (and Plancherel, :func:`affinephase.reference.plancherel_sides`)
carries the |G|^-1 and dimension weights explicitly.

Both parts come from one DFT over k for each l: bin 0 is sum_k F(k,l), whose character sums
are one more FFT over l in discrete-log order (:func:`affinephase.primefield.root_powers`), and
bins 1..p-1 are the entries of pi_hat0(F).  Up to errors.DFT_PRODUCT_MAX_P the DFT is one BLAS
product with a cached p x p DFT matrix, O(p^3) per record; above it numpy's FFT, O(p^2 log p).
The private kernels :func:`_analysis` and :func:`_synthesis` hold this layout; the public
functions validate their arguments once and call them, and so does recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .affine import index_tables
from .errors import DFT_PRODUCT_MAX_P, TABLE_CACHE_SIZE
from .primefield import root_powers, validate_prime


@dataclass(frozen=True)
class AffineFourierCoefficients:
    """Transform tuple: one scalar per character index j in {0..p-2}, plus the
    matrix-valued coefficient of pi_hat0 on {1..p-1}^2."""

    p: int
    scalar_part: np.ndarray
    matrix_part: np.ndarray


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _dft_matrices(p: int) -> np.ndarray:
    """D[k, m] = e^{-2 pi i (km mod p)/p} and conj(D), stacked and read-only."""
    D = np.exp(-2j * np.pi / p * (np.outer(np.arange(p), np.arange(p)) % p))
    D = np.stack([D, D.conj()])
    D.setflags(write=False)
    return D


def _dft(x: np.ndarray, p: int, inverse: bool = False, norm: str = "backward") -> np.ndarray:
    """np.fft.fft, or np.fft.ifft with this norm, of x or of a zero then x over its last axis:
    up to DFT_PRODUCT_MAX_P one BLAS product with the cached DFT matrix, above it that FFT."""
    if p > DFT_PRODUCT_MAX_P:
        if x.shape[-1] < p:
            x = np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1)
        return (np.fft.ifft if inverse else np.fft.fft)(x, axis=-1, norm=norm)
    y = x @ _dft_matrices(p)[int(inverse), p - x.shape[-1]:]
    return y / p if inverse and norm == "backward" else y


def _analysis(F: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_k F(k,l) at index l-1, pi_hat0(F)) for a validated complex F on the last
    axis, from one DFT over k per l.  The entry (m, lm) of pi_hat0(F) is
    sum_k F(k,l) e^{-2 pi i km/p}, the DFT of row l at frequency m."""
    G = _dft(F.reshape(F.shape[:-1] + (p - 1, p)), p)  # row l-1, column m
    return G[..., 0], np.take(G.reshape(F.shape), index_tables(p).pi_hat0, -1)


def _synthesis(per_l: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    """The F with sum_k F(k,l) = per_l[l-1] and pi_hat0(F) = M, from one inverse DFT
    over k per l: the inverse of :func:`_analysis`, whose gather it reads as a scatter."""
    G = np.empty((p - 1, p), dtype=complex)
    G.reshape(-1)[index_tables(p).pi_hat0] = M
    G[:, 0] = per_l
    return _dft(G, p, inverse=True).reshape(-1)


def _frame_coefficients(f: np.ndarray, phi: np.ndarray, p: int) -> np.ndarray:
    """<f, pi_hat0(k,l) phi> at index (l-1)p + k for each f on the last axis and a
    validated phi on {1..p-1}: for each l, all k come from one inverse DFT of
    f * conj(phi(l.)), in O(p^3) up to DFT_PRODUCT_MAX_P and O(p^2 log p) above it."""
    g = f[..., None, :] * phi[index_tables(p).dilation].conj()  # row l-1, column m-1
    return _dft(g, p, inverse=True, norm="forward").reshape(f.shape[:-1] + (-1,))


def transform(F, p: int) -> AffineFourierCoefficients:
    """Full group Fourier transform of F, on the last axis:
    chi~_j(F) = sum_l (sum_k F(k,l)) chi_j(l), and pi_hat0(F)."""
    p, F = validate_prime(p), np.asarray(F, dtype=complex)
    if F.shape[-1:] != (p * (p - 1),):
        raise ValueError(f"group function must have length p(p-1) = {p * (p - 1)}, got shape {F.shape}")
    per_l, M = _analysis(F, p)
    s = (p - 1) * np.fft.ifft(per_l[..., root_powers(p)], axis=-1)  # l = g^t at position t
    return AffineFourierCoefficients(p, s, M)


def fourier_invert(coeffs: AffineFourierCoefficients) -> np.ndarray:
    """Inverse transform: F(k,l) = |G|^-1 [sum_j s_j conj(chi_j(l)) + (p-1) tr(M pi_hat0(k,l)^*)]."""
    p = validate_prime(coeffs.p)
    s = np.asarray(coeffs.scalar_part, dtype=complex)
    M = np.asarray(coeffs.matrix_part, dtype=complex)
    if s.shape != (p - 1,):
        raise ValueError(f"scalar part must have p-1 = {p - 1} entries, got {s.shape}")
    if M.shape != (p - 1, p - 1):
        raise ValueError(f"matrix part must be (p-1)x(p-1), got {M.shape}")
    # sum_k F(g^t) = (p-1)^-1 sum_j s_j e^{-2 pi i jt/(p-1)}, with l = g^t
    per_l = np.empty(p - 1, dtype=complex)
    per_l[root_powers(p)] = np.fft.fft(s) / (p - 1)
    return _synthesis(per_l, M, p)
