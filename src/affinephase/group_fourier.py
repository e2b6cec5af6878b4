"""Group Fourier transform of the affine group G = Z_p x| Z_p*.

The unitary dual of G consists of the p-1 lifted multiplicative characters
chi~(k,l) = chi(l) (dimension 1 each) and the single (p-1)-dimensional
representation pi_hat0.  No normalization is applied to the transform;
Plancherel and inversion carry the |G|^-1 and dimension weights explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import dilation_index
from .primefield import character_table, validate_prime


@dataclass(frozen=True)
class AffineFourierCoefficients:
    """Transform tuple: one scalar per character index j in {0..p-2}, plus the
    matrix-valued coefficient of pi_hat0 on {1..p-1}^2."""

    p: int
    scalar_part: np.ndarray
    matrix_part: np.ndarray


def _check_group_function(F, p: int) -> np.ndarray:
    validate_prime(p)
    F = np.asarray(F, dtype=complex)
    if F.shape != (p * (p - 1),):
        raise ValueError(
            f"group function must have length p(p-1) = {p * (p - 1)}, got shape {F.shape}"
        )
    return F


def chi_tilde_all(F, p: int) -> np.ndarray:
    """All scalar components chi~_j(F) = sum_l (sum_k F(k,l)) chi_j(l)."""
    F = _check_group_function(F, p)
    per_l = F.reshape(p - 1, p).sum(axis=1)  # index l-1 (l-outer enumeration)
    return character_table(p).values @ per_l


def chi_tilde(F, j: int, p: int) -> complex:
    """Scalar component of F at the lifted character chi_j."""
    if not 0 <= j <= p - 2:
        raise ValueError(f"character index {j} out of range for p={p}")
    return complex(chi_tilde_all(F, p)[j])


def pi_hat0_transform(F, p: int) -> np.ndarray:
    """Matrix component pi_hat0(F) = sum_{(k,l)} F(k,l) pi_hat0(k,l); its entry
    (m, lm) is sum_k F(k,l) e^{-2 pi i km/p}, one FFT over k per l."""
    F = _check_group_function(F, p)
    G = np.fft.fft(F.reshape(p - 1, p), axis=1)  # row l-1, column m
    out = np.empty((p - 1, p - 1), dtype=complex)
    out[np.arange(p - 1), dilation_index(p)] = G[:, 1:]
    return out


def transform(F, p: int) -> AffineFourierCoefficients:
    """Full group Fourier transform of F."""
    return AffineFourierCoefficients(
        p=p,
        scalar_part=chi_tilde_all(F, p),
        matrix_part=pi_hat0_transform(F, p),
    )


def fourier_invert(coeffs: AffineFourierCoefficients) -> np.ndarray:
    """Inverse transform: F(k,l) = |G|^-1 [sum_j s_j conj(chi_j(l)) + (p-1) tr(M pi_hat0(k,l)^*)]."""
    p = coeffs.p
    validate_prime(p)
    s = np.asarray(coeffs.scalar_part, dtype=complex)
    M = np.asarray(coeffs.matrix_part, dtype=complex)
    if s.shape != (p - 1,):
        raise ValueError(f"scalar part must have p-1 = {p - 1} entries, got {s.shape}")
    if M.shape != (p - 1, p - 1):
        raise ValueError(f"matrix part must be (p-1)x(p-1), got {M.shape}")
    table = character_table(p)
    # scalar contribution per l, constant in k
    per_l = table.values.conj().T @ s  # index l-1
    scalar_term = np.repeat(per_l, p)  # l-outer, k-inner
    # tr(M pi_hat0(k,l)^*) = sum_m M(m, lm) e^{2 pi i km/p}, one inverse FFT per l
    G = np.zeros((p - 1, p), dtype=complex)
    G[:, 1:] = M[np.arange(p - 1), dilation_index(p)]
    matrix_term = (p - 1) * p * np.fft.ifft(G, axis=1).reshape(-1)
    return (scalar_term + matrix_term) / (p * (p - 1))


def plancherel_sides(F, p: int) -> tuple[float, float]:
    """(||F||^2, |G|^-1 [sum_j |chi~_j(F)|^2 + (p-1) ||pi_hat0(F)||^2])."""
    F = _check_group_function(F, p)
    c = transform(F, p)
    lhs = float(np.vdot(F, F).real)
    rhs = float(
        (np.vdot(c.scalar_part, c.scalar_part).real
         + (p - 1) * np.vdot(c.matrix_part, c.matrix_part).real) / (p * (p - 1))
    )
    return lhs, rhs
