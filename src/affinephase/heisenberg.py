"""Matrix recovery for the Schroedinger representation of the finite
Heisenberg group on Z_n (n >= 2, not necessarily prime).

The central variable is dropped throughout: pi(k, l) acts on C^n by
(pi(k,l) f)(y) = e^{2 pi i l y/n} f(y-k).  The rescaled matrices
n^{-1/2} pi(k,l) form an orthonormal basis of C^{n x n}, and a generator
phi admits matrix recovery iff its ambiguity function
A_phi(k,l) = n^{-1/2} <phi, pi(k,l) phi> vanishes nowhere.  Recovery is a
two-step Fourier inversion over Z_n^2.
"""

from __future__ import annotations

import numpy as np

from .errors import MAX_SIZE, RANK_RTOL, InadmissibleGeneratorError, require_finite


def _check_n(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"need integer n >= 2, got {n}")
    if n > MAX_SIZE:
        raise ValueError(f"n = {n} exceeds the size limit MAX_SIZE = {MAX_SIZE}")


def _check_phi(phi) -> np.ndarray:
    phi = require_finite("phi", phi)
    if phi.ndim != 1 or len(phi) < 2:
        raise ValueError("generator must be a vector on Z_n with n >= 2")
    _check_n(len(phi))
    return phi


def _translates(phi: np.ndarray) -> np.ndarray:
    """Row k holds the translate y -> phi(y - k)."""
    y = np.arange(len(phi))
    return phi[(y[None, :] - y[:, None]) % len(phi)]


def ambiguity(phi) -> np.ndarray:
    """Ambiguity table A_phi(k,l) = n^{-1/2} <phi, pi(k,l) phi> on Z_n^2:
    for each k, one FFT over y of phi(y) conj(phi(y - k))."""
    phi = _check_phi(phi)
    return np.fft.fft(phi * _translates(phi).conj(), axis=1) / np.sqrt(len(phi))


def _vanishing_point(amb: np.ndarray, phi: np.ndarray) -> tuple[int, int] | None:
    """The first (k, l) with |A_phi(k,l)| <= RANK_RTOL * ||phi||^2, or None."""
    norm2 = max(float(np.vdot(phi, phi).real), np.finfo(float).tiny)
    bad = np.argwhere(np.abs(amb) <= RANK_RTOL * norm2)
    return (int(bad[0][0]), int(bad[0][1])) if len(bad) else None


def check_generator_h(phi) -> bool:
    """True iff the ambiguity function of phi is nowhere vanishing
    (min |A_phi| > RANK_RTOL * ||phi||^2)."""
    phi = _check_phi(phi)
    return _vanishing_point(ambiguity(phi), phi) is None


def h_forward(A, phi) -> np.ndarray:
    """Measurements F(k,l) = <A pi(k,l) phi, pi(k,l) phi> on Z_n^2.

    :func:`h_recover` run backwards: G[k', y] = n A(y, y-k') holds the cyclic
    diagonals of A, F_hat = n^{1/2} conj(A_phi) * (FFT of G over y), and
    F = ifft2 of F_hat(-k, l') at (l', k).  O(n^2 log n) time, O(n^2) memory.
    """
    phi = _check_phi(phi)
    n = len(phi)
    A = require_finite("A", A)
    if A.shape != (n, n):
        raise ValueError(f"matrix must be {n}x{n}, got {A.shape}")
    y = np.arange(n)
    G = n * A[y[None, :], (y[None, :] - y[:, None]) % n]  # row k', column y
    F_hat = np.sqrt(n) * ambiguity(phi).conj() * np.fft.fft(G, axis=1)
    return np.fft.ifft2(F_hat[-y % n].T)


def h_recover(F, phi) -> np.ndarray:
    """Two-step inversion of :func:`h_forward`.

    (i) F_hat(k',l') = sum_{k,l} F(k,l) e^{-2 pi i (l'k - l k')/n};
    (ii) A = sum_{k',l'} n^{-2} F_hat(k',l') / <pi(k',l') phi, phi> * pi(k',l').

    The mixed-sign kernel in (i) matches the conjugation action
    pi(k,l)^* pi(k',l') pi(k,l) = e^{2 pi i (l'k - lk')/n} pi(k',l').
    Step (i) is fft2(F)(l', -k'); in (ii), <pi(k',l') phi, phi> = n^{1/2}
    conj(A_phi(k',l')) and one inverse FFT over l' gives the diagonal y-z = k'.
    """
    phi = _check_phi(phi)
    n = len(phi)
    F = require_finite("F", F)
    if F.shape != (n, n):
        raise ValueError(f"measurements must be {n}x{n}, got {F.shape}")
    amb = ambiguity(phi)
    bad = _vanishing_point(amb, phi)
    if bad is not None:
        raise InadmissibleGeneratorError(f"ambiguity function vanishes at (k,l) = {bad}")
    y = np.arange(n)
    F_hat = np.fft.fft2(F)[:, -y % n].T
    G = np.fft.ifft(F_hat / (np.sqrt(n) * amb.conj()), axis=1)  # row k', column y
    return G[(y[:, None] - y[None, :]) % n, y[:, None]] / n
