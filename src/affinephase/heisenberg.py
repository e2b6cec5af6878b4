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

from functools import lru_cache

import numpy as np

from .errors import (MAX_SIZE, RANK_RTOL, TABLE_CACHE_SIZE, InadmissibleGeneratorError,
                     require_finite)


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


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _index_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only gathers on Z_n, kept for the last ``TABLE_CACHE_SIZE`` sizes: the translate
    (k, y) -> y - k, and as flat indices into an n x n array the cyclic diagonal
    (k, y) -> (y, y + k) and the back gather (y, z) -> (z - y, y)."""
    y = np.arange(n)
    shift = (y - y[:, None]) % n
    maps = (shift, y * n + shift[shift[:, 0]], shift * n + y[:, None])
    for a in maps:
        a.setflags(write=False)
    return maps


def _ambiguity(phi: np.ndarray) -> np.ndarray:
    """For each k, one FFT over y of phi(y) conj(phi(y - k))."""
    n = len(phi)
    return np.fft.fft(phi * phi[_index_maps(n)[0]].conj(), axis=1) / np.sqrt(n)


def ambiguity(phi) -> np.ndarray:
    """Ambiguity table A_phi(k,l) = n^{-1/2} <phi, pi(k,l) phi> on Z_n^2."""
    return _ambiguity(_check_phi(phi))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _generator_plan(n: int, phi_bytes: bytes) -> tuple[np.ndarray, tuple[int, int] | None, float]:
    """The plan of the validated generator with these bytes, kept for the last
    ``TABLE_CACHE_SIZE`` generators used (an equal phi in a new array shares it, a phi
    changed in place gets a new one): the read-only table sqrt(n) conj(A_phi(-k, l)) at
    row k, the first (k, l) with |A_phi(k,l)| <= RANK_RTOL * ||phi||^2 or None, and min |A_phi|."""
    phi = np.frombuffer(phi_bytes, dtype=complex)
    amb = _ambiguity(phi)
    modulus = np.abs(amb)
    least, bad = float(np.min(modulus)), None
    tol = RANK_RTOL * max(float(np.vdot(phi, phi).real), np.finfo(float).tiny)
    if least <= tol:
        bad = tuple(int(i) for i in np.argwhere(modulus <= tol)[0])
    table = (np.sqrt(n) * amb.conj())[_index_maps(n)[0][:, 0]]  # the translate's column 0 is -k
    table.setflags(write=False)
    return table, bad, least


def _plan(phi) -> tuple[np.ndarray, tuple[int, int] | None, float]:
    """Validate phi, then find or build its plan."""
    phi = _check_phi(phi)
    return _generator_plan(len(phi), phi.tobytes())


def check_generator_h(phi) -> bool:
    """True iff the ambiguity function of phi is nowhere vanishing
    (min |A_phi| > RANK_RTOL * ||phi||^2)."""
    return _plan(phi)[1] is None


def h_forward(A, phi) -> np.ndarray:
    """Measurements F(k,l) = <A pi(k,l) phi, pi(k,l) phi> on Z_n^2, for A or a stack
    (..., n, n) of them.

    :func:`h_recover` run backwards: G[k', y] = n A(y, y-k') holds the cyclic
    diagonals of A, F_hat = n^{1/2} conj(A_phi) * (FFT of G over y), and
    F = ifft2 of F_hat(-k, l') at (l', k).  O(n^2 log n) time and O(n^2) memory per
    record, after the plan's O(n^2 log n) once per phi.
    """
    table = _plan(phi)[0]
    n = len(table)
    A = require_finite("A", A)
    if A.shape[-2:] != (n, n):
        raise ValueError(f"matrix must be {n}x{n}, got {A.shape}")
    G = n * A.reshape(*A.shape[:-2], n * n)[..., _index_maps(n)[1]]  # row -k', column y
    X = np.fft.fft(G, axis=-1)  # named, so that numpy cannot swap the operands of table * X
    # ifft2 as its two 1-D passes, last axis first, without the cost of numpy's n-D wrapper
    return np.fft.ifft(np.fft.ifft((table * X).swapaxes(-1, -2), axis=-1), axis=-2)


def h_recover(F, phi) -> np.ndarray:
    """Two-step inversion of :func:`h_forward`, for F or a stack (..., n, n) of them.

    (i) F_hat(k',l') = sum_{k,l} F(k,l) e^{-2 pi i (l'k - l k')/n};
    (ii) A = sum_{k',l'} n^{-2} F_hat(k',l') / <pi(k',l') phi, phi> * pi(k',l').

    The mixed-sign kernel in (i) matches the conjugation action
    pi(k,l)^* pi(k',l') pi(k,l) = e^{2 pi i (l'k - lk')/n} pi(k',l').
    Step (i) is fft2(F)(l', -k'); in (ii), <pi(k',l') phi, phi> = n^{1/2}
    conj(A_phi(k',l')) and one inverse FFT over l' gives the diagonal y-z = k'.
    """
    table, bad, _ = _plan(phi)
    n = len(table)
    F = require_finite("F", F)
    if F.shape[-2:] != (n, n):
        raise ValueError(f"measurements must be {n}x{n}, got {F.shape}")
    if bad is not None:
        raise InadmissibleGeneratorError(f"ambiguity function vanishes at (k,l) = {bad}")
    X = np.fft.fft(np.fft.fft(F, axis=-1), axis=-2)  # fft2, as in h_forward
    G = np.fft.ifft(X.swapaxes(-1, -2) / table, axis=-1)  # row -k', column y
    return G.reshape(*G.shape[:-2], n * n)[..., _index_maps(n)[2]] / n
