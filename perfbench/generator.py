"""Seeded inputs and their ground truth, written from the paper's formulas
in plain numpy.

Nothing here calls affinephase, so a defect in one of the library's
forward maps cannot cancel against the same defect in its inverse inside a
round trip.  Index conventions follow the library: vectors on {1..p-1} use
array index m-1 for label m, and group functions on Z_p x| Z_p* are flat
arrays with l outer and k inner, index (l-1)p + k.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def zero_sum(v: np.ndarray) -> np.ndarray:
    return v - v.mean()


def canonical_generator(p: int) -> np.ndarray:
    """phi = (1, 2) for p = 3, and phi(m) = 1 - delta_1(m) for p >= 5."""
    if p == 3:
        return np.array([1.0, 2.0], dtype=complex)
    phi = np.ones(p - 1, dtype=complex)
    phi[0] = 0.0
    return phi


def affine_frame(phi: np.ndarray, p: int) -> np.ndarray:
    """Rows w_{k,l}(m) = e^{-2 pi i k m/p} phi(lm) for m in {1..p-1}, one row
    per group element (k, l)."""
    k = np.arange(p)[None, :, None]
    l = np.arange(1, p)[:, None, None]
    m = np.arange(1, p)[None, None, :]
    W = np.exp(-2j * np.pi * ((k * m) % p) / p) * phi[(l * m) % p - 1]
    return W.reshape(p * (p - 1), p - 1)


def schrodinger_frame(phi: np.ndarray) -> np.ndarray:
    """Rows w_{k,l}(y) = e^{2 pi i l y/n} phi(y - k) on Z_n, row index k*n + l."""
    n = len(phi)
    k = np.arange(n)[:, None, None]
    l = np.arange(n)[None, :, None]
    y = np.arange(n)[None, None, :]
    W = np.exp(2j * np.pi * ((l * y) % n) / n) * phi[(y - k) % n]
    return W.reshape(n * n, n)


def quadratic_measure(W: np.ndarray, A: np.ndarray) -> np.ndarray:
    """F_x = <A w_x, w_x> for every row w_x of W."""
    return ((W.conj() @ A) * W).sum(axis=1)


def modulus_measure(W: np.ndarray, f: np.ndarray) -> np.ndarray:
    """|<f, w_x>|^2 for every row w_x of W."""
    return np.abs(W.conj() @ f) ** 2


def time_generator_p3() -> np.ndarray:
    """psi0(k) = e^{2 pi i k/3} + 2 e^{4 pi i k/3}, the zero-sum 3-point generator."""
    k = np.arange(3)
    return np.exp(2j * np.pi * k / 3) + 2 * np.exp(4j * np.pi * k / 3)


def all_permutations(n: int) -> list[tuple[int, ...]]:
    return list(permutations(range(n)))


def permutation_frame(perms, psi0: np.ndarray) -> np.ndarray:
    """Rows (Pi(h) psi)(m) = psi(h^-1(m)), psi being psi0 on {0,1,2} extended
    by zero, so row h holds psi0(i) at position h(i) for i < 3."""
    n = len(perms[0])
    W = np.zeros((len(perms), n), dtype=complex)
    for r, h in enumerate(perms):
        W[r, list(h[:3])] = psi0
    return W


def frequency_deleted_moduli(f: np.ndarray) -> np.ndarray:
    """|P_l f| for l in {1..p-1}, row l-1, where P_l f = f minus its l-th
    Fourier component: (P_l f)(m) = f(m) - p^-1 fhat(l) e^{2 pi i l m/p}."""
    p = len(f)
    fhat = np.fft.fft(f)  # fhat(l) = sum_m f(m) e^{-2 pi i l m/p}
    l = np.arange(1, p)[:, None]
    m = np.arange(p)[None, :]
    return np.abs(f[None, :] - fhat[1:, None] * np.exp(2j * np.pi * ((l * m) % p) / p) / p)


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over unit scalars a of ||u - a v||."""
    inner = np.vdot(v, u)
    a = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(u - a * v))


def relative_error(x: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(x - truth) / np.linalg.norm(truth))
