"""Dense oracles that the tests check the structured kernels against.

Nothing in the fast path imports this module.  It holds the group law and
enumeration of G = Z_p x| Z_p*, the dense character table of Z_p*, the dense
matrices of pi, pi_hat and pi_hat0, the conjugation actions rho1/rho2, the
permutations Omega0 and Omega1, the explicit measurement matrix with its
least-squares inverse, the Plancherel identity, the Schroedinger matrices of
the Heisenberg group and the dense DFT matrix.  Conventions are those of
:mod:`affinephase.affine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .affine import _check_square
from .errors import RANK_RTOL, TABLE_CACHE_SIZE, InadmissibleGeneratorError
from .group_fourier import transform
from .heisenberg import _check_n
from .primefield import inverse_table, primitive_root, validate_prime
from .recovery import frame_vectors


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def character_table(p: int) -> np.ndarray:
    """The p-1 multiplicative characters of Z_p* as a read-only (p-1) x (p-1) array.

    Characters are enumerated relative to the smallest primitive root g:
    chi_j(g^k) = exp(2*pi*i*j*k/(p-1)), so chi_0 is the trivial character.
    Entry [j, l-1] holds chi_j(l) for l in {1..p-1}.
    """
    p = validate_prime(p)
    g = primitive_root(p)
    dlog = np.empty(p - 1, dtype=np.int64)
    x = 1
    for k in range(p - 1):
        dlog[x - 1] = k
        x = (x * g) % p
    j = np.arange(p - 1, dtype=np.int64)
    # reduce the exponent mod p-1 before evaluating, so each entry comes from
    # an exact rational angle in [0, 2*pi)
    expo = np.outer(j, dlog) % (p - 1)
    values = np.exp(2j * np.pi * expo / (p - 1))
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class AffineElement:
    """Element (k, l) of Z_p x| Z_p*, acting on Z_p by m -> k + l*m."""

    k: int
    l: int
    p: int

    def __post_init__(self):
        validate_prime(self.p)
        if not 0 <= self.k < self.p:
            raise ValueError(f"k={self.k} outside {{0..{self.p - 1}}}")
        if not 1 <= self.l < self.p:
            raise ValueError(f"l={self.l} outside {{1..{self.p - 1}}}")

    @classmethod
    def identity(cls, p: int) -> "AffineElement":
        return cls(0, 1, p)

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.p != other.p:
            raise ValueError(f"mismatched moduli {self.p} and {other.p}")
        p = self.p
        return AffineElement((self.k + self.l * other.k) % p, (self.l * other.l) % p, p)

    def inverse(self) -> "AffineElement":
        linv = pow(self.l, -1, self.p)
        return AffineElement((-linv * self.k) % self.p, linv, self.p)


def enumerate_group(p: int) -> list[AffineElement]:
    """All p(p-1) elements, l outer ascending, k inner ascending."""
    p = validate_prime(p)
    return [AffineElement(k, l, p) for l in range(1, p) for k in range(p)]


def element_index(k: int, l: int, p: int) -> int:
    """Position of (k, l) in the canonical enumeration."""
    return (l - 1) * p + k


def pi_matrix(x: AffineElement) -> np.ndarray:
    """Permutation matrix of the quasiregular action on C^p."""
    p = x.p
    y = x.inverse()  # (pi(x) f)(m) = f(x^-1 m)
    M = np.zeros((p, p), dtype=complex)
    m = np.arange(p)
    M[m, (y.k + y.l * m) % p] = 1.0
    return M


def pi_hat_matrix(x: AffineElement) -> np.ndarray:
    """Fourier conjugate of pi: (pi_hat(k,l) f)(m) = e^{-2 pi i k m/p} f(lm)."""
    p = x.p
    M = np.zeros((p, p), dtype=complex)
    m = np.arange(p)
    M[m, (x.l * m) % p] = np.exp(-2j * np.pi * x.k * m / p)
    return M


def pi_hat0_matrix(x: AffineElement) -> np.ndarray:
    """Restriction of pi_hat to the coordinates {1..p-1}."""
    p = x.p
    M = np.zeros((p - 1, p - 1), dtype=complex)
    m = np.arange(1, p)
    M[m - 1, (x.l * m) % p - 1] = np.exp(-2j * np.pi * x.k * m / p)
    return M


def rho1_apply(x: AffineElement, A) -> np.ndarray:
    """Conjugation action of pi_hat0: result(m,n) = e^{-2 pi i k(m-n)/p} A(lm, ln)."""
    p = x.p
    A = _check_square(A, p)
    m = np.arange(1, p)
    rows = (x.l * m) % p - 1
    phase = np.exp(-2j * np.pi * x.k * m / p)
    return (phase[:, None] * phase.conj()[None, :]) * A[..., rows[:, None], rows]


def rho2_apply(x: AffineElement, A) -> np.ndarray:
    """Block form of rho1 after conjugation by S.

    Column n=1 transforms by A(lm, 1) without phase; columns n >= 2 pick up
    the factor e^{-2 pi i k m/p}.
    """
    p = x.p
    A = _check_square(A, p)
    m = np.arange(1, p)
    rows = (x.l * m) % p - 1
    out = A[..., rows, :]
    out[..., 1:] *= np.exp(-2j * np.pi * x.k * m / p)[:, None]
    return out


def omega0(p: int) -> np.ndarray:
    """Sign-flip permutation on {1..p-1}: (Omega0 f)(m) = f(-m)."""
    p = validate_prime(p)
    M = np.zeros((p - 1, p - 1), dtype=complex)
    m = np.arange(1, p)
    M[m - 1, (p - m) - 1] = 1.0
    return M


def omega1(p: int) -> np.ndarray:
    """Permutation-style matrix of (Omega1 f)(n) = f(1 + n^-1).

    Rows are labelled {1..p-2}, columns {2..p-1} (column index j for label
    j+2); omega(n) = 1 + n^-1 is a bijection {1..p-2} -> {2..p-1}.
    """
    p = validate_prime(p)
    M = np.zeros((p - 2, p - 2), dtype=complex)
    n = np.arange(1, p - 1)
    M[n - 1, inverse_table(p)[n] - 1] = 1.0  # column index of label 1 + n^-1
    return M


def oracle_full_map(phi, p: int) -> np.ndarray:
    """Entry-by-entry matrix of the measurement map A -> F, built from the
    orbit vectors alone: row x, column (m,n) holds w_x(n) conj(w_x(m)), so
    that F = M @ vec(A) with row-major vec."""
    W = frame_vectors(phi, p)
    return np.einsum("xm,xn->xmn", W.conj(), W).reshape(p * (p - 1), (p - 1) ** 2)


def oracle_recover(F, phi, p: int) -> np.ndarray:
    """Least-squares inversion of the full measurement matrix (independent of
    the structured recovery path)."""
    F = np.asarray(F, dtype=complex)
    M = oracle_full_map(phi, p)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] <= np.finfo(float).tiny or np.sum(sv > RANK_RTOL * sv[0]) < (p - 1) ** 2:
        raise InadmissibleGeneratorError("measurement map is rank-deficient")
    vec = np.linalg.pinv(M, rcond=RANK_RTOL) @ F
    return vec.reshape(p - 1, p - 1)


def plancherel_sides(F, p: int) -> tuple[float, float]:
    """(||F||^2, |G|^-1 [sum_j |chi~_j(F)|^2 + (p-1) ||pi_hat0(F)||^2])."""
    c = transform(F, p)
    F, p = np.asarray(F, dtype=complex), c.p
    lhs = float(np.vdot(F, F).real)
    rhs = float(
        (np.vdot(c.scalar_part, c.scalar_part).real
         + (p - 1) * np.vdot(c.matrix_part, c.matrix_part).real) / (p * (p - 1))
    )
    return lhs, rhs


def schrodinger_matrix(k: int, l: int, n: int) -> np.ndarray:
    """Unitary matrix of the Heisenberg operator pi(k, l) on C^n:
    (pi(k,l) f)(y) = e^{2 pi i l y/n} f(y-k)."""
    _check_n(n)
    k, l = k % n, l % n
    M = np.zeros((n, n), dtype=complex)
    y = np.arange(n)
    M[y, (y - k) % n] = np.exp(2j * np.pi * l * y / n)
    return M


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def dft_matrix(p: int) -> np.ndarray:
    """The unitary p x p Fourier matrix U[m, n] = p**-0.5 * exp(-2*pi*i*n*m/p);
    read-only, kept for the last ``TABLE_CACHE_SIZE`` sizes."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    m = np.arange(p)
    U = np.exp(-2j * np.pi * np.outer(m, m) / p) / np.sqrt(p)
    U.setflags(write=False)
    return U
