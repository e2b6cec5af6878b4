"""The affine group G = Z_p x| Z_p* and its representations.

Conventions:
  * group elements are pairs (k, l) with k in {0..p-1}, l in {1..p-1} and
    group law (k, l)(k', l') = (k + l*k' mod p, l*l' mod p);
  * the quasiregular representation acts by (pi(k,l) f)(m) = f(l^-1 (m-k));
  * its Fourier conjugate acts by (pi_hat(k,l) f)(m) = e^{-2 pi i k m/p} f(lm),
    and pi_hat0 is the restriction to coordinates {1..p-1};
  * matrices over the label set {1..p-1} are stored as (p-1)x(p-1) arrays
    with array index i corresponding to label i+1; matrices with columns
    labelled {2..p-1} use column index j for label j+2.  The enumeration of
    G is l-outer ascending, k-inner ascending, and group functions are flat
    arrays of length p(p-1) in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TABLE_CACHE_SIZE
from .primefield import inverse_table, mod_inverse, validate_prime


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
        linv = mod_inverse(self.l, self.p)
        return AffineElement((-linv * self.k) % self.p, linv, self.p)


def enumerate_group(p: int) -> list[AffineElement]:
    """All p(p-1) elements, l outer ascending, k inner ascending."""
    p = validate_prime(p)
    return [AffineElement(k, l, p) for l in range(1, p) for k in range(p)]


def element_index(k: int, l: int, p: int) -> int:
    """Position of (k, l) in the canonical enumeration."""
    return (l - 1) * p + k


ENUMERATION_ORDER_TAG = "l-outer-k-inner"


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


@dataclass(frozen=True)
class IndexTables:
    """The index maps of the kernels on Z_p x| Z_p*, fixed by p alone: read-only
    intp arrays, the (p-1)x(p-1) ones gathers from a flat array."""

    dilation: np.ndarray  # [l-1, m-1] = (lm mod p) - 1, where pi_hat0(k,l) row m-1 is nonzero
    s: np.ndarray  # S, from a (p-1)x(p-1) matrix
    s_inverse: np.ndarray  # S*, from a (p-1)x(p-1) matrix
    pi_hat0: np.ndarray  # pi_hat0(F), from the (p-1) x p FFTs over k (row l-1, column m)
    pi_hat0_support: np.ndarray  # [l-1, m-1]: the entry (m-1, dilation[l-1, m-1])
    omega1: np.ndarray  # [n-1] = n^-1 - 1, the column of label 1 + n^-1 (p-2 entries)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def index_tables(p: int) -> IndexTables:
    """The :class:`IndexTables` of p, built once and kept for the last
    ``TABLE_CACHE_SIZE`` moduli used."""
    p = validate_prime(p)
    inv = inverse_table(p)
    m = np.arange(1, p)[:, None]
    n = np.arange(1, p)[None, :]
    dilation = (m * n) % p - 1
    # (SA)(m, 1) = A(-m, -m); (SA)(m, n) = A(m(1-n)^-1, mn(1-n)^-1) for n >= 2
    rows = m * inv[(1 - n) % p]
    rows[:, :1] = -m
    s = (rows % p - 1) * (p - 1) + (rows * n) % p - 1
    # (S*A)(m, m) = A(-m, 1); (S*A)(m, n) = A(m-n, m^-1 n) for m != n
    s_inverse = (np.where(m == n, -m, m - n) % p - 1) * (p - 1) + (inv[m] * n) % p - 1
    # pi_hat0(F)[m-1, n-1] is the FFT at frequency m of row l = m^-1 n
    tables = IndexTables(dilation, s, s_inverse, dilation[inv[m[:, 0]] - 1] * p + m,
                         (n - 1) * (p - 1) + dilation, inv[1 : p - 1] - 1)
    for a in vars(tables).values():
        a.setflags(write=False)
    return tables


def dilation_index(p: int) -> np.ndarray:
    """Read-only; entry [l-1, m-1] is the array index (lm mod p) - 1, for l, m in
    {1..p-1}; pi_hat0(k,l) is nonzero exactly at the entries (m-1, [l-1, m-1])."""
    return index_tables(validate_prime(p)).dilation


def _check_square(A, p: int) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (p - 1, p - 1):
        raise ValueError(f"expected a matrix on {{1..{p - 1}}}^2, got shape {A.shape}")
    return A


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


def s_apply(A) -> np.ndarray:
    """Entry-permutation intertwiner S with S rho1 S* = rho2.

    (SA)(m, 1) = A(-m, -m); (SA)(m, n) = A(m(1-n)^-1, mn(1-n)^-1) for n >= 2.
    Like the other matrix actions here, it acts on the last two axes of a stack.
    """
    p = np.shape(A)[-1] + 1
    A = _check_square(A, p)
    return np.take(A.reshape(*A.shape[:-2], -1), index_tables(p).s, -1)


def s_inverse_apply(A) -> np.ndarray:
    """Inverse of S: (S*A)(m, m) = A(-m, 1); (S*A)(m, n) = A(m-n, m^-1 n) for m != n."""
    p = np.shape(A)[-1] + 1
    A = _check_square(A, p)
    return np.take(A.reshape(*A.shape[:-2], -1), index_tables(p).s_inverse, -1)


def omega0(p: int) -> np.ndarray:
    """Sign-flip permutation on {1..p-1}: (Omega0 f)(m) = f(-m).  Test oracle only."""
    p = validate_prime(p)
    M = np.zeros((p - 1, p - 1), dtype=complex)
    m = np.arange(1, p)
    M[m - 1, (p - m) - 1] = 1.0
    return M


def omega1(p: int) -> np.ndarray:
    """Permutation-style matrix of (Omega1 f)(n) = f(1 + n^-1).

    Rows are labelled {1..p-2}, columns {2..p-1} (column index j for label
    j+2); omega(n) = 1 + n^-1 is a bijection {1..p-2} -> {2..p-1}.  Test oracle only.
    """
    p = validate_prime(p)
    M = np.zeros((p - 2, p - 2), dtype=complex)
    n = np.arange(1, p - 1)
    M[n - 1, inverse_table(p)[n] - 1] = 1.0  # column index of label 1 + n^-1
    return M
