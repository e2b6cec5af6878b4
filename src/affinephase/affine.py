"""Index maps of the affine group G = Z_p x| Z_p* and the intertwiner S.

The dense representations, the group law and the enumeration of G live in
:mod:`affinephase.reference`, as test oracles.  Conventions:
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
from .primefield import inverse_table, validate_prime

ENUMERATION_ORDER_TAG = "l-outer-k-inner"


@dataclass(frozen=True)
class IndexTables:
    """The index maps of the kernels on Z_p x| Z_p*, fixed by p alone: read-only (p-1)x(p-1)
    intp arrays, one per map; a map's inverse scatters through the table it gathers with."""

    dilation: np.ndarray  # [l-1, m-1] = (lm mod p) - 1, where pi_hat0(k,l) row m-1 is nonzero
    s_inverse: np.ndarray  # S* gathers a (p-1)x(p-1) matrix through it; S scatters through it
    pi_hat0: np.ndarray  # pi_hat0(F) gathers the (p-1) x p FFTs over k (row l-1, column m)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def index_tables(p: int) -> IndexTables:
    """The :class:`IndexTables` of p, built once and kept for the last
    ``TABLE_CACHE_SIZE`` moduli used."""
    p = validate_prime(p)
    inv = inverse_table(p)
    m = np.arange(1, p)[:, None]
    n = np.arange(1, p)[None, :]
    dilation = (m * n) % p - 1
    # (S*A)(m, m) = A(-m, 1); (S*A)(m, n) = A(m-n, m^-1 n) for m != n
    s_inverse = (np.where(m == n, -m, m - n) % p - 1) * (p - 1) + (inv[m] * n) % p - 1
    # pi_hat0(F)[m-1, n-1] is the FFT at frequency m of row l = m^-1 n
    tables = IndexTables(dilation, s_inverse, dilation[inv[m[:, 0]] - 1] * p + m)
    for a in vars(tables).values():
        a.setflags(write=False)
    return tables


def _check_square(A, p: int) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (p - 1, p - 1):
        raise ValueError(f"expected a matrix on {{1..{p - 1}}}^2, got shape {A.shape}")
    return A


def s_apply(A) -> np.ndarray:
    """Entry-permutation intertwiner S with S rho1 S* = rho2.

    (SA)(m, 1) = A(-m, -m); (SA)(m, n) = A(m(1-n)^-1, mn(1-n)^-1) for n >= 2.
    Like :func:`s_inverse_apply`, it acts on the last two axes of a stack, whose
    gather it inverts as a scatter into a new C-ordered array.
    """
    p = np.shape(A)[-1] + 1
    A = _check_square(A, p)
    out = np.empty(A.shape, dtype=complex)
    out.reshape(*A.shape[:-2], -1)[..., index_tables(p).s_inverse] = A
    return out


def s_inverse_apply(A) -> np.ndarray:
    """Inverse of S: (S*A)(m, m) = A(-m, 1); (S*A)(m, n) = A(m-n, m^-1 n) for m != n."""
    p = np.shape(A)[-1] + 1
    A = _check_square(A, p)
    return np.take(A.reshape(*A.shape[:-2], -1), index_tables(p).s_inverse, -1)
