"""Modular arithmetic in Z_p / Z_p* and the discrete-log order of its characters.

Integers mod p are always stored as canonical representatives in
{0..p-1}.  Primes are desk-scale, so primality, inverses and primitive
roots are handled by direct deterministic search.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import MAX_SIZE


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    return n >= 2 and _prime_factors(n) == {n}


def validate_prime(p: int) -> int:
    """Require an odd prime 3 <= p <= MAX_SIZE; return it as an ``int``, so that
    ``np.int64(13)`` and ``13`` share every per-p cache entry."""
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"modulus must be an integer, got {type(p).__name__}")
    if p > MAX_SIZE:
        raise ValueError(f"modulus p = {p} exceeds the size limit MAX_SIZE = {MAX_SIZE}")
    if p < 3 or not is_prime(int(p)):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
    return int(p)


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """Read-only index array ``inv[a] = a^-1 mod p`` for a in {1..p-1}, and ``inv[0] = 0``."""
    p = validate_prime(p)
    inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)])
    inv.setflags(write=False)
    return inv


def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest generator of the cyclic group Z_p*."""
    p = validate_prime(p)
    order = p - 1
    factors = _prime_factors(order)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise AssertionError(f"no primitive root found mod {p}")  # unreachable for prime p


@lru_cache(maxsize=None)
def root_powers(p: int) -> np.ndarray:
    """Read-only index array ``r[t] = (g^t mod p) - 1`` for t in {0..p-2}, g the smallest
    primitive root: discrete-log order.  With chi_j(g^t) = e^{2 pi i jt/(p-1)}, the character
    sums of x on {1..p-1} are sum_l x(l) chi_j(l) = (p-1) ifft(x[r])[j]."""
    p = validate_prime(p)
    g = primitive_root(p)
    r = np.empty(p - 1, dtype=np.intp)
    x = 1
    for t in range(p - 1):
        r[t] = x - 1
        x = (x * g) % p
    r.setflags(write=False)
    return r
