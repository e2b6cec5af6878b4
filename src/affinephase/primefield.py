"""Modular arithmetic in Z_p / Z_p* and multiplicative character tables.

Integers mod p are always stored as canonical representatives in
{0..p-1}.  Primes are desk-scale, so primality, inverses and primitive
roots are handled by direct deterministic search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MAX_SIZE


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def validate_prime(p: int) -> None:
    """Require an odd prime 3 <= p <= MAX_SIZE."""
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"modulus must be an integer, got {type(p).__name__}")
    if p > MAX_SIZE:
        raise ValueError(f"modulus p = {p} exceeds the size limit MAX_SIZE = {MAX_SIZE}")
    if p < 3 or not is_prime(int(p)):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p}")


def mod_inverse(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p, as a representative in {1..p-1}."""
    validate_prime(p)
    if a % p == 0:
        raise ValueError(f"{a} is not invertible mod {p}")
    return pow(int(a), -1, p)


def inverse_table(p: int) -> np.ndarray:
    """Index array ``inv[a] = a^-1 mod p`` for a in {1..p-1}, and ``inv[0] = 0``."""
    validate_prime(p)
    return np.array([0] + [pow(a, -1, p) for a in range(1, p)])


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
    validate_prime(p)
    order = p - 1
    factors = _prime_factors(order)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise AssertionError(f"no primitive root found mod {p}")  # unreachable for prime p


@dataclass(frozen=True)
class CharacterTable:
    """The p-1 multiplicative characters of Z_p*.

    Characters are enumerated relative to the smallest primitive root g:
    chi_j(g^k) = exp(2*pi*i*j*k/(p-1)), so chi_0 is the trivial character.
    ``values[j, l-1]`` holds chi_j(l) for l in {1..p-1}.
    """

    p: int
    root: int
    values: np.ndarray

    def chi(self, j: int, l: int) -> complex:
        if not 0 <= j <= self.p - 2:
            raise ValueError(f"character index {j} out of range for p={self.p}")
        l = l % self.p
        if l == 0:
            raise ValueError("characters are defined on Z_p* only")
        return complex(self.values[j, l - 1])


@lru_cache(maxsize=None)
def character_table(p: int) -> CharacterTable:
    """Build the full character table of Z_p*."""
    validate_prime(p)
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
    return CharacterTable(p=p, root=g, values=values)
