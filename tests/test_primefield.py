import numpy as np
import pytest

from affinephase.errors import MAX_SIZE
from affinephase.primefield import (
    character_table,
    inverse_table,
    is_prime,
    mod_inverse,
    primitive_root,
    validate_prime,
)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-2, 25):
        assert is_prime(n) == (n in primes), n


def test_validate_prime_rejects_even_and_composite():
    validate_prime(3)
    validate_prime(13)
    for bad in (0, 1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            validate_prime(bad)


def test_size_limit_named_before_primality_test():
    # 2^61 - 1 is prime; trial division up to its square root would take minutes
    p = 2**61 - 1
    with pytest.raises(ValueError, match=f"p = {p} exceeds the size limit MAX_SIZE = {MAX_SIZE}"):
        validate_prime(p)


def test_mod_inverse_all_units():
    for p in (3, 5, 7, 11, 13):
        inv = inverse_table(p)
        assert inv.shape == (p,) and inv[0] == 0
        for a in range(1, p):
            assert (a * mod_inverse(a, p)) % p == 1
            assert inv[a] == mod_inverse(a, p)
    with pytest.raises(ValueError):
        mod_inverse(0, 7)


def test_primitive_root_frozen_values():
    # smallest primitive roots, checked against classical tables
    expected = {3: 2, 5: 2, 7: 3, 11: 2, 13: 2, 17: 3, 19: 2, 23: 5}
    for p, g in expected.items():
        assert primitive_root(p) == g


def test_primitive_root_generates_all_units():
    for p in (3, 5, 7, 11, 13):
        g = primitive_root(p)
        powers = {pow(g, k, p) for k in range(p - 1)}
        assert powers == set(range(1, p))


def test_character_table_p5_frozen_row():
    # chi_1(l) for p=5, root 2: discrete logs of 1,2,3,4 are 0,1,3,2
    table = character_table(5)
    expected = np.array([1, 1j, -1j, -1])
    assert np.allclose(table.values[1], expected, atol=1e-14)


def test_character_table_orthogonality():
    for p in (3, 5, 7, 11):
        V = character_table(p).values
        G = V @ V.conj().T
        assert np.allclose(G, (p - 1) * np.eye(p - 1), atol=1e-12)


def test_character_table_multiplicativity():
    for p in (5, 7):
        t = character_table(p)
        for j in range(p - 1):
            for a in range(1, p):
                for b in range(1, p):
                    assert abs(t.chi(j, (a * b) % p) - t.chi(j, a) * t.chi(j, b)) < 1e-12


def test_character_table_exact_unit_modulus():
    V = character_table(13).values
    assert np.allclose(np.abs(V), 1.0, atol=1e-15)


def test_character_table_readonly():
    V = character_table(7).values
    with pytest.raises(ValueError):
        V[0, 0] = 0
