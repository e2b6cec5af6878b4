import numpy as np
import pytest

from affinephase.affine import (
    AffineElement,
    ENUMERATION_ORDER_TAG,
    dilation_index,
    element_index,
    enumerate_group,
    omega0,
    omega1,
    pi_hat0_matrix,
    pi_hat_matrix,
    pi_matrix,
    rho1_apply,
    rho2_apply,
    s_apply,
    s_inverse_apply,
)
from affinephase.harmonics import dft_matrix
from affinephase.primefield import mod_inverse

RNG = np.random.default_rng(20240817)
PRIMES = (3, 5, 7)


def rand_matrix(d):
    return RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))


def test_group_law_against_action_composition():
    # (k,l) acts as m -> k + lm; products must compose the actions
    p = 7
    for x in enumerate_group(p)[:10]:
        for y in enumerate_group(p)[::5]:
            z = x * y
            for m in range(p):
                via_z = (z.k + z.l * m) % p
                via_xy = (x.k + x.l * ((y.k + y.l * m) % p)) % p
                assert via_z == via_xy


def test_identity_and_inverse():
    p = 11
    e = AffineElement.identity(p)
    for x in enumerate_group(p)[::7]:
        assert x * x.inverse() == e
        assert x.inverse() * x == e


def test_element_validation():
    with pytest.raises(ValueError):
        AffineElement(0, 0, 5)
    with pytest.raises(ValueError):
        AffineElement(5, 1, 5)
    with pytest.raises(ValueError):
        AffineElement(0, 1, 4)


def test_enumeration_order_and_index():
    p = 5
    elems = enumerate_group(p)
    assert len(elems) == p * (p - 1)
    assert ENUMERATION_ORDER_TAG == "l-outer-k-inner"
    # l outer ascending, k inner ascending
    assert (elems[0].k, elems[0].l) == (0, 1)
    assert (elems[1].k, elems[1].l) == (1, 1)
    assert (elems[p].k, elems[p].l) == (0, 2)
    for i, x in enumerate(elems):
        assert element_index(x.k, x.l, p) == i


def test_pi_is_permutation_homomorphism():
    p = 7
    elems = enumerate_group(p)
    for x in elems[::5]:
        M = pi_matrix(x)
        assert np.allclose(M @ M.conj().T, np.eye(p), atol=1e-14)
        for y in elems[::7]:
            assert np.allclose(pi_matrix(x * y), pi_matrix(x) @ pi_matrix(y), atol=1e-13)


def test_pi_entry_formula():
    # (pi(k,l) f)(m) = f(l^-1 (m-k))
    p = 5
    f = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    x = AffineElement(2, 3, p)
    g = pi_matrix(x) @ f
    linv = mod_inverse(3, p)
    for m in range(p):
        assert abs(g[m] - f[(linv * (m - 2)) % p]) < 1e-14


def test_pi_hat_is_fourier_conjugate_of_pi():
    for p in PRIMES:
        U = dft_matrix(p)
        for x in enumerate_group(p)[:: p - 1]:
            lhs = pi_hat_matrix(x)
            rhs = U @ pi_matrix(x) @ U.conj().T
            assert np.allclose(lhs, rhs, atol=1e-12), (p, x)


def test_pi_hat_fixes_zero_frequency_and_restricts():
    p = 7
    for x in enumerate_group(p)[::4]:
        M = pi_hat_matrix(x)
        assert abs(M[0, 0] - 1) < 1e-14
        assert np.allclose(M[0, 1:], 0) and np.allclose(M[1:, 0], 0)
        assert np.allclose(M[1:, 1:], pi_hat0_matrix(x), atol=1e-14)


def test_dilation_index_is_support_of_pi_hat0():
    for p in (3, 5, 7):
        idx = dilation_index(p)
        for x in enumerate_group(p):
            support = np.zeros((p - 1, p - 1), dtype=bool)
            support[np.arange(p - 1), idx[x.l - 1]] = True
            assert np.array_equal(pi_hat0_matrix(x) != 0, support), (p, x)


def test_pi_hat0_homomorphism_and_unitarity():
    p = 5
    elems = enumerate_group(p)
    for x in elems[::3]:
        M = pi_hat0_matrix(x)
        assert np.allclose(M @ M.conj().T, np.eye(p - 1), atol=1e-13)
        for y in elems[::4]:
            assert np.allclose(
                pi_hat0_matrix(x * y), pi_hat0_matrix(x) @ pi_hat0_matrix(y), atol=1e-13
            )


def test_rho1_is_conjugation_by_pi_hat0():
    for p in PRIMES:
        A = rand_matrix(p - 1)
        for x in enumerate_group(p)[::3]:
            U = pi_hat0_matrix(x)
            assert np.allclose(rho1_apply(x, A), U @ A @ U.conj().T, atol=1e-12), (p, x)


def test_rho1_entry_formula():
    p = 5
    A = rand_matrix(p - 1)
    x = AffineElement(1, 2, p)
    B = rho1_apply(x, A)
    for m in range(1, p):
        for n in range(1, p):
            expected = (
                np.exp(-2j * np.pi * 1 * (m - n) / p) * A[2 * m % p - 1, 2 * n % p - 1]
            )
            assert abs(B[m - 1, n - 1] - expected) < 1e-13


def test_s_intertwines_rho1_and_rho2():
    for p in PRIMES:
        A = rand_matrix(p - 1)
        for x in enumerate_group(p):
            lhs = s_apply(rho1_apply(x, A))
            rhs = rho2_apply(x, s_apply(A))
            assert np.allclose(lhs, rhs, atol=1e-12), (p, x)


def test_s_round_trip_and_norm():
    for p in PRIMES + (11,):
        A = rand_matrix(p - 1)
        SA = s_apply(A)
        assert np.allclose(s_inverse_apply(SA), A, atol=1e-13)
        assert np.allclose(s_apply(s_inverse_apply(A)), A, atol=1e-13)
        # entry permutation: Frobenius norm is preserved
        assert abs(np.linalg.norm(SA) - np.linalg.norm(A)) < 1e-12


def test_s_and_s_inverse_against_entry_formulas():
    for p in (3, 5, 7, 13):
        A = rand_matrix(p - 1)
        SA, SinvA = s_apply(A), s_inverse_apply(A)
        for m in range(1, p):
            assert SA[m - 1, 0] == A[(-m) % p - 1, (-m) % p - 1]
            assert SinvA[m - 1, m - 1] == A[(-m) % p - 1, 0]
            for n in range(1, p):
                if n >= 2:
                    inv = mod_inverse((1 - n) % p, p)
                    assert SA[m - 1, n - 1] == A[(m * inv) % p - 1, (m * n * inv) % p - 1]
                if n != m:
                    expected = A[(m - n) % p - 1, (mod_inverse(m, p) * n) % p - 1]
                    assert SinvA[m - 1, n - 1] == expected


def test_omega0_is_involutive_permutation():
    for p in PRIMES:
        W = omega0(p)
        assert np.allclose(W @ W, np.eye(p - 1), atol=1e-14)
        f = np.arange(1, p).astype(complex)
        g = W @ f
        for m in range(1, p):
            assert g[m - 1] == f[(p - m) - 1]


def test_omega1_is_permutation_of_claimed_bijection():
    for p in (5, 7, 11):
        W = omega1(p)
        assert np.allclose(W @ W.T, np.eye(p - 2), atol=1e-14)
        f = RNG.normal(size=p - 2)  # labels 2..p-1
        g = W @ f
        for n in range(1, p - 1):
            target = (1 + mod_inverse(n, p)) % p
            assert abs(g[n - 1] - f[target - 2]) < 1e-14
