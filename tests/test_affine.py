import numpy as np
import pytest

from affinephase.affine import ENUMERATION_ORDER_TAG, index_tables, s_apply, s_inverse_apply
from affinephase.errors import TABLE_CACHE_SIZE
from affinephase.group_fourier import _synthesis
from affinephase.primefield import root_powers
from affinephase.recovery import forward_measure, recover_matrix, recover_vector
from affinephase.reference import (
    AffineElement,
    character_table,
    dft_matrix,
    element_index,
    enumerate_group,
    omega0,
    omega1,
    pi_hat0_matrix,
    pi_hat_matrix,
    pi_matrix,
    rho1_apply,
    rho2_apply,
)

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
    linv = pow(3, -1, p)
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
        idx = index_tables(p).dilation
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
                    inv = pow((1 - n) % p, -1, p)
                    assert SA[m - 1, n - 1] == A[(m * inv) % p - 1, (m * n * inv) % p - 1]
                if n != m:
                    expected = A[(m - n) % p - 1, (pow(m, -1, p) * n) % p - 1]
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
            target = (1 + pow(n, -1, p)) % p
            assert abs(g[n - 1] - f[target - 2]) < 1e-14


def per_call_index_maps(p):
    """The index arithmetic the kernels redid on every call before the per-p
    tables, kept here as the oracle for them."""
    inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)])
    m = np.arange(1, p)[:, None]
    n = np.arange(1, p)[None, :]
    dilation = np.outer(m, m) % p - 1
    rows = m * inv[(1 - n) % p]  # s_apply
    rows[:, :1] = -m
    s = (rows % p - 1) * (p - 1) + (rows * n) % p - 1
    s_inverse = (np.where(m == n, -m, m - n) % p - 1) * (p - 1) + (inv[m] * n) % p - 1
    # pi_hat0_transform scattered the FFTs G[..., 1:] to [arange(p-1), dilation];
    # scattering the flat positions of G gives the gather that replaces it
    pi_hat0 = np.empty((p - 1, p - 1), dtype=int)
    pi_hat0[np.arange(p - 1), dilation] = np.arange(p * (p - 1)).reshape(p - 1, p)[:, 1:]
    # fourier_invert gathered M[arange(p-1), dilation]
    support = np.arange((p - 1) ** 2).reshape(p - 1, p - 1)[np.arange(p - 1), dilation]
    # b_phi gathered phi at mn and m(n+1), n in {1..p-2}
    b_rows = (m * n[:, :-1]) % p - 1
    b_cols = (m * (n[:, :-1] + 1)) % p - 1
    omega1 = inv[1 : p - 1] - 1
    return dilation, s, s_inverse, pi_hat0, support, b_rows, b_cols, omega1


@pytest.mark.parametrize("p", [3, 5, 13, 61])
def test_index_tables_memoized_read_only_and_equal_to_per_call_maps(p):
    tables = index_tables(p)
    assert index_tables(p) is tables
    arrays = vars(tables)
    for name, a in arrays.items():
        assert a.dtype == np.intp, name
        with pytest.raises(ValueError):
            a.flat[0] = 0
    dilation, s, s_inverse, pi_hat0, support, b_rows, b_cols, omega1 = per_call_index_maps(p)
    assert np.array_equal(tables.dilation, dilation)
    assert np.array_equal(tables.s_inverse, s_inverse)
    assert np.array_equal(tables.pi_hat0, pi_hat0)
    # S scatters through the S* table: S of the index matrix is the S gather
    assert np.array_equal(s_apply(np.arange((p - 1) ** 2).reshape(p - 1, p - 1)), s)
    # synthesis scatters through the pi_hat0 table: its FFTs over k hold M at the support
    M = rand_matrix(p - 1)
    G = np.fft.fft(_synthesis(0, M, p).reshape(p - 1, p), axis=1)
    assert np.linalg.norm(G[:, 1:] - np.take(M, support)) <= 1e-12 * np.linalg.norm(M)
    # b_phi reads its row/column pair off the dilation index
    assert np.array_equal(tables.dilation[:, :-1], b_rows)
    assert np.array_equal(tables.dilation[:, 1:], b_cols)
    # omega1 is checked by the round trips against reference.oracle_recover


def test_table_caches_are_bounded():
    assert TABLE_CACHE_SIZE >= 2  # two alternating moduli must not rebuild
    assert index_tables.cache_info().maxsize == TABLE_CACHE_SIZE
    assert character_table.cache_info().maxsize == TABLE_CACHE_SIZE
    assert dft_matrix.cache_info().maxsize == TABLE_CACHE_SIZE


def test_repeated_round_trip_builds_no_table():
    p = 61
    phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    A = rand_matrix(p - 1)
    recover_matrix(forward_measure(A, phi, p), phi, p)
    misses = (index_tables.cache_info().misses, root_powers.cache_info().misses)
    F = forward_measure(A, phi, p)
    recover_matrix(F, phi, p)
    assert (index_tables.cache_info().misses, root_powers.cache_info().misses) == misses


def test_index_tables_within_stated_bytes():
    # errors.MAX_SIZE: at most 3 (p-1)^2 intp entries per cached p
    p = 211
    nbytes = sum(a.nbytes for a in vars(index_tables(p)).values())
    assert nbytes <= 3 * (p - 1) ** 2 * np.dtype(np.intp).itemsize, nbytes


def _layouts(X):
    """X as a Fortran-ordered copy and as a view of transposed memory, equal in value."""
    return np.asfortranarray(X), np.ascontiguousarray(np.swapaxes(X, -1, -2)).swapaxes(-1, -2)


@pytest.mark.parametrize("p", [5, 13])
def test_kernels_do_not_depend_on_memory_layout(p):
    phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    A = rand_matrix(p - 1)
    stack = np.stack([rand_matrix(p - 1) for _ in range(3)])
    f = RNG.normal(size=(3, p - 1)) + 1j * RNG.normal(size=(3, p - 1))
    F = np.stack([forward_measure(B, phi, p) for B in stack])
    Fv = np.stack([forward_measure(np.outer(x, x.conj()), phi, p) for x in f]).real
    cases = [(s_apply, stack), (s_inverse_apply, stack), (lambda X: forward_measure(X, phi, p), A),
             (lambda X: recover_matrix(X, phi, p), F), (lambda X: recover_vector(X, phi, p), Fv)]
    for fn, X in cases:
        want = fn(np.ascontiguousarray(X))
        for Y in _layouts(X):
            assert np.array_equal(fn(Y), want), (fn, Y.flags)
