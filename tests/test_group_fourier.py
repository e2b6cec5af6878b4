import numpy as np
import pytest

from affinephase.group_fourier import (AffineFourierCoefficients, _frame_coefficients, fourier_invert,
                                      transform)
from affinephase.reference import character_table, enumerate_group, pi_hat0_matrix, plancherel_sides

RNG = np.random.default_rng(20240817)


def rand_group_function(p):
    n = p * (p - 1)
    return RNG.normal(size=n) + 1j * RNG.normal(size=n)


def test_chi_tilde_against_elementwise_sum():
    # independent oracle: direct loop over group elements
    p = 5
    F = rand_group_function(p)
    table = character_table(p)
    all_vals = transform(F, p).scalar_part
    for j in range(p - 1):
        direct = sum(
            F[(l - 1) * p + k] * table[j, l - 1] for l in range(1, p) for k in range(p)
        )
        assert abs(all_vals[j] - direct) < 1e-11


def test_pi_hat0_transform_against_elementwise_sum():
    for p in (3, 5, 7, 13, 31):
        F = rand_group_function(p)
        direct = np.zeros((p - 1, p - 1), dtype=complex)
        for i, x in enumerate(enumerate_group(p)):
            direct += F[i] * pi_hat0_matrix(x)
        err = np.max(np.abs(transform(F, p).matrix_part - direct))
        assert err <= 1e-12 * np.max(np.abs(direct)), (p, err)


def test_frame_coefficients_against_pi_hat0_matrix_action():
    # a stack of two vectors, each against every orbit vector pi_hat0(k,l) phi
    for p in (3, 5, 13):
        f = RNG.normal(size=(2, p - 1)) + 1j * RNG.normal(size=(2, p - 1))
        phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
        V = _frame_coefficients(f, phi, p)
        assert V.shape == (2, p * (p - 1))
        for i, x in enumerate(enumerate_group(p)):
            w = pi_hat0_matrix(x) @ phi
            assert np.allclose(V[:, i], f @ w.conj(), rtol=0, atol=1e-12), (p, x)


def test_inversion_round_trip():
    for p in (3, 5, 7, 11, 13, 31):
        F = rand_group_function(p)
        assert np.allclose(fourier_invert(transform(F, p)), F, atol=1e-10), p


def test_transform_of_delta_at_identity():
    # F = delta at (k,l) = (0,1): scalars all 1, matrix part = identity
    p = 5
    F = np.zeros(p * (p - 1), dtype=complex)
    F[0] = 1.0
    c = transform(F, p)
    assert np.allclose(c.scalar_part, 1.0, atol=1e-14)
    assert np.allclose(c.matrix_part, np.eye(p - 1), atol=1e-14)


def test_plancherel():
    for p in (3, 5, 7, 11):
        F = rand_group_function(p)
        lhs, rhs = plancherel_sides(F, p)
        assert abs(lhs - rhs) < 1e-9 * lhs, p


def test_length_validation():
    with pytest.raises(ValueError):
        transform(np.zeros(10), 5)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 61])
def test_character_sums_match_the_dense_table(p):
    chi = character_table(p)
    F = rand_group_function(p)
    want = chi @ F.reshape(p - 1, p).sum(axis=1)
    got = transform(F, p).scalar_part
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # F(k,l) = |G|^-1 [sum_j s_j conj(chi_j(l)) + (p-1) tr(M pi_hat0(k,l)^*)]
    s = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    M = RNG.normal(size=(p - 1, p - 1)) + 1j * RNG.normal(size=(p - 1, p - 1))
    want = np.array([(s @ chi[:, x.l - 1].conj() + (p - 1) * np.vdot(pi_hat0_matrix(x), M))
                     for x in enumerate_group(p)]) / (p * (p - 1))
    got = fourier_invert(AffineFourierCoefficients(p, s, M))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
