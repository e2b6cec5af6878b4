import numpy as np
import pytest

from affinephase.affine import enumerate_group, pi_hat0_matrix
from affinephase.group_fourier import (
    chi_tilde,
    chi_tilde_all,
    fourier_invert,
    pi_hat0_transform,
    plancherel_sides,
    transform,
)
from affinephase.primefield import character_table

RNG = np.random.default_rng(20240817)


def rand_group_function(p):
    n = p * (p - 1)
    return RNG.normal(size=n) + 1j * RNG.normal(size=n)


def test_chi_tilde_against_elementwise_sum():
    # independent oracle: direct loop over group elements
    p = 5
    F = rand_group_function(p)
    table = character_table(p)
    for j in range(p - 1):
        direct = sum(
            F[(l - 1) * p + k] * table.chi(j, l) for l in range(1, p) for k in range(p)
        )
        assert abs(chi_tilde(F, j, p) - direct) < 1e-11


def test_chi_tilde_all_matches_scalar_entries():
    p = 7
    F = rand_group_function(p)
    all_vals = chi_tilde_all(F, p)
    for j in range(p - 1):
        assert abs(all_vals[j] - chi_tilde(F, j, p)) < 1e-12


def test_pi_hat0_transform_against_elementwise_sum():
    for p in (3, 5, 7, 13, 31):
        F = rand_group_function(p)
        direct = np.zeros((p - 1, p - 1), dtype=complex)
        for i, x in enumerate(enumerate_group(p)):
            direct += F[i] * pi_hat0_matrix(x)
        err = np.max(np.abs(pi_hat0_transform(F, p) - direct))
        assert err <= 1e-12 * np.max(np.abs(direct)), (p, err)


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
        chi_tilde_all(np.zeros(10), 5)
