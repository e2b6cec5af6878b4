from itertools import permutations, product

import numpy as np
import pytest

from affinephase.affine import enumerate_group, pi_matrix
from affinephase.diagnostics import (
    PatchData,
    _affine_coefficients,
    complement_property,
    conjugate_phase_reconstruct,
    difference_coefficients,
    frequency_deleted_moduli,
    full_spark,
    is_k_transitive,
    pauli_pair_family,
    phase_propagation_stitch,
    projection_phase_retrieval,
    recover_from_projection_moduli,
    three_transitive_phase_retrieval,
    verify_counterexample_n3,
    zero_sum_projection,
)
from affinephase.errors import InadmissibleGeneratorError, InconsistentDataError
from affinephase.harmonics import dft, idft
from affinephase.recovery import canonical_phase, canonical_time_generator, phase_distance

RNG = np.random.default_rng(20240817)


def rand_zero_sum(n):
    f = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    return f - f.mean()


# ---------------------------------------------------------------------------
# complement property / full spark


def test_complement_property_generic_frame():
    V = RNG.normal(size=(6, 3)) + 1j * RNG.normal(size=(6, 3))
    holds, witness = complement_property(V)
    assert holds and witness is None


def test_complement_property_failure_with_witness():
    # two orthogonal directions, each duplicated: splitting them defeats both sides
    V = np.array([[1, 0], [2, 0], [0, 1], [0, 3]], dtype=complex)
    holds, witness = complement_property(V)
    assert not holds and witness is not None
    # the witness subset and its complement must both be rank deficient
    comp = sorted(set(range(4)) - set(witness))
    assert np.linalg.matrix_rank(V[list(witness)]) < 2
    assert np.linalg.matrix_rank(V[comp]) < 2


def test_complement_property_exhaustive_agrees_with_shortcut():
    for _ in range(5):
        V = RNG.normal(size=(7, 3))
        assert complement_property(V)[0] == complement_property(V, exhaustive=True)[0]
    V = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
    assert complement_property(V, exhaustive=True)[0] is False


def test_full_spark():
    V = RNG.normal(size=(6, 3)) + 1j * RNG.normal(size=(6, 3))
    assert full_spark(V)
    W = np.concatenate([V, V[:1]], axis=0)  # repeated vector kills full spark
    assert not full_spark(W)


# ---------------------------------------------------------------------------
# transitivity and difference frames


def test_k_transitivity():
    S4 = list(permutations(range(4)))
    assert is_k_transitive(S4, 2, 4)
    assert is_k_transitive(S4, 3, 4)
    cyc = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    assert not is_k_transitive(cyc, 2, 4)


def test_affine_group_is_doubly_transitive():
    p = 5
    perms = [
        tuple((x.k + x.l * m) % p for m in range(p)) for x in enumerate_group(p)
    ]
    assert is_k_transitive(perms, 2, p)
    assert not is_k_transitive(perms, 3, p)


def test_difference_coefficients():
    S3 = list(permutations(range(3)))
    f = rand_zero_sum(3)
    coeffs = difference_coefficients(f, 0, 1, S3)
    for h, val in coeffs.items():
        assert abs(val - (f[h[0]] - f[h[1]])) < 1e-14


# ---------------------------------------------------------------------------
# conjugate phase retrieval


def test_conjugate_phase_reconstruct_round_trip():
    for n in (3, 5, 8):
        f = rand_zero_sum(n)
        D = np.abs(f[:, None] - f[None, :])
        g = conjugate_phase_reconstruct(D)
        assert min(phase_distance(g, f), phase_distance(g, f.conj())) < 1e-8, n


def test_conjugate_phase_reconstruct_collinear_configuration():
    # real (collinear) configurations are the rank-one edge case of the
    # planar embedding
    f = np.array([-2.0, -1.0, 0.0, 3.0], dtype=complex)
    D = np.abs(f[:, None] - f[None, :])
    g = conjugate_phase_reconstruct(D)
    assert min(phase_distance(g, f), phase_distance(g, f.conj())) < 1e-8


def test_conjugate_phase_reconstruct_rejects_non_planar():
    # squared distances of a 3d simplex are not planar
    P = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    D = np.linalg.norm(P[:, None] - P[None, :], axis=2)
    with pytest.raises(InconsistentDataError):
        conjugate_phase_reconstruct(D)


# ---------------------------------------------------------------------------
# counterexamples and stitching


def test_counterexample_report():
    rep = verify_counterexample_n3()
    assert rep.zero_sums_ok
    assert rep.identities_ok and rep.identity_max_error < 1e-12
    assert rep.configurations_inequivalent
    assert rep.coincidence_ok and rep.coincidence_max_error < 1e-12
    assert rep.orthogonal_to_y
    assert rep.all_confirmed


def test_zero_sum_projection():
    f = RNG.normal(size=6) + 1j * RNG.normal(size=6)
    u = zero_sum_projection(f, (1, 3, 4))
    assert abs(u.sum()) < 1e-12
    assert abs((u[0] - u[1]) - (f[1] - f[3])) < 1e-13


def test_phase_propagation_stitch_round_trip():
    n = 6
    f = rand_zero_sum(n)
    patches = []
    for i, sup in enumerate([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]):
        alpha = np.exp(2j * np.pi * RNG.random())
        patches.append(PatchData(support=sup, values=alpha * zero_sum_projection(f, sup)))
    g = phase_propagation_stitch(patches, n)
    assert phase_distance(g, f) < 1e-10


def test_phase_propagation_stitch_detects_conflict():
    n = 5
    f = rand_zero_sum(n)
    # doubling the second patch rescales its shared pair differences, which
    # no single unit phase can reconcile
    patches = [
        PatchData(support=(0, 1, 2), values=zero_sum_projection(f, (0, 1, 2))),
        PatchData(support=(1, 2, 3), values=2.0 * zero_sum_projection(f, (1, 2, 3))),
    ]
    with pytest.raises(InconsistentDataError):
        phase_propagation_stitch(patches, n)


def test_phase_propagation_stitch_disconnected():
    n = 7
    f = rand_zero_sum(n)
    patches = [
        PatchData(support=(0, 1, 2), values=zero_sum_projection(f, (0, 1, 2))),
        PatchData(support=(4, 5, 6), values=zero_sum_projection(f, (4, 5, 6))),
    ]
    with pytest.raises(ValueError, match="disconnected"):
        phase_propagation_stitch(patches, n)


# ---------------------------------------------------------------------------
# 3-fold transitive pipeline


def measurements_for(f, perms, psi0):
    n = len(perms[0])
    out = []
    for h in perms:
        hinv = [0] * n
        for i, j in enumerate(h):
            hinv[j] = i
        psi = np.zeros(n, dtype=complex)
        for m in range(n):
            if hinv[m] < 3:
                psi[m] = psi0[hinv[m]]
        out.append(abs(np.vdot(psi, f)))
    return np.array(out)


def pgl2_f5():
    """PGL(2,5) acting on the projective line {0..4, inf}, inf labelled 5;
    the action is sharply 3-transitive."""
    inv = {1: 1, 2: 3, 3: 2, 4: 4}

    def mobius(a, b, c, d, z):
        if z == 5:
            return 5 if c == 0 else a * inv[c] % 5
        den = (c * z + d) % 5
        return 5 if den == 0 else (a * z + b) * inv[den] % 5

    return sorted(
        {
            tuple(mobius(a, b, c, d, z) for z in range(6))
            for a, b, c, d in product(range(5), repeat=4)
            if (a * d - b * c) % 5
        }
    )


def test_three_transitive_retrieval_s4():
    psi0 = canonical_time_generator(3)
    pgl = pgl2_f5()
    assert len(pgl) == 120 and is_k_transitive(pgl, 3, 6)
    for perms in (list(permutations(range(4))), pgl):
        f = rand_zero_sum(len(perms[0]))
        g = three_transitive_phase_retrieval(measurements_for(f, perms, psi0), perms)
        assert phase_distance(g, f) < 1e-6


def test_three_transitive_rejects_inadmissible_generator():
    # |phi(1)| = |phi(2)| for phi = dft(psi0)[1:], so a character sum vanishes
    S4 = list(permutations(range(4)))
    psi0 = np.array([1.0, -1.0, 0.0])
    meas = measurements_for(rand_zero_sum(4), S4, psi0)
    with pytest.raises(InadmissibleGeneratorError, match="condition"):
        three_transitive_phase_retrieval(meas, S4, psi0=psi0)


def test_three_transitive_rejects_disagreeing_repeats():
    S4 = list(permutations(range(4)))
    meas = measurements_for(rand_zero_sum(4), S4, canonical_time_generator(3))
    perms = S4 + [S4[5]]
    meas = np.append(meas, meas[5] + 1e-3)
    with pytest.raises(InconsistentDataError, match="repeated measurements disagree"):
        three_transitive_phase_retrieval(meas, perms)


def test_three_transitive_requires_transitivity():
    cyc = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    with pytest.raises(ValueError, match="transitive"):
        three_transitive_phase_retrieval(np.zeros(4), cyc)


def test_three_transitive_requires_zero_sum_generator():
    S4 = list(permutations(range(4)))
    with pytest.raises(ValueError, match="zero-sum"):
        three_transitive_phase_retrieval(np.zeros(24), S4, psi0=np.ones(3))


# ---------------------------------------------------------------------------
# Pauli pairs and projections


def test_pauli_pair_same_orbit():
    p = 5
    f = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    rep = pauli_pair_family(f, np.exp(1.3j) * f, canonical_time_generator(p))
    assert rep.all_hold


def test_affine_coefficients_against_pi_matrix_action():
    for p in (3, 5, 7, 13):
        f = RNG.normal(size=p) + 1j * RNG.normal(size=p)
        psi = RNG.normal(size=p) + 1j * RNG.normal(size=p)
        V = _affine_coefficients(f, psi, p)
        for x in enumerate_group(p):
            assert abs(V[x.l - 1, x.k] - np.vdot(pi_matrix(x) @ psi, f)) < 1e-12, (p, x)


def test_pauli_pair_detects_mismatch():
    p = 5
    f = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    g = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    rep = pauli_pair_family(f, g, canonical_time_generator(p))
    assert not rep.all_hold


def test_frequency_deleted_moduli_definition():
    p = 7
    f = rand_zero_sum(p)
    tbl = frequency_deleted_moduli(f, p)
    fhat = dft(f)
    for l in range(1, p):
        gh = fhat.copy()
        gh[l] = 0.0
        assert np.allclose(tbl[l - 1], np.abs(idft(gh)), atol=1e-13)


def test_projection_phase_retrieval_round_trip():
    for p in (5, 7):
        f = rand_zero_sum(p)
        g = projection_phase_retrieval(f)
        assert phase_distance(g, canonical_phase(f)) < 1e-8, p


def test_recover_from_projection_moduli_shape_check():
    with pytest.raises(ValueError):
        recover_from_projection_moduli(np.zeros((3, 5)), 5)
