"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The random seed is fixed (override with the SEED environment
variable) so the suite is reproducible.
"""

import os
import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np

from affinephase.affine import s_apply, s_inverse_apply
from affinephase.diagnostics import (
    complement_property,
    conjugate_phase_reconstruct,
    full_spark,
    projection_phase_retrieval,
    three_transitive_phase_retrieval,
    verify_counterexample_n3,
)
from affinephase.group_fourier import fourier_invert, transform
from affinephase.heisenberg import check_generator_h, h_forward, h_recover
from affinephase.primefield import primitive_root
from affinephase.recovery import (
    b_phi,
    c_phi,
    canonical_generator,
    canonical_phase,
    canonical_time_generator,
    check_generator,
    forward_measure,
    frame_vectors,
    phase_distance,
    recover_matrix,
    recover_vector,
)
from affinephase.reference import (
    dft_matrix,
    enumerate_group,
    omega1,
    oracle_full_map,
    pi_hat0_matrix,
    pi_hat_matrix,
    pi_matrix,
    plancherel_sides,
    rho2_apply,
    schrodinger_matrix,
)

SEED = int(os.environ.get("SEED", "20240817"))
RANK_RTOL = 1e-10


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:2d}] {name}: FAIL")
        raise
    print(f"\n[criterion {num:2d}] {name}: PASS")


def rng():
    return np.random.default_rng(SEED)


def rand_complex(r, *shape):
    return r.normal(size=shape) + 1j * r.normal(size=shape)


def oracle_rank_full(phi, p):
    M = oracle_full_map(phi, p)
    sv = np.linalg.svd(M, compute_uv=False)
    return sv[0] > 0 and int(np.sum(sv > RANK_RTOL * sv[0])) == (p - 1) ** 2


def crafted_inadmissible(p):
    """The three crafted failures: constant vector, delta at label 2, and a
    vector zeroing at least one character sum."""
    ones = np.ones(p - 1, dtype=complex)
    delta2 = np.zeros(p - 1, dtype=complex)
    delta2[1] = 1.0
    if p == 3:
        # h = (1,1): the nontrivial character sum 1 - 1 vanishes
        czero = np.array([1.0, np.exp(0.3j)])
    else:
        # |phi(-l)|^2 = 2 + cos(2 pi k/(p-1)) at l = g^k kills every
        # character sum except j in {0, 1, p-2}
        g = primitive_root(p)
        h = np.empty(p, dtype=float)  # indexed by the label l
        for k in range(p - 1):
            h[pow(g, k, p)] = 2.0 + np.cos(2 * np.pi * k / (p - 1))
        czero = np.array([np.sqrt(h[(p - m) % p]) for m in range(1, p)], dtype=complex)
    return [ones, delta2, czero]


def test_criterion_01_matrix_recovery_round_trip():
    with criterion(1, "matrix recovery round trip, p in {3,5,7,11,13}"):
        t0 = time.perf_counter()
        for p in (3, 5, 7, 11, 13):
            phi = canonical_generator(p)
            d = p - 1
            worst = 0.0
            for i in range(d):
                for j in range(d):
                    A = np.zeros((d, d), dtype=complex)
                    A[i, j] = 1.0
                    rec = recover_matrix(forward_measure(A, phi, p), phi, p)
                    worst = max(worst, float(np.linalg.norm(rec - A)))
            assert worst <= 1e-9, (p, worst)
        assert time.perf_counter() - t0 <= 60.0


def test_criterion_02_iff_equivalence():
    with criterion(2, "admissibility iff full-rank measurement map"):
        r = rng()
        for p in (3, 5, 7):
            candidates = [rand_complex(r, p - 1) for _ in range(50)]
            candidates += crafted_inadmissible(p)
            n_inadmissible = 0
            for phi in candidates:
                adm = check_generator(phi, p).admissible
                assert adm == oracle_rank_full(phi, p), (p, phi)
                n_inadmissible += not adm
            assert n_inadmissible >= 3, p  # every crafted failure detected


def test_criterion_03_phase_retrieval_end_to_end():
    with criterion(3, "phase retrieval from |V_phi f|^2, p in {5,7}"):
        r = rng()
        for p in (5, 7):
            phi = canonical_generator(p)
            W = frame_vectors(phi, p)
            for _ in range(50):
                f = rand_complex(r, p - 1)
                rec = recover_vector((np.abs(W.conj() @ f) ** 2).astype(complex), phi, p)
                assert phase_distance(rec, f) <= 1e-8, p
                rotated = np.exp(1j * r.uniform(0, 2 * np.pi)) * f
                rec2 = recover_vector(
                    (np.abs(W.conj() @ rotated) ** 2).astype(complex), phi, p
                )
                assert np.allclose(rec, rec2, atol=1e-8), p


def test_criterion_04_necessity_witnesses():
    with criterion(4, "nonzero kernel matrices for inadmissible generators"):
        r = rng()
        for p in (3, 5, 7):
            for phi in crafted_inadmissible(p):
                c = c_phi(phi, p)
                scale = float(np.vdot(phi, phi).real)
                zeros = np.flatnonzero(np.abs(c) <= RANK_RTOL * scale)
                witnesses = []
                if len(zeros):
                    # condition (i) witness: first column = the vanishing character
                    from affinephase.reference import character_table

                    a1 = character_table(p)[zeros[0]]
                    block = np.zeros((p - 1, p - 1), dtype=complex)
                    block[:, 0] = a1
                    witnesses.append(s_inverse_apply(block))
                B = b_phi(phi, p)
                sv = np.linalg.svd(B, compute_uv=False)
                if sv[0] == 0 or np.sum(sv > RANK_RTOL * sv[0]) < p - 2:
                    # condition (ii) witness: A_2' = (w (x) v) Omega1, B v = 0
                    v = np.linalg.svd(B)[2].conj()[-1]
                    assert np.linalg.norm(B @ v) <= 1e-10 * max(np.linalg.norm(B), 1.0)
                    w = rand_complex(r, p - 1)
                    block = np.zeros((p - 1, p - 1), dtype=complex)
                    block[:, 1:] = np.outer(w, v) @ omega1(p)
                    witnesses.append(s_inverse_apply(block))
                assert witnesses, (p, "generator unexpectedly admissible")
                for A in witnesses:
                    norm = np.linalg.norm(A)
                    assert norm > 0
                    F = forward_measure(A, phi, p)
                    assert np.max(np.abs(F)) <= 1e-10 * norm, (p, np.max(np.abs(F)))


def test_criterion_05_heisenberg_equivalence():
    with criterion(5, "Heisenberg ambiguity criterion iff full rank, n in {2..5}"):
        r = rng()
        for n in (2, 3, 4, 5):
            delta = np.zeros(n, dtype=complex)
            delta[0] = 1.0
            for phi in [rand_complex(r, n) for _ in range(50)] + [delta]:
                rows = []
                for k in range(n):
                    for l in range(n):
                        w = schrodinger_matrix(k, l, n) @ phi
                        rows.append(np.outer(w.conj(), w).reshape(-1))
                M = np.array(rows)
                sv = np.linalg.svd(M, compute_uv=False)
                full = sv[0] > 0 and int(np.sum(sv > RANK_RTOL * sv[0])) == n * n
                adm = check_generator_h(phi)
                assert adm == full, (n, adm, full)
                if adm:
                    A = rand_complex(r, n, n)
                    rec = h_recover(h_forward(A, phi), phi)
                    assert np.linalg.norm(rec - A) <= 1e-9 * np.linalg.norm(A), n


def test_criterion_06_conjugate_phase_retrieval():
    with criterion(6, "conjugate phase retrieval from pairwise moduli, n in {3,5,8}"):
        r = rng()
        for n in (3, 5, 8):
            for _ in range(50):
                f = rand_complex(r, n)
                f -= f.mean()
                D = np.abs(f[:, None] - f[None, :])
                g = conjugate_phase_reconstruct(D)
                err = min(phase_distance(g, f), phase_distance(g, f.conj()))
                assert err <= 1e-8, (n, err)


def test_criterion_07_counterexample_report():
    with criterion(7, "dimension-3 counterexample verification"):
        rep = verify_counterexample_n3()
        assert rep.zero_sums_ok
        assert rep.identity_max_error <= 1e-12
        assert rep.configurations_inequivalent
        assert rep.coincidence_max_error <= 1e-12
        assert rep.all_confirmed


def test_criterion_08_sign_retrieval_complement_property():
    with criterion(8, "complement property of the orbit frame, p in {3,5}"):
        t0 = time.perf_counter()
        for p in (3, 5):
            # real zero-sum generator with a verified full spark orbit
            psi = np.random.default_rng(0).normal(size=p)
            psi -= psi.mean()
            orbit = np.array([pi_matrix(x).real @ psi for x in enumerate_group(p)])
            assert full_spark(orbit), p
            holds, witness = complement_property(orbit, exhaustive=True)
            assert holds and witness is None, p
        assert time.perf_counter() - t0 <= 300.0


def test_criterion_09_three_transitive_pipeline():
    with criterion(9, "3-fold transitive retrieval, S(4) and S(5)"):
        r = rng()
        psi0 = canonical_time_generator(3)
        for n in (4, 5):
            perms = list(permutations(range(n)))
            for trial in range(20):
                f = rand_complex(r, n)
                f -= f.mean()
                meas = []
                for h in perms:
                    hinv = [0] * n
                    for i, j in enumerate(h):
                        hinv[j] = i
                    psi = np.zeros(n, dtype=complex)
                    for m in range(n):
                        if hinv[m] < 3:
                            psi[m] = psi0[hinv[m]]
                    meas.append(abs(np.vdot(psi, f)))
                g = three_transitive_phase_retrieval(np.array(meas), perms)
                assert phase_distance(g, f) <= 1e-6, (n, trial)


def test_criterion_10_projection_phase_retrieval():
    with criterion(10, "retrieval from frequency-deleted moduli, p in {5,7}"):
        r = rng()
        for p in (5, 7):
            for _ in range(30):
                f = rand_complex(r, p)
                f -= f.mean()
                g = projection_phase_retrieval(f)
                assert phase_distance(g, canonical_phase(f)) <= 1e-8, p


def test_criterion_11_structural_invariants():
    with criterion(11, "structural invariants (unitarity, homomorphism, intertwining, Plancherel)"):
        r = rng()
        for p in (3, 5, 7, 11, 13, 17, 19):  # |G| = p(p-1) <= 400 throughout
            U = dft_matrix(p)
            assert np.allclose(U @ U.conj().T, np.eye(p), atol=1e-12)
            elems = enumerate_group(p)
            for x in elems:  # exhaustive over the group
                for M, d in (
                    (pi_matrix(x), p),
                    (pi_hat_matrix(x), p),
                    (pi_hat0_matrix(x), p - 1),
                ):
                    assert np.allclose(M @ M.conj().T, np.eye(d), atol=1e-12), (p, x)
            # S is an entry permutation: unitary for the Frobenius inner product
            A = rand_complex(r, p - 1, p - 1)
            SA = s_apply(A)
            assert abs(np.linalg.norm(SA) - np.linalg.norm(A)) <= 1e-12 * np.linalg.norm(A)
            assert np.allclose(s_inverse_apply(SA), A, atol=1e-12)
            # homomorphism and rho2 intertwining: exhaustive pairs for small
            # p, sampled pairs above
            if p <= 7:
                pairs = [(x, y) for x in elems for y in elems]
            else:
                idx = r.integers(0, len(elems), size=(200, 2))
                pairs = [(elems[i], elems[j]) for i, j in idx]
            for x, y in pairs:
                assert np.allclose(
                    pi_matrix(x * y), pi_matrix(x) @ pi_matrix(y), atol=1e-12
                ), (p, x, y)
            for x in elems:
                lhs = rho2_apply(x, SA)
                rhs = s_apply(
                    pi_hat0_matrix(x) @ A @ pi_hat0_matrix(x).conj().T
                )
                assert np.allclose(lhs, rhs, atol=1e-11), (p, x)
            # group Fourier round trip and Plancherel
            F = rand_complex(r, p * (p - 1))
            assert np.allclose(fourier_invert(transform(F, p)), F, atol=1e-9)
            lhs, rhs = plancherel_sides(F, p)
            assert abs(lhs - rhs) <= 1e-9 * lhs
