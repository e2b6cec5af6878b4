import re
import tracemalloc
from itertools import permutations
from math import perm

import numpy as np
import pytest

from affinephase.diagnostics import (
    _affine_coefficients,
    _cover,
    _permutation_rows,
    _projection_generator,
    _three_transitive_plan,
    complement_property,
    conjugate_phase_reconstruct,
    difference_coefficients,
    difference_phase_retrieval,
    frequency_deleted_moduli,
    full_spark,
    pauli_pair_family,
    projection_phase_retrieval,
    recover_from_projection_moduli,
    three_transitive_phase_retrieval,
    verify_counterexample_n3,
)
from affinephase.errors import TABLE_CACHE_SIZE, InadmissibleGeneratorError, InconsistentDataError
from affinephase.heisenberg import h_forward
from affinephase.recovery import (_generator_plan, canonical_generator, canonical_phase,
                                  canonical_time_generator, forward_measure, phase_distance,
                                  recover_vector)
from affinephase.reference import dft_matrix, enumerate_group, pi_matrix

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


def test_complement_property_fails_on_two_hyperplanes():
    # five vectors from each of two random hyperplanes of C^4: the closure of three
    # independent vectors of one holds that hyperplane's five, and its complement the other's
    rng = np.random.default_rng(26)
    d = 4
    V = []
    for _ in range(2):
        N = rng.normal(size=(d, d - 1)) + 1j * rng.normal(size=(d, d - 1))
        V.extend((N @ (rng.normal(size=(d - 1, 5)) + 1j * rng.normal(size=(d - 1, 5)))).T)
    V = np.array(V)[rng.permutation(10)]
    holds, witness = complement_property(V)
    assert not holds
    assert complement_property(V, exhaustive=True) == (holds, witness)
    comp = sorted(set(range(10)) - set(witness))
    assert np.linalg.matrix_rank(V[list(witness)]) < d and np.linalg.matrix_rank(V[comp]) < d


def test_full_spark():
    V = RNG.normal(size=(6, 3)) + 1j * RNG.normal(size=(6, 3))
    assert full_spark(V)
    W = np.concatenate([V, V[:1]], axis=0)  # repeated vector kills full spark
    assert not full_spark(W)


# ---------------------------------------------------------------------------
# transitivity and difference frames


def as_rows(perms, n):
    return np.array(perms, dtype=np.int64).reshape(-1, n)


def test_k_transitivity():
    # for a group, covering every ordered k-tuple from one base tuple is k-transitivity
    S4 = as_rows(list(permutations(range(4))), 4)
    for base in ((0, 1), (0, 1, 2), (3, 1)):
        code, count = _cover(S4, base)
        assert count.sum() == 24 and np.count_nonzero(count) == perm(4, len(base))
    cyc = as_rows([(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)], 4)
    with pytest.raises(ValueError, match=re.escape("2-fold transitive: no h maps (0, 1) to (0, 2)")):
        _cover(cyc, (0, 1))


def brute_force_k_transitive(perms, k, n):
    """Reference: for every ordered k-tuple u, the set of images h(u) over the
    list must be the set of all ordered k-tuples."""
    perms = [tuple(h) for h in perms]
    tuples = list(permutations(range(n), k))
    target = set(tuples)
    for u in tuples:
        reached = {tuple(h[i] for i in u) for h in perms}
        if reached != target:
            return False
    return True


def brute_force_missing(perms, base, n):
    """Reference: the first ordered k-tuple of distinct points in lexicographic order that
    is no h(base) over the list, or None."""
    reached = {tuple(h[i] for i in base) for h in perms}
    return next((t for t in sorted(permutations(range(n), len(base))) if t not in reached), None)


def test_k_transitivity_against_brute_force_oracle():
    # _cover's verdict and the tuple it names, against a scan of every ordered k-tuple; on the
    # groups among the lists, its verdict from any one base tuple is k-transitivity
    rng = np.random.default_rng(5)
    agree = positives = 0
    for n in (3, 4, 5):
        group = list(permutations(range(n)))
        even = [h for h in group if sum(h[i] > h[j] for i in range(n) for j in range(i)) % 2 == 0]
        lists = [[], group, group[::-1] + group[:7], group[1:], even, even + even[:3]]
        for _ in range(12):
            size = int(rng.integers(1, 2 * len(group)))
            replace = size > len(group) or bool(rng.integers(2))  # duplicates
            lists.append([group[i] for i in rng.choice(len(group), size, replace=replace)])
        for i, perms in enumerate(lists):
            for k in range(1, n + 1):
                for base in (tuple(range(k)), tuple(int(x) for x in rng.permutation(n)[:k])):
                    missing = brute_force_missing(perms, base, n)
                    if missing is None:
                        code, count = _cover(as_rows(perms, n), base)
                        assert count.sum() == len(perms) and (np.bincount(code, minlength=n**k) == count).all()
                    else:
                        with pytest.raises(ValueError, match=re.escape(f"no h maps {base} to {missing}") + "$"):
                            _cover(as_rows(perms, n), base)
                    if i in (1, 4):  # the symmetric and the alternating group
                        assert (missing is None) == brute_force_k_transitive(perms, k, n), (n, k)
                    agree += 1
                    positives += missing is None
    assert positives > agree // 4  # both answers are exercised


@pytest.mark.parametrize("bad", [(0, 0, 2), (0, 1), (0, 1, 2, 3), (0, 1, 3), (0.5, 1, 2)])
def test_k_transitivity_names_the_offending_row(bad):
    perms = [(0, 1, 2), (1, 2, 0), bad, (2, 0, 1)]
    with pytest.raises(ValueError, match=r"row 2 is not a permutation of 0\.\.2"):
        difference_coefficients(np.zeros(3), 0, 1, perms)


def affine_rows(p):
    """AGL(1,p) acting on Z_p, m -> k + l m, as a (p(p-1), p) array: sharply 2-transitive."""
    k, l = np.meshgrid(np.arange(p), np.arange(1, p), indexing="ij")
    return (k.reshape(-1, 1) + l.reshape(-1, 1) * np.arange(p)) % p


def test_affine_group_is_doubly_transitive():
    H = affine_rows(5)
    code, count = _cover(H, (0, 1))
    assert count.max() == 1 and count.sum() == 20  # each ordered pair once
    with pytest.raises(ValueError, match=re.escape("no h maps (0, 1, 2) to (0, 1, 3)")):
        _cover(H, (0, 1, 2))


def test_pgl2_31_is_doubly_transitive():
    rows31 = pgl2(31)
    _cover(rows31, (30, 31))
    # without the 30 maps that swap 30 and 31, only the lexicographically last pair is missed
    with pytest.raises(ValueError, match=re.escape("no h maps (30, 31) to (31, 30)")):
        _cover(rows31[(rows31[:, 30] != 31) | (rows31[:, 31] != 30)], (30, 31))


def test_difference_coefficients():
    S3 = list(permutations(range(3)))
    f = rand_zero_sum(3)
    coeffs = difference_coefficients(f, 0, 1, S3)
    assert coeffs.shape == (6,)
    for h, val in zip(S3, coeffs):
        assert abs(val - (f[h[0]] - f[h[1]])) < 1e-14


def test_difference_coefficients_keep_repeated_rows_in_row_order():
    S3 = list(permutations(range(3)))
    f = rand_zero_sum(3)
    coeffs = difference_coefficients(f, 0, 1, S3 + S3)
    assert coeffs.shape == (12,)
    assert np.array_equal(coeffs, [f[h[0]] - f[h[1]] for h in S3 + S3])


def test_difference_coefficients_accept_a_covering_list_that_is_not_2_transitive():
    # one row per ordered pair (h(0), h(1)), completed by the other points in ascending order
    rows = [t + tuple(sorted(set(range(4)) - set(t))) for t in permutations(range(4), 2)]
    assert not brute_force_k_transitive(rows, 2, 4)
    f = rand_zero_sum(4)
    coeffs = difference_coefficients(f, 0, 1, rows)
    assert np.array_equal(coeffs, [f[h[0]] - f[h[1]] for h in rows])


def test_difference_coefficients_name_a_missing_pair():
    rows = [h for h in permutations(range(3)) if h != (1, 0, 2)]
    with pytest.raises(ValueError, match=re.escape("no h maps (0, 1) to (1, 0)")):
        difference_coefficients(rand_zero_sum(3), 0, 1, rows)


def traced_peak_of_failure(call, message):
    """tracemalloc peak, in bytes, of a call that must raise ValueError matching ``message``."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_short_list_on_many_points_fails_in_little_memory():
    # no n^k array: n^2 counts at n = 2000 would take 32 MB, n^3 at n = 400 512 MB
    identity = np.arange(2000)
    two_rows = np.stack([identity, identity[::-1]])
    peak = traced_peak_of_failure(lambda: difference_coefficients(np.zeros(2000), 0, 1, two_rows),
                                  re.escape("no h maps (0, 1) to (0, 2)"))
    assert peak < 1e6, peak
    identity = np.arange(400)
    three_rows = np.stack([identity, identity[::-1], np.roll(identity, 1)])
    peak = traced_peak_of_failure(lambda: three_transitive_phase_retrieval(np.zeros(3), three_rows),
                                  re.escape("no h maps (0, 1, 2) to (0, 1, 3)"))
    assert peak < 1e6, peak


FLAT = "perms must be a list of permutation rows, but row 0 is 0$"


@pytest.mark.parametrize("call, message", [
    (lambda: difference_coefficients(np.eye(3), 0, 1, list(permutations(range(3)))),
     re.escape("f must be a vector, got shape (3, 3)")),
    (lambda: difference_coefficients(np.ones(3), 0, 1, [0, 1, 2]), FLAT),
    (lambda: difference_coefficients(np.ones(3), 0, 1, np.array([0, 1, 2])), FLAT),
    (lambda: difference_coefficients(np.ones(3), 0, 1, [(0, 1, 2), 5]),
     "list of permutation rows, but row 1 is 5$"),
    (lambda: difference_phase_retrieval(np.ones(3), [0, 1, 2]), FLAT),
    (lambda: three_transitive_phase_retrieval(np.ones(3), [0, 1, 2]), FLAT),
    (lambda: three_transitive_phase_retrieval(np.ones(3), np.array([0, 1, 2])), FLAT),
], ids=["difference-f-matrix", "difference-flat-list", "difference-flat-array", "difference-int-row",
        "difference-retrieval-flat-list", "3-transitive-flat-list", "3-transitive-flat-array"])
def test_permutation_entry_points_reject_a_misshapen_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


S3 = list(permutations(range(3)))


@pytest.mark.parametrize("call, message", [
    (lambda: pauli_pair_family(np.ones(5), np.ones(5), np.ones((5, 5))),
     re.escape("psi must all live on Z_p: shapes (5,), (5,), (5, 5)")),
    (lambda: projection_phase_retrieval(np.ones((5, 5))),
     re.escape("f must be a vector on Z_p, got shape (5, 5)")),
    (lambda: difference_coefficients(np.ones(3), 0.0, 1, S3),
     re.escape("k0, l0 must be distinct integers in {0..n-1}, got 0.0, 1")),
    (lambda: difference_coefficients(np.ones(3), 0, np.float64(1), S3), "must be distinct integers"),
    (lambda: difference_phase_retrieval(np.ones(6), S3, 1, 1),
     re.escape("k0, l0 must be distinct integers in {0..n-1}, got 1, 1")),
    (lambda: difference_phase_retrieval(np.ones(6), S3, 0, 3), "must be distinct integers"),
], ids=["pauli-psi-matrix", "projection-f-matrix", "difference-float-k0", "difference-float-l0",
        "difference-retrieval-equal-pair", "difference-retrieval-l0-out-of-range"])
def test_bad_arguments_fail_for_the_right_reason(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


def test_conjugate_phase_reconstruct_without_eigh(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("conjugate phase retrieval reads two Gram columns; it runs no eigh")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    test_conjugate_phase_reconstruct_round_trip()
    test_conjugate_phase_reconstruct_collinear_configuration()


def test_conjugate_phase_reconstruct_of_noisy_moduli():
    # 1e-7 relative symmetric noise leaves a forward residual below RANK_ONE_RTOL
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = rand_zero_sum(8)
        E = rng.normal(size=(8, 8))
        D = np.abs(f[:, None] - f[None, :]) * (1 + 1e-7 * (E + E.T) / 2)
        g = conjugate_phase_reconstruct(D)
        assert min(phase_distance(g, f), phase_distance(g, f.conj())) <= 1e-5 * np.linalg.norm(f)


def test_conjugate_phase_reconstruct_residual_error_names_no_record():
    # the residual runs on the raveled n x n moduli, one record, not a stack of n rows
    f = rand_zero_sum(5)
    D = np.abs(f[:, None] - f[None, :])
    D[0, 1] = D[1, 0] = D[0, 1] * 1.5
    with pytest.raises(InconsistentDataError, match="^measurements inconsistent: .* forward "
                                                    "residual .* > RANK_ONE_RTOL"):
        conjugate_phase_reconstruct(D)


def test_conjugate_phase_reconstruct_of_zero_moduli():
    assert np.array_equal(conjugate_phase_reconstruct(np.zeros((4, 4))), np.zeros(4))


def test_conjugate_phase_reconstruct_rejects_negative_moduli():
    # the moduli are squared into the Gram matrix, so a sign would otherwise be dropped
    f = np.exp(2j * np.pi * np.arange(5) / 5)  # zero-sum
    D = np.abs(f[:, None] - f[None, :])
    D[1, 3] = D[3, 1] = -D[1, 3]
    with pytest.raises(ValueError, match=re.escape("moduli entry (1, 3) is negative")):
        conjugate_phase_reconstruct(D)


def test_conjugate_phase_reconstruct_rejects_asymmetric_moduli():
    # D[0, 1] scaled by 1 + 5e-7 differs from D[1, 0] by far more than
    # CONJUGATE_PR_RTOL * max(max D, 1), and no relative term forgives it
    f = rand_zero_sum(6)
    D = np.abs(f[:, None] - f[None, :])
    D[0, 1] *= 1 + 5e-7
    with pytest.raises(ValueError, match="symmetric with zero diagonal"):
        conjugate_phase_reconstruct(D)


def group_rows(group, n):
    if group == "S":
        return np.array(list(permutations(range(n))))
    return {"AGL": affine_rows, "PGL": pgl2}[group](n)


def conjugate_distance(g, f):
    """Phase distance of g to f or to conj(f), relative to ||f||."""
    return min(phase_distance(g, f), phase_distance(g, f.conj())) / np.linalg.norm(f)


@pytest.mark.parametrize("group, n", [("AGL", p) for p in (5, 13, 61, 211)]
                         + [("PGL", p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
                         + [("S", 4), ("S", 5)])
def test_difference_phase_retrieval_recovers_exact_data(group, n):
    H = group_rows(group, n)
    f = rand_zero_sum(H.shape[1])
    g = difference_phase_retrieval(np.abs(difference_coefficients(f, 0, 1, H)), H)
    assert conjugate_distance(g, f) <= 1e-12
    assert abs(g.sum()) <= 1e-12 * np.linalg.norm(g)


def test_difference_phase_retrieval_leaves_an_int64_perms_array_unchanged():
    # the validated rows alias an int64 perms array, so no step may write into them
    H = affine_rows(13).astype(np.int64)
    before = H.copy()
    assert np.shares_memory(_permutation_rows(H), H)
    f = rand_zero_sum(13)
    g = difference_phase_retrieval(np.abs(difference_coefficients(f, 0, 1, H)), H)
    assert conjugate_distance(g, f) <= 1e-12
    assert np.array_equal(H, before)


@pytest.mark.parametrize("group, n, k0, l0", [("AGL", 13, 5, 2), ("S", 4, 3, 0), ("PGL", 7, 7, 1)])
def test_difference_phase_retrieval_from_another_base_pair(group, n, k0, l0):
    H = group_rows(group, n)
    f = rand_zero_sum(H.shape[1])
    g = difference_phase_retrieval(np.abs(difference_coefficients(f, k0, l0, H)), H, k0, l0)
    assert conjugate_distance(g, f) <= 1e-12


@pytest.mark.parametrize("p", [13, 61, 211])
def test_difference_phase_retrieval_of_noisy_magnitudes(p):
    # 1e-8 relative noise on every magnitude: the error stays within 100 times the noise
    rng = np.random.default_rng(p)
    H = affine_rows(p)
    for _ in range(3):
        f = rand_zero_sum(p)
        y = np.abs(difference_coefficients(f, 0, 1, H)) * (1 + 1e-8 * rng.normal(size=len(H)))
        assert conjugate_distance(difference_phase_retrieval(y, H), f) <= 1e-6


def test_difference_phase_retrieval_names_a_missing_pair():
    H = affine_rows(5)
    H = H[(H[:, 0] != 1) | (H[:, 1] != 0)]  # the one map m -> 1 - m
    assert len(H) == 19
    with pytest.raises(ValueError, match=re.escape("no h maps (0, 1) to (1, 0)")):
        difference_phase_retrieval(np.ones(19), H)


def test_difference_phase_retrieval_rejects_disagreeing_repeats():
    # AGL(1,13) listed twice, one copy's magnitudes 1.5 times too large: the averaged
    # distances are planar, but the rows of either copy do not fit them
    H = affine_rows(13)
    y = np.abs(difference_coefficients(rand_zero_sum(13), 0, 1, H))
    with pytest.raises(InconsistentDataError, match="forward residual .* > RANK_ONE_RTOL"):
        difference_phase_retrieval(np.concatenate([y, 1.5 * y]), np.concatenate([H, H]))


@pytest.mark.parametrize("magnitudes, perms, message", [
    ([], [], "nonempty list of permutations of at least 3 points"),
    (np.ones(2), list(permutations(range(2))), "at least 3 points"),
    ([1, 1, 1, 1, -1, 1], S3, "magnitude 4 is negative"),
    (np.ones(5), S3, "one nonnegative magnitude per permutation"),
    (np.ones((6, 1)), S3, "one nonnegative magnitude per permutation"),
], ids=["empty", "two-points", "negative", "short", "column"])
def test_difference_phase_retrieval_rejects_bad_magnitudes(magnitudes, perms, message):
    with pytest.raises(ValueError, match=message):
        difference_phase_retrieval(magnitudes, perms)


# ---------------------------------------------------------------------------
# counterexamples


def test_counterexample_report():
    rep = verify_counterexample_n3()
    assert rep.zero_sums_ok
    assert rep.identities_ok and rep.identity_max_error < 1e-12
    assert rep.configurations_inequivalent
    assert rep.coincidence_ok and rep.coincidence_max_error < 1e-12
    assert rep.orthogonal_to_y
    assert rep.all_confirmed


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


def pgl2(p):
    """PGL(2,p) acting on the projective line {0..p-1, inf}, inf labelled p, as an
    ((p+1)p(p-1), p+1) array of rows; the action is sharply 3-transitive.  Each Mobius
    map z -> (az + b)/(cz + d) is taken once, with (c, d) = (0, 1) or (1, d)."""
    a, b, c, d = (x.ravel() for x in np.meshgrid(range(p), range(p), (0, 1), range(p), indexing="ij"))
    keep = ((a * d - b * c) % p != 0) & ((c == 1) | (d == 1))
    a, b, c, d = (x[keep, None] for x in (a, b, c, d))
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)])
    den = (c * np.arange(p) + d) % p
    finite = np.where(den == 0, p, (a * np.arange(p) + b) * inv[den] % p)
    return np.concatenate([finite, np.where(c == 0, p, a)], axis=1)


def test_three_transitive_retrieval_s4():
    psi0 = canonical_time_generator(3)
    pgl = pgl2(5)
    assert len(pgl) == 120 and brute_force_k_transitive(pgl, 3, 6)
    for perms in (list(permutations(range(4))), pgl):
        f = rand_zero_sum(len(perms[0]))
        g = three_transitive_phase_retrieval(measurements_for(f, perms, psi0), perms)
        assert phase_distance(g, f) < 1e-6


def test_three_transitive_rejects_inadmissible_generator():
    # |phi(1)| = |phi(2)| for phi = (dft_matrix(3) @ psi0)[1:], so a character sum vanishes
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
    with pytest.raises(InconsistentDataError, match="forward residual .* > RANK_ONE_RTOL"):
        three_transitive_phase_retrieval(meas, perms)


@pytest.mark.parametrize("n", [5, 6])
def test_three_transitive_retrieval_averages_noisy_repeats(n):
    # S(n) measures every (h(0), h(1), h(2)) (n - 3)! times; with 1e-7 relative noise the
    # copies disagree, and only the forward residual judges them
    perms = list(permutations(range(n)))
    rng = np.random.default_rng(n)
    for _ in range(5):
        f = rand_zero_sum(n)
        meas = measurements_for(f, perms, canonical_time_generator(3))
        meas *= 1 + 1e-7 * rng.normal(size=len(meas))
        g = three_transitive_phase_retrieval(meas, perms)
        assert phase_distance(g, f) <= 1e-5 * np.linalg.norm(f)


def test_three_transitive_rejects_non_rank_one_data():
    # on S(5) every (h(0), h(1), h(2)) is measured twice; scaling both copies
    # keeps the repeats in agreement but leaves no rank-one solution
    S5 = list(permutations(range(5)))
    meas = measurements_for(rand_zero_sum(5), S5, canonical_time_generator(3))
    h = S5[37]
    twins = [i for i, g in enumerate(S5) if g[:3] == h[:3]]
    assert len(twins) == 2
    meas[twins] *= 1.5
    with pytest.raises(InconsistentDataError, match="forward residual .* > RANK_ONE_RTOL"):
        three_transitive_phase_retrieval(meas, S5)


@pytest.mark.parametrize(
    "f", [(1, 1, 1, -3), (0.5, 0.5, 0.5, -1.5), (1, 1, 1, -1.5, -1.5), (0, 0, 0, 1, -1)]
)
def test_three_transitive_retrieval_with_a_constant_patch(f):
    # f is constant on {0, 1, 2}: the measurements there are rounding noise
    f = np.array(f, dtype=complex)
    perms = list(permutations(range(len(f))))
    meas = measurements_for(f, perms, canonical_time_generator(3))
    assert phase_distance(three_transitive_phase_retrieval(meas, perms), f) < 1e-6


def test_three_transitive_rejects_negative_magnitudes():
    # the data are squared before recovery, so a sign would otherwise be dropped
    S4 = list(permutations(range(4)))
    meas = measurements_for(rand_zero_sum(4), S4, canonical_time_generator(3))
    meas[7] = -meas[7]
    with pytest.raises(ValueError, match=r"magnitude 7 is negative"):
        three_transitive_phase_retrieval(meas, S4)


def test_three_transitive_requires_transitivity():
    cyc = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    with pytest.raises(ValueError, match="transitive"):
        three_transitive_phase_retrieval(np.zeros(4), cyc)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_three_transitive_retrieval_on_pgl2(p):
    rows = pgl2(p)
    n = p + 1
    assert rows.shape == ((p + 1) * p * (p - 1), n) and (np.sort(rows, axis=1) == np.arange(n)).all()
    assert len(np.unique(rows[:, :3] @ (n * n, n, 1))) == len(rows)  # sharply 3-transitive
    f = rand_zero_sum(n)
    g = three_transitive_phase_retrieval(measurements_for(f, rows, canonical_time_generator(3)), rows)
    assert phase_distance(g, f) <= 1e-12 * np.linalg.norm(f)
    assert abs(g.sum()) <= 1e-12 * np.linalg.norm(g)


def test_three_transitive_accepts_a_covering_list_that_is_not_3_transitive():
    # one row per ordered base triple, completed by the two other points in ascending order
    rows = [t + tuple(sorted(set(range(5)) - set(t))) for t in permutations(range(5), 3)]
    assert len(rows) == 60 and not brute_force_k_transitive(rows, 3, 5)
    f = rand_zero_sum(5)
    g = three_transitive_phase_retrieval(measurements_for(f, rows, canonical_time_generator(3)), rows)
    assert phase_distance(g, f) < 1e-12 * np.linalg.norm(f)


def test_three_transitive_names_a_missing_base_triple():
    # as many rows as ordered triples, but (0, 1, 2, 3) twice and no (2, 0, 3, 1)
    rows = [(0, 1, 2, 3) if h[:3] == (2, 0, 3) else h for h in permutations(range(4))]
    with pytest.raises(ValueError, match=re.escape("3-fold transitive") + r".*\(2, 0, 3\)"):
        three_transitive_phase_retrieval(np.zeros(len(rows)), rows)


def test_three_transitive_rejects_patches_that_disagree_in_scale():
    # every patch stays rank one, but the support (0, 1, 2) is 1.5 times too large
    S5 = list(permutations(range(5)))
    meas = measurements_for(rand_zero_sum(5), S5, canonical_time_generator(3))
    meas[[sorted(h[:3]) == [0, 1, 2] for h in S5]] *= 1.5
    with pytest.raises(InconsistentDataError, match="forward residual .* > RANK_ONE_RTOL"):
        three_transitive_phase_retrieval(meas, S5)


def test_three_transitive_uses_neither_transitivity_nor_a_solver(monkeypatch):
    from affinephase import diagnostics

    def forbidden(*args, **kwargs):
        raise AssertionError("not on the 3-transitive path")

    for name in ("recover_vector", "recover_matrix"):
        monkeypatch.setattr(diagnostics.recovery, name, forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    S5 = list(permutations(range(5)))
    f = rand_zero_sum(5)
    g = three_transitive_phase_retrieval(measurements_for(f, S5, canonical_time_generator(3)), S5)
    assert phase_distance(g, f) < 1e-12 * np.linalg.norm(f)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_three_transitive_retrieval_on_symmetric_groups(n):
    perms = list(permutations(range(n)))
    f = rand_zero_sum(n)
    g = three_transitive_phase_retrieval(measurements_for(f, perms, canonical_time_generator(3)), perms)
    assert phase_distance(g, f) <= 1e-12 * np.linalg.norm(f)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_three_transitive_with_one_vanishing_fourier_coefficient(n):
    # psi0 = (1, w, w^2), w = e^{2 pi i/3}, has psi0^(1) psi0^(2) = 0; of the closed form's
    # divisors, kappa vanishes at n = 3 and Re gamma at n = 4, in every order of the positions
    psi0 = np.exp(2j * np.pi / 3) ** np.arange(3)
    perms = list(permutations(range(n)))
    f = rand_zero_sum(n)
    meas = measurements_for(f, perms, psi0)
    if n < 5:
        with pytest.raises(InadmissibleGeneratorError, match=r"condition min\(n \|Re gamma\|, \|kappa\|\)"):
            three_transitive_phase_retrieval(meas, perms, psi0=psi0)
    else:
        g = three_transitive_phase_retrieval(meas, perms, psi0=psi0)
        assert phase_distance(g, f) <= 1e-12 * np.linalg.norm(f)


def test_three_transitive_canonical_generator_clears_every_divisor():
    for n in range(3, 61):
        _three_transitive_plan(n, None)  # raises InadmissibleGeneratorError otherwise


@pytest.mark.parametrize("n", [1, 2])
def test_three_transitive_needs_three_points(n):
    perms = list(permutations(range(n)))
    with pytest.raises(ValueError, match="at least 3 points"):
        three_transitive_phase_retrieval(np.zeros(len(perms)), perms)


def test_three_transitive_requires_zero_sum_generator():
    S4 = list(permutations(range(4)))
    with pytest.raises(ValueError, match="zero-sum"):
        three_transitive_phase_retrieval(np.zeros(24), S4, psi0=np.ones(3))


def test_three_transitive_and_projection_plans_are_bounded_and_read_only():
    for cache in (_three_transitive_plan, _projection_generator):
        assert cache.cache_info().maxsize == TABLE_CACHE_SIZE
    psi0, order, _, norm2 = _three_transitive_plan(5, None)
    assert np.array_equal(psi0, canonical_time_generator(3)) and sorted(order) == [0, 1, 2]
    assert norm2 == np.vdot(psi0, psi0).real
    p = 13
    phi = _projection_generator(p)
    assert np.array_equal(phi, np.fft.fft(canonical_time_generator(p), norm="ortho")[1:])
    for a in (psi0, _three_transitive_plan(5, rand_zero_sum(3).tobytes())[0], phi):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_equal_psi0_shares_its_plan_and_one_changed_in_place_gets_a_new_one():
    S5 = list(permutations(range(5)))
    psi0, f = rand_zero_sum(3), rand_zero_sum(5)
    meas = measurements_for(f, S5, psi0)
    first = three_transitive_phase_retrieval(meas, S5, psi0)
    info = _three_transitive_plan.cache_info()
    assert three_transitive_phase_retrieval(meas, S5, psi0.copy()).tobytes() == first.tobytes()
    assert _three_transitive_plan.cache_info().misses == info.misses
    psi0[0] += 1.0  # still zero-sum
    psi0[1] -= 1.0
    g = three_transitive_phase_retrieval(measurements_for(f, S5, psi0), S5, psi0)
    assert _three_transitive_plan.cache_info().misses == info.misses + 1
    assert phase_distance(g, f) <= 1e-12 * np.linalg.norm(f)


@pytest.mark.parametrize("psi0, error, message", [
    ([np.inf, 1.0, -1.0], ValueError, "psi0 has a non-finite entry"),
    (np.zeros((3, 1)), ValueError, "psi0 must be a vector on 3 points"),
    (np.ones(3), ValueError, "psi0 must be zero-sum"),
    ([1.0, -1.0, 0.0], InadmissibleGeneratorError, "psi0 fails condition"),
])
def test_a_bad_psi0_raises_the_same_error_on_every_call(psi0, error, message):
    # lru_cache stores no exception, so the plan is tried, and refused, again
    S4 = list(permutations(range(4)))
    raised = []
    for _ in range(3):
        with pytest.raises(ValueError) as exc:
            three_transitive_phase_retrieval(np.ones(24), S4, psi0=psi0)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0][0] is error and raised[0][1].startswith(message) and raised == raised[:1] * 3


@pytest.mark.parametrize("group", ["S4", "S5", "PGL(2,7)", "PGL(2,13) tuples"])
def test_three_transitive_cold_output_equals_warm_bit_for_bit(group):
    perms = {"S4": list(permutations(range(4))), "S5": list(permutations(range(5))),
             "PGL(2,7)": pgl2(7), "PGL(2,13) tuples": list(map(tuple, pgl2(13).tolist()))}[group]
    f = rand_zero_sum(len(perms[0]))
    for psi0 in (None, rand_zero_sum(3)):
        meas = measurements_for(f, perms, canonical_time_generator(3) if psi0 is None else psi0)
        _three_transitive_plan.cache_clear()
        cold = three_transitive_phase_retrieval(meas, perms, psi0)
        warm = three_transitive_phase_retrieval(meas, perms, psi0)
        assert _three_transitive_plan.cache_info().hits == 1
        assert cold.tobytes() == warm.tobytes()
        assert phase_distance(cold, f) <= 1e-12 * np.linalg.norm(f)


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
    U = dft_matrix(p)
    fhat = U @ f
    for l in range(1, p):
        gh = fhat.copy()
        gh[l] = 0.0
        assert np.allclose(tbl[l - 1], np.abs(U.conj().T @ gh), atol=1e-13)


def test_projection_phase_retrieval_round_trip():
    for p in (5, 7):
        f = rand_zero_sum(p)
        g = projection_phase_retrieval(f)
        assert phase_distance(g, canonical_phase(f)) < 1e-8, p


def test_recover_from_projection_moduli_shape_check():
    with pytest.raises(ValueError):
        recover_from_projection_moduli(np.zeros((3, 5)), 5)


def test_recover_from_projection_moduli_rejects_negative_moduli():
    # the moduli are squared before recovery, so a sign would otherwise be dropped
    p = 13
    f = np.exp(2j * np.pi * np.arange(p) ** 2 / p)
    moduli = frequency_deleted_moduli(f - f.mean(), p)
    moduli[0, 0] = -moduli[0, 0]
    with pytest.raises(ValueError, match=re.escape("moduli entry (0, 0) is negative")):
        recover_from_projection_moduli(moduli, p)


@pytest.mark.parametrize("p", [5, 13, 61])
def test_projection_cold_output_equals_warm_bit_for_bit(p):
    f = rand_zero_sum(p)
    moduli = frequency_deleted_moduli(f, p)
    _projection_generator.cache_clear()
    _generator_plan.cache_clear()
    cold = recover_from_projection_moduli(moduli, p)
    warm = recover_from_projection_moduli(moduli, p)
    assert _projection_generator.cache_info().hits == 1
    assert cold.tobytes() == warm.tobytes()
    assert phase_distance(cold, canonical_phase(f)) <= 1e-8


def test_numpy_integer_modulus_shares_the_projection_plan():
    p = 13
    moduli = frequency_deleted_moduli(rand_zero_sum(p), p)
    g = recover_from_projection_moduli(moduli, p)
    misses = _projection_generator.cache_info().misses
    assert recover_from_projection_moduli(moduli, np.int64(p)).tobytes() == g.tobytes()
    assert _projection_generator.cache_info().misses == misses


def _with(a, index, value):
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    a[index] = value
    return a


S4 = list(permutations(range(4)))
NON_FINITE_CALLS = {
    "full_spark": ("vectors", lambda: full_spark(_with(np.eye(3), (1, 2), np.inf))),
    "complement_property": (
        "vectors", lambda: complement_property(_with(np.eye(3), (0, 0), np.nan))),
    "difference_coefficients": ("f", lambda: difference_coefficients(
        _with(rand_zero_sum(3), 1, np.nan), 0, 1, list(permutations(range(3))))),
    "difference_phase_retrieval": ("magnitudes", lambda: difference_phase_retrieval(
        _with(np.ones(6), 2, np.nan), list(permutations(range(3))))),
    "frequency_deleted_moduli": ("f", lambda: frequency_deleted_moduli(
        _with(rand_zero_sum(5), 2, np.inf), 5)),
    "pauli_pair_family f": ("f", lambda: pauli_pair_family(
        _with(np.ones(5), 2, np.nan), np.ones(5), canonical_time_generator(5))),
    "pauli_pair_family g": ("g", lambda: pauli_pair_family(
        np.ones(5), _with(np.ones(5), 0, np.inf), canonical_time_generator(5))),
    "pauli_pair_family psi": ("psi", lambda: pauli_pair_family(
        np.ones(5), np.ones(5), _with(canonical_time_generator(5), 3, np.nan))),
    "conjugate_phase_reconstruct": ("moduli", lambda: conjugate_phase_reconstruct(
        _with(np.ones((3, 3)) - np.eye(3), (0, 1), np.nan))),
    "three_transitive_phase_retrieval": ("measurements", lambda: three_transitive_phase_retrieval(
        _with(measurements_for(rand_zero_sum(4), S4, canonical_time_generator(3)), 5, np.nan),
        S4)),
    "three_transitive_phase_retrieval psi0": ("psi0", lambda: three_transitive_phase_retrieval(
        np.ones(24), S4, _with(canonical_time_generator(3), 0, np.inf))),
    "recover_from_projection_moduli": ("moduli", lambda: recover_from_projection_moduli(
        _with(frequency_deleted_moduli(rand_zero_sum(5), 5), (1, 1), np.inf), 5)),
    "projection_phase_retrieval": (
        "f", lambda: projection_phase_retrieval(_with(rand_zero_sum(5), 4, np.nan))),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_CALLS))
def test_non_finite_input_is_rejected_naming_the_argument(entry):
    name, call = NON_FINITE_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} has a non-finite entry"):
        call()


# the argument each call converts first, and the call with that argument given
NON_NUMERIC_CALLS = {
    "forward_measure": ("A", lambda x: forward_measure(x, canonical_generator(5), 5)),
    "recover_vector": ("F", lambda x: recover_vector(x, canonical_generator(5), 5)),
    "h_forward": ("A", lambda x: h_forward(x, np.ones(4))),
    "conjugate_phase_reconstruct": ("moduli", conjugate_phase_reconstruct),
    "three_transitive_phase_retrieval": (
        "measurements", lambda x: three_transitive_phase_retrieval(x, S4)),
}


@pytest.mark.parametrize("bad", [["a"], {"a": 1}, [[1.0, 2.0], [3.0]]], ids=["string", "dict", "ragged"])
@pytest.mark.parametrize("entry", sorted(NON_NUMERIC_CALLS))
def test_non_numeric_input_is_rejected_naming_the_argument(entry, bad):
    name, call = NON_NUMERIC_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an array of numbers"):
        call(bad)


def pairwise_moduli(f):
    return np.abs(f[:, None] - f)


# the argument that must be real, how to make its data, and the call that reads it
REAL_CALLS = {
    "three_transitive_phase_retrieval": (
        "measurements", lambda: measurements_for(rand_zero_sum(4), S4, canonical_time_generator(3)),
        lambda y: three_transitive_phase_retrieval(y, S4)),
    "difference_phase_retrieval": (
        "magnitudes", lambda: np.abs(difference_coefficients(rand_zero_sum(4), 0, 1, S4)),
        lambda y: difference_phase_retrieval(y, S4)),
    "conjugate_phase_reconstruct": (
        "moduli", lambda: pairwise_moduli(rand_zero_sum(4)), conjugate_phase_reconstruct),
    "recover_from_projection_moduli": (
        "moduli", lambda: frequency_deleted_moduli(rand_zero_sum(5), 5),
        lambda m: recover_from_projection_moduli(m, 5)),
}


@pytest.mark.parametrize("entry", sorted(REAL_CALLS))
def test_complex_data_is_read_as_real_only_when_every_imaginary_part_is_zero(entry):
    # warnings are errors in this suite, so a ComplexWarning on the zero-imaginary input fails
    name, make, call = REAL_CALLS[entry]
    data = make()
    want = call(data).tobytes()
    assert call(data + 0j).tobytes() == want
    assert call((data + 0j).tolist()).tobytes() == want
    bad = data + 0j
    bad.flat[1] += 0.3j
    for arg in (bad, bad.tolist()):
        with pytest.raises(ValueError, match=f"^{name} must be real, but an imaginary part is nonzero"):
            call(arg)
