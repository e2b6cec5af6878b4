"""Frame-theoretic retrieval diagnostics and geometric reconstruction.

Contents:
  * complement property and full spark checks for explicit frame systems;
  * difference-frame coefficients for doubly transitive permutation groups
    and conjugate-phase reconstruction via planar multidimensional scaling;
  * the dimension-3 counterexample verifier for the extended generator
    delta_k0 - delta_l0 + n^{-1/2} * 1;
  * phase propagation: stitching locally known 3-point patches into a
    globally phase-consistent vector, and the full pipeline for 3-fold
    transitive permutation actions;
  * Pauli-pair and frequency-deletion (Fourier projection) harnesses that
    reduce to the affine matrix-recovery pipeline.

Permutations are given in one-line notation: a permutation h of
{0..n-1} is a length-n sequence with h[i] the image of i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from . import recovery
from .errors import RANK_RTOL, InconsistentDataError
from .harmonics import dft, dft_matrix, idft
from .primefield import inverse_table, validate_prime
from .recovery import canonical_phase, canonical_time_generator, phase_distance

#: hard cap on exhaustive subset scans
MAX_COMPLEMENT_VECTORS = 22
MAX_SPARK_SUBSETS = 2_000_000


def _vector_stack(vectors) -> np.ndarray:
    V = np.asarray(vectors, dtype=complex)
    if V.ndim != 2 or V.shape[0] == 0:
        raise ValueError("frame system must be a nonempty list of equal-length vectors")
    return V


def _rank(M: np.ndarray, scale: float) -> int:
    if M.shape[0] == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * max(scale, np.finfo(float).tiny)))


def complement_property(vectors, exhaustive: bool = False) -> tuple[bool, tuple[int, ...] | None]:
    """Check the complement property of a frame system.

    Returns (True, None) if for every index subset S, either the vectors in
    S or those in its complement span the span of the whole system;
    otherwise (False, witness) with a witness subset for which both spans
    are deficient.

    The span tests run over the (finitely many) maximal deficient subsets:
    every deficient subset extends, inside the system, to the closure of an
    independent (d-1)-subset, so the property fails iff two such closures
    cover the whole index set.  With ``exhaustive=True`` all 2^n subsets are
    additionally scanned one by one (a subset is deficient iff it lies in a
    maximal deficient subset), which cross-checks the closure shortcut.
    """
    V = _vector_stack(vectors)
    n = V.shape[0]
    if n > MAX_COMPLEMENT_VECTORS:
        raise ValueError(
            f"{n} vectors exceed the exhaustive-scan limit "
            f"{MAX_COMPLEMENT_VECTORS}; subsample the system first"
        )
    scale = float(np.linalg.norm(V, 2)) if V.size else 0.0
    d = _rank(V, scale)
    if d <= 1:
        return True, None

    # closures of independent (d-1)-subsets: the maximal deficient subsets
    closures: set[frozenset[int]] = set()
    for subset in combinations(range(n), d - 1):
        sub = V[list(subset)]
        if _rank(sub, scale) < d - 1:
            continue
        # indices whose vector lies in span(sub)
        proj_basis = np.linalg.svd(sub, full_matrices=False)[2][: d - 1]
        resid = V - (V @ proj_basis.conj().T) @ proj_basis
        members = frozenset(
            int(i) for i in np.flatnonzero(np.linalg.norm(resid, axis=1) <= RANK_RTOL * scale)
        )
        closures.add(members)
    maximal = [c for c in closures if not any(c < other for other in closures)]
    full = frozenset(range(n))
    result: tuple[bool, tuple[int, ...] | None] = (True, None)
    for c1 in maximal:
        for c2 in maximal:
            if c1 | c2 == full:
                witness = tuple(sorted(full - c2))  # subset of c1, complement inside c2
                result = (False, witness)
                break
        if not result[0]:
            break

    if exhaustive:
        masks = np.array(
            [sum(1 << i for i in c) for c in maximal] or [0], dtype=np.uint32
        )
        subsets = np.arange(1 << n, dtype=np.uint32)
        deficient = np.zeros(1 << n, dtype=bool)
        for m in masks:
            deficient |= (subsets & ~m) == 0
        both = deficient & deficient[(~subsets) & np.uint32((1 << n) - 1)]
        found = bool(np.any(both))
        if found != (not result[0]):
            raise AssertionError("exhaustive scan disagrees with closure shortcut")
        if found and result[1] is None:
            s = int(np.flatnonzero(both)[0])
            result = (False, tuple(i for i in range(n) if s >> i & 1))
    return result


def full_spark(vectors) -> bool:
    """True iff every d-subset of the system spans the d-dimensional span of
    the whole system."""
    V = _vector_stack(vectors)
    n = V.shape[0]
    scale = float(np.linalg.norm(V, 2))
    d = _rank(V, scale)
    if d == 0:
        return False
    from math import comb

    if comb(n, d) > MAX_SPARK_SUBSETS:
        raise ValueError(f"C({n},{d}) subsets exceed the desk-scale limit")
    for subset in combinations(range(n), d):
        if _rank(V[list(subset)], scale) < d:
            return False
    return True


def is_k_transitive(perms, k: int, n: int) -> bool:
    """Brute-force k-fold transitivity check for a list of permutations of
    {0..n-1} in one-line notation."""
    perms = [tuple(h) for h in perms]
    for h in perms:
        if sorted(h) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {h}")
    tuples = list(permutations(range(n), k))
    target = set(tuples)
    for u in tuples:
        reached = {tuple(h[i] for i in u) for h in perms}
        if reached != target:
            return False
    return True


def difference_coefficients(f, k0: int, l0: int, perms) -> dict[tuple[int, ...], complex]:
    """Frame coefficients of f against the orbit of delta_k0 - delta_l0 under
    a doubly transitive permutation list: the value at h is f(h(k0)) - f(h(l0))."""
    f = np.asarray(f, dtype=complex)
    n = len(f)
    if not (0 <= k0 < n and 0 <= l0 < n) or k0 == l0:
        raise ValueError("k0, l0 must be distinct indices in {0..n-1}")
    perms = [tuple(h) for h in perms]
    if not is_k_transitive(perms, 2, n):
        raise ValueError("permutation list is not doubly transitive")
    return {h: complex(f[h[k0]] - f[h[l0]]) for h in perms}


# ---------------------------------------------------------------------------
# conjugate phase retrieval via planar distance geometry


def conjugate_phase_reconstruct(moduli, tol: float = 1e-8) -> np.ndarray:
    """Reconstruct a zero-sum vector from all pairwise moduli |f(k) - f(l)|.

    ``moduli`` is the symmetric n x n matrix of pairwise distances.  Classical
    multidimensional scaling in the plane recovers the configuration up to a
    planar isometry; centering removes the translation, and the remaining
    rotation/reflection ambiguity (a unit scalar, possibly with conjugation)
    is fixed by a canonical representative: the largest-modulus coordinate is
    rotated to the positive real axis and the configuration is conjugated if
    the second-largest-modulus coordinate has negative imaginary part.
    """
    D = np.asarray(moduli, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("moduli must form a square symmetric matrix")
    n = D.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points")
    scale = float(np.max(D))
    if not np.allclose(D, D.T, atol=tol * max(scale, 1.0)) or np.max(np.abs(np.diag(D))) > tol * max(scale, 1.0):
        raise ValueError("moduli matrix must be symmetric with zero diagonal")
    if scale == 0.0:
        return np.zeros(n, dtype=complex)

    J = np.eye(n) - np.ones((n, n)) / n
    B = -0.5 * J @ (D**2) @ J
    evals, evecs = np.linalg.eigh(B)
    trace = float(np.sum(np.abs(evals)))
    if evals[0] < -1e-8 * trace:
        raise InconsistentDataError(
            f"inconsistent moduli: negative Gram eigenvalue {evals[0]:.3e}"
        )
    if n > 3 and float(np.sum(evals[:-2][evals[:-2] > 0])) > 1e-8 * trace:
        raise InconsistentDataError("inconsistent moduli: configuration is not planar")
    top = np.maximum(evals[-2:], 0.0)
    top[top < 1e-12 * trace] = 0.0  # collinear configurations: drop noise axis
    coords = evecs[:, -2:] * np.sqrt(top)
    z = coords[:, 0] + 1j * coords[:, 1]
    z = z - z.mean()  # exact zero-sum after roundoff
    z = canonical_phase(z)
    order = np.argsort(np.abs(z))
    if len(order) >= 2 and z[order[-2]].imag < -tol * scale:
        z = z.conj()
        z = canonical_phase(z)
    return z


# ---------------------------------------------------------------------------
# dimension-3 counterexamples


@dataclass(frozen=True)
class CounterexampleReport:
    zero_sums_ok: bool
    identity_max_error: float
    identities_ok: bool
    norm_ratio_zy: float
    modulus_ratio_ba: float
    configurations_inequivalent: bool
    coincidence_max_error: float
    coincidence_ok: bool
    matching_constant: str
    orthogonal_to_y: bool

    @property
    def all_confirmed(self) -> bool:
        return (
            self.zero_sums_ok
            and self.identities_ok
            and self.configurations_inequivalent
            and self.coincidence_ok
        )


def verify_counterexample_n3() -> CounterexampleReport:
    """Numerically confirm the two dimension-3 counterexamples to conjugate
    phase retrieval for the extended generator psi_1 = delta_0 - delta_1 +
    3^{-1/2} * 1 under S(3)."""
    xi = np.exp(2j * np.pi / 3)
    y = xi ** np.arange(3)
    z = 2 * y
    a = 2 * abs(1 - xi)
    b = abs(1 - xi)

    zero_sums_ok = bool(abs(y.sum()) < 1e-12 and abs(z.sum()) < 1e-12)

    # |y_l - y_k|^2 + a^2 = |z_l - z_k|^2 + b^2 and the matching real parts
    err = 0.0
    for l in range(3):
        for k in range(3):
            if l == k:
                continue
            err = max(err, abs((abs(y[l] - y[k]) ** 2 + a**2) - (abs(z[l] - z[k]) ** 2 + b**2)))
            err = max(
                err,
                abs((np.conj(a) * (y[l] - y[k])).real - (np.conj(b) * (z[l] - z[k])).real),
            )
    identities_ok = err < 1e-12

    # no single unit scalar (with or without conjugation) maps (y, a) to (z, b)
    norm_ratio = float(np.linalg.norm(z) / np.linalg.norm(y))
    mod_ratio = float(b / a)
    inequivalent = abs(norm_ratio - mod_ratio) > 1e-9

    # second counterexample: the constant vector c * 1 shares all frame
    # coefficient moduli with y; the correct scaling follows from <1, psi_1>
    perms = [tuple(h) for h in permutations(range(3))]
    psi1 = np.array([1.0, -1.0, 0.0]) + 3**-0.5
    c = abs(1 - xi) / np.sqrt(3)
    w = c * np.ones(3)
    cerr = 0.0
    for h in perms:
        frame_vec = np.array([psi1[_perm_inverse(h)[m]] for m in range(3)])
        cerr = max(cerr, abs(abs(np.vdot(frame_vec, y)) - abs(1 - xi)))
        cerr = max(cerr, abs(abs(np.vdot(frame_vec, w)) - abs(1 - xi)))
    coincidence_ok = cerr < 1e-12

    return CounterexampleReport(
        zero_sums_ok=zero_sums_ok,
        identity_max_error=float(err),
        identities_ok=bool(identities_ok),
        norm_ratio_zy=norm_ratio,
        modulus_ratio_ba=mod_ratio,
        configurations_inequivalent=bool(inequivalent),
        coincidence_max_error=float(cerr),
        coincidence_ok=bool(coincidence_ok),
        matching_constant="|1-xi|/sqrt(3)",
        orthogonal_to_y=bool(abs(np.vdot(w, y)) < 1e-12),
    )


def _perm_inverse(h: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(h)
    for i, j in enumerate(h):
        inv[j] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# phase propagation over 3-point patches


@dataclass(frozen=True)
class PatchData:
    """A 3-point patch: the zero-sum projection of the unknown vector onto a
    3-element support, known up to a unit scalar."""

    support: tuple[int, int, int]
    values: np.ndarray

    def __post_init__(self):
        if len(self.support) != 3 or len(set(self.support)) != 3:
            raise ValueError("patch support must consist of 3 distinct indices")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (3,):
            raise ValueError("patch carries exactly 3 values")
        object.__setattr__(self, "values", v)


def zero_sum_projection(f, support) -> np.ndarray:
    """Q_A f: restrict f to the support and subtract the local mean."""
    f = np.asarray(f, dtype=complex)
    vals = f[list(support)]
    return vals - vals.mean()


def phase_propagation_stitch(patches, n: int, tol: float = 1e-8) -> np.ndarray:
    """Assemble a zero-sum vector (up to one global unit scalar) from 3-point
    patches each known up to its own unit scalar.

    Each patch determines the pairwise differences f(j) - f(k) on its support
    up to the patch phase.  Phases are propagated from a reference patch
    through shared pairs with nonzero difference values; aligned differences
    are then solved for f by least squares together with the zero-sum
    constraint.  Conflicting patch data raise InconsistentDataError naming
    the offending pair of patches.
    """
    patches = list(patches)
    for q in patches:
        if not all(0 <= i < n for i in q.support):
            raise ValueError(f"patch support {q.support} outside 0..{n - 1}")
    norms = [float(np.linalg.norm(q.values)) for q in patches]
    scale = max(norms, default=0.0)
    if scale == 0.0:
        return np.zeros(n, dtype=complex)
    thresh = tol * scale

    def diffs(q: PatchData) -> dict[tuple[int, int], complex]:
        out = {}
        for a, b in combinations(range(3), 2):
            i, j = q.support[a], q.support[b]
            val = q.values[a] - q.values[b]
            if i > j:
                i, j, val = j, i, -val
            out[(i, j)] = val
        return out

    patch_diffs = [diffs(q) for q in patches]
    nonzero = [i for i in range(len(patches)) if norms[i] > thresh]
    aligned: dict[int, complex] = {}
    established: dict[tuple[int, int], tuple[complex, int]] = {}

    def absorb(idx: int, alpha: complex) -> None:
        aligned[idx] = alpha
        for pair, val in patch_diffs[idx].items():
            v = alpha * val
            if pair in established:
                prev, src = established[pair]
                if abs(prev - v) > thresh:
                    raise InconsistentDataError(
                        f"patches {src} and {idx} disagree on pair {pair} "
                        f"(|delta| = {abs(prev - v):.3e})"
                    )
            else:
                established[pair] = (v, idx)

    # zero patches carry only zero differences; no phase needed
    for i in range(len(patches)):
        if norms[i] <= thresh:
            absorb(i, 1.0)

    if nonzero:
        ref = max(nonzero, key=lambda i: norms[i])
        absorb(ref, 1.0)
        pending = [i for i in nonzero if i not in aligned]
        progress = True
        while pending and progress:
            progress = False
            for idx in list(pending):
                d = patch_diffs[idx]
                s = 0.0 + 0.0j
                for pair, val in d.items():
                    if pair in established:
                        s += established[pair][0] * np.conj(val)
                if abs(s) > thresh**2:  # product of two difference magnitudes
                    absorb(idx, s / abs(s))  # raises if the overlap disagrees
                    pending.remove(idx)
                    progress = True
        if pending:
            raise ValueError(
                "patch family is disconnected: cannot phase-align patches "
                f"{sorted(pending)} with the reference component"
            )

    # least squares: f(i) - f(j) = d_ij for all established pairs, sum f = 0
    pairs = sorted(established)
    rows = np.zeros((len(pairs) + 1, n), dtype=complex)
    rhs = np.zeros(len(pairs) + 1, dtype=complex)
    for r, (i, j) in enumerate(pairs):
        rows[r, i] = 1.0
        rows[r, j] = -1.0
        rhs[r] = established[(i, j)][0]
    rows[-1, :] = 1.0
    g, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return g


# ---------------------------------------------------------------------------
# phase retrieval for 3-fold transitive permutation actions

def three_transitive_phase_retrieval(measurements, perms, psi0=None) -> np.ndarray:
    """Recover a zero-sum vector f (up to global phase) from the magnitudes
    |<f, Pi(h) psi>|, h in a 3-fold transitive permutation list, where psi is
    the trivial extension of a 3-point generator psi0 supported on {0,1,2}.

    psi0 must be zero-sum so that each measurement depends only on the local
    zero-sum projection of f; the default is the p=3 time-side generator.
    On a support A = h({0,1,2}), h acts through the local permutation
    sigma(i) = position of h(i) in sorted A, which is the affine map
    m -> k + l*m of Z_3 (S(3) = Aff(Z_3)).  The measurements on A are thus
    the affine frame magnitudes at p=3, and each patch is solved by
    :func:`recovery.recover_vector` on the Fourier side of psi0, which also
    checks psi0 for admissibility and the data for rank one.  The patches are
    stitched by phase propagation.
    """
    perms = [tuple(h) for h in perms]
    if not perms:
        raise ValueError("empty permutation list")
    n = len(perms[0])
    y = np.asarray(measurements, dtype=float)
    if y.shape != (len(perms),):
        raise ValueError("need one nonnegative magnitude per permutation")
    if not is_k_transitive(perms, 3, n):
        raise ValueError("permutation list is not 3-fold transitive")
    if psi0 is None:
        psi0 = canonical_time_generator(3)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (3,):
        raise ValueError("psi0 must be a vector on 3 points")
    if abs(psi0.sum()) > 1e-10 * np.linalg.norm(psi0):
        raise ValueError("psi0 must be zero-sum")
    phi = dft(psi0)[1:]

    # group measurements by support and by the index (l-1)*3 + k of the
    # affine map sigma(m) = k + l*m in the l-outer-k-inner order
    by_support: dict[tuple[int, int, int], dict[int, list[float]]] = {}
    for h, mag in zip(perms, y):
        support = tuple(sorted(h[:3]))
        k, s1 = support.index(h[0]), support.index(h[1])
        index = ((s1 - k) % 3 - 1) * 3 + k
        by_support.setdefault(support, {}).setdefault(index, []).append(float(mag))

    patches = []
    for support, groups in sorted(by_support.items()):
        F = np.empty(6)  # 3-fold transitivity fills all six entries
        for index, mlist in groups.items():
            spread = max(mlist) - min(mlist)
            if spread > 1e-8 * max(max(mlist), 1.0):
                raise InconsistentDataError(
                    f"repeated measurements disagree on patch {support}"
                )
            F[index] = np.mean(mlist) ** 2
        try:
            fhat = recovery.recover_vector(F, phi, 3)
        except InconsistentDataError as exc:
            raise InconsistentDataError(f"patch {support}: {exc}") from exc
        patches.append(PatchData(support=support, values=idft(np.concatenate([[0.0], fhat]))))

    g = phase_propagation_stitch(patches, n, tol=1e-7)
    return canonical_phase(g)


# ---------------------------------------------------------------------------
# Pauli pairs and Fourier-projection phase retrieval


@dataclass(frozen=True)
class PauliPairReport:
    p: int
    time_side_match: np.ndarray  # bool per l in {1..p-1}
    fourier_side_match: np.ndarray
    all_hold: bool
    max_time_deviation: float
    max_fourier_deviation: float


def _affine_coefficients(f, psi, p: int) -> np.ndarray:
    """V_psi f as a (p-1) x p array, row l-1, column k: the entry
    sum_m f(m) conj(psi_l(m - k)), psi_l(x) = psi(l^-1 x), is a cyclic
    correlation in k, taken with one FFT per l."""
    f = np.asarray(f, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    psi_l = psi[np.outer(inverse_table(p)[1:], np.arange(p)) % p]
    return np.fft.ifft(np.fft.fft(f) * np.fft.fft(psi_l, axis=1).conj(), axis=1)


def pauli_pair_family(f, g, psi, tol: float = 1e-10) -> PauliPairReport:
    """For each l, compare the time-side and Fourier-side moduli of the frame
    coefficient lines F_l = V_psi f(., l) and G_l = V_psi g(., l)."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    p = len(psi)
    validate_prime(p)
    if f.shape != (p,) or g.shape != (p,):
        raise ValueError("f, g and psi must all live on Z_p")
    Vf = _affine_coefficients(f, psi, p)
    Vg = _affine_coefficients(g, psi, p)
    scale = max(float(np.max(np.abs(Vf))), float(np.max(np.abs(Vg))), 1e-300)
    t_dev = np.max(np.abs(np.abs(Vf) - np.abs(Vg)), axis=1)
    f_dev = np.array(
        [np.max(np.abs(np.abs(dft(Vf[i])) - np.abs(dft(Vg[i])))) for i in range(p - 1)]
    )
    t_ok = t_dev <= tol * scale
    f_ok = f_dev <= tol * scale
    return PauliPairReport(
        p=p,
        time_side_match=t_ok,
        fourier_side_match=f_ok,
        all_hold=bool(np.all(t_ok) and np.all(f_ok)),
        max_time_deviation=float(t_dev.max()),
        max_fourier_deviation=float(f_dev.max()),
    )


def frequency_deleted_moduli(f, p: int) -> np.ndarray:
    """Measurements |P_l f| for l in {1..p-1}, where P_l removes the l-th
    frequency; returned as a (p-1) x p array, row l-1."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (p,):
        raise ValueError(f"f must live on Z_{p}")
    gh = np.tile(dft(f), (p - 1, 1))  # row l-1 drops the frequency l
    gh[np.arange(p - 1), np.arange(1, p)] = 0.0
    return np.abs(gh @ dft_matrix(p).conj())


def recover_from_projection_moduli(moduli, p: int) -> np.ndarray:
    """Recover a zero-sum f on Z_p (up to phase) from the moduli of all its
    frequency-deleted copies.

    The l-th line of affine frame coefficients for the canonical time-side
    generator equals the frequency-deleted copy P_{l^-1} f, so the moduli
    feed directly into the matrix-recovery pipeline on the Fourier side.
    """
    validate_prime(p)
    if p < 5:
        raise ValueError("frequency-deletion retrieval needs p >= 5")
    moduli = np.asarray(moduli, dtype=float)
    if moduli.shape != (p - 1, p):
        raise ValueError(f"expected a (p-1) x p moduli table, got {moduli.shape}")
    psi = canonical_time_generator(p)
    phi = dft(psi)[1:]
    F = (moduli[inverse_table(p)[1:] - 1] ** 2).reshape(-1)  # line l is |P_{l^-1} f|^2
    fhat0 = recovery.recover_vector(F, phi, p)
    fhat = np.concatenate([[0.0], fhat0])
    return canonical_phase(idft(fhat))


def projection_phase_retrieval(f) -> np.ndarray:
    """End-to-end check: form {|P_l f|} from a zero-sum f and recover f up to
    phase."""
    f = np.asarray(f, dtype=complex)
    p = len(f)
    validate_prime(p)
    if abs(f.sum()) > 1e-10 * max(float(np.linalg.norm(f)), 1e-300):
        raise ValueError("f must have zero sum")
    return recover_from_projection_moduli(frequency_deleted_moduli(f, p), p)
