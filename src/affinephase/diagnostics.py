"""Frame-theoretic retrieval diagnostics and geometric reconstruction.

Contents:
  * complement property and full spark checks for explicit frame systems;
  * difference-frame coefficients for permutation lists that cover every ordered pair, and
    conjugate phase retrieval from their magnitudes or from two columns of the planar Gram matrix;
  * the dimension-3 counterexample verifier for the extended generator
    delta_k0 - delta_l0 + n^{-1/2} * 1;
  * closed-form phase retrieval for 3-fold transitive permutation actions;
  * Pauli-pair and frequency-deletion (Fourier projection) harnesses that
    reduce to the affine matrix-recovery pipeline.

Permutations are given in one-line notation: a permutation h of
{0..n-1} is a length-n sequence with h[i] the image of i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, perm

import numpy as np

from . import recovery
from .errors import (COLLINEAR_RTOL, CONJUGATE_PR_RTOL, PAULI_MATCH_RTOL, RANK_RTOL, TABLE_CACHE_SIZE,
                     ZERO_SUM_RTOL, InadmissibleGeneratorError, require_finite, require_real)
from .group_fourier import _frame_coefficients
from .primefield import inverse_table, validate_prime
from .recovery import canonical_phase, canonical_time_generator

#: hard cap on exhaustive subset scans
MAX_COMPLEMENT_VECTORS = 22
MAX_SPARK_SUBSETS = 2_000_000


def _vector_stack(vectors) -> np.ndarray:
    V = require_finite("vectors", vectors)
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

    Every deficient subset extends, inside the system, to the closure of an
    independent (d-1)-subset (the indices whose vectors lie in its span), so the
    property fails iff the complement of some closure is deficient; that closure is
    the witness.  One SVD of each (d-1)-subset gives its rank and its span.  With
    ``exhaustive=True`` all 2^n subsets are additionally scanned one by one (a subset
    is deficient iff it lies in a closure), which cross-checks the closure test.
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

    closures: set[tuple[int, ...]] = set()
    witness = None
    for subset in combinations(range(n), d - 1):
        _, sv, Vh = np.linalg.svd(V[list(subset)], full_matrices=False)
        if np.sum(sv > RANK_RTOL * scale) < d - 1:
            continue
        resid = V - (V @ Vh.conj().T) @ Vh  # the part of each vector outside span(subset)
        inside = np.linalg.norm(resid, axis=1) <= RANK_RTOL * scale
        c = tuple(np.flatnonzero(inside).tolist())
        if c in closures:
            continue
        closures.add(c)
        if witness is None and _rank(V[~inside], scale) < d:
            witness = c
            if not exhaustive:
                break

    if exhaustive:
        subsets = np.arange(1 << n, dtype=np.uint32)
        deficient = np.zeros(1 << n, dtype=bool)
        for c in closures:
            deficient |= (subsets & ~np.uint32(sum(1 << i for i in c))) == 0
        both = deficient & deficient[(~subsets) & np.uint32((1 << n) - 1)]
        if bool(np.any(both)) != (witness is not None):
            raise AssertionError("exhaustive scan disagrees with the closure test")
    return witness is None, witness


def full_spark(vectors) -> bool:
    """True iff every d-subset of the system spans the d-dimensional span of
    the whole system."""
    V = _vector_stack(vectors)
    n = V.shape[0]
    scale = float(np.linalg.norm(V, 2))
    d = _rank(V, scale)
    if d == 0:
        return False
    if comb(n, d) > MAX_SPARK_SUBSETS:
        raise ValueError(f"C({n},{d}) subsets exceed the desk-scale limit")
    for subset in combinations(range(n), d):
        if _rank(V[list(subset)], scale) < d:
            return False
    return True


def _permutation_rows(perms, n: int | None = None) -> np.ndarray:
    """``perms`` as an (N, n) integer array, n by default the size of the first row, checked
    by one sort against 0..n-1; the ValueError names the first row that is not a sequence
    (as in a flat ``perms``) or not a permutation.  An int64 array comes back uncopied, so
    callers only read it."""
    rows = perms if isinstance(perms, np.ndarray) else list(perms)
    if n is None:
        n = np.size(rows[0]) if len(rows) else 0
    try:
        H = np.asarray(rows)
        ok = H.dtype.kind in "biuf" and (H.ndim == 2 or H.size == 0)
        H = H.reshape(len(rows), n)
        ok = ok and bool(np.all(np.sort(H, axis=1) == np.arange(n)))
    except ValueError:  # ragged rows, or rows of another length
        ok = False
    for i, h in enumerate([] if ok else rows):
        if np.ndim(h) != 1:
            raise ValueError(f"perms must be a list of permutation rows, but row {i} is {h}")
        if sorted(h) != list(range(n)):
            raise ValueError(f"row {i} is not a permutation of 0..{n - 1}: {tuple(h)}")
    return H.astype(np.int64, copy=False)


def _cover(H: np.ndarray, base: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Codes of t = h(base) as base-n integers, one per row h of H, and the count of each of the
    n^k codes; ValueError naming the first (lexicographic) ordered k-tuple of distinct points that
    is no t.  Under n!/(n-k)! rows it fails before any n^k array; the search walks <= N + 1 tuples."""
    n, k, T = H.shape[1], len(base), H[:, list(base)]
    code = T @ n ** np.arange(k - 1, -1, -1)
    count = np.bincount(code, minlength=n**k) if len(H) >= perm(n, k) else None
    if count is None or np.count_nonzero(count) < perm(n, k):
        covered = set(map(tuple, T.tolist()))
        missing = next(t for t in permutations(range(n), k) if t not in covered)
        raise ValueError(f"permutation list is not {k}-fold transitive: no h maps {base} to {missing}")
    return code, count


def _base_pair(k0, l0, n: int) -> tuple[int, int]:
    if not all(isinstance(i, (int, np.integer)) and 0 <= i < n for i in (k0, l0)) or k0 == l0:
        raise ValueError(f"k0, l0 must be distinct integers in {{0..n-1}}, got {k0!r}, {l0!r}")
    return int(k0), int(l0)


def _rows_and_magnitudes(name: str, magnitudes, perms) -> tuple[np.ndarray, np.ndarray, int]:
    """``perms`` as rows on n >= 3 points, one nonnegative magnitude per row, and n."""
    H = _permutation_rows(perms)
    if len(H) == 0 or H.shape[1] < 3:
        raise ValueError(f"need a nonempty list of permutations of at least 3 points, got {H.shape}")
    y = require_real(name, magnitudes)
    if y.shape != (len(H),):
        raise ValueError("need one nonnegative magnitude per permutation")
    if (y < 0).any():
        raise ValueError(f"magnitude {int(np.argmax(y < 0))} is negative; need nonnegative ones")
    return H, y, H.shape[1]


def difference_coefficients(f, k0: int, l0: int, perms) -> np.ndarray:
    """f(h(k0)) - f(h(l0)) for each row h, in row order: the frame coefficients of f against the
    orbit of delta_k0 - delta_l0, for a list that covers every ordered pair (:func:`_cover`)."""
    f = require_finite("f", f)
    if f.ndim != 1:
        raise ValueError(f"f must be a vector, got shape {f.shape}")
    H = _permutation_rows(perms, len(f))
    _cover(H, _base_pair(k0, l0, len(f)))
    return f[H[:, k0]] - f[H[:, l0]]


# ---------------------------------------------------------------------------
# conjugate phase retrieval via planar distance geometry


def conjugate_phase_reconstruct(moduli) -> np.ndarray:
    """Reconstruct a zero-sum vector from all pairwise moduli |f(k) - f(l)|.

    ``moduli`` is the symmetric n x n matrix D of pairwise distances.  The centred Gram
    matrix B = -J D^2 J / 2, B(k, l) = Re(f(k) conj(f(l))), is read off two of its columns,
    as recover_vector reads f: x = B(:, a) / sqrt(B(a, a)) at the largest diagonal entry a,
    then y likewise from B - x x^T at its largest diagonal entry b (y = 0 if that entry is
    <= COLLINEAR_RTOL * tr B), and z = x + i y.  InconsistentDataError if the forward
    residual of |z(k) - z(l)|^2 against D^2 exceeds RANK_ONE_RTOL, as for moduli that are
    not planar.  The remaining rotation/reflection ambiguity (a unit scalar, possibly with
    conjugation) is fixed by a canonical representative: the largest-modulus coordinate is
    rotated to the positive real axis and the configuration is conjugated if the
    second-largest-modulus coordinate has negative imaginary part.
    ValueError unless |D - D^T| and the diagonal are at most CONJUGATE_PR_RTOL * max(max D, 1),
    with no relative term; that sign is tested to CONJUGATE_PR_RTOL * max D.
    """
    D = require_real("moduli", moduli)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("moduli must form a square symmetric matrix")
    if (D < 0).any():
        raise ValueError(f"moduli entry {tuple(np.argwhere(D < 0)[0].tolist())} is negative")
    n = D.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points")
    scale = float(np.max(D))
    atol = CONJUGATE_PR_RTOL * max(scale, 1.0)
    if max(np.max(np.abs(D - D.T)), np.max(np.diag(D))) > atol:  # D >= 0 by now
        raise ValueError("moduli matrix must be symmetric with zero diagonal")
    D2 = D**2
    B = (D2.mean(axis=0) + D2.mean(axis=1)[:, None] - D2.mean() - D2) / 2  # -J D^2 J / 2
    a = int(np.argmax(B.diagonal()))
    x = B[:, a] / np.sqrt(B[a, a] if B[a, a] > 0 else np.inf)
    y2 = B.diagonal() - x**2
    b = int(np.argmax(y2))
    y = (B[:, b] - x * x[b]) / np.sqrt(y2[b]) if y2[b] > COLLINEAR_RTOL * np.trace(B) else 0.0
    z = x + 1j * y
    z = z - z.mean()  # exact zero-sum after roundoff
    recovery._check_forward_residual(np.abs(z[:, None] - z).ravel() ** 2, D2.ravel())
    z = canonical_phase(z)
    if z[np.argsort(np.abs(z))[-2]].imag < -CONJUGATE_PR_RTOL * scale:
        z = canonical_phase(z.conj())
    return z


def difference_phase_retrieval(magnitudes, perms, k0: int = 0, l0: int = 1) -> np.ndarray:
    """Recover a zero-sum g, up to a unit scalar and conjugation, from the magnitudes y of its
    :func:`difference_coefficients`: y^2 averaged per pair (h(k0), h(l0)) is D^2 for conj-pr.
    InconsistentDataError if the row-by-row residual |g(h(k0)) - g(h(l0))|^2 - y^2 > RANK_ONE_RTOL."""
    H, y, n = _rows_and_magnitudes("magnitudes", magnitudes, perms)
    code, count = _cover(H, _base_pair(k0, l0, n))
    D2 = (np.bincount(code, y * y, n * n) / np.maximum(count, 1)).reshape(n, n)
    g = conjugate_phase_reconstruct(np.sqrt((D2 + D2.T) / 2))
    recovery._check_forward_residual(np.abs(g[H[:, k0]] - g[H[:, l0]]) ** 2, y**2)
    return g


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
    for l, k in permutations(range(3), 2):
        dy, dz = y[l] - y[k], z[l] - z[k]
        err = max(err, abs((abs(dy) ** 2 + a**2) - (abs(dz) ** 2 + b**2)),
                  abs((np.conj(a) * dy).real - (np.conj(b) * dz).real))
    identities_ok = err < 1e-12

    # no single unit scalar (with or without conjugation) maps (y, a) to (z, b)
    norm_ratio = float(np.linalg.norm(z) / np.linalg.norm(y))
    mod_ratio = float(b / a)
    inequivalent = abs(norm_ratio - mod_ratio) > 1e-9

    # second counterexample: the constant vector c * 1 shares all frame
    # coefficient moduli with y; the correct scaling follows from <1, psi_1>
    psi1 = np.array([1.0, -1.0, 0.0]) + 3**-0.5
    c = abs(1 - xi) / np.sqrt(3)
    w = c * np.ones(3)
    # frame vector of h: (Pi(h) psi_1)(m) = psi_1(h^-1(m)), and argsort inverts h
    frame = psi1[np.argsort(list(permutations(range(3))), axis=1)]
    cerr = float(np.max(np.abs(np.abs(frame @ np.stack([y, w], axis=1)) - abs(1 - xi))))
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


# ---------------------------------------------------------------------------
# phase retrieval for 3-fold transitive permutation actions

@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _three_transitive_plan(n: int, psi0_bytes: bytes | None):
    """For the last ``TABLE_CACHE_SIZE`` (n, psi0): psi0 read-only (None: the p=3 time-side
    generator), the order (i, j, k) of its positions and the coefficients (alpha, beta, gamma, e,
    kappa) of the closed form in :func:`three_transitive_phase_retrieval` for the order that
    maximizes min(n |Re gamma|, |kappa|), and ||psi0||^2.  ValueError unless psi0 is zero-sum;
    InadmissibleGeneratorError if that or n |Im gamma| (order-free) <= RANK_RTOL n^2 ||psi0||^2."""
    psi0 = canonical_time_generator(3) if psi0_bytes is None else np.frombuffer(psi0_bytes, complex)
    if abs(psi0.sum()) > ZERO_SUM_RTOL * np.linalg.norm(psi0):
        raise ValueError("psi0 must be zero-sum")
    psi0.setflags(write=False)
    orders = np.array(list(permutations(range(3))))
    a, b, e = np.abs(psi0[orders.T]) ** 2
    w = psi0[orders[:, 0]].conj() * psi0[orders[:, 1]]
    gamma, kappa = n * w + a + b, n * ((n - 2) * a - 2 * b - 2 * w.real)
    divisor = np.minimum(n * np.abs(gamma.real), np.abs(kappa))
    x, norm2 = int(divisor.argmax()), float(np.vdot(psi0, psi0).real)
    tol = RANK_RTOL * n * n * norm2
    for name, value in (("n |Im gamma|", n * abs(gamma[x].imag)),
                        ("min(n |Re gamma|, |kappa|)", divisor[x])):
        if value <= tol:
            raise InadmissibleGeneratorError(f"psi0 fails condition {name} > RANK_RTOL * n^2 "
                                             f"||psi0||^2 = {tol:.3e}: it is {value:.3e}")
    coefficients = ((n - 1) * a[x] - b[x], (n - 1) * b[x] - a[x], gamma[x], e[x], kappa[x])
    return psi0, tuple(orders[x].tolist()), coefficients, norm2


def three_transitive_phase_retrieval(measurements, perms, psi0=None) -> np.ndarray:
    """Recover a zero-sum vector f (up to global phase) from the magnitudes
    |<f, Pi(h) psi>|, h in a list of permutations of n >= 3 points, where psi is the
    trivial extension of a zero-sum 3-point generator psi0 (default: the p=3 time-side
    generator) supported on {0,1,2}.

    A measurement reads h only at t = (h(0), h(1), h(2)), so the list needs only that every
    ordered triple of distinct points is some t (:func:`_cover`), and one bincount averages
    y^2 per t into an n x n x n array M, linear in X = f f^H.  For X with zero row and column
    sums, the pair sums S(u, v) = sum_c M at (t_i, t_j, t_k) = (u, v, c), u != v, are
    alpha X(u,u) + beta X(v,v) + gamma X(u,v) + conj(gamma) X(v,u) + e tr X.  Summed over all
    (u, v) they give tr X, over v the diagonal, and S(u, v) with S(v, u) the rest.  f is read
    off as in recover_vector; InconsistentDataError if its forward residual > RANK_ONE_RTOL.
    With the plan of (n, psi0) cached, a call on N rows takes O(N n log n + n^3) time, O(N n + n^3) memory.
    """
    H, y, n = _rows_and_magnitudes("measurements", measurements, perms)
    code, count = _cover(H, (0, 1, 2))
    if psi0 is not None:
        psi0 = require_finite("psi0", psi0)
        if psi0.shape != (3,):
            raise ValueError("psi0 must be a vector on 3 points")
    psi0, (i, j, k), (alpha, beta, gamma, e, kappa), norm2 = _three_transitive_plan(
        n, None if psi0 is None else psi0.tobytes())
    M = (np.bincount(code, y * y, n**3) / np.maximum(count, 1)).reshape(n, n, n)
    S = M.sum(axis=k) if i < j else M.sum(axis=k).T
    tr = S.sum() / (n * (n - 2) * norm2)
    d = (S.sum(axis=1) - (beta + (n - 1) * e) * tr) / kappa
    R = S - alpha * d[:, None] - beta * d - e * tr
    X = (gamma * R - gamma.conjugate() * R.T) / (gamma**2 - gamma.conjugate() ** 2)
    X[np.diag_indices(n)] = d
    top = int(d.argmax())
    g = canonical_phase(X[:, top] / np.sqrt(d[top] if d[top] > 0 else np.inf))
    recovery._check_forward_residual(np.abs(g[H[:, :3]] @ psi0.conj()) ** 2, y**2)
    return g


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
    sum_m f(m) conj(psi_l(m - k)), psi_l(x) = psi(l^-1 x).  The unitary DFT takes
    psi_l(. - k) to xi -> e^{-2 pi i k xi/p} psi^(l xi), so by Parseval the entry is
    f^(0) conj(psi^(0)) + <f^ on {1..p-1}, pi_hat0(k,l) psi^ on {1..p-1}>."""
    fh, psih = (np.fft.fft(x, norm="ortho") for x in (f, psi))
    return _frame_coefficients(fh[1:], psih[1:], p).reshape(p - 1, p) + fh[0] * psih[0].conj()


def pauli_pair_family(f, g, psi) -> PauliPairReport:
    """For each l, compare the time-side and Fourier-side moduli of the frame
    coefficient lines F_l = V_psi f(., l) and G_l = V_psi g(., l); they match within
    errors.PAULI_MATCH_RTOL times the largest coefficient modulus."""
    f, g, psi = require_finite("f", f), require_finite("g", g), require_finite("psi", psi)
    p = psi.size
    if not f.shape == g.shape == psi.shape == (p,):
        raise ValueError(f"f, g and psi must all live on Z_p: shapes {f.shape}, {g.shape}, {psi.shape}")
    validate_prime(p)
    Vf, Vg = (_affine_coefficients(x, psi, p) for x in (f, g))
    scale = max(float(np.max(np.abs(Vf))), float(np.max(np.abs(Vg))), 1e-300)
    t_dev = np.max(np.abs(np.abs(Vf) - np.abs(Vg)), axis=1)
    Gf, Gg = (np.abs(np.fft.fft(V, axis=1, norm="ortho")) for V in (Vf, Vg))
    f_dev = np.max(np.abs(Gf - Gg), axis=1)
    t_ok = t_dev <= PAULI_MATCH_RTOL * scale
    f_ok = f_dev <= PAULI_MATCH_RTOL * scale
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
    f = require_finite("f", f)
    if f.shape != (p,):
        raise ValueError(f"f must live on Z_{p}")
    gh = np.tile(np.fft.fft(f, norm="ortho"), (p - 1, 1))  # row l-1 drops the frequency l
    gh[np.arange(p - 1), np.arange(1, p)] = 0.0
    return np.abs(np.fft.ifft(gh, axis=1, norm="ortho"))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _projection_generator(p: int) -> np.ndarray:
    """Read-only, for the last ``TABLE_CACHE_SIZE`` p: canonical_time_generator(p)'s DFT on {1..p-1}."""
    phi = np.fft.fft(canonical_time_generator(p), norm="ortho")[1:]
    phi.setflags(write=False)
    return phi


def recover_from_projection_moduli(moduli, p: int) -> np.ndarray:
    """Recover a zero-sum f on Z_p (up to phase) from the moduli of all its
    frequency-deleted copies.

    The l-th line of affine frame coefficients for the canonical time-side
    generator equals the frequency-deleted copy P_{l^-1} f, so the moduli
    feed directly into the matrix-recovery pipeline on the Fourier side.  With the plans
    of p cached, a call costs O(p^2 log p) time (O(p^3) up to DFT_PRODUCT_MAX_P), O(p^2) memory.
    """
    p = validate_prime(p)
    if p < 5:
        raise ValueError("frequency-deletion retrieval needs p >= 5")
    moduli = require_real("moduli", moduli)
    if moduli.shape != (p - 1, p):
        raise ValueError(f"expected a (p-1) x p moduli table, got {moduli.shape}")
    if (moduli < 0).any():
        raise ValueError(f"moduli entry {tuple(np.argwhere(moduli < 0)[0].tolist())} is negative")
    F = (moduli[inverse_table(p)[1:] - 1] ** 2).reshape(-1)  # line l is |P_{l^-1} f|^2
    fhat0 = recovery.recover_vector(F, _projection_generator(p), p)
    return canonical_phase(np.fft.ifft(np.concatenate([[0.0], fhat0]), norm="ortho"))


def projection_phase_retrieval(f) -> np.ndarray:
    """End-to-end check: form {|P_l f|} from a zero-sum f and recover f up to
    phase."""
    f = require_finite("f", f)
    if f.ndim != 1:
        raise ValueError(f"f must be a vector on Z_p, got shape {f.shape}")
    p = validate_prime(len(f))
    if abs(f.sum()) > ZERO_SUM_RTOL * max(float(np.linalg.norm(f)), 1e-300):
        raise ValueError("f must have zero sum")
    return recover_from_projection_moduli(frequency_deleted_moduli(f, p), p)
