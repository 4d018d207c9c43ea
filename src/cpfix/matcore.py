"""Dense complex matrix kernel.

Hermitian spectral decompositions, operator norms, nullspaces and PSD
utilities used by every other module.  Matrices are numpy arrays of
complex128; the nullspace kernels keep a real input real.  Tolerances are
relative to max(1, ||operand||), so one value serves tiny and O(1)-normed
inputs alike.  The nullspace and PSD kernels take their tolerance from the
caller, which owns the decision it cuts.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD, ShapeMismatch

HERMITIAN_TOL = 1e-9  # eig_hermitian and psd_sqrt reject ||A - A*|| above this times max(1, ||A||)
# hermitian_floor: a stack of fewer matrices goes straight to eigvalsh; a larger one first
# solves the FLOOR_PROBES matrices with the smallest diagonal entries, and FLOOR_MARGIN
# scales the margin of its Cholesky screen (see `_floor_margin`)
FLOOR_SCREEN_MIN = 64
FLOOR_PROBES = 4
FLOOR_MARGIN = 8.0
EPS = np.finfo(float).eps


def as_matrix(a, what: str = "matrix", dtype=complex) -> np.ndarray:
    """Coerce to a finite 2-d array of dtype; dtype None keeps a real input real (float64)."""
    m = np.asarray(a, dtype=dtype or np.result_type(np.asarray(a), float))
    if m.ndim != 2:
        raise ShapeMismatch(f"{what}: expected 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what}: contains NaN or Inf entries")
    return m


def eig_hermitian(a: np.ndarray):
    """Spectral decomposition A = U diag(w) U* of a Hermitian matrix.

    Returns eigenvalues ascending and a unitary U.  Raises NotHermitian
    when ||A - A*|| exceeds HERMITIAN_TOL * max(1, ||A||), NoConvergence
    if the underlying QR iteration fails.  The operator norm is at most the
    Frobenius norm, so a defect within HERMITIAN_TOL in Frobenius norm
    passes without the two operator norms.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"eig_hermitian: matrix is {a.shape}, not square")
    defect = a - a.conj().T
    if np.linalg.norm(defect) > HERMITIAN_TOL:
        bound = HERMITIAN_TOL * max(1.0, op_norm(a))
        if op_norm(defect) > bound:
            raise NotHermitian(f"matrix deviates from A=A* by more than {bound:g}")
    h = 0.5 * (a + a.conj().T)
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"hermitian eigensolver failed: {exc}") from exc
    return w, u


def op_norm(a) -> float | np.ndarray:
    """Largest singular value, as sqrt of the top eigenvalue of A*A.

    A stack of shape (..., m, n) gives the array of its matrices' norms,
    from the same formula, so each entry equals op_norm of that matrix.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim > 2:
        if a.size == 0:
            return np.zeros(a.shape[:-2])
        gram = a.conj().swapaxes(-1, -2) @ a
        w = np.linalg.eigvalsh(0.5 * (gram + gram.conj().swapaxes(-1, -2)))
        return np.sqrt(np.maximum(w[..., -1], 0.0))
    if a.size == 0:
        return 0.0
    gram = a.conj().T @ a
    w = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    return float(np.sqrt(max(w[-1], 0.0)))


def nullspace(l: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace of L.

    Keeps every right singular direction with singular value at most
    tol * max(1, sigma_max).  May return a (n, 0) array, real for a real L.
    """
    l = as_matrix(l, dtype=None)
    # a tall L has all n right singular vectors in the reduced SVD, which skips the m x m U
    _, s, vh = np.linalg.svd(l, full_matrices=l.shape[0] < l.shape[1])
    return vh[_null_mask(s, l.shape[1], tol)].conj().T


def nullspace_pair(l: np.ndarray, tol: float):
    """Left and right nullspace bases of L from a single SVD.

    Returns (left, right): columns of `left` span ker(L*), columns of
    `right` span ker(L), each cut at tol * max(1, sigma_max) as in
    `nullspace`.  For square L both bases have equal dimension; both are real for a real L.
    """
    l = as_matrix(l, dtype=None)
    m, n = l.shape
    u, s, vh = np.linalg.svd(l, full_matrices=True)
    return u[:, _null_mask(s, m, tol)], vh[_null_mask(s, n, tol)].conj().T


def _null_mask(s: np.ndarray, size: int, tol: float) -> np.ndarray:
    """Which of `size` singular directions have singular value (0 past s) at most tol * max(1, sigma_max)."""
    padded = np.zeros(size)
    padded[: s.size] = s
    return padded <= tol * max(1.0, s[0] if s.size else 0.0)


def psd_sqrt(a: np.ndarray, tol: float) -> np.ndarray:
    """Hermitian PSD square root B with B @ B = A.

    Eigenvalues in [-tol * max(1, ||A||), 0) are clamped to zero; below
    that the matrix is rejected with NotPSD, and a matrix that fails
    eig_hermitian's HERMITIAN_TOL test with NotHermitian.  A stack of shape (..., n, n)
    gives the stack of roots; it raises what a loop over the stack in C
    order would raise first, with the same message.
    """
    if np.ndim(a) > 2:
        return _psd_sqrt_stack(np.asarray(a, dtype=complex), tol)
    w, u = eig_hermitian(a)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    if w.size and w[0] < -tol * scale:
        raise NotPSD(f"min eigenvalue {w[0]:g} below -{tol * scale:g}")
    root = np.sqrt(np.clip(w, 0.0, None))
    b = (u * root) @ u.conj().T
    return 0.5 * (b + b.conj().T)


def _psd_sqrt_stack(a: np.ndarray, tol: float) -> np.ndarray:
    """psd_sqrt of every matrix of a stack, with the same checks per matrix.

    The Hermitian guard is screened as in eig_hermitian: only the matrices
    whose defect exceeds HERMITIAN_TOL in Frobenius norm take the exact test.
    """
    if a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"psd_sqrt: matrices are {a.shape[-2:]}, not square")
    if not np.isfinite(a).all():
        raise ValueError("matrix: contains NaN or Inf entries")
    adj = a.conj().swapaxes(-1, -2)
    defect = a - adj
    herm_open = np.linalg.norm(defect, axis=(-2, -1)) > HERMITIAN_TOL
    herm_bad = np.zeros(a.shape[:-2], dtype=bool)
    herm_bound = np.full(a.shape[:-2], HERMITIAN_TOL)
    if herm_open.any():
        herm_bound[herm_open] = HERMITIAN_TOL * np.maximum(1.0, op_norm(a[herm_open]))
        herm_bad[herm_open] = op_norm(defect[herm_open]) > herm_bound[herm_open]
    try:
        w, u = np.linalg.eigh(0.5 * (a + adj))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"hermitian eigensolver failed: {exc}") from exc
    psd_bound = tol * np.maximum(1.0, np.max(np.abs(w), axis=-1, initial=0.0))
    bad = np.flatnonzero(herm_bad | (np.min(w, axis=-1, initial=0.0) < -psd_bound))
    if bad.size:
        k = np.unravel_index(bad[0], herm_bad.shape)
        if herm_bad[k]:
            raise NotHermitian(f"matrix deviates from A=A* by more than {herm_bound[k]:g}")
        raise NotPSD(f"min eigenvalue {w[k][0]:g} below -{psd_bound[k]:g}")
    b = (u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return 0.5 * (b + b.conj().swapaxes(-1, -2))


def hermitian_floor(*stacks) -> float:
    """Smallest eigenvalue of the Hermitian parts (A + A*)/2 of every matrix in the stacks.

    Each stack has shape (..., n, n); a 2-d matrix is a stack of one.  The
    matrices of one size are taken as one stack H, sizes in the order they
    first appear, and the result is bitwise floor = np.min(np.linalg.eigvalsh(H),
    initial=floor) folded over the sizes from floor = inf: inf when there is
    no matrix.  eigvalsh solves only the matrices that `_screened_floor`
    cannot rule out.
    """
    by_size: dict = {}
    for a in stacks:
        a = np.asarray(a)
        by_size.setdefault(a.shape[-2:], []).append(a.reshape(int(np.prod(a.shape[:-2])), *a.shape[-2:]))
    floor = np.inf
    for parts in by_size.values():
        a = parts[0] if len(parts) == 1 else np.concatenate(parts)
        floor = _screened_floor(0.5 * (a + a.conj().swapaxes(-1, -2)), floor)
    return float(floor)


def _screened_floor(h: np.ndarray, floor: float) -> float:
    """np.min of `floor` and the eigenvalues that eigvalsh computes for the (m, n, n) Hermitian stack h.

    Below FLOOR_SCREEN_MIN matrices, or with a non-finite entry, one eigvalsh
    of the whole stack decides.  Otherwise eigvalsh first solves the
    FLOOR_PROBES matrices with the smallest diagonal entries (a diagonal
    entry bounds the smallest eigenvalue from above), whose minimum, or
    `floor` if lower, is the candidate t.  A matrix on
    which the unpivoted Cholesky factorization of H - (t + delta) I meets
    only positive pivots, with delta from `_floor_margin`, has a computed
    smallest eigenvalue above t, so it cannot hold the minimum; eigvalsh
    solves the rest, each as its own call would.  The eigenvalues of the
    matrices ruled out stay inf in the (m, n) array that np.min reduces:
    every one of them exceeds the minimum, so each comparison of the
    reduction that can pick the result, down to which of 0.0 and -0.0 it
    picks, sees the same values in the same places as on the full array.
    """
    m, n = h.shape[0], h.shape[-1]
    if m < FLOOR_SCREEN_MIN or not np.isfinite(h).all():
        return np.min(np.linalg.eigvalsh(h), initial=floor)
    w = np.full((m, n), np.inf)
    probes = np.argpartition(h.diagonal(axis1=1, axis2=2).real.min(axis=1), FLOOR_PROBES)[:FLOOR_PROBES]
    w[probes] = np.linalg.eigvalsh(h[probes])
    t = np.min(w[probes], initial=floor)
    a = h - (t + _floor_margin(h, t))[:, None, None] * np.eye(n)
    live = np.arange(m)  # the matrices whose pivots have all been positive so far
    for k in range(n):
        pivot = a[:, 0, 0].real
        keep = pivot > 0
        if not keep.all():
            live, a, pivot = live[keep], a[keep], pivot[keep]
        if k + 1 == n or live.size == 0:
            break
        col = a[:, 1:, 0]
        a = a[:, 1:, 1:] - (col / pivot[:, None])[:, :, None] * col.conj()[:, None, :]
    rest = np.ones(m, dtype=bool)
    rest[live] = False
    rest[probes] = False
    w[rest] = np.linalg.eigvalsh(h[rest])
    return np.min(w, initial=floor)


def _floor_margin(h: np.ndarray, t: float) -> np.ndarray:
    """delta = FLOOR_MARGIN (n + 1)^2 eps (||H||_F + |t|) for every matrix of the (m, n, n) stack h.

    Cholesky: when the factorization of A = H - sI meets only positive
    pivots, its computed factor R has R*R = A + E with |E| <= gamma_{n+1}
    |R*| |R| (Higham, Accuracy and Stability, Thm 10.3), so ||E|| <=
    gamma_{n+1} tr(R*R) <= (n + 1) eps n ||A + E||, about 2 n (n + 1) eps
    (||H||_F + |s|) once complex arithmetic doubles gamma; forming A adds
    eps |s|.  R*R is PSD, so lambda_min(H) >= s - ||E||.  eigvalsh:
    Householder tridiagonalization and the tridiagonal solver are normwise
    backward stable, so the computed smallest eigenvalue is within about
    n^2 eps ||H||_F of lambda_min(H) (Weyl).  Together the two stay below
    (3 n^2 + 2 n + 1) eps (||H||_F + |s|) <= 4 (n + 1)^2 eps (||H||_F + |s|),
    and FLOOR_MARGIN = 8 doubles that, which also covers |s| <= |t| + delta;
    so with s = t + delta a matrix that passes computes a smallest
    eigenvalue above t.
    """
    n = h.shape[-1]
    return FLOOR_MARGIN * (n + 1) ** 2 * EPS * (np.linalg.norm(h, axis=(1, 2)) + abs(t))


def is_psd(a: np.ndarray, tol: float) -> bool:
    """True iff A has min eigenvalue >= -tol * max(1, ||A||); NotHermitian as in eig_hermitian."""
    w, _ = eig_hermitian(a)
    if w.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(w[0] >= -tol * scale)


# Seeded random constructions (complex standard normal entries).

def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    q, r = np.linalg.qr(random_complex(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))
