"""Dense complex matrix kernel.

Hermitian spectral decompositions, operator norms, nullspaces and PSD
utilities used by every other module.  Matrices are numpy arrays of
complex128.  Tolerances are absolute against max(1, ||operand||) so the
same defaults behave sensibly for tiny and O(1)-normed inputs alike.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD, ShapeMismatch

HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-10
NULL_TOL = 1e-10


def as_matrix(a, what: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"{what}: expected 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{what}: contains NaN or Inf entries")
    return m


def hermitian_defect(a: np.ndarray) -> float:
    return op_norm(a - a.conj().T)


def eig_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL):
    """Spectral decomposition A = U diag(w) U* of a Hermitian matrix.

    Returns eigenvalues ascending and a unitary U.  Raises NotHermitian
    when ||A - A*|| exceeds tol * max(1, ||A||), NoConvergence if the
    underlying QR iteration fails.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"eig_hermitian: matrix is {a.shape}, not square")
    scale = max(1.0, op_norm(a))
    if hermitian_defect(a) > tol * scale:
        raise NotHermitian(f"matrix deviates from A=A* by more than {tol * scale:g}")
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


def nullspace(l: np.ndarray, tol: float = NULL_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace of L.

    Keeps every right singular direction with singular value at most
    tol * max(1, sigma_max).  May return a (n, 0) array.
    """
    l = as_matrix(l)
    _, v = nullspace_pair(l, tol)
    return v


def nullspace_pair(l: np.ndarray, tol: float = NULL_TOL):
    """Left and right nullspace bases of L from a single SVD.

    Returns (left, right): columns of `left` span ker(L*), columns of
    `right` span ker(L).  For square L both bases have equal dimension.
    """
    l = as_matrix(l)
    m, n = l.shape
    u, s, vh = np.linalg.svd(l, full_matrices=True)
    smax = s[0] if s.size else 0.0
    thresh = tol * max(1.0, smax)
    s_right = np.zeros(n)
    s_right[: s.size] = s
    s_left = np.zeros(m)
    s_left[: s.size] = s
    right = vh[s_right <= thresh].conj().T
    left = u[:, s_left <= thresh]
    return left, right


def psd_sqrt(a: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Hermitian PSD square root B with B @ B = A.

    Eigenvalues in [-tol * max(1, ||A||), 0) are clamped to zero; below
    that the matrix is rejected with NotPSD.  A stack of shape (..., n, n)
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
    """psd_sqrt of every matrix of a stack, with the same checks per matrix."""
    if a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"psd_sqrt: matrices are {a.shape[-2:]}, not square")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix: contains NaN or Inf entries")
    adj = a.conj().swapaxes(-1, -2)
    herm_bound = HERMITIAN_TOL * np.maximum(1.0, op_norm(a))
    herm_bad = op_norm(a - adj) > herm_bound
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


def is_psd(a: np.ndarray, tol: float = PSD_TOL) -> bool:
    """True iff A is Hermitian with min eigenvalue >= -tol * max(1, ||A||)."""
    w, _ = eig_hermitian(a)
    if w.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(w[0] >= -tol * scale)


# Seeded random constructions (complex standard normal entries).

def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n, n)
    return 0.5 * (g + g.conj().T)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    q, r = np.linalg.qr(random_complex(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = random_complex(rng, n, 1)[:, 0]
    return v / np.linalg.norm(v)
