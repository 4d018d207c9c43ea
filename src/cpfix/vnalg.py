"""Finite-dimensional von Neumann algebras M = ⊕_i M_{n_i}.

Elements are lists of complex blocks.  The module provides
projections and their spectral rounding, corner algebras N = pMp with explicit isometries,
the compression E(x) = pxp, and stacked matrix amplifications in M_k(M).

Coordinates: an element is identified with the concatenation of its
row-major flattened blocks, a vector in C^D with D = sum(n_i^2).  The
trace inner product <x, y> = sum_i tr(x_i* y_i) then coincides with the
standard Hermitian inner product of coordinate vectors.  A (D, S)
coordinate block holds S elements as columns.  The block kernels below
(adjoint, product, norm, compression, injection) act on all S at once,
so no other module needs to know the layout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotProjection, ShapeMismatch
from .matcore import as_matrix, op_norm

PROJ_TOL = 1e-9  # validate_projection accepts a block as it is within this of p = p* = p^2
SNAP_TOL = 1e-6  # and else rounds eigenvalues within this of {0, 1}
SCREEN_MARGIN = 1e-9  # _norms_within fails a column whose largest coordinate exceeds (1 + this) times its bound
RANGE_TOL = 1e-8  # _range_basis drops a Gram-Schmidt remainder of norm at most this
ISOMETRY_TOL = 1e-9  # corner: u*u = 1 and uu* = p within this, for the range basis u of each block of p


@dataclass(frozen=True)
class BlockStructure:
    """Block dimensions (n_1, ..., n_k) of a multi-matrix algebra."""

    block_dims: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if not dims or any(n < 1 for n in dims):
            raise ShapeMismatch(f"invalid block dims {self.block_dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def coord_dim(self) -> int:
        """Dimension of the coordinate space, sum of n_i^2."""
        return sum(n * n for n in self.block_dims)

    @property
    def space_dim(self) -> int:
        """Dimension of the underlying Hilbert space, sum of n_i."""
        return sum(self.block_dims)

    def coord_slices(self):
        out, off = [], 0
        for n in self.block_dims:
            out.append(slice(off, off + n * n))
            off += n * n
        return out

    def space_slices(self):
        out, off = [], 0
        for n in self.block_dims:
            out.append(slice(off, off + n))
            off += n
        return out


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of ⊕_i M_{n_i}: one square complex block per summand."""

    structure: BlockStructure
    blocks: tuple

    def __post_init__(self):
        dims = self.structure.block_dims
        if len(self.blocks) != len(dims):
            raise ShapeMismatch(f"expected {len(dims)} blocks, got {len(self.blocks)}")
        fixed = []
        for n, b in zip(dims, self.blocks):
            # complex arrays produced by our own arithmetic skip re-validation
            if not (isinstance(b, np.ndarray) and b.dtype == np.complex128):
                b = as_matrix(b, "block")
            if b.shape != (n, n):
                raise ShapeMismatch(f"block is {b.shape}, expected ({n}, {n})")
            fixed.append(b)
        object.__setattr__(self, "blocks", tuple(fixed))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same(other)
        return AlgebraElement(self.structure, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same(other)
        return AlgebraElement(self.structure, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, c) -> "AlgebraElement":
        return AlgebraElement(self.structure, tuple(c * b for b in self.blocks))

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return self * (-1.0)

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Blockwise product; the algebra multiplication."""
        self._same(other)
        return AlgebraElement(self.structure, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.structure, tuple(b.conj().T for b in self.blocks))

    def norm(self) -> float:
        """Operator norm of the block-diagonal embedding: max block norm."""
        return float(max(_norms_by_size(self.blocks)))

    def coords(self) -> np.ndarray:
        return np.concatenate([b.ravel() for b in self.blocks])

    def _same(self, other: "AlgebraElement"):
        if self.structure != other.structure:
            raise ShapeMismatch("elements live on different block structures")


def _norms_by_size(blocks) -> list:
    """The largest op_norm among blocks of each size, for a list of (..., n_i, n_i) block arrays.

    Blocks of one size go through one stacked op_norm, whose Gram/eigvalsh
    formula gives each matrix the value of its own op_norm call; a size
    with one block takes that call itself.
    """
    by_size: dict = {}
    for b in blocks:
        by_size.setdefault(b.shape[-1], []).append(b)
    return [op_norm(g[0]) if len(g) == 1 else np.max(op_norm(np.stack(g)), axis=0) for g in by_size.values()]


def identity_element(structure: BlockStructure) -> AlgebraElement:
    return AlgebraElement(structure, tuple(np.eye(n, dtype=complex) for n in structure.block_dims))


def element_from_coords(structure: BlockStructure, v: np.ndarray) -> AlgebraElement:
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != structure.coord_dim:
        raise ShapeMismatch(f"coordinate vector has length {v.size}, expected {structure.coord_dim}")
    blocks = [v[s].reshape(n, n) for n, s in zip(structure.block_dims, structure.coord_slices())]
    return AlgebraElement(structure, tuple(blocks))


def validate_projection(p: AlgebraElement) -> AlgebraElement:
    """Check p = p* = p^2 blockwise, spectrally rounding first if needed.

    A block whose defects are within PROJ_TOL is kept as it is.  Otherwise
    eigenvalues within SNAP_TOL of {0, 1} are snapped; anything further
    away raises NotProjection.  Returns the (possibly rounded) element.
    """
    blocks = []
    for b in p.blocks:
        herm = op_norm(b - b.conj().T)
        idem = op_norm(b @ b - b)
        if herm <= PROJ_TOL and idem <= PROJ_TOL:
            blocks.append(b)
            continue
        if herm > SNAP_TOL:
            raise NotProjection(f"block is not self-adjoint (defect {herm:g})")
        w, u = np.linalg.eigh(0.5 * (b + b.conj().T))
        snapped = np.where(np.abs(w) <= SNAP_TOL, 0.0, np.where(np.abs(w - 1.0) <= SNAP_TOL, 1.0, np.nan))
        if np.any(np.isnan(snapped)):
            bad = w[np.isnan(snapped)]
            raise NotProjection(f"eigenvalues {bad} not within {SNAP_TOL:g} of {{0, 1}}")
        blocks.append((u * snapped) @ u.conj().T)
    return AlgebraElement(p.structure, tuple(blocks))


@dataclass(frozen=True, eq=False)
class CornerEmbedding:
    """The corner N = pMp with explicit isometries u_i: C^{r_i} -> C^{n_i}.

    Blocks where p has rank zero are dropped from the corner; `kept`
    records which ambient blocks survive.
    """

    ambient: BlockStructure
    corner: BlockStructure
    projection: AlgebraElement
    isometries: tuple
    kept: tuple


def _range_basis(b: np.ndarray, rank: int) -> np.ndarray:
    """Deterministic orthonormal basis of ran(b): Gram-Schmidt over columns."""
    n = b.shape[0]
    cols = []
    for j in range(n):
        v = b[:, j].copy()
        for q in cols:
            v -= q * (q.conj() @ v)
        for q in cols:
            v -= q * (q.conj() @ v)
        nv = np.linalg.norm(v)
        if nv > RANGE_TOL:
            cols.append(v / nv)
        if len(cols) == rank:
            break
    if len(cols) != rank:
        raise NotProjection(f"rank {rank} projection block yielded only {len(cols)} directions")
    return np.column_stack(cols) if cols else np.zeros((n, 0), dtype=complex)


def corner(structure: BlockStructure, p: AlgebraElement) -> CornerEmbedding:
    """Build the corner embedding for a projection p."""
    p = validate_projection(p)
    dims, isoms, kept = [], [], []
    for i, (n, b) in enumerate(zip(structure.block_dims, p.blocks)):
        r = int(round(np.trace(b).real))
        if r == 0:
            continue
        u = _range_basis(b, r)
        if op_norm(u.conj().T @ u - np.eye(r)) > ISOMETRY_TOL or op_norm(u @ u.conj().T - b) > ISOMETRY_TOL:
            raise NotProjection("projection block failed isometry reconstruction")
        dims.append(r)
        isoms.append(u)
        kept.append(i)
    if not dims:
        raise NotProjection("projection is zero; corner algebra is trivial")
    return CornerEmbedding(structure, BlockStructure(tuple(dims)), p, tuple(isoms), tuple(kept))


def compress(emb: CornerEmbedding, x: AlgebraElement) -> AlgebraElement:
    """E(x) = pxp read inside the corner: blocks u_i* x_i u_i."""
    if x.structure != emb.ambient:
        raise ShapeMismatch("element does not live on the ambient structure")
    blocks = [u.conj().T @ x.blocks[i] @ u for u, i in zip(emb.isometries, emb.kept)]
    return AlgebraElement(emb.corner, tuple(blocks))


def inject(emb: CornerEmbedding, y: AlgebraElement) -> AlgebraElement:
    """The corner element y regarded inside M: blocks u_i y u_i*."""
    if y.structure != emb.corner:
        raise ShapeMismatch("element does not live on the corner structure")
    blocks = [np.zeros((n, n), dtype=complex) for n in emb.ambient.block_dims]
    for u, i, b in zip(emb.isometries, emb.kept, y.blocks):
        blocks[i] = u @ b @ u.conj().T
    return AlgebraElement(emb.ambient, tuple(blocks))


# Coordinate blocks.  A (D, S) array holds one element per column, in the
# coordinates above; these kernels work on all S elements at once.


def _blocks(structure: BlockStructure, v: np.ndarray) -> list:
    """The columns of a (D, S) coordinate block as one (S, n_i, n_i) array per block."""
    s = v.shape[1]
    return [v[sl].T.reshape(s, n, n) for n, sl in zip(structure.block_dims, structure.coord_slices())]


def _coords(blocks) -> np.ndarray:
    """The (D, S) coordinate block of one (S, n_i, n_i) array per block."""
    return np.concatenate([b.reshape(b.shape[0], b.shape[1] * b.shape[2]) for b in blocks], axis=1).T


def _star(structure: BlockStructure, v: np.ndarray) -> np.ndarray:
    """The adjoint of every column."""
    return _coords([b.conj().swapaxes(-1, -2) for b in _blocks(structure, v)])


def _product(structure: BlockStructure, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of every column of a with the same column of b."""
    return _coords([x @ y for x, y in zip(_blocks(structure, a), _blocks(structure, b))])


def _norms(structure: BlockStructure, v: np.ndarray) -> np.ndarray:
    """AlgebraElement.norm of every column: its largest block operator norm."""
    return np.max(_norms_by_size(_blocks(structure, v)), axis=0)


def _norms_within(structure: BlockStructure, v: np.ndarray, bound) -> np.ndarray:
    """_norms(structure, v) <= bound for every column, taking _norms only of the columns two screens leave open.

    A block's operator norm is at most its Frobenius norm, which is at
    most the column's 2-norm, so a column whose 2-norm is within half its
    bound passes; the factor 2 keeps rounding in the two formulas from
    flipping a comparison.  No coordinate exceeds the operator norm of its
    block, so a column with a coordinate above (1 + SCREEN_MARGIN) times
    its bound fails.  `bound` is a number or one per column.
    """
    bound = np.broadcast_to(bound, v.shape[1:])
    within = np.linalg.norm(v, axis=0) <= 0.5 * bound
    if not within.all():
        rest = np.flatnonzero(~within)
        rest = rest[np.abs(v[:, rest]).max(axis=0) <= (1.0 + SCREEN_MARGIN) * bound[rest]]
        if rest.size:
            within[rest] = _norms(structure, v[:, rest]) <= bound[rest]
    return within


@functools.cache
def _frame(structure: BlockStructure) -> np.ndarray:
    """The unitary T whose columns are E_aa, (E_ab + E_ba)/√2 and i(E_ab - E_ba)/√2 (a < b), block by block.

    The Hermitian elements are the real combinations of these Hermitian columns, so T* S T is real
    for every S that preserves adjoints.  Built once per structure, and read-only.
    """
    d, r2 = structure.coord_dim, np.sqrt(0.5)
    t = np.zeros((d, d), dtype=complex)
    for n, sl in zip(structure.block_dims, structure.coord_slices()):  # a block's units take its n^2 columns
        a, b = np.triu_indices(n, 1)
        upper, lower, re = sl.start + a * n + b, sl.start + b * n + a, sl.start + n + np.arange(a.size)
        t[sl.start + np.arange(n) * (n + 1), sl.start + np.arange(n)] = 1.0
        t[upper, re] = t[lower, re] = r2
        t[upper, re + a.size], t[lower, re + a.size] = 1j * r2, -1j * r2
    t.flags.writeable = False
    return t


@functools.cache
def _frame_entries(structure: BlockStructure) -> tuple[np.ndarray, np.ndarray]:
    """The first and last nonzero row of each column of `_frame`, and their values, as (2, D) arrays.

    A column with one nonzero (a diagonal unit) has it as its first entry and 0 as its second, so
    S T = S[:, rows[0]] values[0] + S[:, rows[1]] values[1], by gathers in place of a dense product.
    """
    t = _frame(structure)
    nonzero = t != 0
    rows = np.stack([np.argmax(nonzero, axis=0), len(t) - 1 - np.argmax(nonzero[::-1], axis=0)])
    values = np.take_along_axis(t, rows, axis=0)
    values[1, rows[1] == rows[0]] = 0.0
    rows.flags.writeable = values.flags.writeable = False
    return rows, values


def _combos(matrix: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Normalized complex combinations of the columns of matrix, one per sample.

    g holds S samples of (real, imaginary) normals of shape (2, r), the
    numbers that random_complex(rng, r, 1) draws once per sample.
    """
    v = matrix @ ((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)).T
    n = np.linalg.norm(v, axis=0)
    return v / np.where(n > 0, n, 1.0)


def _compressed(emb: CornerEmbedding, x: np.ndarray) -> np.ndarray:
    """compress of every column of an ambient coordinate block."""
    blocks = _blocks(emb.ambient, x)
    return _coords([u.conj().T @ blocks[i] @ u for u, i in zip(emb.isometries, emb.kept)])


def _injected(emb: CornerEmbedding, y: np.ndarray) -> np.ndarray:
    """inject of every column of a corner coordinate block."""
    blocks = [np.zeros((y.shape[1], n, n), dtype=complex) for n in emb.ambient.block_dims]
    for u, i, b in zip(emb.isometries, emb.kept, _blocks(emb.corner, y)):
        blocks[i] = u @ b @ u.conj().T
    return _coords(blocks)


def amplify_combination(coeffs, elements) -> tuple:
    """Blocks of sum_j kron(C_j, x_j) in M_k(M) for a stack of coefficients.

    `coeffs` has shape (S, J, k, k): S samples of one k x k coefficient per
    element x_j.  Returns one (S, k n_i, k n_i) array per block of M.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if not elements or coeffs.ndim != 4 or coeffs.shape[1:3] != (len(elements), coeffs.shape[3]):
        raise ShapeMismatch("need coefficients of shape (S, J, k, k) for J nonempty elements")
    s, _, k, _ = coeffs.shape
    out = []
    for i, n in enumerate(elements[0].structure.block_dims):
        b = np.stack([x.blocks[i] for x in elements])
        out.append(np.einsum("sjab,jcd->sacbd", coeffs, b, optimize=True).reshape(s, k * n, k * n))
    return tuple(out)
