"""Fixed-point spaces, ergodic projections, and the lifting limits.

Computes N^phi and M^alpha as joint nullspaces of superoperators, the
C*-algebra generated by a fixed-point space, the mean (Cesaro) ergodic
projection rho onto the fixed space, the diagonal strong-operator limits
of phi_s and alpha_s, the complete-isometry defect of the compression
E(x) = pxp at matrix levels, the kernel-ideal identity for the induced
idempotent, and a property suite covering the remaining identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CpfixError,
    Divergent,
    Inconsistent,
    NoConvergence,
    NotContractive,
    NotFixed,
    NotInCStar,
)
from .matcore import nullspace, nullspace_pair, op_norm, psd_sqrt, random_complex, random_unit_vector
from .vnalg import (
    AlgebraElement,
    BlockStructure,
    adjoint_coords,
    amplify_combination,
    compress,
    element_from_coords,
    identity_element,
    inject,
)
from .cpsemi import SemigroupFamily, _cached_on_argument, apply, choi_min_eig, validate_cp
from .dilation import DilationInstance, Minimality, check_minimality

FIXED_TOL = 1e-10
SPAN_TOL = 1e-8


def _orthonormal_columns(m: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    return u[:, s > rel_tol * s[0]]


def span_distance(basis_matrix: np.ndarray, v: np.ndarray) -> float:
    """Distance of a coordinate vector to the column span."""
    if basis_matrix.shape[1] == 0:
        return float(np.linalg.norm(v))
    return float(np.linalg.norm(v - basis_matrix @ (basis_matrix.conj().T @ v)))


def _hermitian_basis(structure: BlockStructure, cols: np.ndarray) -> np.ndarray:
    """Rotate an orthonormal basis of a *-closed span into Hermitian form.

    Hermitian elements of the span form a real subspace whose real
    orthonormal bases are automatically complex orthonormal; one SVD of
    the real representation of the symmetrized candidates produces it.
    """
    r = cols.shape[1]
    if r == 0:
        return cols
    cands = []
    for k in range(r):
        v = cols[:, k]
        w = adjoint_coords(structure, v)
        cands.append(0.5 * (v + w))
        cands.append(-0.5j * (v - w))
    c = np.column_stack(cands)
    real_rep = np.vstack([c.real, c.imag])
    u, s, _ = np.linalg.svd(real_rep, full_matrices=False)
    if s.size < r or s[r - 1] <= 1e-8 * s[0]:
        raise NoConvergence("hermitian rebasing of a fixed space degenerated")
    d = structure.coord_dim
    out = u[:d, :r] + 1j * u[d:, :r]
    return out


@dataclass(frozen=True, eq=False)
class FixedSpace:
    """Orthonormal (trace inner product) Hermitian basis of a fixed space."""

    structure: BlockStructure
    basis: tuple
    matrix: np.ndarray  # coord_dim x dimension, columns = basis coords

    @property
    def dimension(self) -> int:
        return len(self.basis)


@_cached_on_argument
def fixed_space(family: SemigroupFamily, tol: float = FIXED_TOL) -> FixedSpace:
    """Joint fixed space of the generators: intersection of ker(S_i - 1)."""
    st = family.structure
    d = st.coord_dim
    eye = np.eye(d)
    stacked = np.vstack([g.superop - eye for g in family.generators])
    cols = nullspace(stacked, tol)
    cols = _hermitian_basis(st, cols)
    basis = tuple(element_from_coords(st, cols[:, k]) for k in range(cols.shape[1]))
    for b in basis:
        for gen in family.generators:
            if (apply(gen, b) - b).norm() > 1e-8:
                raise NoConvergence("fixed-space basis fails the defining equation")
    return FixedSpace(st, basis, cols)


@dataclass(frozen=True, eq=False)
class CStarSpan:
    """Orthonormal basis of the C*-algebra generated by a fixed space."""

    structure: BlockStructure
    basis: tuple
    matrix: np.ndarray
    is_unital: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)


@_cached_on_argument
def cstar_closure(fs: FixedSpace) -> CStarSpan:
    """Close the span under products (and adjoints) until it stabilizes."""
    st = fs.structure
    mat = fs.matrix
    if fs.dimension == 0:
        return CStarSpan(st, (), mat, is_unital=False)
    basis = list(fs.basis)
    for _ in range(st.coord_dim + 1):
        cands = [mat]
        for a in basis:
            for b in basis:
                prod = a @ b
                cands.append(prod.coords()[:, None])
                cands.append(prod.adjoint().coords()[:, None])
        new_mat = _orthonormal_columns(np.hstack(cands))
        if new_mat.shape[1] == mat.shape[1]:
            mat = new_mat
            break
        mat = new_mat
        basis = [element_from_coords(st, mat[:, k]) for k in range(mat.shape[1])]
    basis = tuple(element_from_coords(st, mat[:, k]) for k in range(mat.shape[1]))
    unit_gap = span_distance(mat, identity_element(st).coords())
    return CStarSpan(st, basis, mat, is_unital=bool(unit_gap <= SPAN_TOL))


@dataclass(frozen=True, eq=False)
class ErgodicProjection:
    """The mean ergodic projection rho with range N^phi, as a superoperator."""

    structure: BlockStructure
    matrix: np.ndarray
    diagnostics: dict

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        return element_from_coords(self.structure, self.matrix @ x.coords())

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.matrix).real))


def _mean_projection(s: np.ndarray, tol: float) -> tuple[np.ndarray, dict]:
    """Cesaro limit of averages of powers of a power-bounded superoperator.

    The limit is the projection onto ker(1 - S) along ran(1 - S); both
    spaces come out of one SVD and the oblique projection formula
    V (W* V)^{-1} W* evaluates the limit exactly, avoiding the slow O(1/N)
    tail of literal averaging.
    """
    d = s.shape[0]
    left, right = nullspace_pair(np.eye(d) - s, tol)
    r = right.shape[1]
    diag = {"fixed_dim": int(r)}
    if r == 0:
        return np.zeros_like(s), diag
    g = left.conj().T @ right
    sv = np.linalg.svd(g, compute_uv=False)
    diag["splitting_cond"] = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if sv[-1] <= 1e-12 * sv[0]:
        raise NoConvergence("fixed space meets the range of (1 - S); map is not power bounded")
    p = right @ np.linalg.solve(g, left.conj().T)
    return p, diag


def _cesaro_check(s: np.ndarray, p: np.ndarray, cap: int) -> dict:
    """Doubling Cesaro averages A_{2N} = (A_N + S^N A_N)/2 up to `cap` terms."""
    avg = np.eye(s.shape[0], dtype=complex)
    pw = s.copy()
    terms, steps = 1, 0
    increment = 0.0
    while 2 * terms <= cap:
        nxt = 0.5 * (avg + pw @ avg)
        increment = op_norm(nxt - avg)
        avg = nxt
        pw = pw @ pw
        terms *= 2
        steps += 1
    return {
        "cesaro_terms": int(terms),
        "cesaro_steps": int(steps),
        "cesaro_increment": float(increment),
        "cesaro_gap": float(op_norm(avg - p)),
    }


@_cached_on_argument
def ergodic_projection(
    family: SemigroupFamily,
    tol: float = FIXED_TOL,
    cesaro_cap: int = 10**6,
) -> ErgodicProjection:
    """rho = P_1 ... P_d, the product of per-generator mean projections.

    Each P_i is a limit of polynomials in the i-th generator, so the
    factors commute and the product projects onto the joint fixed space.
    Defining relations are verified before returning.
    """
    st = family.structure
    per_gen = []
    projs = []
    for idx, gen in enumerate(family.generators):
        rep = validate_cp(gen)
        if not rep.is_contractive:
            raise NotContractive(f"generator {idx} has phi(1) > 1 (floor {rep.contractive_floor:g})")
        s = gen.superop
        p, diag = _mean_projection(s, tol)
        diag.update(_cesaro_check(s, p, cesaro_cap))
        diag["generator"] = idx
        per_gen.append(diag)
        projs.append((s, p))
    rho = np.eye(st.coord_dim, dtype=complex)
    for _, p in projs:
        rho = rho @ p
    defects = {
        "idempotency": op_norm(rho @ rho - rho),
        "intertwine_left": max(op_norm(s @ rho - rho) for s, _ in projs),
        "intertwine_right": max(op_norm(rho @ s - rho) for s, _ in projs),
        "commutation": max(
            (op_norm(p1 @ p2 - p2 @ p1) for _, p1 in projs for _, p2 in projs),
            default=0.0,
        ),
    }
    for name, value in defects.items():
        if value > 1e-8:
            raise NoConvergence(f"ergodic projection failed {name} check ({value:g})")
    choi_floor = choi_min_eig(rho, st)
    if choi_floor < -1e-9:
        raise NoConvergence(f"ergodic projection is not completely positive (Choi floor {choi_floor:g})")
    one_img = element_from_coords(st, rho @ identity_element(st).coords())
    one_excess = max(
        float(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[-1]) - 1.0 for b in one_img.blocks
    )
    if one_excess > 1e-9:
        raise NoConvergence(f"ergodic projection is not contractive (rho(1) exceeds 1 by {one_excess:g})")
    diagnostics = {
        "per_generator": per_gen,
        "defects": {k: float(v) for k, v in defects.items()},
        "choi_floor": float(choi_floor),
        "one_excess": float(one_excess),
    }
    return ErgodicProjection(st, rho, diagnostics)


def _limit_iteration(theta: np.ndarray, v0: np.ndarray, tol: float, max_iter: int, window: int):
    """Iterate v <- theta v until `window` consecutive small increments."""
    v = v0
    consecutive = 0
    inc = float("inf")
    for n in range(1, max_iter + 1):
        nxt = theta @ v
        inc = float(np.linalg.norm(nxt - v))
        v = nxt
        if inc <= tol:
            consecutive += 1
            if consecutive >= window:
                return v, n
        else:
            consecutive = 0
    raise Divergent(f"no Cauchy window of {window} after {max_iter} steps (last increment {inc:g})")


def phi_limit(
    family: SemigroupFamily,
    y: AlgebraElement,
    tol: float = 1e-10,
    max_iter: int = 10**5,
    window: int = 5,
) -> AlgebraElement:
    """Diagonal limit of phi_s(y); guaranteed to exist on C*(N^phi).

    Raises Divergent when the orbit fails to stabilize, which signals
    either y outside C*(N^phi) or a very slow spectral gap.
    """
    v, _ = _limit_iteration(family.theta, y.coords(), tol, max_iter, window)
    result = element_from_coords(family.structure, v)
    for gen in family.generators:
        if (apply(gen, result) - result).norm() > 10.0 * tol * max(1.0, result.norm()):
            raise Divergent("iteration stalled off the fixed space")
    return result


def pi_limit(
    instance: DilationInstance,
    y: AlgebraElement,
    tol: float = 1e-10,
    max_iter: int = 10**5,
    window: int = 5,
    cstar: CStarSpan | None = None,
) -> AlgebraElement:
    """Diagonal limit of alpha_s(y) for y in C*(N^phi), landing in M^alpha."""
    if cstar is None:
        cstar = cstar_closure(fixed_space(instance.phi))
    gap = span_distance(cstar.matrix, y.coords())
    if gap > SPAN_TOL * max(1.0, y.norm()):
        raise NotInCStar(f"element is {gap:g} away from C*(N^phi); limit not guaranteed")
    v, _ = _limit_iteration(instance.alpha.theta, inject(instance.emb, y).coords(), tol, max_iter, window)
    result = element_from_coords(instance.structure, v)
    for gen in instance.alpha.generators:
        if (apply(gen, result) - result).norm() > 10.0 * tol * max(1.0, result.norm()):
            raise Divergent("ambient iteration stalled off the fixed space")
    return result


def lift_fixed_point(
    instance: DilationInstance,
    y: AlgebraElement,
    tol: float = 1e-10,
    agreement_tol: float = 1e-7,
) -> AlgebraElement:
    """Lift y in N^phi to z in M^alpha with pzp = y, by two independent routes.

    Route one follows the diagonal alpha-limit of y inside M; route two
    solves the compression equation on a basis of M^alpha.  Disagreement
    beyond `agreement_tol` raises Inconsistent.
    """
    fs_corner = fixed_space(instance.phi)
    if span_distance(fs_corner.matrix, y.coords()) > SPAN_TOL * max(1.0, y.norm()):
        raise NotFixed("input is not in the fixed space of the compressed family")
    z_pi = pi_limit(instance, y, tol=tol)
    fs_ambient = fixed_space(instance.alpha)
    if fs_ambient.dimension == 0:
        raise NotFixed("ambient fixed space is trivial; nothing can compress to y")
    comp_cols = np.column_stack(
        [compress(instance.emb, b).coords() for b in fs_ambient.basis]
    )
    coeff, *_ = np.linalg.lstsq(comp_cols, y.coords(), rcond=None)
    resid = float(np.linalg.norm(comp_cols @ coeff - y.coords()))
    if resid > SPAN_TOL * max(1.0, y.norm()):
        raise Inconsistent(f"no ambient fixed point compresses to y (residual {resid:g})")
    z_lin = element_from_coords(instance.structure, fs_ambient.matrix @ coeff)
    gap = (z_pi - z_lin).norm()
    if gap > agreement_tol * max(1.0, y.norm()):
        raise Inconsistent(f"limit route and linear-algebra route disagree by {gap:g}")
    return z_pi


@dataclass(frozen=True, eq=False)
class IsometryReport:
    dim_ambient_fixed: int
    dim_corner_fixed: int
    compression_rank: int
    bijective: bool
    level_defects: dict
    max_defect: float
    passed: bool
    seed: int
    note: str = ""


def check_complete_isometry(
    instance: DilationInstance,
    levels: int = 3,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
    fs_ambient: FixedSpace | None = None,
    fs_corner: FixedSpace | None = None,
) -> IsometryReport:
    """Norm defect of entrywise compression on M_k(M^alpha), k = 1..levels.

    Samples random complex combinations sum_j kron(C_j, b_j) over the
    ambient fixed basis and compares amplified operator norms before and
    after compression; also verifies that compression restricted to
    M^alpha is a linear bijection onto N^phi.  Each level draws, amplifies
    and takes norms of all its samples at once.
    """
    if fs_ambient is None:
        fs_ambient = fixed_space(instance.alpha)
    if fs_corner is None:
        fs_corner = fixed_space(instance.phi)
    rng = np.random.default_rng(seed)
    compressed = [compress(instance.emb, b) for b in fs_ambient.basis]
    if fs_ambient.dimension == 0:
        bijective = fs_corner.dimension == 0
        return IsometryReport(
            0, fs_corner.dimension, 0, bijective, {}, 0.0, bijective, seed, note="trivial fixed space"
        )
    comp_cols = np.column_stack([c.coords() for c in compressed])
    sv = np.linalg.svd(comp_cols, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * max(1.0, sv[0])))
    bijective = rank == fs_ambient.dimension == fs_corner.dimension
    level_defects = {}
    for k in range(1, levels + 1):
        # the numbers random_complex(rng, k, k) draws per sample and basis element, in its order
        g = rng.standard_normal((samples, fs_ambient.dimension, 2, k, k))
        coeffs = (g[:, :, 0] + 1j * g[:, :, 1]) / np.sqrt(2.0)
        nx = np.max([op_norm(b) for b in amplify_combination(coeffs, fs_ambient.basis)], axis=0)
        nex = np.max([op_norm(b) for b in amplify_combination(coeffs, compressed)], axis=0)
        level_defects[k] = float(np.max(np.abs(nx - nex) / np.maximum(1.0, nx), initial=0.0))
    worst = max(level_defects.values(), default=0.0)
    return IsometryReport(
        fs_ambient.dimension,
        fs_corner.dimension,
        rank,
        bijective,
        level_defects,
        float(worst),
        bool(bijective and worst <= tol),
        seed,
    )


@dataclass(frozen=True, eq=False)
class KernelIdealReport:
    dim_kernel: int
    dim_ideal: int
    max_subspace_gap: float
    rho_invariance_residual: float
    passed: bool
    seed: int
    note: str = ""


def kernel_ideal_check(
    family: SemigroupFamily,
    fs: FixedSpace | None = None,
    cs: CStarSpan | None = None,
    erg: ErgodicProjection | None = None,
    seed: int = 0,
    extra_generators: int = 8,
    tol: float = SPAN_TOL,
) -> KernelIdealReport:
    """Compare ker(Phi) inside C*(N^phi) with the ideal its defects generate.

    The ideal is generated by x*x - Phi(x*x) over fixed-basis elements and
    random combinations, then grown by left and right multiplication with
    C* basis elements until the span stabilizes.
    """
    if fs is None:
        fs = fixed_space(family)
    if cs is None:
        cs = cstar_closure(fs)
    if erg is None:
        erg = ergodic_projection(family)
    if cs.dimension == 0:
        return KernelIdealReport(0, 0, 0.0, 0.0, True, seed, note="trivial fixed space")
    b = cs.matrix
    rho = erg.matrix
    restricted = b.conj().T @ rho @ b
    invariance = float(op_norm(rho @ b - b @ restricted))
    kernel_cols = nullspace(restricted, 1e-10)
    rng = np.random.default_rng(seed)
    xs = list(fs.basis)
    for _ in range(extra_generators):
        xs.append(_combo(fs.matrix, fs.structure, rng))
    gen_resid = 0.0
    gens = []
    for x in xs:
        q = x.adjoint() @ x
        g = erg.apply(q) - q
        coeff = b.conj().T @ g.coords()
        gen_resid = max(gen_resid, span_distance(b, g.coords()))
        if np.linalg.norm(coeff) > 1e-10:
            gens.append(coeff)
    if not gens:
        ideal = np.zeros((cs.dimension, 0))
    else:
        ideal = _orthonormal_columns(np.column_stack(gens))
        for _ in range(cs.dimension + 1):
            cands = [ideal]
            for k in range(ideal.shape[1]):
                q = element_from_coords(cs.structure, b @ ideal[:, k])
                for bb in cs.basis:
                    cands.append((b.conj().T @ (bb @ q).coords())[:, None])
                    cands.append((b.conj().T @ (q @ bb).coords())[:, None])
            grown = _orthonormal_columns(np.hstack(cands))
            if grown.shape[1] == ideal.shape[1]:
                ideal = grown
                break
            ideal = grown
    gap = 0.0
    for k in range(kernel_cols.shape[1]):
        gap = max(gap, span_distance(ideal, kernel_cols[:, k]))
    for k in range(ideal.shape[1]):
        gap = max(gap, span_distance(kernel_cols, ideal[:, k]))
    passed = kernel_cols.shape[1] == ideal.shape[1] and gap <= tol and invariance <= tol
    return KernelIdealReport(
        int(kernel_cols.shape[1]), int(ideal.shape[1]), float(gap), invariance, bool(passed), seed
    )


def _combo(matrix: np.ndarray, structure: BlockStructure, rng: np.random.Generator) -> AlgebraElement:
    """Random normalized complex combination of orthonormal basis columns."""
    c = random_complex(rng, matrix.shape[1], 1)[:, 0]
    v = matrix @ c
    n = np.linalg.norm(v)
    return element_from_coords(structure, v / n if n > 0 else v)


# Stacked samples.  A (D, S) coordinate block holds one element per column;
# the property suite draws, multiplies and checks all of its samples at once.


def _blocks(structure: BlockStructure, v: np.ndarray) -> list:
    """The columns of a (D, S) coordinate block as one (S, n_i, n_i) array per block."""
    s = v.shape[1]
    return [v[sl].T.reshape(s, n, n) for n, sl in zip(structure.block_dims, structure.coord_slices())]


def _coords(blocks) -> np.ndarray:
    """The (D, S) coordinate block of one (S, n_i, n_i) array per block."""
    return np.concatenate([b.reshape(b.shape[0], -1) for b in blocks], axis=1).T


def _star(structure: BlockStructure, v: np.ndarray) -> np.ndarray:
    return _coords([b.conj().swapaxes(-1, -2) for b in _blocks(structure, v)])


def _product(structure: BlockStructure, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _coords([x @ y for x, y in zip(_blocks(structure, a), _blocks(structure, b))])


def _norms(structure: BlockStructure, v: np.ndarray) -> np.ndarray:
    """AlgebraElement.norm of every column: its largest block operator norm."""
    return np.max([op_norm(b) for b in _blocks(structure, v)], axis=0)


def _psd_floor(structure: BlockStructure, vs) -> float:
    """Smallest eigenvalue of the Hermitian parts of every element in the coordinate blocks vs."""
    worst = np.inf
    for v in vs:
        for b in _blocks(structure, v):
            w = np.linalg.eigvalsh(0.5 * (b + b.conj().swapaxes(-1, -2)))
            worst = min(worst, float(np.min(w, initial=np.inf)))
    return worst


def _combos(matrix: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One _combo per sample, as columns, from the (S, 2, r) normals the S calls draw."""
    v = matrix @ ((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)).T
    n = np.linalg.norm(v, axis=0)
    return v / np.where(n > 0, n, 1.0)


def _compressed(emb, x: np.ndarray) -> np.ndarray:
    """compress of every column of an ambient coordinate block."""
    blocks = _blocks(emb.ambient, x)
    return _coords([u.conj().T @ blocks[i] @ u for u, i in zip(emb.isometries, emb.kept)])


def _injected(emb, y: np.ndarray) -> np.ndarray:
    """inject of every column of a corner coordinate block."""
    blocks = [np.zeros((y.shape[1], n, n), dtype=complex) for n in emb.ambient.block_dims]
    for u, i, b in zip(emb.isometries, emb.kept, _blocks(emb.corner, y)):
        blocks[i] = u @ b @ u.conj().T
    return _coords(blocks)


def _column_limits(family: SemigroupFamily, v: np.ndarray, stalled: str, tol: float = 1e-10,
                   max_iter: int = 10**5, window: int = 5):
    """phi_limit of every column of a (D, S) coordinate block at once.

    Each column follows the rule of _limit_iteration on its own increments,
    so it stops at the step where it would stop alone, and then gets the
    generator check of phi_limit.  Returns the limits and, per column, the
    Divergent that phi_limit raises (with message `stalled` for a failed
    check), or None.
    """
    v = np.array(v, dtype=complex)
    live = np.arange(v.shape[1])  # the columns still iterating, held compactly in w
    w, run, inc = v, np.zeros(live.size, dtype=int), np.full(live.size, np.inf)
    for _ in range(max_iter):
        if live.size == 0:
            break
        nxt = family.theta @ w
        inc = np.linalg.norm(nxt - w, axis=0)
        w = nxt
        run = np.where(inc <= tol, run + 1, 0)
        done = run >= window
        if done.any():
            v[:, live[done]] = w[:, done]
            live, w, run, inc = live[~done], w[:, ~done], run[~done], inc[~done]
    st = family.structure
    bound = 10.0 * tol * np.maximum(1.0, _norms(st, v))
    off = np.zeros(v.shape[1], dtype=bool)
    for gen in family.generators:
        off |= _norms(st, gen.superop @ v - v) > bound
    errors = [Divergent(stalled) if o else None for o in off]
    for j, last in zip(live, inc):
        errors[j] = Divergent(f"no Cauchy window of {window} after {max_iter} steps (last increment {last:g})")
    return v, errors


def _pi_limits(instance: DilationInstance, y: np.ndarray):
    """pi_limit of every column of a corner coordinate block: the limits and, per column, its error or None."""
    cstar = cstar_closure(fixed_space(instance.phi)).matrix
    gaps = np.linalg.norm(y - cstar @ (cstar.conj().T @ y), axis=0)
    outside = gaps > SPAN_TOL * np.maximum(1.0, _norms(instance.emb.corner, y))
    errors = [
        NotInCStar(f"element is {gap:g} away from C*(N^phi); limit not guaranteed") if out else None
        for gap, out in zip(gaps, outside)
    ]
    inside = np.flatnonzero(~outside)
    z = np.zeros((instance.structure.coord_dim, y.shape[1]), dtype=complex)
    z[:, inside], inside_errors = _column_limits(
        instance.alpha, _injected(instance.emb, y[:, inside]), "ambient iteration stalled off the fixed space"
    )
    for j, err in zip(inside, inside_errors):
        errors[j] = err
    return z, errors


def _beta(powers: list, s_idx: np.ndarray, v: np.ndarray) -> np.ndarray:
    """beta_s of column j for its multi-index s_idx[j], from the stacked powers of each generator."""
    for g, pw in enumerate(powers):
        v = (pw[s_idx[:, g]] @ v.T[:, :, None])[:, :, 0].T
    return v


@dataclass(frozen=True)
class ItemResult:
    status: str
    worst: float
    threshold: float
    count: int
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "worst": self.worst,
            "threshold": self.threshold,
            "count": self.count,
            "note": self.note,
        }


@dataclass(frozen=True, eq=False)
class SuiteReport:
    items: dict
    seed: int
    samples: int

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items.values())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "passed": self.passed,
            "items": {k: v.to_dict() for k, v in self.items.items()},
        }


def _lifting_item(structure, residuals, errors, threshold, samples, note) -> ItemResult:
    """Row of a lifting identity: the worst residual norm, or inf noting the last sample's error."""
    failed = [err for err in errors if err is not None]
    if failed:
        worst, note = np.inf, f"{note}; {failed[-1]}".strip("; ")
    else:
        worst = float(np.max(_norms(structure, residuals), initial=0.0))
    return ItemResult("PASS" if worst <= threshold else "FAIL", worst, threshold, samples, note=note)


def property_suite(
    obj,
    seed: int = 0,
    samples: int = 100,
    mono_steps: int = 10,
    s_max: int = 10,
    psd_floor: float = 1e-9,
    tol_eq: float = 1e-8,
    lim_tol: float = 1e-7,
    ce_tol: float = 1e-9,
    vec_tol: float = 1e-9,
) -> SuiteReport:
    """Run the proof-ingredient identities and report residuals per item.

    Accepts either a bare SemigroupFamily (Kadison-Schwarz, monotone net,
    diagonal limit vs mean projection, Choi-Effros identity, the vector
    inequality) or a DilationInstance (the same on the corner family plus
    the lifting identity pi(E(x)) = x and the factorization E(pi(y)) =
    Phi(y)).  Item failures never raise; they are reported as FAIL rows.

    Each item draws its samples in the order and with the numbers of one
    draw per sample, and works on them as one (D, S) coordinate block.
    rho is the one already built for the family, say by a report at its
    config's tolerance, or else the one at the default settings.
    """
    instance = obj if isinstance(obj, DilationInstance) else None
    family = instance.phi if instance is not None else obj
    st = family.structure
    rng = np.random.default_rng(seed)
    items: dict = {}

    fs = fixed_space(family)
    cs = cstar_closure(fs)
    erg = None
    erg_error = ""
    try:
        built = ergodic_projection.built(family)
        erg = built[0] if built else ergodic_projection(family)
    except CpfixError as exc:
        erg_error = str(exc)
    rho = None if erg is None else erg.matrix
    trivial = fs.dimension == 0

    # Kadison-Schwarz: phi(x)* phi(x) <= phi(x*x) for every generator.
    # Per sample, random_element draws n^2 real and then n^2 imaginary parts per block.
    parts = np.split(
        rng.standard_normal((samples, 2 * st.coord_dim)), np.cumsum([2 * n * n for n in st.block_dims])[:-1], axis=1
    )
    x = _coords(
        [(g[:, : n * n] + 1j * g[:, n * n :]).reshape(samples, n, n) / np.sqrt(2.0) for n, g in zip(st.block_dims, parts)]
    )
    x = x * (1.0 / np.maximum(np.linalg.norm(x, axis=0), 1e-30))
    xx = _product(st, _star(st, x), x)
    diffs = []
    for gen in family.generators:
        img = gen.superop @ x
        diffs.append(gen.superop @ xx - _product(st, _star(st, img), img))
    worst = _psd_floor(st, diffs)
    worst = 0.0 if not np.isfinite(worst) else worst
    items["kadison_schwarz"] = ItemResult(
        "PASS" if worst >= -psd_floor else "FAIL", float(worst), psd_floor, samples
    )

    # Monotone net: phi_{s+e_i}(x*x) >= phi_s(x*x) along the diagonal, x fixed.
    if trivial:
        items["monotone_net"] = ItemResult("PASS", 0.0, psd_floor, 0, note="trivial fixed space")
    else:
        x = _combos(fs.matrix, rng.standard_normal((samples, 2, fs.dimension)))
        y = _product(st, _star(st, x), x)
        diffs = []
        for _ in range(mono_steps):
            for gen in family.generators:
                stepped = gen.superop @ y
                diffs.append(stepped - y)
                y = stepped
        worst = _psd_floor(st, diffs)
        items["monotone_net"] = ItemResult(
            "PASS" if worst >= -psd_floor else "FAIL", float(worst), psd_floor, samples
        )

    # Diagonal limit of phi_s(x*x) exists and matches the mean projection.
    if trivial:
        items["limit_vs_mean"] = ItemResult("PASS", 0.0, lim_tol, 0, note="trivial fixed space")
    elif erg is None:
        items["limit_vs_mean"] = ItemResult("FAIL", np.inf, lim_tol, 0, note=erg_error)
    else:
        x = _combos(fs.matrix, rng.standard_normal((samples, 2, fs.dimension)))
        q = _product(st, _star(st, x), x)
        lims, errors = _column_limits(family, q, "iteration stalled off the fixed space")
        converged = np.array([err is None for err in errors], dtype=bool)
        failed = [err for err in errors if err is not None]
        worst = float(np.max(_norms(st, (lims - rho @ q)[:, converged]), initial=0.0))
        note = f"divergent on {len(failed)} samples: {failed[-1]}" if failed else ""
        status = "PASS" if not failed and worst <= lim_tol else "FAIL"
        items["limit_vs_mean"] = ItemResult(status, worst, lim_tol, samples, note=note)

    # Choi-Effros identity for the idempotent Phi on C*(N^phi).
    if cs.dimension == 0:
        items["choi_effros"] = ItemResult("PASS", 0.0, ce_tol, 0, note="trivial fixed space")
    elif erg is None:
        items["choi_effros"] = ItemResult("FAIL", np.inf, ce_tol, 0, note=erg_error)
    else:
        # x and y are drawn alternately, one pair per sample
        g = rng.standard_normal((samples, 2, 2, cs.dimension))
        x, y = _combos(cs.matrix, g[:, 0]), _combos(cs.matrix, g[:, 1])
        a = rho @ x
        gap = rho @ _product(st, a, y) - rho @ _product(st, a, rho @ y)
        worst = float(np.max(_norms(st, gap), initial=0.0))
        items["choi_effros"] = ItemResult(
            "PASS" if worst <= ce_tol else "FAIL", worst, ce_tol, samples
        )

    # Vector inequality ||phi_s(a y^{1/2}) h||^2 <= ||a||^2 (phi_s(y) h, h).
    if trivial:
        items["vector_bound"] = ItemResult("PASS", 0.0, vec_tol, 0, note="trivial fixed space")
    elif erg is None:
        items["vector_bound"] = ItemResult("FAIL", np.inf, vec_tol, 0, note=erg_error)
    else:
        # normals and rng.integers interleave, so the draws stay one sample at a time
        gx = np.empty((samples, 2, fs.dimension))
        ga = np.empty((samples, 2, cs.dimension))
        h = np.empty((samples, st.space_dim), dtype=complex)
        s_idx = np.empty((samples, family.rank), dtype=int)
        for j in range(samples):
            gx[j] = rng.standard_normal((2, fs.dimension))
            ga[j] = rng.standard_normal((2, cs.dimension))
            h[j] = random_unit_vector(rng, st.space_dim)
            s_idx[j] = rng.integers(0, s_max + 1, size=family.rank)
        x = _combos(fs.matrix, gx)
        q = _product(st, _star(st, x), x)
        y = rho @ q - q
        root = _coords([psd_sqrt(b, tol=1e-8) for b in _blocks(st, y)])
        a = _combos(cs.matrix, ga)
        powers = []
        for gen in family.generators:
            pw = [np.eye(st.coord_dim, dtype=complex)]
            for _ in range(s_max):
                pw.append(gen.superop @ pw[-1])
            powers.append(np.stack(pw))
        moved = _blocks(st, _beta(powers, s_idx, _product(st, a, root)))
        moved_y = _blocks(st, _beta(powers, s_idx, y))
        lhs = np.zeros(samples)
        form = np.zeros(samples)
        for m, my, sl in zip(moved, moved_y, st.space_slices()):
            hb = h[:, sl, None]
            lhs += np.sum(np.abs(m @ hb) ** 2, axis=(1, 2))
            form += np.real(hb.conj().swapaxes(1, 2) @ my @ hb)[:, 0, 0]
        worst = float(np.max(lhs - _norms(st, a) ** 2 * form, initial=-np.inf))
        worst = 0.0 if not np.isfinite(worst) else worst
        items["vector_bound"] = ItemResult(
            "PASS" if worst <= vec_tol else "FAIL", worst, vec_tol, samples
        )

    if instance is not None:
        verdict = check_minimality(instance.alpha, instance.p)
        minimal = verdict.status is Minimality.MINIMAL
        note = "" if minimal else "minimality not established; lifting identity expected to fail"
        fs_ambient = fixed_space(instance.alpha)

        if fs_ambient.dimension == 0:
            items["lift_identity"] = ItemResult("PASS", 0.0, tol_eq, 0, note="trivial ambient fixed space")
        else:
            x = _combos(fs_ambient.matrix, rng.standard_normal((samples, 2, fs_ambient.dimension)))
            z, errors = _pi_limits(instance, _compressed(instance.emb, x))
            items["lift_identity"] = _lifting_item(instance.structure, z - x, errors, tol_eq, samples, note)

        if cs.dimension == 0 or erg is None:
            note2 = "trivial fixed space" if cs.dimension == 0 else erg_error
            status = "PASS" if cs.dimension == 0 else "FAIL"
            items["factorization"] = ItemResult(status, 0.0, lim_tol, 0, note=note2)
        else:
            y = _combos(cs.matrix, rng.standard_normal((samples, 2, cs.dimension)))
            z, errors = _pi_limits(instance, y)
            residuals = _compressed(instance.emb, z) - rho @ y
            items["factorization"] = _lifting_item(st, residuals, errors, lim_tol, samples, note)

    return SuiteReport(items, seed, samples)
