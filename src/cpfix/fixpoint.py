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
from .matcore import nullspace, nullspace_pair, op_norm, psd_sqrt, random_unit_vector
from .vnalg import (
    AlgebraElement,
    BlockStructure,
    _blocks,
    _combos,
    _compressed,
    _coords,
    _injected,
    _norms,
    _product,
    _star,
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
# the diagonal limits stop at the first increment below `STEP_TOL`, within
# `MAX_ITER.bit_length()` = 20 squarings of theta and never more than 40: past
# k = 45, rounding in theta^(2^k) can square a unit-modulus eigenvalue towards 0
STEP_TOL = 1e-10
MAX_ITER = 10**6
MAX_DOUBLINGS = 40
STALLED = "iteration stalled off the fixed space"
# property-suite thresholds no report sets
LIMIT_TOL = 1e-7  # limit_vs_mean and factorization
CHOI_EFFROS_TOL = 1e-9
VECTOR_TOL = 1e-9
# random combinations of fixed-basis elements that join the basis as ideal generators
EXTRA_GENERATORS = 8


def _orthonormal_columns(m: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    return u[:, s > rel_tol * s[0]]


def span_distance(basis_matrix: np.ndarray, v: np.ndarray):
    """Distance of a coordinate vector, or of each column of a coordinate block, to the column span."""
    return np.linalg.norm(v - basis_matrix @ (basis_matrix.conj().T @ v), axis=0)


def _hermitian_basis(structure: BlockStructure, cols: np.ndarray) -> np.ndarray:
    """Rotate an orthonormal basis of a *-closed span into Hermitian form.

    Hermitian elements of the span form a real subspace whose real
    orthonormal bases are automatically complex orthonormal; one SVD of
    the real representation of the symmetrized candidates produces it.
    """
    r = cols.shape[1]
    if r == 0:
        return cols
    w = _star(structure, cols)
    c = np.stack([0.5 * (cols + w), -0.5j * (cols - w)], axis=-1).reshape(len(cols), 2 * r)
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
def fixed_space(family: SemigroupFamily) -> FixedSpace:
    """Joint fixed space of the generators: intersection of ker(S_i - 1)."""
    st = family.structure
    d = st.coord_dim
    eye = np.eye(d)
    stacked = np.vstack([g.superop - eye for g in family.generators])
    cols = nullspace(stacked, FIXED_TOL)
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
    matrix: np.ndarray
    is_unital: bool

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]


@_cached_on_argument
def cstar_closure(fs: FixedSpace) -> CStarSpan:
    """Close the span under products (and adjoints) until it stabilizes.

    Each round appends, for every ordered pair (a, b) of basis columns in
    turn, the product ab and its adjoint, and re-orthonormalizes.
    """
    st = fs.structure
    mat = fs.matrix
    if fs.dimension == 0:
        return CStarSpan(st, mat, is_unital=False)
    for _ in range(st.coord_dim + 1):
        r = mat.shape[1]
        prods = _product(st, np.repeat(mat, r, axis=1), np.tile(mat, r))
        pairs = np.stack([prods, _star(st, prods)], axis=-1).reshape(st.coord_dim, 2 * r * r)
        mat = _orthonormal_columns(np.hstack([mat, pairs]))
        if mat.shape[1] == r:
            break
    unit_gap = span_distance(mat, identity_element(st).coords())
    return CStarSpan(st, mat, is_unital=bool(unit_gap <= SPAN_TOL))


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


def _diagonal_limits(family: SemigroupFamily, v: np.ndarray, stalled: str, tol=STEP_TOL, max_iter=MAX_ITER):
    """lim_s beta_s of every column of a (D, S) coordinate block, by repeated squaring of theta.

    Doubling k steps each live column by theta^(2^k), 2^k - 1 steps in all
    after k doublings.  A column stops at its first increment <= tol: once
    2^k is past 1/gap that bounds the error, but a part that moves less than
    tol per step stops it at once, off by up to tol/gap.  A column that never
    stops within min(max_iter.bit_length(), MAX_DOUBLINGS) doublings, or whose
    increment overflows, diverges; so does a limit that a generator moves.
    Returns the limits and, per column, a Divergent (`stalled` for a moved limit) or None.
    """
    v = np.array(v, dtype=complex)
    live = np.arange(v.shape[1])  # the columns still iterating, held compactly in w
    w, last = v, np.full(v.shape[1], np.inf)
    doublings = min(max_iter.bit_length(), MAX_DOUBLINGS)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(doublings):
            if live.size == 0:
                break
            nxt = family.theta_square(k) @ w
            inc = np.linalg.norm(nxt - w, axis=0)
            last[live] = inc
            done = inc <= tol
            v[:, live[done]] = nxt[:, done]
            going = ~done & np.isfinite(inc)
            live, w = live[going], nxt[:, going]
    # row 0: the norm of each limit; row 1 + i: the norm of its defect under generator i, all in one _norms
    norms = _norms(family.structure, np.hstack([v] + [g.superop @ v - v for g in family.generators]))
    norms = norms.reshape(1 + family.rank, v.shape[1])
    off = np.any(norms[1:] > 10.0 * tol * np.maximum(1.0, norms[0]), axis=0)
    errors = [Divergent(stalled) if o else None for o in off]
    for j in np.flatnonzero(~(last <= tol)):
        errors[j] = Divergent(f"no convergence within {2**doublings - 1} steps (last increment {last[j]:g})")
    return v, errors


def _limit(family: SemigroupFamily, x: AlgebraElement, stalled: str, tol: float, max_iter: int) -> AlgebraElement:
    """The diagonal limit of one element, or the Divergent of its column."""
    v, (error,) = _diagonal_limits(family, x.coords()[:, None], stalled, tol, max_iter)
    if error is not None:
        raise error
    return element_from_coords(family.structure, v[:, 0])


def phi_limit(
    family: SemigroupFamily,
    y: AlgebraElement,
    tol: float = STEP_TOL,
    max_iter: int = MAX_ITER,
) -> AlgebraElement:
    """Diagonal limit of phi_s(y); guaranteed to exist on C*(N^phi).

    Raises Divergent when the orbit fails to stabilize, which signals
    either y outside C*(N^phi) or a spectral gap too slow for max_iter.
    """
    return _limit(family, y, STALLED, tol, max_iter)


def pi_limit(
    instance: DilationInstance,
    y: AlgebraElement,
    tol: float = STEP_TOL,
    max_iter: int = MAX_ITER,
    cstar: CStarSpan | None = None,
) -> AlgebraElement:
    """Diagonal limit of alpha_s(y) for y in C*(N^phi), landing in M^alpha."""
    if cstar is None:
        cstar = cstar_closure(fixed_space(instance.phi))
    gap = span_distance(cstar.matrix, y.coords())
    if gap > SPAN_TOL * max(1.0, y.norm()):
        raise NotInCStar(f"element is {gap:g} away from C*(N^phi); limit not guaranteed")
    return _limit(instance.alpha, inject(instance.emb, y), "ambient " + STALLED, tol, max_iter)


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
    comp_cols = _compressed(instance.emb, fs_ambient.matrix)
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
) -> KernelIdealReport:
    """Compare ker(Phi) inside C*(N^phi) with the ideal its defects generate.

    The ideal is generated by x*x - Phi(x*x) over fixed-basis elements and
    random combinations, then grown by left and right multiplication with
    C* basis elements until the span stabilizes.  Each round appends, for
    every ideal column q and C* basis column bb in turn, bb q and q bb.
    Without erg it takes the rho already built for the family, as the suite does.
    """
    if fs is None:
        fs = fixed_space(family)
    if cs is None:
        cs = cstar_closure(fs)
    if erg is None:
        erg = ergodic_projection.built_or_default(family)
    if cs.dimension == 0:
        return KernelIdealReport(0, 0, 0.0, 0.0, True, seed, note="trivial fixed space")
    b = cs.matrix
    rho = erg.matrix
    restricted = b.conj().T @ rho @ b
    invariance = float(op_norm(rho @ b - b @ restricted))
    kernel_cols = nullspace(restricted, 1e-10)
    st = cs.structure
    rng = np.random.default_rng(seed)
    x = np.hstack([fs.matrix, _combos(fs.matrix, rng.standard_normal((EXTRA_GENERATORS, 2, fs.dimension)))])
    q = _product(st, _star(st, x), x)
    gens = b.conj().T @ (rho @ q - q)
    ideal = _orthonormal_columns(gens[:, np.linalg.norm(gens, axis=0) > 1e-10])
    c = cs.dimension
    for _ in range(c + 1):
        k = ideal.shape[1]
        q, bb = np.repeat(b @ ideal, c, axis=1), np.tile(b, k)
        left, right = b.conj().T @ _product(st, bb, q), b.conj().T @ _product(st, q, bb)
        cands = np.stack([left, right], axis=-1).reshape(c, 2 * k * c)
        ideal = _orthonormal_columns(np.hstack([ideal, cands]))
        if ideal.shape[1] == k:
            break
    gaps = np.concatenate([span_distance(ideal, kernel_cols), span_distance(kernel_cols, ideal)])
    gap = float(np.max(gaps, initial=0.0))
    passed = kernel_cols.shape[1] == ideal.shape[1] and gap <= SPAN_TOL and invariance <= SPAN_TOL
    return KernelIdealReport(
        int(kernel_cols.shape[1]), int(ideal.shape[1]), float(gap), invariance, bool(passed), seed
    )


# Stacked samples.  The property suite draws, multiplies and checks all of
# its samples at once, one element per column of a (D, S) coordinate block.


def _psd_floor(structure: BlockStructure, vs) -> float:
    """Smallest eigenvalue of the Hermitian parts of every element in the coordinate blocks vs."""
    worst = np.inf
    for v in vs:
        for b in _blocks(structure, v):
            w = np.linalg.eigvalsh(0.5 * (b + b.conj().swapaxes(-1, -2)))
            worst = min(worst, float(np.min(w, initial=np.inf)))
    return worst


def _pi_limits(instance: DilationInstance, y: np.ndarray):
    """pi_limit of every column of a corner coordinate block: the limits and, per column, its error or None."""
    z, errors = _diagonal_limits(instance.alpha, _injected(instance.emb, y), "ambient " + STALLED)
    gaps = span_distance(cstar_closure(fixed_space(instance.phi)).matrix, y)
    for j in np.flatnonzero(gaps > SPAN_TOL * np.maximum(1.0, _norms(instance.emb.corner, y))):
        errors[j] = NotInCStar(f"element is {gaps[j]:g} away from C*(N^phi); limit not guaranteed")
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


@dataclass(frozen=True, eq=False)
class SuiteReport:
    items: dict
    seed: int
    samples: int

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items.values())


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
) -> SuiteReport:
    """Run the proof-ingredient identities and report residuals per item.

    Accepts either a bare SemigroupFamily (Kadison-Schwarz, monotone net,
    diagonal limit vs mean projection, Choi-Effros identity, the vector
    inequality) or a DilationInstance (the same on the corner family plus
    the lifting identity pi(E(x)) = x and the factorization E(pi(y)) =
    Phi(y)).  Item failures never raise; they are reported as FAIL rows.

    Each item draws its samples in the order and with the numbers of one
    draw per sample, and works on them as one (D, S) coordinate block.
    rho, and the minimality verdict of a DilationInstance, are the ones
    already built, say by a report at its config's tolerances, or else the
    ones at the default settings.
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
        erg = ergodic_projection.built_or_default(family)
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
        items["limit_vs_mean"] = ItemResult("PASS", 0.0, LIMIT_TOL, 0, note="trivial fixed space")
    elif erg is None:
        items["limit_vs_mean"] = ItemResult("FAIL", np.inf, LIMIT_TOL, 0, note=erg_error)
    else:
        x = _combos(fs.matrix, rng.standard_normal((samples, 2, fs.dimension)))
        q = _product(st, _star(st, x), x)
        lims, errors = _diagonal_limits(family, q, STALLED)
        converged = np.array([err is None for err in errors], dtype=bool)
        failed = [err for err in errors if err is not None]
        worst = float(np.max(_norms(st, (lims - rho @ q)[:, converged]), initial=0.0))
        note = f"divergent on {len(failed)} samples: {failed[-1]}" if failed else ""
        status = "PASS" if not failed and worst <= LIMIT_TOL else "FAIL"
        items["limit_vs_mean"] = ItemResult(status, worst, LIMIT_TOL, samples, note=note)

    # Choi-Effros identity for the idempotent Phi on C*(N^phi).
    if cs.dimension == 0:
        items["choi_effros"] = ItemResult("PASS", 0.0, CHOI_EFFROS_TOL, 0, note="trivial fixed space")
    elif erg is None:
        items["choi_effros"] = ItemResult("FAIL", np.inf, CHOI_EFFROS_TOL, 0, note=erg_error)
    else:
        # x and y are drawn alternately, one pair per sample
        g = rng.standard_normal((samples, 2, 2, cs.dimension))
        x, y = _combos(cs.matrix, g[:, 0]), _combos(cs.matrix, g[:, 1])
        a = rho @ x
        gap = rho @ _product(st, a, y) - rho @ _product(st, a, rho @ y)
        worst = float(np.max(_norms(st, gap), initial=0.0))
        items["choi_effros"] = ItemResult(
            "PASS" if worst <= CHOI_EFFROS_TOL else "FAIL", worst, CHOI_EFFROS_TOL, samples
        )

    # Vector inequality ||phi_s(a y^{1/2}) h||^2 <= ||a||^2 (phi_s(y) h, h).
    if trivial:
        items["vector_bound"] = ItemResult("PASS", 0.0, VECTOR_TOL, 0, note="trivial fixed space")
    elif erg is None:
        items["vector_bound"] = ItemResult("FAIL", np.inf, VECTOR_TOL, 0, note=erg_error)
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
            "PASS" if worst <= VECTOR_TOL else "FAIL", worst, VECTOR_TOL, samples
        )

    if instance is not None:
        verdict = check_minimality.built_or_default(instance.alpha, instance.p)
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
            items["factorization"] = ItemResult(status, 0.0, LIMIT_TOL, 0, note=note2)
        else:
            y = _combos(cs.matrix, rng.standard_normal((samples, 2, cs.dimension)))
            z, errors = _pi_limits(instance, y)
            residuals = _compressed(instance.emb, z) - rho @ y
            items["factorization"] = _lifting_item(st, residuals, errors, LIMIT_TOL, samples, note)

    return SuiteReport(items, seed, samples)
