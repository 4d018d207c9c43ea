"""Fixed-point spaces, ergodic projections, and the lifting limits.

Computes N^phi and M^alpha as joint nullspaces of superoperators, the
C*-algebra generated by a fixed-point space, the mean (Cesaro) ergodic
projection rho onto the fixed space, the diagonal strong-operator limits
of phi_s and alpha_s, the left-inverse certificate that the compression
E(x) = pxp is a complete isometry, the kernel-ideal identity for the induced
idempotent, and a property suite covering the remaining identities.
"""

from __future__ import annotations

import functools
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
from .matcore import hermitian_floor, nullspace, nullspace_pair, op_norm, psd_sqrt
from .vnalg import (
    AlgebraElement,
    BlockStructure,
    _blocks,
    _combos,
    _compressed,
    _coords,
    _frame,
    _injected,
    _norms,
    _norms_within,
    _product,
    _star,
    element_from_coords,
    identity_element,
)
from .cpsemi import SemigroupFamily, _cached_on_argument, choi_min_eig, validate_cp
from .dilation import DilationInstance, Minimality, check_minimality

FIXED_TOL = 1e-10
FIXED_CHECK_TOL = 1e-8  # fixed_space: every generator fixes each basis column within this
SPLITTING_FLOOR = 1e-12  # _splitting: W*B counts as singular at a singular value ratio at or below this
SPAN_TOL = 1e-8
CESARO_CAP = 10**6  # terms of the Cesaro average that ergodic_projection compares with rho
PROJECTION_TOL = 1e-8  # ergodic_projection: rho^2 - rho, S_i rho - rho and rho S_i - rho within this
PROJECTION_PSD_TOL = 1e-9  # ergodic_projection: the Choi floor of rho is at least -this
PROJECTION_UNIT_TOL = 1e-9  # ergodic_projection: rho(1) exceeds 1 by at most this
# the diagonal limits stop at the first increment below `STEP_TOL`, within
# DOUBLINGS squarings of theta (2^20 - 1 steps); the budget stays far below 40
# squarings, past which rounding can take a unit-modulus eigenvalue of theta to 0
STEP_TOL = 1e-10
DOUBLINGS = 20
# a stopped value that the diagonal step moves lies on a periodic orbit; one that
# it fixes but a generator moves (d >= 2) has stalled
PERIODIC = "periodic orbit off the fixed space"
STALLED = "iteration stalled off the fixed space"
EQ_TOL = 1e-8  # the complete isometry and lift_identity
AGREEMENT_TOL = 1e-7  # lift_fixed_point: the limit and linear-algebra routes agree within this times max(1, ||y||)
ORTHO_TOL = 1e-9  # _orthonormal_columns keeps singular values above this times the largest
RANK_TOL = 1e-10  # check_complete_isometry counts singular values above this times max(1, largest) in the rank
KERNEL_TOL = 1e-10  # kernel_ideal_check: the kernel of Phi on C*(N^phi), cut at this
IDEAL_GEN_TOL = 1e-10  # kernel_ideal_check: a defect x*x - Phi(x*x) of norm at most this generates nothing
# property-suite thresholds
PSD_FLOOR = 1e-9  # kadison_schwarz and monotone_net
LIMIT_TOL = 1e-7  # limit_vs_mean and factorization
CHOI_EFFROS_TOL = 1e-9
VECTOR_TOL = 1e-9
SQRT_TOL = 1e-8  # vector_bound: psd_sqrt of Phi(x*x) - x*x clamps eigenvalues down to -SQRT_TOL max(1, norm)
MONO_STEPS = 10  # diagonal steps of the monotone net
SAMPLE_NORM_FLOOR = 1e-30  # kadison_schwarz scales each sample by 1 / max(its coordinate norm, this)
S_MAX = 10  # largest power of each generator in the vector bound


def _orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span: the left singular vectors above ORTHO_TOL relative."""
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    return u[:, s > ORTHO_TOL * s[0]]


def span_distance(basis_matrix: np.ndarray, v: np.ndarray):
    """Distance of a coordinate vector, or of each column of a coordinate block, to the column span."""
    return np.linalg.norm(v - basis_matrix @ (basis_matrix.conj().T @ v), axis=0)


def _exceeds(gap: float, tol: float, norm) -> bool:
    """gap > tol * max(1, norm()), calling norm only when gap > tol leaves the answer open."""
    return gap > tol and gap > tol * max(1.0, norm())


@_cached_on_argument
def _kernels(family: SemigroupFamily) -> tuple[np.ndarray, np.ndarray]:
    """The fixed basis B, spanning the joint ker(S_i - 1), and W, spanning the joint ker(S_i - 1)*.

    Kraus maps preserve adjoints, so T*(S_1 - 1)T is real in the Hermitian frame T of `_frame`.
    One real SVD of it, cut at FIXED_TOL, gives both of its kernels; T maps the right one to a
    Hermitian orthonormal B and the left one to W.  Every further generator commutes with S_1, so
    it maps both kernels into themselves, and its kernel within each is that of the r x r block
    B*(S_i - 1)B or W*(S_i - 1)*W, which is real as well.
    """
    t = _frame(family.structure)
    first, *rest = family.generators
    s = first.superop
    w, b = nullspace_pair((t.conj().T @ (s @ t)).real - np.eye(len(s)), FIXED_TOL)
    b, w = t @ b, t @ w
    for gen in rest:
        s = gen.superop
        b = b @ nullspace((b.conj().T @ (s @ b - b)).real, FIXED_TOL)
        w = w @ nullspace((w.conj().T @ (s.conj().T @ w - w)).real, FIXED_TOL)
    return b, w


@dataclass(frozen=True, eq=False)
class FixedSpace:
    """Orthonormal (trace inner product) Hermitian basis of a fixed space."""

    structure: BlockStructure
    matrix: np.ndarray  # coord_dim x dimension, columns = basis coords

    @functools.cached_property
    def basis(self) -> tuple:
        """The columns of `matrix` as elements, built on first read."""
        return tuple(element_from_coords(self.structure, col) for col in self.matrix.T)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]


@_cached_on_argument
def fixed_space(family: SemigroupFamily) -> FixedSpace:
    """Joint fixed space of the generators: intersection of ker(S_i - 1), with the Hermitian basis of `_kernels`."""
    st = family.structure
    cols = _kernels(family)[0]
    if not np.all(_norms_within(st, _side_by_side(_apply_all(family.superops, cols) - cols), FIXED_CHECK_TOL)):
        raise NoConvergence("fixed-space basis fails the defining equation")
    return FixedSpace(st, cols)


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
    """The mean ergodic projection rho with range N^phi, as a superoperator.

    `splitting` and `checks` hold the numbers that ergodic_projection
    decided on.  No verdict reads the Cesaro comparison, so `diagnostics`
    builds it from the generators' stack `superops` on first read.
    """

    structure: BlockStructure
    matrix: np.ndarray
    superops: np.ndarray
    splitting: dict
    checks: dict

    @functools.cached_property
    def diagnostics(self) -> dict:
        """The splitting, the Cesaro comparison of `_cesaro_check` and the checks, built once."""
        return {**self.splitting, **_cesaro_check(self.superops, self.matrix), **self.checks}

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        return element_from_coords(self.structure, self.matrix @ x.coords())

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.matrix).real))


@_cached_on_argument
def _splitting(family: SemigroupFamily) -> tuple[np.ndarray, dict]:
    """rho = B (W* B)^{-1} W* and its diagnostics, from the fixed basis B and the dual kernel W of `_kernels`.

    W spans the joint kernel of the (S_i - 1)*.  The generators
    commute and are power bounded, so the product of their Cesaro limits
    projects onto the joint fixed space along sum_i ran(1 - S_i), which is
    (intersection of ker (S_i - 1)*)^perp: that product is rho.  One SVD
    W* B = U diag(σ) V* gives rho = B V diag(1/σ) U* W*, and its σ give
    `splitting_cond` and the SPLITTING_FLOOR test.
    """
    b = fixed_space(family).matrix
    w = _kernels(family)[1]
    r = b.shape[1]
    diag = {"fixed_dim": int(r)}
    if w.shape[1] != r:
        raise NoConvergence(f"fixed space has dimension {r} but its dual {w.shape[1]}; family is not power bounded")
    if r == 0:
        return np.zeros((b.shape[0], b.shape[0]), dtype=complex), diag
    u, sv, vh = np.linalg.svd(w.conj().T @ b)
    diag["splitting_cond"] = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if sv[-1] <= SPLITTING_FLOOR * sv[0]:
        raise NoConvergence("fixed space meets the range of (1 - S); map is not power bounded")
    return (b @ vh.conj().T / sv) @ (w @ u).conj().T, diag


def _cesaro_check(superops: np.ndarray, rho: np.ndarray) -> dict:
    """The product of each generator's doubling Cesaro average A_{2N} = (A_N + S^N A_N)/2, against rho.

    The averages of all generators double as one (d, D, D) stack, each to
    the largest power of two within CESARO_CAP terms; the increment is the
    largest last step among the generators.
    """
    steps = CESARO_CAP.bit_length() - 1
    pw = superops
    avg = np.broadcast_to(np.eye(rho.shape[0], dtype=complex), pw.shape)
    for k in range(steps):
        prev, avg = avg, 0.5 * (avg + pw @ avg)
        if k + 1 < steps:
            pw = pw @ pw
    return {
        "cesaro_terms": 2**steps,
        "cesaro_steps": steps,
        "cesaro_increment": float(np.max(op_norm(avg - prev))),
        "cesaro_gap": float(op_norm(functools.reduce(np.matmul, avg) - rho)),
    }


@_cached_on_argument
def ergodic_projection(family: SemigroupFamily) -> ErgodicProjection:
    """rho, the mean ergodic projection onto the joint fixed space, from `_splitting`.

    rho equals the product of the per-generator Cesaro limits, which the
    diagnostics compare, on first read, with the product of their doubling averages.  The
    generators must be contractive, and rho must be idempotent, fixed by
    every generator on either side, completely positive and contractive.
    """
    st = family.structure
    for idx, gen in enumerate(family.generators):
        rep = validate_cp(gen)
        if not rep.is_contractive:
            raise NotContractive(f"generator {idx} has phi(1) > 1 (floor {rep.contractive_floor:g})")
    rho, splitting = _splitting(family)
    s = family.superops
    # one stacked op_norm: rho^2 - rho, then S_i rho - rho and rho S_i - rho for every generator
    norms = op_norm(np.concatenate([(rho @ rho - rho)[None], s @ rho - rho, rho @ s - rho]))
    defects = {
        "idempotency": norms[0],
        "intertwine_left": np.max(norms[1 : 1 + family.rank]),
        "intertwine_right": np.max(norms[1 + family.rank :]),
    }
    for name, value in defects.items():
        if value > PROJECTION_TOL:
            raise NoConvergence(f"ergodic projection failed {name} check ({value:g})")
    choi_floor = choi_min_eig(rho, st)
    if choi_floor < -PROJECTION_PSD_TOL:
        raise NoConvergence(f"ergodic projection is not completely positive (Choi floor {choi_floor:g})")
    one_img = _blocks(st, rho @ identity_element(st).coords()[:, None])
    one_excess = max(
        float(np.linalg.eigvalsh(0.5 * (b + b.conj().swapaxes(-1, -2)))[0, -1]) - 1.0 for b in one_img
    )
    if one_excess > PROJECTION_UNIT_TOL:
        raise NoConvergence(f"ergodic projection is not contractive (rho(1) exceeds 1 by {one_excess:g})")
    checks = {
        "defects": {k: float(v) for k, v in defects.items()},
        "choi_floor": float(choi_floor),
        "one_excess": float(one_excess),
    }
    return ErgodicProjection(st, rho, s, splitting, checks)


def _diagonal_limits(family: SemigroupFamily, v: np.ndarray, prefix: str):
    """lim_s beta_s of every column of a (D, S) coordinate block, by repeated squaring of theta.

    Doubling k steps each live column by theta^(2^k), 2^k - 1 steps in all
    after k doublings.  A column stops at its first increment <= STEP_TOL:
    once 2^k is past 1/gap that bounds the error, but a part that moves less
    than STEP_TOL per step stops it at once, off by up to STEP_TOL/gap.  A
    column that never stops within DOUBLINGS doublings, or whose increment
    overflows, diverges; so does a limit that a generator moves, with
    PERIODIC when theta itself moves it and STALLED when only a generator does.

    A column leaves the live set only when it stops or its increment is not
    finite, and `last` holds each column's final increment.  So a doubling
    in which no column leaves costs one product, one column-norm pass and
    two counts; `last`, the limits and the live set are written only on a
    doubling where some column leaves, and once when the budget runs out.
    Returns the limits and, per column, a Divergent (its message after `prefix`) or None.
    """
    v = np.array(v, dtype=complex)
    st, s = family.structure, v.shape[1]
    if s == 0:  # no column would ever leave, so the loop would run its whole budget
        return v, []
    live = np.arange(s)  # the columns still iterating, held compactly in w
    w, last = v, np.full(s, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(DOUBLINGS):
            nxt = family.theta_square(k) @ w
            d = nxt - w
            # the formula np.linalg.norm(d, axis=0) evaluates for complex d, without its wrapper
            inc = np.sqrt(np.add.reduce((d.conj() * d).real, axis=0))
            # inc < inf is false for nan too
            if np.count_nonzero(inc <= STEP_TOL) or np.count_nonzero(inc < np.inf) < inc.size:
                last[live] = inc
                done = inc <= STEP_TOL
                v[:, live[done]] = nxt[:, done]
                going = ~done & (inc < np.inf)
                live, nxt, inc = live[going], nxt[:, going], inc[going]
                if live.size == 0:
                    break
            w = nxt
        else:
            last[live] = inc
    # a defect within 10 STEP_TOL is within 10 STEP_TOL max(1, ||limit||), so only the
    # columns this screen leaves open take the norms of their limits and exact defect norms
    defects = [g.superop @ v - v for g in family.generators]
    on = _norms_within(st, np.hstack(defects), 10.0 * STEP_TOL).reshape(family.rank, s).all(axis=0)
    errors = [None] * s
    if not on.all():
        rest = np.flatnonzero(~on)
        # row 0: the norm of each open limit; row 1 + i: the norm of its defect under generator i
        norms = _norms(st, np.hstack([v[:, rest]] + [d[:, rest] for d in defects]))
        norms = norms.reshape(1 + family.rank, rest.size)
        bound = 10.0 * STEP_TOL * np.maximum(1.0, norms[0])
        on[rest] = np.all(norms[1:] <= bound, axis=0)
        off = ~on[rest]
        if off.any():
            bad = rest[off]
            periodic = _norms(st, family.theta @ v[:, bad] - v[:, bad]) > bound[off]
            for j, per in zip(bad, periodic):
                errors[j] = Divergent(prefix + (PERIODIC if per else STALLED))
    for j in np.flatnonzero(~(last <= STEP_TOL)):
        errors[j] = Divergent(f"no convergence within {2**DOUBLINGS - 1} steps (last increment {last[j]:g})")
    return v, errors


def phi_limit(family: SemigroupFamily, y: AlgebraElement) -> AlgebraElement:
    """Diagonal limit of phi_s(y); guaranteed to exist on C*(N^phi).

    Raises the Divergent of y's column when the orbit fails to stabilize,
    which signals either y outside C*(N^phi) or a spectral gap too slow for
    2^DOUBLINGS - 1 steps.
    """
    v, (error,) = _diagonal_limits(family, y.coords()[:, None], "")
    if error is not None:
        raise error
    return element_from_coords(family.structure, v[:, 0])


@_cached_on_argument
def _cstar_lifts(instance: DilationInstance) -> tuple[np.ndarray, np.ndarray, bool]:
    """pi on the C*(N^phi) basis: the basis B, the limits Z of its injected columns, and whether all converged.

    One doubling iteration per instance.  The orbit of inject(B c) is
    sum_j c_j times the orbits of the basis columns, and a generator that
    fixes every column of Z fixes Z c, so pi(B c) = Z c.
    """
    b = cstar_closure(fixed_space(instance.phi)).matrix
    z, errors = _diagonal_limits(instance.alpha, _injected(instance.emb, b), "ambient ")
    return b, z, all(err is None for err in errors)


def _pi_limits(instance: DilationInstance, y: np.ndarray):
    """pi_limit of every column of a corner coordinate block: the limits and, per column, its error or None.

    When every C*(N^phi) basis column converged, the limits are Z (B* y)
    from `_cstar_lifts`, with no iteration per column.  Otherwise every
    column runs its own iteration, which keeps the Divergent of its orbit.  A
    column farther than SPAN_TOL max(1, ||y||) from C*(N^phi) gets
    NotInCStar, in place of any Divergent.
    """
    b, z, converged = _cstar_lifts(instance)
    c = b.conj().T @ y
    if converged:
        lims, errors = z @ c, [None] * y.shape[1]
    else:
        lims, errors = _diagonal_limits(instance.alpha, _injected(instance.emb, y), "ambient ")
    gaps = np.linalg.norm(y - b @ c, axis=0)
    far = np.flatnonzero(gaps > SPAN_TOL)  # only these need the norms of their elements
    if far.size:
        for j in far[gaps[far] > SPAN_TOL * np.maximum(1.0, _norms(instance.emb.corner, y[:, far]))]:
            errors[j] = NotInCStar(f"element is {gaps[j]:g} away from C*(N^phi); limit not guaranteed")
    return lims, errors


def pi_limit(instance: DilationInstance, y: AlgebraElement, cstar: CStarSpan | None = None) -> AlgebraElement:
    """Diagonal limit of alpha_s(y) for y in C*(N^phi), landing in M^alpha.

    One column of `_pi_limits`: after the instance's first call, a lookup
    and a matrix product.  Raises NotInCStar for y outside C*(N^phi), else
    Divergent when the limit fails.  `cstar` is accepted and ignored.
    """
    z, (error,) = _pi_limits(instance, y.coords()[:, None])
    if error is not None:
        raise error
    return element_from_coords(instance.structure, z[:, 0])


def lift_fixed_point(instance: DilationInstance, y: AlgebraElement) -> AlgebraElement:
    """Lift y in N^phi to z in M^alpha with pzp = y, by two independent routes.

    Route one follows the diagonal alpha-limit of y inside M; route two
    solves the compression equation on a basis of M^alpha.  Disagreement
    beyond AGREEMENT_TOL max(1, ||y||) raises Inconsistent.
    """
    fs_corner = fixed_space(instance.phi)
    y_norm = functools.cache(y.norm)  # taken at most once, and only for a gap past its tolerance
    if _exceeds(span_distance(fs_corner.matrix, y.coords()), SPAN_TOL, y_norm):
        raise NotFixed("input is not in the fixed space of the compressed family")
    z_pi = pi_limit(instance, y)
    fs_ambient = fixed_space(instance.alpha)
    if fs_ambient.dimension == 0:
        raise NotFixed("ambient fixed space is trivial; nothing can compress to y")
    comp_cols = _compressed(instance.emb, fs_ambient.matrix)
    coeff, *_ = np.linalg.lstsq(comp_cols, y.coords(), rcond=None)
    resid = float(np.linalg.norm(comp_cols @ coeff - y.coords()))
    if _exceeds(resid, SPAN_TOL, y_norm):
        raise Inconsistent(f"no ambient fixed point compresses to y (residual {resid:g})")
    z_lin = element_from_coords(instance.structure, fs_ambient.matrix @ coeff)
    gap = (z_pi - z_lin).norm()
    if _exceeds(gap, AGREEMENT_TOL, y_norm):
        raise Inconsistent(f"limit route and linear-algebra route disagree by {gap:g}")
    return z_pi


@dataclass(frozen=True, eq=False)
class IsometryReport:
    """Verdict on E(x) = pxp as a complete isometry M^alpha -> N^phi, and the route that decided it.

    `route` is "certificate" when the left inverse R = rho_alpha o inject
    decided, and "trivial" when M^alpha = 0.  `max_defect` is the largest
    certificate residual, with max(0, -choi_floor) standing for the Choi
    floor.  The three certificate residuals are None on the trivial route
    only.
    """

    dim_ambient_fixed: int
    dim_corner_fixed: int
    compression_rank: int
    bijective: bool
    max_defect: float
    passed: bool
    route: str
    choi_floor: float | None
    unit_excess: float | None
    left_inverse_defect: float | None
    note: str = ""


def _left_inverse_residuals(instance: DilationInstance, fs_ambient: FixedSpace, comp_cols: np.ndarray):
    """Residuals of R = rho_alpha o inject : N -> M as a contractive CP left inverse of E on M^alpha.

    rho_alpha is the family's shared `_splitting`, without the Cesaro and
    Choi checks of ergodic_projection.
    Returns the smallest eigenvalue of R's blockwise Choi matrices,
    ||R(1_N)|| - 1 (the cb-norm of a CP map, less 1) and
    max ||R E b - b|| over the ambient fixed basis, whose compressions are
    the columns of comp_cols.
    """
    emb = instance.emb
    r = _splitting(instance.alpha)[0] @ _injected(emb, np.eye(emb.corner.coord_dim))
    choi_floor = choi_min_eig(r, emb.ambient, emb.corner)
    # column 0: R(1_N); column 1 + k: R E b_k - b_k
    cols = r @ np.hstack([identity_element(emb.corner).coords()[:, None], comp_cols])
    cols[:, 1:] -= fs_ambient.matrix
    norms = _norms(emb.ambient, cols)
    return float(choi_floor), float(norms[0] - 1.0), float(np.max(norms[1:], initial=0.0))


def check_complete_isometry(
    instance: DilationInstance,
    levels: int = 3,
    samples: int = 100,
    seed: int = 0,
    fs_ambient: FixedSpace | None = None,
    fs_corner: FixedSpace | None = None,
) -> IsometryReport:
    """Decide whether compression E(x) = pxp is a complete isometry M^alpha -> N^phi.

    It checks that E restricted to M^alpha is a linear bijection onto
    N^phi, and builds the paper's left inverse R = rho_alpha o inject.
    A CP map has cb-norm ||R(1_N)||, so if R is CP with ||R(1_N)|| <= 1
    and inverts E on M^alpha, all within EQ_TOL, then for every matrix
    level k, ||x||_k = ||R_k E_k x|| <= ||E_k x|| <= ||x||_k.  The
    certificate is sufficient only for CP inputs, which is all that
    validation admits.  A non-minimal instance has a nonzero fixed q with
    pqp = 0, so E is not injective there and the check fails.
    `levels`, `samples` and `seed` are accepted and ignored.
    """
    if fs_ambient is None:
        fs_ambient = fixed_space(instance.alpha)
    if fs_corner is None:
        fs_corner = fixed_space(instance.phi)
    if fs_ambient.dimension == 0:
        bijective = fs_corner.dimension == 0
        return IsometryReport(
            0, fs_corner.dimension, 0, bijective, 0.0, bijective, "trivial", None, None, None,
            note="trivial fixed space",
        )
    comp_cols = _compressed(instance.emb, fs_ambient.matrix)
    sv = np.linalg.svd(comp_cols, compute_uv=False)
    rank = int(np.sum(sv > RANK_TOL * max(1.0, sv[0])))
    bijective = rank == fs_ambient.dimension == fs_corner.dimension
    choi_floor, unit_excess, left_defect = _left_inverse_residuals(instance, fs_ambient, comp_cols)
    worst = max(-choi_floor, unit_excess, left_defect, 0.0)
    return IsometryReport(
        fs_ambient.dimension,
        fs_corner.dimension,
        rank,
        bijective,
        float(worst),
        bool(bijective and worst <= EQ_TOL),
        "certificate",
        choi_floor,
        unit_excess,
        left_defect,
    )


@dataclass(frozen=True, eq=False)
class KernelIdealReport:
    dim_kernel: int
    dim_ideal: int
    max_subspace_gap: float
    rho_invariance_residual: float
    passed: bool
    note: str = ""


def kernel_ideal_check(
    family: SemigroupFamily,
    fs: FixedSpace | None = None,
    cs: CStarSpan | None = None,
    erg: ErgodicProjection | None = None,
    seed: int = 0,
) -> KernelIdealReport:
    """Compare ker(Phi) inside C*(N^phi) with the ideal its defects generate.

    By polarization the defects x*x - Phi(x*x) over x in N^phi span the
    same space as the r^2 defects b_i* b_j - Phi(b_i* b_j) of the fixed
    basis, in the order `for i: for j`.  Those generate the ideal, which
    grows by left and right multiplication with C* basis elements until
    the span stabilizes.  Each round appends, for every ideal column q and
    C* basis column bb in turn, bb q and q bb.
    `seed` is accepted and ignored.
    """
    if fs is None:
        fs = fixed_space(family)
    if cs is None:
        cs = cstar_closure(fs)
    if erg is None:
        erg = ergodic_projection(family)
    if cs.dimension == 0:
        return KernelIdealReport(0, 0, 0.0, 0.0, True, note="trivial fixed space")
    b = cs.matrix
    rho = erg.matrix
    restricted = b.conj().T @ rho @ b
    invariance = float(op_norm(rho @ b - b @ restricted))
    kernel_cols = nullspace(restricted, KERNEL_TOL)
    st = cs.structure
    r = fs.dimension
    q = _product(st, _star(st, np.repeat(fs.matrix, r, axis=1)), np.tile(fs.matrix, r))
    gens = b.conj().T @ (rho @ q - q)
    ideal = _orthonormal_columns(gens[:, np.linalg.norm(gens, axis=0) > IDEAL_GEN_TOL])
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
    return KernelIdealReport(int(kernel_cols.shape[1]), int(ideal.shape[1]), float(gap), invariance, bool(passed))


# Stacked columns.  The property suite multiplies and checks each row at
# once, one element per column of a (D, S) coordinate block: a sample of
# the three sampled rows, or a basis element of the four basis rows.


def _hermitian_floor(structure: BlockStructure, vs) -> float:
    """Smallest eigenvalue of the Hermitian parts of every element in the coordinate blocks vs, from `hermitian_floor`."""
    return hermitian_floor(*_blocks(structure, np.hstack(vs)))


def _apply_all(superops: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Every generator applied to every column of a (D, S) block: the (d, D, S) images, from one product."""
    d, n, _ = superops.shape
    return (superops.reshape(d * n, n) @ v).reshape(d, n, v.shape[1])


def _side_by_side(v: np.ndarray) -> np.ndarray:
    """The (D, d S) block of a (d, D, S) stack, generator by generator."""
    return v.transpose(1, 0, 2).reshape(v.shape[1], -1)


def _beta(powers: np.ndarray, s_idx: np.ndarray, v: np.ndarray) -> np.ndarray:
    """beta_s of column j of each (D, S) block of the stack v, for its multi-index s_idx[j].

    `powers` is the (d, S_MAX + 1, D, D) stack of the powers of every generator.
    """
    v = v.transpose(2, 1, 0)
    for g, pw in enumerate(powers):
        v = pw[s_idx[:, g]] @ v
    return v.transpose(2, 1, 0)


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


def _lifting_item(structure, residuals, errors, threshold, note) -> ItemResult:
    """Row of a lifting identity over the residual columns: the worst norm, or inf noting the last column's error."""
    failed = [err for err in errors if err is not None]
    if failed:
        worst, note = np.inf, f"{note}; {failed[-1]}".strip("; ")
    else:
        worst = float(np.max(_norms(structure, residuals), initial=0.0))
    return ItemResult("PASS" if worst <= threshold else "FAIL", worst, threshold, residuals.shape[1], note=note)


def property_suite(
    obj,
    seed: int = 0,
    samples: int = 100,
) -> SuiteReport:
    """Run the proof-ingredient identities and report residuals per item.

    Accepts either a bare SemigroupFamily (Kadison-Schwarz, monotone net,
    diagonal limit vs mean projection, Choi-Effros identity, the vector
    inequality) or a DilationInstance (the same on the corner family plus
    the lifting identity pi(E(x)) = x and the factorization E(pi(y)) =
    Phi(y)).  Item failures never raise; they are reported as FAIL rows.

    A basis decides the four linear rows, with no draws: limit_vs_mean and
    factorization on the C*(N^phi) basis, choi_effros on the ordered pairs
    of its columns, lift_identity on the M^alpha basis; `count` is the
    number of columns.  kadison_schwarz, monotone_net and vector_bound draw
    `samples` each, in that order: the first two one draw per sample, the
    vector bound four arrays in turn (the normals of x, of a, of h, then
    the multi-indices s).  Every row is one (D, S) coordinate block, with
    every generator in one stacked product.
    The rows that need rho FAIL with its error when ergodic_projection
    raised on the family.
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
        erg = ergodic_projection(family)
    except CpfixError as exc:
        erg_error = str(exc)
    rho = None if erg is None else erg.matrix
    b, c = cs.matrix, cs.dimension  # c = 0 exactly when N^phi = 0
    rb = None if rho is None else rho @ b

    # Kadison-Schwarz: phi(x)* phi(x) <= phi(x*x) for every generator.
    # Per sample, n^2 real and then n^2 imaginary parts per block, as one random element draws them.
    parts = np.split(
        rng.standard_normal((samples, 2 * st.coord_dim)), np.cumsum([2 * n * n for n in st.block_dims])[:-1], axis=1
    )
    x = _coords(
        [(g[:, : n * n] + 1j * g[:, n * n :]).reshape(samples, n, n) / np.sqrt(2.0) for n, g in zip(st.block_dims, parts)]
    )
    x = x * (1.0 / np.maximum(np.linalg.norm(x, axis=0), SAMPLE_NORM_FLOOR))
    xx = _product(st, _star(st, x), x)
    # every S_i x and S_i(x*x) from one product, each laid out generator by generator
    images = np.split(_apply_all(family.superops, np.hstack([x, xx])), 2, axis=2)
    img, img_xx = (_side_by_side(v) for v in images)
    worst = _hermitian_floor(st, [img_xx - _product(st, _star(st, img), img)])
    worst = 0.0 if not np.isfinite(worst) else worst
    items["kadison_schwarz"] = ItemResult(
        "PASS" if worst >= -PSD_FLOOR else "FAIL", float(worst), PSD_FLOOR, samples
    )

    # Monotone net: phi_{s+e_i}(x*x) >= phi_s(x*x) along the diagonal, x fixed.
    if c == 0:
        items["monotone_net"] = ItemResult("PASS", 0.0, PSD_FLOOR, 0, note="trivial fixed space")
    else:
        x = _combos(fs.matrix, rng.standard_normal((samples, 2, fs.dimension)))
        y = _product(st, _star(st, x), x)
        diffs = []
        for _ in range(MONO_STEPS):
            for gen in family.generators:
                stepped = gen.superop @ y
                diffs.append(stepped - y)
                y = stepped
        worst = _hermitian_floor(st, diffs)
        items["monotone_net"] = ItemResult(
            "PASS" if worst >= -PSD_FLOOR else "FAIL", float(worst), PSD_FLOOR, samples
        )

    # Diagonal limits of the C*(N^phi) basis exist and match the mean projection.
    if c == 0:
        items["limit_vs_mean"] = ItemResult("PASS", 0.0, LIMIT_TOL, 0, note="trivial fixed space")
    elif erg is None:
        items["limit_vs_mean"] = ItemResult("FAIL", np.inf, LIMIT_TOL, 0, note=erg_error)
    else:
        lims, errors = _diagonal_limits(family, b, "")
        converged = np.array([err is None for err in errors], dtype=bool)
        failed = [err for err in errors if err is not None]
        worst = float(np.max(_norms(st, (lims - rb)[:, converged]), initial=0.0))
        note = f"divergent on {len(failed)} basis columns: {failed[-1]}" if failed else ""
        status = "PASS" if not failed and worst <= LIMIT_TOL else "FAIL"
        items["limit_vs_mean"] = ItemResult(status, worst, LIMIT_TOL, c, note=note)

    # Choi-Effros identity for the idempotent Phi on C*(N^phi), on every ordered pair of basis columns.
    if c == 0:
        items["choi_effros"] = ItemResult("PASS", 0.0, CHOI_EFFROS_TOL, 0, note="trivial fixed space")
    elif erg is None:
        items["choi_effros"] = ItemResult("FAIL", np.inf, CHOI_EFFROS_TOL, 0, note=erg_error)
    else:
        a = np.repeat(rb, c, axis=1)  # column i c + j pairs rho(b_i) with b_j
        gap = rho @ _product(st, a, np.tile(b, c)) - rho @ _product(st, a, np.tile(rb, c))
        worst = float(np.max(_norms(st, gap), initial=0.0))
        items["choi_effros"] = ItemResult("PASS" if worst <= CHOI_EFFROS_TOL else "FAIL", worst, CHOI_EFFROS_TOL, c * c)

    # Vector inequality ||phi_s(a y^{1/2}) h||^2 <= ||a||^2 (phi_s(y) h, h).
    if c == 0:
        items["vector_bound"] = ItemResult("PASS", 0.0, VECTOR_TOL, 0, note="trivial fixed space")
    elif erg is None:
        items["vector_bound"] = ItemResult("FAIL", np.inf, VECTOR_TOL, 0, note=erg_error)
    else:
        # four arrays in turn: the normals of x, of a and of h, then the multi-indices s
        gx = rng.standard_normal((samples, 2, fs.dimension))
        ga = rng.standard_normal((samples, 2, c))
        gh = rng.standard_normal((samples, 2, st.space_dim))
        s_idx = rng.integers(0, S_MAX + 1, size=(samples, family.rank))
        h = gh[:, 0] + 1j * gh[:, 1]
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        x = _combos(fs.matrix, gx)
        q = _product(st, _star(st, x), x)
        y = rho @ q - q
        root = _coords([psd_sqrt(blk, SQRT_TOL) for blk in _blocks(st, y)])
        a = _combos(b, ga)
        powers = np.empty((family.rank, S_MAX + 1, st.coord_dim, st.coord_dim), dtype=complex)
        powers[:, 0] = np.eye(st.coord_dim)
        for k in range(S_MAX):
            powers[:, k + 1] = family.superops @ powers[:, k]
        moved, moved_y = (_blocks(st, v) for v in _beta(powers, s_idx, np.stack([_product(st, a, root), y])))
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
        verdict = check_minimality(instance.alpha, instance.p)
        minimal = verdict.status is Minimality.MINIMAL
        note = "" if minimal else "minimality check: instance is non-minimal; lifting identity expected to fail"
        fs_ambient = fixed_space(instance.alpha)

        # pi(E(f)) = f on the M^alpha basis F, and E(pi(b)) = Phi(b) on the C*(N^phi) basis B
        if fs_ambient.dimension == 0:
            items["lift_identity"] = ItemResult("PASS", 0.0, EQ_TOL, 0, note="trivial ambient fixed space")
        else:
            f = fs_ambient.matrix
            z, errors = _pi_limits(instance, _compressed(instance.emb, f))
            items["lift_identity"] = _lifting_item(instance.structure, z - f, errors, EQ_TOL, note)

        if c == 0 or erg is None:
            note2 = erg_error if c else "trivial fixed space"
            items["factorization"] = ItemResult("FAIL" if c else "PASS", 0.0, LIMIT_TOL, 0, note=note2)
        else:
            z, errors = _pi_limits(instance, b)
            items["factorization"] = _lifting_item(st, _compressed(instance.emb, z) - rb, errors, LIMIT_TOL, note)

    return SuiteReport(items, seed, samples)
