"""Completely positive maps in block-Kraus form and commuting families.

A map phi between multi-matrix algebras is stored as a dictionary of
Kraus lists: for target block j and source block i, a list of n_j x n_i
operators A with

    phi(x)_j = sum_i sum_A  A @ x_i @ A*.

*-endomorphisms travel in the same representation, with multiplicativity
validated separately.  Semigroups are indexed by multi-indices in N^d
through d pairwise-commuting generators.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .errors import InvalidFamily, ShapeMismatch
from .matcore import as_matrix, op_norm, random_unitary
from .vnalg import AlgebraElement, BlockStructure, identity_element

COMMUTE_TOL = 1e-9
CHOI_PRUNE_TOL = 1e-13


def _cached_on_argument(fn):
    """Memoise fn(obj, ...) on obj, keyed by the remaining bound arguments.

    Families, fixed spaces and elements are immutable, so a result computed
    once serves every later call with the same arguments.
    `fn.built_or_default(obj, *args)` returns the oldest result already
    computed on obj whose arguments after obj begin with args, else
    fn(obj, *args) at the remaining defaults.
    """
    signature = inspect.signature(fn)

    @wraps(fn)
    def cached(obj, *args, **kwargs):
        bound = signature.bind(obj, *args, **kwargs)
        bound.apply_defaults()
        key = (fn.__name__, *list(bound.arguments.values())[1:])
        memo = vars(obj).setdefault("_derived", {})
        if key not in memo:
            memo[key] = fn(obj, *args, **kwargs)
        return memo[key]

    def built_or_default(obj, *args):
        for key, value in vars(obj).get("_derived", {}).items():
            if key[0] == fn.__name__ and key[1 : 1 + len(args)] == args:
                return value
        return cached(obj, *args)

    cached.built_or_default = built_or_default
    return cached


@dataclass(frozen=True, eq=False)
class CPMap:
    """Block-Kraus form of a completely positive map."""

    source: BlockStructure
    target: BlockStructure
    kraus: tuple  # ((j, i), (ops...)) pairs, sorted by (j, i)

    def ops(self, j: int, i: int):
        for (jj, ii), ops in self.kraus:
            if (jj, ii) == (j, i):
                return ops
        return ()

    @property
    def is_endomap(self) -> bool:
        return self.source == self.target

    @cached_property
    def superop(self) -> np.ndarray:
        """The superoperator, built once per map and read-only, since callers share it."""
        s = to_superoperator(self)
        s.flags.writeable = False
        return s


def cp_map(source: BlockStructure, target: BlockStructure, kraus: dict) -> CPMap:
    """Validated constructor; kraus maps (j, i) -> iterable of matrices."""
    items = []
    for (j, i), ops in sorted(kraus.items()):
        if not (0 <= j < target.num_blocks and 0 <= i < source.num_blocks):
            raise ShapeMismatch(f"kraus block index ({j}, {i}) out of range")
        nj, ni = target.block_dims[j], source.block_dims[i]
        fixed = []
        for a in ops:
            m = as_matrix(a, f"kraus op ({j},{i})")
            if m.shape != (nj, ni):
                raise ShapeMismatch(f"kraus op ({j},{i}) is {m.shape}, expected ({nj},{ni})")
            fixed.append(m)
        if fixed:
            items.append(((j, i), tuple(fixed)))
    return CPMap(source, target, tuple(items))


def identity_map(structure: BlockStructure) -> CPMap:
    kraus = {(i, i): [np.eye(n, dtype=complex)] for i, n in enumerate(structure.block_dims)}
    return cp_map(structure, structure, kraus)


def conjugation_map(structure: BlockStructure, ops) -> CPMap:
    """Single-Kraus blockwise map x_i -> a_i x_i a_i*."""
    kraus = {(i, i): [ops[i]] for i in range(structure.num_blocks)}
    return cp_map(structure, structure, kraus)


def apply(phi: CPMap, x: AlgebraElement) -> AlgebraElement:
    if x.structure != phi.source:
        raise ShapeMismatch("element does not live on the map's source structure")
    blocks = [np.zeros((n, n), dtype=complex) for n in phi.target.block_dims]
    for (j, i), ops in phi.kraus:
        xi = x.blocks[i]
        for a in ops:
            blocks[j] += a @ xi @ a.conj().T
    return AlgebraElement(phi.target, tuple(blocks))


def _choi_from_ops(ops, nj: int, ni: int) -> np.ndarray:
    vecs = np.stack([a.T.ravel() for a in ops])
    return vecs.T @ vecs.conj()


def _ops_from_choi(c: np.ndarray, nj: int, ni: int, tol: float = CHOI_PRUNE_TOL):
    w, v = np.linalg.eigh(0.5 * (c + c.conj().T))
    scale = max(1.0, float(w[-1]) if w.size else 0.0)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > tol * scale:
            ops.append(np.sqrt(lam) * vec.reshape(ni, nj).T)
    return ops


def compose(phi: CPMap, psi: CPMap) -> CPMap:
    """Kraus form of phi after psi: apply(compose(phi, psi), x) = phi(psi(x))."""
    if psi.target != phi.source:
        raise ShapeMismatch("structures do not chain")
    kraus = {}
    for (j, k), aops in phi.kraus:
        for (kk, i), bops in psi.kraus:
            if kk != k:
                continue
            kraus.setdefault((j, i), []).extend(a @ b for a in aops for b in bops)
    pruned = {}
    for (j, i), ops in kraus.items():
        nj, ni = phi.target.block_dims[j], psi.source.block_dims[i]
        if len(ops) > nj * ni:
            ops = _ops_from_choi(_choi_from_ops(ops, nj, ni), nj, ni)
        pruned[(j, i)] = ops
    return cp_map(psi.source, phi.target, pruned)


def to_superoperator(phi: CPMap) -> np.ndarray:
    """Matrix of an endomap in the matrix-unit coordinates of its structure."""
    if not phi.is_endomap:
        raise ShapeMismatch("superoperator requires source = target")
    st = phi.source
    d = st.coord_dim
    s = np.zeros((d, d), dtype=complex)
    slices = st.coord_slices()
    for (j, i), ops in phi.kraus:
        for a in ops:
            s[slices[j], slices[i]] += np.kron(a, a.conj())
    return s


def choi_min_eig(matrix: np.ndarray, structure: BlockStructure) -> float:
    """Smallest eigenvalue of the blockwise Choi matrices of a superoperator."""
    slices = structure.coord_slices()
    worst = np.inf
    for j, nj in enumerate(structure.block_dims):
        for i, ni in enumerate(structure.block_dims):
            sji = matrix[slices[j], slices[i]]
            c = sji.reshape(nj, nj, ni, ni).transpose(2, 0, 3, 1).reshape(ni * nj, ni * nj)
            worst = min(worst, float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0]))
    return worst


@dataclass(frozen=True)
class CPReport:
    is_cp: bool
    is_contractive: bool
    is_unital: bool
    unital_defect: float
    contractive_floor: float


def validate_cp(phi: CPMap, tol: float = 1e-9) -> CPReport:
    """CP / contractive / unital flags; Kraus form is CP by construction."""
    one = identity_element(phi.source)
    img = apply(phi, one)
    unital_defect = (img - identity_element(phi.target)).norm()
    floor = 0.0
    contractive = True
    for n, b in zip(phi.target.block_dims, img.blocks):
        w = np.linalg.eigvalsh(0.5 * ((np.eye(n) - b) + (np.eye(n) - b).conj().T))
        lo = float(w[0]) if w.size else 0.0
        floor = min(floor, lo)
        if lo < -tol:
            contractive = False
    return CPReport(
        is_cp=True,
        is_contractive=contractive,
        is_unital=bool(unital_defect <= tol),
        unital_defect=float(unital_defect),
        contractive_floor=float(floor),
    )


def _unit_product_table(structure: BlockStructure) -> np.ndarray:
    """table[k, l] = coordinate index of E_k E_l, or D when the product is 0."""
    d = structure.coord_dim
    table = np.full((d, d), d, dtype=int)
    offsets = [s.start for s in structure.coord_slices()]
    for bi, n in enumerate(structure.block_dims):
        off = offsets[bi]
        for a in range(n):
            for b in range(n):
                k = off + a * n + b
                for c in range(n):
                    table[k, off + b * n + c] = off + a * n + c
    return table


def _adjoint_permutation(structure: BlockStructure) -> np.ndarray:
    """Permutation matrix K with coords(x*) = K conj(coords(x))."""
    d = structure.coord_dim
    k = np.zeros((d, d))
    offsets = [s.start for s in structure.coord_slices()]
    for bi, n in enumerate(structure.block_dims):
        off = offsets[bi]
        for a in range(n):
            for b in range(n):
                k[off + b * n + a, off + a * n + b] = 1.0
    return k


def validate_endomorphism(alpha: CPMap, tol: float = 1e-9) -> bool:
    """True iff alpha is multiplicative and *-preserving on the unit basis."""
    if not alpha.is_endomap:
        raise ShapeMismatch("endomorphism check requires source = target")
    st = alpha.source
    s = alpha.superop
    k = _adjoint_permutation(st)
    if op_norm(s @ k - k @ s.conj()) > tol:
        return False
    d = st.coord_dim
    table = _unit_product_table(st)
    s_ext = np.hstack([s, np.zeros((d, 1), dtype=complex)])
    lhs = s_ext[:, table]  # (d, d, d): coords of alpha(E_k E_l)
    # coords of alpha(E_k) alpha(E_l), block by block
    rhs = np.zeros((d, d, d), dtype=complex)
    slices = st.coord_slices()
    for bi, n in enumerate(st.block_dims):
        img = s[slices[bi], :].T.reshape(d, n, n)  # alpha(E_k) block bi
        prod = np.einsum("pij,qjk->pqik", img, img)
        rhs[slices[bi], :, :] = prod.reshape(d, d, n * n).transpose(2, 0, 1)
    return bool(np.max(np.abs(lhs - rhs)) <= tol)


@dataclass(frozen=True, eq=False)
class SemigroupFamily:
    """d pairwise-commuting generators presenting {beta_s}_{s in N^d}."""

    structure: BlockStructure
    generators: tuple
    is_endomorphic: bool = False

    @property
    def rank(self) -> int:
        return len(self.generators)

    @cached_property
    def theta(self) -> np.ndarray:
        """Superoperator of the diagonal step: every generator applied once."""
        theta = np.eye(self.structure.coord_dim, dtype=complex)
        for gen in self.generators:
            theta = gen.superop @ theta
        theta.flags.writeable = False
        return theta

    def theta_square(self, k: int) -> np.ndarray:
        """theta^(2^k), by repeated squaring; every square is kept on the family."""
        squares = vars(self).setdefault("_theta_squares", [self.theta])
        while len(squares) <= k:
            squares.append(squares[-1] @ squares[-1])
        return squares[k]


@dataclass(frozen=True)
class FamilyReport:
    ok: bool
    commutator_norms: tuple
    cp_reports: tuple
    endo_flags: tuple
    is_endomorphic: bool
    reason: str = ""


def validate_family(family: SemigroupFamily, tol: float = COMMUTE_TOL) -> FamilyReport:
    gens = family.generators
    sups = [g.superop for g in gens]
    comms = []
    worst = 0.0
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            c = op_norm(sups[a] @ sups[b] - sups[b] @ sups[a])
            comms.append((a, b, float(c)))
            worst = max(worst, c)
    reports = tuple(validate_cp(g, tol) for g in gens)
    endo = tuple(validate_endomorphism(g, tol) for g in gens)
    ok = worst <= tol and all(r.is_cp and r.is_contractive for r in reports)
    reason = ""
    if worst > tol:
        reason = f"generators do not commute (worst commutator norm {worst:g})"
    elif not all(r.is_contractive for r in reports):
        reason = "some generator is not contractive"
    return FamilyReport(ok, tuple(comms), reports, endo, all(endo) and bool(endo), reason)


def make_family(generators, tol: float = COMMUTE_TOL, expect_endomorphic: bool = False) -> SemigroupFamily:
    """Checked family constructor; raises InvalidFamily on violations."""
    gens = tuple(generators)
    if not gens:
        raise InvalidFamily("family needs at least one generator")
    st = gens[0].source
    for g in gens:
        if g.source != st or g.target != st:
            raise InvalidFamily("generators must be endomaps of one structure")
    fam = SemigroupFamily(st, gens)
    rep = validate_family(fam, tol)
    if not rep.ok:
        raise InvalidFamily(rep.reason or "family validation failed")
    if expect_endomorphic and not rep.is_endomorphic:
        raise InvalidFamily("family is not endomorphic")
    return SemigroupFamily(st, gens, rep.is_endomorphic)


def apply_power(family: SemigroupFamily, s, x: AlgebraElement) -> AlgebraElement:
    """beta_s(x) by repeated application, avoiding Kraus blow-up."""
    for gen, count in zip(family.generators, s):
        for _ in range(int(count)):
            x = apply(gen, x)
    return x


# ---------------------------------------------------------------------------
# Shipped model families


def identity_family(structure: BlockStructure, d: int = 1) -> SemigroupFamily:
    return make_family([identity_map(structure) for _ in range(d)])


def rotation_family(theta: float = np.pi / 3) -> SemigroupFamily:
    """Conjugation y -> u y u* by u = diag(1, e^{i theta}) on M_2."""
    st = BlockStructure((2,))
    u = np.diag([1.0, np.exp(1j * theta)])
    return make_family([conjugation_map(st, [u])])


def damping_family(gamma: float = 0.5) -> SemigroupFamily:
    """Heisenberg-picture amplitude damping on M_2 (unital)."""
    if not 0.0 <= gamma <= 1.0:
        raise ShapeMismatch(f"damping rate {gamma} outside [0, 1]")
    st = BlockStructure((2,))
    a0 = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    a1 = np.array([[0.0, 0.0], [np.sqrt(gamma), 0.0]], dtype=complex)
    return make_family([cp_map(st, st, {(0, 0): [a0, a1]})])


def leaky_damping_family(c: float = 0.5, s: float = 0.5) -> SemigroupFamily:
    """Non-unital damping on M_2 whose fixed space is not an algebra.

    Kraus operators diag(1, c) and s E_10 with c^2 + s^2 < 1.  The unique
    fixed direction is E_00 + k E_11 with k = s^2 / (1 - c^2) < 1, whose
    square leaves the span; the generated algebra is the diagonal and the
    mean projection kills E_11.
    """
    if c * c + s * s >= 1.0:
        raise ShapeMismatch("leaky damping needs c^2 + s^2 < 1")
    st = BlockStructure((2,))
    a0 = np.diag([1.0, c]).astype(complex)
    a1 = np.array([[0.0, 0.0], [s, 0.0]], dtype=complex)
    return make_family([cp_map(st, st, {(0, 0): [a0, a1]})])


_PHASE_POOL = 2.0 * np.pi * np.arange(6) / 6.0


def _random_phases(rng: np.random.Generator, n: int, discrete_prob: float) -> np.ndarray:
    if rng.uniform() < discrete_prob:
        return rng.choice(_PHASE_POOL, size=n)
    return rng.uniform(0.0, 2.0 * np.pi, size=n)


def mixture_family(seed, dims=(2, 3), terms: int = 3, d: int = 1, discrete_prob: float = 0.5):
    """Convex mixtures of commuting unitary conjugations; returns the family.

    All unitaries, across all terms and all generators, share one random
    eigenbasis per block, so the generators commute exactly by
    construction.  Discrete phase draws create phase collisions and with
    them fixed spaces larger than the diagonal.
    """
    family, _ = mixture_family_with_data(seed, dims=dims, terms=terms, d=d, discrete_prob=discrete_prob)
    return family


def mixture_family_with_data(seed, dims=(2, 3), terms: int = 3, d: int = 1, discrete_prob: float = 0.5):
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    st = BlockStructure(tuple(dims))
    bases = [random_unitary(rng, n) for n in st.block_dims]
    gen_maps = []
    data = {"weights": [], "phases": []}
    for _ in range(d):
        w = rng.uniform(0.2, 1.0, size=terms)
        w = w / w.sum()
        kraus = {}
        phases_per_block = []
        for i, (n, v) in enumerate(zip(st.block_dims, bases)):
            phases = [_random_phases(rng, n, discrete_prob) for _ in range(terms)]
            kraus[(i, i)] = [np.sqrt(w[m]) * ((v * np.exp(1j * phases[m])) @ v.conj().T) for m in range(terms)]
            phases_per_block.append(phases)
        gen_maps.append(cp_map(st, st, kraus))
        data["weights"].append(w)
        data["phases"].append(phases_per_block)
    return make_family(gen_maps), data


def mixture_fixed_dim(data, dims) -> int:
    """Combinatorial count of the fixed-space dimension of a mixture family.

    A matrix unit in the shared eigenbasis is fixed iff its two phase
    columns agree exactly across every term of every generator.
    """
    total = 0
    for i, n in enumerate(dims):
        cols = np.stack(
            [data["phases"][g][i][m] for g in range(len(data["phases"])) for m in range(len(data["phases"][g][i]))]
        )
        for a in range(n):
            for b in range(n):
                if np.all(cols[:, a] == cols[:, b]):
                    total += 1
    return total
