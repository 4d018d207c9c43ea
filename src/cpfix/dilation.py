"""Endomorphic dilations: co-invariance, minimality, corner compression.

A dilation instance is an endomorphic commuting family {alpha_s} on an
ambient algebra M together with a projection p satisfying
alpha(1-p) <= 1-p for every generator.  The compressed family
phi(y) = p alpha(y) p lives on the corner N = pMp.  Minimality asks that
the defect net alpha_s(1-p) shrink to zero along the diagonal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CoInvarianceViolated, CpfixError, NotUnitary, SemigroupLawViolated, ShapeMismatch
from .matcore import is_psd, op_norm, random_unitary
from .cpsemi import (
    CPMap,
    SemigroupFamily,
    _cached_on_argument,
    apply,
    compose,
    conjugation_map,
    cp_map,
    make_family,
)
from .vnalg import (
    AlgebraElement,
    BlockStructure,
    CornerEmbedding,
    _compressed,
    _injected,
    _norms,
    _norms_within,
    corner,
    element_from_coords,
    identity_element,
    validate_projection,
)

PSD_CHECK_TOL = 1e-9  # co-invariance: (1-p) - alpha_i(1-p) is PSD within this
# tolerance of the semigroup-law check of compress_semigroup
LAW_TOL = 1e-9
UNITARY_TOL = 1e-9  # build_tail_shift: u*u = 1 within this (its NotUnitary message spells the value)


def element_is_psd(x: AlgebraElement) -> bool:
    """Every block is PSD within PSD_CHECK_TOL, as is_psd decides it."""
    return all(is_psd(b, PSD_CHECK_TOL) for b in x.blocks)


@_cached_on_argument
def check_coinvariance(alpha: SemigroupFamily, p: AlgebraElement) -> bool:
    """True iff (1-p) - alpha_i(1-p) is PSD for every generator.

    Generator-level checking suffices: endomorphisms preserve order, so
    composites inherit the inequality.  The verdict is cached on alpha,
    keyed by p, so compression and minimality share one check.
    """
    q = identity_element(alpha.structure) - p
    for gen in alpha.generators:
        if not element_is_psd(q - apply(gen, q)):
            return False
    return True


class Minimality(enum.Enum):
    MINIMAL = "minimal"
    NON_MINIMAL = "non_minimal"


@dataclass(frozen=True, eq=False)
class MinimalityResult:
    status: Minimality
    steps: int
    final_defect_norm: float
    limit: AlgebraElement | None = None


@_cached_on_argument
def check_minimality(alpha: SemigroupFamily, p: AlgebraElement) -> MinimalityResult:
    """Decide inf_s alpha_s(1-p) = 0 along the diagonal t_n = (n, ..., n), exactly.

    The diagonal step theta is a *-endomorphism, so every defect
    d_n = theta^n(1-p) is a projection, and co-invariance gives
    d_{n+1} <= d_n.  Two distinct comparable projections differ by a
    nonzero projection, so ||d_{n+1} - d_n|| is 0 or 1, and once
    d_{n+1} = d_n the defect is fixed for good.  The net therefore loses
    at least one unit of rank per step until it stops, within
    r = tr(1-p) steps: alpha is minimal iff d_r = 0.  Norms, which are
    0 or 1 up to rounding, are compared with 1/2 by `_norms_within`, whose
    screens leave only the reported norm to an eigensolver on most steps.
    The net is iterated on coordinates; the result is cached on alpha, keyed by p.
    """
    if not alpha.is_endomorphic:
        raise ShapeMismatch("minimality is decided for *-endomorphic families only")
    if not check_coinvariance(alpha, p):
        raise CoInvarianceViolated("alpha(1-p) <= 1-p fails for some generator")
    st = alpha.structure
    theta = alpha.theta

    def norm(v: np.ndarray) -> float:
        return float(_norms(st, v)[0])

    q = identity_element(st) - p
    rank = round(sum(np.trace(b).real for b in q.blocks))
    defect = q.coords()[:, None]
    for n in range(rank + 1):
        if _norms_within(st, defect, 0.5)[0]:
            return MinimalityResult(Minimality.MINIMAL, n, norm(defect))
        nxt = theta @ defect
        if _norms_within(st, nxt - defect, 0.5)[0]:
            return MinimalityResult(Minimality.NON_MINIMAL, n + 1, norm(nxt), limit=element_from_coords(st, nxt))
        defect = nxt
    raise CpfixError(
        f"the defect net kept moving for {rank + 1} steps, more than tr(1-p) = {rank} allows: "
        "the diagonal step is not a *-endomorphism or p is not a co-invariant projection"
    )


def compress_map(phi: CPMap, emb: CornerEmbedding) -> CPMap:
    """Corner Kraus form {u_j* A u_i} of an ambient endomap."""
    if phi.source != emb.ambient or phi.target != emb.ambient:
        raise ShapeMismatch("map does not act on the ambient structure")
    pos = {amb: idx for idx, amb in enumerate(emb.kept)}
    kraus = {}
    for (j, i), ops in phi.kraus:
        if j not in pos or i not in pos:
            continue
        uj = emb.isometries[pos[j]]
        ui = emb.isometries[pos[i]]
        kraus[(pos[j], pos[i])] = [uj.conj().T @ a @ ui for a in ops]
    return cp_map(emb.corner, emb.corner, kraus)


def compress_semigroup(
    alpha: SemigroupFamily,
    p: AlgebraElement,
    emb: CornerEmbedding | None = None,
) -> tuple[CornerEmbedding, SemigroupFamily]:
    """Compress every generator to the corner and verify the semigroup law.

    The law phi_{s+t} = phi_s phi_t is checked for every generator pair
    (a, b) as one matrix identity, C S_a S_b J = (C S_a J)(C S_b J), with
    S the ambient superoperators, J injection and C compression, so it
    covers every matrix unit; violation signals corrupted input.
    """
    if not check_coinvariance(alpha, p):
        raise CoInvarianceViolated("cannot compress without co-invariance")
    if emb is None:
        emb = corner(alpha.structure, p)
    gens = [compress_map(g, emb) for g in alpha.generators]
    inj = _injected(emb, np.eye(emb.corner.coord_dim, dtype=complex))  # J: the injected corner units
    for a_idx, ag in enumerate(alpha.generators):
        for b_idx, bg in enumerate(alpha.generators):
            law = _compressed(emb, ag.superop @ (bg.superop @ inj))
            gap = op_norm(law - gens[a_idx].superop @ gens[b_idx].superop)
            if gap > LAW_TOL:
                raise SemigroupLawViolated(
                    f"compressed generators {a_idx},{b_idx} break the semigroup law (gap {gap:g})"
                )
    return emb, make_family(gens)


@dataclass(frozen=True, eq=False)
class DilationInstance:
    """Ambient endomorphic family, co-invariant projection, derived corner."""

    structure: BlockStructure
    alpha: SemigroupFamily
    p: AlgebraElement
    emb: CornerEmbedding
    phi: SemigroupFamily


def make_instance(alpha: SemigroupFamily, p: AlgebraElement) -> DilationInstance:
    if not alpha.is_endomorphic:
        raise ShapeMismatch("dilation families must consist of *-endomorphisms")
    p = validate_projection(p)
    emb, phi = compress_semigroup(alpha, p)
    return DilationInstance(alpha.structure, alpha, p, emb, phi)


def tail_shift_map(n: int, m: int, u: np.ndarray) -> CPMap:
    """alpha(x_0, ..., x_m) = (u x_0 u*, x_0, ..., x_{m-1}) on (m+1) copies of M_n."""
    st = BlockStructure(tuple([n] * (m + 1)))
    kraus = {(0, 0): [np.asarray(u, dtype=complex)]}
    eye = np.eye(n, dtype=complex)
    for j in range(1, m + 1):
        kraus[(j, j - 1)] = [eye]
    return cp_map(st, st, kraus)


def block_zero_projection(st: BlockStructure) -> AlgebraElement:
    blocks = [np.zeros((n, n), dtype=complex) for n in st.block_dims]
    blocks[0] = np.eye(st.block_dims[0], dtype=complex)
    return AlgebraElement(st, tuple(blocks))


def build_tail_shift(n: int, m: int, u: np.ndarray) -> DilationInstance:
    """Minimal dilation model: block tail-shift twisted by a unitary u."""
    if n < 1 or m < 1:
        raise ShapeMismatch(f"tail shift needs n >= 1 and m >= 1, got n={n}, m={m}")
    u = np.asarray(u, dtype=complex)
    if u.shape != (n, n):
        raise NotUnitary(f"unitary must be {n} x {n}, got {u.shape}")
    if op_norm(u.conj().T @ u - np.eye(n)) > UNITARY_TOL:
        raise NotUnitary("matrix fails u*u = 1 within 1e-9")
    alpha = make_family([tail_shift_map(n, m, u)], expect_endomorphic=True)
    return make_instance(alpha, block_zero_projection(alpha.structure))


def build_random_instance(
    seed,
    n_max: int = 4,
    m_max: int = 5,
    d: int = 1,
    n_min: int = 1,
    m_min: int = 1,
    discrete_prob: float = 0.5,
) -> DilationInstance:
    """Reproducible random dilation instance.

    Generators: a tail shift twisted by u plus, for d = 2, a block-global
    automorphism by a unitary commuting with u (two distinct tail shifts
    never commute, so the second generator must act diagonally).
    """
    if not 1 <= n_min <= n_max <= 4 or not 1 <= m_min <= m_max <= 5 or not 1 <= d <= 2:
        raise ShapeMismatch("parameters outside documented bounds (n <= 4, m <= 5, d <= 2)")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(m_min, m_max + 1))
    v = random_unitary(rng, n)

    def commuting_unitary():
        if rng.uniform() < discrete_prob:
            th = rng.choice(2.0 * np.pi * np.arange(6) / 6.0, size=n)
        else:
            th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return (v * np.exp(1j * th)) @ v.conj().T

    u = commuting_unitary()
    shift = tail_shift_map(n, m, u)
    gens = [shift]
    if d == 2:
        w = commuting_unitary()
        st = shift.source
        global_conj = conjugation_map(st, [w] * st.num_blocks)
        gens.append(global_conj if rng.uniform() < 0.5 else compose(global_conj, shift))
    alpha = make_family(gens, expect_endomorphic=True)
    return make_instance(alpha, block_zero_projection(alpha.structure))
