import numpy as np
import pytest

from cpfix.errors import CoInvarianceViolated, CpfixError, NotUnitary, SemigroupLawViolated, ShapeMismatch
from cpfix.matcore import is_psd, op_norm, random_unitary
from cpfix.vnalg import (
    AlgebraElement,
    BlockStructure,
    CornerEmbedding,
    _compressed,
    _injected,
    compress,
    identity_element,
    inject,
)
from cpfix.cpsemi import (
    apply,
    apply_power,
    compose,
    conjugation_map,
    cp_map,
    damping_family,
    make_family,
    to_superoperator,
)
from cpfix.dilation import (
    Minimality,
    block_zero_projection,
    build_random_instance,
    build_tail_shift,
    check_coinvariance,
    check_minimality,
    compress_map,
    compress_semigroup,
    make_instance,
    tail_shift_map,
)
from cpfix.fixpoint import fixed_space

from helpers import identity_map, random_element

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_coinvariance_full_projection():
    st = BlockStructure((2, 2))
    alpha = make_family([identity_map(st)], expect_endomorphic=True)
    assert check_coinvariance(alpha, identity_element(st))


def test_coinvariance_tail_shift():
    shift = tail_shift_map(2, 2, PAULI_X)
    alpha = make_family([shift], expect_endomorphic=True)
    p = block_zero_projection(shift.source)
    assert check_coinvariance(alpha, p)
    # blockwise: alpha(1-p) = (0, 0, 1) <= (0, 1, 1)
    q = identity_element(shift.source) - p
    img = apply(shift, q)
    assert img.blocks[0].max() == 0.0 and img.blocks[1].max() == 0.0


def test_coinvariance_fails_generically():
    rng = np.random.default_rng(0)
    st = BlockStructure((2,))
    u = random_unitary(rng, 2)
    alpha = make_family([conjugation_map(st, [u])], expect_endomorphic=True)
    p = AlgebraElement(st, (np.diag([1.0, 0.0]).astype(complex),))
    # a generic unitary rotates the range of 1-p off itself
    assert not check_coinvariance(alpha, p)


def test_minimality_full_projection():
    st = BlockStructure((2,))
    alpha = make_family([identity_map(st)], expect_endomorphic=True)
    res = check_minimality(alpha, identity_element(st))
    assert res.status is Minimality.MINIMAL and res.steps == 0


def test_minimality_tail_shift_exact():
    inst = build_tail_shift(2, 2, PAULI_X)
    res = check_minimality(inst.alpha, inst.p)
    assert res.status is Minimality.MINIMAL
    assert res.steps <= 2
    assert res.final_defect_norm == 0.0


def test_minimality_identity_control():
    st = BlockStructure((2, 2))
    alpha = make_family([identity_map(st)], expect_endomorphic=True)
    p = AlgebraElement(st, (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
    res = check_minimality(alpha, p)
    assert res.status is Minimality.NON_MINIMAL
    q = identity_element(st) - p
    assert (res.limit - q).norm() == 0.0


def test_minimality_requires_coinvariance():
    rng = np.random.default_rng(1)
    st = BlockStructure((2,))
    alpha = make_family([conjugation_map(st, [random_unitary(rng, 2)])], expect_endomorphic=True)
    p = AlgebraElement(st, (np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(CoInvarianceViolated):
        check_minimality(alpha, p)


def test_minimality_requires_endomorphic_family():
    # p = diag(1, 0) is co-invariant under damping, but its defects decay
    # geometrically rather than as projections, so the exact rule does not apply
    fam = damping_family(0.5)
    p = AlgebraElement(fam.structure, (np.diag([1.0, 0.0]).astype(complex),))
    assert check_coinvariance(fam, p)
    with pytest.raises(ShapeMismatch):
        check_minimality(fam, p)


def test_minimality_raises_past_the_rank_bound():
    st = BlockStructure((2,))
    alpha = make_family([identity_map(st)], expect_endomorphic=True)
    # a diagonal step that flips the sign of every defect breaks the rank descent
    vars(alpha)["theta"] = -np.eye(st.coord_dim, dtype=complex)
    p = AlgebraElement(st, (np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(CpfixError, match=r"tr\(1-p\) = 1"):
        check_minimality(alpha, p)


def test_minimality_reads_a_rounded_endomorphism_as_the_exact_one():
    # the fixed 1x1 block scales by 1 - 5e-10, which still passes the endomorphism check at 1e-9;
    # its defect then moves by 5e-10 per step, which a tolerance rule never calls fixed
    shift = tail_shift_map(2, 3, PAULI_X)
    st = BlockStructure((2, 2, 2, 2, 1))
    leak = np.sqrt(1.0 - 5e-10) * np.eye(1)
    alpha = make_family([cp_map(st, st, {**dict(shift.kraus), (4, 4): [leak]})], expect_endomorphic=True)
    res = check_minimality(alpha, block_zero_projection(st))
    assert (res.status, res.steps) == (Minimality.NON_MINIMAL, 4)
    assert abs(res.final_defect_norm - (1.0 - 5e-10) ** 4) <= 1e-15


def kraus_diag_step(family, x):
    """One diagonal step in Kraus form: every generator applied once."""
    for gen in family.generators:
        x = apply(gen, x)
    return x


def test_minimality_monotone_defects():
    for seed in (42, 43):
        inst = build_random_instance(seed, n_max=3, m_max=4, d=1 + seed % 2)
        prev = identity_element(inst.structure) - inst.p
        for _ in range(5):
            nxt = kraus_diag_step(inst.alpha, prev)
            assert all(is_psd(b, 1e-9) for b in (prev - nxt).blocks)
            prev = nxt


def looped_minimality(alpha, p, tol=1e-10, max_iter=10000):
    """A tolerance rule with a fixedness guard, one element at a time: (status, steps, final_defect_norm, limit)."""
    defect = identity_element(alpha.structure) - p
    for n in range(max_iter):
        if defect.norm() <= 10.0 * tol:
            return Minimality.MINIMAL, n, defect.norm(), None
        nxt = kraus_diag_step(alpha, defect)
        if (nxt - defect).norm() <= tol:
            if nxt.norm() <= 10.0 * tol:
                return Minimality.MINIMAL, n + 1, nxt.norm(), None
            if (kraus_diag_step(alpha, nxt) - nxt).norm() <= 10.0 * tol:
                return Minimality.NON_MINIMAL, n + 1, nxt.norm(), nxt
        defect = nxt
    raise AssertionError(f"no verdict within {max_iter} steps")


def test_minimality_matches_looped_reference():
    st = BlockStructure((2, 2))
    identity = make_family([identity_map(st)], expect_endomorphic=True)
    half = AlgebraElement(st, (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
    tail = build_tail_shift(2, 3, np.diag([1.0, np.exp(0.9j)]))
    # the same tail shift beside a fixed 1x1 block: the defect loses rank for 3 steps,
    # then stops at the extra block's unit, so the verdict is NON_MINIMAL at steps = 4
    st_fixed = BlockStructure((2, 2, 2, 2, 1))
    with_fixed = cp_map(st_fixed, st_fixed, {**dict(tail.alpha.generators[0].kraus), (4, 4): [np.eye(1)]})
    fixed_block = make_family([with_fixed], expect_endomorphic=True)
    # a scalar tail shift reaches d_r = 0 at exactly steps = r = tr(1-p) = 4
    scalar = build_tail_shift(1, 4, np.eye(1))
    cases = [
        (identity, half),
        (tail.alpha, tail.p),
        (fixed_block, block_zero_projection(st_fixed)),
        (scalar.alpha, scalar.p),
    ]
    # with d = 2 the second generator is a global conjugation (seed 5) or that conjugation after the shift (seed 4)
    for seed, d in ((4, 2), (5, 2), (11, 2), (42, 1)):
        inst = build_random_instance(seed, n_max=3, m_max=4, d=d)
        cases.append((inst.alpha, inst.p))
    verdicts = []
    for alpha, p in cases:
        res = check_minimality(alpha, p)
        status, steps, norm, limit = looped_minimality(alpha, p)
        assert (res.status, res.steps) == (status, steps)
        assert abs(res.final_defect_norm - norm) <= 1e-12
        assert (res.limit is None) == (limit is None)
        if limit is not None:
            assert (res.limit - limit).norm() <= 1e-12
        verdicts.append((status, steps))
    assert {status for status, _ in verdicts} == {Minimality.MINIMAL, Minimality.NON_MINIMAL}
    assert verdicts[2:4] == [(Minimality.NON_MINIMAL, 4), (Minimality.MINIMAL, 4)]
    unit = AlgebraElement(st_fixed, (*[np.zeros((2, 2), dtype=complex)] * 4, np.eye(1, dtype=complex)))
    assert (check_minimality(fixed_block, block_zero_projection(st_fixed)).limit - unit).norm() <= 1e-12


def test_compress_full_projection_is_identity_compression():
    inst_st = BlockStructure((2, 2))
    u = random_unitary(np.random.default_rng(2), 2)
    alpha = make_family([conjugation_map(inst_st, [u, u])], expect_endomorphic=True)
    emb, phi = compress_semigroup(alpha, identity_element(inst_st))
    assert op_norm(
        to_superoperator(phi.generators[0]) - to_superoperator(alpha.generators[0])
    ) < 1e-12


def test_compress_tail_shift_gives_conjugation():
    u = random_unitary(np.random.default_rng(3), 2)
    inst = build_tail_shift(2, 3, u)
    corner_st = inst.emb.corner
    direct = conjugation_map(corner_st, [u])
    gap = op_norm(
        to_superoperator(inst.phi.generators[0]) - to_superoperator(direct)
    )
    assert gap <= 1e-10


def test_compress_single_kraus_contraction():
    u = random_unitary(np.random.default_rng(4), 2)
    inst = build_tail_shift(2, 1, u)
    ops = inst.phi.generators[0].ops(0, 0)
    assert len(ops) == 1
    assert op_norm(ops[0]) <= 1.0 + 1e-12


def reference_semigroup_law(alpha, emb, samples=20, seed=0):
    """The law through Kraus compose: superoperators per generator pair, then sampled elements.

    Raises SemigroupLawViolated as compress_semigroup does.
    """
    gens = [compress_map(g, emb) for g in alpha.generators]
    rng = np.random.default_rng(seed)
    for a_idx, ag in enumerate(alpha.generators):
        for b_idx, bg in enumerate(alpha.generators):
            ambient_pair = compose(ag, bg)
            corner_pair = compose(gens[a_idx], gens[b_idx])
            gap = op_norm(compress_map(ambient_pair, emb).superop - corner_pair.superop)
            if gap > 1e-9:
                raise SemigroupLawViolated(f"compressed generators {a_idx},{b_idx} break the semigroup law (gap {gap:g})")
            for _ in range(samples):
                y = random_element(emb.corner, rng)
                lhs = compress(emb, apply(ambient_pair, inject(emb, y)))
                rhs = apply(corner_pair, y)
                if (lhs - rhs).norm() > 1e-9 * max(1.0, y.norm()):
                    raise SemigroupLawViolated("sampled semigroup-law check failed")


def test_law_matrix_matches_the_composed_superoperator():
    for seed in range(30):
        for d in (1, 2):
            inst = build_random_instance(seed, d=d)
            alpha, emb = inst.alpha, inst.emb
            reference_semigroup_law(alpha, emb)
            inj = _injected(emb, np.eye(emb.corner.coord_dim, dtype=complex))
            for a_idx, ag in enumerate(alpha.generators):
                for b_idx, bg in enumerate(alpha.generators):
                    law = _compressed(emb, ag.superop @ (bg.superop @ inj))
                    assert op_norm(law - compress_map(compose(ag, bg), emb).superop) <= 1e-12
                    corner_pair = inst.phi.generators[a_idx].superop @ inst.phi.generators[b_idx].superop
                    assert op_norm(law - corner_pair) <= 1e-9


def test_semigroup_law_alarm_on_corrupt_embedding():
    # a non-isometric "embedding" destroys multiplicativity of corners
    shift = tail_shift_map(2, 2, PAULI_X)
    alpha = make_family([shift], expect_endomorphic=True)
    p = block_zero_projection(shift.source)
    v = np.diag([1.0, 0.5]).astype(complex)
    bad = CornerEmbedding(
        shift.source,
        BlockStructure((2,)),
        p,
        (v,),
        (0,),
    )
    with pytest.raises(SemigroupLawViolated, match="compressed generators 0,0 break the semigroup law"):
        compress_semigroup(alpha, p, emb=bad)
    with pytest.raises(SemigroupLawViolated, match="compressed generators 0,0 break the semigroup law"):
        reference_semigroup_law(alpha, bad)


def test_compress_requires_coinvariance():
    rng = np.random.default_rng(5)
    st = BlockStructure((2,))
    alpha = make_family([conjugation_map(st, [random_unitary(rng, 2)])], expect_endomorphic=True)
    p = AlgebraElement(st, (np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(CoInvarianceViolated):
        compress_semigroup(alpha, p)


def test_build_tail_shift_scalar():
    inst = build_tail_shift(1, 1, np.array([[1.0]], dtype=complex))
    assert inst.structure.block_dims == (1, 1)
    assert fixed_space(inst.alpha).dimension == 1  # constants (c, c)
    assert fixed_space(inst.phi).dimension == 1


def test_build_tail_shift_pauli_dims():
    inst = build_tail_shift(2, 2, PAULI_X)
    # commutant of X is span{1, X}
    assert fixed_space(inst.alpha).dimension == 2
    assert fixed_space(inst.phi).dimension == 2


def test_build_tail_shift_rotation_dims():
    u = np.diag([1.0, np.exp(1j * np.pi / 3)])
    inst = build_tail_shift(2, 2, u)
    assert fixed_space(inst.phi).dimension == 2  # diagonal matrices


def test_build_tail_shift_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        build_tail_shift(2, 2, np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(NotUnitary):
        build_tail_shift(2, 2, np.eye(3))


def test_build_random_instance_deterministic():
    a = build_random_instance(17, n_max=3, m_max=4, d=2)
    b = build_random_instance(17, n_max=3, m_max=4, d=2)
    assert a.structure == b.structure
    for ga, gb in zip(a.alpha.generators, b.alpha.generators):
        assert op_norm(to_superoperator(ga) - to_superoperator(gb)) == 0.0


def test_build_random_instance_bounds():
    with pytest.raises(ShapeMismatch):
        build_random_instance(0, n_max=9)
    with pytest.raises(ShapeMismatch):
        build_random_instance(0, d=3)


@pytest.mark.parametrize("seed", range(30))
def test_build_random_instance_properties(seed):
    inst = build_random_instance(seed, n_max=3, m_max=4, d=1 + seed % 2)
    assert check_coinvariance(inst.alpha, inst.p)
    res = check_minimality(inst.alpha, inst.p)
    assert res.status is Minimality.MINIMAL
    q = identity_element(inst.structure) - inst.p
    assert res.steps <= round(sum(np.trace(b).real for b in q.blocks))
    # composite co-invariance for every multi-index with |s| <= 4
    d = inst.alpha.rank
    indices = [(a,) for a in range(1, 5)] if d == 1 else [
        (a, b) for a in range(5) for b in range(5) if 1 <= a + b <= 4
    ]
    for s in indices:
        img = apply_power(inst.alpha, s, q)
        assert all(is_psd(b, 1e-9) for b in (q - img).blocks)


def test_make_instance_rejects_cp_only_family():
    from cpfix.cpsemi import damping_family

    fam = damping_family(0.5)
    with pytest.raises(ShapeMismatch):
        make_instance(fam, identity_element(fam.structure))
