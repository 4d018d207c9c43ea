import numpy as np
import pytest

from cpfix.errors import Divergent, NotContractive, NotFixed, NotInCStar
from cpfix.matcore import op_norm, random_complex, random_unitary
from cpfix.vnalg import (
    AlgebraElement,
    BlockStructure,
    compress,
    element_from_coords,
    identity_element,
)
from cpfix.cpsemi import (
    cp_map,
    damping_family,
    identity_family,
    identity_map,
    leaky_damping_family,
    make_family,
    mixture_family,
    rotation_family,
)
from cpfix.dilation import build_random_instance, build_tail_shift, make_instance
from cpfix.fixpoint import (
    FixedSpace,
    check_complete_isometry,
    cstar_closure,
    ergodic_projection,
    fixed_space,
    kernel_ideal_check,
    lift_fixed_point,
    phi_limit,
    pi_limit,
    property_suite,
)

M2 = BlockStructure((2,))
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def unit(a, b):
    m = np.zeros((2, 2), dtype=complex)
    m[a, b] = 1.0
    return AlgebraElement(M2, (m,))


def test_fixed_space_identity_full():
    fs = fixed_space(identity_family(M2))
    assert fs.dimension == 4


def test_fixed_space_rotation_diagonals():
    fs = fixed_space(rotation_family(np.pi / 3))
    assert fs.dimension == 2
    for b in fs.basis:
        off = b.blocks[0] - np.diag(np.diag(b.blocks[0]))
        assert op_norm(off) < 1e-10
        assert op_norm(b.blocks[0] - b.blocks[0].conj().T) < 1e-12  # hermitian basis


def test_fixed_space_damping_scalars():
    fs = fixed_space(damping_family(0.5))
    assert fs.dimension == 1
    b = fs.basis[0].blocks[0]
    assert op_norm(b - b[0, 0] * np.eye(2)) < 1e-10  # span{1}


def test_fixed_space_adjoint_closed():
    fs = fixed_space(mixture_family(3, dims=(2, 3), terms=3))
    for b in fs.basis:
        coords = b.adjoint().coords()
        proj = fs.matrix @ (fs.matrix.conj().T @ coords)
        assert np.linalg.norm(coords - proj) < 1e-10


def test_cstar_closure_trivial_cases():
    cs = cstar_closure(fixed_space(damping_family(0.5)))
    assert cs.dimension == 1 and cs.is_unital
    cs = cstar_closure(fixed_space(rotation_family()))
    assert cs.dimension == 2 and cs.is_unital  # diagonals already an algebra


def test_cstar_closure_generates_identity():
    # span{X} is not an algebra; X^2 = 1 forces the identity in
    x = AlgebraElement(M2, (PAULI_X / np.sqrt(2.0),))
    fs = FixedSpace(M2, (x,), x.coords()[:, None])
    cs = cstar_closure(fs)
    assert cs.dimension == 2
    assert cs.is_unital


def test_cstar_closure_product_containment():
    cs = cstar_closure(fixed_space(mixture_family(5, dims=(3,), terms=2)))
    for a in cs.basis:
        for b in cs.basis:
            coords = (a @ b).coords()
            proj = cs.matrix @ (cs.matrix.conj().T @ coords)
            assert np.linalg.norm(coords - proj) < 1e-8


def test_ergodic_identity():
    erg = ergodic_projection(identity_family(M2))
    assert op_norm(erg.matrix - np.eye(4)) < 1e-12


def test_ergodic_rotation_exact():
    erg = ergodic_projection(rotation_family(np.pi / 3))
    assert erg.apply(unit(0, 1)).norm() <= 1e-12  # average of sixth roots of unity
    assert (erg.apply(unit(0, 0)) - unit(0, 0)).norm() <= 1e-12
    assert erg.rank == 2


def test_ergodic_damping_geometric_series():
    erg = ergodic_projection(damping_family(0.5))
    assert erg.apply(unit(1, 1)).norm() <= 1e-9
    one = identity_element(M2)
    assert (erg.apply(unit(0, 0)) - one).norm() <= 1e-9
    assert erg.rank == 1


def test_ergodic_invariants():
    for fam in (damping_family(0.3), rotation_family(1.0), mixture_family(7, dims=(2, 3), terms=3, d=2), leaky_damping_family()):
        erg = ergodic_projection(fam)
        d = erg.diagnostics["defects"]
        assert d["idempotency"] <= 1e-8
        assert d["intertwine_left"] <= 1e-8 and d["intertwine_right"] <= 1e-8
        assert erg.diagnostics["choi_floor"] >= -1e-9
        assert erg.diagnostics["one_excess"] <= 1e-9
        fs = fixed_space(fam)
        assert erg.rank == fs.dimension
        for b in fs.basis:
            assert (erg.apply(b) - b).norm() <= 1e-8
        # cesaro cross-check shrinks toward the projection
        for diag in erg.diagnostics["per_generator"]:
            assert diag["cesaro_terms"] >= 2**19
            assert diag["cesaro_gap"] <= 1e-3


def test_ergodic_leaky_oracle():
    # by hand: rho(E00) = E00 + (1/3) E11, rho(E11) = rho(E01) = rho(E10) = 0
    erg = ergodic_projection(leaky_damping_family(0.5, 0.5))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    expected[3, 0] = 1.0 / 3.0
    assert op_norm(erg.matrix - expected) <= 1e-12


def test_ergodic_rejects_noncontractive():
    doubling = cp_map(M2, M2, {(0, 0): [np.sqrt(2.0) * np.eye(2, dtype=complex)]})
    from cpfix.cpsemi import SemigroupFamily

    with pytest.raises(NotContractive):
        ergodic_projection(SemigroupFamily(M2, (doubling,)))


def test_phi_limit_fixed_point_immediate():
    fam = rotation_family(np.pi / 3)
    y = unit(0, 0)
    assert (phi_limit(fam, y) - y).norm() < 1e-12


def test_phi_limit_damping_converges_to_one():
    fam = damping_family(0.5)
    lim = phi_limit(fam, unit(0, 0))
    assert (lim - identity_element(M2)).norm() <= 1e-8


def test_phi_limit_rotation_diverges():
    fam = rotation_family(np.pi / 3)
    with pytest.raises(Divergent):
        phi_limit(fam, unit(0, 1), max_iter=5000)


def test_phi_limit_agrees_with_mean_projection():
    fam = leaky_damping_family()
    erg = ergodic_projection(fam)
    rng = np.random.default_rng(0)
    cs = cstar_closure(fixed_space(fam))
    for _ in range(25):
        c = rng.standard_normal(cs.dimension) + 1j * rng.standard_normal(cs.dimension)
        y = element_from_coords(M2, cs.matrix @ c)
        lim = phi_limit(fam, y)
        assert (lim - erg.apply(y)).norm() <= 1e-7 * max(1.0, y.norm())


def test_pi_limit_tail_shift_exact():
    inst = build_tail_shift(2, 2, PAULI_X)
    y = AlgebraElement(inst.emb.corner, (PAULI_X,))
    w = pi_limit(inst, y)
    for blk in w.blocks:
        assert op_norm(blk - PAULI_X) <= 1e-12
    one_n = identity_element(inst.emb.corner)
    w1 = pi_limit(inst, one_n)
    assert (w1 - identity_element(inst.structure)).norm() <= 1e-12


def test_pi_limit_full_projection_identity():
    st = BlockStructure((2,))
    u = random_unitary(np.random.default_rng(1), 2)
    from cpfix.cpsemi import conjugation_map

    alpha = make_family([conjugation_map(st, [u])], expect_endomorphic=True)
    inst = make_instance(alpha, identity_element(st))
    fs = fixed_space(inst.phi)
    y = fs.basis[0]
    assert (pi_limit(inst, y) - y).norm() < 1e-10


def test_pi_limit_rejects_outside_cstar():
    u = np.diag([1.0, np.exp(1j * np.pi / 3)])
    inst = build_tail_shift(2, 2, u)
    y = AlgebraElement(inst.emb.corner, (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),))
    with pytest.raises(NotInCStar):
        pi_limit(inst, y)


def test_lift_fixed_point_tail_shift():
    inst = build_tail_shift(2, 2, PAULI_X)
    y = AlgebraElement(inst.emb.corner, (PAULI_X,))
    z = lift_fixed_point(inst, y, agreement_tol=1e-10)
    expected = AlgebraElement(inst.structure, (PAULI_X, PAULI_X, PAULI_X))
    assert (z - expected).norm() <= 1e-10
    assert (compress(inst.emb, z) - y).norm() <= 1e-12
    one = identity_element(inst.emb.corner)
    z1 = lift_fixed_point(inst, one)
    assert (z1 - identity_element(inst.structure)).norm() <= 1e-10


def test_lift_fixed_point_full_projection():
    st = BlockStructure((2,))
    u = np.diag([1.0, np.exp(0.7j)])
    from cpfix.cpsemi import conjugation_map

    alpha = make_family([conjugation_map(st, [u])], expect_endomorphic=True)
    inst = make_instance(alpha, identity_element(st))
    y = unit(0, 0)
    assert (lift_fixed_point(inst, y) - y).norm() <= 1e-10


def test_lift_rejects_nonfixed():
    inst = build_tail_shift(2, 2, np.diag([1.0, np.exp(1j * np.pi / 3)]))
    y = AlgebraElement(inst.emb.corner, (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),))
    with pytest.raises(NotFixed):
        lift_fixed_point(inst, y)


def test_complete_isometry_tail_shift():
    inst = build_tail_shift(2, 2, PAULI_X)
    rep = check_complete_isometry(inst, levels=3, samples=50, seed=0)
    assert rep.passed and rep.bijective
    assert rep.dim_ambient_fixed == rep.dim_corner_fixed == 2
    assert rep.max_defect <= 1e-8
    # x = (X, X, X) compresses to X with equal norms
    x = AlgebraElement(inst.structure, (PAULI_X, PAULI_X, PAULI_X))
    assert abs(x.norm() - 1.0) < 1e-12
    assert abs(compress(inst.emb, x).norm() - 1.0) < 1e-12


def looped_isometry_defects(inst, levels, samples, seed):
    """Reference: one draw per sample and basis element, explicit kron sums, SVD norms."""
    basis = fixed_space(inst.alpha).basis
    compressed = [compress(inst.emb, b) for b in basis]
    rng = np.random.default_rng(seed)

    def amplified_norm(coeffs, elements):
        return max(
            np.linalg.norm(sum(np.kron(c, x.blocks[i]) for c, x in zip(coeffs, elements)), 2)
            for i in range(len(elements[0].blocks))
        )

    defects = {}
    for k in range(1, levels + 1):
        worst = 0.0
        for _ in range(samples):
            coeffs = [random_complex(rng, k, k) for _ in basis]
            nx = amplified_norm(coeffs, basis)
            worst = max(worst, abs(nx - amplified_norm(coeffs, compressed)) / max(1.0, nx))
        defects[k] = worst
    return defects


def nonminimal_identity_instance():
    st = BlockStructure((2, 2))
    alpha = make_family([identity_map(st)], expect_endomorphic=True)
    p = AlgebraElement(st, (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
    return make_instance(alpha, p)


def test_complete_isometry_matches_looped_reference():
    minimal = build_tail_shift(2, 3, np.diag([1.0, np.exp(0.9j)]))
    nonminimal = nonminimal_identity_instance()
    for inst in (minimal, nonminimal):
        rep = check_complete_isometry(inst, levels=3, samples=40, seed=5)
        ref = looped_isometry_defects(inst, levels=3, samples=40, seed=5)
        assert set(rep.level_defects) == set(ref) == {1, 2, 3}
        for k in ref:
            assert abs(rep.level_defects[k] - ref[k]) <= 1e-12
    assert rep.dim_ambient_fixed == 8 and rep.dim_corner_fixed == rep.compression_rank == 4
    assert rep.passed is False and rep.bijective is False
    assert all(defect > 1e-3 for defect in rep.level_defects.values())


def test_kernel_ideal_trivial_models():
    for fam in (identity_family(M2), rotation_family(), damping_family(0.5)):
        rep = kernel_ideal_check(fam)
        assert rep.passed
        assert rep.dim_kernel == rep.dim_ideal == 0


def test_kernel_ideal_leaky_nontrivial():
    rep = kernel_ideal_check(leaky_damping_family(0.5, 0.5))
    assert rep.passed
    assert rep.dim_kernel == rep.dim_ideal == 1


def test_property_suite_identity_zero_residuals():
    rep = property_suite(identity_family(M2), seed=0, samples=20)
    assert rep.passed
    for item in rep.items.values():
        assert item.worst <= 1e-12 or item.status == "PASS"


def test_property_suite_tail_shift_all_pass():
    inst = build_tail_shift(2, 2, PAULI_X)
    rep = property_suite(inst, seed=0, samples=30)
    assert rep.passed
    assert set(rep.items) == {
        "kadison_schwarz",
        "monotone_net",
        "limit_vs_mean",
        "choi_effros",
        "vector_bound",
        "lift_identity",
        "factorization",
    }


def test_property_suite_flags_nonminimal_lift():
    rep = property_suite(nonminimal_identity_instance(), seed=0, samples=10)
    assert not rep.passed
    assert rep.items["lift_identity"].status == "FAIL"
    assert "minimality" in rep.items["lift_identity"].note
    # the bare-family identities hold without minimality
    assert rep.items["factorization"].status == "PASS"
    assert rep.items["limit_vs_mean"].status == "PASS"


def test_property_suite_trivial_fixed_space():
    # phi(x) = A x A* with A = E01/2 has no nonzero fixed points
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = 0.5
    fam = make_family([cp_map(M2, M2, {(0, 0): [a]})])
    assert fixed_space(fam).dimension == 0
    rep = property_suite(fam, seed=0, samples=10)
    assert rep.passed
    assert rep.items["monotone_net"].note == "trivial fixed space"
    erg = ergodic_projection(fam)
    assert erg.rank == 0
    krep = kernel_ideal_check(fam)
    assert krep.passed and krep.note == "trivial fixed space"


def test_property_suite_random_instances():
    for seed in (0, 1, 2):
        inst = build_random_instance(seed, n_max=3, m_max=3, d=1 + seed % 2)
        rep = property_suite(inst, seed=seed, samples=15)
        assert rep.passed, {k: (v.status, v.note) for k, v in rep.items.items()}
