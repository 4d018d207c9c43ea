import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfix.errors import CpfixError, Divergent, NotContractive, NotFixed, NotInCStar
from cpfix.matcore import nullspace, op_norm, psd_sqrt, random_complex, random_unit_vector, random_unitary
from cpfix.vnalg import (
    AlgebraElement,
    BlockStructure,
    compress,
    element_from_coords,
    embed,
    identity_element,
    inject,
    random_element,
)
from cpfix.cpsemi import (
    apply,
    apply_power,
    cp_map,
    damping_family,
    identity_family,
    identity_map,
    leaky_damping_family,
    make_family,
    mixture_family,
    rotation_family,
    SemigroupFamily,
)
from cpfix.dilation import (
    DilationInstance,
    Minimality,
    build_random_instance,
    build_tail_shift,
    check_minimality,
    make_instance,
)
from cpfix.fixpoint import (
    FixedSpace,
    _orthonormal_columns,
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


def combo(matrix, structure, rng):
    """Random normalized complex combination of orthonormal basis columns: one random_complex draw."""
    v = matrix @ random_complex(rng, matrix.shape[1], 1)[:, 0]
    n = np.linalg.norm(v)
    return element_from_coords(structure, v / n if n > 0 else v)


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
    basis = [element_from_coords(cs.structure, col) for col in cs.matrix.T]
    for a in basis:
        for b in basis:
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


@pytest.mark.parametrize("c, s", [(np.sqrt(1.0 - 1e-4), 5e-3), (0.99995, 0.005), (0.999, 0.03)])
def test_phi_limit_slow_leaky_gaps_reach_the_mean_projection(c, s):
    # by hand: rho(E11) = 0 and rho(E00) = E00 + k E11 with k = s^2 / (1 - c^2)
    fam = leaky_damping_family(c, s)
    k = s * s / (1.0 - c * c)
    assert phi_limit(fam, unit(1, 1)).norm() <= 1e-12
    assert (phi_limit(fam, unit(0, 0)) - AlgebraElement(M2, (np.diag([1.0, k]).astype(complex),))).norm() <= 1e-12


def test_phi_limit_periodic_orbit_fails_the_generator_check():
    # theta^4 = 1 on E01, so the third doubling, a step by theta^4, moves nothing off the fixed space
    with pytest.raises(Divergent, match="stalled off the fixed space"):
        phi_limit(rotation_family(np.pi / 2), unit(0, 1))


def test_phi_limit_rotation_diverges_at_the_default_budget():
    with pytest.raises(Divergent, match="no convergence within 1048575 steps"):
        phi_limit(rotation_family(np.pi / 3), unit(0, 1))


@pytest.mark.parametrize("angle", [0.3, 1.0, np.pi / 3])
def test_phi_limit_huge_budget_stops_at_the_doubling_cap(angle):
    # at 2^58 squarings the rounded |e^{i 0.3}| decayed to 0, a limit every generator fixes, while
    # the other two angles overflowed; 40 doublings keep every unit modulus within rounding of 1
    with pytest.raises(Divergent, match="no convergence within 1099511627775 steps"):
        phi_limit(rotation_family(angle), unit(0, 1), max_iter=2**70)


def test_phi_limit_overflowing_orbit_diverges_without_warnings():
    # an unchecked family with theta = 4: the increments overflow within ten doublings
    fam = SemigroupFamily(M2, (cp_map(M2, M2, {(0, 0): [2.0 * np.eye(2, dtype=complex)]}),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Divergent, match=r"last increment inf\)$"):
            phi_limit(fam, unit(0, 0))


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


def looped_cstar_closure(fs):
    """cstar_closure one element at a time: (basis matrix, is_unital)."""
    st, mat = fs.structure, fs.matrix
    if fs.dimension == 0:
        return mat, False
    for _ in range(st.coord_dim + 1):
        basis = [element_from_coords(st, col) for col in mat.T]
        cands = [mat]
        for a in basis:
            for b in basis:
                prod = a @ b
                cands += [prod.coords()[:, None], prod.adjoint().coords()[:, None]]
        grown = _orthonormal_columns(np.hstack(cands))
        if grown.shape[1] == mat.shape[1]:
            mat = grown
            break
        mat = grown
    one = identity_element(st).coords()
    return mat, bool(np.linalg.norm(one - mat @ (mat.conj().T @ one)) <= 1e-8)


def looped_kernel_ideal(family, rng):
    """kernel_ideal_check one element at a time: (dim_kernel, dim_ideal, gap, invariance, passed)."""
    fs = fixed_space(family)
    cs = cstar_closure(fs)
    erg = ergodic_projection(family)
    if cs.dimension == 0:
        return 0, 0, 0.0, 0.0, True
    b, st = cs.matrix, cs.structure
    restricted = b.conj().T @ erg.matrix @ b
    invariance = op_norm(erg.matrix @ b - b @ restricted)
    kernel = nullspace(restricted, 1e-10)
    gens = []
    for x in list(fs.basis) + [combo(fs.matrix, st, rng) for _ in range(8)]:
        q = x.adjoint() @ x
        coeff = b.conj().T @ (erg.apply(q) - q).coords()
        if np.linalg.norm(coeff) > 1e-10:
            gens.append(coeff)
    ideal = _orthonormal_columns(np.column_stack(gens)) if gens else np.zeros((cs.dimension, 0))
    cs_basis = [element_from_coords(st, col) for col in b.T]
    for _ in range(cs.dimension + 1):
        cands = [ideal]
        for k in range(ideal.shape[1]):
            q = element_from_coords(st, b @ ideal[:, k])
            for bb in cs_basis:
                cands += [(b.conj().T @ (bb @ q).coords())[:, None], (b.conj().T @ (q @ bb).coords())[:, None]]
        grown = _orthonormal_columns(np.hstack(cands))
        if grown.shape[1] == ideal.shape[1]:
            ideal = grown
            break
        ideal = grown
    gap = 0.0
    for span, other in ((ideal, kernel), (kernel, ideal)):
        for v in other.T:
            gap = max(gap, float(np.linalg.norm(v - span @ (span.conj().T @ v))))
    passed = kernel.shape[1] == ideal.shape[1] and gap <= 1e-8 and invariance <= 1e-8
    return kernel.shape[1], ideal.shape[1], gap, invariance, passed


def oracle_families():
    """Mixtures (d = 1, 2), leaky dampings, and the corners of tail-shift, random and non-minimal dilations."""
    yield from (mixture_family(seed, dims=(2, 3), terms=3, d=d) for seed in (1, 4) for d in (1, 2))
    # phase collisions: fixed spaces of dimension 9 and 7, beyond the diagonal
    yield from (mixture_family(25, dims=(2, 3), terms=1, d=d) for d in (1, 2))
    leaky = leaky_damping_family(0.6, 0.5)
    yield leaky
    # leaky damping on the first factor of M_2 (x) M_2: a 4-dimensional kernel in a noncommutative algebra
    m4 = BlockStructure((4,))
    yield make_family([cp_map(m4, m4, {(0, 0): [np.kron(a, np.eye(2)) for a in leaky.generators[0].ops(0, 0)]})])
    yield build_tail_shift(2, 3, np.diag([1.0, np.exp(0.9j)])).phi
    yield from (build_random_instance(seed, n_max=3, m_max=4, d=2).phi for seed in (4, 11))
    yield nonminimal_identity_instance().phi


def projector(mat):
    return mat @ mat.conj().T


def test_cstar_closure_matches_looped_reference():
    x = AlgebraElement(M2, (PAULI_X / np.sqrt(2.0),))  # generates the identity
    e00 = unit(0, 0)  # generates a non-unital algebra
    spans = [FixedSpace(M2, (y,), y.coords()[:, None]) for y in (x, e00)]
    grown, unital = [], []
    for fs in spans + [fixed_space(family) for family in oracle_families()]:
        cs = cstar_closure(fs)
        mat, is_unital = looped_cstar_closure(fs)
        assert (cs.dimension, cs.is_unital) == (mat.shape[1], is_unital)
        grown.append(cs.dimension > fs.dimension)
        unital.append(is_unital)
        assert np.max(np.abs(projector(cs.matrix) - projector(mat)), initial=0.0) <= 1e-12
        # the suite draws its combinations from these columns, so they must agree too
        assert np.max(np.abs(cs.matrix - mat), initial=0.0) <= 1e-12
    assert any(grown) and set(unital) == {False, True}


def test_kernel_ideal_matches_looped_reference():
    kernels = []
    for idx, family in enumerate(oracle_families()):
        # default_rng passes a Generator through, so each state after the run shows what was drawn
        rng, looped_rng = np.random.default_rng(idx), np.random.default_rng(idx)
        rep = kernel_ideal_check(family, seed=rng)
        dim_kernel, dim_ideal, gap, invariance, passed = looped_kernel_ideal(family, looped_rng)
        assert (rep.dim_kernel, rep.dim_ideal, rep.passed) == (dim_kernel, dim_ideal, passed)
        assert abs(rep.max_subspace_gap - gap) <= 1e-12
        assert abs(rep.rho_invariance_residual - invariance) <= 1e-12
        assert rng.bit_generator.state == looped_rng.bit_generator.state
        kernels.append(dim_kernel)
    assert {1, 4} <= set(kernels)


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


def test_property_suite_takes_the_verdict_of_its_own_projection():
    # one family, two projections: the verdict built for the other projection is not the suite's
    nonminimal = nonminimal_identity_instance()
    full = make_instance(nonminimal.alpha, identity_element(nonminimal.structure))
    assert check_minimality(nonminimal.alpha, nonminimal.p).status is Minimality.NON_MINIMAL
    lift = property_suite(full, seed=0, samples=5).items["lift_identity"]
    assert lift.passed and lift.note == ""


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


STEPPED_TOL = 1e-14
STEPPED_MAX = 2**20 - 1  # the steps that the default budget of 20 squarings covers
CHUNK = 64


def stepped_limit(family, x):
    """Reference diagonal limit: the orbit theta^n x, n = 1, 2, ..., up to its first increment <= STEPPED_TOL.

    The orbit is evaluated CHUNK steps at a time through the powers
    theta^0 .. theta^CHUNK, each built by one more multiplication with
    theta, so every single-step increment is looked at and no power of
    theta is squared.
    """
    powers = [np.eye(family.structure.coord_dim, dtype=complex)]
    for _ in range(CHUNK):
        powers.append(family.theta @ powers[-1])
    powers = np.stack(powers)
    v = x.coords()
    for start in range(0, STEPPED_MAX, CHUNK):
        orbit = powers @ v
        increments = np.linalg.norm(np.diff(orbit, axis=0), axis=1)[: STEPPED_MAX - start]
        tight = np.flatnonzero(increments <= STEPPED_TOL)
        if tight.size:
            return element_from_coords(family.structure, orbit[tight[0] + 1])
        v = orbit[-1]
    raise Divergent(f"no convergence within {STEPPED_MAX} steps")


def looped_suite(obj, rng, samples, mono_steps=10, s_max=10):
    """Reference: the property suite one sample at a time, with one element and one Kraus apply per step.

    Returns {item: (status, worst, count, note)} at the default thresholds.
    """
    instance = obj if isinstance(obj, DilationInstance) else None
    family = instance.phi if instance is not None else obj
    st = family.structure
    fs = fixed_space(family)
    cs = cstar_closure(fs)
    erg = ergodic_projection(family)

    def min_eig(x):
        return min(float(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0]) for b in x.blocks)

    items = {}
    worst = np.inf
    for _ in range(samples):
        x = random_element(st, rng)
        x = x * (1.0 / max(np.linalg.norm(x.coords()), 1e-30))
        for gen in family.generators:
            img = apply(gen, x)
            worst = min(worst, min_eig(apply(gen, x.adjoint() @ x) - img.adjoint() @ img))
    worst = worst if np.isfinite(worst) else 0.0
    items["kadison_schwarz"] = ("PASS" if worst >= -1e-9 else "FAIL", worst, samples, "")

    worst = np.inf
    for _ in range(samples):
        x = combo(fs.matrix, st, rng)
        y = x.adjoint() @ x
        for _ in range(mono_steps):
            for gen in family.generators:
                stepped = apply(gen, y)
                worst = min(worst, min_eig(stepped - y))
                y = stepped
    items["monotone_net"] = ("PASS" if worst >= -1e-9 else "FAIL", worst, samples, "")

    worst, failures, note = 0.0, 0, ""
    for _ in range(samples):
        x = combo(fs.matrix, st, rng)
        q = x.adjoint() @ x
        try:
            worst = max(worst, (stepped_limit(family, q) - erg.apply(q)).norm())
        except Divergent as exc:
            failures += 1
            note = f"divergent on {failures} samples: {exc}"
    items["limit_vs_mean"] = ("PASS" if failures == 0 and worst <= 1e-7 else "FAIL", worst, samples, note)

    worst = 0.0
    for _ in range(samples):
        x = combo(cs.matrix, st, rng)
        y = combo(cs.matrix, st, rng)
        a = erg.apply(x)
        worst = max(worst, (erg.apply(a @ y) - erg.apply(a @ erg.apply(y))).norm())
    items["choi_effros"] = ("PASS" if worst <= 1e-9 else "FAIL", worst, samples, "")

    worst = -np.inf
    for _ in range(samples):
        x = combo(fs.matrix, st, rng)
        q = x.adjoint() @ x
        y = erg.apply(q) - q
        root = AlgebraElement(st, tuple(psd_sqrt(b, tol=1e-8) for b in y.blocks))
        a = combo(cs.matrix, st, rng)
        h = random_unit_vector(rng, st.space_dim)
        s = tuple(int(v) for v in rng.integers(0, s_max + 1, size=family.rank))
        lhs = np.linalg.norm(embed(apply_power(family, s, a @ root)) @ h) ** 2
        rhs = a.norm() ** 2 * np.real(h.conj() @ embed(apply_power(family, s, y)) @ h)
        worst = max(worst, lhs - rhs)
    worst = worst if np.isfinite(worst) else 0.0
    items["vector_bound"] = ("PASS" if worst <= 1e-9 else "FAIL", worst, samples, "")

    if instance is not None:
        minimal = check_minimality(instance.alpha, instance.p).status is Minimality.MINIMAL
        base = "" if minimal else "minimality not established; lifting identity expected to fail"
        fs_ambient = fixed_space(instance.alpha)
        for key, basis, structure, threshold in (
            ("lift_identity", fs_ambient.matrix, instance.structure, 1e-8),
            ("factorization", cs.matrix, st, 1e-7),
        ):
            worst, note = 0.0, base
            for _ in range(samples):
                x = combo(basis, structure, rng)
                try:
                    if key == "lift_identity":
                        residual = stepped_limit(instance.alpha, inject(instance.emb, compress(instance.emb, x))) - x
                    else:
                        residual = compress(instance.emb, stepped_limit(instance.alpha, inject(instance.emb, x))) - erg.apply(x)
                    worst = max(worst, residual.norm())
                except CpfixError as exc:
                    worst, note = np.inf, f"{base}; {exc}".strip("; ")
            items[key] = ("PASS" if worst <= threshold else "FAIL", worst, samples, note)
    return items


def assert_suite_matches_loop(obj, seed, samples):
    # default_rng passes a Generator through, so each state after the run shows what was drawn
    batched_rng, looped_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = property_suite(obj, seed=batched_rng, samples=samples)
    ref = looped_suite(obj, looped_rng, samples)
    assert set(rep.items) == set(ref)
    for key, (status, worst, count, note) in ref.items():
        item = rep.items[key]
        # the reference measures its last increment over one step, the suite over a square of theta
        assert (item.status, item.count, item.note.split(" (last increment")[0]) == (status, count, note), key
        if np.isinf(worst):
            assert item.worst == worst, key
        else:
            assert abs(item.worst - worst) <= 1e-12 * max(1.0, abs(worst)), (key, item.worst, worst)
    assert batched_rng.bit_generator.state == looped_rng.bit_generator.state
    return rep


def test_property_suite_matches_looped_reference():
    cases = (
        (mixture_family(7, dims=(2, 3), terms=3, d=2), 11, 40),
        (leaky_damping_family(0.6, 0.5), 12, 40),
        (build_tail_shift(2, 3, np.diag([1.0, np.exp(0.9j)])), 13, 25),
        (nonminimal_identity_instance(), 14, 25),
    )
    reports = [assert_suite_matches_loop(obj, seed, samples) for obj, seed, samples in cases]
    assert all(rep.passed for rep in reports[:3])
    lift = reports[3].items["lift_identity"]
    assert lift.status == "FAIL" and lift.worst > 1e-3 and "minimality" in lift.note


def test_property_suite_divergent_limit_matches_looped_reference():
    # a spectral gap of 1e-8: the decaying part barely moves within the 2^20 - 1 steps of the budget
    rep = assert_suite_matches_loop(leaky_damping_family(np.sqrt(1.0 - 1e-8), np.sqrt(0.5e-8)), 15, 2)
    item = rep.items["limit_vs_mean"]
    assert item.status == "FAIL"
    assert item.note.startswith("divergent on 2 samples: no convergence within 1048575 steps (last increment")


def rebased(family, unitaries, order):
    """The family conjugated by unitaries[i] on block i, with new block k holding old block order[k]."""
    dims = family.structure.block_dims
    where = {old: new for new, old in enumerate(order)}
    target = BlockStructure(tuple(dims[old] for old in order))
    gens = [
        cp_map(target, target, {
            (where[j], where[i]): [unitaries[j] @ a @ unitaries[i].conj().T for a in ops] for (j, i), ops in gen.kraus
        })
        for gen in family.generators
    ]
    return make_family(gens)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(2,), (3,), (2, 3), (3, 2, 2)]),
    st.integers(min_value=1, max_value=2),
)
def test_rebasing_and_block_permutation_leave_verdicts(seed, dims, d):
    family = mixture_family(seed, dims=dims, terms=3, d=d)
    rng = np.random.default_rng(seed + 1)
    unitaries = [random_unitary(rng, n) for n in dims]
    other = rebased(family, unitaries, list(rng.permutation(len(dims))))

    def verdicts(fam):
        suite = property_suite(fam, seed=seed, samples=20)
        statuses = {key: item.status for key, item in suite.items.items()}
        return fixed_space(fam).dimension, ergodic_projection(fam).rank, statuses

    assert verdicts(other) == verdicts(family)
