import traceback

import numpy as np
import pytest

from cpfix.errors import CpfixError, InvalidFamily
from cpfix.matcore import is_psd, op_norm, random_unitary
from cpfix.vnalg import AlgebraElement, BlockStructure, element_from_coords
from cpfix.cpsemi import (
    _cached_on_argument,
    apply,
    apply_power,
    compose,
    conjugation_map,
    cp_map,
    damping_family,
    leaky_damping_family,
    make_family,
    mixture_family_with_data,
    mixture_fixed_dim,
    rotation_family,
    to_superoperator,
    validate_cp,
    validate_endomorphism,
    validate_family,
    SemigroupFamily,
)
from cpfix.dilation import build_random_instance, tail_shift_map

from helpers import identity_map, random_element

M2 = BlockStructure((2,))
E00 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E11 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def one_block(m):
    return AlgebraElement(M2, (np.asarray(m, dtype=complex),))


def chain(family, s):
    """beta_s = beta_1^{s_1} ... beta_d^{s_d} as a chain of compose calls."""
    result = identity_map(family.structure)
    for gen, count in zip(family.generators, s):
        for _ in range(count):
            result = compose(gen, result)
    return result


def test_apply_identity():
    x = random_element(BlockStructure((2, 3)), np.random.default_rng(0))
    phi = identity_map(x.structure)
    assert (apply(phi, x) - x).norm() < 1e-15


def test_apply_unitary_conjugation_phase():
    u = np.diag([1.0, np.exp(1j * np.pi / 3)])
    phi = conjugation_map(M2, [u])
    out = apply(phi, one_block(E01))
    # u E01 u* picks up the conjugate phase of u_11
    np.testing.assert_allclose(out.blocks[0], np.exp(-1j * np.pi / 3) * E01, atol=1e-14)


def test_apply_damping_worked_numbers():
    phi = damping_family(0.5).generators[0]
    out = apply(phi, one_block(E00))
    np.testing.assert_allclose(out.blocks[0], E00 + 0.5 * E11, atol=1e-14)
    out11 = apply(phi, one_block(E11))
    np.testing.assert_allclose(out11.blocks[0], 0.5 * E11, atol=1e-14)


def test_compose_identity():
    phi = damping_family(0.3).generators[0]
    left = to_superoperator(compose(identity_map(M2), phi))
    assert op_norm(left - to_superoperator(phi)) < 1e-12


def test_compose_conjugations():
    rng = np.random.default_rng(1)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    both = compose(conjugation_map(M2, [u]), conjugation_map(M2, [v]))
    direct = conjugation_map(M2, [u @ v])
    assert op_norm(to_superoperator(both) - to_superoperator(direct)) < 1e-12


def test_compose_damping_twice():
    phi = damping_family(0.5).generators[0]
    phi2 = compose(phi, phi)
    # hand iteration: phi(E11) = 0.5 E11 so phi^2(E11) = 0.25 E11,
    # and phi^2(E00) = E00 + 0.75 E11 by unitality
    np.testing.assert_allclose(apply(phi2, one_block(E11)).blocks[0], 0.25 * E11, atol=1e-13)
    np.testing.assert_allclose(apply(phi2, one_block(E00)).blocks[0], E00 + 0.75 * E11, atol=1e-13)


def test_compose_matches_sequential_apply():
    rng = np.random.default_rng(2)
    st = BlockStructure((2, 2))
    a = conjugation_map(st, [random_unitary(rng, 2), random_unitary(rng, 2)])
    b = tail_shift_map(2, 1, random_unitary(rng, 2))
    x = random_element(st, rng)
    lhs = apply(compose(a, b), x)
    rhs = apply(a, apply(b, x))
    assert (lhs - rhs).norm() < 1e-10


def test_validate_cp_reports():
    rep = validate_cp(identity_map(M2))
    assert rep.is_contractive and rep.is_unital
    rep = validate_cp(damping_family(0.5).generators[0])
    assert rep.is_contractive and rep.is_unital
    doubling = cp_map(M2, M2, {(0, 0): [np.sqrt(2.0) * np.eye(2, dtype=complex)]})
    rep = validate_cp(doubling)
    assert not rep.is_contractive


def test_validate_endomorphism():
    u = random_unitary(np.random.default_rng(3), 2)
    assert validate_endomorphism(conjugation_map(M2, [u]))
    assert validate_endomorphism(tail_shift_map(2, 2, u))
    assert not validate_endomorphism(damping_family(0.5).generators[0])
    # multiplicative on every matrix unit, but ||alpha(1)|| = 2: only the contraction guard rejects it
    assert not validate_endomorphism(merge_map())
    assert not validate_endomorphism(dephasing_map())


def merge_map():
    """(x1, x2) -> (x1 + x2, 0) on C ⊕ C."""
    c2 = BlockStructure((1, 1))
    return cp_map(c2, c2, {(0, 0): [np.eye(1)], (0, 1): [np.eye(1)]})


def dephasing_map():
    """x -> diag(x) on M_2."""
    return cp_map(M2, M2, {(0, 0): [E00, E11]})


def reference_unit_product_table(structure):
    """table[k, l] = coordinate index of E_k E_l, or D when the product is 0."""
    d = structure.coord_dim
    table = np.full((d, d), d, dtype=int)
    for n, sl in zip(structure.block_dims, structure.coord_slices()):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    table[sl.start + a * n + b, sl.start + b * n + c] = sl.start + a * n + c
    return table


def reference_adjoint_permutation(structure):
    """Permutation matrix K with coords(x*) = K conj(coords(x))."""
    k = np.zeros((structure.coord_dim, structure.coord_dim))
    for n, sl in zip(structure.block_dims, structure.coord_slices()):
        for a in range(n):
            for b in range(n):
                k[sl.start + b * n + a, sl.start + a * n + b] = 1.0
    return k


def reference_validate_endomorphism(alpha, tol=1e-9):
    """The full-table rule: alpha preserves adjoints and alpha(E_k E_l) = alpha(E_k) alpha(E_l) for every pair."""
    st = alpha.source
    s = to_superoperator(alpha)
    k = reference_adjoint_permutation(st)
    if op_norm(s @ k - k @ s.conj()) > tol:
        return False
    d = st.coord_dim
    lhs = np.hstack([s, np.zeros((d, 1), dtype=complex)])[:, reference_unit_product_table(st)]
    rhs = np.zeros((d, d, d), dtype=complex)
    for n, sl in zip(st.block_dims, st.coord_slices()):
        img = s[sl, :].T.reshape(d, n, n)  # alpha(E_k), this block
        rhs[sl, :, :] = np.einsum("pij,qjk->pqik", img, img).reshape(d, d, n * n).transpose(2, 0, 1)
    return bool(np.max(np.abs(lhs - rhs)) <= tol)


def endomorphism_map_bank():
    """(name, map) pairs: random dilation generators, mixtures, the shipped models and four non-endomorphisms."""
    bank = []
    for seed in range(30):
        for d in (1, 2):
            inst = build_random_instance(seed, d=d)
            for side, family in (("alpha", inst.alpha), ("phi", inst.phi)):
                bank += [(f"instance {seed} d={d} {side}{k}", g) for k, g in enumerate(family.generators)]
        family = mixture_family_with_data(seed, dims=(2, 3), d=2)[0]
        bank += [(f"mixture {seed} gen{k}", g) for k, g in enumerate(family.generators)]
    bank += [
        ("damping", damping_family(0.5).generators[0]),
        ("rotation", rotation_family().generators[0]),
        ("leaky damping", leaky_damping_family().generators[0]),
        ("2·1", cp_map(M2, M2, {(0, 0): [np.sqrt(2.0) * np.eye(2)]})),
        ("dephasing", dephasing_map()),
        ("merge", merge_map()),
    ]
    eps = 1e-6
    u = random_unitary(np.random.default_rng(17), 2)
    damp = damping_family(0.5).generators[0].ops(0, 0)
    perturbed = cp_map(M2, M2, {(0, 0): [np.sqrt(1.0 - eps) * u] + [np.sqrt(eps) * a for a in damp]})
    bank.append(("perturbed conjugation", perturbed))
    return bank


def test_matrix_unit_rule_matches_the_full_table_reference():
    verdicts = {}
    for name, alpha in endomorphism_map_bank():
        verdicts[name] = validate_endomorphism(alpha)
        assert verdicts[name] == reference_validate_endomorphism(alpha), name
    assert len(verdicts) == 247
    # every alpha and phi generator of the instances, and the rotation
    assert sum(verdicts.values()) == 181
    for name in ("2·1", "dephasing", "merge", "perturbed conjugation", "damping", "leaky damping"):
        assert not verdicts[name], name


def test_validate_family_rejects_noncommuting():
    rng = np.random.default_rng(4)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    fam = SemigroupFamily(M2, (conjugation_map(M2, [u]), conjugation_map(M2, [v])))
    rep = validate_family(fam)
    assert not rep.ok
    with pytest.raises(InvalidFamily):
        make_family(fam.generators)


def test_validate_family_accepts_commuting_conjugations():
    v = random_unitary(np.random.default_rng(5), 3)
    st = BlockStructure((3,))
    u1 = (v * np.exp(1j * np.array([0.1, 0.2, 0.3]))) @ v.conj().T
    u2 = (v * np.exp(1j * np.array([1.0, 2.0, 3.0]))) @ v.conj().T
    fam = make_family([conjugation_map(st, [u1]), conjugation_map(st, [u2])])
    rep = validate_family(fam)
    assert rep.ok and rep.is_endomorphic


def test_superoperator_identity_and_rotation():
    assert op_norm(to_superoperator(identity_map(M2)) - np.eye(4)) < 1e-14
    theta = np.pi / 3
    s = to_superoperator(rotation_family(theta).generators[0])
    # u E_ab u* scales by exp(i(theta_a - theta_b)); basis order E00, E01, E10, E11
    expected = np.diag([1.0, np.exp(-1j * theta), np.exp(1j * theta), 1.0])
    assert op_norm(s - expected) < 1e-14


def kron_superoperator(phi):
    """Reference: one np.kron(a, a.conj()) per Kraus operator, added to its block in Kraus order."""
    st = phi.source
    s = np.zeros((st.coord_dim, st.coord_dim), dtype=complex)
    slices = st.coord_slices()
    for (j, i), ops in phi.kraus:
        for a in ops:
            s[slices[j], slices[i]] += np.kron(a, a.conj())
    return s


def test_superoperator_equals_the_kron_loop_bitwise():
    bank = endomorphism_map_bank()
    assert len(bank) == 247
    for name, phi in bank:
        assert np.array_equal(to_superoperator(phi), kron_superoperator(phi)), name


def test_superoperator_consistency_with_apply():
    rng = np.random.default_rng(6)
    fam, _ = mixture_family_with_data(11, dims=(2, 3), terms=2, d=1)
    s = to_superoperator(fam.generators[0])
    for _ in range(10):
        x = random_element(fam.structure, rng)
        assert (element_from_coords(fam.structure, s @ x.coords()) - apply(fam.generators[0], x)).norm() < 1e-10


def test_superoperator_functorial():
    rng = np.random.default_rng(7)
    st = BlockStructure((2, 2))
    a = conjugation_map(st, [random_unitary(rng, 2), random_unitary(rng, 2)])
    b = tail_shift_map(2, 1, random_unitary(rng, 2))
    lhs = to_superoperator(compose(a, b))
    rhs = to_superoperator(a) @ to_superoperator(b)
    assert op_norm(lhs - rhs) < 1e-10


def test_power():
    fam = damping_family(0.5)
    assert op_norm(to_superoperator(chain(fam, (0,))) - np.eye(4)) < 1e-14
    two = chain(fam, (2,))
    direct = compose(fam.generators[0], fam.generators[0])
    assert op_norm(to_superoperator(two) - to_superoperator(direct)) < 1e-12


def test_power_two_generators_orderless():
    fam, _ = mixture_family_with_data(12, dims=(2,), terms=2, d=2)
    g1, g2 = fam.generators
    ab = to_superoperator(compose(g1, g2))
    ba = to_superoperator(compose(g2, g1))
    assert op_norm(ab - ba) < 1e-9
    s11 = to_superoperator(chain(fam, (1, 1)))
    assert op_norm(s11 - ab) < 1e-12


def test_apply_power_matches_power():
    rng = np.random.default_rng(8)
    fam, _ = mixture_family_with_data(13, dims=(2, 2), terms=2, d=2)
    x = random_element(fam.structure, rng)
    lhs = apply_power(fam, (2, 3), x)
    rhs = apply(chain(fam, (2, 3)), x)
    assert (lhs - rhs).norm() < 1e-10


def test_kraus_pruning_keeps_map():
    # composing a 3-term mixture with itself would give 9 Kraus terms;
    # pruning caps the count at n^2 without changing the superoperator
    fam, _ = mixture_family_with_data(14, dims=(2,), terms=3, d=1)
    g = fam.generators[0]
    gg = compose(g, g)
    for (_, _), ops in gg.kraus:
        assert len(ops) <= 4
    assert op_norm(to_superoperator(gg) - to_superoperator(g) @ to_superoperator(g)) < 1e-12


def test_kadison_schwarz_property():
    rng = np.random.default_rng(9)
    fam, _ = mixture_family_with_data(16, dims=(2, 3), terms=3, d=1)
    gens = list(fam.generators) + list(damping_family(0.5).generators) + list(leaky_damping_family().generators)
    for phi in gens:
        st = phi.source
        for _ in range(100):
            x = random_element(st, rng)
            img = apply(phi, x)
            gap = apply(phi, x.adjoint() @ x) - img.adjoint() @ img
            assert all(is_psd(b, 1e-9) for b in gap.blocks)


def test_positivity_and_contractivity():
    rng = np.random.default_rng(10)
    phi = damping_family(0.7).generators[0]
    for _ in range(50):
        g = random_element(M2, rng)
        pos = g @ g.adjoint()
        assert all(is_psd(b, 1e-9) for b in apply(phi, pos).blocks)
        x = random_element(M2, rng)
        assert apply(phi, x).norm() <= x.norm() + 1e-9


def test_endomorphism_order_preservation():
    rng = np.random.default_rng(11)
    st = BlockStructure((2, 2, 2))
    alpha = tail_shift_map(2, 2, random_unitary(rng, 2))
    for _ in range(20):
        g = random_element(st, rng)
        h = random_element(st, rng)
        low = g @ g.adjoint()
        high = low + h @ h.adjoint()
        diff = apply(alpha, high) - apply(alpha, low)
        assert all(is_psd(b, 1e-9) for b in diff.blocks)


def test_mixture_fixed_dim_oracle():
    for seed in range(10):
        fam, data = mixture_family_with_data(seed, dims=(2, 3), terms=3, d=1 + seed % 2)
        from cpfix.fixpoint import fixed_space

        assert fixed_space(fam).dimension == mixture_fixed_dim(data, (2, 3))


def test_unital_weakstar_note():
    # weak*-continuity is automatic in finite dimension; validate_cp carries
    # the unitality flag that the contractivity order argument uses
    rep = validate_cp(rotation_family().generators[0])
    assert rep.is_unital


def test_memo_remembers_a_raised_error():
    calls = []

    @_cached_on_argument
    def failing(obj):
        calls.append(obj)
        raise CpfixError(f"failed on call {len(calls)}")

    obj = SemigroupFamily(BlockStructure((1,)), ())
    depths = []
    for _ in range(3):
        with pytest.raises(CpfixError, match="failed on call 1") as info:
            failing(obj)
        depths.append(len(traceback.extract_tb(info.value.__traceback__)))
    assert calls == [obj]  # computed once; later calls raise the remembered error
    assert depths[1] == depths[2] <= depths[0]  # each raise starts a fresh traceback
