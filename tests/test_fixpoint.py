import copy
import dataclasses
import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfix import fixpoint
from cpfix.errors import CpfixError, Divergent, NoConvergence, NotContractive, NotFixed, NotInCStar
from cpfix.matcore import nullspace, nullspace_pair, op_norm, psd_sqrt, random_complex, random_unitary
from cpfix.vnalg import (
    AlgebraElement,
    BlockStructure,
    _combos,
    _injected,
    _norms,
    _star,
    amplify_combination,
    compress,
    element_from_coords,
    identity_element,
    inject,
)
from cpfix.cpsemi import (
    apply,
    apply_power,
    conjugation_map,
    cp_map,
    damping_family,
    leaky_damping_family,
    make_family,
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
    span_distance,
)

from helpers import (
    count_calls,
    embed,
    identity_family,
    identity_map,
    linear_lift,
    loose_dual_kernels,
    mixture_family,
    random_element,
)

M2 = BlockStructure((2,))
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def combo(matrix, structure, rng):
    """Random normalized complex combination of orthonormal basis columns: one random_complex draw."""
    v = matrix @ random_complex(rng, matrix.shape[1], 1)[:, 0]
    n = np.linalg.norm(v)
    return element_from_coords(structure, v / n if n > 0 else v)


def normalized(v):
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


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


def test_fixed_space_rejects_a_basis_a_generator_moves(monkeypatch):
    # kernels whose B spans the Hermitian span{E01 + E10, i(E01 - E10)}: the identity fixes it, the
    # second generator rotates it by e^{-+i pi/3}, so the check on the coordinate block must fail
    moved = np.array([[0, 1, 1, 0], [0, 1j, -1j, 0]]).T / np.sqrt(2.0)
    monkeypatch.setattr(fixpoint, "_kernels", lambda family: (moved, moved))
    fam = SemigroupFamily(M2, (identity_map(M2), rotation_family(np.pi / 3).generators[0]))
    with pytest.raises(NoConvergence, match="fails the defining equation"):
        fixed_space(fam)


def test_fixed_basis_is_built_on_first_read(monkeypatch):
    halving = make_family([cp_map(M2, M2, {(0, 0): [np.sqrt(0.5) * np.eye(2)]})])  # fixes only 0
    families = [mixture_family(3, dims=(2, 3), terms=3, d=2), damping_family(0.5), halving]
    counts = count_calls(monkeypatch, ("vnalg.AlgebraElement",))
    spaces = [fixed_space(fam) for fam in families]
    assert counts["vnalg.AlgebraElement"] == 0
    assert [fs.dimension for fs in spaces] == [fs.matrix.shape[1] for fs in spaces]
    assert spaces[-1].dimension == 0
    for fs in spaces:
        before = counts["vnalg.AlgebraElement"]
        basis = fs.basis
        assert counts["vnalg.AlgebraElement"] - before == fs.dimension == len(basis)
        assert fs.basis is basis
        for b, col in zip(basis, fs.matrix.T):
            want = element_from_coords(fs.structure, col)
            assert all(np.array_equal(x, y) for x, y in zip(b.blocks, want.blocks))
    assert spaces[-1].basis == ()


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
    fs = FixedSpace(M2, x.coords()[:, None])
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
        assert erg.diagnostics["fixed_dim"] == fs.dimension
        assert erg.diagnostics["cesaro_terms"] >= 2**19
        assert erg.diagnostics["cesaro_gap"] <= 1e-3


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


def _mean_projection(s: np.ndarray) -> tuple[np.ndarray, dict]:
    """Cesaro limit of averages of powers of a power-bounded superoperator.

    The limit is the projection onto ker(1 - S) along ran(1 - S); both
    spaces come out of one SVD and the oblique projection formula
    V (W* V)^{-1} W* evaluates the limit exactly, avoiding the slow O(1/N)
    tail of literal averaging.
    """
    d = s.shape[0]
    left, right = nullspace_pair(np.eye(d) - s, fixpoint.FIXED_TOL)
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


def looped_rho(family):
    """Reference rho: the product of the per-generator mean projections, one full SVD each."""
    rho = np.eye(family.structure.coord_dim, dtype=complex)
    for gen in family.generators:
        rho = rho @ _mean_projection(gen.superop)[0]
    return rho


def gap_models(gap):
    """Damping, rotation and leaky damping whose slowest decay is set by gap."""
    return [damping_family(gap), rotation_family(gap), leaky_damping_family(np.sqrt(1.0 - gap), np.sqrt(gap / 2.0))]


def test_shared_rho_matches_the_per_generator_product(monkeypatch):
    instances = [build_random_instance(seed, d=d) for seed in range(30) for d in (1, 2)]
    bare = [mixture_family(seed, dims=(2, 3), terms=3, d=d) for seed in range(10) for d in (1, 2)]
    bare += gap_models(0.25) + gap_models(1e-6) + [identity_family(M2, d=2)]
    want = {fam: looped_rho(fam) for fam in bare + [f for inst in instances for f in (inst.phi, inst.alpha)]}
    for fam, rho in want.items():
        assert op_norm(fixpoint._splitting(fam)[0] - rho) <= 1e-12
    for fam in bare + [inst.phi for inst in instances]:
        assert ergodic_projection(fam).matrix is fixpoint._splitting(fam)[0]
    # the certificate's R = rho_alpha o inject: its residuals with the reference rho_alpha are the same
    fields = ("choi_floor", "unit_excess", "left_inverse_defect", "max_defect")
    shared = [check_complete_isometry(inst) for inst in instances]
    monkeypatch.setattr(fixpoint, "_splitting", lambda fam: (want[fam], {}))
    for inst, got in zip(instances, shared):
        ref = check_complete_isometry(inst)
        assert got.passed == ref.passed
        assert np.allclose([getattr(got, f) for f in fields], [getattr(ref, f) for f in fields], rtol=0, atol=1e-12)


def looped_cesaro(family, rho):
    """Reference: each generator's doubling Cesaro average in its own loop, and the product against rho."""
    steps = fixpoint.CESARO_CAP.bit_length() - 1
    eye = np.eye(rho.shape[0], dtype=complex)
    avgs, increment = [], 0.0
    for gen in family.generators:
        avg, pw = eye, gen.superop
        for _ in range(steps):
            nxt = 0.5 * (avg + pw @ avg)
            step, avg, pw = nxt - avg, nxt, pw @ pw
        avgs.append(avg)
        increment = max(increment, float(op_norm(step)))
    return {"cesaro_increment": increment, "cesaro_gap": float(op_norm(functools.reduce(np.matmul, avgs) - rho))}


def looped_defects(family, rho):
    """Reference: the idempotency defect and one op_norm per generator and side."""
    return {
        "idempotency": op_norm(rho @ rho - rho),
        "intertwine_left": max(op_norm(g.superop @ rho - rho) for g in family.generators),
        "intertwine_right": max(op_norm(rho @ g.superop - rho) for g in family.generators),
    }


def test_stacked_cesaro_and_defects_match_the_per_generator_loop():
    """Mixtures with d = 1, 2, the named models and the corner families of random dilations."""
    families = [mixture_family(seed, dims=(2, 3), terms=3, d=d) for seed in range(10) for d in (1, 2)]
    families += [damping_family(0.5), rotation_family(), leaky_damping_family(), identity_family(M2, d=2)]
    families += [build_random_instance(seed, d=d).phi for seed in range(10) for d in (1, 2)]
    for fam in families:
        erg = ergodic_projection(fam)
        got = {**erg.diagnostics, **erg.diagnostics["defects"]}
        want = {**looped_cesaro(fam, erg.matrix), **looped_defects(fam, erg.matrix)}
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * value, (key, got[key], value)


def test_cesaro_comparison_is_built_on_first_read(monkeypatch):
    counts = count_calls(monkeypatch, ("fixpoint._cesaro_check",))
    fam = mixture_family(3, dims=(2, 3), terms=3, d=2)
    erg = ergodic_projection(fam)
    property_suite(fam, seed=0, samples=20)
    kernel_ideal_check(fam)
    # no verdict reads the Cesaro comparison
    assert counts["fixpoint._cesaro_check"] == 0
    first = erg.diagnostics
    assert erg.diagnostics is first
    assert counts["fixpoint._cesaro_check"] == 1
    assert list(first) == [
        "fixed_dim", "splitting_cond", "cesaro_terms", "cesaro_steps", "cesaro_increment", "cesaro_gap",
        "defects", "choi_floor", "one_excess",
    ]
    want = looped_cesaro(fam, erg.matrix)["cesaro_gap"]
    assert abs(first["cesaro_gap"] - want) <= 1e-12 * want


def hermitian_basis(structure, cols):
    """An orthonormal basis of a *-closed span rotated into Hermitian form, by one SVD of the real
    representation of the symmetrized candidates: the rebasing step of the stacked route."""
    r = cols.shape[1]
    if r == 0:
        return cols
    w = _star(structure, cols)
    c = np.stack([0.5 * (cols + w), -0.5j * (cols - w)], axis=-1).reshape(len(cols), 2 * r)
    u, s, _ = np.linalg.svd(np.vstack([c.real, c.imag]), full_matrices=False)
    assert s.size >= r and s[r - 1] > 1e-8 * s[0]
    d = structure.coord_dim
    return u[:d, :r] + 1j * u[d:, :r]


def stacked_kernels(family):
    """Reference B and W: one SVD of the stacked S_i - 1 and one of the stacked (S_i - 1)*, B rebased to Hermitian form."""
    eye = np.eye(family.structure.coord_dim)
    b = nullspace(np.vstack([g.superop - eye for g in family.generators]), fixpoint.FIXED_TOL)
    w = nullspace(np.vstack([g.superop.conj().T - eye for g in family.generators]), fixpoint.FIXED_TOL)
    return hermitian_basis(family.structure, b), w


def kernel_bank():
    """build_random_instance seeds 0-39 x d = 1, 2 (alpha and phi), mixtures with d = 1, 2, the named
    models, and leaky dampings, dampings and rotations at gaps 1e-1 ... 1e-9."""
    instances = [build_random_instance(seed, d=d) for seed in range(40) for d in (1, 2)]
    families = [f for inst in instances for f in (inst.alpha, inst.phi)]
    families += [mixture_family(seed, dims=(2, 3), terms=3, d=d) for seed in range(10) for d in (1, 2)]
    families += [damping_family(0.5), rotation_family(), leaky_damping_family(), identity_family(M2, d=2)]
    families += [fam for k in range(1, 10) for fam in gap_models(10.0**-k)]
    return families


def test_kernels_match_the_stacked_route():
    """One real SVD in the Hermitian frame and the r x r restrictions give the stacked route's kernels."""
    for fam in kernel_bank():
        st = fam.structure
        b, w = fixpoint._kernels(fam)
        ref_b, ref_w = stacked_kernels(fam)
        assert b.shape == ref_b.shape and w.shape == ref_w.shape
        assert np.max(np.abs(b @ b.conj().T - ref_b @ ref_b.conj().T), initial=0.0) <= 1e-12
        assert np.max(np.abs(w @ w.conj().T - ref_w @ ref_w.conj().T), initial=0.0) <= 1e-12
        # B is Hermitian and orthonormal, and it is the fixed basis itself
        assert np.max(np.abs(_star(st, b) - b), initial=0.0) <= 1e-12
        assert np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1])), initial=0.0) <= 1e-12
        assert fixed_space(fam).matrix is b


def solved_splitting(family):
    """Reference rho = B (W* B)^{-1} W* by np.linalg.solve, and the singular value ratio of W* B."""
    b, w = fixpoint._kernels(family)
    g = w.conj().T @ b
    sv = np.linalg.svd(g, compute_uv=False)
    return b @ np.linalg.solve(g, w.conj().T), sv[0] / sv[-1]


def test_splitting_svd_route_matches_the_solve():
    for fam in kernel_bank():
        rho, diag = fixpoint._splitting(fam)
        want, cond = solved_splitting(fam)
        assert op_norm(rho - want) <= 1e-12
        assert abs(diag["splitting_cond"] - cond) <= 1e-12 * cond


def test_splitting_dimension_mismatch_is_no_convergence(monkeypatch):
    # for d = 1 one square SVD gives both kernels, so their dimensions agree by rank-nullity; kernels
    # whose W is taken at 1e-2 hold leaky damping's slow directions, and the fixed basis does not
    fam = leaky_damping_family(0.999, 0.03)
    assert fixed_space(fam).dimension == 1
    assert fixpoint._kernels(fam)[1].shape[1] == 1
    monkeypatch.setattr(fixpoint, "_kernels", loose_dual_kernels(monkeypatch))
    assert fixpoint._kernels(fam)[1].shape[1] == 4
    with pytest.raises(NoConvergence, match="fixed space has dimension 1 but its dual"):
        ergodic_projection(fam)


def test_phi_limit_fixed_point_immediate():
    fam = rotation_family(np.pi / 3)
    y = unit(0, 0)
    assert (phi_limit(fam, y) - y).norm() < 1e-12


def test_phi_limit_damping_converges_to_one():
    fam = damping_family(0.5)
    lim = phi_limit(fam, unit(0, 0))
    assert (lim - identity_element(M2)).norm() <= 1e-8


@pytest.mark.parametrize("c, s", [(np.sqrt(1.0 - 1e-4), 5e-3), (0.99995, 0.005), (0.999, 0.03)])
def test_phi_limit_slow_leaky_gaps_reach_the_mean_projection(c, s):
    # by hand: rho(E11) = 0 and rho(E00) = E00 + k E11 with k = s^2 / (1 - c^2)
    fam = leaky_damping_family(c, s)
    k = s * s / (1.0 - c * c)
    assert phi_limit(fam, unit(1, 1)).norm() <= 1e-12
    assert (phi_limit(fam, unit(0, 0)) - AlgebraElement(M2, (np.diag([1.0, k]).astype(complex),))).norm() <= 1e-12


def test_phi_limit_periodic_orbit_fails_the_generator_check():
    # theta^4 = 1 on E01, so the third doubling, a step by theta^4, moves nothing; theta moves the value
    with pytest.raises(Divergent, match=f"^{fixpoint.PERIODIC}$"):
        phi_limit(rotation_family(np.pi / 2), unit(0, 1))


def test_phi_limit_names_the_periodic_orbits_of_a_random_corner():
    # d = 1 and theta has the eigenvalue -1 on the corner: each matrix unit's orbit has period 2
    inst = build_random_instance(36, d=1)
    corner = inst.emb.corner
    assert corner.coord_dim == 4
    for unit_coords in np.eye(4, dtype=complex):
        with pytest.raises(Divergent, match=f"^{fixpoint.PERIODIC}$"):
            phi_limit(inst.phi, element_from_coords(corner, unit_coords))


def test_phi_limit_rotation_diverges_at_the_default_budget():
    with pytest.raises(Divergent, match="no convergence within 1048575 steps"):
        phi_limit(rotation_family(np.pi / 3), unit(0, 1))


def test_phi_limit_overflowing_orbit_diverges_without_warnings():
    # an unchecked family with theta = 4: the increments overflow within ten doublings
    fam = SemigroupFamily(M2, (cp_map(M2, M2, {(0, 0): [2.0 * np.eye(2, dtype=complex)]}),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Divergent, match=r"last increment inf\)$"):
            phi_limit(fam, unit(0, 0))


def full_norm_limits(family, v, prefix):
    """Reference _diagonal_limits that takes the operator norm of every limit, every defect and every theta step."""
    v = np.array(v, dtype=complex)
    live = np.arange(v.shape[1])
    w, last = v, np.full(v.shape[1], np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(fixpoint.DOUBLINGS):
            if live.size == 0:
                break
            nxt = family.theta_square(k) @ w
            inc = np.linalg.norm(nxt - w, axis=0)
            last[live] = inc
            done = inc <= fixpoint.STEP_TOL
            v[:, live[done]] = nxt[:, done]
            going = ~done & np.isfinite(inc)
            live, w = live[going], nxt[:, going]
    # row 0: each limit; row 1: its theta step; row 2 + i: its defect under generator i
    norms = _norms(family.structure, np.hstack([v, family.theta @ v - v] + [g.superop @ v - v for g in family.generators]))
    norms = norms.reshape(2 + family.rank, v.shape[1])
    bound = 10.0 * fixpoint.STEP_TOL * np.maximum(1.0, norms[0])
    off = np.any(norms[2:] > bound, axis=0)
    messages = [prefix + (fixpoint.PERIODIC if p else fixpoint.STALLED) for p in norms[1] > bound]
    errors = [Divergent(m) if o else None for o, m in zip(off, messages)]
    for j in np.flatnonzero(~(last <= fixpoint.STEP_TOL)):
        errors[j] = Divergent(f"no convergence within {2**fixpoint.DOUBLINGS - 1} steps (last increment {last[j]:g})")
    return v, errors


def assert_same_limits(family, v):
    lims, errors = fixpoint._diagonal_limits(family, v, "")
    want, want_errors = full_norm_limits(family, v, "")
    assert np.array_equal(lims, want)
    assert [(type(e), str(e)) for e in errors] == [(type(e), str(e)) for e in want_errors]
    return errors


def test_norm_screen_leaves_the_diagonal_limits_unchanged():
    for seed in range(40):
        for d in (1, 2):
            inst = build_random_instance(seed, d=d)
            rng = np.random.default_rng(seed)
            cstar = cstar_closure(fixed_space(inst.phi)).matrix
            for family, converging in ((inst.phi, cstar), (inst.alpha, fixpoint._injected(inst.emb, cstar))):
                # C* elements converge; random elements mostly do not, or stall off the fixed space
                v = np.hstack([converging, random_complex(rng, family.structure.coord_dim, 2)])
                assert_same_limits(family, np.hstack([v, 1e3 * v]))


@pytest.mark.parametrize("angle", [0.3, 2e-6, 2e-12])
def test_norm_screen_leaves_moved_limits_unchanged(angle):
    # theta = 1 for the pair u, u*, so every element stops at once; u moves E01 by about angle * ||E01||
    u = np.diag([1.0, np.exp(1j * angle)])
    family = make_family([conjugation_map(M2, [u]), conjugation_map(M2, [u.conj()])])
    v = np.stack([unit(0, 1).coords(), unit(0, 0).coords()], axis=1)
    errors = assert_same_limits(family, np.hstack([v, 1e3 * v]))
    # at 2e-12 the defect of 1e3 E01 is past the screen's 1e-9 / 2 but within 1e-9 max(1, 1e3)
    assert [e is not None for e in errors] == [angle > 1e-6, False, angle > 1e-9, False]
    # theta fixes the moved E01, so it stalled rather than cycled
    assert {str(e) for e in errors if e is not None} <= {fixpoint.STALLED}


def slow_gap_families(seed=0):
    """Leaky damping at the 12 gaps 1e-1 .. 5e-5 and damping at every second gap, as the slow_gap bench builds them."""
    rng = np.random.default_rng(seed)
    gaps = np.geomspace(1e-1, 5e-5, 12)
    leaky = [leaky_damping_family(np.sqrt(1.0 - gap), np.sqrt(rng.uniform(0.25, 0.75) * gap)) for gap in gaps]
    return leaky + [damping_family(gap) for gap in gaps[::2]]


def stopping_doublings(family, v):
    """The doubling at which each column's increment first reaches STEP_TOL, or None within the budget."""
    first = [None] * v.shape[1]
    w = np.array(v, dtype=complex)
    for k in range(fixpoint.DOUBLINGS):
        nxt = family.theta_square(k) @ w
        for j in np.flatnonzero(np.linalg.norm(nxt - w, axis=0) <= fixpoint.STEP_TOL):
            first[j] = k if first[j] is None else first[j]
        w = nxt
    return first


def test_diagonal_limits_match_the_oracle_on_every_slow_gap_family():
    # E00, E11, E01 and a converging combination of all three
    v = np.stack([unit(0, 0).coords(), unit(1, 1).coords(), unit(0, 1).coords()], axis=1)
    v = np.hstack([v, v @ np.array([[0.6 - 0.2j], [-1.3], [0.4 + 0.9j]])])
    diverged = 0
    for family in slow_gap_families():
        # the diagonal and the off-diagonal columns stop at different doublings
        assert len(set(stopping_doublings(family, v))) == 2
        diverged += sum(err is not None for err in assert_same_limits(family, v))
    # at the smallest leaky gap E01 and the combination outlast the budget beside two that stop
    assert diverged == 2


def test_diagonal_limits_match_the_oracle_when_one_column_overflows_and_one_stops():
    # an unchecked family on C + C with theta = (4, 1/4): E0 overflows within ten doublings, E1 stops
    st = BlockStructure((1, 1))
    one = np.eye(1, dtype=complex)
    fam = SemigroupFamily(st, (cp_map(st, st, {(0, 0): [2.0 * one], (1, 1): [0.5 * one]}),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors = assert_same_limits(fam, np.eye(2, dtype=complex))
    assert str(errors[0]).endswith("(last increment inf)") and errors[1] is None


def test_diagonal_limits_match_the_oracle_when_one_column_never_stops():
    # the rotation fixes E00 at once and moves E01 at every doubling of the budget
    fam = rotation_family(np.pi / 3)
    errors = assert_same_limits(fam, np.stack([unit(0, 1).coords(), unit(0, 0).coords()], axis=1))
    assert str(errors[0]).startswith("no convergence within 1048575 steps") and errors[1] is None


def test_diagonal_limits_of_an_empty_block_square_nothing():
    # a trivial C*(N^phi) gives _cstar_lifts a block of no columns, which must not run the whole budget
    fam = rotation_family(np.pi / 3)
    assert assert_same_limits(fam, np.zeros((4, 0), dtype=complex)) == []
    assert len(vars(fam).get("_theta_squares", [fam.theta])) == 1


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


def reference_pi_limits(instance, y, limits=fixpoint._diagonal_limits):
    """Reference: pi of each column on its own, the span check and then the doubling iteration of inject(y).

    `limits` is bound to the unpatched _diagonal_limits.  NotInCStar takes
    the place of any Divergent.
    """
    cs = cstar_closure(fixed_space(instance.phi))
    z, errors = limits(instance.alpha, _injected(instance.emb, y), "ambient ")
    for j in range(y.shape[1]):
        gap = span_distance(cs.matrix, y[:, j])
        if gap > fixpoint.SPAN_TOL * max(1.0, element_from_coords(instance.emb.corner, y[:, j]).norm()):
            errors[j] = NotInCStar(f"element is {gap:g} away from C*(N^phi); limit not guaranteed")
    return z, errors


def nonminimal_identity_instance():
    st = BlockStructure((2, 2))
    alpha = make_family([identity_map(st)], expect_endomorphic=True)
    p = AlgebraElement(st, (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
    return make_instance(alpha, p)


def pi_oracle_instances():
    """Random dilations (seeds 0-29, d = 1, 2), the Pauli-X and rotation tail shifts, the non-minimal control."""
    for seed in range(30):
        for d in (1, 2):
            yield build_random_instance(seed, d=d)
    yield build_tail_shift(2, 2, PAULI_X)
    yield build_tail_shift(3, 3, np.diag(np.exp(1j * np.pi / 3 * np.arange(3))))
    yield nonminimal_identity_instance()


def test_pi_limits_match_the_per_column_reference_and_the_left_inverse():
    rng = np.random.default_rng(0)
    for inst in pi_oracle_instances():
        corner = inst.emb.corner
        b = cstar_closure(fixed_space(inst.phi)).matrix
        # the C* basis itself and scaled random combinations of it
        y = np.hstack([b, 3.0 * _combos(b, rng.standard_normal((4, 2, b.shape[1])))])
        tol = 1e-12 * np.maximum(1.0, _norms(corner, y))
        ref, ref_errors = reference_pi_limits(inst, y)
        z, errors = fixpoint._pi_limits(inst, y)
        assert errors == ref_errors == [None] * y.shape[1]
        assert np.all(_norms(inst.structure, z - ref) <= tol)
        single = np.column_stack([pi_limit(inst, element_from_coords(corner, col)).coords() for col in y.T])
        assert np.all(_norms(inst.structure, single - ref) <= tol)
        # the paper's left inverse R = rho_alpha o inject agrees with pi on C*(N^phi)
        r = fixpoint._splitting(inst.alpha)[0] @ _injected(inst.emb, np.eye(corner.coord_dim))
        assert np.all(_norms(inst.structure, z - r @ y) <= tol)


def test_pi_limits_iterate_once_per_instance(monkeypatch):
    inst = build_random_instance(3, d=2)
    limits = fixpoint._diagonal_limits
    calls = []

    def counted(*args):
        calls.append(args[1].shape[1])
        return limits(*args)

    monkeypatch.setattr(fixpoint, "_diagonal_limits", counted)
    fs = fixed_space(inst.phi)
    cs = cstar_closure(fs)
    rng = np.random.default_rng(1)
    for _ in range(21):
        pi_limit(inst, combo(cs.matrix, inst.emb.corner, rng))
    lift_fixed_point(inst, fs.basis[0])
    # one iteration, of the C*(N^phi) basis block; one per element would make 22
    assert calls == [cs.dimension]


def test_pi_limits_fall_back_per_column_when_a_basis_column_fails(monkeypatch):
    # conjugation by diag(1, e^{0.7i}) with p = 1: C*(N^phi) is the diagonal, and E01 rotates forever
    st = BlockStructure((2,))
    alpha = make_family([conjugation_map(st, [np.diag([1.0, np.exp(0.7j)])])], expect_endomorphic=True)
    inst = make_instance(alpha, identity_element(st))
    limits = fixpoint._diagonal_limits
    basis_blocks = []

    def failing_basis(family, v, prefix):
        z, errors = limits(family, v, prefix)
        if not basis_blocks:  # the instance's first call is the basis block of _cstar_lifts
            basis_blocks.append(v.shape[1])
            errors[0] = Divergent("basis column 0 forced to fail")
        return z, errors

    monkeypatch.setattr(fixpoint, "_diagonal_limits", failing_basis)
    b = cstar_closure(fixed_space(inst.phi)).matrix
    e00, e01 = unit(0, 0).coords(), unit(0, 1).coords()
    # in C*(N^phi); within SPAN_TOL of it, but its rotating part never settles; outside it
    y = np.column_stack([b @ np.array([1.0, 2.0j]), e00 + 5e-9 * e01, e01])
    z, errors = fixpoint._pi_limits(inst, y)
    ref, ref_errors = reference_pi_limits(inst, y, limits)
    assert basis_blocks == [b.shape[1]]
    assert [type(err) for err in ref_errors] == [type(None), Divergent, NotInCStar]
    assert [(type(err), str(err)) for err in errors] == [(type(err), str(err)) for err in ref_errors]
    np.testing.assert_array_equal(z, ref)  # the same iteration of the same columns
    for col, err in zip(y.T, ref_errors):
        elem = element_from_coords(st, col)
        if err is None:
            assert np.array_equal(pi_limit(inst, elem).coords(), ref[:, 0])
        else:
            with pytest.raises(type(err)) as info:
                pi_limit(inst, elem)
            assert str(info.value) == str(err)


def test_lift_fixed_point_tail_shift():
    inst = build_tail_shift(2, 2, PAULI_X)
    y = AlgebraElement(inst.emb.corner, (PAULI_X,))
    z = lift_fixed_point(inst, y)
    assert (z - linear_lift(inst, y)).norm() <= 1e-10  # both routes agree
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
    rep = check_complete_isometry(inst)
    assert rep.passed and rep.bijective
    assert rep.route == "certificate"
    assert rep.dim_ambient_fixed == rep.dim_corner_fixed == 2
    assert rep.max_defect <= 1e-8
    assert rep.max_defect == max(-rep.choi_floor, rep.unit_excess, rep.left_inverse_defect, 0.0)
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


def _sampled_defects(basis, compressed, levels: int, samples: int, seed: int) -> dict:
    """Largest relative norm defect of compression on samples of M_k(M^alpha), per level k = 1..levels.

    Samples random complex combinations sum_j kron(C_j, b_j) over the
    ambient fixed basis and compares amplified operator norms before and
    after compression.  Each level draws, amplifies and takes norms of all
    its samples at once.
    """
    rng = np.random.default_rng(seed)
    level_defects = {}
    for k in range(1, levels + 1):
        # the numbers random_complex(rng, k, k) draws per sample and basis element, in its order
        g = rng.standard_normal((samples, len(basis), 2, k, k))
        coeffs = (g[:, :, 0] + 1j * g[:, :, 1]) / np.sqrt(2.0)
        nx = np.max([op_norm(b) for b in amplify_combination(coeffs, basis)], axis=0)
        nex = np.max([op_norm(b) for b in amplify_combination(coeffs, compressed)], axis=0)
        level_defects[k] = float(np.max(np.abs(nx - nex) / np.maximum(1.0, nx), initial=0.0))
    return level_defects


def sampled_defects(inst, levels, samples, seed):
    """Oracle for check_complete_isometry: the sampled norm defects of E on M_k(M^alpha), k = 1..levels."""
    basis = fixed_space(inst.alpha).basis
    return _sampled_defects(basis, [compress(inst.emb, b) for b in basis], levels, samples, seed)


def test_complete_isometry_matches_looped_reference():
    minimal = build_tail_shift(2, 3, np.diag([1.0, np.exp(0.9j)]))
    nonminimal = nonminimal_identity_instance()
    for inst in (minimal, nonminimal):
        got = sampled_defects(inst, levels=3, samples=40, seed=5)
        ref = looped_isometry_defects(inst, levels=3, samples=40, seed=5)
        assert set(got) == set(ref) == {1, 2, 3}
        for k in ref:
            assert abs(got[k] - ref[k]) <= 1e-12
    assert max(sampled_defects(minimal, 3, 40, 5).values()) <= 1e-12
    assert all(defect > 1e-3 for defect in sampled_defects(nonminimal, 3, 40, 5).values())
    rep = check_complete_isometry(nonminimal)
    assert rep.route == "certificate"
    assert rep.dim_ambient_fixed == 8 and rep.dim_corner_fixed == rep.compression_rank == 4
    assert rep.passed is False and rep.bijective is False
    # rho_alpha is the identity, so R = inject: CP, and R(1_N) = p has norm 1, but R E (1 - p) = 0
    assert np.allclose((rep.choi_floor, rep.unit_excess, rep.left_inverse_defect), (0.0, 0.0, 1.0), atol=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_certificate_verdict_equals_sampled_verdict(d):
    """On random dilations and both controls the certificate decides as the sampled oracle does."""
    cases = [build_random_instance(seed, d=d) for seed in range(40)]
    cases += [nonminimal_identity_instance(), build_tail_shift(2, 2, PAULI_X)]
    routes = set()
    for inst in cases:
        rep = check_complete_isometry(inst)
        sampled = max(sampled_defects(inst, 3, 30, 1).values())
        assert rep.passed == (rep.bijective and sampled <= 1e-8)
        if rep.passed:
            assert rep.choi_floor >= -1e-8 and rep.unit_excess <= 1e-8 and rep.left_inverse_defect <= 1e-8
        routes.add(rep.route)
    assert routes == {"certificate"}


def transpose_instance():
    """M_2 with p = 1, under a generator whose superoperator is the transpose: positive, not CP.

    M^alpha is the symmetric matrices and E is the identity, so the sampled
    oracle passes, but R = rho_alpha = (id + transpose)/2 has Choi floor -1/2.
    """
    eye = np.eye(2, dtype=complex)
    alpha = make_family([identity_map(M2)], expect_endomorphic=True)
    inst = make_instance(alpha, AlgebraElement(M2, (eye,)))
    transpose = identity_map(M2)
    vars(transpose)["superop"] = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    fake = SemigroupFamily(M2, (transpose,), is_endomorphic=True)
    return DilationInstance(M2, fake, inst.p, inst.emb, fake)


def nonunital_instance():
    """alpha(x_0, x_1) = (x_0, 0) on C + C with p = (1, 0): minimal, and E is bijective and isometric.

    R inverts E on M^alpha = C + 0 and is CP with R(1_N) = p, of norm 1.
    """
    st = BlockStructure((1, 1))
    alpha = make_family([cp_map(st, st, {(0, 0): [np.eye(1)]})], expect_endomorphic=True)
    return make_instance(alpha, AlgebraElement(st, (np.eye(1), np.zeros((1, 1)))))


def stretched_instance():
    """C + C with p = (1, 0), phi the identity on C, and alpha's superoperator (x_0, x_1) -> (x_0, 2 x_0).

    M^alpha = span (1, 2) and E is bijective, and R(y) = (y, 2y) is a CP
    left inverse of E with ||R(1_N)|| = 2: E halves the norm of every x.
    """
    st = BlockStructure((1, 1))
    inst = nonunital_instance()
    stretch = identity_map(st)
    vars(stretch)["superop"] = np.array([[1, 0], [2, 0]], dtype=complex)
    fake = SemigroupFamily(st, (stretch,), is_endomorphic=True)
    return DilationInstance(st, fake, inst.p, inst.emb, inst.phi)


@pytest.mark.parametrize(
    "build, residuals, passed, oracle",
    [
        pytest.param(transpose_instance, (-0.5, 0.0, 0.0), False, 0.0, id="transpose_instance"),
        pytest.param(nonunital_instance, (0.0, 0.0, 0.0), True, 0.0, id="nonunital_instance"),
        pytest.param(stretched_instance, (1.0, 1.0, 0.0), False, 0.5, id="stretched_instance"),
    ],
)
def test_one_residual_decides_the_certificate(build, residuals, passed, oracle):
    """Each certificate residual alone decides a bijective instance.

    The certificate is sufficient only on CP inputs, and validation admits
    only CP inputs: on the transpose, which is positive but not CP, E is
    isometric at every level, yet the certificate fails on its Choi floor.
    """
    inst = build()
    rep = check_complete_isometry(inst)
    got = (rep.choi_floor, rep.unit_excess, rep.left_inverse_defect)
    assert np.allclose(got, residuals, atol=1e-12)
    assert rep.bijective and rep.route == "certificate" and rep.passed is passed
    assert rep.max_defect == max(-rep.choi_floor, rep.unit_excess, rep.left_inverse_defect, 0.0)
    defects = sampled_defects(inst, 3, 20, 0)
    assert set(defects) == {1, 2, 3} and np.allclose(list(defects.values()), oracle, atol=1e-12)


def test_certificate_requires_a_surjective_compression():
    """A tail shift whose phi is replaced by the identity on the corner: dim N^phi > dim M^alpha.

    R is built from alpha alone, so the certificate residuals still hold
    and E is isometric, but E does not map onto N^phi.
    """
    inst = build_tail_shift(2, 2, np.diag(np.exp(1j * np.pi / 3 * np.arange(2))))
    inst = dataclasses.replace(inst, phi=identity_family(inst.emb.corner))
    rep = check_complete_isometry(inst)
    assert (rep.dim_ambient_fixed, rep.dim_corner_fixed, rep.compression_rank) == (2, 4, 2)
    assert rep.bijective is False and rep.passed is False and rep.route == "certificate"
    assert rep.max_defect <= 1e-12
    assert max(sampled_defects(inst, 3, 20, 0).values()) <= 1e-12


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


def defect_coords(family, pairs):
    """C*(N^phi) coordinates of x*y - Phi(x*y) over the given pairs of elements, one element at a time."""
    b = cstar_closure(fixed_space(family)).matrix
    erg = ergodic_projection(family)
    return [b.conj().T @ (erg.apply(x.adjoint() @ y) - x.adjoint() @ y).coords() for x, y in pairs]


def looped_kernel_ideal(family):
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
    gens = [v for v in defect_coords(family, itertools.product(fs.basis, repeat=2)) if np.linalg.norm(v) > 1e-10]
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


def leaky_first_factor():
    """Leaky damping on the first factor of M_2 (x) M_2: a 4-dimensional kernel in a noncommutative algebra."""
    m4 = BlockStructure((4,))
    ops = leaky_damping_family(0.6, 0.5).generators[0].ops(0, 0)
    return make_family([cp_map(m4, m4, {(0, 0): [np.kron(a, np.eye(2)) for a in ops]})])


def oracle_families():
    """Mixtures (d = 1, 2), leaky dampings, and the corners of tail-shift, random and non-minimal dilations."""
    yield from (mixture_family(seed, dims=(2, 3), terms=3, d=d) for seed in (1, 4) for d in (1, 2))
    # phase collisions: fixed spaces of dimension 9 and 7, beyond the diagonal
    yield from (mixture_family(25, dims=(2, 3), terms=1, d=d) for d in (1, 2))
    yield leaky_damping_family(0.6, 0.5)
    yield leaky_first_factor()
    yield build_tail_shift(2, 3, np.diag([1.0, np.exp(0.9j)])).phi
    yield from (build_random_instance(seed, n_max=3, m_max=4, d=2).phi for seed in (4, 11))
    yield nonminimal_identity_instance().phi


def projector(mat):
    return mat @ mat.conj().T


def test_cstar_closure_matches_looped_reference():
    x = AlgebraElement(M2, (PAULI_X / np.sqrt(2.0),))  # generates the identity
    e00 = unit(0, 0)  # generates a non-unital algebra
    spans = [FixedSpace(M2, y.coords()[:, None]) for y in (x, e00)]
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
        # default_rng passes a Generator through, so an unchanged state shows that nothing was drawn
        rng = np.random.default_rng(idx)
        state = copy.deepcopy(rng.bit_generator.state)
        rep = kernel_ideal_check(family, seed=rng)
        dim_kernel, dim_ideal, gap, invariance, passed = looped_kernel_ideal(family)
        assert (rep.dim_kernel, rep.dim_ideal, rep.passed) == (dim_kernel, dim_ideal, passed)
        assert abs(rep.max_subspace_gap - gap) <= 1e-12
        assert abs(rep.rho_invariance_residual - invariance) <= 1e-12
        assert rng.bit_generator.state == state
        kernels.append(dim_kernel)
    assert {1, 4} <= set(kernels)


def test_basis_products_span_the_kernel_before_any_growth(monkeypatch):
    # polarization: the r^2 defects b_i* b_j - Phi(b_i* b_j) span what every x*x - Phi(x*x) spans
    family = leaky_first_factor()
    basis = fixed_space(family).basis
    products = np.column_stack(defect_coords(family, itertools.product(basis, repeat=2)))
    squares = np.column_stack(defect_coords(family, [(x, x) for x in basis]))
    assert (np.linalg.matrix_rank(products), np.linalg.matrix_rank(squares)) == (4, 2)
    # with C*(N^phi) and rho cached, the check's first orthonormalization is that of its generators,
    # ahead of any growth round
    cstar_closure(fixed_space(family)), ergodic_projection(family)
    spans = []
    orthonormal = fixpoint._orthonormal_columns
    monkeypatch.setattr(fixpoint, "_orthonormal_columns", lambda m: spans.append(orthonormal(m)) or spans[-1])
    rep = kernel_ideal_check(family)
    assert rep.passed and rep.dim_kernel == rep.dim_ideal == spans[0].shape[1] == 4
    assert np.max(np.abs(projector(spans[0]) - projector(orthonormal(products)))) <= 1e-12


SAMPLED_ROWS = ("kadison_schwarz", "monotone_net", "vector_bound")


def test_basis_rows_and_kernel_ideal_ignore_seed_and_samples():
    cases = (
        mixture_family(7, dims=(2, 3), terms=3, d=2),
        leaky_damping_family(0.6, 0.5),
        build_random_instance(4, n_max=3, m_max=4, d=2),
    )
    seeds = (0, 1, 7)
    for obj in cases:
        family = obj.phi if isinstance(obj, DilationInstance) else obj
        runs = {
            (seed, samples): (property_suite(obj, seed=seed, samples=samples), kernel_ideal_check(family, seed=seed))
            for seed in seeds
            for samples in (5, 50)
        }
        first_suite, first_ideal = runs[(0, 5)]
        basis_rows = set(first_suite.items) - set(SAMPLED_ROWS)
        assert len(basis_rows) == (4 if isinstance(obj, DilationInstance) else 2)
        for (seed, samples), (suite, ideal) in runs.items():
            assert dataclasses.astuple(ideal) == dataclasses.astuple(first_ideal)
            assert {key: suite.items[key] for key in basis_rows} == {key: first_suite.items[key] for key in basis_rows}
            assert all(suite.items[key].count == samples for key in SAMPLED_ROWS)
        for key in SAMPLED_ROWS:
            worsts = {runs[(seed, 50)][0].items[key].worst for seed in seeds}
            # the monotone net of leaky damping is exactly 0 on every sample (its increments have kernels)
            assert len(worsts) == len(seeds) or (key, worsts) == ("monotone_net", {0.0}), (key, worsts)


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
    """Reference: the property suite one sample or basis element at a time, with one Kraus apply per step.

    Only kadison_schwarz, monotone_net and vector_bound draw from rng; the
    other four rows loop over basis elements.  Returns
    {item: (status, worst, count, note)} at the default thresholds.
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

    cs_basis = [element_from_coords(st, col) for col in cs.matrix.T]
    worst, failures, note = 0.0, 0, ""
    for q in cs_basis:
        try:
            worst = max(worst, (stepped_limit(family, q) - erg.apply(q)).norm())
        except Divergent as exc:
            failures += 1
            note = f"divergent on {failures} basis columns: {exc}"
    items["limit_vs_mean"] = ("PASS" if failures == 0 and worst <= 1e-7 else "FAIL", worst, len(cs_basis), note)

    worst = 0.0
    for x, y in itertools.product(cs_basis, repeat=2):
        a = erg.apply(x)
        worst = max(worst, (erg.apply(a @ y) - erg.apply(a @ erg.apply(y))).norm())
    items["choi_effros"] = ("PASS" if worst <= 1e-9 else "FAIL", worst, len(cs_basis) ** 2, "")

    # the four arrays of the vector bound, in turn: normals of x, of a and of h, then the multi-indices
    gx = rng.standard_normal((samples, 2, fs.dimension))
    ga = rng.standard_normal((samples, 2, cs.dimension))
    gh = rng.standard_normal((samples, 2, st.space_dim))
    s_idx = rng.integers(0, s_max + 1, size=(samples, family.rank))
    worst = -np.inf
    for j in range(samples):
        x = element_from_coords(st, normalized(fs.matrix @ (gx[j, 0] + 1j * gx[j, 1])))
        q = x.adjoint() @ x
        y = erg.apply(q) - q
        root = AlgebraElement(st, tuple(psd_sqrt(b, tol=1e-8) for b in y.blocks))
        a = element_from_coords(st, normalized(cs.matrix @ (ga[j, 0] + 1j * ga[j, 1])))
        h = normalized(gh[j, 0] + 1j * gh[j, 1])
        s = tuple(int(v) for v in s_idx[j])
        lhs = np.linalg.norm(embed(apply_power(family, s, a @ root)) @ h) ** 2
        rhs = a.norm() ** 2 * np.real(h.conj() @ embed(apply_power(family, s, y)) @ h)
        worst = max(worst, lhs - rhs)
    worst = worst if np.isfinite(worst) else 0.0
    items["vector_bound"] = ("PASS" if worst <= 1e-9 else "FAIL", worst, samples, "")

    if instance is not None:
        minimal = check_minimality(instance.alpha, instance.p).status is Minimality.MINIMAL
        base = "" if minimal else "minimality check: instance is non-minimal; lifting identity expected to fail"
        fs_ambient = fixed_space(instance.alpha)
        for key, basis, structure, threshold in (
            ("lift_identity", fs_ambient.matrix, instance.structure, 1e-8),
            ("factorization", cs.matrix, st, 1e-7),
        ):
            worst, note = 0.0, base
            for col in basis.T:
                x = element_from_coords(structure, col)
                try:
                    if key == "lift_identity":
                        residual = stepped_limit(instance.alpha, inject(instance.emb, compress(instance.emb, x))) - x
                    else:
                        residual = compress(instance.emb, stepped_limit(instance.alpha, inject(instance.emb, x))) - erg.apply(x)
                    worst = max(worst, residual.norm())
                except CpfixError as exc:
                    worst, note = np.inf, f"{base}; {exc}".strip("; ")
            items[key] = ("PASS" if worst <= threshold else "FAIL", worst, basis.shape[1], note)
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
    assert item.note.startswith("divergent on 2 basis columns: no convergence within 1048575 steps (last increment")


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


def instance_verdicts(inst, seed):
    """Every verdict, dimension, route and suite status of an instance, and its certificate residuals."""
    minimal = check_minimality(inst.alpha, inst.p)
    iso = check_complete_isometry(inst)
    suite = property_suite(inst, seed=seed, samples=15)
    verdicts = (
        inst.alpha.is_endomorphic,
        (minimal.status, minimal.steps),
        fixed_space(inst.alpha).dimension,
        fixed_space(inst.phi).dimension,
        (iso.passed, iso.bijective, iso.route),
        {key: item.status for key, item in suite.items.items()},
    )
    return verdicts, np.array([iso.max_defect, iso.choi_floor, iso.unit_excess, iso.left_inverse_defect])


def assert_same_instance_verdicts(inst, other, seed):
    verdicts, residuals = instance_verdicts(inst, seed)
    other_verdicts, other_residuals = instance_verdicts(other, seed)
    assert other_verdicts == verdicts
    assert np.max(np.abs(other_residuals - residuals)) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((1, 2)))
def test_block_unitary_conjugation_leaves_instance_verdicts(seed, d):
    inst = build_random_instance(seed, d=d)
    rng = np.random.default_rng(seed + 1)
    unitaries = [random_unitary(rng, n) for n in inst.structure.block_dims]
    alpha = rebased(inst.alpha, unitaries, list(range(len(unitaries))))
    p = AlgebraElement(inst.structure, tuple(v @ b @ v.conj().T for v, b in zip(unitaries, inst.p.blocks)))
    assert_same_instance_verdicts(inst, make_instance(alpha, p), seed)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((1, 2)))
def test_appending_the_identity_generator_leaves_instance_verdicts(seed, d):
    inst = build_random_instance(seed, d=d)
    alpha = make_family([*inst.alpha.generators, identity_map(inst.structure)])
    assert_same_instance_verdicts(inst, make_instance(alpha, inst.p), seed)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_swapping_the_generators_leaves_instance_verdicts(seed):
    inst = build_random_instance(seed, d=2)
    alpha = make_family(inst.alpha.generators[::-1])
    assert_same_instance_verdicts(inst, make_instance(alpha, inst.p), seed)
