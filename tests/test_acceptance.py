"""Acceptance suite: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; the whole
suite is seeded and finishes in well under a minute.
"""

import time

import numpy as np
import pytest

import cpfix as cf
from cpfix.cpsemi import mixture_family_with_data
from cpfix.cli import cmd_analyze, cmd_demo, cmd_dilation, cmd_validate, load_problem
from cpfix.matcore import op_norm, random_complex
from cpfix.vnalg import element_from_coords

from helpers import identity_map, linear_lift

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def combo(matrix, structure, rng):
    c = random_complex(rng, matrix.shape[1], 1)[:, 0]
    v = matrix @ c
    return element_from_coords(structure, v / max(np.linalg.norm(v), 1e-30))


def bare_model_families():
    out = []
    for seed in range(100):
        dims = [(2,), (3,), (2, 3)][seed % 3]
        fam, _ = mixture_family_with_data(seed, dims=dims, terms=3, d=1 + seed % 2)
        out.append((f"mixture-{seed}", fam))
    out.append(("damping-m2", cf.damping_family(0.5)))
    out.append(("rotation-m2", cf.rotation_family(np.pi / 3)))
    out.append(("leaky-damping-m2", cf.leaky_damping_family(0.5, 0.5)))
    return out


def test_acceptance_1_tail_shift_dilation_suite():
    t0 = time.time()
    for seed in range(100):
        inst = cf.build_random_instance(seed, n_min=2, n_max=3, m_min=1, m_max=4, d=1 + seed % 2)
        m = inst.structure.num_blocks - 1
        assert cf.check_coinvariance(inst.alpha, inst.p), f"seed {seed}: co-invariance"
        verdict = cf.check_minimality(inst.alpha, inst.p)
        assert verdict.status is cf.Minimality.MINIMAL, f"seed {seed}: {verdict.status}"
        assert verdict.steps <= m, f"seed {seed}: minimality took {verdict.steps} > m={m} steps"
        fs_ambient = cf.fixed_space(inst.alpha)
        fs_corner = cf.fixed_space(inst.phi)
        assert fs_ambient.dimension == fs_corner.dimension, f"seed {seed}: fixed dims differ"
        iso = cf.check_complete_isometry(inst, fs_ambient=fs_ambient, fs_corner=fs_corner)
        assert iso.passed and iso.bijective, f"seed {seed}: isometry {iso}"
        assert iso.route == "certificate", f"seed {seed}: route {iso.route}"
        assert iso.max_defect <= 1e-8, f"seed {seed}: defect {iso.max_defect}"
        cs = cf.cstar_closure(fs_corner)
        erg = cf.ergodic_projection(inst.phi)
        rng = np.random.default_rng(10_000 + seed)
        for _ in range(10):
            x = combo(fs_ambient.matrix, inst.structure, rng)
            z = cf.pi_limit(inst, cf.compress(inst.emb, x), cstar=cs)
            assert (z - x).norm() <= 1e-8, f"seed {seed}: pi(E(x)) != x"
        for _ in range(10):
            y = combo(cs.matrix, inst.emb.corner, rng)
            w = cf.pi_limit(inst, y, cstar=cs)
            assert (cf.compress(inst.emb, w) - erg.apply(y)).norm() <= 1e-7, f"seed {seed}: E(pi(y)) != Phi(y)"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: 100 tail-shift dilations: co-invariance, minimality <= m steps, "
          f"dim match, complete isometry certified <= 1e-8, pi/E identities ({elapsed:.1f}s)")


def test_acceptance_2_bare_cp_families():
    t0 = time.time()
    for idx, (name, fam) in enumerate(bare_model_families()):
        fs = cf.fixed_space(fam)
        cs = cf.cstar_closure(fs)
        erg = cf.ergodic_projection(fam)
        defects = erg.diagnostics["defects"]
        assert defects["idempotency"] <= 1e-8, name
        assert erg.diagnostics["choi_floor"] >= -1e-9, name
        assert erg.diagnostics["one_excess"] <= 1e-9, name
        assert defects["intertwine_left"] <= 1e-8 and defects["intertwine_right"] <= 1e-8, name
        assert erg.rank == fs.dimension, name
        if cs.dimension == 0:
            continue
        rng = np.random.default_rng(20_000 + idx)
        for _ in range(100):
            y = combo(cs.matrix, fam.structure, rng)
            lim = cf.phi_limit(fam, y)
            assert (lim - erg.apply(y)).norm() <= 1e-7, name
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: 100 mixtures + damping/rotation/leaky models: ergodic projection "
          f"invariants and phi-limit agreement on C*(N^phi) ({elapsed:.1f}s)")


def test_acceptance_3_proof_ingredient_identities():
    t0 = time.time()
    for idx, (name, fam) in enumerate(bare_model_families()):
        rep = cf.property_suite(fam, seed=30_000 + idx, samples=100)
        for key in ("kadison_schwarz", "monotone_net", "limit_vs_mean", "choi_effros", "vector_bound"):
            assert rep.items[key].status == "PASS", (name, key, rep.items[key])
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 3 PASS: Kadison-Schwarz, monotone net, Choi-Effros, vector inequality, "
          f"limit-vs-mean on all bare CP families ({elapsed:.1f}s)")


def test_acceptance_4_exact_oracles():
    # rotation model
    rot = cf.rotation_family(np.pi / 3)
    assert cf.fixed_space(rot).dimension == 2
    erg = cf.ergodic_projection(rot)
    e01 = element_from_coords(rot.structure, np.array([0, 1, 0, 0], dtype=complex))
    assert erg.apply(e01).norm() <= 1e-12
    with pytest.raises(cf.Divergent):
        cf.phi_limit(rot, e01)
    # damping model
    dam = cf.damping_family(0.5)
    assert cf.fixed_space(dam).dimension == 1
    erg_dam = cf.ergodic_projection(dam)
    e11 = element_from_coords(dam.structure, np.array([0, 0, 0, 1], dtype=complex))
    e00 = element_from_coords(dam.structure, np.array([1, 0, 0, 0], dtype=complex))
    assert erg_dam.apply(e11).norm() <= 1e-9
    assert (erg_dam.apply(e00) - cf.identity_element(dam.structure)).norm() <= 1e-9
    # tail-shift lift with both routes agreeing
    inst = cf.build_tail_shift(2, 2, PAULI_X)
    y = cf.AlgebraElement(inst.emb.corner, (PAULI_X,))
    z = cf.lift_fixed_point(inst, y)
    assert (z - linear_lift(inst, y)).norm() <= 1e-10
    expected = cf.AlgebraElement(inst.structure, (PAULI_X, PAULI_X, PAULI_X))
    assert (z - expected).norm() <= 1e-10
    print("\nACCEPTANCE 4 PASS: rotation/damping mean-projection oracles exact; "
          "lift of Pauli X is (X, X, X) with both routes agreeing <= 1e-10")


def test_acceptance_5_negative_controls():
    st = cf.BlockStructure((2, 2))
    alpha = cf.make_family([identity_map(st)], expect_endomorphic=True)
    p = cf.AlgebraElement(st, (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
    inst = cf.make_instance(alpha, p)
    verdict = cf.check_minimality(inst.alpha, inst.p)
    assert verdict.status is cf.Minimality.NON_MINIMAL
    q = cf.identity_element(st) - p
    assert (verdict.limit - q).norm() == 0.0
    rep = cf.property_suite(inst, seed=0, samples=20)
    assert rep.items["lift_identity"].status == "FAIL"
    assert "minimality" in rep.items["lift_identity"].note
    print("\nACCEPTANCE 5 PASS: identity endomorphism with p != 1: NonMinimal with limit 1-p "
          "exactly, lifting identity flagged as not established")


def test_acceptance_6_kernel_ideal_everywhere():
    t0 = time.time()
    nontrivial = 0
    for idx, (name, fam) in enumerate(bare_model_families()):
        rep = cf.kernel_ideal_check(fam, seed=40_000 + idx)
        assert rep.passed, (name, rep)
        assert rep.dim_kernel == rep.dim_ideal, name
        nontrivial += rep.dim_kernel > 0
    for seed in range(5):
        inst = cf.build_random_instance(seed, n_min=2, n_max=3, m_max=3, d=1 + seed % 2)
        rep = cf.kernel_ideal_check(inst.phi, seed=seed)
        assert rep.passed and rep.dim_kernel == rep.dim_ideal, seed
    assert nontrivial >= 1  # the leaky-damping model has ker Phi of dimension 1
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 6 PASS: ker(Phi) equals its generating ideal on every instance, "
          f"including {nontrivial} with nontrivial kernel ({elapsed:.1f}s)")


def test_acceptance_7_cli_round_trips(tmp_path):
    t0 = time.time()
    families = {
        "tail-shift": ("dilation", {}),
        "rotation": ("analyze", {}),
        "damping": ("analyze", {}),
        "leaky-damping": ("analyze", {}),
        "random-mixture": ("analyze", {"seed": "4"}),
        "random-dilation": ("dilation", {"seed": "4"}),
    }
    for family, (command, params) in families.items():
        path = str(tmp_path / f"{family}.json")
        cmd_demo(family, params, path)
        assert cmd_validate(path)["exit_code"] == 0, family
        runner = cmd_dilation if command == "dilation" else cmd_analyze
        rep = runner(path, {"samples": 20})
        assert rep["exit_code"] == 0, (family, [e for e in rep["entries"] if e["status"] != "PASS"])
        again = runner(path, {"samples": 20})
        strip = lambda r: {k: v for k, v in r.items() if not k.startswith("_")}
        assert strip(rep) == strip(again), f"{family}: report not deterministic"
    # superoperator round-trip drift
    path = str(tmp_path / "drift.json")
    cmd_demo("random-dilation", {"seed": "11", "d": "2"}, path)
    problem = load_problem(path)
    inst = cf.build_random_instance(11, n_max=3, m_max=4, d=2)
    for (name, kind, phi), gen in zip(problem.maps, inst.alpha.generators):
        drift = op_norm(cf.to_superoperator(phi) - cf.to_superoperator(gen))
        assert drift <= 1e-12
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 7 PASS: demo/validate/analyze/dilation round-trips exit 0 on all six "
          f"shipped families, deterministic reports, superoperator drift <= 1e-12 ({elapsed:.1f}s)")
