import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfix.errors import NotProjection, ShapeMismatch
from cpfix.matcore import op_norm, random_complex, random_unitary
from cpfix.cpsemi import cp_map
from cpfix.vnalg import (
    AlgebraElement,
    BlockStructure,
    SCREEN_MARGIN,
    _blocks,
    _frame,
    _norms,
    _norms_within,
    _star,
    amplify_combination,
    compress,
    corner,
    element_from_coords,
    identity_element,
    inject,
    validate_projection,
)

from helpers import embed, random_element

M2_M1 = BlockStructure((2, 1))
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def elem(st, *blocks):
    return AlgebraElement(st, tuple(np.asarray(b, dtype=complex) for b in blocks))


def test_embed_identity_zero():
    x = elem(M2_M1, np.eye(2), [[0.0]])
    np.testing.assert_allclose(embed(x), np.diag([1.0, 1.0, 0.0]), atol=0)


def test_embed_placement_and_norm():
    x = elem(M2_M1, PAULI_X, [[3.0]])
    full = embed(x)
    np.testing.assert_allclose(full[:2, :2], PAULI_X)
    assert full[2, 2] == 3.0
    assert abs(op_norm(full) - 3.0) < 1e-12  # max of 1 and 3
    assert abs(x.norm() - 3.0) < 1e-12


def test_coordinate_slices_are_built_once_per_structure():
    st = BlockStructure((2, 3, 1))
    assert st.coord_slices() is st.coord_slices()
    assert st.coord_slices() == (slice(0, 4), slice(4, 13), slice(13, 14))
    assert st.coord_dim == 14
    # equal structures compare and hash by their block sizes alone, built or not
    fresh = BlockStructure((2, 3, 1))
    assert fresh == st and hash(fresh) == hash(st) and fresh.coord_slices() == st.coord_slices()


def test_coords_roundtrip_and_trace_inner_product():
    rng = np.random.default_rng(0)
    st = BlockStructure((2, 3))
    x = random_element(st, rng)
    y = random_element(st, rng)
    back = element_from_coords(st, x.coords())
    assert (back - x).norm() < 1e-15
    trace_ip = sum(np.trace(a.conj().T @ b) for a, b in zip(x.blocks, y.blocks))
    assert abs(trace_ip - np.vdot(x.coords(), y.coords())) < 1e-12


def test_corner_full_projection():
    st = BlockStructure((2, 2))
    emb = corner(st, identity_element(st))
    assert emb.corner == st and emb.kept == (0, 1)
    assert all(op_norm(u - np.eye(2)) < 1e-14 for u in emb.isometries)
    x = random_element(st, np.random.default_rng(1))
    assert (compress(emb, x) - x).norm() < 1e-14
    assert (inject(emb, x) - x).norm() < 1e-14


def test_corner_rank_one():
    st = BlockStructure((2,))
    p = elem(st, np.diag([1.0, 0.0]))
    emb = corner(st, p)
    assert emb.corner.block_dims == (1,)
    np.testing.assert_allclose(emb.isometries[0], [[1.0], [0.0]], atol=1e-12)
    x = elem(st, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(compress(emb, x).blocks[0], [[1.0]])
    y = elem(emb.corner, [[5.0]])
    np.testing.assert_allclose(inject(emb, y).blocks[0], [[5.0, 0.0], [0.0, 0.0]])


def test_corner_drops_zero_blocks():
    st = BlockStructure((2, 2))
    p = elem(st, np.eye(2), np.zeros((2, 2)))
    emb = corner(st, p)
    assert emb.corner.block_dims == (2,)
    assert emb.kept == (0,)


def test_compress_contractive_and_star():
    rng = np.random.default_rng(5)
    st = BlockStructure((3, 2))
    p = elem(st, np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 0.0]))
    emb = corner(st, p)
    for _ in range(100):
        x = random_element(st, rng)
        cx = compress(emb, x)
        assert cx.norm() <= x.norm() + 1e-12
        assert (compress(emb, x.adjoint()) - cx.adjoint()).norm() < 1e-12
        pxp = AlgebraElement(st, tuple(pb @ xb @ pb for pb, xb in zip(p.blocks, x.blocks)))
        assert (compress(emb, pxp) - cx).norm() < 1e-12
    # unital onto the corner
    assert (compress(emb, p) - identity_element(emb.corner)).norm() < 1e-12


def test_compress_inject_identity():
    rng = np.random.default_rng(6)
    st = BlockStructure((3, 2))
    p = elem(st, np.diag([1.0, 0.0, 1.0]), np.eye(2))
    emb = corner(st, p)
    for _ in range(100):
        y = random_element(emb.corner, rng)
        z = inject(emb, y)
        assert (compress(emb, z) - y).norm() <= 1e-12
        # inject lands under p: p z p = z
        pzp = AlgebraElement(st, tuple(pb @ zb @ pb for pb, zb in zip(p.blocks, z.blocks)))
        assert (pzp - z).norm() <= 1e-12
        assert abs(z.norm() - y.norm()) <= 1e-12  # isometric injection


def test_amplify_single_entry_norm():
    st = BlockStructure((2, 3))
    x = random_element(st, np.random.default_rng(2))
    k = 3
    # one sample per matrix unit E_ab: kron(E_ab, x) permutes the blocks of x into M_k(M)
    units = np.eye(k * k).reshape(k * k, 1, k, k)
    blocks = amplify_combination(units, [x])
    assert [b.shape for b in blocks] == [(k * k, k * n, k * n) for n in st.block_dims]
    norms = np.max([op_norm(b) for b in blocks], axis=0)
    np.testing.assert_allclose(norms, x.norm(), rtol=0, atol=1e-12)  # block permutation invariance


def test_amplified_compression_matches_entrywise():
    rng = np.random.default_rng(3)
    st = BlockStructure((2, 3))
    p = elem(st, np.diag([1.0, 0.0]), np.diag([1.0, 1.0, 0.0]))
    emb = corner(st, p)
    k = 2
    coeffs = random_complex(rng, 4 * 3 * k, k).reshape(4, 3, k, k)
    xs = [random_element(st, rng) for _ in range(3)]
    entrywise = amplify_combination(coeffs, [compress(emb, x) for x in xs])
    # compress each amplified sample by the amplified isometries kron(I_k, u_i)
    amp = amplify_combination(coeffs, xs)
    isoms = [np.kron(np.eye(k), u) for u in emb.isometries]
    amped = [v.conj().T @ amp[i] @ v for v, i in zip(isoms, emb.kept)]
    assert len(entrywise) == len(amped) == emb.corner.num_blocks
    for e, a in zip(entrywise, amped):
        assert op_norm(e - a).max() <= 1e-12


def test_amplify_combination_matches_kron():
    rng = np.random.default_rng(4)
    st = BlockStructure((2, 1))
    xs = [random_element(st, rng) for _ in range(2)]
    coeffs = random_complex(rng, 5 * 2 * 3, 3).reshape(5, 2, 3, 3)
    blocks = amplify_combination(coeffs, xs)
    for i in range(st.num_blocks):
        for s in range(5):
            expected = sum(np.kron(c, x.blocks[i]) for c, x in zip(coeffs[s], xs))
            np.testing.assert_allclose(blocks[i][s], expected, atol=1e-14)
    with pytest.raises(ShapeMismatch):
        amplify_combination(coeffs[:, :1], xs)


def test_validate_projection_accepts_and_snaps():
    st = BlockStructure((2,))
    p = validate_projection(elem(st, np.diag([1.0, 0.0])))
    np.testing.assert_allclose(p.blocks[0], np.diag([1.0, 0.0]))
    # eigenvalues within 1e-7 of {0, 1} get rounded
    u = random_unitary(np.random.default_rng(8), 2)
    drifted = u @ np.diag([1.0 - 1e-7, 1e-7]) @ u.conj().T
    rounded = validate_projection(elem(st, drifted))
    b = rounded.blocks[0]
    assert op_norm(b @ b - b) < 1e-12
    assert op_norm(b - u @ np.diag([1.0, 0.0]) @ u.conj().T) < 1e-6


def test_validate_projection_rejects():
    st = BlockStructure((2,))
    with pytest.raises(NotProjection):
        validate_projection(elem(st, np.diag([0.5, 1.0])))
    with pytest.raises(NotProjection):
        validate_projection(elem(st, [[0.0, 1.0], [0.0, 0.0]]))


def test_zero_projection_rejected():
    st = BlockStructure((2,))
    with pytest.raises(NotProjection):
        corner(st, elem(st, np.zeros((2, 2))))


def test_shape_mismatch():
    st = BlockStructure((2,))
    other = BlockStructure((3,))
    with pytest.raises(ShapeMismatch):
        elem(st, np.eye(3))
    with pytest.raises(ShapeMismatch):
        identity_element(st) + identity_element(other)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 3, 2, 3), (1, 4, 1), (3,), (2, 2, 1, 3, 2)]),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_block_norms_equal_the_per_block_loop(dims, columns, seed):
    """One stacked op_norm per block size gives bit for bit the norms of one op_norm per block."""
    structure = BlockStructure(dims)
    rng = np.random.default_rng(seed)
    v = random_complex(rng, structure.coord_dim, columns)
    looped = np.max([op_norm(b) for b in _blocks(structure, v)], axis=0)
    assert np.array_equal(_norms(structure, v), looped)
    for j in range(columns):
        x = element_from_coords(structure, v[:, j])
        assert x.norm() == max(op_norm(b) for b in x.blocks) == looped[j]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 3, 2, 3), (1, 4, 1), (3,), (2, 2, 1, 3, 2), (4, 1)]),
    st.integers(min_value=-12, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_norm_screen_equals_the_exact_comparison(dims, scale, seed):
    """_norms_within decides _norms <= bound column by column, at every edge of its three formulas.

    The columns are random elements, rank-one elements with one nonzero
    block, whose operator norm equals their Frobenius norm, and elements
    with one nonzero coordinate, whose operator norm equals its modulus.
    Each column is scaled by 10**scale and then meets bounds just below, at
    and just above its exact norm, its 2-norm, twice its 2-norm, its
    largest coordinate modulus and that modulus over 1 + SCREEN_MARGIN.
    """
    structure = BlockStructure(dims)
    rng = np.random.default_rng(seed)
    cols = [random_complex(rng, structure.coord_dim, 3)]
    for n, sl in zip(dims, structure.coord_slices()):
        rank_one = np.zeros((structure.coord_dim, 2), dtype=complex)
        for j in range(2):
            rank_one[sl, j] = (random_complex(rng, n, 1) @ random_complex(rng, 1, n)).ravel()
        cols.append(rank_one)
    single = np.zeros((structure.coord_dim, 8), dtype=complex)
    single[rng.integers(0, structure.coord_dim, size=8), np.arange(8)] = random_complex(rng, 1, 8)[0]
    v = np.hstack(cols + [single]) * 10.0**scale
    exact, frob, peak = _norms(structure, v), np.linalg.norm(v, axis=0), np.abs(v).max(axis=0)
    refs = np.concatenate([exact, frob, 2.0 * frob, peak, peak / (1.0 + SCREEN_MARGIN)])
    bound = np.concatenate([np.nextafter(refs, 0.0), refs, np.nextafter(refs, np.inf)])
    v = np.tile(v, 15)
    assert np.array_equal(_norms_within(structure, v, bound), _norms(structure, v) <= bound)
    for j in range(v.shape[1]):
        col = v[:, j : j + 1]
        assert _norms_within(structure, col, bound[j])[0] == (_norms(structure, col)[0] <= bound[j])


@pytest.mark.parametrize("dims", [(1,), (2,), (3, 1, 2), (4, 4)])
def test_frame_is_a_unitary_of_hermitian_units(dims):
    """T is unitary, its columns are the documented Hermitian units, and T* S T is real for a Kraus map S."""
    structure = BlockStructure(dims)
    t = _frame(structure)
    assert t is _frame(BlockStructure(dims)) and not t.flags.writeable
    assert op_norm(t.conj().T @ t - np.eye(structure.coord_dim)) <= 1e-15
    assert np.array_equal(_star(structure, t), t)
    n, r2 = dims[0], np.sqrt(0.5)
    if n >= 2:
        # block 0 in row-major coordinates: E_00 and E_11 first, then the symmetric and antisymmetric units of (0, 1)
        units = np.zeros((4, n * n), dtype=complex)
        units[0, 0] = units[1, n + 1] = 1.0
        units[2, [1, n]] = r2
        units[3, [1, n]] = [1j * r2, -1j * r2]
        assert np.array_equal(t[: n * n, [0, 1, n, n + n * (n - 1) // 2]].T, units)
    rng = np.random.default_rng(sum(dims))
    # one Kraus operator of random shape per pair of blocks, so S mixes blocks and is far from unitary
    kraus = {(j, i): [random_complex(rng, nj, ni) / 3.0] for j, nj in enumerate(dims) for i, ni in enumerate(dims)}
    s = cp_map(structure, structure, kraus).superop
    assert np.max(np.abs((t.conj().T @ s @ t).imag)) <= 1e-14
