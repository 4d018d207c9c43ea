import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfix.errors import NotHermitian, NotPSD
from cpfix.matcore import (
    eig_hermitian,
    is_psd,
    nullspace,
    nullspace_pair,
    op_norm,
    psd_sqrt,
    random_complex,
    random_hermitian,
    random_unitary,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_eig_identity():
    w, u = eig_hermitian(np.eye(2, dtype=complex))
    np.testing.assert_allclose(w, [1.0, 1.0])
    assert op_norm(u.conj().T @ u - np.eye(2)) < 1e-12


def test_eig_diagonal_sorted_ascending():
    w, _ = eig_hermitian(np.diag([3.0, -1.0]).astype(complex))
    np.testing.assert_allclose(w, [-1.0, 3.0])


def test_eig_pauli_x():
    # characteristic polynomial lambda^2 - 1 = 0
    roots = np.sort(np.roots([1.0, 0.0, -1.0]))
    w, _ = eig_hermitian(PAULI_X)
    np.testing.assert_allclose(w, roots, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_eig_reconstruction(n, seed):
    a = random_hermitian(np.random.default_rng(seed), n)
    w, u = eig_hermitian(a)
    scale = max(1.0, op_norm(a))
    assert op_norm(a - (u * w) @ u.conj().T) <= 1e-10 * scale
    assert op_norm(u.conj().T @ u - np.eye(n)) <= 1e-10
    assert np.all(np.diff(w) >= -1e-14)


def test_op_norm_zero_and_unitary():
    assert op_norm(np.zeros((3, 3))) == 0.0
    u = random_unitary(np.random.default_rng(0), 4)
    assert abs(op_norm(u) - 1.0) < 1e-12


def test_op_norm_nilpotent():
    # A*A = diag(0, 4), so the norm is 2
    assert abs(op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) - 2.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_op_norm_stack_matches_per_matrix(m, n, seed):
    stack = random_complex(np.random.default_rng(seed), 3 * 2 * m, n).reshape(3, 2, m, n)
    norms = op_norm(stack)
    assert norms.shape == (3, 2)
    expected = [[op_norm(stack[s, g]) for g in range(2)] for s in range(3)]
    assert np.array_equal(norms, expected)  # bitwise, square or not


def test_op_norm_empty_stack():
    assert op_norm(np.zeros((2, 0, 3, 3))).shape == (2, 0)
    assert np.array_equal(op_norm(np.zeros((2, 3, 0))), np.zeros(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_op_norm_submultiplicative(n, seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n, n)
    b = random_complex(rng, n, n)
    assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-10


def test_nullspace_identity_empty():
    assert nullspace(np.eye(3)).shape == (3, 0)


def test_nullspace_zero_full():
    v = nullspace(np.zeros((3, 3)))
    assert v.shape == (3, 3)
    assert op_norm(v.conj().T @ v - np.eye(3)) < 1e-12


def test_nullspace_diag():
    v = nullspace(np.diag([0.0, 1.0, 2.0]), tol=1e-10)
    assert v.shape == (3, 1)
    assert abs(abs(v[0, 0]) - 1.0) < 1e-12


def test_nullspace_residual_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(2, 9)
        n = rng.integers(2, 9)
        r = rng.integers(1, min(m, n) + 1)
        l = random_complex(rng, m, r) @ random_complex(rng, r, n)
        v = nullspace(l, tol=1e-10)
        assert v.shape[1] >= n - r
        for k in range(v.shape[1]):
            assert np.linalg.norm(l @ v[:, k]) <= 1e-10 * max(1.0, op_norm(l)) * 10


def test_nullspace_pair_left_vectors():
    l = np.diag([0.0, 1.0, 2.0]).astype(complex)
    left, right = nullspace_pair(l, tol=1e-10)
    assert left.shape == right.shape == (3, 1)
    assert np.linalg.norm(l.conj().T @ left[:, 0]) < 1e-12


def test_psd_sqrt_diagonal():
    b = psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
    np.testing.assert_allclose(b, np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)), atol=1e-12)


def test_psd_sqrt_dense():
    a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    b = psd_sqrt(a)
    # spectral oracle: eigenvalues of A are 1 and 3, so B has 1 and sqrt(3)
    assert abs(np.trace(b).real - (1.0 + np.sqrt(3.0))) < 1e-12
    assert abs(np.linalg.det(b).real - np.sqrt(3.0)) < 1e-12
    assert op_norm(b @ b - a) <= 1e-9 * max(1.0, op_norm(a))


def test_psd_sqrt_clamps_small_negatives():
    a = np.diag([1.0, -1e-12]).astype(complex)
    b = psd_sqrt(a)
    assert op_norm(b @ b - np.diag([1.0, 0.0])) < 1e-9


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]).astype(complex))


def test_is_psd():
    assert is_psd(np.eye(2))
    assert not is_psd(np.diag([1.0, -1.0]))
    # eigenvalues 0 and 2 (trace 2, det 0)
    assert is_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_is_psd_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10**6))
def test_psd_sqrt_square_property(n, seed):
    g = random_complex(np.random.default_rng(seed), n, n)
    a = g @ g.conj().T
    b = psd_sqrt(a)
    assert op_norm(b @ b - a) <= 1e-9 * max(1.0, op_norm(a))
    assert op_norm(b - b.conj().T) <= 1e-12 * max(1.0, op_norm(b))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_psd_sqrt_stack_matches_per_matrix(n, seed):
    g = random_complex(np.random.default_rng(seed), 6 * n, n).reshape(3, 2, n, n)
    a = g @ g.conj().swapaxes(-1, -2)
    roots = psd_sqrt(a)
    assert roots.shape == (3, 2, n, n)
    for i in range(3):
        for j in range(2):
            assert np.max(np.abs(roots[i, j] - psd_sqrt(a[i, j]))) <= 1e-14


def bad_message(exc_type, a):
    with pytest.raises(exc_type) as info:
        psd_sqrt(a)
    return str(info.value)


def test_psd_sqrt_stack_raises_like_the_loop():
    eye = np.eye(2, dtype=complex)
    non_hermitian = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    negative = np.diag([1.0, -0.5]).astype(complex)
    for bad, exc_type in ((non_hermitian, NotHermitian), (negative, NotPSD)):
        stack = np.stack([eye, 2.0 * eye, bad, eye])
        assert bad_message(exc_type, stack) == bad_message(exc_type, bad)
    # the first bad matrix in C order decides, as in a loop over the stack
    stack = np.stack([[eye, negative], [non_hermitian, eye]])
    assert bad_message(NotPSD, stack) == bad_message(NotPSD, negative)
