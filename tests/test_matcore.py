import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfix.errors import NotHermitian, NotPSD
from cpfix.matcore import (
    FLOOR_SCREEN_MIN,
    eig_hermitian,
    hermitian_floor,
    is_psd,
    nullspace,
    nullspace_pair,
    op_norm,
    psd_sqrt,
    random_complex,
    random_unitary,
)

from helpers import random_hermitian

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
    assert nullspace(np.eye(3), 1e-10).shape == (3, 0)


def test_nullspace_zero_full():
    v = nullspace(np.zeros((3, 3)), 1e-10)
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
    b = psd_sqrt(np.diag([4.0, 9.0]).astype(complex), 1e-10)
    np.testing.assert_allclose(b, np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(psd_sqrt(np.zeros((2, 2)), 1e-10), np.zeros((2, 2)), atol=1e-12)


def test_psd_sqrt_dense():
    a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    b = psd_sqrt(a, 1e-10)
    # spectral oracle: eigenvalues of A are 1 and 3, so B has 1 and sqrt(3)
    assert abs(np.trace(b).real - (1.0 + np.sqrt(3.0))) < 1e-12
    assert abs(np.linalg.det(b).real - np.sqrt(3.0)) < 1e-12
    assert op_norm(b @ b - a) <= 1e-9 * max(1.0, op_norm(a))


def test_psd_sqrt_clamps_small_negatives():
    a = np.diag([1.0, -1e-12]).astype(complex)
    b = psd_sqrt(a, 1e-10)
    assert op_norm(b @ b - np.diag([1.0, 0.0])) < 1e-9


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]).astype(complex), 1e-10)


def test_is_psd():
    assert is_psd(np.eye(2), 1e-10)
    assert not is_psd(np.diag([1.0, -1.0]), 1e-10)
    # eigenvalues 0 and 2 (trace 2, det 0)
    assert is_psd(np.array([[1.0, 1.0], [1.0, 1.0]]), 1e-10)


def test_is_psd_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10**6))
def test_psd_sqrt_square_property(n, seed):
    g = random_complex(np.random.default_rng(seed), n, n)
    a = g @ g.conj().T
    b = psd_sqrt(a, 1e-10)
    assert op_norm(b @ b - a) <= 1e-9 * max(1.0, op_norm(a))
    assert op_norm(b - b.conj().T) <= 1e-12 * max(1.0, op_norm(b))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_psd_sqrt_stack_matches_per_matrix(n, seed):
    g = random_complex(np.random.default_rng(seed), 6 * n, n).reshape(3, 2, n, n)
    a = g @ g.conj().swapaxes(-1, -2)
    roots = psd_sqrt(a, 1e-10)
    assert roots.shape == (3, 2, n, n)
    for i in range(3):
        for j in range(2):
            assert np.max(np.abs(roots[i, j] - psd_sqrt(a[i, j], 1e-10))) <= 1e-14


def bad_message(exc_type, a):
    with pytest.raises(exc_type) as info:
        psd_sqrt(a, 1e-10)
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


def test_hermitian_screen_leaves_open_matrices_to_the_exact_test():
    # a defect of 5e-9 fails the Frobenius screen (7.1e-9 > HERMITIAN_TOL) but passes the exact bound
    # 1e-9 ||a|| = 1e-7 of a matrix of norm 100; at norm 1 the same defect fails it
    large = np.diag([100.0, 50.0]).astype(complex)
    large[0, 1] += 5e-9
    small = np.eye(2, dtype=complex)
    small[0, 1] += 5e-9
    eig_hermitian(large)
    with pytest.raises(NotHermitian):
        eig_hermitian(small)
    eye = np.eye(2, dtype=complex)
    stack = np.stack([eye, large, 4.0 * eye, large.T])
    roots = psd_sqrt(stack, 1e-10)
    for root, a in zip(roots, stack):
        assert np.max(np.abs(root - psd_sqrt(a, 1e-10))) <= 1e-14
    assert bad_message(NotHermitian, np.stack([large, small])) == bad_message(NotHermitian, small)


def plain_floor(stack):
    """Reference: np.min(np.linalg.eigvalsh(stack), initial=np.inf), or the exception it raises."""
    try:
        return np.min(np.linalg.eigvalsh(stack), initial=np.inf)
    except np.linalg.LinAlgError as exc:
        return type(exc)


def screened_floor(stack):
    try:
        return hermitian_floor(stack)
    except np.linalg.LinAlgError as exc:
        return type(exc)


def floor_stack(kind, n, m, seed):
    """An exactly Hermitian (m, n, n) stack of one adversarial kind, of operator norm about 1."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        g = random_complex(rng, m * n, n).reshape(m, n, n)
    elif kind == "clustered":
        # one spectrum in m random bases: every matrix holds the minimum up to rounding
        w = np.sort(rng.standard_normal(n))
        u = np.stack([random_unitary(rng, n) for _ in range(m)])
        g = (u * w) @ u.conj().swapaxes(-1, -2)
    elif kind == "kernel":
        # PSD of rank below n: the minimum is 0 in exact arithmetic on every matrix
        v = random_complex(rng, m * n, n - 1).reshape(m, n, n - 1)
        g = v @ v.conj().swapaxes(-1, -2)
    elif kind == "exact-zero":
        # diagonal entries 0.0, -0.0 and 1.0: exact kernels, whose computed minimum is a signed zero
        g = np.zeros((m, n, n), dtype=complex)
        g[:, np.arange(n), np.arange(n)] = rng.choice([0.0, -0.0, 1.0], size=(m, n))
    elif kind == "repeated":
        # integer spectra with repeated eigenvalues, in random bases for half of the matrices
        w = rng.integers(-2, 3, size=(m, n)).astype(float)
        u = np.stack([random_unitary(rng, n) if k % 2 else np.eye(n) for k in range(m)])
        g = (u * w[:, None, :]) @ u.conj().swapaxes(-1, -2)
    else:  # "noise": the rounding residue of a PSD identity, where every minimum is of order eps
        g = 1e-16 * random_complex(rng, m * n, n).reshape(m, n, n)
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["random", "clustered", "kernel", "exact-zero", "repeated", "noise"]),
    st.sampled_from([1, 2, 3, 4, 7]),
    st.integers(min_value=FLOOR_SCREEN_MIN - 8, max_value=3 * FLOOR_SCREEN_MIN),
    st.floats(min_value=-17.0, max_value=3.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_hermitian_floor_equals_eigvalsh_bitwise(kind, n, m, log_scale, seed):
    stack = 10.0**log_scale * floor_stack(kind, n, m, seed)
    want = plain_floor(stack)
    assert np.float64(hermitian_floor(stack)).tobytes() == np.float64(want).tobytes()
    # the Hermitian part of a general stack, and two stacks of different sizes at once
    general = stack + 10.0**log_scale * random_complex(np.random.default_rng(seed), m * n, n).reshape(m, n, n)
    assert hermitian_floor(general) == plain_floor(0.5 * (general + general.conj().swapaxes(-1, -2)))
    other = floor_stack("random", n + 1, FLOOR_SCREEN_MIN, seed + 1)
    assert hermitian_floor(stack, other) == min(want, plain_floor(other))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 7]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.booleans(),
)
def test_hermitian_floor_non_finite_entry(n, seed, value, on_diagonal):
    # a non-finite entry placed symmetrically: the same value or the same exception as eigvalsh
    rng = np.random.default_rng(seed)
    stack = floor_stack("random", n, 2 * FLOOR_SCREEN_MIN, seed)
    k, i = int(rng.integers(len(stack))), int(rng.integers(n))
    j = i if on_diagonal or n == 1 else (i + 1) % n
    stack[k, i, j] = stack[k, j, i] = value
    with np.errstate(invalid="ignore"):  # the Hermitian part of a complex inf has a nan imaginary part
        want = plain_floor(0.5 * (stack + stack.conj().swapaxes(-1, -2)))
        got = screened_floor(stack)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.isnan(got) and np.isnan(want) or np.float64(got).tobytes() == np.float64(want).tobytes()


def test_hermitian_floor_of_no_matrix_is_inf():
    assert hermitian_floor() == np.inf
    assert hermitian_floor(np.zeros((0, 3, 3), dtype=complex)) == np.inf
    assert hermitian_floor(np.zeros((2, 0, 4, 4)), np.zeros((0, 2, 2))) == np.inf


def test_hermitian_floor_solves_what_the_probes_and_the_first_pivot_miss():
    # the probes are the matrices of smallest diagonal entry, 0.5 I here; [[1, 2], [2, 1]] has the
    # larger diagonal but the eigenvalue -1, and its first Cholesky pivot of H - 0.5 I passes
    stack = np.stack([0.5 * np.eye(2, dtype=complex)] * FLOOR_SCREEN_MIN + [np.array([[1.0, 2.0], [2.0, 1.0]])])
    assert hermitian_floor(stack) == plain_floor(stack) == -1.0
    assert hermitian_floor(stack[::-1]) == -1.0
