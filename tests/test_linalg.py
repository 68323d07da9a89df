import numpy as np
import pytest

from preproj.errors import FieldSizeError, InputError
from preproj.linalg import PrimeField, kron_eye_left, kron_eye_right


@pytest.fixture(scope="module")
def f():
    return PrimeField(32003)


def test_modulus_must_be_odd_prime():
    with pytest.raises(InputError):
        PrimeField(32004)
    with pytest.raises(InputError):
        PrimeField(2)


def test_rref_identity(f):
    r, pivots = f.rref(f.eye(2))
    assert np.array_equal(r, f.eye(2))
    assert pivots == [0, 1]


def test_rref_zero(f):
    r, pivots = f.rref(f.zeros(3, 4))
    assert not np.any(r)
    assert pivots == []


def test_rref_proportional_rows(f):
    assert f.rank(f.mat([[1, 2], [2, 4]])) == 1


def test_kernel_injective(f):
    assert f.kernel_basis(f.eye(3)).shape == (3, 0)


def test_kernel_zero_map(f):
    k = f.kernel_basis(f.zeros(2, 3))
    assert np.array_equal(k, f.eye(3))


def test_kernel_single_relation(f):
    k = f.kernel_basis(f.mat([[1, 1]]))
    assert k.shape == (3 - 2, 1) or k.shape == (2, 1)
    # spans the line through (1, -1)
    assert (k[0, 0] + k[1, 0]) % f.p == 0
    assert np.any(k)


def test_rank_nullity_on_random_matrices(f):
    rng = np.random.default_rng(7)
    for _ in range(40):
        rows, cols = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        m = rng.integers(0, f.p, size=(rows, cols))
        assert f.rank(m) + f.kernel_basis(m).shape[1] == cols


def test_solve_unique(f):
    a = f.mat([[1, 2], [3, 4], [5, 6]])
    x = f.mat([[7], [11]])
    b = f.mul(a, x)
    assert np.array_equal(f.solve(a, b), x)
    assert f.solve(f.mat([[1], [0]]), f.mat([[0], [1]])) is None


def test_fitting_identity(f):
    spaces = f.fitting_split(f.eye(4))
    assert len(spaces) == 1 and spaces[0].shape == (4, 4)


def test_fitting_distinct_eigenvalues(f):
    spaces = f.fitting_split(f.mat([[1, 0], [0, 2]]))
    assert sorted(s.shape[1] for s in spaces) == [1, 1]


def test_fitting_nilpotent_block(f):
    spaces = f.fitting_split(f.mat([[0, 1], [0, 0]]))
    assert len(spaces) == 1 and spaces[0].shape[1] == 2


def test_fitting_spaces_are_invariant(f):
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        e = rng.integers(0, f.p, size=(n, n))
        spaces = f.fitting_split(e)
        assert sum(s.shape[1] for s in spaces) == n
        for s in spaces:
            assert f.solve(s, f.mul(e % f.p, s)) is not None


def test_fitting_deterministic(f):
    e = f.mat([[5, 1, 0], [0, 5, 0], [0, 0, 9]])
    first = f.fitting_split(e)
    second = f.fitting_split(e)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_minimal_polynomial(f):
    e = f.mat([[0, 1], [0, 0]])
    assert np.array_equal(f.minimal_polynomial(e), f.mat([0, 0, 1]).reshape(-1))
    assert np.array_equal(f.minimal_polynomial(f.eye(3)), np.array([f.p - 1, 1]))


def test_trace_form_radical_triangular_algebra(f):
    # span{I, E12} inside 2x2 matrices: radical is the span of E12
    basis = [f.eye(2), f.mat([[0, 1], [0, 0]])]
    rad = f.trace_form_radical(basis)
    assert rad.shape[1] == 1
    assert rad[0, 0] == 0 and rad[1, 0] != 0


def test_ranks_agree_across_primes():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert PrimeField(101).rank(np.array(m)) == PrimeField(32003).rank(np.array(m)) == 2


def test_kron_helpers_match_np_kron():
    rng = np.random.default_rng(11)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(int(v) for v in rng.integers(0, 6, size=3)) for _ in range(20)]
    for r, c, n in shapes:
        a = rng.integers(0, 32003, size=(r, c))
        eye = np.eye(n, dtype=np.int64)
        got_right = kron_eye_right(a, n)
        got_left = kron_eye_left(n, a)
        assert got_right.shape == (r * n, c * n) and got_left.shape == (n * r, n * c)
        assert np.array_equal(got_right, np.kron(a, eye))
        assert np.array_equal(got_left, np.kron(eye, a))


def test_mul_refuses_int64_overflow():
    big = PrimeField(2147483647)
    row = big.mat([[big.p - 1] * 3])
    with pytest.raises(FieldSizeError):
        big.mul(row, row.T)
    # two terms of (p - 1)**2 still fit: (-1)**2 * 2 = 2
    assert big.mul(row[:, :2], row[:, :2].T)[0, 0] == 2
