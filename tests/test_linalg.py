import numpy as np
import pytest

from preproj.errors import FieldSizeError, InputError
from preproj.linalg import PrimeField
from preproj.modules import Representation, _split_spaces
from preproj.quivers import double, dynkin_a
from tests.oracle import inv, krylov_minimal_polynomial


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


def _eigenspaces(f, e):
    """Generalized eigenspaces of e, split as decompose splits a one-vertex
    representation; [] when the minimal polynomial has one coprime factor."""
    e = np.asarray(e, dtype=np.int64) % f.p
    rep = Representation(double(dynkin_a(1)), f, (e.shape[0],), [])
    return [bases[0] for bases in _split_spaces(rep, [e])]


def test_fitting_identity(f):
    assert f.coprime_factors(f.eye(4)) == [[f.p - 1, 1]]
    assert _eigenspaces(f, f.eye(4)) == []


def test_fitting_distinct_eigenvalues(f):
    spaces = _eigenspaces(f, f.mat([[1, 0], [0, 2]]))
    assert sorted(s.shape[1] for s in spaces) == [1, 1]


def test_fitting_nilpotent_block(f):
    assert f.coprime_factors(f.mat([[0, 1], [0, 0]])) == [[0, 1]]
    assert _eigenspaces(f, f.mat([[0, 1], [0, 0]])) == []


def test_fitting_spaces_are_invariant(f):
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        e = rng.integers(0, f.p, size=(n, n))
        spaces = _eigenspaces(f, e)
        if not spaces:
            assert len(f.coprime_factors(e)) == 1
            continue
        assert sum(s.shape[1] for s in spaces) == n
        for s in spaces:
            assert f.solve(s, f.mul(e % f.p, s)) is not None


def test_fitting_deterministic(f):
    e = f.mat([[5, 1, 0], [0, 5, 0], [0, 0, 9]])
    first = _eigenspaces(f, e)
    second = _eigenspaces(f, e)
    assert [s.shape[1] for s in first] == [2, 1]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_minimal_polynomial(f):
    e = f.mat([[0, 1], [0, 0]])
    assert f.minimal_polynomial(e) == [0, 0, 1]
    assert f.minimal_polynomial(f.eye(3)) == [f.p - 1, 1]
    assert f.minimal_polynomial(f.zeros(0, 0)) == [1]


def _conjugated(fld, rng, m):
    """g m g^-1 for a seeded random invertible g."""
    n = m.shape[0]
    while True:
        g = rng.integers(0, fld.p, size=(n, n))
        if fld.is_invertible(g):
            return fld.mul(fld.mul(g, m), inv(fld, g))


def _nilpotent(fld, rng, n):
    """A strictly upper triangular matrix with some superdiagonal zeros,
    so that its Jordan blocks vary, conjugated."""
    m = np.triu(rng.integers(0, fld.p, size=(n, n)), 1)
    m[np.arange(n - 1), np.arange(1, n)] *= rng.integers(0, 2, size=max(n - 1, 0))
    return _conjugated(fld, rng, m)


@pytest.mark.parametrize("p", [101, 32003])
def test_minimal_polynomial_matches_krylov_reference(p):
    fld = PrimeField(p)
    rng = np.random.default_rng(p + 11)
    for n in range(13):
        lam, mu = (int(v) for v in rng.choice(p, size=2, replace=False))
        k = int(rng.integers(0, n + 1))
        two = fld.zeros(n, n)
        two[:k, :k] = (_nilpotent(fld, rng, k) + lam * fld.eye(k)) % p
        two[k:, k:] = (_nilpotent(fld, rng, n - k) + mu * fld.eye(n - k)) % p
        cases = [
            _nilpotent(fld, rng, n),
            (_nilpotent(fld, rng, n) + lam * fld.eye(n)) % p,
            two,
            _conjugated(fld, rng, two),
        ]
        for e in cases:
            assert fld.minimal_polynomial(e) == krylov_minimal_polynomial(fld, e), (n, e)


PRIMES = (32003, 101)


def _ref_poly(fld, coeffs):
    """Reduced, trimmed int list of a coefficient array, computed apart from fld."""
    out = [int(c) % fld.p for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _linear_product(fld, roots):
    out = np.ones(1, dtype=np.int64)
    for lam in roots:
        out = np.convolve(out, [-lam % fld.p, 1]) % fld.p
    return _ref_poly(fld, out)


@pytest.mark.parametrize("p", PRIMES)
def test_poly_divmod_identity(p):
    fld = PrimeField(p)
    rng = np.random.default_rng(p)
    for _ in range(200):
        f = _ref_poly(fld, rng.integers(0, p, size=int(rng.integers(1, 25))))
        g = _ref_poly(fld, rng.integers(0, p, size=int(rng.integers(1, 12))))
        if g == [0]:
            continue
        q, r = fld.poly_divmod(f, g)
        assert r == [0] or len(r) < len(g)
        qg = np.convolve(q, g) % p
        total = np.zeros(max(qg.size, len(r)), dtype=np.int64)
        total[: qg.size] += qg
        total[: len(r)] += r
        assert _ref_poly(fld, total) == f


@pytest.mark.parametrize("p", PRIMES)
def test_roots_of_split_poly_sorted(p):
    fld = PrimeField(p)
    rng = np.random.default_rng(p + 1)
    for k in range(1, 9):
        roots = [int(v) for v in rng.choice(p, size=k, replace=False)]
        assert fld.roots_of_split_poly(_linear_product(fld, roots)) == sorted(roots)


@pytest.mark.parametrize("p", PRIMES)
def test_distinct_degree_split_keeps_irreducible_quadratic(p):
    fld = PrimeField(p)
    a = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)
    linear = _linear_product(fld, [1, 2, 5])
    quadratic = [-a % p, 0, 1]
    f = fld.poly_mul(linear, quadratic)
    assert fld.distinct_degree_split(f) == [(1, linear), (2, quadratic)]
    assert fld.roots_of_split_poly(linear) == [1, 2, 5]


@pytest.mark.parametrize("p", PRIMES)
def test_minimal_polynomial_of_companion_matrix(p):
    fld = PrimeField(p)
    rng = np.random.default_rng(p + 2)
    for n in range(1, 8):
        poly = [int(v) for v in rng.integers(0, p, size=n)] + [1]
        comp = fld.zeros(n, n)
        comp[np.arange(1, n), np.arange(n - 1)] = 1
        comp[:, n - 1] = [-c % p for c in poly[:n]]
        assert fld.minimal_polynomial(comp) == poly


def _kernel_by_loops(fld, m):
    """Kernel basis filled entry by entry from the RREF."""
    nrows, ncols = m.shape
    if ncols == 0:
        return fld.zeros(0, 0)
    if nrows == 0:
        return fld.eye(ncols)
    r, pivots = fld.rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = fld.zeros(ncols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % fld.p
    return basis


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_basis_matches_entrywise_construction(p):
    fld = PrimeField(p)
    rng = np.random.default_rng(p + 3)
    for trial in range(250):
        rows, cols = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        if trial % 5 == 0:
            rank = 0
        m = fld.mul(rng.integers(0, p, size=(rows, rank)), rng.integers(0, p, size=(rank, cols)))
        if rows and trial % 7 == 0:
            m[int(rng.integers(0, rows))] = 0
        if cols and trial % 11 == 0:
            m[:, int(rng.integers(0, cols))] = 0
        got = fld.kernel_basis(m)
        assert np.array_equal(got, _kernel_by_loops(fld, m))
        assert not np.any(fld.mul(m, got))


def _rref_reference(fld, m):
    """The elimination rref used before it was trimmed of numpy calls."""
    r = (np.asarray(m, dtype=np.int64) % fld.p).copy()
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        src = row + int(nz[0])
        if src != row:
            r[[row, src]] = r[[src, row]]
        inv = fld.inv_scalar(int(r[row, col]))
        r[row] = (r[row] * inv) % fld.p
        colvals = r[:, col].copy()
        colvals[row] = 0
        mask = np.nonzero(colvals)[0]
        if mask.size:
            r[mask] = (r[mask] - np.outer(colvals[mask], r[row])) % fld.p
        pivots.append(col)
        row += 1
    return r, pivots


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_reference(p):
    fld = PrimeField(p)
    rng = np.random.default_rng(p + 5)
    for trial in range(300):
        rows, cols = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        rank = 0 if trial % 5 == 0 else int(rng.integers(0, min(rows, cols) + 1))
        m = fld.mul(rng.integers(0, p, size=(rows, rank)), rng.integers(0, p, size=(rank, cols)))
        if rows and trial % 7 == 0:
            m[int(rng.integers(0, rows))] = 0
        if cols and trial % 11 == 0:
            m[:, int(rng.integers(0, cols))] = 0
        if rows > 1 and trial % 3 == 0:
            m[rows - 1] = m[0]
        if rows and cols and trial % 4 == 0:
            # leading entries already 1, so no row needs scaling
            m[:, 0] = 1
        if trial % 13 == 0:
            m = m - p  # unreduced input, entries in [-p, 0)
        m_before = m.copy()
        got_r, got_piv = fld.rref(m)
        want_r, want_piv = _rref_reference(fld, m)
        assert got_piv == want_piv
        assert np.array_equal(got_r, want_r)
        assert np.array_equal(m, m_before)  # the input is left alone


def test_trace_form_radical_triangular_algebra(f):
    # span{I, E12} inside 2x2 matrices: radical is the span of E12
    basis = [f.eye(2), f.mat([[0, 1], [0, 0]])]
    rad = f.trace_form_radical(basis)
    assert rad.shape[1] == 1
    assert rad[0, 0] == 0 and rad[1, 0] != 0
    # upper triangular 3x3 on I, E11, E22, E12, E13, E23: tr(I E11) = 1
    # puts the Gram matrix off the diagonal; the radical is span{E12, E13, E23}
    units = {}
    for i, j in [(0, 0), (1, 1), (0, 1), (0, 2), (1, 2)]:
        units[i, j] = f.zeros(3, 3)
        units[i, j][i, j] = 1
    rad = f.trace_form_radical([f.eye(3), *units.values()])
    assert np.array_equal(rad, f.eye(6)[:, 3:])
    # with E11 + E12 in place of E12 the radical is no longer spanned by
    # basis vectors: E12 has coordinates e_3 - e_1, which the diagonal of
    # the Gram matrix alone would miss
    basis = [f.eye(3), units[0, 0], units[1, 1], units[0, 0] + units[0, 1], units[0, 2], units[1, 2]]
    rad = f.trace_form_radical(basis)
    assert np.array_equal(rad[:, 0], f.mat([0, -1, 0, 1, 0, 0]))
    assert np.array_equal(rad[:, 1:], f.eye(6)[:, 4:])


def test_ranks_agree_across_primes():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert PrimeField(101).rank(np.array(m)) == PrimeField(32003).rank(np.array(m)) == 2


@pytest.mark.parametrize("p", [3, 101, 32003])
def test_ranks_match_rank_on_random_stacks(p):
    fld = PrimeField(p)
    rng = np.random.default_rng(p + 7)
    for trial in range(60):
        b, rows, cols = (int(v) for v in rng.integers(0, 7, size=3))
        if trial % 10 == 0:
            # an empty axis in turn: B, then R, then C
            b, rows, cols = [0 if k == trial // 10 % 3 else v for k, v in enumerate((b, rows, cols))]
        rank = int(rng.integers(0, min(rows, cols) + 1))
        stack = np.einsum(
            "bij,bjk->bik",
            rng.integers(0, p, size=(b, rows, rank)),
            rng.integers(0, p, size=(b, rank, cols)),
        ) % p
        if b:
            stack[0] = 0  # an all-zero matrix
        if b > 1 and rows > 1:
            stack[1, rows - 1] = stack[1, 0]  # a repeated row
        if b > 3 and rows > 1 and cols > 1:
            # a block of another matrix, zero-padded to the stack's shape
            stack[2] = 0
            stack[2, :-1, :-1] = stack[3, :-1, :-1]
        before = stack.copy()
        got = fld.ranks(stack)
        assert got.dtype == np.int64 and got.shape == (b,)
        assert got.tolist() == [fld.rank(m) for m in stack]
        assert np.array_equal(stack, before)  # the input is left alone


def test_ranks_of_padded_copies_and_empty_stacks():
    fld = PrimeField(101)
    m = fld.mat([[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    padded = np.zeros((4, 5), dtype=np.int64)
    padded[:3, :3] = m
    stack = np.stack([padded, np.zeros((4, 5), dtype=np.int64), padded[::-1]])
    assert fld.ranks(stack).tolist() == [2, 0, 2]
    for shape in [(0, 3, 3), (2, 0, 3), (2, 3, 0)]:
        assert fld.ranks(np.zeros(shape, dtype=np.int64)).tolist() == [0] * shape[0]


def test_ranks_refuse_int64_overflow():
    # (p - 1)**2 > 2**63 - 1 at p = 4294967311, a prime
    big = PrimeField(4294967311)
    with pytest.raises(FieldSizeError):
        big.ranks(np.ones((1, 2, 2), dtype=np.int64))
    # at 2**31 - 1 every product still fits: rank of [[1, -1], [-1, 1]] is 1
    fld = PrimeField(2**31 - 1)
    m = fld.mat([[[1, -1], [-1, 1]], [[fld.p - 1, 2], [3, fld.p - 1]]])
    assert fld.ranks(m).tolist() == [1, 2] == [fld.rank(a) for a in m]


def test_mul_refuses_int64_overflow():
    big = PrimeField(2147483647)
    row = big.mat([[big.p - 1] * 3])
    with pytest.raises(FieldSizeError):
        big.mul(row, row.T)
    # two terms of (p - 1)**2 still fit: (-1)**2 * 2 = 2
    assert big.mul(row[:, :2], row[:, :2].T)[0, 0] == 2
