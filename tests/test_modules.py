import numpy as np
import pytest

from preproj.errors import InputError
from preproj.linalg import PrimeField
from preproj.modules import (
    Representation,
    _one_eigenvalue,
    _split_spaces,
    check_relations,
    cosyzygy,
    decompose,
    direct_sum,
    dual_twist,
    hom_basis,
    hom_dim,
    is_isomorphic,
    projective_module,
    radical,
    simple,
    socle_dims,
    sub_representation,
    syzygy,
    top_dims,
    zero_rep,
)
from preproj.quivers import PreprojectiveBasis, double, dynkin_a
from tests.oracle import ModuleMap, broadcast_intertwiner_system, inv, isomorphic_by_decomposition, planned_system


@pytest.fixture(scope="module")
def f():
    return PrimeField(32003)


@pytest.fixture(scope="module")
def a3(f):
    dq = double(dynkin_a(3))
    return dq, PreprojectiveBasis(dq, f)


@pytest.fixture(scope="module")
def a2(f):
    dq = double(dynkin_a(2))
    return dq, PreprojectiveBasis(dq, f)


def base_change(rep, seed=0):
    """Conjugate by a random invertible change of basis at every vertex."""
    fld = rep.field
    rng = np.random.default_rng(seed)
    gs = []
    for d in rep.dims:
        while True:
            g = rng.integers(0, fld.p, size=(d, d))
            if fld.is_invertible(g % fld.p):
                gs.append(g % fld.p)
                break
    mats = []
    for k, a in enumerate(rep.dq.arrows):
        s, t = a.source - 1, a.target - 1
        mats.append(fld.mul(fld.mul(gs[t], rep.mats[k]), inv(fld, gs[s])))
    return Representation(rep.dq, fld, rep.dims, mats)


def test_simples_satisfy_relations(a3, f):
    for i in (1, 2, 3):
        assert check_relations(simple(a3[0], f, i))


def test_relation_violation_detected(a2, f):
    dq, _ = a2
    # alpha then alpha-star nonzero on a (1,1) space breaks the relation
    mats = [f.mat([[1]]), f.mat([[1]])]
    bad = Representation(dq, f, (1, 1), mats, validate=False)
    assert not check_relations(bad)
    with pytest.raises(InputError):
        Representation(dq, f, (1, 1), mats)


def test_projective_dim_vectors(a3):
    dq, basis = a3
    assert projective_module(basis, 1).dims == (1, 1, 1)
    assert projective_module(basis, 2).dims == (1, 2, 1)
    assert check_relations(projective_module(basis, 2))


def test_projective_module_is_built_once_per_basis_and_vertex(a3):
    # projective_cover asks for P_v once per top generator: one read-only
    # module per basis object and vertex, never shared across primes
    dq, basis = a3
    other = PreprojectiveBasis(dq, PrimeField(101))
    for v in dq.vertices:
        got = projective_module(basis, v)
        assert projective_module(basis, v) is got
        assert not any(m.flags.writeable for m in got.mats)
        there = projective_module(other, v)
        assert there is not got and there.field.p == 101
        for b, built in ((basis, got), (other, there)):
            fresh = projective_module.__wrapped__(b, v)
            assert fresh is not built and fresh.dims == built.dims
            assert all(np.array_equal(x, y) for x, y in zip(fresh.mats, built.mats))


def test_a2_projective_has_no_long_paths(a2):
    _, basis = a2
    assert projective_module(basis, 1).dims == (1, 1)


def test_hom_examples(a3, f):
    dq, basis = a3
    s1 = simple(dq, f, 1)
    p1 = projective_module(basis, 1)
    p2 = projective_module(basis, 2)
    assert hom_dim(s1, p1) == 0
    assert hom_dim(p2, p2) == 2 == p2.dims[1]


def test_hom_from_projective_counts_fibre(atlas_a3):
    for v in atlas_a3.dq.vertices:
        p = atlas_a3.modules[atlas_a3.id_by_alias(f"P{v}")]
        for m in atlas_a3.modules:
            assert hom_dim(p, m) == m.dims[v - 1]


def test_direct_sum(a3, f):
    dq, basis = a3
    s1, s2 = simple(dq, f, 1), simple(dq, f, 2)
    assert direct_sum(dq, f, [s1, s2]).dims == (1, 1, 0)
    assert direct_sum(dq, f, []).dims == (0, 0, 0)
    p1 = projective_module(basis, 1)
    assert direct_sum(dq, f, [p1, p1]).dims == (2, 2, 2)


def test_hom_additivity(a3, f):
    dq, basis = a3
    x = projective_module(basis, 2)
    xs = simple(dq, f, 1)
    y = projective_module(basis, 1)
    assert hom_dim(direct_sum(dq, f, [x, xs]), y) == hom_dim(x, y) + hom_dim(xs, y)


def test_hom_invariant_under_base_change(a3, f):
    dq, basis = a3
    x = projective_module(basis, 2)
    y = projective_module(basis, 1)
    assert hom_dim(base_change(x, 5), y) == hom_dim(x, y)
    assert hom_dim(x, base_change(y, 6)) == hom_dim(x, y)


def test_decompose_block_diagonal(a3, f):
    dq, basis = a3
    p1 = projective_module(basis, 1)
    s2 = simple(dq, f, 2)
    parts = decompose(direct_sum(dq, f, [p1, s2]))
    assert sorted((x.dims, k) for x, k in parts) == [((0, 1, 0), 1), ((1, 1, 1), 1)]
    doubled = decompose(direct_sum(dq, f, [p1, p1]))
    assert len(doubled) == 1 and doubled[0][1] == 2


def test_planned_system_adds_both_entries_on_a_loop(f):
    # an action with s == t, as an element of rad End(T_k) acts over End(T),
    # sends an entry of X_a and one of Y_a to each cell (i, j), (i, j) of
    # its block; random matrices, whose diagonals are not zero, must get
    # their difference there, as from the broadcasting oracle
    rng = np.random.default_rng(5)
    loops = 0
    for _ in range(40):
        x_dims, y_dims = (tuple(int(d) for d in rng.integers(0, 4, 3)) for _ in range(2))
        actions = []
        for s, t in rng.integers(0, 3, (4, 2)):
            xa = rng.integers(0, f.p, (x_dims[t], x_dims[s]))
            ya = rng.integers(0, f.p, (y_dims[t], y_dims[s]))
            actions.append((int(s), int(t), xa, ya))
            loops += s == t and x_dims[s] * y_dims[s] > 0
        want = broadcast_intertwiner_system(f, x_dims, y_dims, actions)
        assert np.array_equal(planned_system(f, x_dims, y_dims, actions), want)
    assert loops


def test_decompose_is_a_partition(a3, f):
    dq, basis = a3
    mix = direct_sum(
        dq, f, [projective_module(basis, 2), simple(dq, f, 1), simple(dq, f, 1)]
    )
    hidden = base_change(mix, 9)
    parts = decompose(hidden)
    rebuilt = direct_sum(dq, f, [x for x, k in parts for _ in range(k)])
    assert isomorphic_by_decomposition(rebuilt, hidden)


def test_extension_module_is_indecomposable(a3, f):
    dq, _ = a3
    mats = [f.mat([[1]]), f.zeros(0, 1), f.zeros(1, 1), f.zeros(1, 0)]
    e = Representation(dq, f, (1, 1, 0), mats)
    assert hom_dim(e, e) == 1
    parts = decompose(e)
    assert len(parts) == 1 and parts[0][1] == 1


def test_is_isomorphic_basics(a3, f):
    dq, basis = a3
    assert not is_isomorphic(simple(dq, f, 1), simple(dq, f, 2))
    p2 = projective_module(basis, 2)
    assert is_isomorphic(p2, p2)
    assert is_isomorphic(p2, base_change(p2, 17))


def test_basis_scan_is_conclusive_on_indecomposables(atlas_a3):
    mods = atlas_a3.modules
    moved = [base_change(x, 40 + i) for i, x in enumerate(mods)]
    for i, x in enumerate(mods):
        for j, y in enumerate(mods):
            assert is_isomorphic(x, y) == (i == j)
            # not the same object, so the scan must find a non-identity isomorphism
            assert is_isomorphic(y, moved[i]) == (i == j)


def _split_iff_one_factor(rep, mats):
    """_split_spaces returns [] exactly when coprime_factors finds one factor
    for the block-diagonal matrix of mats, and the single-eigenvalue screen
    of _decompose_rec passes over mats only then; returns whether it was []."""
    fld = rep.field
    off = np.concatenate([[0], np.cumsum(rep.dims)])
    big = fld.zeros(rep.total_dim, rep.total_dim)
    for i, m in enumerate(mats):
        big[off[i] : off[i + 1], off[i] : off[i + 1]] = m
    unsplit = _split_spaces(rep, mats) == []
    assert unsplit == (len(fld.coprime_factors(big)) <= 1)
    assert unsplit or not _screened(fld, big)
    return unsplit


def _screened(fld, big):
    """Whether _one_eigenvalue finds a single eigenvalue, alone and in a
    stack with the identity and a nilpotent shift of big."""
    n = big.shape[0]
    stack = np.stack([big, fld.eye(n), np.eye(n, k=1, dtype=np.int64)])
    single = _one_eigenvalue(fld, stack).tolist()
    assert single[1:] == [bool(n % fld.p)] * 2
    assert _one_eigenvalue(fld, big[None]).tolist() == single[:1]
    return single[0]


def test_one_eigenvalue_shortcut_on_atlas_endomorphisms(atlas_a3):
    mods = atlas_a3.modules
    reps = list(mods) + [
        direct_sum(atlas_a3.dq, atlas_a3.field, [x, y])
        for i, x in enumerate(mods)
        for y in mods[i:]
    ]
    seen = set()
    for rep in reps:
        for b in hom_basis(rep, rep):
            seen.add(_split_iff_one_factor(rep, b))
    assert seen == {True, False}


def _conjugate(fld, rng, e):
    while True:
        g = rng.integers(0, fld.p, size=e.shape)
        if fld.is_invertible(g):
            return fld.mul(fld.mul(g, e), inv(fld, g))


@pytest.mark.parametrize("p", (32003, 101))
def test_one_eigenvalue_shortcut_on_scalar_plus_nilpotent(p):
    fld = PrimeField(p)
    dq = double(dynkin_a(1))
    rng = np.random.default_rng(p + 7)
    for n in range(1, 8):
        for _ in range(6):
            lam = int(rng.integers(0, p))
            tri = lam * fld.eye(n) + np.triu(rng.integers(0, p, size=(n, n)), 1)
            rep = Representation(dq, fld, (n,), [])
            e = _conjugate(fld, rng, tri % p)
            assert _split_iff_one_factor(rep, [e]) and _screened(fld, e)
            if n > 1:
                # a second eigenvalue: the shortcut must not fire
                tri[-1, -1] += 1
                assert not _split_iff_one_factor(rep, [_conjugate(fld, rng, tri % p)])
    # t^2 - c for a non-square c is irreducible: one factor of degree 2, not
    # a single eigenvalue, so the factoring path decides
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    companion = fld.mat([[0, c], [1, 0]])
    assert _split_iff_one_factor(Representation(dq, fld, (2,), []), [companion])


def test_one_eigenvalue_shortcut_skipped_when_p_divides_n():
    fld = PrimeField(5)
    dq = double(dynkin_a(1))
    rng = np.random.default_rng(5)
    rep = Representation(dq, fld, (5,), [])
    jordan = 2 * fld.eye(5)
    jordan[0, 1] = 1
    e = _conjugate(fld, rng, jordan % 5)
    assert _split_iff_one_factor(rep, [e]) and not _screened(fld, e)
    # trace 1 + 1 + 1 + 1 + 2 = 1 but n = 0 in F_5, so tr/n is undefined
    two = _conjugate(fld, rng, fld.mat(np.diag([1, 1, 1, 1, 2])))
    assert not _split_iff_one_factor(rep, [two])


def test_dual_twist_convention(a3):
    dq, basis = a3
    p1, p2, p3 = (projective_module(basis, i) for i in (1, 2, 3))
    assert is_isomorphic(dual_twist(p2), p2)
    assert is_isomorphic(dual_twist(p1), p3)
    assert not is_isomorphic(dual_twist(p1), p1)


def test_radical_top_socle(a3, f, atlas_a3):
    dq, basis = a3
    p1 = projective_module(basis, 1)
    p2 = projective_module(basis, 2)
    assert radical(p1).dims == (0, 1, 1)
    assert top_dims(p2) == (0, 1, 0)
    assert socle_dims(p1) == (0, 0, 1)
    # top M = M / rad M, on every A3 indecomposable
    for m in atlas_a3.modules:
        assert tuple(t + r for t, r in zip(top_dims(m), radical(m).dims)) == m.dims


def test_syzygy_a2(a2, f):
    dq, basis = a2
    assert syzygy(simple(dq, f, 1), basis).dims == (0, 1)
    assert syzygy(projective_module(basis, 1), basis).total_dim == 0


def test_cosyzygy_inverts_syzygy(a3, f):
    dq, basis = a3
    s2 = simple(dq, f, 2)
    omega = syzygy(s2, basis)
    back = cosyzygy(omega, basis)
    assert is_isomorphic(back, s2)


def test_zero_representation(a3, f):
    z = zero_rep(a3[0], f)
    assert z.total_dim == 0
    assert decompose(z) == []


def test_module_map_validation(a3, f):
    dq, _ = a3
    s1, s2 = simple(dq, f, 1), simple(dq, f, 2)
    with pytest.raises(InputError):
        ModuleMap(s1, s2, tuple(f.eye(1) for _ in range(3)))


def test_sub_representation_refuses_non_invariant_and_non_echelon_bases(a3, f):
    dq, basis = a3
    p1, p2 = projective_module(basis, 1), projective_module(basis, 2)
    # the top of P1 at vertex 1 alone: the arrow 1 -> 2 maps it out
    with pytest.raises(InputError, match="not invariant"):
        sub_representation(p1, [f.eye(1), f.zeros(1, 0), f.zeros(1, 0)])
    # all of P2 (dims 1, 2, 1), but at vertex 2 a basis with no unit row
    mixed = f.mat([[1, 1], [1, 2]])
    with pytest.raises(InputError, match="unit row"):
        sub_representation(p2, [f.eye(1), mixed, f.eye(1)])
    whole = sub_representation(p2, [f.eye(1), f.eye(2), f.eye(1)])
    assert whole.content == p2.content
