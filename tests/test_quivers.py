import numpy as np
import pytest

from preproj.errors import InputError, StructureError
from preproj.linalg import PrimeField
from preproj.quivers import (
    Arrow,
    PreprojectiveBasis,
    Quiver,
    double,
    dynkin_a,
    preset_quiver,
    symmetric_form,
)


@pytest.fixture(scope="module")
def f():
    return PrimeField(32003)


def test_quiver_validation():
    with pytest.raises(InputError):
        Quiver(vertices=(1, 2), arrows=(Arrow("a", 1, 2), Arrow("b", 2, 1)))  # cycle
    with pytest.raises(InputError):
        Quiver(vertices=(1, 2, 3), arrows=(Arrow("a", 1, 2),))  # disconnected
    with pytest.raises(InputError):
        preset_quiver("D4")


@pytest.mark.parametrize("qtype,base", [("A2", 1), ("A3", 2), ("A4", 3)])
def test_double_doubles_arrow_count(qtype, base):
    dq = double(preset_quiver(qtype))
    assert len(dq.arrows) == 2 * base
    for k in range(len(dq.arrows)):
        assert dq.partner[dq.partner[k]] == k
        assert dq.partner[k] != k
        assert (k < dq.n_base) != (dq.partner[k] < dq.n_base)  # one of the two is starred


def test_symmetric_form_values():
    dq = double(dynkin_a(3))
    assert symmetric_form(dq, (0, 1, 0), (0, 1, 0)) == 2
    assert symmetric_form(dq, (1, 0, 0), (0, 1, 0)) == -1
    with pytest.raises(InputError):
        symmetric_form(dq, (1, 0), (0, 1, 0))


def test_symmetric_form_expanded_by_hand():
    # independent evaluation of both sums for d=(1,2,1), e=(0,1,0)
    dq = double(dynkin_a(3))
    d, e = (1, 2, 1), (0, 1, 0)
    vertex_part = 2 * sum(d[i] * e[i] for i in range(3))
    arrow_part = 0
    for a in dq.arrows:
        arrow_part += d[a.source - 1] * e[a.target - 1]
    assert vertex_part - arrow_part == 2
    assert symmetric_form(dq, d, e) == 2


def test_symmetric_form_is_symmetric():
    rng = np.random.default_rng(11)
    for qtype in ("A2", "A3", "A4"):
        dq = double(preset_quiver(qtype))
        for _ in range(25):
            d = tuple(int(v) for v in rng.integers(0, 5, size=dq.nv))
            e = tuple(int(v) for v in rng.integers(0, 5, size=dq.nv))
            assert symmetric_form(dq, d, e) == symmetric_form(dq, e, d)


def interval_dimension_total(n):
    # the algebra decomposes over intervals [i, j]; each contributes j - i + 1
    return sum(j - i + 1 for i in range(1, n + 1) for j in range(i, n + 1))


@pytest.mark.parametrize("qtype,n", [("A2", 2), ("A3", 3), ("A4", 4)])
def test_algebra_dimension_matches_interval_count(qtype, n, f):
    basis = PreprojectiveBasis(double(preset_quiver(qtype)), f)
    assert basis.total_dim == interval_dimension_total(n)


def test_a3_graded_dims(f):
    basis = PreprojectiveBasis(double(dynkin_a(3)), f)
    assert basis.graded_dims == [3, 4, 3]


@pytest.mark.parametrize("qtype", ["A2", "A3", "A4"])
def test_algebra_is_sum_of_projectives(qtype, f):
    from preproj.modules import check_relations, projective_module

    dq = double(preset_quiver(qtype))
    basis = PreprojectiveBasis(dq, f)
    projs = [projective_module(basis, v) for v in dq.vertices]
    assert sum(p.total_dim for p in projs) == basis.total_dim
    assert all(check_relations(p) for p in projs)


def test_degree_cap_raises(f, monkeypatch):
    # without its relations the path algebra is infinite; the build stops
    # at degree 2n instead of running on
    from preproj import quivers

    monkeypatch.setattr(quivers, "_relation_paths", lambda dq, v: [])
    with pytest.raises(StructureError, match="by degree 6"):
        PreprojectiveBasis(double(dynkin_a(3)), f)


def test_reduce_path_identity_class(f):
    basis = PreprojectiveBasis(double(dynkin_a(2)), f)
    coords = basis.reduce_path((), 1, 1)
    assert coords.shape == (1, 1) and coords[0, 0] == 1
