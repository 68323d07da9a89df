import collections
import dataclasses
import itertools
import json

import numpy as np
import pytest

import preproj.atlas as atlas_mod
import preproj.extensions as extensions_mod
import preproj.modules as modules_mod
from preproj.atlas import (
    Atlas,
    _ar_socle,
    _certify_complete,
    _iso_key,
    compare_atlases,
    enumerate_indecomposables,
)
from preproj.errors import EnumerationError, FormatError, IntegrityError
from preproj.extensions import build_extension, ext1_cocycle
from preproj.linalg import PrimeField
from preproj.modules import (
    cosyzygy,
    dual_twist,
    hom_basis,
    hom_dim,
    projective_cover,
    socle_dims,
    top_dims,
)
from tests.conftest import shared_atlas
from tests.oracle import ModuleMap, extension_sequence, identity_map, is_split, module_by_alias
from tests.test_modules import base_change


def test_counts(atlas_a2, atlas_a3, atlas_a4):
    assert atlas_a2.size == 4
    assert atlas_a3.size == 12
    assert atlas_a4.size == 40


# -- independent A2 oracle: brute-force orbit counting over F_2 -------------


def _f2_rank(rows):
    rows = [int("".join(map(str, r)), 2) if r else 0 for r in rows]
    rank = 0
    for bit in reversed(range(8)):
        idx = next((i for i, r in enumerate(rows) if (r >> bit) & 1), None)
        if idx is None:
            continue
        pivot = rows.pop(idx)
        rows = [r ^ pivot if (r >> bit) & 1 else r for r in rows]
        rank += 1
    return rank


def _f2_mats(r, c):
    if r * c == 0:
        return [tuple(tuple() for _ in range(r))]
    out = []
    for bits in itertools.product((0, 1), repeat=r * c):
        out.append(tuple(tuple(bits[i * c : (i + 1) * c]) for i in range(r)))
    return out


def _f2_mul(a, b, n, m, k):
    # a: n x m, b: m x k
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(m)) % 2 for j in range(k))
        for i in range(n)
    )


def _f2_gl(d):
    return [g for g in _f2_mats(d, d) if _f2_rank([list(r) for r in g]) == d]


def _a2_orbit_count(d1, d2):
    pairs = []
    for a in _f2_mats(d2, d1):  # action 1 -> 2
        for b in _f2_mats(d1, d2):  # action 2 -> 1
            if any(any(r) for r in _f2_mul(b, a, d1, d2, d1)):
                continue
            if any(any(r) for r in _f2_mul(a, b, d2, d1, d2)):
                continue
            pairs.append((a, b))
    gl1, gl2 = _f2_gl(d1), _f2_gl(d2)
    inv1 = {g: next(h for h in gl1 if _f2_mul(g, h, d1, d1, d1) == tuple(tuple(int(i == j) for j in range(d1)) for i in range(d1))) for g in gl1}
    inv2 = {g: next(h for h in gl2 if _f2_mul(g, h, d2, d2, d2) == tuple(tuple(int(i == j) for j in range(d2)) for i in range(d2))) for g in gl2}
    seen = set()
    orbits = 0
    for pair in pairs:
        if pair in seen:
            continue
        orbits += 1
        for g1 in gl1:
            for g2 in gl2:
                a, b = pair
                na = _f2_mul(_f2_mul(g2, a, d2, d2, d1), inv1[g1], d2, d1, d1)
                nb = _f2_mul(_f2_mul(g1, b, d1, d1, d2), inv2[g2], d1, d2, d2)
                seen.add((na, nb))
    return orbits


def _a2_predicted_count(d1, d2):
    # multisets of S1=(1,0), S2=(0,1), P1=(1,1), P2=(1,1)
    count = 0
    for p1 in range(min(d1, d2) + 1):
        for p2 in range(min(d1, d2) - p1 + 1):
            s1 = d1 - p1 - p2
            s2 = d2 - p1 - p2
            if s1 >= 0 and s2 >= 0:
                count += 1
    return count


def test_a2_count_against_brute_force():
    for d1 in range(3):
        for d2 in range(3):
            assert _a2_orbit_count(d1, d2) == _a2_predicted_count(d1, d2), (d1, d2)


# -- aliases ------------------------------------------------------------------


def test_a3_alias_table_is_complete(atlas_a3):
    assert len(atlas_a3.aliases) == 12
    assert sorted(atlas_a3.aliases.values()) == sorted(
        ["S1", "S2", "S3", "P1", "P2", "P3", "1over2", "2over1", "2over3", "3over2", "13over2", "2over13"]
    )


def test_a3_alias_structure(atlas_a3):
    m = module_by_alias(atlas_a3, "13over2")
    assert m.dims == (1, 1, 1)
    assert top_dims(m) == (1, 0, 1)
    assert socle_dims(m) == (0, 1, 0)
    p2 = module_by_alias(atlas_a3, "P2")
    assert p2.dims == (1, 2, 1)


def test_a4_named_modules(atlas_a4):
    assert module_by_alias(atlas_a4, "4over3").dims == (0, 0, 1, 1)
    assert module_by_alias(atlas_a4, "2over13over2").dims == (1, 2, 1, 0)
    assert module_by_alias(atlas_a4, "24over3").dims == (0, 1, 1, 1)


# -- fingerprints ----------------------------------------------------------------


def test_fingerprints_separate_modules(atlas_a3):
    # (dims, hom_table row), the last key of the canonical sort, tells the
    # modules apart, so the atlas order does not depend on the closure's
    keys = {(m.dims, tuple(atlas_a3.hom_table[i])) for i, m in enumerate(atlas_a3.modules)}
    assert len(keys) == 12


# -- tables ---------------------------------------------------------------------


def test_table_cache_coherence(atlas_a3):
    mods = atlas_a3.modules
    for i in range(12):
        assert mods[i].end_dim == atlas_a3.hom_table[i, i]
        for j in range(12):
            assert atlas_a3.hom_table[i, j] == hom_dim(mods[i], mods[j])
            assert len(hom_basis(mods[i], mods[j])) == hom_dim(mods[i], mods[j])
    for i, j in [(0, 5), (3, 9), (11, 2), (7, 7)]:
        assert atlas_a3.ext_table[i, j] == ext1_cocycle(
            atlas_a3.modules[i], atlas_a3.modules[j]
        ).dim


@pytest.mark.parametrize("qtype", ["A3", "A4"])
def test_ext_table_matches_recomputed_cocycles(qtype):
    # the closure's table is read from the dimensions it recorded per pair,
    # and from cocycles for the pairs left after the certificate
    atlas = shared_atlas(qtype)
    mods = atlas.modules
    want = [[ext1_cocycle(x, y).dim for y in mods] for x in mods]
    assert atlas.ext_table.tolist() == want


@pytest.mark.parametrize("qtype", ["A3", "A4"])
def test_iso_key_separates_modules_and_is_invariant(qtype):
    atlas = shared_atlas(qtype)
    keys = [_iso_key(m) for m in atlas.modules]
    assert len(set(keys)) == atlas.size
    for i, m in enumerate(atlas.modules):
        assert _iso_key(base_change(m, 60 + i)) == keys[i]


def test_ext_table_shape_facts(atlas_a3):
    ext = atlas_a3.ext_table
    assert int(ext.diagonal().max()) == 0
    for v in atlas_a3.dq.vertices:
        pid = atlas_a3.id_by_alias(f"P{v}")
        assert not ext[pid].any()
        assert not ext[:, pid].any()


# -- completeness certificate ------------------------------------------------------


@pytest.mark.parametrize("p", [32003, 101])
@pytest.mark.parametrize("qtype", ["A2", "A3", "A4"])
def test_certificate_holds(qtype, p):
    atlas = shared_atlas(qtype, p)
    assert _certify_complete(atlas.modules, atlas.basis) is None


def test_certificate_refuses_a3_without_any_one_module(atlas_a3):
    mods = atlas_a3.modules
    for mid in range(len(mods)):
        rest = mods[:mid] + mods[mid + 1 :]
        assert _certify_complete(rest, atlas_a3.basis) is not None, mid


def test_certificate_refuses_a3_listing_a_module_twice(atlas_a3):
    # tau of the copy lands on the id tau of the original has
    twice = atlas_a3.modules + [base_change(module_by_alias(atlas_a3, "2over13"), 7)]
    assert "permute" in _certify_complete(twice, atlas_a3.basis)


def test_certificate_refuses_a3_when_pullbacks_kill_nothing(atlas_a3, monkeypatch):
    # pulling back along the identity kills no class, so no socle is left
    monkeypatch.setattr(atlas_mod, "local_basis", lambda m: [identity_map(m).mats] * 2)
    assert "socle" in _certify_complete(atlas_a3.modules, atlas_a3.basis)


@pytest.mark.parametrize("alias", ["S2", "P3", "2over13over2"])
def test_certificate_refuses_a4_without_a_module(atlas_a4, alias):
    gone = atlas_a4.id_by_alias(alias)
    rest = [m for mid, m in enumerate(atlas_a4.modules) if mid != gone]
    assert _certify_complete(rest, atlas_a4.basis) is not None


def test_a3_socle_classes_give_almost_split_sequences(atlas_a3):
    checked = 0
    for m in atlas_a3.modules:
        tau_m = cosyzygy(m, atlas_a3.basis)
        if not tau_m.total_dim:
            continue
        space = ext1_cocycle(m, tau_m)
        socle = _ar_socle(space)
        assert socle.shape[1] == 1
        for col in socle.T:
            seq = extension_sequence(space, col)
            assert not is_split(seq)
            assert seq.mid.dims == tuple(a + b for a, b in zip(m.dims, tau_m.dims))
            checked += 1
    assert checked == 9


@pytest.mark.parametrize("qtype", ["A2", "A3", "A4"])
def test_closure_extensions_are_exact_sequences(qtype, monkeypatch):
    # build_extension returns the middle term alone; every class the passes
    # and the certificate build gives a sequence 0 -> y -> E -> x -> 0 whose
    # block inclusion and projection are module maps, injective and onto,
    # composing to zero
    built = []

    def recording(space, coeffs):
        built.append((space, tuple(int(c) for c in coeffs)))
        return build_extension(space, coeffs)

    monkeypatch.setattr(atlas_mod, "build_extension", recording)
    enumerate_indecomposables(qtype, PrimeField(32003))
    assert built
    for space, coeffs in built:
        extension_sequence(space, coeffs)  # validate raises InputError


@pytest.mark.parametrize("qtype", ["A2", "A3", "A4"])
def test_projective_covers_are_surjective_module_maps(qtype):
    # the closure takes the cover of every atlas module (syzygy) and of its
    # dual twist (cosyzygy); syzygy checks only that each cover is onto
    atlas = shared_atlas(qtype)
    for m in atlas.modules:
        for rep in (m, dual_twist(m)):
            cover_rep, mats = projective_cover(rep, atlas.basis)
            cover = ModuleMap(cover_rep, rep, mats)
            assert cover.is_intertwiner() and cover.is_surjective()


def test_uncertified_closure_raises(monkeypatch):
    monkeypatch.setattr(atlas_mod, "_certify_complete", lambda mods, basis, facts=None: "refused")
    with pytest.raises(EnumerationError, match="refused"):
        enumerate_indecomposables("A3", PrimeField(32003))


def _count_calls(monkeypatch, names) -> dict:
    """Count the calls of the named functions through every binding of
    them in atlas, modules and extensions, and of PrimeField.rref and
    PrimeField.ranks."""
    calls = dict.fromkeys([*names, "rref", "ranks"], 0)
    for mod in (atlas_mod, modules_mod, extensions_mod):
        for name in names:
            real = getattr(mod, name, None)
            if real is None:
                continue

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    for method in ("rref", "ranks"):

        def counted(self, *args, _name=method, _real=getattr(PrimeField, method), **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(PrimeField, method, counted)
    return calls


def _record_classes(monkeypatch) -> list:
    """The coefficient vectors of every build_extension call in atlas: the
    closure's passes and the certificate's almost split sequences."""
    seen = []
    real = atlas_mod.build_extension

    def recorded(space, coeffs):
        seen.append([int(c) for c in coeffs])
        return real(space, coeffs)

    monkeypatch.setattr(atlas_mod, "build_extension", recorded)
    return seen


def _is_unit_vector(v) -> bool:
    return sorted(v) == [0] * (len(v) - 1) + [1]


def test_a3_closure_extends_by_basis_classes(monkeypatch):
    # each pass absorbs the middle term of every basis class of Ext^1; every
    # space met on A3 is 1-dimensional, so each vector is (1,)
    classes = _record_classes(monkeypatch)
    built = enumerate_indecomposables("A3", PrimeField(32003))
    assert built.size == 12 and classes
    assert all(_is_unit_vector(c) for c in classes), classes


def test_a4_closure_builds_few_extensions(monkeypatch):
    # confirming completeness by one more sampled pass built 1,200 middle
    # terms on A4; the certificate builds one almost split sequence per
    # non-projective module.  Each pass ranks Ext^1 of its new pairs by
    # pair_tables first and builds cocycles only where Ext^1 != 0: the
    # passes and the certificate build 121 extension spaces, where building
    # one for every visited pair took 507.  Each content is decomposed once,
    # each placed piece located once, and the certificate reuses the passes'
    # cosyzygies, Ext spaces and decompositions.  The passes and the
    # certificate share one decompose memo keyed by content, so a piece met
    # inside two decompositions is split once (139 splits of 230 requests);
    # each module computes its End basis and arrow ranks once; the
    # certificate locates a piece whose content was placed by that content;
    # and sub_representation reads coordinates off unit rows, not solves:
    # 235 Hom bases, 148 isomorphism tests and 2,359 rrefs, where 372, 177
    # and 4,445 were made before.  From cold plan caches, the
    # three growths of the tables each build the scatter plans of all their
    # new dimension-vector pairs in one call, and 44 keys are met first
    # one at a time by hom_basis and ext1_cocycle (9 of them outside the
    # atlas's dimension vectors): 587 single builds before.  The growths
    # rank both systems of all their pairs in 26 stacks, where 29 stacks
    # of padded shapes took two calls per growth
    names = ["build_extension", "ext1_cocycle", "decompose", "hom_basis", "is_isomorphic", "cosyzygy", "_scatter_plans"]
    modules_mod.scatter_plans.cache_clear()
    calls = _count_calls(monkeypatch, names)
    classes = _record_classes(monkeypatch)
    built = enumerate_indecomposables("A4", PrimeField(32003))
    assert built.size == 40
    assert len(classes) == calls["build_extension"]
    assert all(_is_unit_vector(c) for c in classes), classes
    assert calls["build_extension"] <= 200
    assert calls["ext1_cocycle"] <= 121
    assert calls["decompose"] <= 106
    assert calls["hom_basis"] <= 235
    assert calls["is_isomorphic"] <= 148
    assert calls["cosyzygy"] <= 40
    assert calls["rref"] <= 2359
    assert calls["_scatter_plans"] <= 3 + 44
    assert calls["ranks"] <= 26
    assert compare_atlases(built, shared_atlas("A4")) == []


@pytest.mark.parametrize("qtype", ["A3", "A4"])
def test_closure_splits_each_content_once_and_as_a_fresh_decompose(qtype, monkeypatch):
    # the passes and the certificate share one decompose memo: each content
    # is split once, and a memoised call gives the pieces of a fresh one
    calls, bodies = [], []
    real, real_rec = atlas_mod.decompose, modules_mod._decompose_rec

    def recording(rep, memo=None):
        got = real(rep, memo)
        calls.append((rep, got))
        return got

    def body(rep, memo):
        if rep.content not in memo:
            bodies.append(rep.content)
        return real_rec(rep, memo)

    monkeypatch.setattr(atlas_mod, "decompose", recording)
    monkeypatch.setattr(modules_mod, "_decompose_rec", body)
    built = enumerate_indecomposables(qtype, PrimeField(32003))
    monkeypatch.undo()
    assert compare_atlases(built, shared_atlas(qtype)) == []
    assert calls and len(bodies) == len(set(bodies))
    for rep, got in calls:
        fresh = modules_mod.decompose(rep)
        assert [(x.content, m) for x, m in fresh] == [(x.content, m) for x, m in got]


def test_gamma_of_a_loaded_atlas_plans_every_pair_in_one_call(tmp_path, monkeypatch):
    # a loaded atlas met no closure, so gamma plans the Hom systems of all
    # its pairs of dimension vectors in one pass, not one build per pair
    atlas = shared_atlas("A3")
    want = atlas.gamma()
    atlas.save(tmp_path / "atlas.json")
    loaded = Atlas.load(tmp_path / "atlas.json", atlas.field)
    modules_mod.scatter_plans.cache_clear()
    calls = _count_calls(monkeypatch, ["_scatter_plans"])
    got = loaded.gamma()
    assert calls["_scatter_plans"] == 1
    assert np.array_equal(got.starts, want.starts) and np.array_equal(got.consts, want.consts)


def test_gamma_after_the_a3_closure_builds_no_scatter_plan(monkeypatch):
    # the closure's last growth plans the Hom system of every pair of atlas
    # dimension vectors, so the Hom bases of gamma find their plans built
    modules_mod.scatter_plans.cache_clear()
    built = enumerate_indecomposables("A3", PrimeField(32003))
    calls = _count_calls(monkeypatch, ["_scatter_plans"])
    gamma = built.gamma()
    assert calls["_scatter_plans"] == 0
    assert np.array_equal(gamma.consts, shared_atlas("A3").gamma().consts)


@pytest.mark.parametrize("p", [32003, 101])
@pytest.mark.parametrize("qtype", ["A2", "A3", "A4"])
def test_certificate_verdict_does_not_depend_on_the_passes_facts(qtype, p, monkeypatch):
    # every pass's certificate gives the same verdict from the passes'
    # facts as from scratch; A2 and A3 certify after one pass, A4 after two,
    # so a failing verdict is compared too
    real = atlas_mod._certify_complete
    verdicts = []

    def both(mods, basis, facts=None):
        got = real(mods, basis, facts)
        verdicts.append((got, real(list(mods), basis)))
        return got

    monkeypatch.setattr(atlas_mod, "_certify_complete", both)
    built = enumerate_indecomposables(qtype, PrimeField(p))
    assert verdicts[-1] == (None, None)
    assert all(with_facts == without for with_facts, without in verdicts), verdicts
    assert len(verdicts) == (2 if qtype == "A4" else 1)
    assert compare_atlases(built, shared_atlas(qtype, p)) == []


def test_closure_ext_is_checked_against_ranks(monkeypatch):
    # a visited pair whose recorded Ext disagrees with pair_tables is refused
    real = atlas_mod.pair_tables
    monkeypatch.setattr(atlas_mod, "pair_tables", lambda xs, ys, known=0: (real(xs, ys, known)[0], np.full((len(xs), len(ys)), 99)))
    with pytest.raises(IntegrityError):
        enumerate_indecomposables("A2", PrimeField(32003))


def test_closure_ranks_each_pair_once_and_builds_cocycles_only_where_ext_is_nonzero(monkeypatch):
    # the passes grow the tables through one pair_tables call each over
    # the pairs with a new module, so every ordered pair is ranked once and
    # the last growth is the atlas's table; an ExtSpace is built only for a
    # pair ranked nonzero
    real_tables, real_certify = atlas_mod.pair_tables, atlas_mod._certify_complete
    ranked, certified = collections.Counter(), []

    def tables(xs, ys, known=0):
        ranked.update((id(x), id(y)) for i, x in enumerate(xs) for j, y in enumerate(ys) if max(i, j) >= known)
        return real_tables(xs, ys, known)

    def certify(mods, basis, facts=None):
        certified.append((list(mods), facts))
        return real_certify(mods, basis, facts)

    monkeypatch.setattr(atlas_mod, "pair_tables", tables)
    monkeypatch.setattr(atlas_mod, "_certify_complete", certify)
    built = enumerate_indecomposables("A3", PrimeField(32003))
    assert set(ranked.values()) == {1}
    assert set(ranked) == {(id(x), id(y)) for x in built.modules for y in built.modules}
    mods, facts = certified[-1]
    _, exts = real_tables(mods, mods)
    assert facts.spaces
    for (i, j), space in facts.spaces.items():
        assert space.dim == len(space.representatives) == exts[i, j] > 0
    assert compare_atlases(built, shared_atlas("A3")) == []


def test_closure_refuses_a_cocycle_basis_shorter_than_the_rank(monkeypatch):
    real = atlas_mod.ext1_cocycle

    def short(x, y):
        space = real(x, y)
        return dataclasses.replace(space, dim=space.dim - 1, representatives=space.representatives[:-1])

    monkeypatch.setattr(atlas_mod, "ext1_cocycle", short)
    with pytest.raises(IntegrityError, match="cocycles and ranks disagree"):
        enumerate_indecomposables("A3", PrimeField(32003))


# -- persistence ------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, atlas_a3):
    path = tmp_path / "a3.json"
    atlas_a3.save(path)
    loaded = Atlas.load(path, atlas_a3.field)
    assert compare_atlases(atlas_a3, loaded) == []
    for a, b in zip(atlas_a3.modules, loaded.modules):
        assert all(np.array_equal(x, y) for x, y in zip(a.mats, b.mats))
    again = tmp_path / "again.json"
    loaded.save(again)
    assert path.read_bytes() == again.read_bytes()


def test_load_rejects_wrong_magic(tmp_path, field):
    bad = tmp_path / "bad.json"
    bad.write_text('{"hello": 1}')
    with pytest.raises(FormatError):
        Atlas.load(bad, field)
    notjson = tmp_path / "notjson.json"
    notjson.write_text("not json at all")
    with pytest.raises(FormatError):
        Atlas.load(notjson, field)


def test_load_rejects_prime_mismatch(tmp_path, atlas_a3):
    path = tmp_path / "a3.json"
    atlas_a3.save(path)
    with pytest.raises(FormatError):
        Atlas.load(path, PrimeField(101))


# -- determinism and the two-prime cross-check --------------------------------------


def test_enumeration_is_deterministic(tmp_path, atlas_a3):
    fresh = enumerate_indecomposables("A3", PrimeField(32003))
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    atlas_a3.save(p1)
    fresh.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_two_prime_agreement_a3(atlas_a3):
    other = shared_atlas("A3", 101)
    assert compare_atlases(atlas_a3, other) == []
