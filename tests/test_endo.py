from fractions import Fraction

import numpy as np
import pytest

from preproj.endo import (
    BModule,
    BoundAlgebra,
    ExtCalculatorB,
    Presentation,
    coresolution_check,
    enumerate_tilting,
    _top_basis,
    hom_b,
    presentation,
    relative_ext,
    verify_graph_correspondence,
)
from preproj.errors import InputError, IntegrityError, StructureError
from preproj.extensions import ext1_cocycle
from preproj.modules import hom_basis, zero_rep
from preproj.rigidgraph import RigidModule, compatibility, exchange_pairs
from tests.oracle import (
    ModuleMap,
    action_block,
    approximation_map,
    compose_maps,
    dense_action,
    direct_sum_b,
    exact_classes,
    extension_sequence,
    hom_exact_by_dims,
    identity_of,
    module_by_alias,
    module_from_blocks,
    oracle_hom_dim,
    oracle_hom_image,
    oracle_hom_image_map,
    oracle_pd_le1,
    oracle_projective,
    pd_le1,
    product_coords,
    reference_complements,
    reference_compose,
    reference_hom_b,
    reference_maximal_cliques,
    reference_presentation,
    reference_tables,
    simple_b,
    syzygy_b,
)
from tests.test_acceptance import A4_NAMED

# eight A4 T: the five the acceptance tests name and three more
A4_SAMPLE = [0, 215, 245, 287, 305, 400, 621, 671]


@pytest.fixture(scope="module")
def setup_a3(atlas_a3, rigids_a3):
    rigids, graph = rigids_a3
    algebra = BoundAlgebra(atlas_a3, rigids[0])
    return atlas_a3, rigids, graph, algebra


def test_dimension_is_hom_table_sum(setup_a3):
    atlas, rigids, _, algebra = setup_a3
    t = rigids[0]
    want = sum(int(atlas.hom_table[i, j]) for i in t.summands for j in t.summands)
    assert algebra.dim == want


def _identity_law_blocks(atlas, a, b, law):
    # constants of b o e_a (right law) or e_a o b (left law) over hom_basis
    # bases, as a matrix that must be the identity
    return atlas.compose(a, a, b)[:, :, 0] if law == "right" else atlas.compose(b, a, a)[0]


@pytest.mark.parametrize("law", ["right", "left"])
def test_identity_laws_are_checked(atlas_a3, atlas_a4, rigids_a4, law):
    # hom_basis(k, k)[0] is the identity and compose solves exact
    # coordinates, so b o e_k = b and e_k o b = b hold by construction:
    # checked here on every ordered pair of A3 atlas modules and on the
    # summand pairs of two A4 T, not at run time
    rigids, _ = rigids_a4
    cases = [(atlas_a3, range(atlas_a3.size))]
    cases += [(atlas_a4, rigids[ti].summands) for ti in (245, 621)]
    for atlas, ids in cases:
        for a in ids:
            for b in ids:
                block = _identity_law_blocks(atlas, a, b, law)
                assert np.array_equal(block, np.eye(len(block), dtype=np.int64)), (a, b)


def test_identity_laws_are_checked_once_per_atlas_pair(atlas_a3, rigids_a3, monkeypatch):
    # the constants of a pair of atlas modules are solved once and kept by
    # the atlas, as views of Γ's one array; End(T) reads none of them
    # through compose to build, over all 14 A3 T
    from dataclasses import replace

    rigids, _ = rigids_a3
    fresh = replace(atlas_a3)
    consts = fresh.gamma().consts
    for a in range(fresh.size):
        for b in range(fresh.size):
            assert fresh.compose(a, a, b).base is consts
            assert fresh.compose(b, a, a).base is consts
    assert fresh.gamma() is fresh.gamma()
    calls = []
    monkeypatch.setattr(fresh, "compose", lambda *args: calls.append(args))
    for t in rigids:
        BoundAlgebra(fresh, t)
    assert calls == []


def test_idempotents_orthogonal(setup_a3):
    _, _, _, algebra = setup_a3
    for k in range(algebra.r):
        for l in range(algebra.r):
            ek, el = identity_of(algebra, k), identity_of(algebra, l)
            block, coeffs = product_coords(algebra, ek, el)
            if k != l:
                assert not np.any(coeffs)
            else:
                assert coeffs[0] == 1 and not np.any(coeffs[1:])


def test_semisimple_quotient_dimension(setup_a3):
    _, _, _, algebra = setup_a3
    assert algebra.dim - len(algebra.radical_elements) == algebra.r == 6


def test_radical_elements_nilpotent_on_projectives(setup_a3):
    # radical elements act nilpotently on every projective
    _, _, _, algebra = setup_a3
    for k in range(algebra.r):
        proj = algebra.projective(k)
        for idx in algebra.radical_elements:
            dense = dense_action(proj, idx)
            power = dense
            for _ in range(proj.dim):
                power = algebra.field.mul(power, dense)
            assert not np.any(power)


def test_action_respects_multiplication(setup_a3):
    atlas, rigids, _, algebra = setup_a3
    mod = algebra.hom_image(3)
    rng = np.random.default_rng(4)
    for _ in range(60):
        i1, i2 = (int(v) for v in rng.integers(0, algebra.dim, size=2))
        lhs = algebra.field.mul(dense_action(mod, i1), dense_action(mod, i2))
        if algebra.src[i1] != algebra.tgt[i2]:
            assert not np.any(lhs)
            continue
        block, coeffs = product_coords(algebra, i1, i2)
        rhs = algebra.field.zeros(mod.dim, mod.dim)
        for pos, idx in enumerate(algebra.block_elems[block]):
            c = int(coeffs[pos])
            if c:
                rhs = (rhs + c * dense_action(mod, idx)) % algebra.field.p
        assert np.array_equal(lhs, rhs)


def _assert_images_of_summands_are_projectives(algebra):
    # B e_k is the image Hom(T_k, T), block for block
    for k in range(algebra.r):
        image, want = algebra.projective(k), oracle_projective(algebra, k)
        assert image.comp_dims == want.comp_dims
        assert all(np.array_equal(action_block(image, i), action_block(want, i)) for i in range(algebra.dim))


def test_images_of_summands_are_projectives(setup_a3, rigids_a3, atlas_a4, rigids_a4):
    atlas, rigids, _, _ = setup_a3
    for t in rigids:
        _assert_images_of_summands_are_projectives(BoundAlgebra(atlas, t))
    for t_index in A4_NAMED:
        _assert_images_of_summands_are_projectives(BoundAlgebra(atlas_a4, rigids_a4[0][t_index]))


def test_image_of_zero(setup_a3):
    atlas, _, _, algebra = setup_a3
    image = oracle_hom_image(algebra, zero_rep(atlas.dq, atlas.field))
    assert image.dim == 0


def test_images_pairwise_distinct(setup_a3):
    atlas, _, _, algebra = setup_a3
    calc = ExtCalculatorB(algebra, [algebra.hom_image(i) for i in range(atlas.size)])
    fps = {(im.comp_dims, tuple(calc.hom[a])) for a, im in enumerate(calc.candidates)}
    assert len(fps) == 12


def test_proj_dim(setup_a3):
    atlas, _, _, algebra = setup_a3
    r = algebra.r
    mods = [algebra.projective(0)] + [simple_b(algebra, k) for k in range(r)]
    mods += [algebra.hom_image(i) for i in range(atlas.size)]
    assert pd_le1(mods[0])
    assert all(pd_le1(mods[1 + r + i]) for i in range(atlas.size))
    flags = [pd_le1(mods[1 + k]) for k in range(r)]
    assert not all(flags)  # the algebra has global dimension > 1


def test_ext_b_from_projective_vanishes(setup_a3):
    atlas, _, _, algebra = setup_a3
    target = algebra.r
    mods = [algebra.projective(k) for k in range(algebra.r)] + [algebra.hom_image(5)]
    calc = ExtCalculatorB(algebra, mods)
    for k in range(algebra.r):
        assert calc.ext1(k, target) == 0


def _check_against_oracle(atlas, t):
    # Ext from 0 -> Hom(M, N) -> Hom(P0, N) -> Hom(ΩM, N) -> Ext^1(M, N) -> 0,
    # Hom_B(B e_k, N) = e_k N and every other Hom from the system oracle
    calc = ExtCalculatorB.for_rigid(atlas, t)
    for a, m in enumerate(calc.candidates):
        syz, copies, _ = syzygy_b(m)
        assert pd_le1(m) and oracle_pd_le1(m), (t.summands, a)
        for b, n in enumerate(calc.candidates):
            hom = oracle_hom_dim(m, n)
            ext = oracle_hom_dim(syz, n) - sum(n.comp_dims[k] for k in copies) + hom
            assert (calc.hom[a, b], calc.ext[a, b]) == (hom, ext), (t.summands, a, b)
    # and from each projective B e_k: Ext 0 and Hom e_k N
    alg, size = calc.algebra, len(calc.candidates)
    projs = ExtCalculatorB(alg, calc.candidates + [alg.projective(k) for k in range(alg.r)])
    for k in range(alg.r):
        for b, n in enumerate(calc.candidates):
            assert (projs.ext[size + k, b], projs.hom[size + k, b]) == (0, n.comp_dims[k])
    # the simples, some of projective dimension > 1, get the oracle's verdict
    verdicts = [pd_le1(simple_b(alg, k)) for k in range(alg.r)]
    assert verdicts == [oracle_pd_le1(simple_b(alg, k)) for k in range(alg.r)], t.summands


def test_ext1_and_hom_dim_match_system_oracle_a3(atlas_a3, rigids_a3):
    for t in rigids_a3[0]:
        _check_against_oracle(atlas_a3, t)


@pytest.mark.parametrize("t_index", [0, 215, 245, 621])
def test_ext1_and_hom_dim_match_system_oracle_a4(atlas_a4, rigids_a4, t_index):
    _check_against_oracle(atlas_a4, rigids_a4[0][t_index])


def test_modules_of_proj_dim_above_one_are_refused(setup_a3):
    _, _, _, algebra = setup_a3
    simples = [simple_b(algebra, k) for k in range(algebra.r)]
    bad = [k for k, s in enumerate(simples) if not pd_le1(s)]
    assert bad
    with pytest.raises(InputError, match=f"candidate {bad[0]} has projective dimension > 1"):
        ExtCalculatorB(algebra, simples)


def test_zero_and_projectives_have_empty_presentation_matrix(setup_a3):
    # no relations: R_N has no rows, Ext vanishes and Hom is Σ_g n_{k_g}
    atlas, _, _, algebra = setup_a3
    r = algebra.r
    mods = [algebra.projective(k) for k in range(r)]
    mods.append(oracle_hom_image(algebra, zero_rep(atlas.dq, atlas.field)))
    targets = [algebra.hom_image(i) for i in range(atlas.size)]
    calc = ExtCalculatorB(algebra, mods + targets)
    for a, m in enumerate(mods):
        pres = presentation(m)
        assert pres.relations == () and pres.copies == ((a,) if a < r else ())
        for b, n in enumerate(targets, start=r + 1):
            assert reference_hom_b(pres, n).size == 0
            assert calc.ext[a, b] == 0
            assert calc.hom[a, b] == (n.comp_dims[a] if a < r else 0)
            assert calc.hom[a, b] == oracle_hom_dim(m, n)


def test_presentation_matrix_sums_every_term(setup_a3):
    # the atlas presentations have one term per block; R_N must add them all,
    # and hom_b's padded R_N holds the same blocks at its padded offsets
    _, _, _, algebra = setup_a3
    (k, l), ids = next((kl, ids) for kl, ids in algebra.block_elems.items() if len(ids) >= 2)
    n = algebra.projective(k)
    a0, a1 = action_block(n, ids[0]), action_block(n, ids[1])
    pres = Presentation((k, k), (l,), {(0, 0): [(ids[0], 2), (ids[1], 3)], (0, 1): [(ids[1], 1)]})
    want = np.concatenate([(2 * a0 + 3 * a1) % algebra.field.p, a1], axis=1)
    assert np.any(a0) and np.any(a1)
    assert np.array_equal(reference_hom_b(pres, n), want)
    w = n.action.shape[1]
    padded = hom_b([pres], [n])[0, 0]
    assert padded.shape == (w, 2 * w) and np.count_nonzero(padded) == np.count_nonzero(want)
    for g, block in enumerate((want[:, : a0.shape[1]], want[:, a0.shape[1] :])):
        assert np.array_equal(padded[: block.shape[0], g * w : g * w + block.shape[1]], block)


def _assert_hom_b_matches_reference(atlas, t):
    # the R_N of all presentations with relations and all images of T from
    # one hom_b call: each is reference_hom_b's, block for block, in padding
    algebra = BoundAlgebra(atlas, t)
    images = [algebra.hom_image(mid) for mid in range(atlas.size)]
    pres = [pr for pr in map(presentation, images) if pr.relations]
    w = images[0].action.shape[1]
    stack = hom_b(pres, images)
    assert stack.shape[:2] == (len(pres), len(images))
    for a, pr in enumerate(pres):
        for b, n in enumerate(images):
            rows = [r * w + i for r, k in enumerate(pr.relations) for i in range(n.comp_dims[k])]
            cols = [g * w + i for g, k in enumerate(pr.copies) for i in range(n.comp_dims[k])]
            assert np.array_equal(stack[a, b][np.ix_(rows, cols)], reference_hom_b(pr, n)), (t.summands, a, b)
            rest = stack[a, b].copy()
            rest[np.ix_(rows, cols)] = 0
            assert not rest.any(), (t.summands, a, b)


def test_hom_b_matches_the_reference_block_for_block(atlas_a3, rigids_a3, atlas_a4, rigids_a4):
    for t in rigids_a3[0]:
        _assert_hom_b_matches_reference(atlas_a3, t)
    for ti in (245, 621):
        _assert_hom_b_matches_reference(atlas_a4, rigids_a4[0][ti])


def _assert_presentations_match_reference(atlas, t):
    # the image of a summand is read off as B e_k with no relation; presented
    # through its cover, as the oracle's B e_k is, it comes out the same
    algebra = BoundAlgebra(atlas, t)
    for k in range(algebra.r):
        want = Presentation((k,), (), {})
        assert presentation(algebra.projective(k)) == want, (t.summands, k)
        assert presentation(oracle_projective(algebra, k)) == want, (t.summands, k)
        assert reference_presentation(algebra.projective(k)) == want, (t.summands, k)
    for mid in range(atlas.size):
        image = algebra.hom_image(mid)
        assert presentation(image) == reference_presentation(image), (t.summands, mid)


def test_presentations_match_the_reference_a3(atlas_a3, rigids_a3):
    for t in rigids_a3[0]:
        _assert_presentations_match_reference(atlas_a3, t)


@pytest.mark.parametrize("t_index", A4_SAMPLE)
def test_presentations_match_the_reference_a4(atlas_a4, rigids_a4, t_index):
    _assert_presentations_match_reference(atlas_a4, rigids_a4[0][t_index])


def test_tables_match_one_rank_per_pair(atlas_a3, rigids_a3, atlas_a4, rigids_a4):
    # no R_N for a presentation without relations, and the rest ranked in
    # stacks: the same tables as presenting every image through its cover
    # and ranking every pair alone
    runs = [(atlas_a3, t) for t in rigids_a3[0]]
    runs += [(atlas_a4, rigids_a4[0][i]) for i in A4_SAMPLE]
    for atlas, t in runs:
        calc = ExtCalculatorB.for_rigid(atlas, t)
        hom, ext = reference_tables(calc.candidates)
        assert np.array_equal(calc.hom, hom) and np.array_equal(calc.ext, ext), t.summands


def test_a3_t_suites_present_only_the_non_projective_images(atlas_a3, rigids_a3, monkeypatch):
    # each A3 T has 6 summands among its 12 images: the pass over all 14 T
    # takes 14 * 6 = 84 cover kernels and builds R_N for those presentations
    # alone, in one hom_b call per T (168 cover kernels and 2,016 calls, one
    # per pair, when every image was presented through its cover)
    from collections import Counter

    from preproj import endo
    from preproj.verify import T_SUITES, run_t_suites

    counts = Counter()
    for name in ("_cover_kernel", "hom_b"):

        def counting(*args, _real=getattr(endo, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(endo, name, counting)
    rigids, graph = rigids_a3
    reports = run_t_suites(T_SUITES, atlas_a3, rigids, graph, range(len(rigids)))
    assert all(rep["passed"] for rep in reports.values())
    assert counts == {"_cover_kernel": 84, "hom_b": 14}


def test_top_of_projective(setup_a3):
    _, _, _, algebra = setup_a3
    for k in range(algebra.r):
        tops = [j for j, _ in _top_basis(algebra.projective(k))]
        assert tops == [k]


def test_direct_sum_b(setup_a3):
    _, _, _, algebra = setup_a3
    s = direct_sum_b([algebra.projective(0), simple_b(algebra, 1)])
    assert s.dim == algebra.projective(0).dim + 1


def test_enumerate_tilting_a3(setup_a3):
    atlas, rigids, _, algebra = setup_a3
    candidates = [algebra.hom_image(m) for m in range(atlas.size)]
    tilts = enumerate_tilting(ExtCalculatorB(algebra, candidates))
    assert len(tilts) == 14
    assert tuple(rigids[0].summands) in tilts  # the algebra itself is a vertex
    assert {tuple(t.summands) for t in rigids} == {tuple(s) for s in tilts}


def test_enumerate_tilting_a2_with_exhaustive_oracle(atlas_a2, rigids_a2):
    import itertools

    rigids, _ = rigids_a2
    algebra = BoundAlgebra(atlas_a2, rigids[0])
    candidates = [algebra.hom_image(m) for m in range(4)]
    calc = ExtCalculatorB(algebra, candidates)
    tilts = enumerate_tilting(calc)
    assert len(tilts) == 2
    # oracle: test all 3-element subsets directly
    direct = []
    for subset in itertools.combinations(range(4), 3):
        if all(pd_le1(candidates[c]) for c in subset) and all(
            calc.ext[a, b] == 0 for a in subset for b in subset
        ):
            direct.append(subset)
    assert sorted(direct) == [tuple(t) for t in tilts]


def test_verify_correspondence_a2(atlas_a2, rigids_a2):
    rigids, graph = rigids_a2
    for ti in range(2):
        calc = ExtCalculatorB.for_rigid(atlas_a2, rigids[ti])
        rep = verify_graph_correspondence(atlas_a2, rigids, graph, ti, calc)
        assert rep["bijection"] and rep["edges_preserved"]
        assert rep["vertices_lambda"] == rep["vertices_B"] == 2


def test_verify_correspondence_single_a3(setup_a3):
    atlas, rigids, graph, _ = setup_a3
    calc = ExtCalculatorB.for_rigid(atlas, rigids[7])
    rep = verify_graph_correspondence(atlas, rigids, graph, 7, calc)
    assert rep["bijection"] and rep["edges_preserved"] and not rep["mismatches"]


def test_edge_check_fails_when_complements_extend_both_ways(setup_a3):
    atlas, rigids, graph, _ = setup_a3
    calc = ExtCalculatorB.for_rigid(atlas, rigids[7])
    tilts = enumerate_tilting(calc)

    def complements(i, j):
        return min(set(tilts[i]) - set(tilts[j])), min(set(tilts[j]) - set(tilts[i]))

    pairs = exchange_pairs(tilts)
    x, y = complements(*pairs[0])
    assert (calc.ext1(x, y) > 0) + (calc.ext1(y, x) > 0) == 1
    # x and y never share a tilting set, so the tilting sets stay as they are
    calc.ext[x, y] = calc.ext[y, x] = 1
    rep = verify_graph_correspondence(atlas, rigids, graph, 7, calc=calc)
    assert rep["bijection"] and not rep["edges_preserved"]
    hit = [p for p in pairs if set(complements(*p)) == {x, y}]
    assert len(rep["mismatches"]) == len(hit) >= 1
    assert all("non-split extensions in 2 directions" in m for m in rep["mismatches"])


def test_theorem1_lists_a_perturbed_hom_entry(setup_a3, monkeypatch):
    # the functor check compares the whole Hom_B table with the transpose of
    # hom_table: one changed entry is listed with its pair, and fails the suite
    from preproj import verify

    atlas, rigids, graph, _ = setup_a3
    want = [
        "Hom(-, T) is not fully faithful: dim Hom_B(FX, FY) != dim Hom(Y, X) "
        "for 1 pair(s) (X, Y), first [[2, 5]]"
    ]
    calc = ExtCalculatorB.for_rigid(atlas, rigids[7])
    calc.hom[2, 5] += 1
    rep = verify_graph_correspondence(atlas, rigids, graph, 7, calc)
    assert rep["bijection"] and rep["edges_preserved"] and rep["mismatches"] == want
    real = verify.verify_graph_correspondence

    def perturbed(atlas, rigids, graph, t_index, calc):
        calc.hom[2, 5] += 1
        return real(atlas, rigids, graph, t_index, calc)

    monkeypatch.setattr(verify, "verify_graph_correspondence", perturbed)
    report = verify.run_t_suites(("theorem1",), atlas, rigids, graph, [7])["theorem1"]
    assert not report["passed"] and report["failures"][0]["mismatches"] == want


def _perturbed_tables(ext, rng, count):
    """count copies of ext with one entry changed each, in turn: raised by
    one, zeroed, or set to one."""
    nonzero, zero = np.argwhere(ext != 0), np.argwhere(ext == 0)
    out = []
    for k in range(count):
        pert = ext.copy()
        if k % 3 == 0 and len(nonzero):
            pert[tuple(nonzero[rng.integers(len(nonzero))])] += 1
        elif k % 3 == 1 and len(nonzero):
            pert[tuple(nonzero[rng.integers(len(nonzero))])] = 0
        else:
            pert[tuple(zero[rng.integers(len(zero))])] = 1
        out.append(pert)
    return out


def test_compatibility_equality_decides_the_tilting_bijection(atlas_a3, rigids_a3, atlas_a4, rigids_a4):
    # two compatibility matrices are equal iff their clique families are,
    # cliques asked pair by pair (the reference): on every A3 T, two A4 T,
    # and seeded one-entry perturbations of each Ext^1_B table, some of
    # which change the graph and some of which do not
    outcomes = []
    for atlas, (rigids, _), t_ids in (
        (atlas_a3, rigids_a3, range(14)),
        (atlas_a4, rigids_a4, (245, 621)),
    ):
        want = compatibility(atlas.ext_table)
        cliques = reference_maximal_cliques(atlas.ext_table)
        assert cliques == sorted(t.summands for t in rigids)
        for ti in t_ids:
            ext = ExtCalculatorB.for_rigid(atlas, rigids[ti]).ext
            rng = np.random.default_rng(ti)
            for table in [ext, *_perturbed_tables(ext, rng, 9)]:
                same = np.array_equal(compatibility(table), want)
                assert same == (reference_maximal_cliques(table) == cliques)
                outcomes.append(same)
    assert outcomes[0] and True in outcomes[1:] and False in outcomes


def test_theorem1_reports_a_broken_bijection(setup_a3):
    # two mutable summands x, y of one tilting set made to extend each
    # other: the sets holding both are lost, their neighbours stay, and
    # theorem1 names the lost sets and counts the tilting sets left
    atlas, rigids, graph, _ = setup_a3
    calc = ExtCalculatorB.for_rigid(atlas, rigids[7])
    j = 3
    edges = zip(graph.edges, reference_complements(graph))
    x, y = sorted({a if i == j else b for (i, k), (a, b) in edges if j in (i, k)})[:2]
    calc.ext[x, y] = calc.ext[y, x] = 1
    rep = verify_graph_correspondence(atlas, rigids, graph, 7, calc)
    lost = [list(t.summands) for t in rigids if {x, y} <= set(t.summands)]
    assert not rep["bijection"] and not rep["edges_preserved"]
    assert rep["mismatches"] == [f"tilting sets extra=[] missing={lost}"]
    assert rep["vertices_B"] == len(reference_maximal_cliques(calc.ext)) == 14 - len(lost)
    assert rep["vertices_lambda"] == 14


def test_passing_theorem1_enumerates_no_tilting_set(atlas_a3, rigids_a3, monkeypatch):
    from preproj import endo
    from preproj.verify import run_t_suites

    calls = []
    real = endo.enumerate_tilting
    monkeypatch.setattr(endo, "enumerate_tilting", lambda calc: calls.append(calc) or real(calc))
    rigids, graph = rigids_a3
    report = run_t_suites(("theorem1",), atlas_a3, rigids, graph, range(len(rigids)))["theorem1"]
    assert report["passed"] and calls == []
    assert [rep["vertices_B"] for rep in report["details"]["reports"]] == [14] * 14


def test_lemma22_lists_perturbed_ext_entries_in_row_major_order(setup_a3, monkeypatch):
    # lemma22 compares the whole Ext^1_B table with the relative Ext array
    from preproj import verify

    atlas, rigids, _, _ = setup_a3
    real = ExtCalculatorB.for_rigid.__func__
    base = real(ExtCalculatorB, atlas, rigids[3]).ext

    def perturbed(cls, atlas, rigid):
        calc = real(cls, atlas, rigid)
        calc.ext[7, 1] += 1
        calc.ext[2, 9] += 2
        return calc

    monkeypatch.setattr(ExtCalculatorB, "for_rigid", classmethod(perturbed))
    report = verify.run_t_suites(("lemma22",), atlas, rigids, None, [3])["lemma22"]
    assert not report["passed"]
    assert report["failures"] == [
        {"t_index": 3, "pair": [x, y], "ext_B": int(base[x, y]) + d, "relative": int(base[x, y])}
        for x, y, d in ((2, 9, 2), (7, 1, 1))
    ]


def _integer_det(rows) -> Fraction:
    """Determinant of an integer matrix by elimination over the rationals."""
    a = [[Fraction(int(v)) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@pytest.mark.parametrize("p", [32003, 101])
@pytest.mark.parametrize("qtype", ["A2", "A3", "A4"])
def test_hom_table_is_unimodular(qtype, p):
    # coresolution_check solves hom_table v = column over one fixed prime,
    # and theorem1 reads distinct images off distinct rows: both need det ±1
    from tests.conftest import shared_atlas

    assert _integer_det([[2, 1], [4, 3]]) == 2 and _integer_det([[0, 1], [1, 0]]) == -1
    assert abs(_integer_det(shared_atlas(qtype, p).hom_table)) == 1


def test_coresolution_spot_check(setup_a3):
    atlas, rigids, graph, _ = setup_a3
    i, j = graph.edges[0]
    out = coresolution_check(atlas, rigids[i], rigids[j])
    assert out["ok"]
    assert out["kernel_in_add_t_prime"] and out["hom_dims_additive"]


def test_approximation_is_a_surjective_module_map_on_every_a3_edge(setup_a3):
    # coresolution_check checks the approximation T'' -> T by vertex-wise
    # ranks alone; built as a map of direct sums, it commutes with every
    # arrow and is onto, on all 42 directed A3 edges
    atlas, rigids, graph, _ = setup_a3
    directed = [(a, b) for i, j in graph.edges for a, b in ((i, j), (j, i))]
    assert len(directed) == 42
    for a, b in directed:
        f = approximation_map(atlas, rigids[a], rigids[b])
        assert f.is_intertwiner() and f.is_surjective(), (a, b)


def test_coresolution_refuses_an_approximation_that_is_not_onto(setup_a3):
    # Hom(S1, T) lands in the socle of T, so the copies of S1 cannot cover T
    atlas, rigids, _, _ = setup_a3
    s1 = RigidModule((atlas.id_by_alias("S1"),))
    assert not approximation_map(atlas, rigids[0], s1).is_surjective()
    with pytest.raises(StructureError, match="not surjective"):
        coresolution_check(atlas, rigids[0], s1)


def test_coresolution_table_sums_match_direct_sums(setup_a3):
    # the Hom dimensions coresolution_check reads from hom_table, against
    # hom_dim on the direct sums themselves
    from preproj.modules import direct_sum, hom_dim, sub_representation

    atlas, rigids, graph, _ = setup_a3
    fld, dq = atlas.field, atlas.dq
    for i, j in graph.edges:
        for t, t_prime in ((rigids[i], rigids[j]), (rigids[j], rigids[i])):
            out = coresolution_check(atlas, t, t_prime)
            assert out["ok"]
            t_mod = direct_sum(dq, fld, [atlas.modules[k] for k in t.summands])
            piece_ids, maps = [], []
            for k in t_prime.summands:
                for b in hom_basis(atlas.modules[k], t_mod):
                    piece_ids.append(k)
                    maps.append(b)
            approx = direct_sum(dq, fld, [atlas.modules[k] for k in piece_ids])
            mats = [np.concatenate([b[v] for b in maps], axis=1) for v in range(dq.nv)]
            kernel = sub_representation(approx, [fld.kernel_basis(m) for m in mats])
            to_t = atlas.hom_table[:, list(t.summands)].sum(axis=1)
            hom_k = hom_dim(kernel, t_mod)
            hom_t = hom_dim(t_mod, t_mod)
            hom_approx = hom_dim(approx, t_mod)
            assert hom_k == sum(mult * to_t[mid] for mid, mult in out["kernel_summands"])
            assert hom_t == sum(to_t[k] for k in t.summands)
            assert hom_approx == sum(to_t[k] for k in piece_ids)
            assert out["hom_dims_additive"] == (hom_k + hom_t == hom_approx)


def test_bmodule_shape_validation(setup_a3):
    # the action is one padded block per basis element, at least as wide as
    # every component; a block given on its own must have its block's shape
    _, _, _, algebra = setup_a3
    with pytest.raises(InputError):
        BModule(algebra, (2,) * algebra.r, np.zeros((algebra.dim, 1, 1), dtype=np.int64))
    with pytest.raises(InputError):
        BModule(algebra, (1,) * algebra.r, np.zeros((algebra.dim + 1, 1, 1), dtype=np.int64))
    with pytest.raises(InputError):
        module_from_blocks(algebra, (1,) * algebra.r, {0: np.zeros((5, 7), dtype=np.int64)})


def test_hom_image_is_contravariantly_functorial(setup_a3):
    atlas, _, _, algebra = setup_a3
    fld = algebra.field
    m = module_by_alias(atlas, "1over2")
    n = module_by_alias(atlas, "P2")
    l = module_by_alias(atlas, "2over3")
    images = {x.dims: oracle_hom_image(algebra, x) for x in (m, n, l)}
    f = ModuleMap(m, n, hom_basis(m, n)[0])
    g = ModuleMap(n, l, hom_basis(n, l)[0])
    ff = oracle_hom_image_map(f, images[n.dims], images[m.dims])
    gg = oracle_hom_image_map(g, images[l.dims], images[n.dims])
    both = oracle_hom_image_map(compose_maps(g, f), images[l.dims], images[m.dims])
    for j in range(algebra.r):
        assert np.array_equal(both[j], fld.mul(ff[j], gg[j]))
    # identity maps to identity
    ident = oracle_hom_image_map(
        ModuleMap(m, m, tuple(fld.eye(d) for d in m.dims)), images[m.dims], images[m.dims]
    )
    for j in range(algebra.r):
        assert np.array_equal(ident[j], fld.eye(images[m.dims].comp_dims[j]))


def test_hom_image_is_additive(setup_a3):
    from preproj.modules import direct_sum

    atlas, _, _, algebra = setup_a3
    m = module_by_alias(atlas, "S1")
    n = module_by_alias(atlas, "3over2")
    both = oracle_hom_image(algebra, direct_sum(atlas.dq, atlas.field, [m, n]))
    want = tuple(
        oracle_hom_image(algebra, m).comp_dims[j] + oracle_hom_image(algebra, n).comp_dims[j]
        for j in range(algebra.r)
    )
    assert both.comp_dims == want


def test_sequence_dimension_identity_matches_hom_exactness(setup_a3):
    # three criteria for Hom(-, T) keeping 0 -> y -> E -> x -> 0 exact: the
    # dimension identity of the images over End(T), the rank identity over
    # the module category, and the connecting map of is_hom_exact
    from preproj.extensions import ext1_cocycle, is_hom_exact
    from preproj.modules import direct_sum

    atlas, rigids, _, algebra = setup_a3
    t_mod = direct_sum(
        atlas.dq, atlas.field, [atlas.modules[i] for i in rigids[0].summands]
    )
    pairs = [(x, y) for x in range(12) for y in range(12) if atlas.ext_table[x, y]]
    verdicts = set()
    for x, y in pairs[:8]:
        space = ext1_cocycle(atlas.modules[x], atlas.modules[y])
        seq = extension_sequence(space, (1,))
        b_side = (
            oracle_hom_image(algebra, seq.mid).dim
            == oracle_hom_image(algebra, seq.sub).dim + oracle_hom_image(algebra, seq.quot).dim
        )
        assert b_side == hom_exact_by_dims(seq, t_mod) == is_hom_exact(space, (1,), t_mod)
        verdicts.add(b_side)
    assert verdicts == {True, False}


def _matches_oracle(atlas, t):
    calc = ExtCalculatorB.for_rigid(atlas, t)
    alg = calc.algebra
    oracle = ExtCalculatorB(alg, [oracle_hom_image(alg, m) for m in atlas.modules])
    for a in range(atlas.size):
        assert calc.candidates[a].comp_dims == oracle.candidates[a].comp_dims
    assert np.array_equal(calc.hom, oracle.hom), t.summands
    assert np.array_equal(calc.ext, oracle.ext), t.summands


def test_hom_image_matches_representation_oracle_a3(atlas_a3, rigids_a3):
    for t in rigids_a3[0]:
        _matches_oracle(atlas_a3, t)


@pytest.mark.parametrize("t_index", A4_NAMED)
def test_hom_image_matches_representation_oracle_a4(atlas_a4, rigids_a4, t_index):
    _matches_oracle(atlas_a4, rigids_a4[0][t_index])


def _recomposes(atlas, triples):
    fld, nv = atlas.field, atlas.dq.nv
    for i, j, k in triples:
        consts = atlas.compose(i, j, k)
        firsts, seconds = atlas.hom_basis(j, k), atlas.hom_basis(i, j)
        targets = atlas.hom_basis(i, k)
        assert consts.shape == (len(firsts), len(targets), len(seconds))
        for e1, g in enumerate(firsts):
            for e2, f in enumerate(seconds):
                for v in range(nv):
                    want = fld.mul(g[v], f[v])
                    got = fld.zeros(*want.shape)
                    for c, h in zip(consts[e1][:, e2], targets):
                        got = (got + int(c) * h[v]) % fld.p
                    assert np.array_equal(got, want), (i, j, k, e1, e2, v)


def test_atlas_compose_recomposes_every_a3_triple(atlas_a3):
    n = atlas_a3.size
    _recomposes(atlas_a3, [(i, j, k) for i in range(n) for j in range(n) for k in range(n)])


def test_atlas_compose_recomposes_noncommuting_a4_triples(atlas_a4):
    # on A3 only one triple has two factors of dimension >= 2, and its
    # constants are symmetric, so a swap of the two factor axes needs A4
    h, n = atlas_a4.hom_table, atlas_a4.size
    wide = [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if h[i, j] >= 2 and h[j, k] >= 2 and h[i, k]
    ]
    assert len(wide) == 3432
    _recomposes(atlas_a4, wide[::8])


def test_gamma_matches_the_per_triple_solve(atlas_a3, atlas_a4, rigids_a4):
    # Γ's constants, solved once per pair, against one solve per triple: on
    # every A3 triple and every triple among the summands of two A4 T
    rigids, _ = rigids_a4
    cases = [(atlas_a3, range(atlas_a3.size))]
    cases += [(atlas_a4, rigids[ti].summands) for ti in (245, 621)]
    for atlas, ids in cases:
        for i in ids:
            for j in ids:
                for k in ids:
                    assert np.array_equal(atlas.compose(i, j, k), reference_compose(atlas, i, j, k)), (i, j, k)


def test_build_path_solves_no_composition_constant(tmp_path, monkeypatch):
    # Γ is built on the first End(T) request only: the atlas closure, its
    # file, the maximal rigid modules and the mutation graph never ask
    from preproj.atlas import Atlas, enumerate_indecomposables
    from preproj.linalg import PrimeField
    from preproj.rigidgraph import enumerate_maximal_rigid, mutation_graph

    def refuse(self):
        raise AssertionError("Γ built")

    monkeypatch.setattr(Atlas, "gamma", refuse)
    monkeypatch.setattr(Atlas, "compose", refuse)
    fld = PrimeField(32003)
    atlas = enumerate_indecomposables("A3", fld)
    atlas.save(tmp_path / "atlas.json")
    loaded = Atlas.load(tmp_path / "atlas.json", fld)
    for a in (atlas, loaded):
        graph = mutation_graph(enumerate_maximal_rigid(a), a.dq.nv)
        assert graph.size == 14 and a._gamma is None


def test_atlas_end_bases_are_identity_then_nilpotent(atlas_a3):
    fld = atlas_a3.field
    for mid, m in enumerate(atlas_a3.modules):
        basis = atlas_a3.hom_basis(mid, mid)
        assert len(basis) == int(atlas_a3.hom_table[mid, mid])
        assert all(np.array_equal(basis[0][v], fld.eye(d)) for v, d in enumerate(m.dims))
        for b in basis[1:]:
            power = b
            for _ in range(m.total_dim):
                power = tuple(fld.mul(x, y) for x, y in zip(power, b))
            assert not any(np.any(x) for x in power)


def test_atlas_memos_stay_out_of_payload(atlas_a3):
    from dataclasses import replace

    from preproj.atlas import compare_atlases

    fresh = replace(atlas_a3)
    before = fresh.to_payload()
    fresh.compose(0, 5, 7)
    assert fresh._homs and fresh._gamma is not None
    assert fresh.to_payload() == before
    assert compare_atlases(fresh, atlas_a3) == []
    assert not replace(fresh)._homs


def _kernel_of_approximation(atlas, t, t_prime):
    """K in 0 -> K -> T'' -> T -> 0, built from a basis of Hom(T'_i, T)
    into the whole direct sum T."""
    from preproj.modules import direct_sum, sub_representation

    fld, dq = atlas.field, atlas.dq
    t_mod = direct_sum(dq, fld, [atlas.modules[k] for k in t.summands])
    piece_ids, maps = [], []
    for k in t_prime.summands:
        for b in hom_basis(atlas.modules[k], t_mod):
            piece_ids.append(k)
            maps.append(b)
    approx = direct_sum(dq, fld, [atlas.modules[k] for k in piece_ids])
    mats = [np.concatenate([b[v] for b in maps], axis=1) for v in range(dq.nv)]
    return sub_representation(approx, [fld.kernel_basis(m) for m in mats])


def _check_kernel_multiplicities(atlas, rigids, edges):
    """On each edge, in both directions, the Hom column the check derives
    by left exactness is the Hom column of the kernel itself, and so are
    the dimension vector and Hom column of the summands it reports.
    Returns the largest multiplicity reported."""
    from preproj.modules import hom_dim

    hom = atlas.hom_table
    dims = np.array([m.dims for m in atlas.modules])
    top = 0
    for i, j in edges:
        for a, b in ((i, j), (j, i)):
            out = coresolution_check(atlas, rigids[a], rigids[b])
            assert out["ok"], (a, b)
            kernel = _kernel_of_approximation(atlas, rigids[a], rigids[b])
            v = np.zeros(atlas.size, dtype=np.int64)
            for mid, mult in out["kernel_summands"]:
                v[mid] = mult
            assert np.array_equal(hom @ v, [hom_dim(x, kernel) for x in atlas.modules]), (a, b)
            assert tuple(v @ dims) == kernel.dims
            top = max(top, int(v.max()))
    return top


def test_coresolution_multiplicities_match_the_kernel_a3(setup_a3):
    atlas, rigids, graph, _ = setup_a3
    _check_kernel_multiplicities(atlas, rigids, graph.edges)


def test_coresolution_without_multiplicities_raises(setup_a3, monkeypatch):
    # the multiplicities are the only way the check identifies the kernel
    from preproj import endo

    atlas, rigids, graph, _ = setup_a3
    monkeypatch.setattr(endo, "_multiplicities", lambda *args: None)
    i, j = graph.edges[0]
    with pytest.raises(IntegrityError):
        coresolution_check(atlas, rigids[i], rigids[j])


@pytest.mark.parametrize("qtype, p, n_edges", [("A3", 5, None), ("A4", 11, 4)])
def test_coresolution_finds_multiplicities_of_p_and_above(qtype, p, n_edges):
    # kernels with summands of multiplicity >= p, which a solve over the
    # atlas's F_p would return mod p: the check identifies them exactly
    from tests.conftest import shared_atlas, shared_rigids

    rigids, graph = shared_rigids(qtype, p)
    assert _check_kernel_multiplicities(shared_atlas(qtype, p), rigids, graph.edges[:n_edges]) >= p


def test_t_suites_take_hom_bases_from_the_atlas_once(atlas_a3, rigids_a3, monkeypatch):
    # every Hom basis End(T), Hom(-, T) and the coresolution use is computed
    # once per run, by the atlas: at most one modules.hom_basis call per
    # ordered pair of atlas modules (144 on A3)
    from dataclasses import replace

    from preproj import atlas as atlas_mod
    from preproj import endo, extensions, modules
    from preproj.verify import T_SUITES, run_t_suites

    calls = []

    def counting(x, y):
        calls.append((x, y))
        return hom_basis(x, y)

    monkeypatch.setattr(atlas_mod, "hom_basis", counting)
    # endo must not compute Hom bases itself, nor may the T pass reach the
    # cocycle layer; count any binding either gains or keeps
    monkeypatch.setattr(endo, "hom_basis", counting, raising=False)
    monkeypatch.setattr(extensions, "hom_basis", counting, raising=False)
    # the atlas takes the bases of End(X) from modules.local_basis
    monkeypatch.setattr(modules, "hom_basis", counting)
    rigids, graph = rigids_a3
    reports = run_t_suites(T_SUITES, replace(atlas_a3), rigids, graph, range(len(rigids)))
    assert all(rep["passed"] for rep in reports.values())
    assert 0 < len(calls) <= atlas_a3.size ** 2


def test_t_suites_read_the_exchange_edges_from_the_graph(atlas_a3, rigids_a3, monkeypatch):
    # theorem1 checks the mutation edges graph already holds; it scans no
    # set of tilting sets for exchange pairs
    from preproj import endo, rigidgraph
    from preproj.verify import T_SUITES, run_t_suites

    calls = []

    def counting(sets):
        calls.append(len(sets))
        return exchange_pairs(sets)

    monkeypatch.setattr(rigidgraph, "exchange_pairs", counting)
    monkeypatch.setattr(endo, "exchange_pairs", counting, raising=False)
    rigids, graph = rigids_a3
    reports = run_t_suites(T_SUITES, atlas_a3, rigids, graph, range(len(rigids)))
    assert all(rep["passed"] for rep in reports.values())
    assert calls == []


def _check_relative_ext(atlas, rigids) -> set:
    """relative_ext at each T equals, for every ordered pair, the dimension
    of the kernel of the stacked connecting matrices over T's summands.
    Returns the (Ext dimension, exact dimension) pairs seen."""
    spaces, seen = {}, set()
    for t in rigids:
        rel = relative_ext(atlas, t)
        summands = [atlas.modules[n] for n in t.summands]
        for x, y in np.ndindex(rel.shape):
            d = int(atlas.ext_table[x, y])
            if d:
                if (x, y) not in spaces:
                    spaces[x, y] = ext1_cocycle(atlas.modules[x], atlas.modules[y])
                want = exact_classes(spaces[x, y], summands).shape[1]
            else:
                want = 0
            assert rel[x, y] == want, (t.summands, x, y)
            seen.add((d, want))
    return seen


@pytest.mark.parametrize("p", [32003, 5])
def test_relative_ext_matches_the_connecting_matrices_a3(p):
    from tests.conftest import shared_atlas, shared_rigids

    rigids, _ = shared_rigids("A3", p)
    assert len(rigids) == 14
    _check_relative_ext(shared_atlas("A3", p), rigids)


def test_relative_ext_matches_the_connecting_matrices_a4(atlas_a4, rigids_a4):
    rigids, _ = rigids_a4
    seen = _check_relative_ext(atlas_a4, [rigids[245], rigids[621]])
    # some 2-dim Ext spaces have a single exact line
    assert (2, 1) in seen


def test_t_suites_build_no_extension_space(atlas_a3, rigids_a3, monkeypatch):
    # lemma37 and lemma22 read relative_ext, which takes Hom dimensions and
    # Γ's constants only: no cocycle, coboundary or connecting matrix
    from dataclasses import replace

    from preproj import endo, extensions, verify
    from preproj.verify import T_SUITES, run_t_suites

    def refuse(*args):
        raise AssertionError("the T pass built an extension space")

    for name in ("ext1_cocycle", "coboundary_echelon", "connecting_matrix"):
        monkeypatch.setattr(extensions, name, refuse)
        for module in (endo, verify):
            monkeypatch.setattr(module, name, refuse, raising=False)
    rigids, graph = rigids_a3
    reports = run_t_suites(T_SUITES, replace(atlas_a3), rigids, graph, range(len(rigids)))
    assert all(rep["passed"] for rep in reports.values())


def test_relative_ext_without_multiplicities_raises(setup_a3, monkeypatch):
    # the multiplicities are the only way relative_ext identifies a cokernel
    from preproj import endo

    atlas, rigids, _, _ = setup_a3
    monkeypatch.setattr(endo, "_multiplicities", lambda *args: None)
    with pytest.raises(IntegrityError):
        relative_ext(atlas, rigids[0])


def test_lemma37_lists_pairs_without_an_exact_orientation_in_row_major_order(setup_a3, monkeypatch):
    # a pair fails when neither orientation has an exact class
    from preproj import verify

    atlas, rigids, _, _ = setup_a3
    pairs = np.argwhere(np.triu(atlas.ext_table != 0, 1)).tolist()
    dropped = [pairs[5], pairs[2]]

    def relative(atlas, t):
        rel = relative_ext(atlas, t)
        for x, y in dropped:
            rel[x, y] = rel[y, x] = 0
        return rel

    monkeypatch.setattr(verify, "relative_ext", relative)
    report = verify.run_t_suites(("lemma37",), atlas, rigids, None, [3, 7])["lemma37"]
    assert not report["passed"] and report["checks"] == 2 * len(pairs)
    assert report["failures"] == [
        {"pair": pair, "t_index": ti, "verdict": "NONE"} for ti in (3, 7) for pair in (pairs[2], pairs[5])
    ]


def _assert_associative(alg):
    """(e1 e2) e3 = e1 (e2 e3) for every composable triple of basis elements,
    from the multiplication table alone.  tab[(m, k, l)][e1, e2] holds the
    coordinates of e1 o e2 for e1 in block (k, l) and e2 in block (m, k), so
    per chain a -> b -> c -> d of summand positions both bracketings are
    one contraction of two such tensors."""
    fld, r, blocks = alg.field, alg.r, alg.block_elems
    tab = {}
    for m in range(r):
        for k in range(r):
            for l in range(r):
                firsts, seconds = blocks[(k, l)], blocks[(m, k)]
                t = np.zeros((len(firsts), len(seconds), len(blocks[(m, l)])), dtype=np.int64)
                for e1, i1 in enumerate(firsts):
                    for e2, i2 in enumerate(seconds):
                        block, t[e1, e2] = product_coords(alg, i1, i2)
                        assert block == (m, l)
                tab[(m, k, l)] = t
    for a in range(r):
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    left = np.einsum("xyj,jzo->xyzo", tab[(b, c, d)], tab[(a, b, d)]) % fld.p
                    right = np.einsum("yzj,xjo->xyzo", tab[(a, b, c)], tab[(a, c, d)]) % fld.p
                    assert np.array_equal(left, right), (a, b, c, d)


def test_end_t_multiplication_is_associative_a3(atlas_a3, rigids_a3):
    for t in rigids_a3[0]:
        _assert_associative(BoundAlgebra(atlas_a3, t))


@pytest.mark.parametrize("t_index", A4_NAMED)
def test_end_t_multiplication_is_associative_a4(atlas_a4, rigids_a4, t_index):
    _assert_associative(BoundAlgebra(atlas_a4, rigids_a4[0][t_index]))
