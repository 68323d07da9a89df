import itertools
import json
from math import comb

import numpy as np
import pytest

from preproj.errors import InputError
from preproj.rigidgraph import (
    A3_RIGID_LABELS,
    compatibility,
    enumerate_maximal_rigid,
    exchange_pairs,
    export_graph,
    is_connected,
    maximal_cliques,
    mutation_graph,
    resolve_rigid_label,
)
from tests.oracle import load_graph_json, reference_complements, reference_maximal_cliques

# one-summand-exchange edges of the fourteen A3 vertices, by label
A3_EDGES = {
    ("R1", "R2"), ("R2", "R12"), ("R2", "R3"), ("R3", "R8"), ("R12", "R8"),
    ("R12", "R5"), ("R4", "R5"), ("R4", "R1"), ("R6", "R5"), ("R6", "R7"),
    ("R8", "R7"), ("R7", "R10"), ("R9", "R10"), ("R9", "R6"), ("R9", "R13"),
    ("R13", "R4"), ("R13", "R14"), ("R1", "R14"), ("R11", "R14"),
    ("R11", "R10"), ("R11", "R3"),
}


def label_summands(atlas, label):
    projs = set(atlas.projective_ids)
    return frozenset({atlas.id_by_alias(a) for a in A3_RIGID_LABELS[label]} | projs)


def test_maximal_cliques_a3(atlas_a3):
    # every indecomposable is rigid and the projectives extend with nothing,
    # so each clique holds them
    cliques = maximal_cliques(compatibility(atlas_a3.ext_table))
    assert cliques == [t.summands for t in enumerate_maximal_rigid(atlas_a3)]
    assert cliques == reference_maximal_cliques(atlas_a3.ext_table)
    assert len(cliques) == 14
    assert all(set(atlas_a3.projective_ids) <= set(c) for c in cliques)


def test_compatibility_rule():
    # 0 and 1 extend each other one way, 2 has a self-extension, 3 is free
    ext = np.array([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    want = np.array(
        [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 0, 1]], dtype=bool
    )
    assert np.array_equal(compatibility(ext), want)
    assert maximal_cliques(want) == [(0, 3), (1, 3)] == reference_maximal_cliques(ext)


def test_edge_complements_match_set_differences(rigids_a3, rigids_a4):
    for _, graph in (rigids_a3, rigids_a4):
        x, y = graph.complements
        assert list(zip(x.tolist(), y.tolist())) == reference_complements(graph)
        assert graph.complements is graph.complements


def test_counts(rigids_a2, rigids_a3, rigids_a4):
    assert len(rigids_a2[0]) == 2
    assert len(rigids_a3[0]) == 14
    assert len(rigids_a4[0]) == 672
    assert all(len(t.summands) == 3 for t in rigids_a2[0])
    assert all(len(t.summands) == 6 for t in rigids_a3[0])
    assert all(len(t.summands) == 10 for t in rigids_a4[0])


def test_a4_count_matches_cluster_formula(rigids_a4):
    # type D_6 cluster count: (3n-2)/n * C(2n-2, n-1) at n = 6
    assert len(rigids_a4[0]) == (3 * 6 - 2) * comb(10, 5) // 6 == 672


def test_a2_exhaustive_subset_oracle(atlas_a2, rigids_a2):
    ext = atlas_a2.ext_table
    rigid_sets = []
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            if all(ext[i, j] == 0 for i in subset for j in subset):
                rigid_sets.append(set(subset))
    maximal = [s for s in rigid_sets if not any(s < t for t in rigid_sets)]
    assert sorted(tuple(sorted(s)) for s in maximal) == [
        t.summands for t in rigids_a2[0]
    ]


def test_mutation_graph_shapes(rigids_a2, rigids_a3, rigids_a4):
    for (rigids, graph), (v, e, deg) in [
        (rigids_a2, (2, 1, 1)),
        (rigids_a3, (14, 21, 3)),
        (rigids_a4, (672, 2016, 6)),
    ]:
        assert graph.size == v
        assert len(graph.edges) == e
        assert graph.is_regular(deg)
        assert graph.r - graph.n == deg
        assert is_connected(graph)


def test_a4_edge_count_formula(rigids_a4):
    graph = rigids_a4[1]
    assert len(graph.edges) == 672 * 6 // 2


def test_exchange_pairs_match_brute_force(rigids_a2, rigids_a3, rigids_a4):
    def brute(sets):
        return [
            (i, j)
            for i in range(len(sets))
            for j in range(i + 1, len(sets))
            if len(set(sets[i]) ^ set(sets[j])) == 2
        ]

    for rigids, _ in (rigids_a2, rigids_a3, rigids_a4):
        sets = [t.summands for t in rigids]
        assert exchange_pairs(sets) == brute(sets)
        # input order is free, and a repeated subset is not its own partner
        shuffled = sets[::-1] + sets[:1]
        assert exchange_pairs(shuffled) == brute(shuffled)
    assert exchange_pairs([]) == []


def test_label_sets_are_the_vertices(atlas_a3, rigids_a3):
    rigids, _ = rigids_a3
    ours = {frozenset(t.summands) for t in rigids}
    labelled = {label_summands(atlas_a3, lab) for lab in A3_RIGID_LABELS}
    assert len(labelled) == 14
    assert labelled == ours


def test_published_r10_r11_lists_are_not_rigid(atlas_a3):
    # negative control: swapping 2over1 back to 2over3 in R10/R11 gives sets
    # that fail Ext-orthogonality, so they cannot be vertices
    ext = atlas_a3.ext_table
    for wrong in (
        {"S1", "2over3", "2over13"},
        {"S1", "2over3", "1over2"},
    ):
        ids = [atlas_a3.id_by_alias(a) for a in wrong]
        assert any(ext[i, j] != 0 for i in ids for j in ids)


def test_adjacency_matches_label_edges(atlas_a3, rigids_a3):
    rigids, graph = rigids_a3
    index_of = {frozenset(t.summands): i for i, t in enumerate(rigids)}
    vmap = {lab: index_of[label_summands(atlas_a3, lab)] for lab in A3_RIGID_LABELS}
    expected = {tuple(sorted((vmap[a], vmap[b]))) for a, b in A3_EDGES}
    assert expected == {tuple(e) for e in graph.edges}


def test_mutation_partners_unique(rigids_a3):
    rigids, graph = rigids_a3
    for i, t in enumerate(rigids):
        partners = {}
        for a, b in graph.edges:
            if i in (a, b):
                other = rigids[b if a == i else a]
                swapped = set(t.summands) - set(other.summands)
                assert len(swapped) == 1
                pos = swapped.pop()
                assert pos not in partners
                partners[pos] = other
        assert len(partners) == graph.r - graph.n


def test_exports(tmp_path, atlas_a3, rigids_a3):
    rigids, graph = rigids_a3
    dot = tmp_path / "g.dot"
    export_graph(graph, "dot", dot, "A3", atlas_a3)
    lines = dot.read_text().splitlines()
    assert sum(1 for l in lines if "label=" in l) == 14
    assert sum(1 for l in lines if " -- " in l) == 21

    jpath = tmp_path / "g.json"
    export_graph(graph, "json", jpath, "A3", atlas_a3)
    loaded = load_graph_json(jpath)
    assert loaded.edges == graph.edges
    assert [t.summands for t in loaded.vertices] == [t.summands for t in graph.vertices]

    payload = json.loads(jpath.read_text())
    assert payload["r"] == 6 and payload["n"] == 3


def test_export_empty_graph(tmp_path):
    from preproj.rigidgraph import MutationGraph

    empty = MutationGraph(vertices=[], edges=[], r=0, n=0)
    path = tmp_path / "empty.dot"
    export_graph(empty, "dot", path, "A3")
    assert path.read_text().startswith("graph")
    jpath = tmp_path / "empty.json"
    export_graph(empty, "json", jpath, "A3")
    assert load_graph_json(jpath).size == 0


def test_resolve_rigid_label(atlas_a3, rigids_a3):
    rigids, _ = rigids_a3
    idx = resolve_rigid_label(atlas_a3, rigids, "R1")
    assert frozenset(rigids[idx].summands) == label_summands(atlas_a3, "R1")
    assert resolve_rigid_label(atlas_a3, rigids, "3") == 3
    with pytest.raises(InputError):
        resolve_rigid_label(atlas_a3, rigids, "R99")
    with pytest.raises(InputError):
        resolve_rigid_label(atlas_a3, rigids, "99")
